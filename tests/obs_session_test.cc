// Tests for the session <-> observability integration. The central
// contract is that observability is *charge-free*: attaching a
// MetricsRegistry and a HostProfiler, and rendering TraceJson(), must
// leave every charged stat — per-query JoinStats, solo/finish seconds,
// the batch schedule — bit-identical to a bare run. The rest checks
// that what the hooks report actually matches SessionStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/api/gjoin.h"
#include "src/data/generator.h"
#include "src/exec/session.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"

namespace gjoin {
namespace {

using exec::Session;
using exec::SessionConfig;

void ExpectStatsBitIdentical(const gpujoin::JoinStats& a,
                             const gpujoin::JoinStats& b) {
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.payload_sum, b.payload_sum);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_DOUBLE_EQ(a.partition_s, b.partition_s);
  EXPECT_DOUBLE_EQ(a.join_s, b.join_s);
  EXPECT_DOUBLE_EQ(a.transfer_s, b.transfer_s);
  EXPECT_DOUBLE_EQ(a.cpu_s, b.cpu_s);
}

/// Counts non-overlapping occurrences of `needle` in `haystack`.
size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

class ObsSessionTest : public ::testing::Test {
 protected:
  ObsSessionTest()
      : r_(data::MakeUniqueUniform(100000, 21)),
        s_(data::MakeUniformProbe(200000, 100000, 22)),
        s2_(data::MakeUniformProbe(200000, 100000, 23)) {}

  /// Submits the 2-query shared-build batch to `session` and runs it,
  /// under `strategy` (kAuto picks in-GPU for these sizes).
  void SubmitAndRun(Session* session,
                    api::Strategy strategy = api::Strategy::kAuto) {
    api::JoinConfig cfg;
    cfg.pass_bits = {6, 5};
    cfg.strategy = strategy;
    session->Submit(r_, s_, cfg);
    session->Submit(r_, s2_, cfg);
    const auto status = session->Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  /// Runs the batch under `strategy` bare and fully observed, and
  /// expects every charged number to be bit-identical. Hands back the
  /// observed run's host spans when `spans` is non-null.
  void ExpectChargeFree(api::Strategy strategy,
                        std::vector<obs::HostProfiler::Span>* spans) {
    sim::Device bare_device{hw::HardwareSpec::Icde2019Testbed()};
    Session bare(&bare_device);
    ASSERT_NO_FATAL_FAILURE(SubmitAndRun(&bare, strategy));

    obs::MetricsRegistry registry;
    obs::HostProfiler profiler;
    sim::Device obs_device{hw::HardwareSpec::Icde2019Testbed()};
    SessionConfig config;
    config.metrics = &registry;
    config.profiler = &profiler;
    Session observed(&obs_device, config);
    ASSERT_NO_FATAL_FAILURE(SubmitAndRun(&observed, strategy));
    // Rendering the trace must not perturb anything either.
    ASSERT_TRUE(observed.TraceJson().ok());

    const api::Strategy expected_strategy =
        strategy == api::Strategy::kAuto ? api::Strategy::kInGpu : strategy;
    for (const exec::QueryHandle q : {0, 1}) {
      SCOPED_TRACE("query " + std::to_string(q));
      EXPECT_EQ(observed.result(q).outcome.strategy, expected_strategy);
      ExpectStatsBitIdentical(observed.result(q).outcome.stats,
                              bare.result(q).outcome.stats);
      EXPECT_DOUBLE_EQ(observed.result(q).solo_seconds,
                       bare.result(q).solo_seconds);
      EXPECT_DOUBLE_EQ(observed.result(q).finish_s, bare.result(q).finish_s);
    }
    EXPECT_DOUBLE_EQ(observed.stats().makespan_s, bare.stats().makespan_s);
    EXPECT_DOUBLE_EQ(observed.stats().speedup, bare.stats().speedup);
    EXPECT_EQ(observed.stats().shared_build_hits,
              bare.stats().shared_build_hits);
    EXPECT_EQ(observed.stats().coprocess_part_hits,
              bare.stats().coprocess_part_hits);
    ASSERT_EQ(observed.stats().schedule.start_s.size(),
              bare.stats().schedule.start_s.size());
    for (size_t i = 0; i < bare.stats().schedule.start_s.size(); ++i) {
      EXPECT_DOUBLE_EQ(observed.stats().schedule.start_s[i],
                       bare.stats().schedule.start_s[i])
          << "op " << i;
    }
    if (spans != nullptr) *spans = profiler.spans();
  }

  data::Relation r_;
  data::Relation s_;
  data::Relation s2_;
};

TEST_F(ObsSessionTest, AttachingObservabilityIsChargeFree) {
  ExpectChargeFree(api::Strategy::kAuto, nullptr);
}

TEST_F(ObsSessionTest, CoProcessingPhaseSpansAreChargeFree) {
  std::vector<obs::HostProfiler::Span> spans;
  ASSERT_NO_FATAL_FAILURE(
      ExpectChargeFree(api::Strategy::kCoProcessing, &spans));
  // Each query's CPU partitioning, plan and pipeline timing get their
  // own span, nested in that query's execute span. None of them may
  // carry the "execute:q" prefix that consumers sum per query.
  size_t execute_spans = 0;
  for (const obs::HostProfiler::Span& span : spans) {
    execute_spans += span.name.rfind("execute:q", 0) == 0;
  }
  EXPECT_EQ(execute_spans, 2u);
  for (const int q : {0, 1}) {
    SCOPED_TRACE("query " + std::to_string(q));
    const std::string suffix = ":q" + std::to_string(q);
    const obs::HostProfiler::Span* query_span = nullptr;
    for (const obs::HostProfiler::Span& span : spans) {
      if (span.name == "execute" + suffix) query_span = &span;
    }
    ASSERT_NE(query_span, nullptr);
    for (const char* phase : {"coprocess:cpu_partition", "coprocess:plan",
                              "coprocess:execute"}) {
      SCOPED_TRACE(phase);
      size_t found = 0;
      for (const obs::HostProfiler::Span& span : spans) {
        if (span.name != phase + suffix) continue;
        ++found;
        EXPECT_GE(span.start_s, query_span->start_s);
        EXPECT_LE(span.start_s + span.duration_s,
                  query_span->start_s + query_span->duration_s);
      }
      EXPECT_EQ(found, 1u);
    }
  }
}

TEST_F(ObsSessionTest, PublishedMetricsMatchSessionStats) {
  obs::MetricsRegistry registry;
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  SessionConfig config;
  config.metrics = &registry;
  Session session(&device, config);
  ASSERT_NO_FATAL_FAILURE(SubmitAndRun(&session));

  EXPECT_EQ(registry
                .GetCounter(
                    "gjoin_queries_completed_total{strategy=\"in-gpu\"}")
                ->value(),
            2u);
  EXPECT_EQ(registry.GetCounter("gjoin_queries_failed_total")->value(), 0u);
  EXPECT_EQ(registry.GetCounter("gjoin_upload_cache_hits_total")->value(),
            session.stats().cache.hits);
  EXPECT_EQ(registry.GetCounter("gjoin_upload_cache_misses_total")->value(),
            session.stats().cache.misses);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("gjoin_batch_makespan_modeled_seconds")->value(),
      session.stats().makespan_s);

  const obs::Histogram::Snapshot latency =
      registry
          .GetHistogram("gjoin_query_latency_modeled_seconds",
                        obs::MetricsRegistry::LatencyBuckets())
          ->TakeSnapshot();
  EXPECT_EQ(latency.count, 2u);
  const double expected_max =
      std::max(session.result(0).finish_s, session.result(1).finish_s);
  EXPECT_DOUBLE_EQ(latency.max, expected_max);
  EXPECT_DOUBLE_EQ(latency.sum, session.result(0).finish_s +
                                    session.result(1).finish_s);

  const std::string text = registry.PrometheusText();
  EXPECT_NE(
      text.find("# TYPE gjoin_query_latency_modeled_seconds histogram"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("gjoin_queries_completed_total{strategy=\"in-gpu\"} 2"),
      std::string::npos)
      << text;

  // The query-lifecycle metrics are gated on configuration: with no
  // deadline/budget/limit/breaker armed, none of them may register —
  // the unconfigured exposition must not grow lifecycle rows.
  for (const char* gated : {"gjoin_queries_shed_total",
                            "gjoin_deadline_miss_total",
                            "gjoin_queries_cancelled_total",
                            "gjoin_device_quarantines_total",
                            "gjoin_retry_budget_exhausted_total",
                            "gjoin_device_health_ratio"}) {
    EXPECT_EQ(text.find(gated), std::string::npos) << gated;
  }
}

TEST_F(ObsSessionTest, DeviceMemoryPeakIsTrackedAndPublished) {
  obs::MetricsRegistry registry;
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  SessionConfig config;
  config.metrics = &registry;
  Session session(&device, config);
  ASSERT_NO_FATAL_FAILURE(SubmitAndRun(&session));

  ASSERT_EQ(session.stats().device_peak_bytes.size(), 1u);
  EXPECT_GT(session.stats().device_peak_bytes[0], 0u);
  EXPECT_EQ(session.stats().device_peak_bytes[0],
            device.memory().peak_used());
  // The peak survives the frees at batch teardown: everything is
  // released by now, yet the high-water mark stands.
  EXPECT_LT(device.memory().used(), device.memory().peak_used());
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("gjoin_device_memory_peak_bytes{device=\"0\"}")
          ->value(),
      static_cast<double>(session.stats().device_peak_bytes[0]));
}

TEST_F(ObsSessionTest, TraceJsonCarriesQueryMetadataAndHostSpans) {
  obs::HostProfiler profiler;
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  SessionConfig config;
  config.profiler = &profiler;
  Session session(&device, config);
  ASSERT_NO_FATAL_FAILURE(SubmitAndRun(&session));

  const auto json = session.TraceJson();
  ASSERT_TRUE(json.ok()) << json.status();
  // One complete event per scheduled op of the merged batch timeline.
  EXPECT_EQ(CountOccurrences(*json, "{\"ph\":\"X\",\"pid\":1,"),
            session.stats().schedule.start_s.size());
  // Ops keep their query-prefixed labels and per-query annotations.
  EXPECT_NE(json->find("\"q0:"), std::string::npos);
  EXPECT_NE(json->find("\"q1:"), std::string::npos);
  EXPECT_NE(json->find("\"query\":1"), std::string::npos);
  EXPECT_NE(json->find("\"strategy\":\"in-gpu\""), std::string::npos);
  EXPECT_NE(json->find("\"bytes_moved\":"), std::string::npos);
  // The profiler's phase spans land on the host track.
  EXPECT_NE(json->find("host wall clock"), std::string::npos);
  EXPECT_NE(json->find("\"session:plan\""), std::string::npos);
  EXPECT_NE(json->find("\"session:schedule\""), std::string::npos);
  EXPECT_NE(json->find("\"execute:q0\""), std::string::npos);
  EXPECT_NE(json->find("\"execute:q1\""), std::string::npos);
}

TEST_F(ObsSessionTest, TraceJsonBeforeRunIsInvalid) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  Session session(&device);
  const auto json = session.TraceJson();
  ASSERT_FALSE(json.ok());
  EXPECT_EQ(json.status().code(), util::StatusCode::kInvalid);
}

TEST_F(ObsSessionTest, RegistryAccumulatesAcrossSessions) {
  obs::MetricsRegistry registry;
  for (int round = 0; round < 3; ++round) {
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    SessionConfig config;
    config.metrics = &registry;
    Session session(&device, config);
    ASSERT_NO_FATAL_FAILURE(SubmitAndRun(&session));
  }
  EXPECT_EQ(registry
                .GetCounter(
                    "gjoin_queries_completed_total{strategy=\"in-gpu\"}")
                ->value(),
            6u);
  const obs::Histogram::Snapshot latency =
      registry
          .GetHistogram("gjoin_query_latency_modeled_seconds",
                        obs::MetricsRegistry::LatencyBuckets())
          ->TakeSnapshot();
  EXPECT_EQ(latency.count, 6u);
}

}  // namespace
}  // namespace gjoin
