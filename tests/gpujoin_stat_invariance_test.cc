// Stat-invariance regression test for the batch-granularity simulator
// fast path.
//
// The batched hot paths (grouped radix partitioning, analytic
// nested-loop tile charging, bulk stage flushes) must charge *exactly*
// the KernelStats the tuple-at-a-time reference implementation charged —
// every simulated-seconds number in the paper-figure benches derives
// from them. The golden values below were captured from the pre-batching
// implementation (PR 1 tree) with the capture harness in this file's
// history: mid-size partitioned joins under all three probe algorithms,
// a partition-at-a-time second pass, and the out-of-GPU streaming probe.
// Any drift in a counter, match count, checksum or modeled time fails
// the test.

#include <gtest/gtest.h>

#include <vector>

#include "src/cpu/cpu_joins.h"
#include "src/cpu/cpu_partition.h"
#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/gpujoin/nonpartitioned.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/gpujoin/radix_partition.h"
#include "src/outofgpu/coprocess.h"
#include "src/outofgpu/streaming_probe.h"
#include "src/util/probe_pipeline.h"
#include "src/util/thread_pool.h"

namespace gjoin {
namespace {

/// One expected launch profile entry: name + every KernelStats counter +
/// modeled seconds.
struct GoldenLaunch {
  const char* name;
  uint64_t coalesced_read_bytes;
  uint64_t coalesced_write_bytes;
  uint64_t scatter_write_bytes;
  uint64_t random_transactions;
  uint64_t random_working_set_bytes;
  uint64_t shared_bytes;
  uint64_t shared_atomics;
  uint64_t device_atomics;
  uint64_t total_cycles;
  uint64_t max_block_cycles;
  uint64_t num_blocks;
  double seconds;
};

void ExpectProfileMatches(const sim::Device& device,
                          const std::vector<GoldenLaunch>& golden) {
  const auto profile = device.profile();
  ASSERT_EQ(profile.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    SCOPED_TRACE("launch " + std::to_string(i) + " (" + profile[i].name +
                 ")");
    const auto& s = profile[i].stats;
    const auto& g = golden[i];
    EXPECT_EQ(profile[i].name, g.name);
    EXPECT_EQ(s.coalesced_read_bytes, g.coalesced_read_bytes);
    EXPECT_EQ(s.coalesced_write_bytes, g.coalesced_write_bytes);
    EXPECT_EQ(s.scatter_write_bytes, g.scatter_write_bytes);
    EXPECT_EQ(s.random_transactions, g.random_transactions);
    EXPECT_EQ(s.random_working_set_bytes, g.random_working_set_bytes);
    EXPECT_EQ(s.shared_bytes, g.shared_bytes);
    EXPECT_EQ(s.shared_atomics, g.shared_atomics);
    EXPECT_EQ(s.device_atomics, g.device_atomics);
    EXPECT_EQ(s.total_cycles, g.total_cycles);
    EXPECT_EQ(s.max_block_cycles, g.max_block_cycles);
    EXPECT_EQ(s.num_blocks, g.num_blocks);
    EXPECT_DOUBLE_EQ(profile[i].seconds, g.seconds);
  }
}

class StatInvarianceTest : public ::testing::Test {
 protected:
  StatInvarianceTest()
      : r_(data::MakeUniqueUniform(100000, 21)),
        s_(data::MakeUniformProbe(200000, 100000, 22)) {}

  data::Relation r_;
  data::Relation s_;
};

TEST_F(StatInvarianceTest, SharedHashJoinAggregate) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {6, 5};
  auto st = gpujoin::PartitionedJoinFromHost(&device, r_, s_, cfg);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->matches, 200000u);
  EXPECT_EQ(st->payload_sum, 30006356267ull);
  EXPECT_DOUBLE_EQ(st->seconds, 0.00012578700876018098);
  EXPECT_DOUBLE_EQ(st->partition_s, 0.00010094888376018099);
  EXPECT_DOUBLE_EQ(st->join_s, 2.4838125e-05);
  ExpectProfileMatches(
      device,
      {{"radix_partition_pass1", 800000, 0, 800000, 0, 0, 1651200, 100000,
        5120, 197680, 4942, 40, 1.4496898793363498e-05},
       {"radix_partition_pass2", 800000, 0, 800000, 60612, 800000, 1600000,
        100000, 62660, 201554, 5043, 40, 2.5555766793363497e-05},
       {"radix_partition_pass1", 1600000, 0, 1600000, 0, 0, 3251200, 200000,
        5120, 395200, 9880, 40, 2.3340997586726994e-05},
       {"radix_partition_pass2", 1600000, 0, 1600000, 77307, 1600000,
        3200000, 200000, 79355, 398993, 9981, 40,
        3.7555220586726994e-05},
       {"join_copartitions_hash", 2424576, 0, 0, 4096, 1600000, 11437592,
        100000, 640, 1249080, 31741, 40, 2.4838125e-05}});
}

TEST_F(StatInvarianceTest, NestedLoopJoinAggregate) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {6, 4};
  cfg.join.algo = gpujoin::ProbeAlgorithm::kNestedLoop;
  auto st = gpujoin::PartitionedJoinFromHost(&device, r_, s_, cfg);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->matches, 200000u);
  EXPECT_EQ(st->payload_sum, 30006356267ull);
  EXPECT_DOUBLE_EQ(st->seconds, 0.00011372513476018097);
  EXPECT_DOUBLE_EQ(st->partition_s, 9.0617009760180975e-05);
  EXPECT_DOUBLE_EQ(st->join_s, 2.3108124999999998e-05);
  ExpectProfileMatches(
      device,
      {{"radix_partition_pass1", 800000, 0, 800000, 0, 0, 1651200, 100000,
        5120, 197680, 4942, 40, 1.4496898793363498e-05},
       {"radix_partition_pass2", 800000, 0, 800000, 40033, 800000, 1600000,
        100000, 42081, 198994, 4979, 40, 2.1666335793363498e-05},
       {"radix_partition_pass1", 1600000, 0, 1600000, 0, 0, 3251200, 200000,
        5120, 395200, 9880, 40, 2.3340997586726994e-05},
       {"radix_partition_pass2", 1600000, 0, 1600000, 43220, 1600000,
        3200000, 200000, 45268, 396433, 9917, 40,
        3.1112777586726992e-05},
       {"join_copartitions_nl", 2412288, 0, 0, 4096, 1600000, 4253952, 0,
        640, 1111451, 28973, 40, 2.3108124999999998e-05}});
}

TEST_F(StatInvarianceTest, DeviceHashJoinMaterialize) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {5, 4};
  cfg.join.algo = gpujoin::ProbeAlgorithm::kDeviceHash;
  cfg.join.output = gpujoin::OutputMode::kMaterialize;
  auto st = gpujoin::PartitionedJoinFromHost(&device, r_, s_, cfg);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->matches, 200000u);
  EXPECT_EQ(st->payload_sum, 30006356267ull);
  EXPECT_DOUBLE_EQ(st->seconds, 0.00018746804893966817);
  EXPECT_DOUBLE_EQ(st->partition_s, 8.2260664760180986e-05);
  EXPECT_DOUBLE_EQ(st->join_s, 0.00010520738417948717);
  ExpectProfileMatches(
      device,
      {{"radix_partition_pass1", 800000, 0, 800000, 0, 0, 1625600, 100000,
        2560, 197600, 4940, 40, 1.4170498793363497e-05},
       {"radix_partition_pass2", 800000, 0, 800000, 21613, 800000, 1600000,
        100000, 22637, 198226, 4959, 40, 1.8056955793363497e-05},
       {"radix_partition_pass1", 1600000, 0, 1600000, 0, 0, 3225600, 200000,
        2560, 395120, 9878, 40, 2.3014597586726997e-05},
       {"radix_partition_pass2", 1600000, 0, 1600000, 22235, 1600000,
        3200000, 200000, 23259, 395708, 9898, 40,
        2.7018612586726995e-05},
       {"join_copartitions_hash", 2406144, 6594304, 0, 742848, 1600000,
        3200000, 200000, 101445, 328368, 8380, 40,
        0.00010520738417948717}});
}

TEST_F(StatInvarianceTest, PartitionAtATimeSecondPass) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  gpujoin::RadixPartitionConfig cfg;
  cfg.pass_bits = {6, 5};
  cfg.assignment = gpujoin::WorkAssignment::kPartitionAtATime;
  auto dev = gpujoin::DeviceRelation::Upload(&device, r_);
  ASSERT_TRUE(dev.ok());
  auto parted =
      gpujoin::RadixPartition(&device, *dev, cfg);
  ASSERT_TRUE(parted.ok()) << parted.status();
  EXPECT_EQ(parted->tuples, 100000u);
  EXPECT_DOUBLE_EQ(parted->seconds, 2.9347077586726996e-05);
  ExpectProfileMatches(
      device,
      {{"radix_partition_pass1", 800000, 0, 800000, 0, 0, 1651200, 100000,
        5120, 197680, 4942, 40, 1.4496898793363498e-05},
       {"radix_partition_pass2", 800000, 0, 800000, 2560, 800000, 1640960,
        100000, 6656, 196626, 6150, 40, 1.4850178793363498e-05}});
}

TEST_F(StatInvarianceTest, StreamingProbeAggregate) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  outofgpu::StreamingProbeConfig cfg;
  cfg.chunk_tuples = 60000;
  cfg.join.partition.pass_bits = {6, 5};
  auto st = outofgpu::StreamingProbeJoin(&device, r_, s_, cfg);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->matches, 200000u);
  EXPECT_EQ(st->payload_sum, 30006356267ull);
  EXPECT_DOUBLE_EQ(st->seconds, 0.00032944916982386048);
  EXPECT_DOUBLE_EQ(st->partition_s, 0.00014845304476018099);
  EXPECT_DOUBLE_EQ(st->join_s, 9.6983750000000001e-05);
  EXPECT_DOUBLE_EQ(st->transfer_s, 0.00024512195121951217);
}

// ---- Pipeline-depth invariance ----
// The probe pipeline (src/util/probe_pipeline.h) is a host wall-clock
// knob: at every depth the functional results (match counts, checksums,
// materialized ring bytes) and every charged KernelStats counter must
// be byte-identical — the modeled GPU cost is independent of how the
// host computes the answer. Depths {1, 4, 16} cover the scalar
// reference loop, a shallow ring and a deep ring. These tests extend
// the golden suite above without touching its values: each depth is
// compared against the depth-1 run of the same workload.

/// Everything observable from one run: results, full launch profile and
/// (when materializing) the raw ring bytes.
struct DepthRunCapture {
  uint64_t matches = 0;
  uint64_t payload_sum = 0;
  std::vector<sim::ProfileEntry> profile;
  std::vector<uint64_t> ring;
};

void ExpectSameRun(const DepthRunCapture& ref, const DepthRunCapture& got,
                   int depth) {
  SCOPED_TRACE("pipeline depth " + std::to_string(depth));
  EXPECT_EQ(got.matches, ref.matches);
  EXPECT_EQ(got.payload_sum, ref.payload_sum);
  ASSERT_EQ(got.profile.size(), ref.profile.size());
  for (size_t i = 0; i < ref.profile.size(); ++i) {
    SCOPED_TRACE("launch " + std::to_string(i) + " (" + ref.profile[i].name +
                 ")");
    const hw::KernelStats& a = ref.profile[i].stats;
    const hw::KernelStats& b = got.profile[i].stats;
    EXPECT_EQ(got.profile[i].name, ref.profile[i].name);
    EXPECT_EQ(b.coalesced_read_bytes, a.coalesced_read_bytes);
    EXPECT_EQ(b.coalesced_write_bytes, a.coalesced_write_bytes);
    EXPECT_EQ(b.scatter_write_bytes, a.scatter_write_bytes);
    EXPECT_EQ(b.random_transactions, a.random_transactions);
    EXPECT_EQ(b.random_working_set_bytes, a.random_working_set_bytes);
    EXPECT_EQ(b.shared_bytes, a.shared_bytes);
    EXPECT_EQ(b.shared_atomics, a.shared_atomics);
    EXPECT_EQ(b.device_atomics, a.device_atomics);
    EXPECT_EQ(b.total_cycles, a.total_cycles);
    EXPECT_EQ(b.max_block_cycles, a.max_block_cycles);
    EXPECT_EQ(b.num_blocks, a.num_blocks);
    EXPECT_DOUBLE_EQ(got.profile[i].seconds, ref.profile[i].seconds);
  }
  ASSERT_EQ(got.ring.size(), ref.ring.size());
  for (size_t i = 0; i < ref.ring.size(); ++i) {
    ASSERT_EQ(got.ring[i], ref.ring[i]) << "ring byte mismatch at " << i;
  }
}

constexpr int kDepths[] = {1, 4, 16};

TEST_F(StatInvarianceTest, DepthInvariantPartitionedSharedHash) {
  DepthRunCapture ref;
  for (const int depth : kDepths) {
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    gpujoin::PartitionedJoinConfig cfg;
    cfg.partition.pass_bits = {6, 5};
    cfg.join.probe_pipeline_depth = depth;
    auto st = gpujoin::PartitionedJoinFromHost(&device, r_, s_, cfg);
    ASSERT_TRUE(st.ok()) << st.status();
    DepthRunCapture run{st->matches, st->payload_sum, device.profile(), {}};
    if (depth == kDepths[0]) {
      ref = std::move(run);
    } else {
      ExpectSameRun(ref, run, depth);
    }
  }
}

TEST_F(StatInvarianceTest, DepthInvariantDeviceHashMaterializedRing) {
  // Materialization through a caller-owned ring: the pipeline must
  // preserve the exact match emission order, pinned here byte-for-byte.
  DepthRunCapture ref;
  for (const int depth : kDepths) {
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    gpujoin::RadixPartitionConfig part_cfg;
    part_cfg.pass_bits = {6, 5};
    auto rd = gpujoin::DeviceRelation::Upload(&device, r_);
    auto sd = gpujoin::DeviceRelation::Upload(&device, s_);
    ASSERT_TRUE(rd.ok() && sd.ok());
    auto rp = gpujoin::RadixPartition(&device, *rd, part_cfg);
    auto sp = gpujoin::RadixPartition(&device, *sd, part_cfg);
    ASSERT_TRUE(rp.ok() && sp.ok());
    gpujoin::CoPartitionJoinConfig cfg;
    cfg.algo = gpujoin::ProbeAlgorithm::kDeviceHash;
    cfg.output = gpujoin::OutputMode::kMaterialize;
    cfg.key_bits = 17;
    cfg.probe_pipeline_depth = depth;
    auto ring_result = gpujoin::OutputRing::Allocate(&device.memory(),
                                                     s_.size() + 1);
    ASSERT_TRUE(ring_result.ok());
    gpujoin::OutputRing ring = std::move(ring_result).ValueOrDie();
    auto st = gpujoin::JoinCoPartitions(&device, *rp, *sp, cfg, &ring);
    ASSERT_TRUE(st.ok()) << st.status();
    DepthRunCapture run{st->matches, st->payload_sum, device.profile(), {}};
    ASSERT_FALSE(ring.wrapped());
    run.ring.reserve(ring.total_written());
    for (uint64_t i = 0; i < ring.total_written(); ++i) {
      run.ring.push_back(ring.pair(i));
    }
    if (depth == kDepths[0]) {
      ref = std::move(run);
    } else {
      ExpectSameRun(ref, run, depth);
    }
  }
}

TEST_F(StatInvarianceTest, DepthInvariantNonPartitioned) {
  for (const bool materialize : {false, true}) {
    for (const auto variant : {gpujoin::NonPartitionedVariant::kChaining,
                               gpujoin::NonPartitionedVariant::kPerfectHash}) {
      DepthRunCapture ref;
      for (const int depth : kDepths) {
        sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
        auto rd = gpujoin::DeviceRelation::Upload(&device, r_);
        auto sd = gpujoin::DeviceRelation::Upload(&device, s_);
        ASSERT_TRUE(rd.ok() && sd.ok());
        gpujoin::NonPartitionedJoinConfig cfg;
        cfg.variant = variant;
        cfg.output = materialize ? gpujoin::OutputMode::kMaterialize
                                 : gpujoin::OutputMode::kAggregate;
        cfg.probe_pipeline_depth = depth;
        auto st = gpujoin::NonPartitionedJoin(&device, *rd, *sd, cfg);
        ASSERT_TRUE(st.ok()) << st.status();
        DepthRunCapture run{st->matches, st->payload_sum, device.profile(),
                            {}};
        if (depth == kDepths[0]) {
          ref = std::move(run);
        } else {
          ExpectSameRun(ref, run, depth);
        }
      }
    }
  }
}

TEST_F(StatInvarianceTest, DepthInvariantCpuJoinAndOracle) {
  const int saved = util::DefaultProbePipelineDepth();
  uint64_t ref_matches = 0, ref_sum = 0;
  for (const int depth : kDepths) {
    cpu::CpuJoinConfig cfg;
    cfg.probe_pipeline_depth = depth;
    const hw::CpuCostModel model{hw::CpuSpec{}};
    auto st = cpu::NpoJoin(r_, s_, cfg, model);
    ASSERT_TRUE(st.ok());
    // The oracle takes the process-wide default depth.
    util::SetDefaultProbePipelineDepth(depth);
    const data::OracleResult oracle = data::JoinOracle(r_, s_);
    EXPECT_EQ(st->matches, oracle.matches);
    EXPECT_EQ(st->payload_sum, oracle.payload_sum);
    if (depth == kDepths[0]) {
      ref_matches = st->matches;
      ref_sum = st->payload_sum;
    } else {
      EXPECT_EQ(st->matches, ref_matches);
      EXPECT_EQ(st->payload_sum, ref_sum);
    }
  }
  util::SetDefaultProbePipelineDepth(saved);
}

// ---- Scatter-buffer and chunked-input invariance ----
// The host-side software-managed scatter buffers and the chunk-consuming
// first-pass input are raw-speed / residency knobs: at every buffer size,
// host thread count and chunking they must charge the same golden stats
// the scalar single-threaded contiguous path charges.

TEST_F(StatInvarianceTest, ScatterBufferSizeAndThreadInvariant) {
  DepthRunCapture ref;
  bool have_ref = false;
  for (const size_t threads : {1u, 8u}) {
    util::ThreadPool pool(threads);
    for (const int tuples : {1, 4, 64}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   " scatter_buffer_tuples " + std::to_string(tuples));
      sim::Device device{hw::HardwareSpec::Icde2019Testbed(), &pool};
      gpujoin::PartitionedJoinConfig cfg;
      cfg.partition.pass_bits = {6, 5};
      cfg.partition.scatter_buffer_tuples = tuples;
      auto st = gpujoin::PartitionedJoinFromHost(&device, r_, s_, cfg);
      ASSERT_TRUE(st.ok()) << st.status();
      // Pinned to the SharedHashJoinAggregate golden above.
      EXPECT_EQ(st->matches, 200000u);
      EXPECT_EQ(st->payload_sum, 30006356267ull);
      EXPECT_DOUBLE_EQ(st->seconds, 0.00012578700876018098);
      DepthRunCapture run{st->matches, st->payload_sum, device.profile(), {}};
      if (!have_ref) {
        ref = std::move(run);
        have_ref = true;
      } else {
        ExpectSameRun(ref, run, tuples);
      }
    }
  }
}

TEST_F(StatInvarianceTest, ChunkedConsumingJoinMatchesContiguous) {
  // Contiguous reference run.
  sim::Device ref_device{hw::HardwareSpec::Icde2019Testbed()};
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {6, 5};
  auto rd = gpujoin::DeviceRelation::Upload(&ref_device, r_);
  auto sd = gpujoin::DeviceRelation::Upload(&ref_device, s_);
  ASSERT_TRUE(rd.ok() && sd.ok());
  auto ref_st = gpujoin::PartitionedJoin(&ref_device, *rd, *sd, cfg);
  ASSERT_TRUE(ref_st.ok()) << ref_st.status();
  const DepthRunCapture ref{ref_st->matches, ref_st->payload_sum,
                            ref_device.profile(), {}};

  auto chunked = [](const data::Relation& rel, size_t chunk) {
    gpujoin::ChunkedDeviceInput input;
    for (size_t begin = 0; begin < rel.size(); begin += chunk) {
      const size_t end = std::min(rel.size(), begin + chunk);
      input.Add({rel.keys.begin() + begin, rel.keys.begin() + end},
                {rel.payloads.begin() + begin, rel.payloads.begin() + end});
    }
    return input;
  };
  for (const size_t chunk : {7000u, 100000u, 1000000u}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    auto st = gpujoin::PartitionedJoin(
        &device, gpujoin::PartitionInput::Chunked(chunked(r_, chunk)),
        gpujoin::PartitionInput::Chunked(chunked(s_, chunk)), cfg);
    ASSERT_TRUE(st.ok()) << st.status();
    EXPECT_DOUBLE_EQ(st->seconds, ref_st->seconds);
    EXPECT_DOUBLE_EQ(st->partition_s, ref_st->partition_s);
    EXPECT_DOUBLE_EQ(st->join_s, ref_st->join_s);
    const DepthRunCapture run{st->matches, st->payload_sum, device.profile(),
                              {}};
    ExpectSameRun(ref, run, static_cast<int>(chunk));
  }
}

TEST_F(StatInvarianceTest, ConsumingPlanEqualsSharedPlan) {
  // The borrowed plan leaves its partitions untouched, so any number of
  // plans from one partitioned form equal the plan that consumes it.
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  const hw::CpuCostModel cpu_model(device.spec().cpu);

  // FNV-1a over every partition's columns.
  auto digest = [](const cpu::HostPartitions& parts) {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
    for (const data::Relation& part : parts.parts) {
      mix(part.size());
      for (uint32_t k : part.keys) mix(k);
      for (uint32_t v : part.payloads) mix(v);
    }
    return h;
  };
  auto expect_same_plan = [](const outofgpu::CoProcessPlan& a,
                             const outofgpu::CoProcessPlan& b) {
    EXPECT_EQ(b.total_input_bytes, a.total_input_bytes);
    ASSERT_EQ(b.runs.size(), a.runs.size());
    for (size_t i = 0; i < a.runs.size(); ++i) {
      SCOPED_TRACE("working set run " + std::to_string(i));
      EXPECT_EQ(b.runs[i].matches, a.runs[i].matches);
      EXPECT_EQ(b.runs[i].payload_sum, a.runs[i].payload_sum);
      EXPECT_DOUBLE_EQ(b.runs[i].gpu_seconds, a.runs[i].gpu_seconds);
      EXPECT_DOUBLE_EQ(b.runs[i].join_s, a.runs[i].join_s);
      EXPECT_DOUBLE_EQ(b.runs[i].partition_s, a.runs[i].partition_s);
      EXPECT_EQ(b.runs[i].transfer_bytes, a.runs[i].transfer_bytes);
      EXPECT_EQ(b.runs[i].set_index, a.runs[i].set_index);
    }
  };

  // Sparse probe: odd keys only, so every even CPU partition (the low
  // key bits) is empty on the probe side. A budget of one build partition
  // packs each into its own working set, and the even ones are skipped.
  data::Relation odd_s;
  for (size_t i = 0; i < s_.size(); ++i) {
    if (s_.keys[i] % 2 == 1) {
      odd_s.keys.push_back(s_.keys[i]);
      odd_s.payloads.push_back(s_.payloads[i]);
    }
  }
  struct Case {
    const char* name;
    const data::Relation* probe;
    uint64_t budget_bytes;  // 0 = the planner's default
  };
  for (const Case& c : {Case{"dense", &s_, 0},
                        Case{"sparse", &odd_s, (r_.bytes() / 16) * 6 / 5}}) {
    SCOPED_TRACE(c.name);
    outofgpu::CoProcessConfig cfg;
    cfg.join.partition.pass_bits = {6, 5};
    cfg.packing.budget_bytes = c.budget_bytes;
    auto r_parts = cpu::CpuRadixPartition(r_, cfg.cpu, cpu_model);
    auto s_parts = cpu::CpuRadixPartition(*c.probe, cfg.cpu, cpu_model);
    ASSERT_TRUE(r_parts.ok() && s_parts.ok());
    const uint64_t r_digest = digest(*r_parts);
    const uint64_t s_digest = digest(*s_parts);

    auto first = outofgpu::PlanCoProcessJoin(&device, *r_parts, *s_parts, cfg);
    ASSERT_TRUE(first.ok()) << first.status();
    auto second =
        outofgpu::PlanCoProcessJoin(&device, *r_parts, *s_parts, cfg);
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_EQ(digest(*r_parts), r_digest);
    EXPECT_EQ(digest(*s_parts), s_digest);
    if (c.probe == &odd_s) {
      // 16 singleton sets, packed largest partition index first; only
      // the odd partitions' sets run.
      ASSERT_EQ(first->runs.size(), 8u);
      for (size_t i = 0; i < first->runs.size(); ++i) {
        const uint32_t p = 15 - 2 * static_cast<uint32_t>(i);
        EXPECT_EQ(first->runs[i].set_index, 2 * i);
        EXPECT_EQ(first->runs[i].transfer_bytes,
                  r_parts->parts[p].bytes() + s_parts->parts[p].bytes());
      }
    }

    auto consumed = outofgpu::PlanCoProcessJoinConsuming(
        &device, std::move(r_parts).ValueOrDie(),
        std::move(s_parts).ValueOrDie(), cfg);
    ASSERT_TRUE(consumed.ok()) << consumed.status();
    expect_same_plan(*consumed, *first);
    expect_same_plan(*consumed, *second);

    uint64_t matches = 0, payload_sum = 0;
    for (const auto& run : consumed->runs) {
      matches += run.matches;
      payload_sum += run.payload_sum;
    }
    const data::OracleResult oracle = data::JoinOracle(r_, *c.probe);
    EXPECT_EQ(matches, oracle.matches);
    EXPECT_EQ(payload_sum, oracle.payload_sum);
  }
}

TEST_F(StatInvarianceTest, StreamingProbeMaterialize) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  outofgpu::StreamingProbeConfig cfg;
  cfg.chunk_tuples = 60000;
  cfg.join.partition.pass_bits = {6, 5};
  cfg.materialize_to_host = true;
  auto st = outofgpu::StreamingProbeJoin(&device, r_, s_, cfg);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->matches, 200000u);
  EXPECT_EQ(st->payload_sum, 30006356267ull);
  EXPECT_DOUBLE_EQ(st->seconds, 0.00035910547063171836);
  EXPECT_DOUBLE_EQ(st->transfer_s, 0.00041520325203252029);
}

// ---- Multi-chunk aggregate shared-hash probe ----
// Partitions larger than shared_elems are joined in several R chunks,
// each probed by every S tuple of the work item, and a partition with
// several work items repeats all of it per item. The goldens below were
// captured from the chain-walking probe: every partition here spans 2-11
// chunks and is probed by 20-41 items. The host's pool width must not
// move a number either.

constexpr size_t kPoolWidths[] = {1, 8};

/// Runs an in-GPU join on a `threads`-wide pool and checks it against
/// the golden results and launch profile.
void ExpectInGpuGolden(const data::Relation& r, const data::Relation& s,
                       const gpujoin::PartitionedJoinConfig& cfg,
                       uint64_t matches, uint64_t payload_sum,
                       double seconds, double partition_s, double join_s,
                       const std::vector<GoldenLaunch>& golden) {
  for (const size_t threads : kPoolWidths) {
    SCOPED_TRACE("pool threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    sim::Device device{hw::HardwareSpec::Icde2019Testbed(), &pool};
    auto st = gpujoin::PartitionedJoinFromHost(&device, r, s, cfg);
    ASSERT_TRUE(st.ok()) << st.status();
    EXPECT_EQ(st->matches, matches);
    EXPECT_EQ(st->payload_sum, payload_sum);
    EXPECT_DOUBLE_EQ(st->seconds, seconds);
    EXPECT_DOUBLE_EQ(st->partition_s, partition_s);
    EXPECT_DOUBLE_EQ(st->join_s, join_s);
    ExpectProfileMatches(device, golden);
  }
}

TEST_F(StatInvarianceTest, MultiChunkSharedHashAggregate) {
  // 32 partitions of ~3125 R tuples: 7 chunks of 512.
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {5};
  cfg.join.shared_elems = 512;
  cfg.join.hash_slots = 512;
  cfg.join.max_probe_buckets_per_item = 2;
  ExpectInGpuGolden(
      r_, s_, cfg, 200000u, 30006356267ull, 0.00020146592008521869,
      3.718509638009049e-05, 0.00016428082370512819,
      {{"radix_partition_pass1", 800000, 0, 800000, 0, 0, 1625600, 100000,
        2560, 197600, 4940, 40, 1.4170498793363497e-05},
       {"radix_partition_pass1", 1600000, 0, 1600000, 0, 0, 3225600, 200000,
        2560, 395120, 9878, 40, 2.3014597586726997e-05},
       {"join_copartitions_hash", 27207680, 0, 0, 124660, 1600000, 43869822,
        2000000, 640, 1018733, 25591, 40, 0.00016428082370512819}});
}

TEST_F(StatInvarianceTest, MultiChunkSharedHashAggregateZipfGathers) {
  // Zipf build: the hottest keys repeat thousands of times, so one probe
  // tuple matches R tuples in several chunks, and every match charges
  // the late-materialization gathers of both sides.
  const data::Relation r = data::MakeZipf(60000, 20000, 1.0, 31);
  const data::Relation s = data::MakeUniformProbe(100000, 20000, 32);
  const data::OracleResult oracle = data::JoinOracle(r, s);
  ASSERT_EQ(oracle.matches, 288543u);
  ASSERT_EQ(oracle.payload_sum, 22765406973ull);
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {4};
  cfg.join.shared_elems = 1024;
  cfg.join.hash_slots = 1024;
  cfg.join.max_probe_buckets_per_item = 1;
  cfg.join.build_extra_payload_bytes = 24;
  cfg.join.probe_extra_payload_bytes = 40;
  ExpectInGpuGolden(
      r, s, cfg, oracle.matches, oracle.payload_sum, 0.00031158641465166428,
      2.4490333069381596e-05, 0.00028709608158228268,
      {{"radix_partition_pass1", 480000, 0, 480000, 0, 0, 972800, 60000,
        1387, 118560, 2964, 40, 1.0483034276018097e-05},
       {"radix_partition_pass1", 800000, 0, 800000, 0, 0, 1612800, 100000,
        1280, 197560, 4939, 40, 1.4007298793363498e-05},
       {"join_copartitions_hash", 22606784, 0, 0, 1831138, 4000000, 43566060,
        2400000, 640, 844794, 22145, 40, 0.00028709608158228268}});
}

TEST_F(StatInvarianceTest, MultiChunkCoProcessWorkingSets) {
  // A quarter of the build per working set packs four CPU partitions
  // into each; their GPU partitions (base_shift 4) span 2-5 chunks.
  struct GoldenRun {
    uint64_t matches;
    uint64_t payload_sum;
    double gpu_seconds;
    double join_s;
    double partition_s;
    uint64_t transfer_bytes;
    size_t set_index;
  };
  const std::vector<GoldenRun> golden = {
      {49912, 7485392325ull, 9.7882703159879331e-05, 8.0603986871794869e-05,
       1.7278716288084462e-05, 599296, 0},
      {50103, 7519793198ull, 9.7928377568061832e-05, 8.063314405128205e-05,
       1.7295233516779789e-05, 600824, 1},
      {50057, 7505382719ull, 9.7970683423642519e-05, 8.0679268192307681e-05,
       1.7291415231334838e-05, 600456, 2},
      {49928, 7495788025ull, 9.7882101997737549e-05, 8.0601970653846155e-05,
       1.7280131343891401e-05, 599424, 3}};
  for (const size_t threads : kPoolWidths) {
    SCOPED_TRACE("pool threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    sim::Device device{hw::HardwareSpec::Icde2019Testbed(), &pool};
    const hw::CpuCostModel cpu_model(device.spec().cpu);
    outofgpu::CoProcessConfig cfg;
    cfg.join.partition.pass_bits = {5};
    cfg.join.join.shared_elems = 256;
    cfg.join.join.hash_slots = 256;
    cfg.join.join.max_probe_buckets_per_item = 1;
    cfg.join.join.probe_extra_payload_bytes = 16;
    cfg.packing.budget_bytes = r_.bytes() / 4;
    auto r_parts = cpu::CpuRadixPartition(r_, cfg.cpu, cpu_model);
    auto s_parts = cpu::CpuRadixPartition(s_, cfg.cpu, cpu_model);
    ASSERT_TRUE(r_parts.ok() && s_parts.ok());
    auto plan = outofgpu::PlanCoProcessJoin(&device, *r_parts, *s_parts, cfg);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_EQ(plan->runs.size(), golden.size());
    uint64_t matches = 0;
    for (size_t i = 0; i < golden.size(); ++i) {
      SCOPED_TRACE("working set run " + std::to_string(i));
      const auto& run = plan->runs[i];
      const GoldenRun& g = golden[i];
      EXPECT_EQ(run.matches, g.matches);
      EXPECT_EQ(run.payload_sum, g.payload_sum);
      EXPECT_DOUBLE_EQ(run.gpu_seconds, g.gpu_seconds);
      EXPECT_DOUBLE_EQ(run.join_s, g.join_s);
      EXPECT_DOUBLE_EQ(run.partition_s, g.partition_s);
      EXPECT_EQ(run.transfer_bytes, g.transfer_bytes);
      EXPECT_EQ(run.set_index, g.set_index);
      matches += run.matches;
    }
    EXPECT_EQ(matches, s_.size());
  }
}

}  // namespace
}  // namespace gjoin
