// perfbench: the repository benchmark. Runs one named workload through the
// public entry points (gpujoin::PartitionedJoinFromHost, exec::Session on a
// sim::Topology) in a closed loop, verifies every result against
// data::JoinOracle, and prints end-to-end metrics (untraced run) or
// per-layer metrics (traced run). perfbench/run.py builds this binary and
// runs it as a child process; perfbench/README.md explains the workloads
// and metrics.
//
// Usage:
//   perfbench --workload=<ingpu_uniform|skew_ring_materialize|session_mixed>
//             --seed=<n> --seconds=<s> --trace=<0|1> --threads=<pool width>
//             [--trace_out=<chrome-trace.json>]
//
// Two clocks: "host" numbers are the simulator's own wall/CPU time on this
// machine; "modeled" numbers are the simulated GPU's seconds. The timing
// model is unvalidated (the repository holds no real-hardware
// measurements), so no error figure is given.

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/api/gjoin.h"
#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/exec/session.h"
#include "src/gpujoin/bucket_chains.h"
#include "src/gpujoin/bucket_pool.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/hw/spec.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/sim/device.h"
#include "src/sim/timeline.h"
#include "src/sim/topology.h"
#include "src/util/bits.h"
#include "src/util/flags.h"
#include "src/util/probe_pipeline.h"
#include "src/util/scatter_buffer.h"
#include "src/util/thread_pool.h"

namespace gjoin::perfbench {
namespace {

// Modeled co-processing CPU threads: the paper testbed's 16, pinned so the
// modeled seconds do not depend on this host's core count (the library
// default clamps to hardware_concurrency).
constexpr int kCpuThreads = 16;
// Set-ups per untraced run; setup_s reports their median.
constexpr int kSetupRepeats = 3;
// Popular-value mapping of the skewed workload, fixed as in bench/fig17:
// the seed varies which tuples are drawn, not which radix partitions are
// hot, so host time does not swing with the hot partitions' placement.
constexpr uint64_t kZipfPermSeed = 171;

const char* const kKernels[] = {"radix_partition_pass1",
                                "radix_partition_pass2",
                                "join_copartitions_hash",
                                "join_copartitions_nl"};

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of this process (VmHWM), in bytes.
uint64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

/// Resets VmHWM to the current RSS, so the next PeakRssBytes() is the peak
/// of what runs in between.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Distinct generator seed for stream `stream` of workload seed `seed`.
uint64_t Derive(uint64_t seed, uint64_t stream) {
  return seed * 1000 + stream + 1;
}

/// Host spans of the benchmark's own calls into each layer, held in memory
/// and written as one Chrome trace when the run ends. A disabled tracer
/// records nothing but still times the call.
class Tracer {
 public:
  explicit Tracer(obs::HostProfiler* profiler) : profiler_(profiler) {}

  /// Runs `fn`, records it as span `name`, returns its wall seconds.
  double Time(const std::string& name, const std::function<void()>& fn) {
    const double start = profiler_ != nullptr ? profiler_->NowSeconds() : 0;
    const double t0 = WallNow();
    fn();
    const double dt = WallNow() - t0;
    if (profiler_ != nullptr) profiler_->Record(name, start, dt);
    return dt;
  }

  obs::HostProfiler* profiler() const { return profiler_; }

 private:
  obs::HostProfiler* profiler_;
};

/// Per-layer samples of one traced run: metric -> one value per traced
/// iteration (reported as the median).
using LayerSamples = std::map<std::string, std::vector<double>>;

/// Outcome of one iteration.
struct Iteration {
  uint64_t ops = 0;        ///< Joins attempted.
  uint64_t failed = 0;     ///< Non-OK or oracle-mismatching joins.
  uint64_t tuples = 0;     ///< Input tuples of the completed joins.
  double modeled_s = 0;    ///< Modeled seconds of the iteration.
  std::vector<double> query_modeled_s;  ///< Modeled finish time per query.
  /// Exact modeled quantities (results, modeled seconds, sim counters);
  /// must repeat bit-for-bit across iterations and between the traced and
  /// the untraced path.
  std::string identity;
  std::string error;
};

/// Moves `result`'s value into `*out`, or returns its error.
template <typename T>
util::Status Take(util::Result<T> result, T* out) {
  if (!result.ok()) return result.status();
  *out = std::move(result).ValueOrDie();
  return util::Status::OK();
}

std::string HexDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// A kernel's launches merged: counters summed (max_block_cycles as the
/// max), plus the cycles the launches would take if each ran as long as
/// its slowest block on every block.
struct KernelTotal {
  hw::KernelStats stats;
  double bound_cycles = 0;
};

/// Merges the launch profiles of `devices` per kernel name.
std::map<std::string, KernelTotal> KernelTotals(
    const std::vector<const sim::Device*>& devices) {
  std::map<std::string, KernelTotal> totals;
  for (const sim::Device* d : devices) {
    for (const sim::ProfileEntry& e : d->profile()) {
      KernelTotal& t = totals[e.name];
      t.stats.Merge(e.stats);
      t.bound_cycles += static_cast<double>(e.stats.max_block_cycles) *
                        static_cast<double>(e.stats.num_blocks);
    }
  }
  return totals;
}

std::string KernelIdentity(const std::map<std::string, KernelTotal>& totals) {
  std::string out;
  for (const auto& [name, t] : totals) {
    out += name + ":" + t.stats.ToString() + ";";
  }
  return out;
}

void AddSimSamples(const std::map<std::string, KernelTotal>& totals,
                   uint64_t device_peak_bytes, LayerSamples* samples) {
  for (const char* kernel : kKernels) {
    KernelTotal t;
    if (auto it = totals.find(kernel); it != totals.end()) t = it->second;
    const hw::KernelStats& s = t.stats;
    const std::string p = std::string("sim.") + kernel + ".";
    (*samples)[p + "blocks"].push_back(static_cast<double>(s.num_blocks));
    (*samples)[p + "random_transactions"].push_back(
        static_cast<double>(s.random_transactions));
    (*samples)[p + "shared_atomics"].push_back(
        static_cast<double>(s.shared_atomics));
    (*samples)[p + "device_atomics"].push_back(
        static_cast<double>(s.device_atomics));
    (*samples)[p + "scatter_write_bytes"].push_back(
        static_cast<double>(s.scatter_write_bytes));
    // max_block_cycles x blocks / total_cycles, launch by launch.
    (*samples)[p + "block_imbalance"].push_back(
        s.total_cycles > 0
            ? t.bound_cycles / static_cast<double>(s.total_cycles)
            : 0.0);
  }
  (*samples)["sim.device_peak_bytes"].push_back(
      static_cast<double>(device_peak_bytes));
}

/// Comma-separated list.
template <typename T>
std::string Join(const std::vector<T>& values) {
  std::string out;
  for (const T& v : values) {
    if (!out.empty()) out += ',';
    out += std::to_string(v);
  }
  return out;
}

/// One benchmark workload: data set-up plus an untraced and a traced
/// iteration over the same inputs.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One-line description of inputs and configuration.
  virtual std::string Describe() const = 0;
  /// Generates inputs, computes the oracle, constructs the simulated
  /// hardware. Replaces any previous set-up.
  virtual void SetUp(Tracer* tracer) = 0;
  /// Releases everything SetUp created.
  virtual void TearDown() = 0;
  virtual Iteration RunUntraced() = 0;
  virtual Iteration RunTraced(Tracer* tracer, LayerSamples* samples) = 0;
  /// What the last iteration did, for the output header (may be empty).
  virtual std::string Summary() const { return ""; }
  /// Chrome-trace JSON of a traced run: `profiler`'s spans on the host
  /// track (the modeled timeline stays empty).
  virtual std::string TraceJson(const obs::HostProfiler& profiler) const {
    obs::TraceExporter exporter;
    for (const obs::HostProfiler::Span& span : profiler.spans()) {
      exporter.AddHostSpan(span.name, span.start_s, span.duration_s);
    }
    const sim::Timeline empty;
    auto schedule = empty.Run();
    if (!schedule.ok()) return "";
    auto json = exporter.ToJson(empty, *schedule);
    return json.ok() ? *json : "";
  }
};

// ---------------------------------------------------------------------------
// In-GPU partitioned join (ingpu_uniform, skew_ring_materialize)
// ---------------------------------------------------------------------------

struct InGpuParams {
  std::string name;
  size_t build_n = 0;
  size_t probe_n = 0;
  double zipf = 0;  ///< 0: unique-uniform build, uniform FK probe.
  bool materialize = false;
};

class InGpuWorkload : public Workload {
 public:
  InGpuWorkload(InGpuParams params, uint64_t seed, util::ThreadPool* pool)
      : p_(std::move(params)), seed_(seed), pool_(pool) {
    cfg_.partition.pass_bits = {8, 7};
    if (p_.materialize) {
      cfg_.join.output = gpujoin::OutputMode::kMaterialize;
      cfg_.out_capacity = p_.build_n;  // fixed ring; wraps under explosion
    }
  }

  std::string Describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s: build=%zu probe=%zu %s pass_bits={8,7} output=%s "
                  "ring_capacity_pairs=%zu device=GTX1080 testbed (8 GiB)",
                  p_.name.c_str(), p_.build_n, p_.probe_n,
                  p_.zipf > 0 ? "zipf=0.75 both sides, perm_seed=171"
                              : "unique-uniform build, uniform FK probe",
                  p_.materialize ? "materialize" : "aggregate",
                  p_.materialize ? p_.build_n : size_t{0});
    return buf;
  }

  void SetUp(Tracer* tracer) override {
    TearDown();
    tracer->Time("data.generate", [&] {
      if (p_.zipf > 0) {
        build_ = data::MakeZipf(p_.build_n, p_.build_n, p_.zipf,
                                Derive(seed_, 1), kZipfPermSeed);
        probe_ = data::MakeZipf(p_.probe_n, p_.build_n, p_.zipf,
                                Derive(seed_, 2), kZipfPermSeed);
      } else {
        build_ = data::MakeUniqueUniform(p_.build_n, Derive(seed_, 1));
        probe_ = data::MakeUniformProbe(p_.probe_n, p_.build_n,
                                        Derive(seed_, 2));
      }
    });
    tracer->Time("data.oracle",
                 [&] { oracle_ = data::JoinOracle(build_, probe_); });
    tracer->Time("sim.construct", [&] {
      device_ = std::make_unique<sim::Device>(
          hw::HardwareSpec::Icde2019Testbed(), pool_);
    });
  }

  void TearDown() override {
    device_.reset();
    build_ = data::Relation();
    probe_ = data::Relation();
  }

  Iteration RunUntraced() override {
    device_->ClearProfile();
    auto stats = gpujoin::PartitionedJoinFromHost(device_.get(), build_,
                                                  probe_, cfg_);
    if (!stats.ok()) return Failed(stats.status().ToString());
    return Finish(*stats);
  }

  Iteration RunTraced(Tracer* t, LayerSamples* samples) override {
    device_->ClearProfile();
    double upload_s = 0, pass1_s = 0, pass2_s = 0, part_cpu_s = 0;
    const double iter_t0 = WallNow();
    util::Status status;

    // Build side, as PreparePartitionedBuild: upload, partition consuming
    // the raw columns.
    int key_bits = 0;
    {
      uint32_t max_key = 1;
      for (uint32_t k : build_.keys) max_key = std::max(max_key, k);
      key_bits = util::Log2Floor(max_key) + 1;
    }
    gpujoin::PartitionedRelation r_parted;
    status = PartitionTraced(t, build_, /*segments=*/0, &r_parted, &upload_s,
                             &pass1_s, &pass2_s, &part_cpu_s);
    if (!status.ok()) return Failed(status.ToString());

    // Probe side, as PartitionedJoinFromHostWithBuild: auto-sized
    // segments, each uploaded and consumed by the first pass.
    const uint64_t budget = device_->memory().available();
    const uint64_t need = probe_.bytes() * 2;
    const uint64_t seg_budget = budget > need ? budget - need : budget / 8;
    const int segments = std::max(
        1, static_cast<int>(std::min<uint64_t>(
               16, util::CeilDiv(probe_.bytes(),
                                 std::max<uint64_t>(seg_budget, 1)))));
    gpujoin::PartitionedRelation s_parted;
    status = PartitionTraced(t, probe_, segments, &s_parted, &upload_s,
                             &pass1_s, &pass2_s, &part_cpu_s);
    if (!status.ok()) return Failed(status.ToString());

    // Co-partition join into the (optional) output ring.
    gpujoin::CoPartitionJoinConfig join_cfg = cfg_.join;
    join_cfg.key_bits = key_bits;
    gpujoin::OutputRing ring;
    gpujoin::OutputRing* ring_ptr = nullptr;
    if (p_.materialize) {
      status = Take(
          gpujoin::OutputRing::Allocate(&device_->memory(), cfg_.out_capacity),
          &ring);
      if (!status.ok()) return Failed(status.ToString());
      ring_ptr = &ring;
    }
    const bool rss_reset = ResetPeakRss();
    const double join_cpu0 = ProcessCpuNow();
    util::Result<gpujoin::CoPartitionJoinResult> joined =
        util::Status::Internal("not run");
    const double join_s = t->Time("gpujoin.JoinCoPartitions", [&] {
      joined = gpujoin::JoinCoPartitions(device_.get(), r_parted, s_parted,
                                         join_cfg, ring_ptr);
    });
    const double join_cpu_s = ProcessCpuNow() - join_cpu0;
    const uint64_t join_rss = rss_reset ? PeakRssBytes() : 0;
    if (!joined.ok()) return Failed(joined.status().ToString());

    gpujoin::JoinStats stats;
    stats.matches = joined->matches;
    stats.payload_sum = joined->payload_sum;
    stats.partition_s = r_parted.seconds + s_parted.seconds;
    stats.join_s = joined->seconds;
    stats.seconds = stats.partition_s + stats.join_s;
    Iteration it = Finish(stats);
    const double iter_s = WallNow() - iter_t0;

    const double threads = static_cast<double>(pool_->num_threads());
    const double tuples = static_cast<double>(build_.size() + probe_.size());
    auto add = [&](const std::string& name, double v) {
      (*samples)[name].push_back(v);
    };
    add("gpujoin.upload_s", upload_s);
    add("gpujoin.partition_pass1_s", pass1_s);
    add("gpujoin.partition_pass2_s", pass2_s);
    add("gpujoin.partition_ns_per_tuple", 1e9 * (pass1_s + pass2_s) / tuples);
    add("gpujoin.partition_cpu_util",
        part_cpu_s / ((pass1_s + pass2_s) * threads));
    add("gpujoin.partition_share", (pass1_s + pass2_s) / iter_s);
    add("gpujoin.join_s", join_s);
    add("gpujoin.join_ns_per_match",
        stats.matches > 0 ? 1e9 * join_s / static_cast<double>(stats.matches)
                          : 0.0);
    add("gpujoin.join_cpu_util", join_cpu_s / (join_s * threads));
    add("gpujoin.join_share", join_s / iter_s);
    add("gpujoin.join_peak_rss_bytes", static_cast<double>(join_rss));
    add("gpujoin.ring_capacity_bytes",
        ring_ptr != nullptr ? 8.0 * static_cast<double>(ring.capacity()) : 0);
    add("gpujoin.ring_wraps",
        ring_ptr != nullptr ? static_cast<double>(stats.matches) /
                                  static_cast<double>(ring.capacity())
                            : 0);
    add("gpujoin.partition_modeled_s", stats.partition_s);
    add("gpujoin.join_modeled_s", stats.join_s);
    AddSimSamples(KernelTotals({device_.get()}),
                  device_->memory().peak_used(), samples);
    return it;
  }

 private:
  /// Uploads and partitions `rel` one public call at a time, mirroring
  /// RadixPartitionConsuming (segments == 0: upload first, pool after) or
  /// RadixPartitionSegmented (segments >= 1: pool first, then each
  /// uploaded segment), so the partitioned form, the modeled seconds and
  /// the device-memory high-water mark equal the entry point's.
  util::Status PartitionTraced(Tracer* t, const data::Relation& rel,
                               int segments,
                               gpujoin::PartitionedRelation* out,
                               double* upload_s, double* pass1_s,
                               double* pass2_s, double* cpu_s) {
    sim::Device* dev = device_.get();
    gpujoin::RadixPartitionConfig cfg = cfg_.partition;
    const uint64_t n = rel.size();
    const int num_blocks =
        dev->spec().gpu.num_sms * dev->spec().gpu.blocks_per_sm;
    const uint32_t fanout1 = 1u << cfg.pass_bits[0];
    {
      cfg.bucket_capacity =
          gpujoin::AutoBucketCapacity(n, cfg.num_partitions());
      const uint64_t per_producer = std::max<uint64_t>(
          32, util::NextPowerOfTwo(std::max<uint64_t>(
                  1, n / (static_cast<uint64_t>(num_blocks) * fanout1))));
      const uint64_t per_final = std::max<uint64_t>(
          32, util::NextPowerOfTwo(
                  std::max<uint64_t>(1, 2 * n / cfg.num_partitions())));
      cfg.bucket_capacity = static_cast<uint32_t>(std::min<uint64_t>(
          cfg.bucket_capacity, std::min(per_producer, per_final)));
    }
    const uint64_t seg_count = std::max(1, segments);
    const uint64_t per_seg = util::CeilDiv(n, seg_count);
    const uint64_t producer_slack =
        std::min<uint64_t>(static_cast<uint64_t>(num_blocks) * fanout1,
                           per_seg) *
        seg_count;
    const uint32_t pool_buckets = static_cast<uint32_t>(
        util::CeilDiv(n, cfg.bucket_capacity) + producer_slack +
        cfg.num_partitions() + 128);

    util::Status st;
    gpujoin::DeviceRelation whole;
    if (segments == 0) {
      *upload_s += t->Time("gpujoin.Upload", [&] {
        st = Take(gpujoin::DeviceRelation::Upload(dev, rel), &whole);
      });
      GJOIN_RETURN_NOT_OK(st);
    }
    GJOIN_ASSIGN_OR_RETURN(
        std::shared_ptr<gpujoin::BucketPool> pool,
        gpujoin::BucketPool::Allocate(&dev->memory(), pool_buckets,
                                      cfg.bucket_capacity));
    GJOIN_ASSIGN_OR_RETURN(
        gpujoin::BucketChains chains,
        gpujoin::BucketChains::Allocate(&dev->memory(), fanout1,
                                        std::move(pool)));
    gpujoin::PartitionedRelation parted;
    parted.chains = std::move(chains);
    parted.radix_bits = cfg.pass_bits[0];
    parted.base_shift = cfg.base_shift;

    auto first_pass = [&](const gpujoin::DeviceRelation& input) {
      const double c0 = ProcessCpuNow();
      *pass1_s += t->Time("gpujoin.RadixPartitionFirstPass", [&] {
        st = Take(gpujoin::RadixPartitionFirstPass(dev, input, cfg.base_shift,
                                                   cfg.pass_bits[0], cfg,
                                                   &parted),
                  &parted);
      });
      *cpu_s += ProcessCpuNow() - c0;
    };
    if (segments == 0) {
      first_pass(whole);
      whole.keys.Reset();
      whole.payloads.Reset();
      GJOIN_RETURN_NOT_OK(st);
    } else {
      const size_t seg_tuples = util::CeilDiv(n, seg_count);
      for (size_t begin = 0; begin < n; begin += seg_tuples) {
        const size_t end = std::min<size_t>(n, begin + seg_tuples);
        gpujoin::DeviceRelation seg;
        *upload_s += t->Time("gpujoin.Upload", [&] {
          st = Take(gpujoin::DeviceRelation::Upload(
                        dev, data::RelationView::Slice(rel, begin, end)),
                    &seg);
        });
        GJOIN_RETURN_NOT_OK(st);
        first_pass(seg);
        GJOIN_RETURN_NOT_OK(st);
      }
    }

    int shift = cfg.base_shift + cfg.pass_bits[0];
    for (size_t pass = 1; pass < cfg.pass_bits.size(); ++pass) {
      const double c0 = ProcessCpuNow();
      *pass2_s += t->Time("gpujoin.RadixPartitionNextPass", [&] {
        st = Take(gpujoin::RadixPartitionNextPass(dev, std::move(parted), shift,
                                                  cfg.pass_bits[pass], cfg),
                  &parted);
      });
      *cpu_s += ProcessCpuNow() - c0;
      GJOIN_RETURN_NOT_OK(st);
      shift += cfg.pass_bits[pass];
    }
    *out = std::move(parted);
    return util::Status::OK();
  }

  Iteration Failed(const std::string& error) const {
    Iteration it;
    it.ops = 1;
    it.failed = 1;
    it.error = error;
    return it;
  }

  Iteration Finish(const gpujoin::JoinStats& stats) const {
    Iteration it;
    it.ops = 1;
    if (stats.matches != oracle_.matches ||
        stats.payload_sum != oracle_.payload_sum) {
      it.failed = 1;
      it.error = "oracle mismatch: matches " + std::to_string(stats.matches) +
                 " vs " + std::to_string(oracle_.matches);
      return it;
    }
    it.tuples = build_.size() + probe_.size();
    it.modeled_s = stats.seconds;
    it.query_modeled_s = {stats.seconds};
    it.identity = std::to_string(stats.matches) + "/" +
                  std::to_string(stats.payload_sum) + "/" +
                  HexDouble(stats.partition_s) + "/" +
                  HexDouble(stats.join_s) + "/" +
                  KernelIdentity(KernelTotals({device_.get()})) + "/peak=" +
                  std::to_string(device_->memory().peak_used());
    return it;
  }

  InGpuParams p_;
  uint64_t seed_;
  util::ThreadPool* pool_;
  gpujoin::PartitionedJoinConfig cfg_;
  data::Relation build_, probe_;
  data::OracleResult oracle_;
  std::unique_ptr<sim::Device> device_;
};

// ---------------------------------------------------------------------------
// Mixed multi-query session (session_mixed)
// ---------------------------------------------------------------------------

struct SessionParams {
  std::vector<size_t> build_sizes;
  std::vector<int> probe_ratios;  ///< Per query of each build.
  int log2_memory_divisor = 0;    ///< Device memory = testbed / 2^this.
  int devices = 2;
};

class SessionWorkload : public Workload {
 public:
  SessionWorkload(SessionParams params, uint64_t seed, util::ThreadPool* pool)
      : p_(std::move(params)), seed_(seed), pool_(pool) {
    spec_ = hw::HardwareSpec::ScaledDeviceMemory(
        1.0 / static_cast<double>(1u << p_.log2_memory_divisor));
    // Radix fanout scaled with device memory: drop bits from the first
    // pass, as the figure harness's ScalePassBits does.
    std::vector<int> bits = {8, 7};
    int remove = p_.log2_memory_divisor;
    for (int& b : bits) {
      const int take = std::min(remove, b);
      b -= take;
      remove -= take;
    }
    for (int b : bits) {
      if (b > 0) pass_bits_.push_back(b);
    }
    cfg_.pass_bits = pass_bits_;
    cfg_.cpu_threads = kCpuThreads;
  }

  std::string Describe() const override {
    return "session_mixed: " + std::to_string(Queries()) +
           " queries/batch, builds={" + Join(p_.build_sizes) +
           "} probe ratios={" + Join(p_.probe_ratios) +
           "} per build, devices=" + std::to_string(p_.devices) +
           " device_memory=testbed/" +
           std::to_string(1u << p_.log2_memory_divisor) + " (" +
           std::to_string(spec_.gpu.device_memory_bytes) + " B) pass_bits={" +
           Join(pass_bits_) + "} recovery=on strategy=auto";
  }

  void SetUp(Tracer* tracer) override {
    TearDown();
    tracer->Time("data.generate", [&] {
      uint64_t stream = 1;
      for (size_t b : p_.build_sizes) {
        builds_.push_back(data::MakeUniqueUniform(b, Derive(seed_, stream++)));
      }
      for (size_t bi = 0; bi < p_.build_sizes.size(); ++bi) {
        for (int ratio : p_.probe_ratios) {
          const size_t b = p_.build_sizes[bi];
          probes_.push_back(data::MakeUniformProbe(
              b * static_cast<size_t>(ratio), b, Derive(seed_, stream++)));
          query_build_.push_back(bi);
        }
      }
    });
    tracer->Time("data.oracle", [&] {
      for (size_t q = 0; q < probes_.size(); ++q) {
        oracles_.push_back(
            data::JoinOracle(builds_[query_build_[q]], probes_[q]));
      }
    });
    tracer->Time("sim.construct", [&] {
      topology_ = std::make_unique<sim::Topology>(spec_, p_.devices, pool_);
    });
  }

  void TearDown() override {
    topology_.reset();
    builds_.clear();
    probes_.clear();
    query_build_.clear();
    oracles_.clear();
  }

  Iteration RunUntraced() override { return RunSession(nullptr, nullptr); }

  Iteration RunTraced(Tracer* t, LayerSamples* samples) override {
    Iteration it;
    t->Time("exec.Session", [&] { it = RunSession(t, samples); });
    return it;
  }

  std::string Summary() const override { return "strategy mix: " + mix_; }

  /// The last traced batch's modeled timeline with every host span of the
  /// profiler, which the session's trace includes.
  std::string TraceJson(const obs::HostProfiler&) const override {
    return last_trace_json_;
  }

 private:
  size_t Queries() const {
    return p_.build_sizes.size() * p_.probe_ratios.size();
  }

  Iteration RunSession(Tracer* t, LayerSamples* samples) {
    std::vector<const sim::Device*> devices;
    for (int d = 0; d < topology_->device_count(); ++d) {
      topology_->device(d).ClearProfile();
      devices.push_back(&topology_->device(d));
    }
    exec::SessionConfig scfg;
    scfg.recovery = true;
    obs::HostProfiler* profiler = t != nullptr ? t->profiler() : nullptr;
    scfg.profiler = profiler;
    const size_t spans_before =
        profiler != nullptr ? profiler->spans().size() : 0;
    exec::Session session(topology_.get(), scfg);
    for (size_t q = 0; q < probes_.size(); ++q) {
      session.Submit(builds_[query_build_[q]], probes_[q], cfg_);
    }
    Iteration it;
    it.ops = probes_.size();
    const util::Status run = session.Run();
    if (!run.ok()) {
      it.failed = it.ops;
      it.error = run.ToString();
      return it;
    }
    const exec::SessionStats& st = session.stats();
    std::string identity;
    std::map<std::string, int> mix;
    double transfer_s = 0, ooj_s = 0, cpu_s = 0;
    for (size_t q = 0; q < probes_.size(); ++q) {
      const exec::QueryResult& r = session.result(static_cast<int>(q));
      const gpujoin::JoinStats& s = r.outcome.stats;
      if (!r.status.ok()) {
        ++it.failed;
        it.error = "query " + std::to_string(q) + ": " + r.status.ToString();
        continue;
      }
      if (s.matches != oracles_[q].matches ||
          s.payload_sum != oracles_[q].payload_sum) {
        ++it.failed;
        it.error = "query " + std::to_string(q) + ": oracle mismatch";
        continue;
      }
      it.tuples += builds_[query_build_[q]].size() + probes_[q].size();
      it.query_modeled_s.push_back(r.finish_s);
      ++mix[api::StrategyName(r.outcome.strategy)];
      identity += std::to_string(q) + ":" +
                  api::StrategyName(r.outcome.strategy) + ":" +
                  std::to_string(s.matches) + ":" + HexDouble(s.seconds) +
                  ":" + HexDouble(r.finish_s) + ";";
      if (r.outcome.strategy == api::Strategy::kStreamingProbe ||
          r.outcome.strategy == api::Strategy::kCoProcessing) {
        transfer_s += s.transfer_s;
        ooj_s += s.join_s;
      }
      cpu_s += s.cpu_s;
    }
    it.modeled_s = st.makespan_s;
    identity += "makespan=" + HexDouble(st.makespan_s) +
                ";degradations=" + std::to_string(st.degradations) + ";" +
                KernelIdentity(KernelTotals(devices));
    it.identity = identity;
    mix_.clear();
    for (const auto& [name, count] : mix) {
      mix_ += (mix_.empty() ? "" : " ") + name + "=" + std::to_string(count);
    }
    mix_ += " degradations=" + std::to_string(st.degradations);

    if (samples != nullptr) {
      auto add = [&](const std::string& name, double v) {
        (*samples)[name].push_back(v);
      };
      double plan_s = 0, schedule_s = 0;
      std::map<api::Strategy, double> execute_s;
      const std::vector<obs::HostProfiler::Span> spans = profiler->spans();
      for (size_t i = spans_before; i < spans.size(); ++i) {
        const obs::HostProfiler::Span& span = spans[i];
        if (span.name == "session:plan") plan_s += span.duration_s;
        if (span.name == "session:schedule") schedule_s += span.duration_s;
        if (span.name.rfind("execute:q", 0) == 0) {
          const int q = std::atoi(span.name.c_str() + 9);
          execute_s[session.result(q).outcome.strategy] += span.duration_s;
        }
      }
      add("exec.plan_s", plan_s);
      add("exec.schedule_s", schedule_s);
      add("exec.execute_s.in_gpu", execute_s[api::Strategy::kInGpu]);
      add("exec.execute_s.streaming_probe",
          execute_s[api::Strategy::kStreamingProbe]);
      add("exec.execute_s.co_processing",
          execute_s[api::Strategy::kCoProcessing]);
      const double lookups =
          static_cast<double>(st.cache.hits + st.cache.misses);
      add("exec.cache_hit_ratio",
          lookups > 0 ? static_cast<double>(st.cache.hits) / lookups : 0);
      add("exec.cache_evictions", static_cast<double>(st.cache.evictions));
      add("exec.shared_build_hits", static_cast<double>(st.shared_build_hits));
      add("exec.shared_upload_hits",
          static_cast<double>(st.shared_upload_hits));
      add("exec.coprocess_part_hits",
          static_cast<double>(st.coprocess_part_hits));
      add("exec.degradations", static_cast<double>(st.degradations));
      add("exec.fault_penalty_s", st.fault_penalty_s);
      add("exec.batch_speedup",
          st.makespan_s > 0 ? st.independent_s / st.makespan_s : 0);
      add("outofgpu.transfer_modeled_s", transfer_s);
      add("outofgpu.join_modeled_s", ooj_s);
      add("cpu.partition_modeled_s", cpu_s);
      uint64_t peak = 0;
      for (uint64_t b : st.device_peak_bytes) peak = std::max(peak, b);
      AddSimSamples(KernelTotals(devices), peak, samples);
      auto json = session.TraceJson();
      if (json.ok()) last_trace_json_ = *json;
    }
    return it;
  }

  SessionParams p_;
  uint64_t seed_;
  util::ThreadPool* pool_;
  hw::HardwareSpec spec_;
  std::vector<int> pass_bits_;
  api::JoinConfig cfg_;
  std::vector<data::Relation> builds_;
  std::vector<data::Relation> probes_;
  std::vector<size_t> query_build_;
  std::vector<data::OracleResult> oracles_;
  std::unique_ptr<sim::Topology> topology_;
  std::string mix_;  ///< Executed strategies of the last iteration.
  std::string last_trace_json_;
};

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every per-layer metric, in report order; a workload that does not
/// exercise a layer reports 0 for it.
std::vector<std::pair<std::string, std::string>> PerLayerNames() {
  std::vector<std::pair<std::string, std::string>> names = {
      {"data.generate_s", "s"},
      {"data.oracle_s", "s"},
      {"gpujoin.upload_s", "s"},
      {"gpujoin.partition_pass1_s", "s"},
      {"gpujoin.partition_pass2_s", "s"},
      {"gpujoin.partition_ns_per_tuple", "ns"},
      {"gpujoin.partition_cpu_util", "ratio"},
      {"gpujoin.partition_share", "ratio"},
      {"gpujoin.join_s", "s"},
      {"gpujoin.join_ns_per_match", "ns"},
      {"gpujoin.join_cpu_util", "ratio"},
      {"gpujoin.join_share", "ratio"},
      {"gpujoin.join_peak_rss_bytes", "bytes"},
      {"gpujoin.ring_capacity_bytes", "bytes"},
      {"gpujoin.ring_wraps", "count"},
      {"gpujoin.partition_modeled_s", "s"},
      {"gpujoin.join_modeled_s", "s"},
  };
  for (const char* kernel : kKernels) {
    const std::string p = std::string("sim.") + kernel + ".";
    names.push_back({p + "blocks", "count"});
    names.push_back({p + "random_transactions", "count"});
    names.push_back({p + "shared_atomics", "count"});
    names.push_back({p + "device_atomics", "count"});
    names.push_back({p + "scatter_write_bytes", "bytes"});
    names.push_back({p + "block_imbalance", "ratio"});
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"sim.device_peak_bytes", "bytes"},
      {"exec.plan_s", "s"},
      {"exec.schedule_s", "s"},
      {"exec.execute_s.in_gpu", "s"},
      {"exec.execute_s.streaming_probe", "s"},
      {"exec.execute_s.co_processing", "s"},
      {"exec.cache_hit_ratio", "ratio"},
      {"exec.cache_evictions", "count"},
      {"exec.shared_build_hits", "count"},
      {"exec.shared_upload_hits", "count"},
      {"exec.coprocess_part_hits", "count"},
      {"exec.degradations", "count"},
      {"exec.fault_penalty_s", "s"},
      {"exec.batch_speedup", "ratio"},
      {"outofgpu.transfer_modeled_s", "s"},
      {"outofgpu.join_modeled_s", "s"},
      {"cpu.partition_modeled_s", "s"},
      {"trace.overhead_ratio", "ratio"},
  };
  names.insert(names.end(), rest.begin(), rest.end());
  return names;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-44s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Counts an iteration's outcome and checks that its exact modeled
/// quantities repeat the reference.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string reference;

  void Add(const Iteration& it, const char* what) {
    attempted += it.ops;
    failed += it.failed;
    if (!it.error.empty()) {
      std::fprintf(stderr, "perfbench: %s: %s\n", what, it.error.c_str());
    }
    if (it.failed != 0) return;
    if (reference.empty()) {
      reference = it.identity;
    } else if (it.identity != reference) {
      // A result or a charge moved between iterations on identical
      // inputs: count the iteration as failed.
      failed += 1;
      std::fprintf(stderr,
                   "perfbench: %s: modeled results differ from the "
                   "reference iteration\n  got:  %s\n  want: %s\n",
                   what, it.identity.c_str(), reference.c_str());
    }
  }
  bool correct() const { return failed == 0; }
};

int Main(int argc, char** argv) {
  auto parsed = util::Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const util::Flags& flags = *parsed;
  const std::string workload = flags.GetString("workload", "");
  const int64_t seed = flags.GetInt("seed", -1);
  const double seconds = flags.GetDouble("seconds", 0);
  const int64_t trace = flags.GetInt("trace", -1);
  const int64_t threads = flags.GetInt("threads", 0);
  const std::string trace_out = flags.GetString("trace_out", "");
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1) ||
      threads < 1 || threads > nproc) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=<name> --seed=<n >= 0> "
                 "--seconds=<s> --trace=<0|1> --threads=<1..nproc>\n");
    return 2;
  }
  util::ThreadPool pool(static_cast<size_t>(threads));

  // Sizes and the reason for each workload: perfbench/README.md.
  std::unique_ptr<Workload> w;
  const uint64_t useed = static_cast<uint64_t>(seed);
  if (workload == "ingpu_uniform") {
    w = std::make_unique<InGpuWorkload>(
        InGpuParams{workload, 4u << 20, 16u << 20, 0.0, false}, useed, &pool);
  } else if (workload == "skew_ring_materialize") {
    w = std::make_unique<InGpuWorkload>(
        InGpuParams{workload, 512u << 10, 512u << 10, 0.75, true}, useed,
        &pool);
  } else if (workload == "session_mixed") {
    w = std::make_unique<SessionWorkload>(
        SessionParams{{128u << 10, 256u << 10, 512u << 10, 1u << 20},
                      {1, 2, 3, 1, 2, 3},
                      /*log2_memory_divisor=*/9,
                      /*devices=*/2},
        useed, &pool);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }

  std::printf("# perfbench workload=%s seed=%" PRId64
              " seconds=%g trace=%" PRId64 "\n",
              workload.c_str(), seed, seconds, trace);
  std::printf("# %s\n", w->Describe().c_str());
  std::printf(
      "# host: nproc=%ld pool_threads=%" PRId64
      " modeled_cpu_threads=%d scatter_buffer_tuples=%d (process default) "
      "probe_pipeline_depth=%d (process default) allocator=untuned "
      "default_pool_threads=%zu\n",
      nproc, threads, kCpuThreads, util::DefaultScatterBufferTuples(),
      util::DefaultProbePipelineDepth(),
      util::ThreadPool::Default()->num_threads());
  std::printf(
      "# load: closed loop, one client, one process; timing model "
      "unvalidated (no real-hardware reference; no error figure)\n");
  std::fflush(stdout);

  Tally tally;
  std::vector<Metric> metrics;
  if (trace == 0) {
    // Set up several times; the last set-up stays for the timed loop.
    std::vector<double> setups;
    Tracer off(nullptr);
    for (int i = 0; i < kSetupRepeats; ++i) {
      const double t0 = WallNow();
      w->SetUp(&off);
      tally.Add(w->RunUntraced(), "warm-up");
      setups.push_back(WallNow() - t0);
    }
    std::vector<double> iter_s, iter_tuples_per_s, query_modeled_s;
    double modeled_s = 0;
    uint64_t tuples = 0;
    const double start = WallNow();
    while (iter_s.empty() || WallNow() - start < seconds) {
      const double t0 = WallNow();
      Iteration it = w->RunUntraced();
      const double dt = WallNow() - t0;
      tally.Add(it, "timed iteration");
      iter_s.push_back(dt);
      iter_tuples_per_s.push_back(static_cast<double>(it.tuples) / dt);
      tuples += it.tuples;
      modeled_s += it.modeled_s;
      query_modeled_s.insert(query_modeled_s.end(),
                             it.query_modeled_s.begin(),
                             it.query_modeled_s.end());
    }
    std::printf("# iteration host seconds:");
    for (double v : iter_s) std::printf(" %.4f", v);
    std::printf("\n");
    w.reset();  // tear down before reading the process peak
    const uint64_t peak_rss = PeakRssBytes();
    std::printf("# host_s_p50 over %zu timed iterations; setup_s median of %d "
                "set-ups; failed_ratio=%g (%" PRIu64 "/%" PRIu64 ")\n",
                iter_s.size(), kSetupRepeats,
                tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                          static_cast<double>(tally.attempted)
                                    : 0.0,
                tally.failed, tally.attempted);
    metrics = {
        {"host_tuples_per_s", Median(iter_tuples_per_s), "1/s"},
        {"host_s_p50", Median(iter_s), "s"},
        {"peak_rss_bytes", static_cast<double>(peak_rss), "bytes"},
        {"setup_s", Median(setups), "s"},
        {"modeled_tuples_per_s",
         modeled_s > 0 ? static_cast<double>(tuples) / modeled_s : 0, "1/s"},
        {"modeled_query_s_p50", Median(query_modeled_s), "s"},
    };
  } else {
    obs::HostProfiler profiler;
    Tracer tracer(&profiler);
    LayerSamples samples;
    const double setup_t0 = profiler.NowSeconds();
    w->SetUp(&tracer);
    Iteration warm;
    tracer.Time("warm-up", [&] { warm = w->RunUntraced(); });
    profiler.Record("setup", setup_t0, profiler.NowSeconds() - setup_t0);
    tally.Add(warm, "warm-up");
    for (const obs::HostProfiler::Span& span : profiler.spans()) {
      if (span.name == "data.generate" || span.name == "data.oracle") {
        samples[span.name + "_s"].push_back(span.duration_s);
      }
    }
    // Alternate untraced and traced iterations; the traced path must
    // reproduce the untraced one's results and modeled charges exactly.
    std::vector<double> untraced_s, traced_s;
    const double start = WallNow();
    while (untraced_s.empty() || WallNow() - start < seconds) {
      Iteration plain;
      untraced_s.push_back(tracer.Time("iteration:untraced",
                                       [&] { plain = w->RunUntraced(); }));
      tally.Add(plain, "untraced iteration");
      Iteration traced;
      traced_s.push_back(tracer.Time(
          "iteration:traced",
          [&] { traced = w->RunTraced(&tracer, &samples); }));
      tally.Add(traced, "traced iteration");
    }
    samples["trace.overhead_ratio"].push_back(Median(traced_s) /
                                              Median(untraced_s) - 1.0);
    if (!w->Summary().empty()) std::printf("# %s\n", w->Summary().c_str());
    for (const auto& [name, unit] : PerLayerNames()) {
      auto it = samples.find(name);
      metrics.push_back(
          {name, it != samples.end() ? Median(it->second) : 0.0, unit});
    }
    std::printf("# per-layer values are medians over %zu traced iterations\n",
                untraced_s.size());
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      out << w->TraceJson(profiler);
      std::printf("# trace written to %s\n", trace_out.c_str());
    }
  }
  PrintResult(tally.correct(), tally.attempted, tally.failed, metrics);
  return tally.correct() ? 0 : 1;
}

}  // namespace
}  // namespace gjoin::perfbench

int main(int argc, char** argv) { return gjoin::perfbench::Main(argc, argv); }
