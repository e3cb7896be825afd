// Concurrency stress tests: the ThreadPool edge cases and, more
// importantly, the determinism contract of the three-phase launch path —
// every join result, every charged KernelStats counter, and every byte
// of a materialized output ring must be identical whether the simulated
// blocks execute on 1 host worker or interleave across 8. The CI thread
// lane runs this suite under TSan with GJOIN_CPU_THREADS=8; here the
// pools are constructed explicitly so the test is deterministic even on
// a single-CPU machine without the environment override.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/cpu/cpu_partition.h"
#include "src/data/generator.h"
#include "src/gpujoin/nonpartitioned.h"
#include "src/gpujoin/output_ring.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/gpujoin/radix_partition.h"
#include "src/outofgpu/coprocess.h"
#include "src/outofgpu/transfer_mech.h"
#include "src/systems/cogadb.h"
#include "src/systems/dbmsx.h"
#include "src/util/thread_pool.h"

namespace gjoin {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool edge cases
// ---------------------------------------------------------------------------

TEST(ThreadPoolStressTest, WaitWithZeroTasksIsImmediate) {
  util::ThreadPool pool(8);
  pool.Wait();  // Nothing submitted: must not hang or throw.
  pool.Wait();  // And again: Wait with an empty queue stays reusable.
}

TEST(ThreadPoolStressTest, NestedSubmitIsCoveredByWait) {
  util::ThreadPool pool(8);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&] {
      ++count;
      // Submission from a worker thread: the new task belongs to the
      // same Wait() epoch as its parent.
      pool.Submit([&] { ++count; });
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 128);
}

TEST(ThreadPoolStressTest, WorkerExceptionRethrownFromWait) {
  util::ThreadPool pool(8);
  std::atomic<int> survivors{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&, i] {
      if (i == 7) throw std::runtime_error("task 7 failed");
      ++survivors;
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The failure is consumed by Wait; the pool stays usable afterwards.
  pool.Submit([&] { ++survivors; });
  pool.Wait();
  EXPECT_EQ(survivors.load(), 16);
}

TEST(ThreadPoolStressTest, ManySmallTasksAllRun) {
  util::ThreadPool pool(8);
  constexpr int kTasks = 4000;
  std::vector<std::atomic<int>> hits(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&hits, i] { ++hits[i]; });
  }
  pool.Wait();
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolStressTest, ParallelForRangesWorkerIndexIsDense) {
  util::ThreadPool pool(8);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> visited(kN);
  std::atomic<size_t> max_worker{0};
  pool.ParallelForRanges(kN, [&](size_t worker, size_t begin, size_t end) {
    size_t seen = max_worker.load();
    while (worker > seen && !max_worker.compare_exchange_weak(seen, worker)) {
    }
    for (size_t i = begin; i < end; ++i) ++visited[i];
  });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(visited[i].load(), 1);
  EXPECT_LT(max_worker.load(), pool.num_threads());
}

// ---------------------------------------------------------------------------
// Launch determinism: 1 worker vs 8 workers, bit-identical everything
// ---------------------------------------------------------------------------

/// Asserts two launch profiles charged exactly the same stats.
void ExpectSameProfile(const sim::Device& a, const sim::Device& b) {
  const auto pa = a.profile();
  const auto pb = b.profile();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    SCOPED_TRACE("launch " + std::to_string(i) + " (" + pa[i].name + ")");
    EXPECT_EQ(pa[i].name, pb[i].name);
    const auto& sa = pa[i].stats;
    const auto& sb = pb[i].stats;
    EXPECT_EQ(sa.coalesced_read_bytes, sb.coalesced_read_bytes);
    EXPECT_EQ(sa.coalesced_write_bytes, sb.coalesced_write_bytes);
    EXPECT_EQ(sa.scatter_write_bytes, sb.scatter_write_bytes);
    EXPECT_EQ(sa.random_transactions, sb.random_transactions);
    EXPECT_EQ(sa.random_working_set_bytes, sb.random_working_set_bytes);
    EXPECT_EQ(sa.shared_bytes, sb.shared_bytes);
    EXPECT_EQ(sa.shared_atomics, sb.shared_atomics);
    EXPECT_EQ(sa.device_atomics, sb.device_atomics);
    EXPECT_EQ(sa.total_cycles, sb.total_cycles);
    EXPECT_EQ(sa.max_block_cycles, sb.max_block_cycles);
    EXPECT_EQ(sa.num_blocks, sb.num_blocks);
    EXPECT_DOUBLE_EQ(pa[i].seconds, pb[i].seconds);
  }
}

class LaunchDeterminismTest : public ::testing::Test {
 protected:
  LaunchDeterminismTest()
      : r_(data::MakeReplicated(40000, 2.0, 31)),
        s_(data::MakeZipf(80000, 20000, 0.75, 32, 7)) {}

  data::Relation r_;
  data::Relation s_;
  util::ThreadPool pool1_{1};
  util::ThreadPool pool8_{8};
};

TEST_F(LaunchDeterminismTest, PartitionedJoinIdenticalAcrossPoolWidths) {
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {5, 4};
  sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
  auto ref = gpujoin::PartitionedJoinFromHost(&d1, r_, s_, cfg);
  ASSERT_TRUE(ref.ok()) << ref.status();
  // Several repetitions: before the launch epilogue existed, failures
  // here were interleaving-dependent and intermittent.
  for (int rep = 0; rep < 3; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    sim::Device d8{hw::HardwareSpec::Icde2019Testbed(), &pool8_};
    auto got = gpujoin::PartitionedJoinFromHost(&d8, r_, s_, cfg);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->matches, ref->matches);
    EXPECT_EQ(got->payload_sum, ref->payload_sum);
    EXPECT_DOUBLE_EQ(got->seconds, ref->seconds);
    ExpectSameProfile(d1, d8);
  }
}

TEST_F(LaunchDeterminismTest, PartitionAtATimeSecondPassIdentical) {
  // The default (bucket-at-a-time) second pass runs in the test above
  // through its count/charge/parent-major placement phases; this covers
  // the partition-at-a-time assignment, whose deferred segment publishes
  // replay through the epilogue.
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {4, 4};
  cfg.partition.assignment = gpujoin::WorkAssignment::kPartitionAtATime;
  sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
  auto ref = gpujoin::PartitionedJoinFromHost(&d1, r_, s_, cfg);
  ASSERT_TRUE(ref.ok()) << ref.status();
  for (int rep = 0; rep < 3; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    sim::Device d8{hw::HardwareSpec::Icde2019Testbed(), &pool8_};
    auto got = gpujoin::PartitionedJoinFromHost(&d8, r_, s_, cfg);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->matches, ref->matches);
    EXPECT_EQ(got->payload_sum, ref->payload_sum);
    EXPECT_DOUBLE_EQ(got->seconds, ref->seconds);
    ExpectSameProfile(d1, d8);
  }
}

TEST_F(LaunchDeterminismTest, MaterializedRingBytesIdenticalEvenWrapped) {
  // A ring smaller than the result set forces wrap-around overwrites, so
  // even the *order* of ring claims is observable. The epilogue's claims
  // and the placement that follows must reproduce the single-worker
  // order exactly.
  const auto run = [&](sim::Device* dev, std::vector<uint64_t>* ring_bytes) {
    gpujoin::RadixPartitionConfig pc;
    pc.pass_bits = {4};
    auto pr = gpujoin::RadixPartition(
        dev, std::move(gpujoin::DeviceRelation::Upload(dev, r_)).ValueOrDie(),
        pc);
    ASSERT_TRUE(pr.ok()) << pr.status();
    auto ps = gpujoin::RadixPartition(
        dev, std::move(gpujoin::DeviceRelation::Upload(dev, s_)).ValueOrDie(),
        pc);
    ASSERT_TRUE(ps.ok()) << ps.status();
    auto ring = gpujoin::OutputRing::Allocate(&dev->memory(), 4096);
    ASSERT_TRUE(ring.ok()) << ring.status();
    gpujoin::OutputRing out = std::move(ring).ValueOrDie();
    gpujoin::CoPartitionJoinConfig jcfg;
    jcfg.output = gpujoin::OutputMode::kMaterialize;
    auto stats = gpujoin::JoinCoPartitions(dev, *pr, *ps, jcfg, &out);
    ASSERT_TRUE(stats.ok()) << stats.status();
    ASSERT_TRUE(out.wrapped());  // the interesting case
    ring_bytes->resize(out.capacity());
    for (size_t i = 0; i < out.capacity(); ++i) (*ring_bytes)[i] = out.pair(i);
  };

  std::vector<uint64_t> ref;
  sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
  run(&d1, &ref);
  for (int rep = 0; rep < 3; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    std::vector<uint64_t> got;
    sim::Device d8{hw::HardwareSpec::Icde2019Testbed(), &pool8_};
    run(&d8, &got);
    EXPECT_EQ(got, ref);
    ExpectSameProfile(d1, d8);
  }
}

TEST_F(LaunchDeterminismTest, NonPartitionedVariantsIdentical) {
  for (const auto variant : {gpujoin::NonPartitionedVariant::kChaining,
                             gpujoin::NonPartitionedVariant::kPerfectHash}) {
    SCOPED_TRACE(static_cast<int>(variant));
    const data::Relation build =
        variant == gpujoin::NonPartitionedVariant::kPerfectHash
            ? data::MakeUniqueUniform(30000, 33)  // perfect hash: unique keys
            : r_;
    gpujoin::NonPartitionedJoinConfig cfg;
    cfg.variant = variant;
    cfg.output = gpujoin::OutputMode::kMaterialize;
    cfg.out_capacity = 2048;  // force ring wrap here too

    const auto run = [&](sim::Device* dev, gpujoin::JoinStats* stats_out) {
      auto ub = gpujoin::DeviceRelation::Upload(dev, build);
      auto us = gpujoin::DeviceRelation::Upload(dev, s_);
      ASSERT_TRUE(ub.ok() && us.ok());
      auto stats = gpujoin::NonPartitionedJoin(dev, *ub, *us, cfg);
      ASSERT_TRUE(stats.ok()) << stats.status();
      *stats_out = *stats;
    };

    sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
    gpujoin::JoinStats ref;
    run(&d1, &ref);
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE("rep " + std::to_string(rep));
      sim::Device d8{hw::HardwareSpec::Icde2019Testbed(), &pool8_};
      gpujoin::JoinStats got;
      run(&d8, &got);
      EXPECT_EQ(got.matches, ref.matches);
      EXPECT_EQ(got.payload_sum, ref.payload_sum);
      EXPECT_DOUBLE_EQ(got.seconds, ref.seconds);
      ExpectSameProfile(d1, d8);
    }
  }
}

// ---------------------------------------------------------------------------
// Placement edge cases: the epilogue assigns offsets, placement writes
// data. Each case is bit-identical between pools of 1 and 8 workers and
// against a digest pinned from the serial-replay implementation that
// preceded the placement phase (computed by the same helpers below).
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words.
uint64_t Fnv(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}
constexpr uint64_t kFnvSeed = 14695981039346656037ull;

/// Digest of a partitioned relation's content in chain order (per
/// partition: every bucket's fill and tuples, head to tail). Bucket ids
/// are deliberately left out: they follow the pool's free list.
uint64_t ChainDigest(const gpujoin::PartitionedRelation& rel) {
  const gpujoin::BucketChains& c = rel.chains;
  uint64_t h = kFnvSeed;
  for (uint32_t p = 0; p < c.num_partitions(); ++p) {
    h = Fnv(h, p);
    for (int32_t b = c.heads()[p]; b != gpujoin::BucketChains::kNull;
         b = c.next()[b]) {
      const uint32_t fill = c.fill()[b];
      h = Fnv(h, fill);
      const size_t base = static_cast<size_t>(b) * c.bucket_capacity();
      for (uint32_t i = 0; i < fill; ++i) {
        h = Fnv(h, (static_cast<uint64_t>(c.keys()[base + i]) << 32) |
                       c.payloads()[base + i]);
      }
    }
  }
  return h;
}

/// Digest of every ring slot plus the cursor.
uint64_t RingDigest(const gpujoin::OutputRing& ring) {
  uint64_t h = Fnv(kFnvSeed, ring.total_written());
  for (size_t i = 0; i < ring.capacity(); ++i) h = Fnv(h, ring.pair(i));
  return h;
}

TEST_F(LaunchDeterminismTest, Pass2RunsStraddlingBucketsIdentical) {
  // 16-tuple buckets: most children's tuples span several buckets, so
  // the epilogue's per-block bucket-draw charges and placement's bucket
  // hops and prepends are exercised. The scatter-buffer size no longer
  // reaches the second pass (it counts, then places parent by parent);
  // the digest is the one the staged-run implementation produced.
  gpujoin::RadixPartitionConfig pc;
  pc.pass_bits = {4, 4};
  pc.bucket_capacity = 16;
  pc.scatter_buffer_tuples = 256;
  const auto run = [&](sim::Device* dev, uint64_t* digest) {
    auto up = gpujoin::DeviceRelation::Upload(dev, s_);
    ASSERT_TRUE(up.ok()) << up.status();
    auto parted = gpujoin::RadixPartition(dev, *up, pc);
    ASSERT_TRUE(parted.ok()) << parted.status();
    ASSERT_EQ(parted->chains.TotalElements(), s_.size());
    *digest = ChainDigest(*parted);
  };
  sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
  uint64_t ref = 0;
  run(&d1, &ref);
  EXPECT_EQ(ref, 12576657624191134178ull);
  for (int rep = 0; rep < 3; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    sim::Device d8{hw::HardwareSpec::Icde2019Testbed(), &pool8_};
    uint64_t got = 0;
    run(&d8, &got);
    EXPECT_EQ(got, ref);
    ExpectSameProfile(d1, d8);
  }
}

/// Total buckets on every chain of `rel`.
uint64_t ChainBuckets(const gpujoin::PartitionedRelation& rel) {
  uint64_t buckets = 0;
  for (uint32_t p = 0; p < rel.chains.num_partitions(); ++p) {
    buckets += rel.chains.PartitionBuckets(p).size();
  }
  return buckets;
}

/// `n` tuples, every other one in first-pass parent 3 (low 4 key bits),
/// so that parent holds half the input.
data::Relation HotParentRelation(uint32_t n) {
  data::Relation rel;
  for (uint32_t i = 0; i < n; ++i) {
    rel.keys.push_back(i % 2 == 0 ? ((i * 40503u) << 4) | 3u
                                  : i * 2654435761u);
    rel.payloads.push_back(i);
  }
  return rel;
}

TEST_F(LaunchDeterminismTest, Pass2HotParentWithinPoolBoundIdentical) {
  // One parent holds half of 60000 tuples: several placement slices of
  // one parent and 16-tuple buckets. With 8 blocks, the pool
  // RadixPartition sizes leaves less headroom than one slice's worth of
  // buckets: enough for placement, which frees a slice's input before
  // drawing its output, but not for drawing first.
  const data::Relation rel = HotParentRelation(60000);
  ASSERT_GT(rel.size() / 2, gpujoin::kPlacementSliceTuples);
  gpujoin::RadixPartitionConfig pc;
  pc.pass_bits = {4, 4};
  pc.bucket_capacity = 16;
  pc.num_blocks = 8;
  const auto run = [&](sim::Device* dev, uint64_t* digest) {
    auto up = gpujoin::DeviceRelation::Upload(dev, rel);
    ASSERT_TRUE(up.ok()) << up.status();
    auto parted = gpujoin::RadixPartition(dev, *up, pc);
    ASSERT_TRUE(parted.ok()) << parted.status();
    ASSERT_EQ(parted->chains.TotalElements(), rel.size());
    const gpujoin::BucketPool& pool = *parted->chains.pool();
    EXPECT_EQ(pool.free_buckets(), pool.num_buckets() - ChainBuckets(*parted));
    *digest = ChainDigest(*parted);
  };
  sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
  uint64_t ref = 0;
  run(&d1, &ref);
  EXPECT_EQ(ref, 16580930998825270802ull);
  sim::Device d8{hw::HardwareSpec::Icde2019Testbed(), &pool8_};
  uint64_t got = 0;
  run(&d8, &got);
  EXPECT_EQ(got, ref);
  ExpectSameProfile(d1, d8);
}

TEST_F(LaunchDeterminismTest, Pass2PlacementScratchBoundedByWorkers) {
  // Placement sorts one slice at a time in per-worker scratch, so its
  // host scratch depends on the pool width, not on the input size.
  for (util::ThreadPool* pool : {&pool1_, &pool8_}) {
    for (const uint32_t n : {20000u, 200000u}) {
      SCOPED_TRACE(std::to_string(pool->num_threads()) + " workers, " +
                   std::to_string(n) + " tuples");
      sim::Device dev{hw::HardwareSpec::Icde2019Testbed(), pool};
      gpujoin::RadixPartitionConfig pc;
      pc.pass_bits = {4, 4};
      auto up = gpujoin::DeviceRelation::Upload(&dev, HotParentRelation(n));
      ASSERT_TRUE(up.ok()) << up.status();
      auto parted = gpujoin::RadixPartition(&dev, *up, pc);
      ASSERT_TRUE(parted.ok()) << parted.status();
      const uint64_t peak = parted->peak_placement_scratch_tuples;
      EXPECT_GT(peak, 0u);
      EXPECT_LE(peak, pool->num_threads() * gpujoin::kPlacementSliceTuples);
    }
  }
}

/// Ring placement cases: one partitioned R x S join (M matches) run
/// twice into the same ring without ResetCursor, so the second call
/// starts at a nonzero cursor. Capacities put each call's total below,
/// at and above capacity; where a call writes fewer pairs than the ring
/// holds, the earlier content must survive around it.
class RingPlacementTest : public LaunchDeterminismTest,
                          public ::testing::WithParamInterface<bool> {
 protected:
  static constexpr uint64_t kMatches = 156141;  // matches of one call

  /// Joins twice into a ring of `capacity` pairs; returns its digest.
  void Run(sim::Device* dev, size_t capacity, uint64_t* digest) {
    gpujoin::RadixPartitionConfig pc;
    pc.pass_bits = {4};
    auto pr = gpujoin::RadixPartition(
        dev, std::move(gpujoin::DeviceRelation::Upload(dev, r_)).ValueOrDie(),
        pc);
    auto ps = gpujoin::RadixPartition(
        dev, std::move(gpujoin::DeviceRelation::Upload(dev, s_)).ValueOrDie(),
        pc);
    ASSERT_TRUE(pr.ok() && ps.ok());
    auto ring = gpujoin::OutputRing::Allocate(&dev->memory(), capacity);
    ASSERT_TRUE(ring.ok()) << ring.status();
    gpujoin::OutputRing out = std::move(ring).ValueOrDie();
    gpujoin::CoPartitionJoinConfig jcfg;
    jcfg.output = gpujoin::OutputMode::kMaterialize;
    jcfg.buffered_output = GetParam();
    for (int call = 0; call < 2; ++call) {
      auto stats = gpujoin::JoinCoPartitions(dev, *pr, *ps, jcfg, &out);
      ASSERT_TRUE(stats.ok()) << stats.status();
      ASSERT_EQ(stats->matches, kMatches);
      ASSERT_EQ(out.total_written(), (call + 1) * kMatches);
    }
    *digest = RingDigest(out);
  }
};

TEST_P(RingPlacementTest, BytesIdenticalAcrossWidthsAndPinned) {
  struct Case {
    size_t capacity;
    uint64_t digest;
  };
  const uint64_t m = kMatches;
  const std::vector<Case> cases = {
      {m / 3, 2867227886853676096ull},    // each call wraps several times
      {m, 11010451164469912895ull},    // each call fills the ring exactly
      {m + 777, 2146374008694150769ull},    // first call below; second wraps a little
      {3 * m / 2, 17407732118588996131ull},  // second call wraps over half the first
      {3 * m, 3603128068711496630ull},    // both below: zero tail survives
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("capacity " + std::to_string(c.capacity));
    sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
    uint64_t ref = 0;
    Run(&d1, c.capacity, &ref);
    EXPECT_EQ(ref, c.digest);
    sim::Device d8{hw::HardwareSpec::Icde2019Testbed(), &pool8_};
    uint64_t got = 0;
    Run(&d8, c.capacity, &got);
    EXPECT_EQ(got, ref);
    ExpectSameProfile(d1, d8);
  }
}

INSTANTIATE_TEST_SUITE_P(BufferedAndDirect, RingPlacementTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Buffered" : "Direct";
                         });

TEST_F(LaunchDeterminismTest, RingStagingBoundedUnderOutputExplosion) {
  // One hot key on both sides: 3000 x 3000 = 9M matches into a 1024-pair
  // ring. Host staging may hold at most each block's last `capacity`
  // pairs, however many the block emits.
  data::Relation r, s;
  for (uint32_t i = 0; i < 3000; ++i) {
    r.keys.push_back(7);
    r.payloads.push_back(i);
    s.keys.push_back(7);
    s.payloads.push_back(100000 + i);
  }
  constexpr size_t kCapacity = 1024;
  constexpr int kBlocks = 16;
  const auto run = [&](sim::Device* dev, uint64_t* digest, uint64_t* staged) {
    gpujoin::RadixPartitionConfig pc;
    pc.pass_bits = {4};
    auto pr = gpujoin::RadixPartition(
        dev, std::move(gpujoin::DeviceRelation::Upload(dev, r)).ValueOrDie(),
        pc);
    auto ps = gpujoin::RadixPartition(
        dev, std::move(gpujoin::DeviceRelation::Upload(dev, s)).ValueOrDie(),
        pc);
    ASSERT_TRUE(pr.ok() && ps.ok());
    auto ring = gpujoin::OutputRing::Allocate(&dev->memory(), kCapacity);
    ASSERT_TRUE(ring.ok());
    gpujoin::OutputRing out = std::move(ring).ValueOrDie();
    gpujoin::CoPartitionJoinConfig jcfg;
    jcfg.output = gpujoin::OutputMode::kMaterialize;
    jcfg.num_blocks = kBlocks;
    jcfg.max_probe_buckets_per_item = 1;  // spread the hot key over blocks
    auto stats = gpujoin::JoinCoPartitions(dev, *pr, *ps, jcfg, &out);
    ASSERT_TRUE(stats.ok()) << stats.status();
    ASSERT_EQ(stats->matches, 9000000u);
    *digest = RingDigest(out);
    *staged = out.peak_staged_pairs();
  };
  sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
  sim::Device d8{hw::HardwareSpec::Icde2019Testbed(), &pool8_};
  uint64_t ref = 0, got = 0, staged1 = 0, staged8 = 0;
  run(&d1, &ref, &staged1);
  run(&d8, &got, &staged8);
  EXPECT_EQ(ref, 5006396769462102666ull);
  EXPECT_EQ(got, ref);
  ExpectSameProfile(d1, d8);
  EXPECT_EQ(staged8, staged1);
  EXPECT_LE(staged1, static_cast<uint64_t>(kBlocks) * kCapacity);
  EXPECT_LT(staged1 * 100, 9000000u);  // << matches
  EXPECT_GT(staged1, kCapacity);  // several blocks really emitted
}

// ---------------------------------------------------------------------------
// RingEmits: one bulk Emit of a stretch equals emitting it pair by pair
// ---------------------------------------------------------------------------

/// One Emit call: `n` consecutive pairs of `block`.
struct EmitCall {
  int block;
  size_t n;
};

/// Runs one launch's record/assign/place phases into `ring`, emitting
/// each call's pairs (numbered on from *next_pair) in bulk or one by one.
void EmitLaunch(gpujoin::OutputRing* ring, int blocks,
                const std::vector<EmitCall>& calls, bool bulk,
                uint64_t* next_pair) {
  gpujoin::RingEmits emits(ring, blocks);
  for (const EmitCall& call : calls) {
    std::vector<uint64_t> pairs(call.n);
    for (uint64_t& pair : pairs) pair = ++*next_pair;
    if (bulk) {
      emits.Emit(call.block, pairs.data(), pairs.size());
    } else {
      for (uint64_t pair : pairs) emits.Emit(call.block, pair);
    }
  }
  for (int b = 0; b < blocks; ++b) emits.Assign(b);
  for (int b = 0; b < blocks; ++b) emits.Place(b);
}

TEST(RingEmitsTest, BulkEmissionEqualsPerPairEmission) {
  constexpr size_t kCap = 16;
  struct Case {
    const char* name;
    int blocks;
    std::vector<std::vector<EmitCall>> launches;  ///< Into one ring.
  };
  const std::vector<Case> cases = {
      {"n < cap", 1, {{{0, 5}}}},
      {"n == cap", 1, {{{0, kCap}}}},
      {"n > cap", 1, {{{0, 2 * kCap + 5}}}},
      {"stretch straddles the wrap", 1, {{{0, 13}, {0, 7}}}},
      {"stretches into a full tail", 1, {{{0, 20}, {0, 9}, {0, 3}, {0, 17}}}},
      {"mixed blocks", 3, {{{1, 4}, {0, 30}, {2, 15}, {1, 14}, {2, 2}}}},
      {"two launches into one ring", 2,
       {{{0, 6}, {1, 3}}, {{1, 11}, {0, 9}, {1, 1}}}},
  };
  sim::DeviceMemory memory(1 << 20);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto per_pair =
        std::move(gpujoin::OutputRing::Allocate(&memory, kCap)).ValueOrDie();
    auto bulk =
        std::move(gpujoin::OutputRing::Allocate(&memory, kCap)).ValueOrDie();
    uint64_t next_a = 0, next_b = 0;
    for (const auto& launch : c.launches) {
      EmitLaunch(&per_pair, c.blocks, launch, /*bulk=*/false, &next_a);
      EmitLaunch(&bulk, c.blocks, launch, /*bulk=*/true, &next_b);
    }
    EXPECT_EQ(bulk.total_written(), per_pair.total_written());
    EXPECT_EQ(bulk.peak_staged_pairs(), per_pair.peak_staged_pairs());
    for (size_t i = 0; i < kCap; ++i) {
      EXPECT_EQ(bulk.pair(i), per_pair.pair(i)) << "slot " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Work stays on the pool a device was given
// ---------------------------------------------------------------------------

TEST(DevicePoolTest, HostWorkStaysOnTheDevicesPool) {
  // Probe chains several buckets long per partition, one bucket per work
  // item: JoinCoPartitions builds its chunk memo (host-side work).
  const data::Relation r = data::MakeUniqueUniform(20000, 41);
  const data::Relation s = data::MakeUniformProbe(80000, 20000, 42);
  util::ThreadPool pool{1};
  util::ThreadPool* process_pool = util::ThreadPool::Default();
  // Host partitions for the co-processing planner, made up front on the
  // test's own pool.
  outofgpu::CoProcessConfig co;
  co.cpu.radix_bits = 4;
  const hw::CpuCostModel cpu_model(hw::HardwareSpec::Icde2019Testbed().cpu);
  auto build_parts = cpu::CpuRadixPartition(r, co.cpu, cpu_model, &pool);
  auto probe_parts = cpu::CpuRadixPartition(s, co.cpu, cpu_model, &pool);
  ASSERT_TRUE(build_parts.ok() && probe_parts.ok());

  const size_t before = process_pool->tasks_submitted();
  sim::Device device{hw::HardwareSpec::Icde2019Testbed(), &pool};
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {4};
  cfg.join.max_probe_buckets_per_item = 1;
  auto in_gpu = gpujoin::PartitionedJoinFromHost(&device, r, s, cfg);
  ASSERT_TRUE(in_gpu.ok()) << in_gpu.status();
  auto planned =
      outofgpu::PlanCoProcessJoin(&device, *build_parts, *probe_parts, co);
  ASSERT_TRUE(planned.ok()) << planned.status();
  outofgpu::MechanismJoinConfig mech;
  auto mech_join = outofgpu::MechanismJoin(&device, r, s, mech);
  ASSERT_TRUE(mech_join.ok()) << mech_join.status();
  auto cogadb = systems::CoGaDbJoin(&device, r, s);
  ASSERT_TRUE(cogadb.ok()) << cogadb.status();
  auto dbmsx = systems::DbmsXJoin(&device, r, s);
  ASSERT_TRUE(dbmsx.ok()) << dbmsx.status();

  EXPECT_EQ(process_pool->tasks_submitted(), before);
  EXPECT_GT(pool.tasks_submitted(), 0u);
  EXPECT_EQ(in_gpu->matches, 80000u);
  uint64_t planned_matches = 0;
  for (const auto& run : planned->runs) planned_matches += run.matches;
  EXPECT_EQ(planned_matches, 80000u);
  EXPECT_EQ(mech_join->matches, 80000u);
  EXPECT_EQ(cogadb->matches, 80000u);
  EXPECT_EQ(dbmsx->matches, 80000u);
}

}  // namespace
}  // namespace gjoin
