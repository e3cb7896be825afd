#include "src/gpujoin/radix_partition.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "src/obs/metrics.h"
#include "src/util/bits.h"
#include "src/util/scatter_buffer.h"

namespace gjoin::gpujoin {

namespace {

using util::CeilDiv;

/// Cycle cost charged per partitioned element: ~12 warp-instructions per
/// 32 elements of bookkeeping plus the element's share of the block's
/// memory pipeline (a block sustains roughly 5 bytes/cycle of the
/// device bandwidth, so 8 bytes cost ~1.6 cycles). Charging the memory
/// share per block is what lets a single overloaded block bound the
/// kernel — "the longest running CUDA block defines the total execution
/// time" (Section III-A).
constexpr double kCyclesPerElement = 12.0 / 32.0 + 1.6;

/// Host-side scatter staging, one instance per worker thread. The
/// simulated traffic is unchanged (ChargeStagePush/ChargeStageFlush per
/// tuple, exactly what tuple-at-a-time staging charged); what changes is
/// how the *host* moves the bytes: tuples accumulate in per-destination
/// buffers and flush to bucket storage in line-granularity non-temporal
/// bursts instead of one random 8-byte write each. Thread-local because
/// block bodies cannot carry worker-private scratch through
/// Device::Launch; flush counters are harvested per block via
/// TakeCounters at body end.
util::ScatterBuffers& ScatterScratch() {
  thread_local util::ScatterBuffers buffers;
  return buffers;
}

/// Sums per-block scatter counters into the config's registry (if any),
/// following the PR-8 naming contract. Observes only: no charges.
void PublishScatterCounters(
    const RadixPartitionConfig& config,
    const std::vector<util::ScatterBuffers::Counters>& per_block) {
  if (config.metrics == nullptr) return;
  uint64_t tuples = 0;
  uint64_t flushes = 0;
  for (const util::ScatterBuffers::Counters& c : per_block) {
    tuples += c.flushed_tuples;
    flushes += c.flushes;
  }
  config.metrics
      ->GetCounter("gjoin_partition_scatter_bytes_total",
                   "Bytes moved through the software-managed scatter "
                   "buffers by host partitioning (8 per tuple): the CPU "
                   "partitioner, GPU pass 1 and partition-at-a-time later "
                   "passes (bucket-at-a-time passes sort slices instead).")
      ->Increment(tuples * 8);
  config.metrics
      ->GetCounter("gjoin_partition_scatter_flushes_total",
                   "Scatter-buffer flushes (full-buffer bursts plus "
                   "end-of-scope drains) by host partitioning: the CPU "
                   "partitioner, GPU pass 1 and partition-at-a-time later "
                   "passes.")
      ->Increment(flushes);
}

/// A chain segment recorded during a block's body and spliced onto the
/// global partition lists in the launch epilogue. Deferring the splice
/// makes the published chain order a function of block id, not of how
/// host workers interleave — the head-exchange charge is still paid at
/// record time, where the kernel performs it.
struct PendingSegment {
  uint32_t partition;
  int32_t first;
  int32_t last;
};

/// Per-block partitioning state for block-private chains (pass 1 and
/// partition-at-a-time later passes): current bucket, fill, staging, and
/// the segment endpoints published at the end. All of it lives in the
/// block's shared memory.
struct BlockLocalChains {
  uint32_t fanout = 0;
  uint32_t stage_elems = 0;
  // Shared-memory arrays (allocated from the block's scratchpad). The
  // staging arrays model the shuffle space: the host stages tuples in
  // ScatterBuffers instead, but the simulated footprint and traffic are
  // unchanged.
  int32_t* cur_bucket = nullptr;
  uint32_t* cur_fill = nullptr;
  uint32_t* stage_fill = nullptr;
  uint32_t* stage_keys = nullptr;
  uint32_t* stage_pays = nullptr;
  int32_t* seg_first = nullptr;
  int32_t* seg_last = nullptr;

  /// Reserves shared memory once per block; false when the fanout does
  /// not fit (the paper's "fanout of at most a few thousand partitions"
  /// limit). Call ResetMeta() before first use.
  bool Alloc(sim::Block* block, uint32_t fanout_in, uint32_t stage_in) {
    fanout = fanout_in;
    stage_elems = stage_in;
    auto& shared = block->shared();
    cur_bucket = shared.Alloc<int32_t>(fanout);
    cur_fill = shared.Alloc<uint32_t>(fanout);
    stage_fill = shared.Alloc<uint32_t>(fanout);
    seg_first = shared.Alloc<int32_t>(fanout);
    seg_last = shared.Alloc<int32_t>(fanout);
    stage_keys = shared.Alloc<uint32_t>(fanout * stage_elems);
    stage_pays = shared.Alloc<uint32_t>(fanout * stage_elems);
    return cur_bucket != nullptr && cur_fill != nullptr &&
           stage_fill != nullptr && seg_first != nullptr &&
           seg_last != nullptr && stage_keys != nullptr &&
           stage_pays != nullptr;
  }

  /// (Re-)initializes the metadata for a fresh producer scope. Charged as
  /// the penalty the paper attributes to switching partitions ("spends
  /// more time initializing internal data structures").
  void ResetMeta(sim::Block* block) {
    for (uint32_t p = 0; p < fanout; ++p) {
      cur_bucket[p] = BucketChains::kNull;
      seg_first[p] = BucketChains::kNull;
      seg_last[p] = BucketChains::kNull;
      stage_fill[p] = 0;
      cur_fill[p] = 0;
    }
    block->ChargeCycles(static_cast<uint64_t>(fanout) * 2 / 32 + 1);
    block->ChargeShared(static_cast<uint64_t>(fanout) * 20);
  }

  /// Appends a staged run of `count` tuples of local partition `lp`
  /// to the block's current bucket chain, charging exactly what `count`
  /// per-tuple stage pushes plus their flushes charged: 8B staged + one
  /// stage-slot atomic per tuple, then 8B shared re-read + 8B scatter
  /// write per tuple, and one device atomic per bucket drawn from the
  /// pool. Bucket boundaries are identical to the tuple-at-a-time path
  /// because chains fill each bucket to capacity before allocating. The
  /// host copy is non-temporal (the caller's block body / epilogue ends
  /// with StreamFence before other threads may read the pool).
  void AppendRun(sim::Block* block, BucketChains* out, uint32_t lp,
                 const uint32_t* keys, const uint32_t* pays, uint32_t count) {
    block->ChargeStagePush(count);
    block->ChargeStageFlush(count);
    const uint32_t cap = out->bucket_capacity();
    uint32_t done = 0;
    while (done < count) {
      if (cur_bucket[lp] == BucketChains::kNull || cur_fill[lp] == cap) {
        const int32_t nb = out->AllocateBucket();
        block->ChargeDeviceAtomic(1);  // pool cursor
        if (nb == BucketChains::kNull) {
          // Pool exhausted: an internal sizing bug; make it loud.
          std::fprintf(stderr, "gjoin: bucket pool exhausted\n");
          std::abort();
        }
        if (cur_bucket[lp] == BucketChains::kNull) {
          seg_first[lp] = nb;
        } else {
          // Record the old bucket's final fill and link the new one after
          // it ("linked after the previous bucket").
          out->fill()[cur_bucket[lp]] = cur_fill[lp];
          out->next()[cur_bucket[lp]] = nb;
        }
        cur_bucket[lp] = nb;
        seg_last[lp] = nb;
        cur_fill[lp] = 0;
      }
      const uint32_t room = cap - cur_fill[lp];
      const uint32_t batch = std::min(room, count - done);
      const size_t dst =
          static_cast<size_t>(cur_bucket[lp]) * cap + cur_fill[lp];
      util::StreamCopyU32(keys + done, out->keys() + dst, batch);
      util::StreamCopyU32(pays + done, out->payloads() + dst, batch);
      cur_fill[lp] += batch;
      done += batch;
    }
  }

  /// Closes every non-empty segment and records it for the epilogue's
  /// deterministic publish. Local partition lp publishes as global
  /// partition gp_base + lp.
  void Finish(sim::Block* block, BucketChains* out, uint32_t gp_base,
              std::vector<PendingSegment>* pending) {
    for (uint32_t lp = 0; lp < fanout; ++lp) {
      if (cur_bucket[lp] != BucketChains::kNull) {
        out->fill()[cur_bucket[lp]] = cur_fill[lp];
        pending->push_back({gp_base + lp, seg_first[lp], seg_last[lp]});
        block->ChargeDeviceAtomic(1);  // head exchange
      }
    }
  }
};

/// Shared-memory bytes needed by BlockLocalChains for a given fanout.
size_t BlockLocalSharedBytes(uint32_t fanout, uint32_t stage_elems) {
  // 5 metadata arrays of 4 bytes + two staging arrays, plus alignment
  // slack for the 7 allocations.
  return static_cast<size_t>(fanout) * (5 * 4 + stage_elems * 8) + 7 * 16;
}

/// Charges one input bucket's visit by a later pass: the chain hop plus a
/// coalesced scan of its `count` tuples.
void ChargeBucketScan(sim::Block* block, uint32_t count,
                      uint64_t input_tuples) {
  block->ChargeRandomAccess(1, 8ull * input_tuples);
  block->ChargeCoalescedRead(8ull * count);
  block->ChargeCycles(
      static_cast<uint64_t>(static_cast<double>(count) * kCyclesPerElement));
}

/// The input of a bucket-at-a-time later pass as the kernel deals it:
/// every input bucket, parents ascending and each parent's chain head to
/// tail. Position i goes to block i % num_blocks, so a block meets its
/// buckets grouped by parent, parents ascending.
struct DealtInput {
  std::vector<int32_t> buckets;
  /// buckets[parent_begin[p], parent_begin[p + 1]) belong to parent p.
  std::vector<size_t> parent_begin;
  std::vector<uint64_t> parent_tuples;

  explicit DealtInput(const BucketChains& in)
      : parent_begin(in.num_partitions() + 1),
        parent_tuples(in.num_partitions()) {
    for (uint32_t p = 0; p < in.num_partitions(); ++p) {
      parent_begin[p] = buckets.size();
      for (int32_t b = in.heads()[p]; b != BucketChains::kNull;
           b = in.next()[b]) {
        buckets.push_back(b);
        parent_tuples[p] += in.fill()[b];
      }
    }
    parent_begin[in.num_partitions()] = buckets.size();
  }
};

/// What one block's body routes to each child, per parent visit: the
/// counts every charge of the bucket-at-a-time pass is computed from.
struct VisitCounts {
  std::vector<uint32_t> parents;
  /// counts[v * subfanout + sub]: tuples of visit v bound for child sub.
  std::vector<uint32_t> counts;
};

/// One placement worker's scratch, reused across slices and launches.
struct PlacementScratch {
  std::vector<int32_t> slice;  ///< The slice's input buckets, in order.
  std::vector<uint32_t> keys, pays;  ///< The slice, grouped by child.
  std::vector<uint32_t> begin;  ///< Child c's run: [begin[c], begin[c+1]).
  std::vector<uint32_t> cursor;
  std::vector<int32_t> drawn;  ///< Output buckets drawn for the slice.
};

PlacementScratch& ThreadPlacementScratch() {
  thread_local PlacementScratch scratch;
  return scratch;
}

/// Placement phase of the bucket-at-a-time pass, parent-major. The body
/// and epilogue only counted and charged; this writes every output chain.
/// Each parent's children are fed by that parent alone, so a parent is
/// one placement task: workers claim parents largest first, and for each
/// walk its input buckets in canonical order — ascending owner block,
/// then deal order — which is the order serialized block-order
/// execution appends them in. Chain contents, fills and chain order are
/// therefore those of that execution; only bucket ids follow the pool.
///
/// The walk goes slice by slice. A slice is counting-sorted by child into
/// worker scratch, its input buckets go back to the pool in one batch,
/// the children's fresh buckets come out in one batch, and each child's
/// run streams into its current bucket and then into new buckets
/// prepended to the child's list.
///
/// Pool bound: freeing a slice before drawing for it keeps live buckets
/// at or below the input's buckets plus one per child. For a parent
/// whose slices so far carried o tuples, o_c of them to child c, the
/// freed buckets number at least o / cap (none holds more than cap),
/// while its children hold sum_c ceil(o_c / cap) <= o / cap + children
/// of the parent. So at any instant, over all parents, live buckets =
/// input not yet freed + drawn <= input buckets + output partitions,
/// the headroom RadixPartition's pool sizing reserves.
class ParentMajorPlacement {
 public:
  ParentMajorPlacement(const DealtInput& input, BucketChains* in,
                       BucketChains* out, int num_blocks, int shift, int bits)
      : input_(input),
        in_(in),
        out_(out),
        num_blocks_(static_cast<size_t>(num_blocks)),
        shift_(shift),
        bits_(bits) {
    for (uint32_t p = 0; p < input.parent_tuples.size(); ++p) {
      if (input.parent_begin[p + 1] > input.parent_begin[p]) {
        order_.push_back(p);
      }
    }
    std::stable_sort(order_.begin(), order_.end(),
                     [&](uint32_t a, uint32_t b) {
                       return input.parent_tuples[a] > input.parent_tuples[b];
                     });
  }

  /// One placement task: claims parents until none are left. Only a
  /// worker's first task in a launch claims any, so each worker counts
  /// its scratch once.
  void Run() {
    PlacementScratch& s = ThreadPlacementScratch();
    bool claimed = false;
    for (size_t i = next_++; i < order_.size(); i = next_++) {
      if (!claimed) {
        claimed = true;
        Reserve(&s);
      }
      PlaceParent(order_[i], &s);
    }
  }

  /// Scratch tuples the launch's placement workers held together.
  uint64_t scratch_tuples() const { return scratch_tuples_; }

 private:
  void Reserve(PlacementScratch* s) {
    const size_t tuples =
        std::max<size_t>(kPlacementSliceTuples, out_->bucket_capacity());
    if (s->keys.size() < tuples) {
      s->keys.resize(tuples);
      s->pays.resize(tuples);
    }
    scratch_tuples_ += s->keys.size();
  }

  void PlaceParent(uint32_t parent, PlacementScratch* s) {
    const size_t first = input_.parent_begin[parent];
    const size_t len = input_.parent_begin[parent + 1] - first;
    size_t tuples = 0;
    s->slice.clear();
    for (size_t owner = 0; owner < num_blocks_; ++owner) {
      // Deal position first + j belongs to block (first + j) % blocks.
      for (size_t j = (owner + num_blocks_ - first % num_blocks_) %
                      num_blocks_;
           j < len; j += num_blocks_) {
        const int32_t b = input_.buckets[first + j];
        const uint32_t n = in_->fill()[b];
        if (!s->slice.empty() && tuples + n > kPlacementSliceTuples) {
          PlaceSlice(parent, s);
          s->slice.clear();
          tuples = 0;
        }
        s->slice.push_back(b);
        tuples += n;
      }
    }
    if (!s->slice.empty()) PlaceSlice(parent, s);
  }

  void PlaceSlice(uint32_t parent, PlacementScratch* s) {
    const uint32_t cap = out_->bucket_capacity();
    const uint32_t subfanout = 1u << bits_;
    s->begin.assign(subfanout + 1, 0);
    s->cursor.resize(subfanout);
    // Raw pointers: a store through the scratch vectors' uint32_t data
    // could otherwise alias the pool's fills and force reloads.
    uint32_t* begin = s->begin.data();
    uint32_t* cursor = s->cursor.data();
    uint32_t* to_keys = s->keys.data();
    uint32_t* to_pays = s->pays.data();
    const int shift = shift_;
    const int bits = bits_;
    for (const int32_t b : s->slice) {
      const uint32_t* keys = in_->keys() + static_cast<size_t>(b) * cap;
      const uint32_t n = in_->fill()[b];
      for (uint32_t t = 0; t < n; ++t) {
        ++begin[util::RadixOf(keys[t], shift, bits) + 1];
      }
    }
    for (uint32_t c = 0; c < subfanout; ++c) {
      begin[c + 1] += begin[c];
      cursor[c] = begin[c];
    }
    for (const int32_t b : s->slice) {
      const size_t base = static_cast<size_t>(b) * cap;
      const uint32_t* keys = in_->keys() + base;
      const uint32_t* pays = in_->payloads() + base;
      const uint32_t n = in_->fill()[b];
      for (uint32_t t = 0; t < n; ++t) {
        const uint32_t at = cursor[util::RadixOf(keys[t], shift, bits)]++;
        to_keys[at] = keys[t];
        to_pays[at] = pays[t];
      }
    }
    // The slice lives in scratch now: recycle its input first, so the
    // draw below may reuse those very buckets (the pool bound above).
    in_->pool()->FreeBuckets(s->slice.data(), s->slice.size());

    int32_t* heads = out_->heads() + (static_cast<size_t>(parent) << bits_);
    uint32_t* fill = out_->fill();
    int32_t* next = out_->next();
    size_t need = 0;
    for (uint32_t c = 0; c < subfanout; ++c) {
      const uint32_t n = s->begin[c + 1] - s->begin[c];
      const uint32_t room =
          heads[c] == BucketChains::kNull ? 0 : cap - fill[heads[c]];
      if (n > room) need += CeilDiv(n - room, cap);
    }
    s->drawn.resize(need);
    if (!out_->pool()->AllocateBuckets(need, s->drawn.data())) {
      // Pool exhausted: an internal sizing bug; make it loud.
      std::fprintf(stderr, "gjoin: bucket pool exhausted\n");
      std::abort();
    }
    size_t drawn = 0;
    for (uint32_t c = 0; c < subfanout; ++c) {
      uint32_t at = s->begin[c];
      while (at < s->begin[c + 1]) {
        int32_t b = heads[c];
        if (b == BucketChains::kNull || fill[b] == cap) {
          b = s->drawn[drawn++];
          next[b] = heads[c];
          heads[c] = b;
        }
        const uint32_t batch = std::min(cap - fill[b], s->begin[c + 1] - at);
        const size_t dst = static_cast<size_t>(b) * cap + fill[b];
        std::copy_n(s->keys.data() + at, batch, out_->keys() + dst);
        std::copy_n(s->pays.data() + at, batch, out_->payloads() + dst);
        fill[b] += batch;
        at += batch;
      }
    }
  }

  const DealtInput& input_;
  BucketChains* in_;
  BucketChains* out_;
  size_t num_blocks_;
  int shift_;
  int bits_;
  std::vector<uint32_t> order_;  ///< Parents with input, largest first.
  std::atomic<size_t> next_{0};
  std::atomic<uint64_t> scratch_tuples_{0};
};

/// Bucket-at-a-time later pass (the paper's choice: buckets dealt
/// round-robin, skew-robust). Blocks share children, so the kernel keeps
/// their chain metadata in device memory and stages only block-locally.
/// The host splits it along the launch's phases:
///  - body: reads only. Each block counts its tuples per (parent visit,
///    child) and pays, from the counts, what staging and flushing them
///    charges: per tuple a stage push and flush; per (visit, child) with
///    t tuples ceil(t / stage_elems) flushes of one device atomic and one
///    uncoalesced metadata access each; one stage drain per visit; and
///    per input bucket its scan and the device atomic that recycles it.
///  - epilogue: in ascending block id, each block is charged one device
///    atomic per output bucket it would draw, from a running per-child
///    fill. It moves and allocates nothing.
///  - placement: ParentMajorPlacement writes the chains, charge-free.
util::Result<sim::LaunchResult> BucketAtATimePass(
    sim::Device* device, const sim::LaunchConfig& launch, BucketChains* in,
    BucketChains* out, uint64_t input_tuples, int shift, int bits,
    const RadixPartitionConfig& config, uint64_t* scratch_tuples) {
  const uint32_t subfanout = 1u << bits;
  const uint32_t cap = in->bucket_capacity();
  const uint32_t stage_elems = config.stage_elems;
  const uint64_t metadata_bytes = 16ull * out->num_partitions();
  const size_t num_blocks = static_cast<size_t>(launch.num_blocks);
  const DealtInput input(*in);
  const size_t dealt = input.buckets.size();
  std::vector<VisitCounts> visits(num_blocks);
  // Free slots in each child's current bucket, as the epilogue fills it.
  std::vector<uint32_t> child_room(out->num_partitions(), 0);
  ParentMajorPlacement placement(input, in, out, launch.num_blocks, shift,
                                 bits);

  GJOIN_ASSIGN_OR_RETURN(
      sim::LaunchResult result,
      device->Launch(
          launch,
          [&](sim::Block& block) {
            VisitCounts& vc = visits[static_cast<size_t>(block.block_id())];
            const auto close_visit = [&] {
              if (vc.parents.empty()) return;
              const uint32_t* counts =
                  vc.counts.data() + (vc.parents.size() - 1) * subfanout;
              for (uint32_t sub = 0; sub < subfanout; ++sub) {
                const uint32_t t = counts[sub];
                if (t == 0) continue;
                const uint64_t flushes = CeilDiv(t, stage_elems);
                block.ChargeStagePush(t);
                block.ChargeStageFlush(t);
                block.ChargeDeviceAtomic(flushes);
                block.ChargeRandomAccess(flushes, metadata_bytes);
              }
              block.ChargeCycles(subfanout / 32 + 1);
            };
            uint32_t parent = 0;
            for (size_t i = static_cast<size_t>(block.block_id()); i < dealt;
                 i += num_blocks) {
              while (input.parent_begin[parent + 1] <= i) ++parent;
              if (vc.parents.empty() || vc.parents.back() != parent) {
                close_visit();
                vc.parents.push_back(parent);
                vc.counts.resize(vc.counts.size() + subfanout, 0);
              }
              uint32_t* counts =
                  vc.counts.data() + vc.counts.size() - subfanout;
              const int32_t b = input.buckets[i];
              const uint32_t count = in->fill()[b];
              ChargeBucketScan(&block, count, input_tuples);
              const uint32_t* keys = in->keys() + static_cast<size_t>(b) * cap;
              for (uint32_t t = 0; t < count; ++t) {
                ++counts[util::RadixOf(keys[t], shift, bits)];
              }
              block.ChargeDeviceAtomic(1);  // recycling the input bucket
            }
            close_visit();
          },
          [&](sim::Block& block) {
            VisitCounts& vc = visits[static_cast<size_t>(block.block_id())];
            uint64_t draws = 0;
            for (size_t v = 0; v < vc.parents.size(); ++v) {
              uint32_t* room = child_room.data() +
                               (static_cast<size_t>(vc.parents[v]) << bits);
              const uint32_t* counts = vc.counts.data() + v * subfanout;
              for (uint32_t sub = 0; sub < subfanout; ++sub) {
                // ceil((fill + n) / cap) - ceil(fill / cap) fresh buckets.
                if (counts[sub] <= room[sub]) {
                  room[sub] -= counts[sub];
                  continue;
                }
                const uint32_t spill = counts[sub] - room[sub];
                const uint64_t fresh = CeilDiv(spill, cap);
                draws += fresh;
                room[sub] = static_cast<uint32_t>(fresh * cap - spill);
              }
            }
            block.ChargeDeviceAtomic(draws);  // pool cursor, per bucket
            vc = VisitCounts();
          },
          [&](int /*task*/) { placement.Run(); }));
  *scratch_tuples = placement.scratch_tuples();
  return result;
}

/// Partition-at-a-time later pass: parents are dealt round-robin whole,
/// so a block is the sole producer of its parents' children and keeps
/// their metadata in fast shared memory; the price is load imbalance
/// under skew (max_block_cycles). Segments publish in the epilogue.
util::Result<sim::LaunchResult> PartitionAtATimePass(
    sim::Device* device, const sim::LaunchConfig& launch, BucketChains* in,
    BucketChains* out, uint64_t input_tuples, int shift, int bits,
    const RadixPartitionConfig& config) {
  const uint32_t subfanout = 1u << bits;
  const uint32_t capacity = in->bucket_capacity();
  const auto num_blocks = static_cast<size_t>(launch.num_blocks);
  const int scatter_tuples =
      util::ResolveScatterBufferTuples(config.scatter_buffer_tuples);
  std::vector<std::vector<uint32_t>> block_parents(num_blocks);
  for (uint32_t p = 0; p < in->num_partitions(); ++p) {
    if (in->heads()[p] != BucketChains::kNull) {
      block_parents[p % num_blocks].push_back(p);
    }
  }
  std::vector<std::vector<PendingSegment>> pending(num_blocks);
  std::vector<util::ScatterBuffers::Counters> scatter_counters(num_blocks);

  GJOIN_ASSIGN_OR_RETURN(
      sim::LaunchResult result,
      device->Launch(
          launch,
          [&](sim::Block& block) {
            const auto id = static_cast<size_t>(block.block_id());
            if (block_parents[id].empty()) return;
            util::ScatterBuffers& sb = ScatterScratch();
            sb.Init(subfanout, scatter_tuples);
            BlockLocalChains local;
            if (!local.Alloc(&block, subfanout, config.stage_elems)) return;
            for (const uint32_t parent : block_parents[id]) {
              local.ResetMeta(&block);
              int32_t b = in->heads()[parent];
              while (b != BucketChains::kNull) {
                const int32_t next_b = in->next()[b];  // before recycling b
                const size_t base = static_cast<size_t>(b) * capacity;
                const uint32_t count = in->fill()[b];
                ChargeBucketScan(&block, count, input_tuples);
                const uint32_t* bkeys = in->keys() + base;
                const uint32_t* bpays = in->payloads() + base;
                for (uint32_t t = 0; t < count; ++t) {
                  const uint32_t sub = util::RadixOf(bkeys[t], shift, bits);
                  if (sb.Push(sub, bkeys[t], bpays[t])) {
                    const util::ScatterBuffers::RunView run = sb.Run(sub);
                    local.AppendRun(&block, out, sub, run.keys, run.pays,
                                    run.count);
                    sb.Clear(sub);
                  }
                }
                // Staged copies make later pool reuse safe; free only
                // after the bucket's tuples are read.
                in->FreeBucket(b);
                block.ChargeDeviceAtomic(1);
                b = next_b;
              }
              sb.DrainAll(
                  [&](uint32_t sub, util::ScatterBuffers::RunView run) {
                    local.AppendRun(&block, out, sub, run.keys, run.pays,
                                    run.count);
                  });
              local.Finish(&block, out, parent << bits, &pending[id]);
            }
            scatter_counters[id] = sb.TakeCounters();
            util::StreamFence();
          },
          [&](sim::Block& block) {
            for (const PendingSegment& seg :
                 pending[static_cast<size_t>(block.block_id())]) {
              out->PublishSegment(seg.partition, seg.first, seg.last);
            }
          }));
  PublishScatterCounters(config, scatter_counters);
  return result;
}
}  // namespace

uint32_t AutoBucketCapacity(uint64_t tuples, uint32_t partitions) {
  if (partitions == 0) return 1024;
  const uint64_t per_partition = CeilDiv(2 * std::max<uint64_t>(tuples, 1),
                                         partitions);
  const uint64_t clamped = std::clamp<uint64_t>(per_partition, 128, 1024);
  return static_cast<uint32_t>(util::NextPowerOfTwo(clamped));
}

void ChunkedDeviceInput::Add(std::vector<uint32_t> keys,
                             std::vector<uint32_t> payloads) {
  if (keys.empty()) return;
  AddBorrowed(keys, payloads);
  // Moving a vector keeps its buffer, so the recorded view survives.
  chunks_.back().keys = std::move(keys);
  chunks_.back().payloads = std::move(payloads);
}

void ChunkedDeviceInput::AddBorrowed(const std::vector<uint32_t>& keys,
                                     const std::vector<uint32_t>& payloads) {
  if (keys.empty()) return;
  chunks_.push_back({{}, {}, keys.data(), payloads.data(), total_});
  total_ += keys.size();
}

uint32_t ChunkedDeviceInput::MaxKey() const {
  uint32_t max_key = 0;
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const uint32_t* k = chunks_[c].k;
    max_key = std::max(max_key, *std::max_element(
                                    k, k + (ChunkEnd(c) - chunks_[c].begin)));
  }
  return max_key;
}

void ChunkedDeviceInput::Cursor::Advance() {
  // Only reached when the owning block has more tuples, so the next
  // chunk exists and is still alive (it intersects the block's range).
  ++chunk_;
  const Chunk& chunk = in_->chunks_[chunk_];
  k_ = chunk.k;
  p_ = chunk.p;
  k_end_ = k_ + (in_->ChunkEnd(chunk_) - chunk.begin);
}

ChunkedDeviceInput::Cursor ChunkedDeviceInput::At(size_t i) const {
  Cursor cur;
  cur.in_ = this;
  // Last chunk whose begin is <= i.
  size_t lo = 0, hi = chunks_.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    (chunks_[mid].begin <= i ? lo : hi) = mid;
  }
  cur.chunk_ = lo;
  const Chunk& chunk = chunks_[lo];
  cur.k_ = chunk.k + (i - chunk.begin);
  cur.p_ = chunk.p + (i - chunk.begin);
  cur.k_end_ = chunk.k + (ChunkEnd(lo) - chunk.begin);
  return cur;
}

void ChunkedDeviceInput::BeginConsume(size_t block_tuples) {
  block_tuples_ = block_tuples;
  readers_ = std::make_unique<std::atomic<int>[]>(chunks_.size());
  if (block_tuples == 0) return;
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const size_t lo = chunks_[c].begin;
    const size_t hi = ChunkEnd(c);
    // The blocks reading [lo, hi) are a contiguous, nonempty id range.
    const size_t b0 = lo / block_tuples;
    const size_t b1 = (hi - 1) / block_tuples;
    readers_[c].store(static_cast<int>(b1 - b0 + 1),
                      std::memory_order_relaxed);
  }
}

void ChunkedDeviceInput::BlockDone(size_t begin, size_t end) {
  if (end <= begin || readers_ == nullptr) return;
  // First chunk containing `begin` (coverage is gap-free), then every
  // chunk starting before `end`.
  size_t lo = 0, hi = chunks_.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    (chunks_[mid].begin <= begin ? lo : hi) = mid;
  }
  for (size_t c = lo; c < chunks_.size() && chunks_[c].begin < end; ++c) {
    if (readers_[c].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last reader: release the chunk's owned columns (a borrowed
      // chunk owns none).
      std::vector<uint32_t>().swap(chunks_[c].keys);
      std::vector<uint32_t>().swap(chunks_[c].payloads);
    }
  }
}

namespace {

/// Pass-1 input: the launch body walks its tuple range through a
/// source-provided cursor, so the contiguous DeviceRelation path (this
/// adapter) and the chunk-consuming path (a ChunkedDeviceInput itself)
/// share one kernel. Every charge is driven by
/// tuple values and counts alone, never by input layout, which is what
/// keeps the two paths' stats bit-identical.
struct FlatPassSource {
  const uint32_t* keys;
  const uint32_t* pays;
  struct Cursor {
    const uint32_t* k;
    const uint32_t* p;
    uint32_t key() const { return *k; }
    uint32_t pay() const { return *p; }
    void Next() {
      ++k;
      ++p;
    }
  };
  Cursor At(size_t i) const { return {keys + i, pays + i}; }
  void BeginConsume(size_t /*block_tuples*/) {}
  void BlockDone(size_t /*begin*/, size_t /*end*/) {}
};

template <typename Source>
util::Result<PartitionedRelation> FirstPassOverSource(
    sim::Device* device, Source&& src, size_t input_size, int shift, int bits,
    const RadixPartitionConfig& config, PartitionedRelation* append_to) {
  if (bits <= 0 || bits > 12) {
    return util::Status::Invalid("first pass bits out of range: " +
                                 std::to_string(bits));
  }
  const uint32_t fanout = 1u << bits;
  const size_t smem_needed =
      BlockLocalSharedBytes(fanout, config.stage_elems);
  if (smem_needed > device->spec().gpu.shared_mem_per_block) {
    return util::Status::Invalid(
        "partitioning fanout 2^" + std::to_string(bits) +
        " needs " + std::to_string(smem_needed) +
        "B shared memory, exceeding the per-block limit");
  }

  const uint32_t capacity =
      config.bucket_capacity != 0
          ? config.bucket_capacity
          : AutoBucketCapacity(input_size, config.num_partitions());
  const int num_blocks =
      config.num_blocks != 0
          ? config.num_blocks
          : device->spec().gpu.num_sms * device->spec().gpu.blocks_per_sm;
  const int scatter_tuples =
      util::ResolveScatterBufferTuples(config.scatter_buffer_tuples);

  PartitionedRelation out;
  if (append_to != nullptr) {
    // Segmented partitioning: publish into the caller's existing chains
    // (their pool must have headroom for this segment).
    if (append_to->radix_bits != bits || append_to->base_shift != shift) {
      return util::Status::Invalid("append: radix layout mismatch");
    }
    out = std::move(*append_to);
  } else {
    const uint32_t pool_buckets =
        static_cast<uint32_t>(CeilDiv(input_size, capacity)) +
        static_cast<uint32_t>(num_blocks) * fanout + fanout;
    GJOIN_ASSIGN_OR_RETURN(
        BucketChains chains,
        BucketChains::Allocate(&device->memory(), fanout, pool_buckets,
                               capacity));
    out.chains = std::move(chains);
    out.radix_bits = bits;
    out.base_shift = shift;
  }
  BucketChains& chains = out.chains;

  const size_t n = input_size;
  const size_t chunk = num_blocks > 0 ? CeilDiv(n, num_blocks) : n;
  src.BeginConsume(chunk);

  sim::LaunchConfig launch;
  launch.name = "radix_partition_pass1";
  launch.num_blocks = num_blocks;
  launch.threads_per_block = config.threads_per_block;
  launch.shared_mem_bytes = device->spec().gpu.shared_mem_per_block;

  std::vector<std::vector<PendingSegment>> pending(
      static_cast<size_t>(num_blocks));
  std::vector<util::ScatterBuffers::Counters> scatter_counters(
      static_cast<size_t>(num_blocks));
  GJOIN_ASSIGN_OR_RETURN(
      sim::LaunchResult result,
      device->Launch(
          launch,
          [&](sim::Block& block) {
            const size_t begin = static_cast<size_t>(block.block_id()) * chunk;
            const size_t end = std::min(n, begin + chunk);
            if (begin >= end) return;
            BlockLocalChains local;
            if (!local.Alloc(&block, fanout, config.stage_elems)) return;
            local.ResetMeta(&block);
            block.ChargeCoalescedRead(8ull * (end - begin));
            block.ChargeCycles(static_cast<uint64_t>(
                static_cast<double>(end - begin) * kCyclesPerElement));
            // Single pass: radix-decode each tuple into its destination's
            // scatter buffer; a full buffer flushes to the bucket chain
            // as one non-temporal burst.
            util::ScatterBuffers& sb = ScatterScratch();
            sb.Init(fanout, scatter_tuples);
            auto cur = src.At(begin);
            // The cursor never steps past the block's last tuple (a
            // chunked source may have freed whatever follows).
            for (size_t i = begin;;) {
              const uint32_t key = cur.key();
              const uint32_t p = util::RadixOf(key, shift, bits);
              if (sb.Push(p, key, cur.pay())) {
                const util::ScatterBuffers::RunView run = sb.Run(p);
                local.AppendRun(&block, &chains, p, run.keys, run.pays,
                                run.count);
                sb.Clear(p);
              }
              if (++i == end) break;
              cur.Next();
            }
            sb.DrainAll([&](uint32_t p, util::ScatterBuffers::RunView run) {
              local.AppendRun(&block, &chains, p, run.keys, run.pays,
                              run.count);
            });
            local.Finish(&block, &chains, /*gp_base=*/0,
                         &pending[static_cast<size_t>(block.block_id())]);
            scatter_counters[static_cast<size_t>(block.block_id())] =
                sb.TakeCounters();
            util::StreamFence();
            src.BlockDone(begin, end);
          },
          [&](sim::Block& block) {
            for (const PendingSegment& seg :
                 pending[static_cast<size_t>(block.block_id())]) {
              chains.PublishSegment(seg.partition, seg.first, seg.last);
            }
          }));
  PublishScatterCounters(config, scatter_counters);

  out.tuples += n;
  out.seconds += result.seconds;
  if (out.pass_seconds.empty()) {
    out.pass_seconds = {result.seconds};
  } else {
    out.pass_seconds[0] += result.seconds;
  }
  return out;
}

}  // namespace

util::Result<PartitionedRelation> RadixPartitionFirstPass(
    sim::Device* device, const DeviceRelation& input, int shift, int bits,
    const RadixPartitionConfig& config, PartitionedRelation* append_to) {
  return FirstPassOverSource(
      device, FlatPassSource{input.keys.data(), input.payloads.data()},
      input.size, shift, bits, config, append_to);
}

util::Result<PartitionedRelation> RadixPartitionNextPass(
    sim::Device* device, PartitionedRelation prev, int shift, int bits,
    const RadixPartitionConfig& config) {
  if (bits <= 0 || bits > 12) {
    return util::Status::Invalid("pass bits out of range: " +
                                 std::to_string(bits));
  }
  const uint32_t subfanout = 1u << bits;
  const size_t smem_needed =
      BlockLocalSharedBytes(subfanout, config.stage_elems);
  if (smem_needed > device->spec().gpu.shared_mem_per_block) {
    return util::Status::Invalid("sub-partitioning fanout too large");
  }

  // The pass owns `prev`, so recycling consumed input buckets back into
  // the shared pool is a sanctioned mutation (no caller can observe the
  // drained input chains afterwards).
  BucketChains& in = prev.chains;
  const uint32_t children = in.num_partitions() << bits;
  // Output chains share the input's pool: consumed input buckets are
  // recycled into output buckets, keeping the footprint near the data
  // size. The pool must still have headroom for one partial bucket per
  // child; RadixPartition sizes it accordingly.
  GJOIN_ASSIGN_OR_RETURN(
      BucketChains chains,
      BucketChains::Allocate(&device->memory(), children, in.pool()));

  sim::LaunchConfig launch;
  launch.name = "radix_partition_pass2";
  launch.num_blocks =
      config.num_blocks != 0
          ? config.num_blocks
          : device->spec().gpu.num_sms * device->spec().gpu.blocks_per_sm;
  launch.threads_per_block = config.threads_per_block;
  launch.shared_mem_bytes = device->spec().gpu.shared_mem_per_block;

  uint64_t scratch_tuples = 0;
  GJOIN_ASSIGN_OR_RETURN(
      sim::LaunchResult result,
      config.assignment == WorkAssignment::kBucketAtATime
          ? BucketAtATimePass(device, launch, &in, &chains, prev.tuples,
                              shift, bits, config, &scratch_tuples)
          : PartitionAtATimePass(device, launch, &in, &chains, prev.tuples,
                                 shift, bits, config));

  PartitionedRelation out;
  out.chains = std::move(chains);
  out.radix_bits = prev.radix_bits + bits;
  out.base_shift = prev.base_shift;
  out.tuples = prev.tuples;
  out.seconds = prev.seconds + result.seconds;
  out.pass_seconds = std::move(prev.pass_seconds);
  out.pass_seconds.push_back(result.seconds);
  out.peak_placement_scratch_tuples =
      std::max(prev.peak_placement_scratch_tuples, scratch_tuples);
  return out;
}

namespace {

util::Status ValidatePassBits(const RadixPartitionConfig& config) {
  if (config.pass_bits.empty()) {
    return util::Status::Invalid("RadixPartition: no passes configured");
  }
  for (size_t i = 0; i < config.pass_bits.size(); ++i) {
    if (config.pass_bits[i] < 1 || config.pass_bits[i] > 12) {
      return util::Status::Invalid(
          "RadixPartition: pass_bits[" + std::to_string(i) + "] = " +
          std::to_string(config.pass_bits[i]) + " is outside [1, 12]");
    }
  }
  const std::string total = std::to_string(config.total_bits());
  if (config.total_bits() >= 32) {
    return util::Status::Invalid("RadixPartition: pass_bits total " + total +
                                 " bits; 2^total partitions needs <= 31");
  }
  if (config.base_shift < 0 || config.base_shift + config.total_bits() > 32) {
    return util::Status::Invalid(
        "RadixPartition: base_shift " + std::to_string(config.base_shift) +
        " plus " + total + " pass bits leaves the 32-bit key");
  }
  return util::Status::OK();
}

/// Segments of a host input: `requested`, or when 0 the fewest (at most
/// 16) whose one raw segment fits the memory the device has left once
/// the partitioned form (chains plus pool slack, ~2x the data) is set
/// aside.
int HostSegments(const sim::Device& device, const data::Relation& rel,
                 int requested) {
  if (requested > 0) return requested;
  const uint64_t budget = device.memory().available();
  const uint64_t need = rel.bytes() * 2;
  const uint64_t seg_budget = budget > need ? budget - need : budget / 8;
  return std::max(
      1, static_cast<int>(std::min<uint64_t>(
             16, CeilDiv(rel.bytes(), std::max<uint64_t>(seg_budget, 1)))));
}

}  // namespace

const DeviceRelation* PartitionInput::device_relation() const {
  if (const auto* owned = std::get_if<DeviceRelation>(&source_)) return owned;
  const auto* borrowed = std::get_if<const DeviceRelation*>(&source_);
  return borrowed != nullptr ? *borrowed : nullptr;
}

size_t PartitionInput::size() const {
  if (const DeviceRelation* rel = device_relation()) return rel->size;
  if (const auto* chunked = std::get_if<ChunkedDeviceInput>(&source_)) {
    return chunked->size();
  }
  return std::get<Host>(source_).relation->size();
}

uint32_t PartitionInput::MaxKey() const {
  if (const auto* chunked = std::get_if<ChunkedDeviceInput>(&source_)) {
    return chunked->MaxKey();
  }
  const DeviceRelation* rel = device_relation();
  const uint32_t* keys = rel != nullptr
                             ? rel->keys.data()
                             : std::get<Host>(source_).relation->keys.data();
  return size() == 0 ? 0 : *std::max_element(keys, keys + size());
}

util::Result<PartitionedRelation> RadixPartition(
    sim::Device* device, PartitionInput input,
    const RadixPartitionConfig& config) {
  GJOIN_RETURN_NOT_OK(ValidatePassBits(config));
  const uint64_t n = input.size();
  auto* host = std::get_if<PartitionInput::Host>(&input.source_);
  const int segments =
      host != nullptr ? HostSegments(*device, *host->relation, host->segments)
                      : 1;
  RadixPartitionConfig cfg = config;
  const int num_blocks =
      cfg.num_blocks != 0
          ? cfg.num_blocks
          : device->spec().gpu.num_sms * device->spec().gpu.blocks_per_sm;
  const uint32_t fanout1 = 1u << cfg.pass_bits[0];
  if (cfg.bucket_capacity == 0) {
    cfg.bucket_capacity = AutoBucketCapacity(n, config.num_partitions());
    // Cap by expected per-producer output: pass 1 creates at least one
    // bucket per (block, partition) pair, and the final pass at least one
    // per partition, so over-large buckets on small inputs waste pool
    // storage without improving coalescing.
    const uint64_t per_producer = std::max<uint64_t>(
        32, util::NextPowerOfTwo(
                std::max<uint64_t>(1, n / (static_cast<uint64_t>(num_blocks) *
                                           fanout1))));
    const uint64_t per_final = std::max<uint64_t>(
        32, util::NextPowerOfTwo(std::max<uint64_t>(
                1, 2 * n / config.num_partitions())));
    cfg.bucket_capacity = static_cast<uint32_t>(std::min<uint64_t>(
        cfg.bucket_capacity, std::min(per_producer, per_final)));
  }

  // One pool for all passes: data buckets + block-private partials of
  // pass 1 (each host segment's producers publish their own partials,
  // bounded by blocks x fanout per segment) + one partial per final
  // child + slack for in-flight recycling.
  const uint64_t seg_count = static_cast<uint64_t>(segments);
  const uint64_t per_seg = CeilDiv(n, seg_count);
  const uint64_t producer_slack =
      std::min<uint64_t>(static_cast<uint64_t>(num_blocks) * fanout1,
                         per_seg) *
      seg_count;
  const uint32_t pool_buckets = static_cast<uint32_t>(
      CeilDiv(n, cfg.bucket_capacity) + producer_slack +
      cfg.num_partitions() + 128);
  GJOIN_ASSIGN_OR_RETURN(
      std::shared_ptr<BucketPool> pool,
      BucketPool::Allocate(&device->memory(), pool_buckets,
                           cfg.bucket_capacity));
  GJOIN_ASSIGN_OR_RETURN(
      BucketChains chains,
      BucketChains::Allocate(&device->memory(), fanout1, std::move(pool)));

  PartitionedRelation rel;
  rel.chains = std::move(chains);
  rel.radix_bits = cfg.pass_bits[0];
  rel.base_shift = cfg.base_shift;

  // Pass 1, publishing into `rel`'s chains.
  if (host != nullptr) {
    const size_t seg_tuples = CeilDiv(n, seg_count);
    for (size_t begin = 0; begin < n; begin += seg_tuples) {
      const size_t end = std::min<size_t>(n, begin + seg_tuples);
      // Upload the segment straight from the host columns — no
      // intermediate host copy.
      GJOIN_ASSIGN_OR_RETURN(
          DeviceRelation seg_dev,
          DeviceRelation::Upload(
              device, data::RelationView::Slice(*host->relation, begin, end)));
      GJOIN_ASSIGN_OR_RETURN(
          rel, RadixPartitionFirstPass(device, seg_dev, cfg.base_shift,
                                       cfg.pass_bits[0], cfg, &rel));
      // seg_dev freed at scope exit: only one segment is ever resident.
    }
  } else if (auto* chunked = std::get_if<ChunkedDeviceInput>(&input.source_)) {
    // Same single launch as the contiguous path, walking the chunks in
    // place; each chunk is freed once its last reader block finishes.
    GJOIN_ASSIGN_OR_RETURN(
        rel, FirstPassOverSource(device, *chunked, static_cast<size_t>(n),
                                 cfg.base_shift, cfg.pass_bits[0], cfg, &rel));
  } else {
    GJOIN_ASSIGN_OR_RETURN(
        rel, RadixPartitionFirstPass(device, *input.device_relation(),
                                     cfg.base_shift, cfg.pass_bits[0], cfg,
                                     &rel));
    if (auto* owned = std::get_if<DeviceRelation>(&input.source_)) {
      owned->keys.Reset();
      owned->payloads.Reset();
    }
  }

  int shift = cfg.base_shift + cfg.pass_bits[0];
  for (size_t pass = 1; pass < cfg.pass_bits.size(); ++pass) {
    GJOIN_ASSIGN_OR_RETURN(
        rel, RadixPartitionNextPass(device, std::move(rel), shift,
                                    cfg.pass_bits[pass], cfg));
    shift += cfg.pass_bits[pass];
  }
  return rel;
}

}  // namespace gjoin::gpujoin
