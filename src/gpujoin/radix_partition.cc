#include "src/gpujoin/radix_partition.h"

#include <algorithm>
#include <cstdio>
#include <functional>

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
                   "buffers by host partitioning (8 per tuple).")
      ->Increment(tuples * 8);
  config.metrics
      ->GetCounter("gjoin_partition_scatter_flushes_total",
                   "Scatter-buffer flushes (full-buffer bursts plus "
                   "end-of-scope drains) by host partitioning.")
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

/// Device-memory-resident per-child-partition chain metadata, shared by
/// all producing blocks (the bucket-at-a-time mode of later passes:
/// several blocks feed the same children concurrently, so their current-
/// bucket state cannot live in block-local shared memory — the paper's
/// "accessing data in the GPU memory" cost).
///
/// Concurrent appends to a shared chain would land in host-scheduling
/// order, so the three launch phases split the work:
///  - body (AppendBulk): each block stages its runs privately, lock-free,
///    paying the order-independent charges (stage flushes and their
///    metadata atomics) where the kernel performs them;
///  - epilogue (Assign): in ascending block id, each run is given its
///    destination slots — buckets are allocated and prepended exactly as
///    serialized block-order execution would, and the block is charged
///    one device atomic per bucket it draws — without moving any tuple;
///  - placement (Place): blocks copy their staged runs to the assigned
///    slots concurrently (destinations are disjoint by construction).
/// Chain structure, bucket contents and per-block charges are therefore
/// bit-identical at every host pool width.
class GlobalChains {
 public:
  GlobalChains(BucketChains* out, int num_blocks)
      : out_(out),
        cur_(out->num_partitions(), BucketChains::kNull),
        per_block_(static_cast<size_t>(num_blocks)) {}

  /// Sizes a block's staging for the `tuples` it will append, so the
  /// staged copy is allocated once instead of grown by doubling.
  void Reserve(int block_id, size_t tuples) {
    PerBlock& pb = per_block_[static_cast<size_t>(block_id)];
    pb.keys.reserve(tuples);
    pb.pays.reserve(tuples);
  }

  /// Appends a staged run of `count` tuples to child partition `child`.
  /// `flush_events` is how many stage flushes the tuple-at-a-time path
  /// would have performed while staging this run (each flush pays one
  /// device atomic plus one uncoalesced metadata transaction); the
  /// caller tracks stage occupancy and passes the exact count, keeping
  /// charged stats bit-identical.
  void AppendBulk(sim::Block* block, uint32_t child, const uint32_t* keys,
                  const uint32_t* pays, uint32_t count,
                  uint32_t flush_events) {
    if (count == 0 && flush_events == 0) return;
    block->ChargeDeviceAtomic(flush_events);
    block->ChargeRandomAccess(flush_events, 16ull * out_->num_partitions());
    block->ChargeStageFlush(count);
    if (count == 0) return;
    PerBlock& pb = per_block_[static_cast<size_t>(block->block_id())];
    pb.runs.push_back({child, count, 0});
    pb.keys.insert(pb.keys.end(), keys, keys + count);
    pb.pays.insert(pb.pays.end(), pays, pays + count);
  }

  /// Epilogue half: assigns this block's runs their slots in the shared
  /// chains. Fills each child's current bucket to capacity before drawing
  /// a fresh one (one device atomic each, charged to this block) and
  /// prepends new buckets to the child's list; runs arrive in ascending
  /// block order, so the chain order is canonical. Rewrites each run's
  /// `target` from child to first destination bucket and records the
  /// buckets a run spills into, in order.
  void Assign(sim::Block* block) {
    PerBlock& pb = per_block_[static_cast<size_t>(block->block_id())];
    const uint32_t cap = out_->bucket_capacity();
    for (Run& run : pb.runs) {
      const uint32_t child = run.target;
      uint32_t left = run.count;
      bool first = true;
      while (left > 0) {
        int32_t b = cur_[child];
        if (b == BucketChains::kNull || out_->fill()[b] == cap) {
          b = out_->AllocateBucket();
          block->ChargeDeviceAtomic(1);
          if (b == BucketChains::kNull) {
            // Pool exhausted: an internal sizing bug; make it loud.
            std::fprintf(stderr, "gjoin: bucket pool exhausted\n");
            std::abort();
          }
          out_->next()[b] = out_->heads()[child];
          out_->heads()[child] = b;
          cur_[child] = b;
        }
        if (first) {
          run.target = static_cast<uint32_t>(b);
          run.offset = out_->fill()[b];
          first = false;
        } else {
          pb.spills.push_back(b);
        }
        const uint32_t batch = std::min(cap - out_->fill()[b], left);
        out_->fill()[b] += batch;
        left -= batch;
      }
    }
  }

  /// Placement half: copies this block's staged runs to the slots Assign
  /// gave them, then frees the staging. Runs shorter than a cache line
  /// use plain stores (the typical run is a few dozen bytes, where
  /// non-temporal stores' alignment head and write-combining cost more
  /// than they save); longer ones stream. Charge-free by construction.
  void Place(int block_id) {
    PerBlock& pb = per_block_[static_cast<size_t>(block_id)];
    const uint32_t cap = out_->bucket_capacity();
    size_t src = 0;
    size_t spill = 0;
    for (const Run& run : pb.runs) {
      auto b = static_cast<int32_t>(run.target);
      uint32_t at = run.offset;
      uint32_t done = 0;
      for (;;) {
        const uint32_t batch = std::min(cap - at, run.count - done);
        const size_t dst = static_cast<size_t>(b) * cap + at;
        CopyRun(pb.keys.data() + src + done, out_->keys() + dst, batch);
        CopyRun(pb.pays.data() + src + done, out_->payloads() + dst, batch);
        done += batch;
        if (done == run.count) break;
        b = pb.spills[spill++];
        at = 0;
      }
      src += run.count;
    }
    pb = PerBlock();  // the staged copy is dead weight from here
    util::StreamFence();
  }

 private:
  /// Tuples per 64-byte cache line (4-byte keys and payloads).
  static constexpr uint32_t kLineElems = 16;

  static void CopyRun(const uint32_t* src, uint32_t* dst, uint32_t n) {
    if (n < kLineElems) {
      std::copy_n(src, n, dst);
    } else {
      util::StreamCopyU32(src, dst, n);
    }
  }

  struct Run {
    /// Child partition until Assign, then the run's first destination
    /// bucket.
    uint32_t target;
    uint32_t count;
    /// First slot within the destination bucket (set by Assign).
    uint32_t offset;
  };
  struct PerBlock {
    std::vector<Run> runs;
    std::vector<uint32_t> keys, pays;
    /// Buckets the runs continue into past their first one, in run order.
    std::vector<int32_t> spills;
  };
  BucketChains* out_;
  std::vector<int32_t> cur_;
  std::vector<PerBlock> per_block_;
};

/// Block-local staging only (no chain metadata) for producers that feed
/// GlobalChains. The host appends staged runs; the stage-fill counters
/// are kept exact so the number of simulated stage flushes (and their
/// metadata charges) matches tuple-at-a-time execution bit for bit.
struct StageOnly {
  uint32_t fanout = 0;
  uint32_t stage_elems = 0;
  uint32_t* stage_fill = nullptr;
  uint32_t* stage_keys = nullptr;
  uint32_t* stage_pays = nullptr;

  bool Alloc(sim::Block* block, uint32_t fanout_in, uint32_t stage_in) {
    fanout = fanout_in;
    stage_elems = stage_in;
    auto& shared = block->shared();
    stage_fill = shared.Alloc<uint32_t>(fanout);
    stage_keys = shared.Alloc<uint32_t>(fanout * stage_elems);
    stage_pays = shared.Alloc<uint32_t>(fanout * stage_elems);
    return stage_fill != nullptr && stage_keys != nullptr &&
           stage_pays != nullptr;
  }

  /// Appends a run of `count` tuples of sub-partition `sub`. The run is
  /// written through the simulated stage: each tuple pays the stage push,
  /// and every stage_elems-th tuple (relative to the current occupancy)
  /// triggers one flush worth of metadata charges.
  void AppendRun(sim::Block* block, GlobalChains* out, uint32_t gp_base,
                 uint32_t sub, const uint32_t* keys, const uint32_t* pays,
                 uint32_t count) {
    block->ChargeStagePush(count);
    const uint32_t occupied = stage_fill[sub] + count;
    const uint32_t flushes = occupied / stage_elems;
    stage_fill[sub] = occupied % stage_elems;
    out->AppendBulk(block, gp_base + sub, keys, pays, count, flushes);
  }

  /// Drains all non-empty stages to children of gp_base (call before a
  /// parent switch and at block end). Tuples were already appended by
  /// AppendRun; this pays the final flush metadata per dirty stage.
  void FlushAll(sim::Block* block, GlobalChains* out, uint32_t gp_base) {
    for (uint32_t sub = 0; sub < fanout; ++sub) {
      if (stage_fill[sub] > 0) {
        out->AppendBulk(block, gp_base + sub, nullptr, nullptr, 0,
                        /*flush_events=*/1);
        stage_fill[sub] = 0;
      }
    }
    block->ChargeCycles(fanout / 32 + 1);
  }
};

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
  const uint32_t* k = keys.data();
  const uint32_t* p = payloads.data();
  const size_t n = keys.size();
  // Moving a vector keeps its buffer, so the view survives the moves.
  Chunk chunk;
  chunk.keys = std::move(keys);
  chunk.payloads = std::move(payloads);
  AddChunk(std::move(chunk), k, p, n);
}

void ChunkedDeviceInput::AddBorrowed(const std::vector<uint32_t>& keys,
                                     const std::vector<uint32_t>& payloads) {
  if (keys.empty()) return;
  AddChunk(Chunk(), keys.data(), payloads.data(), keys.size());
}

void ChunkedDeviceInput::AddChunk(Chunk chunk, const uint32_t* keys,
                                  const uint32_t* payloads, size_t n) {
  chunk.k = keys;
  chunk.p = payloads;
  chunk.begin = total_;
  total_ += n;
  chunks_.push_back(std::move(chunk));
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

/// Pass-1 input adapters: the launch body walks its tuple range through
/// a source-provided cursor, so the contiguous DeviceRelation path and
/// the chunk-consuming path share one kernel. Every charge is driven by
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

struct ChunkedPassSource {
  ChunkedDeviceInput* input;
  using Cursor = ChunkedDeviceInput::Cursor;
  Cursor At(size_t i) const { return input->At(i); }
  void BeginConsume(size_t block_tuples) { input->BeginConsume(block_tuples); }
  void BlockDone(size_t begin, size_t end) { input->BlockDone(begin, end); }
};

template <typename Source>
util::Result<PartitionedRelation> FirstPassOverSource(
    sim::Device* device, Source src, size_t input_size, int shift, int bits,
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
  const uint32_t parents = in.num_partitions();
  const uint32_t children = parents << bits;
  const uint32_t capacity = in.bucket_capacity();
  const int num_blocks =
      config.num_blocks != 0
          ? config.num_blocks
          : device->spec().gpu.num_sms * device->spec().gpu.blocks_per_sm;
  const int scatter_tuples =
      util::ResolveScatterBufferTuples(config.scatter_buffer_tuples);
  // Output chains share the input's pool: consumed input buckets are
  // recycled into output buckets, keeping the footprint near the data
  // size. The pool must still have headroom for one partial bucket per
  // child plus in-flight buckets; RadixPartition sizes it accordingly.
  GJOIN_ASSIGN_OR_RETURN(
      BucketChains chains,
      BucketChains::Allocate(&device->memory(), children, in.pool()));

  // Build per-block work lists. Bucket-at-a-time deals individual buckets
  // round-robin (skew-robust); partition-at-a-time deals whole parent
  // chains (block becomes the sole producer of its children). In both
  // modes a block's items are grouped by parent so metadata is
  // initialized once per parent visit.
  struct WorkItem {
    uint32_t parent;
    int32_t bucket;  // kNull in partition-at-a-time mode (whole chain)
  };
  std::vector<std::vector<WorkItem>> block_items(
      static_cast<size_t>(num_blocks));
  if (config.assignment == WorkAssignment::kBucketAtATime) {
    size_t rr = 0;
    for (uint32_t p = 0; p < parents; ++p) {
      for (int32_t b = in.heads()[p]; b != BucketChains::kNull;
           b = in.next()[b]) {
        block_items[rr % num_blocks].push_back({p, b});
        ++rr;
      }
    }
    for (auto& items : block_items) {
      std::stable_sort(items.begin(), items.end(),
                       [](const WorkItem& a, const WorkItem& b) {
                         return a.parent < b.parent;
                       });
    }
  } else {
    for (uint32_t p = 0; p < parents; ++p) {
      if (in.heads()[p] != BucketChains::kNull) {
        block_items[p % num_blocks].push_back({p, BucketChains::kNull});
      }
    }
  }

  sim::LaunchConfig launch;
  launch.name = "radix_partition_pass2";
  launch.num_blocks = num_blocks;
  launch.threads_per_block = config.threads_per_block;
  launch.shared_mem_bytes = device->spec().gpu.shared_mem_per_block;

  GlobalChains global(&chains, num_blocks);
  const bool bucket_mode =
      config.assignment == WorkAssignment::kBucketAtATime;
  std::vector<std::vector<PendingSegment>> pending(
      static_cast<size_t>(num_blocks));
  std::vector<util::ScatterBuffers::Counters> scatter_counters(
      static_cast<size_t>(num_blocks));

  GJOIN_ASSIGN_OR_RETURN(
      sim::LaunchResult result,
      device->Launch(launch, [&](sim::Block& block) {
        const auto& items = block_items[static_cast<size_t>(block.block_id())];
        if (items.empty()) return;

        auto charge_bucket_scan = [&](uint32_t count) {
          // Chain hop + coalesced scan of the bucket's tuples.
          block.ChargeRandomAccess(1, 8ull * prev.tuples);
          block.ChargeCoalescedRead(8ull * count);
          block.ChargeCycles(static_cast<uint64_t>(
              static_cast<double>(count) * kCyclesPerElement));
        };

        util::ScatterBuffers& sb = ScatterScratch();
        sb.Init(subfanout, scatter_tuples);

        if (bucket_mode) {
          // Bucket-at-a-time: blocks share the children, so chain
          // metadata lives in device memory (GlobalChains); only the
          // staging buffers are block-local. Tuples route through the
          // scatter buffers straight off each input bucket's scan; a
          // parent's stage drains when its last item has been consumed.
          StageOnly stage;
          if (!stage.Alloc(&block, subfanout, config.stage_elems)) return;
          for (uint32_t s = 0; s < subfanout; ++s) stage.stage_fill[s] = 0;
          size_t block_tuples = 0;
          for (const WorkItem& item : items) {
            block_tuples += in.fill()[item.bucket];
          }
          global.Reserve(block.block_id(), block_tuples);

          uint32_t open_parent = 0;
          bool has_open = false;
          auto close_parent = [&] {
            if (!has_open) return;
            sb.DrainAll([&](uint32_t sub, util::ScatterBuffers::RunView run) {
              stage.AppendRun(&block, &global, open_parent << bits, sub,
                              run.keys, run.pays, run.count);
            });
            stage.FlushAll(&block, &global, open_parent << bits);
            has_open = false;
          };

          for (const WorkItem& item : items) {
            if (!has_open || item.parent != open_parent) {
              close_parent();
              open_parent = item.parent;
              has_open = true;
            }
            const size_t base =
                static_cast<size_t>(item.bucket) * capacity;
            const uint32_t count = in.fill()[item.bucket];
            charge_bucket_scan(count);
            const uint32_t* bkeys = in.keys() + base;
            const uint32_t* bpays = in.payloads() + base;
            for (uint32_t t = 0; t < count; ++t) {
              const uint32_t sub = util::RadixOf(bkeys[t], shift, bits);
              if (sb.Push(sub, bkeys[t], bpays[t])) {
                const util::ScatterBuffers::RunView run = sb.Run(sub);
                stage.AppendRun(&block, &global, open_parent << bits, sub,
                                run.keys, run.pays, run.count);
                sb.Clear(sub);
              }
            }
            // The input bucket is fully consumed (its tuples are staged
            // or recorded): recycle it.
            in.FreeBucket(item.bucket);
            block.ChargeDeviceAtomic(1);
          }
          close_parent();
        } else {
          // Partition-at-a-time: the block is the sole producer of its
          // parents' children, so metadata stays in fast shared memory;
          // the price is load imbalance under skew (max_block_cycles).
          BlockLocalChains local;
          if (!local.Alloc(&block, subfanout, config.stage_elems)) return;
          for (const WorkItem& item : items) {
            local.ResetMeta(&block);
            int32_t b = in.heads()[item.parent];
            while (b != BucketChains::kNull) {
              const int32_t next_b = in.next()[b];  // before recycling b
              const size_t base = static_cast<size_t>(b) * capacity;
              const uint32_t count = in.fill()[b];
              charge_bucket_scan(count);
              const uint32_t* bkeys = in.keys() + base;
              const uint32_t* bpays = in.payloads() + base;
              for (uint32_t t = 0; t < count; ++t) {
                const uint32_t sub = util::RadixOf(bkeys[t], shift, bits);
                if (sb.Push(sub, bkeys[t], bpays[t])) {
                  const util::ScatterBuffers::RunView run = sb.Run(sub);
                  local.AppendRun(&block, &chains, sub, run.keys, run.pays,
                                  run.count);
                  sb.Clear(sub);
                }
              }
              // Staged copies make later pool reuse safe; free only
              // after the bucket's tuples are read.
              in.FreeBucket(b);
              block.ChargeDeviceAtomic(1);
              b = next_b;
            }
            sb.DrainAll([&](uint32_t sub, util::ScatterBuffers::RunView run) {
              local.AppendRun(&block, &chains, sub, run.keys, run.pays,
                              run.count);
            });
            local.Finish(&block, &chains, item.parent << bits,
                         &pending[static_cast<size_t>(block.block_id())]);
          }
        }
        scatter_counters[static_cast<size_t>(block.block_id())] =
            sb.TakeCounters();
        util::StreamFence();
      },
      [&](sim::Block& block) {
        if (bucket_mode) {
          global.Assign(&block);
        } else {
          for (const PendingSegment& seg :
               pending[static_cast<size_t>(block.block_id())]) {
            chains.PublishSegment(seg.partition, seg.first, seg.last);
          }
        }
      },
      bucket_mode ? std::function<void(int)>(
                        [&](int block_id) { global.Place(block_id); })
                  : nullptr));
  PublishScatterCounters(config, scatter_counters);

  PartitionedRelation out;
  out.chains = std::move(chains);
  out.radix_bits = prev.radix_bits + bits;
  out.base_shift = prev.base_shift;
  out.tuples = prev.tuples;
  out.seconds = prev.seconds + result.seconds;
  out.pass_seconds = std::move(prev.pass_seconds);
  out.pass_seconds.push_back(result.seconds);
  return out;
}

namespace {

/// Shared driver: `host_input` + `segments` selects the segmented path,
/// `chunked` the chunk-consuming path; otherwise `device_input` is used
/// (freed after pass 1 when `consume`).
util::Result<PartitionedRelation> RadixPartitionImpl(
    sim::Device* device, const DeviceRelation* device_input,
    DeviceRelation* consume, const data::Relation* host_input, int segments,
    ChunkedDeviceInput* chunked, const RadixPartitionConfig& config) {
  if (config.pass_bits.empty()) {
    return util::Status::Invalid("RadixPartition: no passes configured");
  }
  const uint64_t n = host_input != nullptr ? host_input->size()
                     : chunked != nullptr ? chunked->size()
                                          : device_input->size;
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
  // pass 1 (each segment's producers publish their own partials, bounded
  // by blocks x fanout per segment) + one partial per final child +
  // slack for in-flight recycling.
  const uint64_t seg_count =
      host_input != nullptr ? std::max<uint64_t>(1, segments) : 1;
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

  if (host_input != nullptr) {
    const size_t seg_tuples = CeilDiv(n, std::max(segments, 1));
    for (size_t begin = 0; begin < n; begin += seg_tuples) {
      const size_t end = std::min<size_t>(n, begin + seg_tuples);
      // Upload the segment straight from the host columns — no
      // intermediate host copy.
      GJOIN_ASSIGN_OR_RETURN(
          DeviceRelation seg_dev,
          DeviceRelation::Upload(
              device, data::RelationView::Slice(*host_input, begin, end)));
      GJOIN_ASSIGN_OR_RETURN(
          rel, RadixPartitionFirstPass(device, seg_dev, cfg.base_shift,
                                       cfg.pass_bits[0], cfg, &rel));
      // seg_dev freed at scope exit: only one segment is ever resident.
    }
  } else if (chunked != nullptr) {
    // Same single launch as the contiguous path, walking the chunks in
    // place; each chunk is freed once its last reader block finishes.
    GJOIN_ASSIGN_OR_RETURN(
        rel, FirstPassOverSource(device, ChunkedPassSource{chunked},
                                 static_cast<size_t>(n), cfg.base_shift,
                                 cfg.pass_bits[0], cfg, &rel));
  } else {
    GJOIN_ASSIGN_OR_RETURN(
        rel, RadixPartitionFirstPass(device, *device_input, cfg.base_shift,
                                     cfg.pass_bits[0], cfg, &rel));
    if (consume != nullptr) {
      consume->keys.Reset();
      consume->payloads.Reset();
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

}  // namespace

util::Result<PartitionedRelation> RadixPartition(
    sim::Device* device, const DeviceRelation& input,
    const RadixPartitionConfig& config) {
  return RadixPartitionImpl(device, &input, nullptr, nullptr, 0, nullptr,
                            config);
}

util::Result<PartitionedRelation> RadixPartitionConsuming(
    sim::Device* device, DeviceRelation input,
    const RadixPartitionConfig& config) {
  return RadixPartitionImpl(device, &input, &input, nullptr, 0, nullptr,
                            config);
}

util::Result<PartitionedRelation> RadixPartitionChunkedConsuming(
    sim::Device* device, ChunkedDeviceInput input,
    const RadixPartitionConfig& config) {
  return RadixPartitionImpl(device, nullptr, nullptr, nullptr, 0, &input,
                            config);
}

util::Result<PartitionedRelation> RadixPartitionSegmented(
    sim::Device* device, const data::Relation& input,
    const RadixPartitionConfig& config, int segments) {
  return RadixPartitionImpl(device, nullptr, nullptr, &input, segments,
                            nullptr, config);
}

}  // namespace gjoin::gpujoin
