// Multi-pass GPU radix partitioning with bucket chains (Section III-A).
//
// RadixPartition partitions every input placement. Its PartitionInput
// says where the input lives and who frees it: a device-resident
// relation, borrowed or consumed; host-staged chunks
// (ChunkedDeviceInput); or a host relation uploaded segment by
// segment. RadixPartitionFirstPass and RadixPartitionNextPass expose
// single passes for callers that time each pass themselves.
//
// Pass 1 scans the input; each thread block stages
// tuples per partition in shared memory (the "shuffle space"), flushes
// staged runs into its current bucket with coalesced bursts, draws fresh
// buckets from the pool with a device atomic when one fills up, and
// finally publishes its chain segments wait-free onto the global
// per-partition lists.
//
// Later passes redistribute the previous pass's buckets to blocks either
// one bucket at a time (the paper's choice: skew-robust, but pays
// metadata re-initialization when consecutive buckets belong to
// different parent partitions) or one partition chain at a time (better
// for uniform data, collapses under skew because "the longest running
// CUDA block defines the total execution time"). Both assignments are
// implemented; WorkAssignment selects them, and bench/abl_assignment
// measures the trade-off.
//
// On the host, a bucket-at-a-time pass runs as the paper's kernels
// partition: its blocks only count tuples per child and charge from the
// counts, the launch epilogue charges the bucket draws those counts
// imply, and the charge-free placement then writes each parent's
// children in one parallel, parent-major sweep (see
// RadixPartitionNextPass).

#ifndef GJOIN_GPUJOIN_RADIX_PARTITION_H_
#define GJOIN_GPUJOIN_RADIX_PARTITION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "src/gpujoin/bucket_chains.h"
#include "src/gpujoin/types.h"
#include "src/sim/device.h"
#include "src/util/status.h"

namespace gjoin::obs {
class MetricsRegistry;
}  // namespace gjoin::obs

namespace gjoin::gpujoin {

/// \brief How later passes hand the previous pass's output to blocks.
enum class WorkAssignment {
  kBucketAtATime,     ///< Paper's default: round-robin over buckets.
  kPartitionAtATime,  ///< Round-robin over whole partition chains.
};

/// \brief Configuration of the multi-pass partitioner.
struct RadixPartitionConfig {
  /// Radix bits consumed by each pass, lowest bits first. The paper's
  /// in-GPU experiments use {8, 7}: two passes to 2^15 partitions.
  std::vector<int> pass_bits = {8, 7};

  /// Key bit where the first pass starts. Non-zero when the relations
  /// were already partitioned on lower bits by the host (the
  /// co-processing strategy's CPU pre-partitioning, Section IV-B).
  int base_shift = 0;

  /// Tuples per bucket; 0 = auto-size (power of two, scaled to the
  /// expected final partition size, within [kMinBucketCapacity, 1024]).
  uint32_t bucket_capacity = 0;

  /// Threads per partitioning block (paper: 1024).
  int threads_per_block = 1024;

  /// Grid size; 0 = one block per SM slot (num_sms * blocks_per_sm).
  int num_blocks = 0;

  /// Work distribution for passes after the first.
  WorkAssignment assignment = WorkAssignment::kBucketAtATime;

  /// Shared-memory staging slots per partition ("shuffle space").
  uint32_t stage_elems = 16;

  /// Host-side software-managed scatter-buffer size in tuples per
  /// destination (Section IV-B's buffered scatter, applied to the
  /// simulator's own host execution of pass 1 and of partition-at-a-time
  /// later passes; bucket-at-a-time passes count, then place by
  /// parent, and never stage through it). 0 = the process default
  /// (util::DefaultScatterBufferTuples), 1 = the scalar tuple-at-a-time
  /// reference loop. Purely a host-speed knob: results and charged
  /// KernelStats are bit-identical at every size
  /// (gpujoin_stat_invariance_test pins this).
  int scatter_buffer_tuples = 0;

  /// Optional sink for host-scatter throughput counters
  /// (gjoin_partition_scatter_bytes_total / _flushes_total). Observes
  /// only — attaching a registry never changes results or charges.
  obs::MetricsRegistry* metrics = nullptr;

  /// Total radix bits across all passes.
  int total_bits() const {
    int total = 0;
    for (int b : pass_bits) total += b;
    return total;
  }
  /// Final partition count.
  uint32_t num_partitions() const { return 1u << total_bits(); }
};

/// \brief A fully partitioned relation: final-pass chains + provenance.
struct PartitionedRelation {
  BucketChains chains;
  int radix_bits = 0;       ///< log2(number of partitions).
  int base_shift = 0;       ///< First key bit the partitioning consumed.
  uint64_t tuples = 0;      ///< Total elements across partitions.
  double seconds = 0;       ///< Modeled time summed over all passes.
  std::vector<double> pass_seconds;  ///< Modeled time per pass.
  /// High-water mark of the host scratch, in tuples, that the placement
  /// workers of this relation's bucket-at-a-time later passes held at
  /// once: at most pool width x kPlacementSliceTuples (one bucket, when
  /// a bucket is larger), whatever the input size. Observes only.
  uint64_t peak_placement_scratch_tuples = 0;
};

/// Tuples one placement slice of a bucket-at-a-time later pass gathers
/// (whole input buckets; a single larger bucket forms its own slice).
/// Each placement worker counting-sorts a slice in scratch of this size.
inline constexpr uint32_t kPlacementSliceTuples = 8192;

/// \brief First-pass input assembled from host-staged chunks (e.g. the
/// co-partitions of an out-of-GPU working set). A chunk either owns its
/// columns, moved in and released the moment the last thread block
/// reading it has finished, or borrows the caller's columns, which it
/// never frees.
///
/// This is the streamed working-set buffer of the co-processing
/// strategy: instead of concatenating host partitions and uploading one
/// contiguous copy, the pass walks the chunks in place through a cursor
/// and peak residency is the partitioned output plus the not-yet-
/// consumed tail — never input plus output. The kernel, its launch
/// geometry and every charge are those of the contiguous path, so the
/// partitioned form and the modeled seconds are bit-identical to
/// RadixPartition over the concatenation (pinned by
/// gpujoin_stat_invariance_test). As with DeviceRelation::Upload,
/// transfer timing is the caller's concern.
class ChunkedDeviceInput {
 public:
  ChunkedDeviceInput() = default;
  ChunkedDeviceInput(ChunkedDeviceInput&&) = default;
  ChunkedDeviceInput& operator=(ChunkedDeviceInput&&) = default;

  /// Appends one chunk, taking ownership of its columns (which must
  /// have equal length; empty chunks are dropped).
  void Add(std::vector<uint32_t> keys, std::vector<uint32_t> payloads);

  /// Appends one chunk that reads the caller's columns in place (equal
  /// length; empty chunks are dropped). They must outlive the pass that
  /// consumes this input, which never frees them.
  void AddBorrowed(const std::vector<uint32_t>& keys,
                   const std::vector<uint32_t>& payloads);

  /// Total tuples across all chunks.
  size_t size() const { return total_; }

  /// Largest key across all chunks (0 when empty); call before the
  /// input is consumed.
  uint32_t MaxKey() const;

  /// \name Consumption interface used by the first partitioning pass.
  /// BeginConsume fixes the per-block range size; each block walks its
  /// tuple range through a Cursor; BlockDone releases every chunk whose
  /// last reader finished.
  /// @{
  struct Cursor {
    uint32_t key() const { return *k_; }
    uint32_t pay() const { return *p_; }
    /// Advances one tuple. Must not be called past the last tuple of
    /// the owning block's range: the next chunk may belong entirely to
    /// other blocks and already be freed.
    void Next() {
      ++k_;
      ++p_;
      if (k_ == k_end_) Advance();
    }

   private:
    friend class ChunkedDeviceInput;
    void Advance();
    const ChunkedDeviceInput* in_ = nullptr;
    size_t chunk_ = 0;
    const uint32_t* k_ = nullptr;
    const uint32_t* p_ = nullptr;
    const uint32_t* k_end_ = nullptr;
  };
  /// Positions a cursor at global tuple index `i` (< size()).
  Cursor At(size_t i) const;
  void BeginConsume(size_t block_tuples);
  void BlockDone(size_t begin, size_t end);
  /// @}

 private:
  struct Chunk {
    std::vector<uint32_t> keys;      ///< Owned columns (empty if borrowed).
    std::vector<uint32_t> payloads;
    const uint32_t* k = nullptr;     ///< The columns read: owned or not.
    const uint32_t* p = nullptr;
    size_t begin = 0;  ///< Global index of the chunk's first tuple.
  };
  size_t ChunkEnd(size_t c) const {
    return c + 1 < chunks_.size() ? chunks_[c + 1].begin : total_;
  }
  std::vector<Chunk> chunks_;
  /// Remaining reader blocks per chunk (set by BeginConsume).
  std::unique_ptr<std::atomic<int>[]> readers_;
  size_t block_tuples_ = 0;
  size_t total_ = 0;
};

/// \brief The input of one RadixPartition run: which tuples it reads,
/// where they live, and who frees them. A move-only value of one of four
/// kinds:
///
///   - a borrowed DeviceRelation (the implicit conversion), read in
///     place and never freed; it must outlive the RadixPartition call;
///   - an owned DeviceRelation (Consume), whose columns are freed as
///     soon as the first pass has read them;
///   - a ChunkedDeviceInput (Chunked), walked in place by the first pass
///     and released chunk by chunk (the co-processing working set);
///   - a host data::Relation (FromHost), uploaded and consumed in
///     `segments` pieces, so only one raw segment is resident next to
///     the partitioned form. Transfer timing stays the caller's concern,
///     as with DeviceRelation::Upload.
///
/// Every kind runs the same kernels with the same launch geometry, so
/// the partitioned form and the modeled seconds depend on the tuples
/// alone (pinned by gpujoin_stat_invariance_test).
class PartitionInput {
 public:
  /// Borrows `relation` (implicit, as a span borrows its range).
  PartitionInput(const DeviceRelation& relation) : source_(&relation) {}

  /// Takes ownership of `relation`.
  static PartitionInput Consume(DeviceRelation relation) {
    return PartitionInput(Source(std::move(relation)));
  }

  /// Takes ownership of the staged chunks.
  static PartitionInput Chunked(ChunkedDeviceInput chunks) {
    return PartitionInput(Source(std::move(chunks)));
  }

  /// Borrows host-resident `relation`, to be uploaded in `segments`
  /// pieces. 0 picks the fewest (at most 16) whose one raw segment fits
  /// the device memory left once the partitioned form (~2x the data) is
  /// reserved, as measured when RadixPartition starts.
  static PartitionInput FromHost(const data::Relation& relation,
                                 int segments = 0) {
    return PartitionInput(Source(Host{&relation, segments}));
  }

  /// Tuples the input holds.
  size_t size() const;

  /// Largest key (0 when empty); call before the input is consumed.
  uint32_t MaxKey() const;

 private:
  struct Host {
    const data::Relation* relation;
    int segments;
  };
  using Source = std::variant<const DeviceRelation*, DeviceRelation,
                              ChunkedDeviceInput, Host>;
  explicit PartitionInput(Source source) : source_(std::move(source)) {}
  /// The borrowed or owned device relation; nullptr for other kinds.
  const DeviceRelation* device_relation() const;

  // A friend declaration cannot carry attributes; the declaration at
  // namespace scope below is the [[nodiscard]] one.
  // lint:allow nodiscard
  friend util::Result<PartitionedRelation> RadixPartition(
      sim::Device* device, PartitionInput input,
      const RadixPartitionConfig& config);

  Source source_;
};

/// Runs all configured passes over `input` and returns the final
/// partitioned form. Partitioning is on `total_bits()` of the key above
/// base_shift, pass i consuming its bits above the bits of passes < i.
/// All passes share one bucket pool; later passes recycle consumed
/// buckets, so the footprint stays near the data size.
///
/// Returns kInvalid, naming the offending entry, unless every pass takes
/// 1 to 12 bits, the passes total at most 31 bits and base_shift plus
/// that total stays within the 32-bit key.
[[nodiscard]]
util::Result<PartitionedRelation> RadixPartition(
    sim::Device* device, PartitionInput input,
    const RadixPartitionConfig& config);

/// Single pass over a contiguous input (pass 1). `shift`/`bits` select
/// the radix field. When `append_to` is non-null, tuples are published
/// into its existing chains (same layout, shared pool) instead of fresh
/// ones, and the updated relation is returned.
[[nodiscard]]
util::Result<PartitionedRelation> RadixPartitionFirstPass(
    sim::Device* device, const DeviceRelation& input, int shift, int bits,
    const RadixPartitionConfig& config,
    PartitionedRelation* append_to = nullptr);

/// Single sub-partitioning pass over previous-pass chains: each parent
/// partition p fans out to children [p * 2^bits, (p+1) * 2^bits).
/// Takes `prev` by value: the pass consumes the input chains, recycling
/// their buckets into the shared pool as it drains them (callers that
/// kept a handle would otherwise observe half-drained chains). The pool
/// needs room for prev's buckets plus one bucket per child.
[[nodiscard]]
util::Result<PartitionedRelation> RadixPartitionNextPass(
    sim::Device* device, PartitionedRelation prev, int shift, int bits,
    const RadixPartitionConfig& config);

/// Auto-sizes bucket capacity for `tuples` spread over `partitions`
/// (exposed for tests).
uint32_t AutoBucketCapacity(uint64_t tuples, uint32_t partitions);

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_RADIX_PARTITION_H_
