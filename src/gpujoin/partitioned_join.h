// The in-GPU partitioned hash join: the paper's core contribution for
// GPU-resident data (Section III). Radix-partitions both relations into
// bucket chains, then joins each pair of co-partitions.
//
// One surface serves every input placement. Each side is a
// PartitionInput (radix_partition.h) that states where its tuples live
// and who frees them: device-resident (Section III), a streamed probe
// chunk (Section IV-A) or a host-partitioned working set (Section IV-B).
// The build side may instead be a PreparedBuild, partitioned once and
// shared by every probe against it.

#ifndef GJOIN_GPUJOIN_PARTITIONED_JOIN_H_
#define GJOIN_GPUJOIN_PARTITIONED_JOIN_H_

#include <cstdint>

#include "src/data/relation.h"
#include "src/gpujoin/join_copartitions.h"
#include "src/gpujoin/radix_partition.h"
#include "src/gpujoin/types.h"
#include "src/sim/device.h"
#include "src/util/status.h"

namespace gjoin::gpujoin {

/// \brief Full configuration of the in-GPU partitioned join.
struct PartitionedJoinConfig {
  RadixPartitionConfig partition;     ///< Default: 2 passes to 2^15.
  CoPartitionJoinConfig join;         ///< Default: shared-memory hash join.

  /// Materialized-output ring capacity in pairs; 0 sizes it to the probe
  /// cardinality (the natural 1:1 result size).
  size_t out_capacity = 0;
};

/// Significant key bits of a join whose largest build key is `max_key`,
/// for configs that leave join.key_bits 0. Keys start at 1, so an empty
/// build counts as max_key = 1.
int KeyBits(uint32_t max_key);

/// \brief A partitioned build side, reusable across several probes — the
/// multi-query sharing primitive (concurrent queries against a common
/// relation share its device-resident partitioned form instead of
/// re-uploading and re-partitioning).
struct PreparedBuild {
  PartitionedRelation parted;
  int key_bits = 0;  ///< Derived from the build keys when config left 0.
};

/// Uploads `build` and partitions it, freeing the raw columns once the
/// first pass has read them.
[[nodiscard]]
util::Result<PreparedBuild> PreparePartitionedBuild(
    sim::Device* device, const data::Relation& build,
    const PartitionedJoinConfig& config);

/// The join phase every partitioned join ends in: allocates the
/// materialized-output ring (config.out_capacity pairs, or `probe_size`
/// when 0), joins the co-partitions on the build's key bits when
/// config.join.key_bits is 0, and rolls both sides' partitioning seconds
/// into the stats. For callers that need the probe's partitioned form
/// itself, e.g. its modeled seconds.
[[nodiscard]]
util::Result<JoinStats> JoinPartedPair(sim::Device* device,
                                       const PreparedBuild& build,
                                       const PartitionedRelation& probe,
                                       const PartitionedJoinConfig& config,
                                       size_t probe_size);

/// Partitions `build`, then `probe`, then joins them; returns verified
/// counts plus modeled per-phase timing. join.key_bits is derived from
/// the build keys when 0. Each input is read, and freed or kept, as its
/// kind says; stats depend on the tuples alone, never on their placement.
[[nodiscard]]
util::Result<JoinStats> PartitionedJoin(sim::Device* device,
                                        PartitionInput build,
                                        PartitionInput probe,
                                        const PartitionedJoinConfig& config);

/// Joins `probe` against a build partitioned earlier. Stats equal those
/// of a fresh PartitionedJoin over the same build tuples: partitioning
/// is deterministic, so the prepared form's seconds stand in for a
/// fresh run's.
[[nodiscard]]
util::Result<JoinStats> PartitionedJoin(sim::Device* device,
                                        const PreparedBuild& build,
                                        PartitionInput probe,
                                        const PartitionedJoinConfig& config);

/// Joins two host relations: the build is uploaded whole and consumed,
/// the probe uploaded in `probe_segments` pieces (PartitionInput::
/// FromHost; 0 = as few as fit) so large build:probe ratios remain
/// feasible. Upload *timing* is not charged (in-GPU experiments assume
/// resident data; out-of-GPU strategies time transfers explicitly).
[[nodiscard]]
util::Result<JoinStats> PartitionedJoinFromHost(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const PartitionedJoinConfig& config,
    int probe_segments = 0);

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_PARTITIONED_JOIN_H_
