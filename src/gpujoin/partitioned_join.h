// The in-GPU partitioned hash join: the paper's core contribution for
// GPU-resident data (Section III). Orchestrates radix partitioning of
// both relations followed by the co-partition join pass.

#ifndef GJOIN_GPUJOIN_PARTITIONED_JOIN_H_
#define GJOIN_GPUJOIN_PARTITIONED_JOIN_H_

#include <cstdint>
#include <span>

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

/// KeyBits over the largest key of a build key column.
int KeyBits(std::span<const uint32_t> build_keys);

/// The join phase every partitioned entry point ends in: allocates the
/// materialized-output ring (config.out_capacity pairs, or `probe_size`
/// when 0), joins the co-partitions, and rolls both inputs' partitioning
/// seconds into the stats. config.join.key_bits must already be derived.
[[nodiscard]]
util::Result<JoinStats> JoinPartedPair(sim::Device* device,
                                       const PartitionedRelation& build,
                                       const PartitionedRelation& probe,
                                       const PartitionedJoinConfig& config,
                                       size_t probe_size);

/// Runs the partitioned join over two device-resident relations and
/// returns verified counts plus modeled per-phase timing. The config's
/// join.key_bits is auto-derived from the key domain when 0.
[[nodiscard]]
util::Result<JoinStats> PartitionedJoin(sim::Device* device,
                                        const DeviceRelation& build,
                                        const DeviceRelation& probe,
                                        const PartitionedJoinConfig& config);

/// Like PartitionedJoin over the concatenation of each input's chunks
/// (see ChunkedDeviceInput), taking ownership of them: the first
/// partitioning pass walks and releases the staged chunks in place, so
/// peak residency never holds raw input plus partitioned form. Stats are
/// bit-identical to PartitionedJoin over contiguous copies of the same
/// tuples.
[[nodiscard]]
util::Result<JoinStats> PartitionedJoinChunkedConsuming(
    sim::Device* device, ChunkedDeviceInput build, ChunkedDeviceInput probe,
    const PartitionedJoinConfig& config);

/// Highest-level in-GPU entry point: uploads from host relations,
/// partitioning the probe side in segments (0 = auto-size so everything
/// fits device memory) so large build:probe ratios remain feasible.
/// Upload *timing* is not charged (in-GPU experiments assume resident
/// data; out-of-GPU strategies time transfers explicitly).
[[nodiscard]]
util::Result<JoinStats> PartitionedJoinFromHost(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const PartitionedJoinConfig& config,
    int probe_segments = 0);

/// \brief A build side uploaded and partitioned once, reusable across
/// several probes — the multi-query sharing primitive (concurrent
/// queries against a common relation share its device-resident
/// partitioned form instead of re-uploading and re-partitioning).
struct PreparedBuild {
  PartitionedRelation parted;
  int key_bits = 0;  ///< Derived from the build keys when config left 0.
};

/// Uploads and partitions `build` as PartitionedJoinFromHost would.
[[nodiscard]]
util::Result<PreparedBuild> PreparePartitionedBuild(
    sim::Device* device, const data::Relation& build,
    const PartitionedJoinConfig& config);

/// Joins `probe` against a prepared build. Returns stats identical to
/// PartitionedJoinFromHost(device, build, probe, config) — partitioning
/// is deterministic, so the prepared form's seconds stand in for a
/// fresh run's.
[[nodiscard]]
util::Result<JoinStats> PartitionedJoinFromHostWithBuild(
    sim::Device* device, const PreparedBuild& build,
    const data::Relation& probe, const PartitionedJoinConfig& config,
    int probe_segments = 0);

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_PARTITIONED_JOIN_H_
