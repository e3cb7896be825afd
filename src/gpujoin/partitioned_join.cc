#include "src/gpujoin/partitioned_join.h"

#include <algorithm>

#include "src/util/bits.h"

namespace gjoin::gpujoin {

namespace {

/// Partitions `build`, deriving its key bits before the input is
/// consumed.
util::Result<PreparedBuild> Prepare(sim::Device* device, PartitionInput build,
                                    const PartitionedJoinConfig& config) {
  PreparedBuild prepared;
  prepared.key_bits = config.join.key_bits != 0 ? config.join.key_bits
                                                : KeyBits(build.MaxKey());
  GJOIN_ASSIGN_OR_RETURN(
      prepared.parted,
      RadixPartition(device, std::move(build), config.partition));
  return prepared;
}

}  // namespace

int KeyBits(uint32_t max_key) {
  return util::Log2Floor(std::max<uint32_t>(max_key, 1)) + 1;
}

util::Result<PreparedBuild> PreparePartitionedBuild(
    sim::Device* device, const data::Relation& build,
    const PartitionedJoinConfig& config) {
  GJOIN_ASSIGN_OR_RETURN(DeviceRelation r_dev,
                         DeviceRelation::Upload(device, build));
  return Prepare(device, PartitionInput::Consume(std::move(r_dev)), config);
}

util::Result<JoinStats> JoinPartedPair(sim::Device* device,
                                       const PreparedBuild& build,
                                       const PartitionedRelation& probe,
                                       const PartitionedJoinConfig& config,
                                       size_t probe_size) {
  CoPartitionJoinConfig join_cfg = config.join;
  if (join_cfg.key_bits == 0) join_cfg.key_bits = build.key_bits;
  OutputRing ring;
  OutputRing* ring_ptr = nullptr;
  if (join_cfg.output == OutputMode::kMaterialize) {
    const size_t capacity =
        config.out_capacity != 0 ? config.out_capacity
                                 : std::max<size_t>(probe_size, 1);
    GJOIN_ASSIGN_OR_RETURN(ring,
                           OutputRing::Allocate(&device->memory(), capacity));
    ring_ptr = &ring;
  }

  GJOIN_ASSIGN_OR_RETURN(
      CoPartitionJoinResult join_result,
      JoinCoPartitions(device, build.parted, probe, join_cfg, ring_ptr));

  JoinStats stats;
  stats.matches = join_result.matches;
  stats.payload_sum = join_result.payload_sum;
  stats.partition_s = build.parted.seconds + probe.seconds;
  stats.join_s = join_result.seconds;
  stats.seconds = stats.partition_s + stats.join_s;
  return stats;
}

util::Result<JoinStats> PartitionedJoin(sim::Device* device,
                                        PartitionInput build,
                                        PartitionInput probe,
                                        const PartitionedJoinConfig& config) {
  GJOIN_ASSIGN_OR_RETURN(PreparedBuild prepared,
                         Prepare(device, std::move(build), config));
  return PartitionedJoin(device, prepared, std::move(probe), config);
}

util::Result<JoinStats> PartitionedJoin(sim::Device* device,
                                        const PreparedBuild& build,
                                        PartitionInput probe,
                                        const PartitionedJoinConfig& config) {
  const size_t probe_size = probe.size();
  GJOIN_ASSIGN_OR_RETURN(
      PartitionedRelation s_parted,
      RadixPartition(device, std::move(probe), config.partition));
  return JoinPartedPair(device, build, s_parted, config, probe_size);
}

util::Result<JoinStats> PartitionedJoinFromHost(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const PartitionedJoinConfig& config,
    int probe_segments) {
  GJOIN_ASSIGN_OR_RETURN(PreparedBuild prepared,
                         PreparePartitionedBuild(device, build, config));
  return PartitionedJoin(device, prepared,
                         PartitionInput::FromHost(probe, probe_segments),
                         config);
}

}  // namespace gjoin::gpujoin
