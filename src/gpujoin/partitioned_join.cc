#include "src/gpujoin/partitioned_join.h"

#include <algorithm>

#include "src/util/bits.h"

namespace gjoin::gpujoin {

int KeyBits(uint32_t max_key) {
  return util::Log2Floor(std::max<uint32_t>(max_key, 1)) + 1;
}

int KeyBits(std::span<const uint32_t> build_keys) {
  uint32_t max_key = 1;
  for (uint32_t k : build_keys) max_key = std::max(max_key, k);
  return KeyBits(max_key);
}

util::Result<JoinStats> JoinPartedPair(sim::Device* device,
                                       const PartitionedRelation& build,
                                       const PartitionedRelation& probe,
                                       const PartitionedJoinConfig& config,
                                       size_t probe_size) {
  OutputRing ring;
  OutputRing* ring_ptr = nullptr;
  if (config.join.output == OutputMode::kMaterialize) {
    const size_t capacity =
        config.out_capacity != 0 ? config.out_capacity
                                 : std::max<size_t>(probe_size, 1);
    GJOIN_ASSIGN_OR_RETURN(ring,
                           OutputRing::Allocate(&device->memory(), capacity));
    ring_ptr = &ring;
  }

  GJOIN_ASSIGN_OR_RETURN(
      CoPartitionJoinResult join_result,
      JoinCoPartitions(device, build, probe, config.join, ring_ptr));

  JoinStats stats;
  stats.matches = join_result.matches;
  stats.payload_sum = join_result.payload_sum;
  stats.partition_s = build.seconds + probe.seconds;
  stats.join_s = join_result.seconds;
  stats.seconds = stats.partition_s + stats.join_s;
  return stats;
}

util::Result<JoinStats> PartitionedJoin(sim::Device* device,
                                        const DeviceRelation& build,
                                        const DeviceRelation& probe,
                                        const PartitionedJoinConfig& config) {
  PartitionedJoinConfig cfg = config;
  if (cfg.join.key_bits == 0) {
    cfg.join.key_bits = KeyBits({build.keys.data(), build.size});
  }
  GJOIN_ASSIGN_OR_RETURN(PartitionedRelation r_parted,
                         RadixPartition(device, build, cfg.partition));
  GJOIN_ASSIGN_OR_RETURN(PartitionedRelation s_parted,
                         RadixPartition(device, probe, cfg.partition));
  return JoinPartedPair(device, r_parted, s_parted, cfg, probe.size);
}

util::Result<JoinStats> PartitionedJoinChunkedConsuming(
    sim::Device* device, ChunkedDeviceInput build, ChunkedDeviceInput probe,
    const PartitionedJoinConfig& config) {
  PartitionedJoinConfig cfg = config;
  const size_t probe_size = probe.size();
  // Derived before the input is consumed.
  if (cfg.join.key_bits == 0) cfg.join.key_bits = KeyBits(build.MaxKey());

  GJOIN_ASSIGN_OR_RETURN(
      PartitionedRelation r_parted,
      RadixPartitionChunkedConsuming(device, std::move(build),
                                     cfg.partition));
  GJOIN_ASSIGN_OR_RETURN(
      PartitionedRelation s_parted,
      RadixPartitionChunkedConsuming(device, std::move(probe),
                                     cfg.partition));

  return JoinPartedPair(device, r_parted, s_parted, cfg, probe_size);
}

util::Result<PreparedBuild> PreparePartitionedBuild(
    sim::Device* device, const data::Relation& build,
    const PartitionedJoinConfig& config) {
  PreparedBuild prepared;
  prepared.key_bits = config.join.key_bits;
  if (prepared.key_bits == 0) prepared.key_bits = KeyBits(build.keys);
  GJOIN_ASSIGN_OR_RETURN(DeviceRelation r_dev,
                         DeviceRelation::Upload(device, build));
  GJOIN_ASSIGN_OR_RETURN(
      prepared.parted,
      RadixPartitionConsuming(device, std::move(r_dev), config.partition));
  return prepared;
}

util::Result<JoinStats> PartitionedJoinFromHost(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const PartitionedJoinConfig& config,
    int probe_segments) {
  GJOIN_ASSIGN_OR_RETURN(PreparedBuild prepared,
                         PreparePartitionedBuild(device, build, config));
  return PartitionedJoinFromHostWithBuild(device, prepared, probe, config,
                                          probe_segments);
}

util::Result<JoinStats> PartitionedJoinFromHostWithBuild(
    sim::Device* device, const PreparedBuild& build,
    const data::Relation& probe, const PartitionedJoinConfig& config,
    int probe_segments) {
  PartitionedJoinConfig cfg = config;
  if (cfg.join.key_bits == 0) cfg.join.key_bits = build.key_bits;
  const PartitionedRelation& r_parted = build.parted;

  if (probe_segments <= 0) {
    // Size segments so one raw segment plus the partitioned probe side
    // (chains plus pool slack, ~2x the data) fits the remaining device
    // memory.
    const uint64_t budget = device->memory().available();
    const uint64_t need = probe.bytes() * 2;
    const uint64_t seg_budget = budget > need ? budget - need : budget / 8;
    probe_segments = static_cast<int>(std::min<uint64_t>(
        16, util::CeilDiv(probe.bytes(), std::max<uint64_t>(seg_budget, 1))));
    if (probe_segments < 1) probe_segments = 1;
  }
  GJOIN_ASSIGN_OR_RETURN(
      PartitionedRelation s_parted,
      RadixPartitionSegmented(device, probe, cfg.partition, probe_segments));

  return JoinPartedPair(device, r_parted, s_parted, cfg, probe.size());
}

}  // namespace gjoin::gpujoin
