#include "src/systems/cogadb.h"

#include <algorithm>

#include "src/gpujoin/nonpartitioned.h"

namespace gjoin::systems {

using gjoin::gpujoin::JoinStats;

util::Result<JoinStats> CoGaDbJoin(sim::Device* device,
                                   const data::Relation& build,
                                   const data::Relation& probe,
                                   const CoGaDbConfig& config) {
  if (build.size() > config.max_load_tuples ||
      probe.size() > config.max_load_tuples) {
    return util::Status::ExecutionError(
        "CoGaDB: failed to resize an internal data structure while loading");
  }
  const uint64_t input_bytes = build.bytes() + probe.bytes();
  const double needed =
      static_cast<double>(input_bytes) * config.memory_headroom;
  if (needed > static_cast<double>(device->spec().gpu.device_memory_bytes)) {
    return util::Status::OutOfMemory(
        "CoGaDB: join inputs and intermediates exceed GPU memory");
  }

  hw::HardwareSpec scratch_spec = device->spec();
  scratch_spec.gpu.device_memory_bytes = SIZE_MAX / 4;
  sim::Device scratch(scratch_spec, device->pool());
  GJOIN_ASSIGN_OR_RETURN(
      gjoin::gpujoin::DeviceRelation r_dev,
      gjoin::gpujoin::DeviceRelation::Upload(&scratch, build));
  GJOIN_ASSIGN_OR_RETURN(
      gjoin::gpujoin::DeviceRelation s_dev,
      gjoin::gpujoin::DeviceRelation::Upload(&scratch, probe));
  gjoin::gpujoin::NonPartitionedJoinConfig np;
  // Operator-at-a-time: the join materializes its tid-list output.
  np.output = gjoin::gpujoin::OutputMode::kMaterialize;
  GJOIN_ASSIGN_OR_RETURN(
      JoinStats kernel,
      gjoin::gpujoin::NonPartitionedJoin(&scratch, r_dev, s_dev, np));

  JoinStats stats = kernel;
  // Each operator materializes: model one extra device-memory round trip
  // of the result (gather) plus the engine overhead factor.
  const hw::CostModel cost(device->spec().gpu);
  const double gather_s = cost.StreamSeconds(2 * kernel.matches * 8);
  stats.seconds =
      kernel.seconds * config.operator_overhead_factor + gather_s;
  return stats;
}

}  // namespace gjoin::systems
