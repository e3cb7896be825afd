#include "src/outofgpu/transfer_mech.h"

#include <algorithm>

#include "src/hw/pcie.h"

namespace gjoin::outofgpu {

using gjoin::gpujoin::JoinStats;

const char* TransferMechanismName(TransferMechanism mech) {
  switch (mech) {
    case TransferMechanism::kGpuResident:
      return "GPU data load";
    case TransferMechanism::kUvaLoad:
      return "UVA load";
    case TransferMechanism::kUvaPartition:
      return "UVA part.";
    case TransferMechanism::kUvaJoin:
      return "UVA join";
    case TransferMechanism::kUnifiedMemory:
      return "UM";
  }
  return "?";
}

util::Result<JoinStats> MechanismJoin(sim::Device* device,
                                      const data::Relation& build,
                                      const data::Relation& probe,
                                      const MechanismJoinConfig& config) {
  const hw::PcieModel pcie(device->spec().pcie);
  const uint64_t input_bytes = build.bytes() + probe.bytes();
  const uint64_t n_total = build.size() + probe.size();
  const bool fits = input_bytes * 3 <= device->spec().gpu.device_memory_bytes;

  if (!fits && (config.mechanism == TransferMechanism::kGpuResident ||
                config.mechanism == TransferMechanism::kUvaLoad ||
                config.mechanism == TransferMechanism::kUvaPartition)) {
    return util::Status::OutOfMemory(
        "inputs and partitions do not fit device memory under mechanism " +
        std::string(TransferMechanismName(config.mechanism)));
  }

  // Functional execution + in-GPU kernel costs on a relaxed-capacity
  // scratch device (UVA/UM operate on host-resident data; the join work
  // per tuple is unchanged).
  hw::HardwareSpec scratch_spec = device->spec();
  scratch_spec.gpu.device_memory_bytes = SIZE_MAX / 4;
  sim::Device scratch(scratch_spec, device->pool());
  GJOIN_ASSIGN_OR_RETURN(
      gjoin::gpujoin::DeviceRelation r_dev,
      gjoin::gpujoin::DeviceRelation::Upload(&scratch, build));
  GJOIN_ASSIGN_OR_RETURN(
      gjoin::gpujoin::DeviceRelation s_dev,
      gjoin::gpujoin::DeviceRelation::Upload(&scratch, probe));
  GJOIN_ASSIGN_OR_RETURN(
      JoinStats in_gpu,
      gjoin::gpujoin::PartitionedJoin(&scratch, r_dev, s_dev, config.join));

  JoinStats stats = in_gpu;
  const int passes = static_cast<int>(config.join.partition.pass_bits.size());

  switch (config.mechanism) {
    case TransferMechanism::kGpuResident:
      // Baseline: join time only, data pre-loaded.
      break;
    case TransferMechanism::kUvaLoad: {
      // Pass 1 streams its input zero-copy instead of reading device
      // memory: swap the read costs.
      const double uva_read_s = pcie.UvaStreamSeconds(input_bytes);
      stats.transfer_s = uva_read_s;
      stats.seconds += uva_read_s;
      break;
    }
    case TransferMechanism::kUvaPartition: {
      // Loads + partition scatter writes and later-pass reads all cross
      // the bus: writes are bursty partial transactions (one per staged
      // flush burst of ~4 tuples), reads stream.
      const double uva_read_s =
          pcie.UvaStreamSeconds(input_bytes * passes);
      const double uva_write_s =
          pcie.UvaRandomSeconds(n_total * passes / 4 + 1);
      stats.transfer_s = uva_read_s + uva_write_s;
      stats.seconds += uva_read_s + uva_write_s;
      break;
    }
    case TransferMechanism::kUvaJoin: {
      // The full algorithm over UVA: partitioning as above, plus the
      // probe phase's build-area loads and lookups become zero-copy
      // random accesses (~2 per probe tuple + 1 per build tuple).
      const double uva_read_s =
          pcie.UvaStreamSeconds(input_bytes * passes);
      const double uva_write_s =
          pcie.UvaRandomSeconds(n_total * passes / 4 + 1);
      const double uva_probe_s =
          pcie.UvaRandomSeconds(2 * probe.size() + build.size());
      stats.transfer_s = uva_read_s + uva_write_s + uva_probe_s;
      stats.seconds += stats.transfer_s;
      break;
    }
    case TransferMechanism::kUnifiedMemory: {
      // Page-granular migration. While the footprint (inputs + chains,
      // ~2x inputs) fits device memory each page migrates ~once and the
      // per-page fault cost dominates; beyond that the partitioning
      // scatter revisits evicted pages and migration traffic multiplies
      // with the oversubscription ratio. Fault servicing and the 64KB
      // page granularity are hardware constants — they do not shrink
      // with the data, which is precisely why UM is unfit for this
      // workload (Section IV).
      const uint64_t footprint = input_bytes * 2;
      const double ratio =
          static_cast<double>(footprint) /
          static_cast<double>(device->spec().gpu.device_memory_bytes);
      const double retouch = ratio > 1.0 ? 0.8 + 0.4 * ratio : 1.0;
      const double um_s =
          pcie.UmMigrationSeconds(input_bytes * passes, retouch);
      stats.transfer_s = um_s;
      stats.seconds += um_s;
      break;
    }
  }
  return stats;
}

}  // namespace gjoin::outofgpu
