#include "src/outofgpu/coprocess.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/hw/numa.h"
#include "src/hw/pcie.h"
#include "src/sim/timeline.h"
#include "src/util/bits.h"

namespace gjoin::outofgpu {

using gjoin::gpujoin::JoinStats;
using gjoin::gpujoin::OutputMode;

namespace {

// A borrowed partition is read in place by the staged input, a consumed
// one moved in (and freed as the first pass consumes it).
void StagePartition(const data::Relation& part,
                    gjoin::gpujoin::ChunkedDeviceInput* in) {
  in->AddBorrowed(part.keys, part.payloads);
}
void StagePartition(data::Relation& part,
                    gjoin::gpujoin::ChunkedDeviceInput* in) {
  in->Add(std::move(part.keys), std::move(part.payloads));
}

/// The one planning body. `Parts` is `const cpu::HostPartitions` for the
/// borrowed form and `cpu::HostPartitions` for the consuming form.
template <typename Parts>
util::Result<CoProcessPlan> PlanFromPartitions(sim::Device* device,
                                               Parts& build_parts,
                                               Parts& probe_parts,
                                               const CoProcessConfig& config) {
  const hw::HardwareSpec& spec = device->spec();
  // Every partition index below is read on both sides.
  const int bits = config.cpu.radix_bits;
  const auto has_fanout = [bits](const cpu::HostPartitions& parts) {
    return parts.radix_bits == bits && bits >= 0 && bits < 32 &&
           parts.parts.size() == size_t{1} << bits;
  };
  if (!has_fanout(build_parts) || !has_fanout(probe_parts)) {
    return util::Status::Invalid(
        "PlanCoProcessJoin: partitions disagree with config.cpu.radix_bits");
  }
  const size_t fanout = build_parts.parts.size();

  // ---- 1. Working sets from the build side's partition sizes ----
  // (Host partitioning happened at the caller.)
  WorkingSetConfig packing = config.packing;
  if (packing.budget_bytes == 0) {
    packing.budget_bytes = static_cast<uint64_t>(
        static_cast<double>(spec.gpu.device_memory_bytes) * 0.45);
  }
  std::vector<uint64_t> part_bytes(fanout);
  for (size_t p = 0; p < fanout; ++p) {
    part_bytes[p] = build_parts.parts[p].bytes();
  }
  GJOIN_ASSIGN_OR_RETURN(std::vector<WorkingSet> sets,
                         PackWorkingSets(part_bytes, packing));

  // ---- 2. Per-working-set functional join ----
  // Functional execution batches each working set on a scratch device
  // with relaxed capacity (see header); planning used the real budget.
  hw::HardwareSpec scratch_spec = spec;
  scratch_spec.gpu.device_memory_bytes = SIZE_MAX / 4;
  sim::Device scratch(scratch_spec, device->pool());

  gjoin::gpujoin::PartitionedJoinConfig join_cfg = config.join;
  join_cfg.partition.base_shift = config.cpu.radix_bits;
  join_cfg.join.output = config.materialize_to_host
                             ? OutputMode::kMaterialize
                             : OutputMode::kAggregate;
  if (join_cfg.join.key_bits == 0) {
    // Every working set joins on the whole relation's key bits.
    // Partitioning permutes the keys, so the largest over the partitions
    // is the largest over the relation.
    uint32_t max_key = 0;
    for (const data::Relation& part : build_parts.parts) {
      for (uint32_t k : part.keys) max_key = std::max(max_key, k);
    }
    join_cfg.join.key_bits = gjoin::gpujoin::KeyBits(max_key);
  }

  CoProcessPlan plan;
  plan.total_input_bytes = (build_parts.tuples + probe_parts.tuples) *
                           data::Relation::kTupleBytes;
  for (size_t set_index = 0; set_index < sets.size(); ++set_index) {
    const WorkingSet& ws = sets[set_index];
    uint64_t r_bytes = 0, s_bytes = 0;
    for (uint32_t p : ws.partitions) {
      r_bytes += build_parts.parts[p].bytes();
      s_bytes += probe_parts.parts[p].bytes();
    }

    // Stage the set's partitions in partition-list order; the join's
    // first pass walks them chunk by chunk and frees the consumed ones.
    // Consumed partitions stay behind as empty shells, releasing this
    // set's share of the host footprint even when the set is skipped as
    // empty.
    gjoin::gpujoin::ChunkedDeviceInput r_in, s_in;
    for (uint32_t p : ws.partitions) {
      StagePartition(build_parts.parts[p], &r_in);
      StagePartition(probe_parts.parts[p], &s_in);
    }
    if (r_bytes == 0 || s_bytes == 0) continue;

    GJOIN_ASSIGN_OR_RETURN(
        JoinStats ws_join,
        gjoin::gpujoin::PartitionedJoin(
            &scratch,
            gjoin::gpujoin::PartitionInput::Chunked(std::move(r_in)),
            gjoin::gpujoin::PartitionInput::Chunked(std::move(s_in)),
            join_cfg));

    // Oversized singleton sets: the R side exceeds the budget, so S is
    // re-streamed once per budget-sized R slice (GPU sub-partitioning,
    // Section IV-B) — the skew penalty of Fig. 18.
    const uint64_t restreams =
        std::max<uint64_t>(1, util::CeilDiv(ws.bytes, packing.budget_bytes));

    CoProcessPlan::WorkingSetRun run;
    run.matches = ws_join.matches;
    run.payload_sum = ws_join.payload_sum;
    run.gpu_seconds = ws_join.seconds;
    run.join_s = ws_join.join_s;
    run.partition_s = ws_join.partition_s;
    run.transfer_bytes = r_bytes + s_bytes * restreams;
    run.set_index = set_index;
    plan.runs.push_back(run);
  }
  return plan;
}

}  // namespace

util::Result<CoProcessPlan> PlanCoProcessJoin(
    sim::Device* device, const cpu::HostPartitions& build_parts,
    const cpu::HostPartitions& probe_parts, const CoProcessConfig& config) {
  return PlanFromPartitions(device, build_parts, probe_parts, config);
}

util::Result<CoProcessPlan> PlanCoProcessJoinConsuming(
    sim::Device* device, cpu::HostPartitions build_parts,
    cpu::HostPartitions probe_parts, const CoProcessConfig& config) {
  return PlanFromPartitions(device, build_parts, probe_parts, config);
}

util::Result<CoProcessRun> CoProcessExecutePlanned(
    sim::Device* device, const CoProcessPlan& plan,
    const CoProcessConfig& config) {
  const hw::HardwareSpec& spec = device->spec();
  const hw::CpuCostModel cpu_model(spec.cpu);
  const hw::NumaModel numa(spec.cpu);
  const hw::PcieModel pcie(spec.pcie);

  // ---- NUMA arbitration for the two pipeline phases ----
  const double nominal_dma = spec.pcie.bw_gbps;
  const double part_output = cpu_model.PartitionOutputGbps(config.cpu.threads);
  // Partitioning traffic landing on the near socket (roughly half the
  // threads are near-socket-local).
  hw::NumaLoad phase_a_load;
  phase_a_load.dma_gbps = nominal_dma;
  // ~80% of a near-socket thread's partitioning traffic lands on its own
  // socket (local reads + pinned-buffer writes for the working set).
  phase_a_load.partition_gbps =
      cpu_model.PartitionTrafficDemandGbps(config.cpu.threads) *
      (1.0 - config.far_socket_fraction) * 0.8;
  const hw::NumaGrant grant_a = numa.Arbitrate(phase_a_load);

  hw::NumaLoad phase_b_load;
  phase_b_load.dma_gbps = nominal_dma;
  phase_b_load.staging_gbps =
      config.staging ? nominal_dma * config.far_socket_fraction : 0.0;
  const hw::NumaGrant grant_b = numa.Arbitrate(phase_b_load);

  // Effective transfer-rate scales. Without staging, the far-socket
  // share of the data crosses the congested QPI directly.
  const double far_scale_direct = numa.FarSocketDmaScale(
      nominal_dma, /*cpu_active=*/true);
  auto h2d_seconds = [&](uint64_t bytes, bool first_set) {
    const double near_scale = first_set ? grant_a.dma_scale
                                        : grant_b.dma_scale;
    if (config.staging) {
      // All DMA reads hit near-socket pinned buffers.
      return pcie.DmaSeconds(bytes, near_scale);
    }
    const double far_bytes =
        static_cast<double>(bytes) * config.far_socket_fraction;
    const double near_bytes = static_cast<double>(bytes) - far_bytes;
    return pcie.DmaSeconds(static_cast<uint64_t>(near_bytes), near_scale) +
           pcie.DmaSeconds(static_cast<uint64_t>(far_bytes),
                           far_scale_direct);
  };

  // CPU-side rates.
  const double cpu_part_gbps = part_output * grant_a.cpu_scale;
  const double staging_gbps = numa.StagingCopyGbps(config.cpu.threads);

  CoProcessRun run;
  JoinStats& stats = run.stats;
  sim::Timeline& timeline = run.timeline;
  std::vector<sim::OpId> gpu_ops;
  sim::OpId last_cpu_op = -1;

  const uint64_t chunk_bytes =
      static_cast<uint64_t>(config.chunk_tuples) * data::Relation::kTupleBytes;

  for (const CoProcessPlan::WorkingSetRun& run : plan.runs) {
    // The whole-input CPU-partitioning phase belongs to packed set 0; if
    // that set was empty (skipped during planning), it is dropped —
    // exactly as the un-split implementation behaved.
    const bool first_set = run.set_index == 0;
    stats.matches += run.matches;
    stats.payload_sum += run.payload_sum;

    const uint64_t ws_out_bytes =
        config.materialize_to_host ? run.matches * 8 : 0;

    // Chunked pipeline ops. During the first working set the CPU stage
    // is the chunk partitioning of the *entire* input; afterwards it is
    // the staging copy of this set's transfer bytes.
    const uint64_t cpu_phase_bytes =
        first_set ? plan.total_input_bytes -
                        std::min(config.prepartitioned_bytes,
                                 plan.total_input_bytes)
                  : (config.staging
                         ? static_cast<uint64_t>(
                               static_cast<double>(run.transfer_bytes) *
                               config.far_socket_fraction)
                         : 0);
    const double cpu_rate = first_set ? cpu_part_gbps : staging_gbps;

    const uint64_t num_chunks = std::max<uint64_t>(
        1, util::CeilDiv(run.transfer_bytes, chunk_bytes));
    const double gpu_chunk_s =
        run.gpu_seconds / static_cast<double>(num_chunks);
    const double h2d_chunk_s =
        h2d_seconds(run.transfer_bytes, first_set) /
        static_cast<double>(num_chunks);
    const double cpu_chunk_s =
        cpu_phase_bytes == 0
            ? 0.0
            : static_cast<double>(cpu_phase_bytes) /
                  (cpu_rate * 1e9) / static_cast<double>(num_chunks);
    const double d2h_chunk_s =
        ws_out_bytes == 0 ? 0.0
                          : pcie.DmaSeconds(ws_out_bytes) /
                                static_cast<double>(num_chunks);

    for (uint64_t c = 0; c < num_chunks; ++c) {
      std::vector<sim::OpId> h2d_deps;
      if (cpu_chunk_s > 0) {
        std::vector<sim::OpId> cpu_deps;
        if (last_cpu_op >= 0) cpu_deps.push_back(last_cpu_op);
        last_cpu_op = timeline.Add(sim::Engine::kCpu, cpu_chunk_s, cpu_deps,
                                   first_set ? "cpu:partition" : "cpu:stage");
        h2d_deps.push_back(last_cpu_op);
      }
      if (gpu_ops.size() >= 2) {
        h2d_deps.push_back(gpu_ops[gpu_ops.size() - 2]);  // buffer free
      }
      const sim::OpId h2d = timeline.Add(sim::Engine::kCopyH2D, h2d_chunk_s,
                                         h2d_deps, "h2d:ws");
      const sim::OpId gpu = timeline.Add(sim::Engine::kComputeGpu,
                                         gpu_chunk_s, {h2d}, "gpu:join");
      gpu_ops.push_back(gpu);
      if (d2h_chunk_s > 0) {
        timeline.Add(sim::Engine::kCopyD2H, d2h_chunk_s, {gpu},
                     "d2h:results");
      }
    }
    stats.join_s += run.join_s;
    stats.partition_s += run.partition_s;
  }

  GJOIN_ASSIGN_OR_RETURN(sim::Schedule schedule, timeline.Run());
  stats.seconds = schedule.makespan_s;
  stats.transfer_s = schedule.busy_s[static_cast<int>(sim::Engine::kCopyH2D)] +
                     schedule.busy_s[static_cast<int>(sim::Engine::kCopyD2H)];
  stats.cpu_s = schedule.busy_s[static_cast<int>(sim::Engine::kCpu)];
  return run;
}

util::Result<JoinStats> CoProcessJoin(sim::Device* device,
                                      const data::Relation& build,
                                      const data::Relation& probe,
                                      const CoProcessConfig& config) {
  const hw::CpuCostModel cpu_model(device->spec().cpu);
  GJOIN_ASSIGN_OR_RETURN(
      cpu::HostPartitions build_parts,
      cpu::CpuRadixPartition(build, config.cpu, cpu_model));
  GJOIN_ASSIGN_OR_RETURN(
      cpu::HostPartitions probe_parts,
      cpu::CpuRadixPartition(probe, config.cpu, cpu_model));
  GJOIN_ASSIGN_OR_RETURN(
      CoProcessPlan plan,
      PlanCoProcessJoinConsuming(device, std::move(build_parts),
                                 std::move(probe_parts), config));
  GJOIN_ASSIGN_OR_RETURN(CoProcessRun run,
                         CoProcessExecutePlanned(device, plan, config));
  return run.stats;
}

}  // namespace gjoin::outofgpu
