#include "src/outofgpu/streaming_probe.h"

#include <algorithm>

#include "src/hw/pcie.h"
#include "src/sim/timeline.h"
#include "src/util/bits.h"

namespace gjoin::outofgpu {

using gpujoin::JoinStats;
using gpujoin::OutputMode;
using gpujoin::PartitionedJoinConfig;
using gpujoin::PartitionedRelation;

util::Result<StreamingProbeRun> StreamingProbeExecute(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const StreamingProbeConfig& config,
    const gpujoin::PreparedBuild& prepared) {
  StreamingProbeRun run;
  if (build.empty()) {
    return run;
  }
  const hw::PcieModel pcie(device->spec().pcie);

  PartitionedJoinConfig cfg = config.join;
  cfg.join.output = config.materialize_to_host ? OutputMode::kMaterialize
                                               : OutputMode::kAggregate;

  // ---- Build side: one transfer + resident partitioning ----
  // The prepared build is never re-executed here, but its upload and
  // partitioning enter the solo DAG (and their modeled seconds this
  // query's stats) so the run is indistinguishable from a standalone
  // one; the session scheduler substitutes these ops with the producing
  // query's when merging timelines.
  const PartitionedRelation& r_parted = prepared.parted;
  const double r_h2d_s = pcie.DmaSeconds(build.bytes());

  const size_t chunk_tuples = config.chunk_tuples != 0
                                  ? config.chunk_tuples
                                  : std::max<size_t>(build.size() / 2, 1);
  const size_t num_chunks =
      probe.empty() ? 0 : util::CeilDiv(probe.size(), chunk_tuples);

  JoinStats& stats = run.stats;
  sim::Timeline& timeline = run.timeline;
  run.build_h2d = timeline.Add(sim::Engine::kCopyH2D, r_h2d_s, {}, "h2d:R");
  run.build_part = timeline.Add(sim::Engine::kComputeGpu, r_parted.seconds,
                                {run.build_h2d}, "part:R");

  // Double-buffered chunk pipeline: transfer i waits for the join that
  // last used buffer (i % 2); joins serialize on the compute engine.
  std::vector<sim::OpId> joins;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = c * chunk_tuples;
    const size_t end = std::min(probe.size(), begin + chunk_tuples);
    const data::RelationView chunk =
        data::RelationView::Slice(probe, begin, end);

    // Functional execution of the chunk: upload (straight from the host
    // columns — no intermediate copy), partition, join. The chunk stays
    // borrowed, so its columns are resident until the join is done.
    GJOIN_ASSIGN_OR_RETURN(gpujoin::DeviceRelation s_dev,
                           gpujoin::DeviceRelation::Upload(device, chunk));
    GJOIN_ASSIGN_OR_RETURN(
        PartitionedRelation s_parted,
        gjoin::gpujoin::RadixPartition(device, s_dev, cfg.partition));

    PartitionedJoinConfig chunk_cfg = cfg;
    chunk_cfg.out_capacity = chunk.size + 1;
    GJOIN_ASSIGN_OR_RETURN(
        JoinStats chunk_join,
        gjoin::gpujoin::JoinPartedPair(device, prepared, s_parted, chunk_cfg,
                                       chunk.size));
    stats.matches += chunk_join.matches;
    stats.payload_sum += chunk_join.payload_sum;

    // Pipeline ops for this chunk.
    std::vector<sim::OpId> copy_deps;
    if (joins.size() >= 2) copy_deps.push_back(joins[joins.size() - 2]);
    const sim::OpId h2d = timeline.Add(
        sim::Engine::kCopyH2D, pcie.DmaSeconds(chunk.bytes()), copy_deps,
        "h2d:chunk");
    const double gpu_s = s_parted.seconds + chunk_join.join_s;
    std::vector<sim::OpId> join_deps = {h2d, run.build_part};
    const sim::OpId join_op =
        timeline.Add(sim::Engine::kComputeGpu, gpu_s, join_deps, "join:chunk");
    joins.push_back(join_op);
    if (config.materialize_to_host) {
      timeline.Add(sim::Engine::kCopyD2H,
                   pcie.DmaSeconds(chunk_join.matches * 8), {join_op},
                   "d2h:results");
    }
    stats.partition_s += s_parted.seconds;
    stats.join_s += chunk_join.join_s;
  }

  GJOIN_ASSIGN_OR_RETURN(sim::Schedule schedule, timeline.Run());
  stats.seconds = schedule.makespan_s;
  stats.transfer_s = schedule.busy_s[static_cast<int>(sim::Engine::kCopyH2D)] +
                     schedule.busy_s[static_cast<int>(sim::Engine::kCopyD2H)];
  stats.partition_s += r_parted.seconds;
  return run;
}

util::Result<JoinStats> StreamingProbeJoin(sim::Device* device,
                                           const data::Relation& build,
                                           const data::Relation& probe,
                                           const StreamingProbeConfig& config) {
  GJOIN_ASSIGN_OR_RETURN(
      gpujoin::PreparedBuild prepared,
      gpujoin::PreparePartitionedBuild(device, build, config.join));
  GJOIN_ASSIGN_OR_RETURN(
      StreamingProbeRun run,
      StreamingProbeExecute(device, build, probe, config, prepared));
  return run.stats;
}

}  // namespace gjoin::outofgpu
