// Out-of-GPU execution strategy 1: streaming the probe side
// (Section IV-A, Figure 11).
//
// The build relation fits in GPU memory: it is transferred once and
// partitioned in place. The probe relation is split into chunks ("half
// the size of the build table" by default, as in the paper's
// experiments); each chunk is DMA-transferred into one of two device
// buffers while the previous chunk is partitioned and joined against the
// resident build partitions — the double-buffered pipeline of Figure 2.
// With materialization, results flow back on the second DMA engine
// (Figure 4). Total time is the Timeline makespan: when transfers are
// the bottleneck, it approaches transfer-time + last-chunk-join, giving
// near-PCIe-bandwidth join throughput.

#ifndef GJOIN_OUTOFGPU_STREAMING_PROBE_H_
#define GJOIN_OUTOFGPU_STREAMING_PROBE_H_

#include "src/data/relation.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/sim/device.h"
#include "src/sim/timeline.h"
#include "src/util/status.h"

namespace gjoin::outofgpu {

/// \brief Configuration of the streaming-probe strategy.
struct StreamingProbeConfig {
  /// GPU-side partitioning/join parameters.
  gpujoin::PartitionedJoinConfig join;

  /// Probe chunk size in tuples; 0 = half the build cardinality (the
  /// paper's setting).
  size_t chunk_tuples = 0;

  /// Materialize results and transfer them to the host (the
  /// "Materialization" series of Fig. 11); false aggregates on-GPU.
  bool materialize_to_host = false;
};

/// \brief One functionally-executed streaming-probe run: finalized stats
/// plus the op DAG they were timed on.
///
/// The single-query path (StreamingProbeJoin) only needs `stats`; the
/// multi-query session scheduler re-emits `timeline`'s ops into a shared
/// device timeline, substituting `build_h2d`/`build_part` with the ops of
/// whichever query materialized the shared prepared build first.
struct StreamingProbeRun {
  gpujoin::JoinStats stats;
  sim::Timeline timeline;       ///< Solo op DAG (stats.seconds = makespan).
  sim::OpId build_h2d = -1;     ///< Build-side upload op.
  sim::OpId build_part = -1;    ///< Build-side partitioning op.
};

/// Functionally executes the streaming-probe join against `prepared`,
/// which must be PreparePartitionedBuild(device, build, config.join)
/// unless `build` is empty (then it is not read). Each probe chunk is
/// uploaded, partitioned as a borrowed PartitionInput (its columns stay
/// resident until its join is done) and joined by JoinPartedPair. The
/// resident partitioned build may be shared with other queries: its
/// upload and partitioning still enter this run's solo DAG and stats, so
/// the result is identical to a standalone run (partitioning is
/// deterministic).
[[nodiscard]]
util::Result<StreamingProbeRun> StreamingProbeExecute(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const StreamingProbeConfig& config,
    const gpujoin::PreparedBuild& prepared);

/// Runs the streaming-probe join: prepares `build`, which must fit in
/// device memory, and streams `probe` from the host. Returns verified
/// counts and modeled pipeline timing (seconds = makespan; transfer_s /
/// join_s = engine busy times).
[[nodiscard]]
util::Result<gpujoin::JoinStats> StreamingProbeJoin(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const StreamingProbeConfig& config);

}  // namespace gjoin::outofgpu

#endif  // GJOIN_OUTOFGPU_STREAMING_PROBE_H_
