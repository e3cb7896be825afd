// Multi-query session scheduler: the execution layer between the
// gjoin::Join API and the strategy implementations.
//
// A Session accepts many enqueued join requests, plans them as one
// batch, and executes them on a device topology (one or more simulated
// GPUs sharing a host):
//
//   1. per query, the strategy is chosen from data placement exactly as
//      a standalone gjoin::Join chooses it (in-GPU / streaming-probe /
//      co-processing);
//   2. queries are admitted in submit order or shortest-job-first
//      (AdmissionPolicy) and *placed* onto devices: under
//      PlacementPolicy::kReplicate each query runs wholly on the device
//      with the greedy earliest estimated finish — builds shared across
//      devices are replicated over the peer interconnect and the
//      replica is charged once per device; under kPartition the in-GPU
//      work is sliced 1/N across all devices (the build lives
//      partitioned over the group, probe work splits);
//   3. device uploads of relations shared between queries are
//      deduplicated through per-device refcounted, memory-budgeted
//      UploadCaches (one typed Acquire<T>/Insert<T> pair for raw
//      uploads and prepared builds); all probes against a common build
//      side reuse one partitioned build per device
//      (gpujoin::PreparedBuild), and
//      co-processing queries of a common relation reuse its CPU
//      pre-partitioning; pinned-buffer staging placement comes from the
//      NUMA planner (hw::numa::PlacementPlanner);
//   4. every query's op DAG is spliced into one QueryGraph over all
//      devices' lanes and list-scheduled, so one query's PCIe transfers
//      overlap another query's kernel time — and, with several devices,
//      queries execute concurrently across the group.
//
// Failures are isolated per query: a query that errors reports its own
// QueryResult::status while its siblings complete. With recovery enabled
// (SessionConfig::recovery, or implicitly when a sim::FaultPlan is armed
// on a session device), a simulated device OOM re-plans the query down
// the paper's strategy lattice — in-GPU → streaming-probe →
// co-processing → CPU-only — charging the aborted attempt's staged bytes
// as wasted modeled seconds; transient transfer faults retry with
// modeled exponential backoff; and a device with a planned death is
// excluded from placement for work that would outlive it, so its queued
// work lands on survivors. All fault decisions draw from the plan's
// seeded PRNG stream on the session thread, keeping results and charged
// stats bit-identical across runs and host pool widths; the executed
// strategy's JoinStats stay its clean no-fault numbers, with every
// fault cost charged separately (QueryResult::fault_penalty_s,
// SessionStats counters, and a per-query fault-penalty timeline op).
//
// Per-query results are bit-identical to what a standalone gjoin::Join
// would have returned regardless of batch composition, placement policy
// or device count (partitioning and probing are deterministic, and a
// query's solo DAG is evaluated for its own stats even when the shared
// timeline charges deduplicated work only once or slices it across
// devices); the batch-level win shows up in SessionStats: makespan_s vs
// the sum of independent execution times. gjoin::Join itself runs as a
// 1-query session, so there is exactly one execution path.
//
// Usage:
//
//   sim::Topology topo(hw::HardwareSpec::Icde2019Testbed(), 2);
//   gjoin::exec::Session session(&topo);
//   auto q0 = session.Submit(orders, lineitem, config);
//   auto q1 = session.Submit(orders, returns, config);   // shares build
//   GJOIN_RETURN_NOT_OK(session.Run());
//   session.result(q0).outcome.stats;    // == gjoin::Join(...)
//   session.stats().speedup;             // batch vs independent runs

#ifndef GJOIN_EXEC_SESSION_H_
#define GJOIN_EXEC_SESSION_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/api/gjoin.h"
#include "src/cpu/cpu_partition.h"
#include "src/exec/query_graph.h"
#include "src/exec/scheduler.h"
#include "src/exec/upload_cache.h"
#include "src/sim/device.h"
#include "src/sim/topology.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace gjoin::obs {
class HostProfiler;
class MetricsRegistry;
}  // namespace gjoin::obs

namespace gjoin::exec {

/// Identifier of a submitted query within its Session.
using QueryHandle = int;

/// \brief Session-level configuration.
struct SessionConfig {
  /// Device-memory budget for shared artifacts (raw uploads + prepared
  /// builds), per device. 0 = half of each device's memory; the other
  /// half stays available for per-query working state.
  uint64_t cache_budget_bytes = 0;

  /// Devices of the topology the session schedules onto (clamped to the
  /// topology's device count). 0 = all of them; a Session built on a
  /// bare sim::Device always has exactly one.
  int device_count = 0;

  /// Multi-device placement (ignored with one device).
  api::PlacementPolicy placement = api::PlacementPolicy::kReplicate;

  /// Order in which queued queries are admitted to the planner.
  api::AdmissionPolicy admission = api::AdmissionPolicy::kSubmitOrder;

  /// Recovery ladder: when true, a query that fails with kOutOfMemory is
  /// re-planned down the paper's strategy lattice (in-GPU →
  /// streaming-probe → co-processing → CPU-only), with the aborted
  /// attempt's staged device bytes charged as wasted modeled seconds.
  /// Off by default so genuine capacity errors stay visible; arming
  /// fault injection on any session device (sim::Device::ArmFaults)
  /// enables the ladder implicitly.
  bool recovery = false;

  /// Treat an artifact larger than the whole cache budget as a device
  /// OOM: the UploadCache's typed kOutOfMemory refusal becomes the
  /// query's error (and a degradation-ladder trigger under `recovery`)
  /// instead of silently running with a private, uncached copy.
  bool strict_cache_budget = false;

  // ---- Lifecycle hardening (all charge-free at their defaults) ----------
  /// Admission limit on queued (non-shed) queries; a submission past it
  /// is shed with a typed kOverloaded. 0 = unbounded.
  size_t max_queued_queries = 0;
  /// Admission limit on the summed input bytes (build + probe) of the
  /// queued queries. 0 = unbounded.
  uint64_t max_queued_bytes = 0;
  /// Per-query budget of transient transfer retries, summed over the
  /// query's transfers (the recovery ladder included). Exhausting it
  /// fails the query with a typed kExecutionError even when individual
  /// transfers stay within the plan's per-transfer attempts. 0 = only
  /// the armed FaultPlan's per-transfer bound applies.
  int query_retry_budget = 0;
  /// Per-device budget of transient transfer retries across all queries
  /// of the session run. 0 = unlimited.
  int device_retry_budget = 0;
  /// Device-health circuit breaker: sliding window length, in transfer
  /// attempts per device, over the armed FaultInjector's outcomes.
  int device_failure_window = 16;
  /// Failure-rate threshold in (0, 1] over a full window that sends the
  /// device into quarantine (placement excludes it; queued work
  /// re-places onto survivors). 0 disables the breaker (charge-free).
  double device_failure_rate = 0;
  /// Modeled probation seconds before a quarantined device turns
  /// half-open: the next query placed there is its trial — a fault-free
  /// trial re-admits the device, any fault re-quarantines it.
  double quarantine_probation_s = 0.05;

  // ---- Observability hooks (not owned; both charge-free) ----------------
  /// When set, Run() publishes session counters, the modeled per-query
  /// latency histogram and per-device memory peaks into this registry.
  /// Attaching a registry changes no charged stat, result or schedule
  /// (pinned by tests/obs_session_test.cc).
  obs::MetricsRegistry* metrics = nullptr;
  /// When set, the planning / per-query execution / scheduling phases
  /// record wall-clock spans here; TraceJson() emits them on the trace's
  /// "host" track. Wall time never feeds charged stats.
  obs::HostProfiler* profiler = nullptr;
};

/// \brief Outcome of one query of a batch.
struct QueryResult {
  /// Stats + strategy, bit-identical to a standalone gjoin::Join.
  api::JoinOutcome outcome;
  /// Modeled end-to-end seconds had the query run alone (its solo op
  /// DAG's makespan, including input transfers).
  double solo_seconds = 0;
  /// Completion time of the query within the shared batch timeline.
  double finish_s = 0;
  /// Home device the query was placed on (0 with one device; the
  /// functional-execution device of a kPartition-split query).
  int device = 0;
  /// True when the query's in-GPU work was sliced across all devices
  /// (PlacementPolicy::kPartition with > 1 device).
  bool split = false;
  /// Per-query completion status: a failed query reports its error here
  /// while its siblings complete (Run() itself only fails on
  /// batch-level errors). outcome/solo_seconds are zero when not ok().
  util::Status status;
  /// Strategy the planner first selected (== outcome.strategy unless
  /// the recovery ladder degraded the query).
  api::Strategy planned_strategy = api::Strategy::kAuto;
  /// Times the recovery ladder stepped this query down a strategy.
  int degradations = 0;
  /// Transient transfer faults this query retried through.
  int transfer_retries = 0;
  /// Modeled seconds charged to fault handling: wasted staging of
  /// aborted attempts plus retry re-transfers and exponential backoff.
  /// Charged on the home device's H2D lane and included in
  /// solo_seconds; outcome.stats stays the executed strategy's clean
  /// numbers.
  double fault_penalty_s = 0;
};

/// \brief Batch-level outcome.
struct SessionStats {
  double makespan_s = 0;     ///< Shared-timeline end-to-end seconds.
  double independent_s = 0;  ///< Sum of the queries' solo makespans.
  /// independent_s / makespan_s (1.0 for a 1-query single-device session
  /// by construction; > 1 from sharing, cross-query overlap and
  /// multi-device parallelism).
  double speedup = 0;
  size_t shared_build_hits = 0;   ///< Probes that reused a partitioned build.
  size_t shared_upload_hits = 0;  ///< Deduplicated relation uploads.
  size_t replicated_builds = 0;   ///< Shared builds materialized on an
                                  ///< additional device (charged as a
                                  ///< peer copy or a host re-upload,
                                  ///< whichever is cheaper).
  size_t coprocess_part_hits = 0; ///< CPU pre-partitionings reused across
                                  ///< co-processing queries.
  // ---- Fault/recovery counters (all zero without a FaultPlan) ----
  size_t injected_alloc_faults = 0;     ///< Allocation faults injected on
                                        ///< the session's devices.
  size_t injected_transfer_faults = 0;  ///< Transfer-attempt faults drawn.
  size_t transfer_retries = 0;    ///< Transient transfer retries absorbed.
  size_t degradations = 0;        ///< Recovery-ladder strategy downgrades.
  size_t cpu_fallbacks = 0;       ///< Queries that landed on the CPU rung.
  size_t failed_queries = 0;      ///< Queries with a non-OK per-query status.
  size_t device_failovers = 0;    ///< Queries re-placed off a dying device.
  double fault_penalty_s = 0;     ///< Modeled seconds charged to recovery.
  // ---- Lifecycle counters (all zero when nothing is configured) ----
  size_t shed_queries = 0;        ///< Submissions shed by admission limits.
  size_t deadline_misses = 0;     ///< Queries that missed their modeled
                                  ///< deadline (aborted or finished late).
  size_t cancelled_queries = 0;   ///< Queries cancelled before executing.
  size_t device_quarantines = 0;  ///< Times a device entered quarantine.
  size_t retry_budget_exhausted = 0;  ///< Queries failed on an exhausted
                                      ///< per-query/per-device retry budget.
  sim::Schedule schedule;         ///< Merged schedule (utilization etc.).
  UploadCacheStats cache;         ///< Artifact-cache counters, summed
                                  ///< over the per-device caches.
  /// Simulated device-memory high-water mark per session device
  /// (sim::DeviceMemory::peak_used at the end of Run) — the peak
  /// pressure behind the placement and degradation decisions.
  std::vector<uint64_t> device_peak_bytes;
};

/// \brief A batch of join queries executed on one shared timeline over a
/// device topology.
class Session {
 public:
  /// Single-device session (device_count is forced to 1).
  explicit Session(sim::Device* device, SessionConfig config = {});

  /// Session over `topology` (config.device_count selects a prefix of
  /// its devices; 0 = all).
  explicit Session(sim::Topology* topology, SessionConfig config = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Enqueues a join of `build` and `probe` (host-resident; both must
  /// outlive Run — relation identity, for upload sharing, is the
  /// Relation object itself). Returns the query's handle.
  QueryHandle Submit(const data::Relation& build, const data::Relation& probe,
                     const api::JoinConfig& config = {});

  /// Admission-checked Submit: refuses the query with a typed
  /// kOverloaded — without enqueuing it — when the session's queue
  /// limits (max_queued_queries / max_queued_bytes) are exceeded and
  /// admission-policy shedding cannot make room. Submit() accepts the
  /// same overload by enqueuing the query pre-shed instead: its result
  /// reports kOverloaded after Run(). With no limits configured both
  /// behave identically.
  [[nodiscard]]
  util::Result<QueryHandle> TrySubmit(const data::Relation& build,
                                      const data::Relation& probe,
                                      const api::JoinConfig& config = {});

  /// Cooperatively cancels query `handle`: if it has not started
  /// executing when Run() reaches it, it completes with a typed
  /// kCancelled (outcome zeroed, no ops charged) and its siblings are
  /// untouched. Safe to call from another thread while Run() executes;
  /// a query that already ran keeps its result. Returns kInvalid for an
  /// unknown handle.
  [[nodiscard]]
  util::Status Cancel(QueryHandle handle);

  /// Plans and executes every submitted query. Call once.
  [[nodiscard]]
  util::Status Run();

  /// Number of submitted queries.
  size_t size() const { return queries_.size(); }

  /// Devices the session schedules onto.
  int device_count() const { return static_cast<int>(devices_.size()); }

  /// Result of query `handle`; valid after Run() succeeded.
  const QueryResult& result(QueryHandle handle) const {
    return results_[static_cast<size_t>(handle)];
  }

  /// Batch statistics; valid after Run() succeeded.
  const SessionStats& stats() const { return stats_; }

  /// Chrome trace-event JSON of the executed batch: the merged timeline
  /// with every op annotated with its query's metadata (id, strategy,
  /// device, input bytes, retries, degradations), plus the profiler's
  /// host spans when one is attached. Valid after Run() succeeded; load
  /// the result in Perfetto or chrome://tracing. Building the trace
  /// reads the retained schedule only — it cannot change any stat.
  [[nodiscard]]
  util::Result<std::string> TraceJson() const;

 private:
  struct Query {
    const data::Relation* build;
    const data::Relation* probe;
    api::JoinConfig config;
    api::Strategy strategy = api::Strategy::kAuto;  ///< Resolved in Run.
    int device = 0;      ///< Home device (placement step).
    bool split = false;  ///< Sliced across all devices (kPartition).
    bool doomed = false; ///< No surviving device can take it (death plan,
                         ///< recovery off): fails cleanly at execution.
    bool shed = false;   ///< Refused by admission limits: reports a typed
                         ///< kOverloaded at Run() without executing.
  };

  /// Circuit-breaker state of one device (engaged only when
  /// config_.device_failure_rate > 0).
  enum class DeviceState { kHealthy, kQuarantined, kHalfOpen };
  struct DeviceHealth {
    /// Sliding window of recent transfer-attempt outcomes (1 = faulted),
    /// most recent last; capped at config_.device_failure_window.
    std::vector<uint8_t> window;
    DeviceState state = DeviceState::kHealthy;
    /// Modeled est-clock time at which quarantine turns half-open.
    double probation_until_s = 0;
    /// Transient retries charged to this device (device_retry_budget).
    int retries_used = 0;
  };

  sim::Device* device(int d) { return devices_[static_cast<size_t>(d)]; }
  UploadCache& cache(int d) { return *caches_[static_cast<size_t>(d)]; }

  /// Admission check of one arriving query of `bytes` input against the
  /// configured queue limits; under kDeadlineAware admission, first
  /// sheds queued queries whose deadlines are already unmeetable by
  /// estimated cost. Returns kOverloaded when the arrival cannot be
  /// admitted.
  [[nodiscard]]
  util::Status AdmitOne(uint64_t bytes, double deadline_s);

  /// Coarse deterministic cost proxy of one query of `bytes` total
  /// input (the placement estimate: ~6 streaming sweeps + the PCIe
  /// transfer). Used by deadline-aware admission shedding and
  /// quarantine re-placement — never by charged stats.
  double EstimateCost(uint64_t bytes) const;

  /// Draws the transient-fault count of one logical transfer of query
  /// `index` from `injector`'s PRNG stream, charges its retries (one
  /// re-send plus capped exponential backoff each) into `result`,
  /// updates the home device's health window, and enforces the
  /// per-query / per-device retry budgets. Returns ExecutionError when
  /// every bounded attempt faulted or a budget ran out.
  [[nodiscard]]
  util::Status ChargeTransferFaults(int device_index,
                                    sim::FaultInjector* injector,
                                    double transfer_s, const char* what,
                                    QueryResult* result);

  /// Advances quarantine probation on the est-clock and, when query
  /// `index`'s home device is quarantined, re-places it onto the
  /// earliest-estimated-finish healthy device (or the CPU rung under
  /// recovery). Returns false when no device can take the query.
  bool ResolveQuarantinedPlacement(int index);

  /// Closes the half-open trial protocol after query `index` executed:
  /// a fault-free trial re-admits its device, a faulted one
  /// re-quarantines it.
  void UpdateDeviceHealthAfterQuery(int index, uint64_t faults_before);

  /// Admission order of query indices under config_.admission (shed
  /// queries excluded).
  std::vector<int> AdmissionOrder() const;

  /// Assigns every query a home device (greedy earliest estimated
  /// finish under kReplicate; split marking under kPartition) and
  /// declares shared-artifact demand on the per-device caches.
  void PlanPlacement(const std::vector<int>& order);

  /// Executes query `index`, driving the recovery ladder: attempts run
  /// down the strategy lattice on simulated OOM (when recovery is
  /// enabled), with teardown + retry costs accumulated into `result`
  /// and charged onto `graph` as a fault-penalty op. Returns the final
  /// per-query status.
  [[nodiscard]]
  util::Status ExecuteQuery(int index, QueryGraph* graph,
                            QueryResult* result);

  /// One execution attempt of query `index` under `strategy`: functional
  /// run on its home device, filling `result` and splicing its op DAG
  /// into `graph` on success. A failed attempt releases every cache
  /// lease it took and leaves `graph` untouched.
  [[nodiscard]]
  util::Status ExecuteAttempt(int index, api::Strategy strategy,
                              QueryGraph* graph, QueryResult* result);

  /// Emits the in-GPU batch DAG of query `index` sliced 1/N across all
  /// devices (kPartition placement). `*_shared` = the artifact was a
  /// cache hit; `*_cached` = it is resident after this query (producer
  /// nodes may be registered for later aliasing).
  void EmitSplitInGpu(int index, QueryGraph* graph, double build_part_s,
                      double probe_part_s, double join_s, bool build_shared,
                      bool build_cached, bool probe_shared, bool probe_cached);

  /// Publishes batch outcome counters / gauges / the latency histogram
  /// into config_.metrics (no-op when detached).
  void PublishMetrics();

  std::vector<sim::Device*> devices_;
  SessionConfig config_;
  std::vector<std::unique_ptr<UploadCache>> caches_;
  std::vector<Query> queries_;
  std::vector<QueryResult> results_;
  SessionStats stats_;
  /// Merged batch DAG and its schedule, retained after Run() so
  /// TraceJson() can serialize the executed timeline.
  QueryGraph graph_;
  ScheduledBatch batch_;
  bool ran_ = false;
  /// config_.recovery, or any session device with an armed FaultPlan.
  bool recovery_enabled_ = false;

  /// Per-device circuit-breaker state (sized in Run).
  std::vector<DeviceHealth> health_;
  /// Estimated busy seconds per device (PlanPlacement's greedy state,
  /// kept for quarantine re-placement).
  std::vector<double> est_busy_;
  /// Deterministic modeled clock proxy driving quarantine probation:
  /// advances by each executed query's solo seconds.
  double est_clock_s_ = 0;
  /// TrySubmit refusals (queries never enqueued), counted into
  /// SessionStats::shed_queries.
  size_t refused_submissions_ = 0;

  /// Handles cancelled via Cancel(); read at execution boundaries.
  /// (The one Session member a second thread may touch while Run()
  /// executes — everything else stays session-thread-only.)
  mutable util::Mutex cancel_mu_;
  std::set<QueryHandle> cancelled_ GJOIN_GUARDED_BY(cancel_mu_);

  /// key (+ "@<device>" / "#split" suffix) -> node ids of the resident
  /// artifact's producer ops in the merged graph.
  std::map<std::string, std::vector<NodeId>> artifact_nodes_;
  /// Device footprint of a produced artifact (sizes peer replicas).
  std::map<std::string, uint64_t> artifact_bytes_;
  /// Shared CPU pre-partitionings of co-processing queries, keyed by
  /// relation identity + partitioning geometry.
  std::map<std::string, cpu::HostPartitions> host_parts_;
};

}  // namespace gjoin::exec

#endif  // GJOIN_EXEC_SESSION_H_
