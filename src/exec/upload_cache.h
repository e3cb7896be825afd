// Refcounted cache of device-resident artifacts shared between the
// queries of one exec::Session.
//
// Concurrent queries against a common relation should not re-upload it
// over PCIe, and probes against a common build side should not
// re-partition it (Section III partitioning is deterministic, so one
// partitioned form serves every probe). The cache holds two artifact
// kinds, keyed by relation identity (the host Relation's address +
// cardinality) plus, for prepared builds, the partitioning
// configuration:
//
//   raw uploads     — gpujoin::DeviceRelation copies of a host relation,
//   prepared builds — gpujoin::PreparedBuild, a build side uploaded and
//                     radix-partitioned by PreparePartitionedBuild.
//
// One typed Acquire<T> / Insert<T> pair serves both kinds.
//
// Entries are accounted against a device-memory budget. A planning pass
// declares how many queries will use each key (AddDemand); execution
// then Acquires (hit) or Inserts (miss) and Releases per query. When an
// insertion would exceed the budget, idle entries are evicted — those no
// longer demanded first, then least-recently-used — and if the artifact
// still does not fit, the insert is refused and the query runs with a
// private, uncached copy. An evicted-but-still-demanded artifact is
// simply re-created (and re-charged on the session timeline) by the next
// query that needs it: the budget genuinely costs re-transfers.

#ifndef GJOIN_EXEC_UPLOAD_CACHE_H_
#define GJOIN_EXEC_UPLOAD_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>

#include "src/data/relation.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/util/status.h"

namespace gjoin::exec {

/// \brief Cache observability counters (tests, SessionStats).
struct UploadCacheStats {
  size_t hits = 0;             ///< Acquire found the artifact resident.
  size_t misses = 0;           ///< Acquire found nothing.
  size_t evictions = 0;        ///< Entries dropped to make room.
  size_t insert_failures = 0;  ///< Artifacts that never fit the budget.
};

/// \brief Budgeted, refcounted store of shared device artifacts.
class UploadCache {
 public:
  /// \param budget_bytes device-memory budget for cached artifacts.
  explicit UploadCache(uint64_t budget_bytes) : budget_bytes_(budget_bytes) {}

  UploadCache(const UploadCache&) = delete;
  UploadCache& operator=(const UploadCache&) = delete;

  /// Identity key of a raw upload of `rel`.
  static std::string UploadKey(const data::Relation& rel);

  /// Identity key of the partitioned build of `rel` under `partition`.
  static std::string BuildKey(const data::Relation& rel,
                              const gpujoin::RadixPartitionConfig& partition);

  /// Declares one future use of `key` (planning pass; one call per query
  /// that will Acquire it).
  void AddDemand(const std::string& key);

  /// Looks up an artifact of type T (gpujoin::DeviceRelation for a raw
  /// upload, gpujoin::PreparedBuild for a prepared build): on hit, marks
  /// the entry in use, consumes one declared use and returns it; nullptr
  /// on miss (counts a miss).
  template <typename T>
  const T* Acquire(const std::string& key);

  /// Inserts the artifact a miss forced the caller to create; consumes
  /// one declared use. `bytes` is its device-memory footprint. On
  /// success the artifact is moved out of `*artifact` and the cached
  /// copy (in use) returned. Two refusal shapes, both leaving the
  /// caller's object untouched as a private, uncached copy:
  ///
  ///   - a typed kOutOfMemory status when the artifact is larger than
  ///     the whole budget and can never be cached (the session's
  ///     strict-budget mode turns this into a degradation-ladder
  ///     trigger; the default mode treats it like a transient refusal);
  ///   - an OK result holding nullptr for a transient refusal (budget
  ///     occupied by pinned entries, or a raced pinned duplicate).
  ///
  /// Both refusals count stats().insert_failures.
  template <typename T>
  [[nodiscard]] util::Result<const T*> Insert(const std::string& key,
                                              T* artifact, uint64_t bytes);

  /// Ends the current query's use of `key` (entry becomes evictable).
  void Release(const std::string& key);

  /// True iff `key` is resident.
  bool Contains(const std::string& key) const {
    return entries_.count(key) > 0;
  }

  /// Remaining declared uses of `key` (0 when absent or drained).
  int DemandOf(const std::string& key) const;

  /// Device bytes currently held by cached artifacts.
  uint64_t bytes_cached() const { return bytes_cached_; }
  /// Number of resident artifacts.
  size_t size() const { return entries_.size(); }
  /// The budget this cache enforces.
  uint64_t budget_bytes() const { return budget_bytes_; }

  const UploadCacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::variant<std::unique_ptr<gjoin::gpujoin::DeviceRelation>,
                 std::unique_ptr<gjoin::gpujoin::PreparedBuild>>
        artifact;
    uint64_t bytes = 0;
    int future_uses = 0;  ///< Declared uses not yet consumed.
    int in_use = 0;       ///< Acquire/Insert minus Release balance.
    uint64_t last_use = 0;
  };

  /// Consumes one declared use of `key` if any remain.
  void ConsumeDeclaredUse(const std::string& key);
  /// Evicts idle entries until `bytes` fit the budget; false if impossible.
  bool MakeRoom(uint64_t bytes);

  uint64_t budget_bytes_;
  uint64_t bytes_cached_ = 0;
  uint64_t use_clock_ = 0;
  std::map<std::string, Entry> entries_;
  std::map<std::string, int> demand_;  ///< Declared uses incl. absent keys.
  UploadCacheStats stats_;
};

}  // namespace gjoin::exec

#endif  // GJOIN_EXEC_UPLOAD_CACHE_H_
