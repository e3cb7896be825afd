// Open-addressing aggregate hash table: u32 key -> (match count, payload
// sum). The functional stand-in wherever a simulated join only needs
// order-independent match counts and checksums (the oracle, CPU NPO, the
// aggregate-mode non-partitioned GPU probe). Entries pack key, count and
// sum into one 16-byte record so a probe usually costs a single cache
// miss — these loops run over tables far larger than the LLC, and the
// dependent-access count is what bounds the simulator's wall-clock.

#ifndef GJOIN_UTIL_FLAT_TABLE_H_
#define GJOIN_UTIL_FLAT_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/bits.h"
#include "src/util/probe_pipeline.h"

namespace gjoin::util {

/// \brief Linear-probing aggregate table with batch fold/probe ops.
///
/// Both batch ops take a probe-pipeline depth (0 = process default,
/// 1 = scalar): slots for a batch of tuples are hashed and prefetched
/// before any is visited, hiding the one dependent miss per tuple.
/// Visits stay in input order at every depth, so the table contents
/// (AddAll) and the accumulated sums (ProbeAll) are depth-invariant.
class FlatAggTable {
 public:
  /// Sizes the table at ~50% max load for `expected_keys` distinct keys.
  explicit FlatAggTable(size_t expected_keys) {
    const size_t cap =
        NextPowerOfTwo(std::max<size_t>(2 * expected_keys, 16));
    mask_ = cap - 1;
    entries_.assign(cap, Entry{});
  }

  /// Distinct keys folded so far.
  size_t size() const { return size_; }

  /// Folds `n` build tuples into the aggregate, first growing the table
  /// if `n` new keys could push it past ~50% load. Folding a relation in
  /// batches therefore sizes the table by its distinct keys, not its
  /// tuples.
  void AddAll(const uint32_t* keys, const uint32_t* pays, size_t n,
              int pipeline_depth = 0) {
    Reserve(size_ + n);
    GroupProbe<size_t>(
        n, ResolveProbePipelineDepth(pipeline_depth),
        [&](size_t i, size_t& slot) {
          slot = Mix32(keys[i]) & mask_;
          PrefetchWrite(&entries_[slot]);
        },
        [&](size_t i, size_t& slot) {
          while (entries_[slot].count != 0 && entries_[slot].key != keys[i]) {
            slot = (slot + 1) & mask_;
          }
          Entry& e = entries_[slot];
          size_ += e.count == 0;
          e.key = keys[i];
          ++e.count;
          e.sum += pays[i];
        });
  }

  /// Probes `n` tuples, accumulating the join aggregate: each probe with
  /// key k scores count(k) matches and count(k) * pay + paysum(k)
  /// checksum — the same fold every aggregate-mode join kernel computes.
  void ProbeAll(const uint32_t* keys, const uint32_t* pays, size_t n,
                uint64_t* matches, uint64_t* checksum,
                int pipeline_depth = 0) const {
    uint64_t m = 0, c = 0;
    GroupProbe<size_t>(
        n, ResolveProbePipelineDepth(pipeline_depth),
        [&](size_t i, size_t& slot) {
          slot = Mix32(keys[i]) & mask_;
          PrefetchRead(&entries_[slot]);
        },
        [&](size_t i, size_t& slot) {
          while (entries_[slot].count != 0 && entries_[slot].key != keys[i]) {
            slot = (slot + 1) & mask_;
          }
          const Entry& e = entries_[slot];
          if (e.count != 0) {
            m += e.count;
            c += e.sum + static_cast<uint64_t>(e.count) * pays[i];
          }
        });
    *matches += m;
    *checksum += c;
  }

 private:
  struct Entry {
    uint32_t key = 0;
    uint32_t count = 0;
    uint64_t sum = 0;
  };

  /// Rehashes into a larger table if `keys` distinct keys would exceed
  /// ~50% load. Contents, and so every probe's result, are unchanged.
  void Reserve(size_t keys) {
    const size_t cap = NextPowerOfTwo(std::max<size_t>(2 * keys, 16));
    if (cap <= entries_.size()) return;
    std::vector<Entry> old(cap);
    old.swap(entries_);
    mask_ = cap - 1;
    for (const Entry& e : old) {
      if (e.count == 0) continue;
      size_t slot = Mix32(e.key) & mask_;
      while (entries_[slot].count != 0) slot = (slot + 1) & mask_;
      entries_[slot] = e;
    }
  }

  size_t mask_;
  size_t size_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace gjoin::util

#endif  // GJOIN_UTIL_FLAT_TABLE_H_
