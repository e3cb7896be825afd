// Tests for the aggregate hash table: folding in batches grows the table
// with the distinct keys and probes to the same sums as a table sized
// for every tuple up front.

#include "src/util/flat_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/data/generator.h"

namespace gjoin::util {
namespace {

TEST(FlatAggTableTest, BatchedFoldMatchesPresizedTable) {
  // Skewed build: 50000 tuples over at most 500 keys.
  const data::Relation build = data::MakeZipf(50000, 500, 1.0, 7);
  const data::Relation probe = data::MakeUniformProbe(20000, 600, 8);

  FlatAggTable presized(build.size());
  presized.AddAll(build.keys.data(), build.payloads.data(), build.size());

  FlatAggTable grown(0);
  for (size_t begin = 0; begin < build.size(); begin += 1000) {
    const size_t n = std::min<size_t>(1000, build.size() - begin);
    grown.AddAll(build.keys.data() + begin, build.payloads.data() + begin, n);
  }
  EXPECT_EQ(grown.size(), presized.size());
  EXPECT_LE(grown.size(), 500u);

  for (const int depth : {1, 16}) {
    uint64_t want_matches = 0, want_sum = 0, got_matches = 0, got_sum = 0;
    presized.ProbeAll(probe.keys.data(), probe.payloads.data(), probe.size(),
                      &want_matches, &want_sum, depth);
    grown.ProbeAll(probe.keys.data(), probe.payloads.data(), probe.size(),
                   &got_matches, &got_sum, depth);
    EXPECT_GT(want_matches, 0u);
    EXPECT_EQ(got_matches, want_matches);
    EXPECT_EQ(got_sum, want_sum);
  }
}

TEST(FlatAggTableTest, SizeCountsDistinctKeys) {
  FlatAggTable table(0);
  const std::vector<uint32_t> keys = {5, 9, 5, 5, 17, 9};
  const std::vector<uint32_t> pays = {1, 2, 3, 4, 5, 6};
  table.AddAll(keys.data(), pays.data(), keys.size());
  EXPECT_EQ(table.size(), 3u);
  const std::vector<uint32_t> probe_keys = {5, 9, 17, 4};
  const std::vector<uint32_t> probe_pays = {10, 20, 30, 40};
  uint64_t matches = 0, checksum = 0;
  table.ProbeAll(probe_keys.data(), probe_pays.data(), probe_keys.size(),
                 &matches, &checksum);
  EXPECT_EQ(matches, 6u);
  // key 5: 3 * 10 + (1 + 3 + 4); key 9: 2 * 20 + (2 + 6); key 17: 30 + 5.
  EXPECT_EQ(checksum, 38u + 48u + 35u);
}

}  // namespace
}  // namespace gjoin::util
