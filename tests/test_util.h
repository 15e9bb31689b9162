#ifndef AMDJ_TESTS_TEST_UTIL_H_
#define AMDJ_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/distance_join.h"
#include "core/pair_entry.h"
#include "geom/rect.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/dataset.h"

namespace amdj::test {

/// A pair of R-trees over two in-memory datasets, ready for joining.
struct JoinFixture {
  std::unique_ptr<storage::InMemoryDiskManager> tree_disk;
  std::unique_ptr<storage::InMemoryDiskManager> queue_disk;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<rtree::RTree> r;
  std::unique_ptr<rtree::RTree> s;
  std::vector<geom::Rect> r_objects;
  std::vector<geom::Rect> s_objects;
};

/// Builds R-trees (bulk-loaded unless `insert_build`) over the datasets.
inline JoinFixture MakeFixture(const workload::Dataset& r_data,
                               const workload::Dataset& s_data,
                               uint32_t fanout = 16,
                               size_t buffer_pages = 64,
                               bool insert_build = false) {
  JoinFixture f;
  f.tree_disk = std::make_unique<storage::InMemoryDiskManager>();
  f.queue_disk = std::make_unique<storage::InMemoryDiskManager>();
  f.pool = std::make_unique<storage::BufferPool>(f.tree_disk.get(),
                                                 buffer_pages);
  rtree::RTree::Options opts;
  opts.max_entries = fanout;
  auto r = rtree::RTree::Create(f.pool.get(), opts);
  auto s = rtree::RTree::Create(f.pool.get(), opts);
  EXPECT_TRUE(r.ok() && s.ok());
  f.r = std::move(*r);
  f.s = std::move(*s);
  if (insert_build) {
    uint32_t id = 0;
    for (const geom::Rect& rect : r_data.objects) {
      EXPECT_TRUE(f.r->Insert(rect, id++).ok());
    }
    id = 0;
    for (const geom::Rect& rect : s_data.objects) {
      EXPECT_TRUE(f.s->Insert(rect, id++).ok());
    }
  } else {
    EXPECT_TRUE(f.r->BulkLoad(r_data.ToEntries()).ok());
    EXPECT_TRUE(f.s->BulkLoad(s_data.ToEntries()).ok());
  }
  f.r_objects = r_data.objects;
  f.s_objects = s_data.objects;
  return f;
}

/// All |R| x |S| pair distances, ascending.
inline std::vector<double> BruteForceDistances(
    const std::vector<geom::Rect>& r, const std::vector<geom::Rect>& s) {
  std::vector<double> d;
  d.reserve(r.size() * s.size());
  for (const geom::Rect& a : r) {
    for (const geom::Rect& b : s) d.push_back(geom::MinDistance(a, b));
  }
  std::sort(d.begin(), d.end());
  return d;
}

/// Asserts `results` is sorted by distance, has the right size, and its
/// distance multiset equals the k smallest brute-force distances.
inline void ExpectMatchesBruteForce(
    const std::vector<core::ResultPair>& results,
    const std::vector<double>& brute_sorted, uint64_t k,
    const std::vector<geom::Rect>& r_objects,
    const std::vector<geom::Rect>& s_objects) {
  const size_t expected_n =
      std::min<uint64_t>(k, brute_sorted.size());
  ASSERT_EQ(results.size(), expected_n);
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(results[i].distance, results[i - 1].distance)
          << "unsorted at " << i;
    }
    EXPECT_NEAR(results[i].distance, brute_sorted[i], 1e-9)
        << "distance mismatch at rank " << i;
    // The reported ids actually realize the reported distance.
    ASSERT_LT(results[i].r_id, r_objects.size());
    ASSERT_LT(results[i].s_id, s_objects.size());
    EXPECT_NEAR(geom::MinDistance(r_objects[results[i].r_id],
                                  s_objects[results[i].s_id]),
                results[i].distance, 1e-9);
  }
}

/// No (r_id, s_id) pair reported twice.
inline void ExpectNoDuplicates(const std::vector<core::ResultPair>& results) {
  std::vector<uint64_t> keys;
  keys.reserve(results.size());
  for (const core::ResultPair& p : results) {
    keys.push_back((static_cast<uint64_t>(p.r_id) << 32) | p.s_id);
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
      << "duplicate result pair";
}

/// The answers of the joins that plane-sweep (B-KDJ, AM-KDJ and SJ-SORT at
/// k, then AM-IDJ drained to k pairs), each run from a cleared buffer pool;
/// each join's stats go to `stats` when it is given.
inline std::vector<std::vector<core::ResultPair>> SweepingJoins(
    const rtree::RTree& r, const rtree::RTree& s, uint64_t k,
    std::vector<JoinStats>* stats = nullptr) {
  std::vector<std::vector<core::ResultPair>> out;
  if (stats != nullptr) stats->clear();
  for (const core::KdjAlgorithm algorithm :
       {core::KdjAlgorithm::kBKdj, core::KdjAlgorithm::kAmKdj,
        core::KdjAlgorithm::kSjSort}) {
    EXPECT_TRUE(r.buffer_pool()->Clear().ok());
    JoinStats st;
    auto result = core::RunKDistanceJoin(r, s, k, algorithm,
                                         core::JoinOptions{}, &st);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.push_back(result.ok() ? *result : std::vector<core::ResultPair>{});
    if (stats != nullptr) stats->push_back(st);
  }
  EXPECT_TRUE(r.buffer_pool()->Clear().ok());
  JoinStats st;
  auto cursor = core::OpenIncrementalJoin(r, s, core::IdjAlgorithm::kAmIdj,
                                          core::JoinOptions{}, &st);
  EXPECT_TRUE(cursor.ok());
  std::vector<core::ResultPair> pairs;
  core::ResultPair p;
  bool done = false;
  while (cursor.ok() && pairs.size() < k) {
    const Status status = (*cursor)->Next(&p, &done);
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (!status.ok() || done) break;
    pairs.push_back(p);
  }
  out.push_back(pairs);
  if (stats != nullptr) stats->push_back(st);
  return out;
}

/// The distance column of a join's answer.
inline std::vector<double> Distances(
    const std::vector<core::ResultPair>& pairs) {
  std::vector<double> d;
  d.reserve(pairs.size());
  for (const core::ResultPair& p : pairs) d.push_back(p.distance);
  return d;
}

}  // namespace amdj::test

#endif  // AMDJ_TESTS_TEST_UTIL_H_
