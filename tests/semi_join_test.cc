#include "core/semi_join.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "test_util.h"
#include "workload/generators.h"

namespace amdj::core {
namespace {

using geom::Rect;

/// Brute force: nearest S partner for every R object, sorted by distance.
std::vector<SemiJoinResult> BruteSemiJoin(const std::vector<Rect>& r,
                                          const std::vector<Rect>& s,
                                          geom::Metric metric,
                                          bool exclude_same_id) {
  std::vector<SemiJoinResult> out;
  for (uint32_t i = 0; i < r.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    uint32_t best_j = 0;
    bool any = false;
    for (uint32_t j = 0; j < s.size(); ++j) {
      if (exclude_same_id && i == j) continue;
      const double d = geom::MinDistance(r[i], s[j], metric).raw();
      if (d < best) {
        best = d;
        best_j = j;
        any = true;
      }
    }
    if (any) out.push_back({i, best_j, best});
  }
  std::sort(out.begin(), out.end(),
            [](const SemiJoinResult& a, const SemiJoinResult& b) {
              return a.distance < b.distance;
            });
  return out;
}

void ExpectMatches(const std::vector<SemiJoinResult>& got,
                   const std::vector<SemiJoinResult>& brute) {
  ASSERT_EQ(got.size(), brute.size());
  // Distances per rank match...
  for (size_t i = 0; i < got.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(got[i].distance, got[i - 1].distance);
    }
    ASSERT_NEAR(got[i].distance, brute[i].distance, 1e-9) << "rank " << i;
  }
  // ...and per R object the partner distance is the true minimum (partner
  // identity may differ under ties).
  std::map<uint32_t, double> expected;
  for (const auto& b : brute) expected[b.r_id] = b.distance;
  for (const auto& g : got) {
    auto it = expected.find(g.r_id);
    ASSERT_NE(it, expected.end()) << "unexpected r_id " << g.r_id;
    EXPECT_NEAR(g.distance, it->second, 1e-9) << "r_id " << g.r_id;
    expected.erase(it);
  }
  EXPECT_TRUE(expected.empty());
}

class SemiJoinTest : public ::testing::TestWithParam<SemiJoinStrategy> {};

TEST_P(SemiJoinTest, MatchesBruteForce) {
  const Rect uni(0, 0, 5000, 5000);
  const auto r_data = workload::GaussianClusters(200, 5, 0.05, 71, uni);
  const auto s_data = workload::UniformRects(150, 30.0, 72, uni);
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 8);
  const auto brute = BruteSemiJoin(f.r_objects, f.s_objects,
                                   geom::Metric::kL2, false);
  JoinStats stats;
  auto got = DistanceSemiJoin(*f.r, *f.s, JoinOptions{}, GetParam(), &stats);
  ASSERT_TRUE(got.ok());
  ExpectMatches(*got, brute);
}

TEST_P(SemiJoinTest, WorksUnderL1Metric) {
  const Rect uni(0, 0, 2000, 2000);
  const auto r_data = workload::UniformPoints(120, 73, uni);
  const auto s_data = workload::UniformPoints(100, 74, uni);
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 8);
  const auto brute = BruteSemiJoin(f.r_objects, f.s_objects,
                                   geom::Metric::kL1, false);
  JoinOptions options;
  options.metric = geom::Metric::kL1;
  auto got = DistanceSemiJoin(*f.r, *f.s, options, GetParam(), nullptr);
  ASSERT_TRUE(got.ok());
  ExpectMatches(*got, brute);
}

TEST_P(SemiJoinTest, SelfSemiJoinFindsNearestOtherNeighbor) {
  const Rect uni(0, 0, 1000, 1000);
  const auto data = workload::GaussianClusters(150, 4, 0.04, 75, uni);
  test::JoinFixture f = test::MakeFixture(data, data, 8);
  const auto brute =
      BruteSemiJoin(f.r_objects, f.s_objects, geom::Metric::kL2, true);
  JoinOptions options;
  options.exclude_same_id = true;
  auto got = DistanceSemiJoin(*f.r, *f.s, options, GetParam(), nullptr);
  ASSERT_TRUE(got.ok());
  for (const auto& g : *got) EXPECT_NE(g.r_id, g.s_id);
  ExpectMatches(*got, brute);
}

TEST_P(SemiJoinTest, EmptyInputs) {
  workload::Dataset empty, one;
  one.objects = {Rect(0, 0, 1, 1)};
  test::JoinFixture f = test::MakeFixture(empty, one);
  auto got = DistanceSemiJoin(*f.r, *f.s, JoinOptions{}, GetParam(),
                              nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
  test::JoinFixture g = test::MakeFixture(one, empty);
  auto got2 = DistanceSemiJoin(*g.r, *g.s, JoinOptions{}, GetParam(),
                               nullptr);
  ASSERT_TRUE(got2.ok());
  EXPECT_TRUE(got2->empty());
}

INSTANTIATE_TEST_SUITE_P(
    BothStrategies, SemiJoinTest,
    ::testing::Values(SemiJoinStrategy::kIncrementalJoin,
                      SemiJoinStrategy::kPerObjectNn),
    [](const auto& info) {
      return info.param == SemiJoinStrategy::kIncrementalJoin
                 ? "IncrementalJoin"
                 : "PerObjectNn";
    });

TEST(SemiJoinTest, StrategiesAgreeAtScale) {
  const Rect uni(0, 0, 50000, 50000);
  test::JoinFixture f = test::MakeFixture(
      workload::TigerStreets({.street_segments = 3000, .seed = 76}),
      workload::TigerHydro({.hydro_objects = 1000, .seed = 76}), 32, 256);
  auto a = DistanceSemiJoin(*f.r, *f.s, JoinOptions{},
                            SemiJoinStrategy::kIncrementalJoin, nullptr);
  auto b = DistanceSemiJoin(*f.r, *f.s, JoinOptions{},
                            SemiJoinStrategy::kPerObjectNn, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  ASSERT_EQ(a->size(), 3000u);
  for (size_t i = 0; i < a->size(); ++i) {
    ASSERT_NEAR((*a)[i].distance, (*b)[i].distance, 1e-9) << "rank " << i;
  }
}

// ---------------------------------------------------------------------------
// KnnJoin (the generalized operator).

std::vector<SemiJoinResult> BruteKnnJoin(const std::vector<Rect>& r,
                                         const std::vector<Rect>& s,
                                         uint64_t neighbors) {
  std::vector<SemiJoinResult> out;
  for (uint32_t i = 0; i < r.size(); ++i) {
    std::vector<std::pair<double, uint32_t>> d;
    for (uint32_t j = 0; j < s.size(); ++j) {
      d.push_back({geom::MinDistance(r[i], s[j]), j});
    }
    std::sort(d.begin(), d.end());
    for (uint64_t n = 0; n < neighbors && n < d.size(); ++n) {
      out.push_back({i, d[n].second, d[n].first});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SemiJoinResult& a, const SemiJoinResult& b) {
              return a.distance < b.distance;
            });
  return out;
}

class KnnJoinTest : public ::testing::TestWithParam<SemiJoinStrategy> {};

TEST_P(KnnJoinTest, MatchesBruteForceForSeveralK) {
  const Rect uni(0, 0, 3000, 3000);
  const auto r_data = workload::GaussianClusters(80, 4, 0.06, 77, uni);
  const auto s_data = workload::UniformRects(100, 25.0, 78, uni);
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 8);
  for (const uint64_t neighbors : {1ull, 3ull, 10ull}) {
    const auto brute = BruteKnnJoin(f.r_objects, f.s_objects, neighbors);
    auto got = KnnJoin(*f.r, *f.s, neighbors, JoinOptions{}, GetParam(),
                       nullptr);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), brute.size()) << "neighbors=" << neighbors;
    // Distance multiset per R object must match the brute force.
    std::map<uint32_t, std::vector<double>> expected, actual;
    for (const auto& b : brute) expected[b.r_id].push_back(b.distance);
    for (const auto& g : *got) actual[g.r_id].push_back(g.distance);
    for (auto& [id, v] : expected) std::sort(v.begin(), v.end());
    for (auto& [id, v] : actual) std::sort(v.begin(), v.end());
    for (const auto& [id, v] : expected) {
      ASSERT_EQ(actual.count(id), 1u);
      ASSERT_EQ(actual[id].size(), v.size());
      for (size_t i = 0; i < v.size(); ++i) {
        ASSERT_NEAR(actual[id][i], v[i], 1e-9)
            << "r_id " << id << " neighbor " << i;
      }
    }
    // Globally sorted.
    for (size_t i = 1; i < got->size(); ++i) {
      EXPECT_GE((*got)[i].distance, (*got)[i - 1].distance);
    }
  }
}

TEST_P(KnnJoinTest, NeighborsLargerThanSIsClamped) {
  const Rect uni(0, 0, 500, 500);
  const auto r_data = workload::UniformPoints(20, 79, uni);
  const auto s_data = workload::UniformPoints(5, 80, uni);
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 5);
  auto got = KnnJoin(*f.r, *f.s, 50, JoinOptions{}, GetParam(), nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 20u * 5u);  // everyone gets all of S
}

TEST_P(KnnJoinTest, ZeroNeighborsRejected) {
  const Rect uni(0, 0, 500, 500);
  const auto data = workload::UniformPoints(10, 81, uni);
  test::JoinFixture f = test::MakeFixture(data, data, 5);
  auto got = KnnJoin(*f.r, *f.s, 0, JoinOptions{}, GetParam(), nullptr);
  EXPECT_FALSE(got.ok());
}

INSTANTIATE_TEST_SUITE_P(
    BothStrategiesKnn, KnnJoinTest,
    ::testing::Values(SemiJoinStrategy::kIncrementalJoin,
                      SemiJoinStrategy::kPerObjectNn),
    [](const auto& info) {
      return info.param == SemiJoinStrategy::kIncrementalJoin
                 ? "IncrementalJoin"
                 : "PerObjectNn";
    });

}  // namespace
}  // namespace amdj::core
