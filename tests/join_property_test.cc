// Property tests for the paper's central invariants: compensation
// exactness under arbitrary eDmax estimates (Section 5.6's claim that
// AM-KDJ equals B-KDJ for *any* estimate), Lemma 1, and the cost ordering
// the paper reports.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/amkdj.h"
#include "core/bkdj.h"
#include "core/distance_join.h"
#include "core/expansion.h"
#include "rtree/node.h"
#include "test_util.h"
#include "workload/generators.h"

namespace amdj::core {
namespace {

using test::BruteForceDistances;
using test::JoinFixture;
using test::MakeFixture;

// ---------------------------------------------------------------------------
// Figure 14's property: for eDmax anywhere in [0.05x, 10x] of the true
// Dmax, AM-KDJ returns exactly the same distance sequence as B-KDJ.

class ForcedEdmaxTest : public ::testing::TestWithParam<double> {};

TEST_P(ForcedEdmaxTest, AmKdjMatchesBKdjForAnyEstimate) {
  const geom::Rect uni(0, 0, 10000, 10000);
  JoinFixture f =
      MakeFixture(workload::GaussianClusters(300, 8, 0.03, 21, uni),
                  workload::UniformRects(200, 50.0, 22, uni), 8);
  const uint64_t k = 500;
  JoinOptions options;
  auto baseline = BKdj::Run(*f.r, *f.s, k, options, nullptr);
  ASSERT_TRUE(baseline.ok());
  const auto dmax = ComputeTrueDmax(*f.r, *f.s, k, options);
  ASSERT_TRUE(dmax.ok());

  options.forced_edmax = geom::DistVal(GetParam() * *dmax);
  JoinStats stats;
  auto am = AmKdj::Run(*f.r, *f.s, k, options, &stats);
  ASSERT_TRUE(am.ok());
  ASSERT_EQ(am->size(), baseline->size());
  for (size_t i = 0; i < am->size(); ++i) {
    ASSERT_NEAR((*am)[i].distance, (*baseline)[i].distance, 1e-9)
        << "rank " << i << " with eDmax factor " << GetParam();
  }
  if (GetParam() < 1.0) {
    // An underestimate must have exercised the compensation machinery.
    EXPECT_GT(stats.compensation_queue_insertions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(EstimateSweep, ForcedEdmaxTest,
                         ::testing::Values(0.05, 0.1, 0.3, 0.5, 0.8, 1.0,
                                           1.5, 2.0, 5.0, 10.0),
                         [](const auto& info) {
                           std::string s = std::to_string(info.param);
                           for (auto& ch : s) {
                             if (ch == '.') ch = '_';
                           }
                           return "factor_" + s.substr(0, 4);
                         });

TEST(AdaptiveCorrectionTest, ExhaustsProductWhenKExceedsIt) {
  const geom::Rect uni(0, 0, 1000, 1000);
  JoinFixture f = MakeFixture(workload::UniformPoints(40, 61, uni),
                              workload::UniformPoints(30, 62, uni), 5);
  // The two-stage AM-KDJ must recover every pruned pair through its
  // compensation stage when k exceeds |R| x |S|.
  JoinOptions options;
  options.forced_edmax = geom::DistVal(1.0);  // massive underestimate
  auto result = AmKdj::Run(*f.r, *f.s, 100000, options, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 40u * 30u);
}

TEST(ForcedEdmaxTest, ZeroEstimateDegeneratesButStaysCorrect) {
  const geom::Rect uni(0, 0, 1000, 1000);
  JoinFixture f = MakeFixture(workload::UniformPoints(100, 1, uni),
                              workload::UniformPoints(80, 2, uni), 6);
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  JoinOptions options;
  options.forced_edmax = geom::DistVal(0.0);
  auto am = AmKdj::Run(*f.r, *f.s, 200, options, nullptr);
  ASSERT_TRUE(am.ok());
  ASSERT_EQ(am->size(), 200u);
  for (size_t i = 0; i < am->size(); ++i) {
    EXPECT_NEAR((*am)[i].distance, brute[i], 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Lemma 1: the minimum distance of a child pair never undercuts its
// parents' — the containment property every pruning step relies on.

TEST(Lemma1Test, ChildPairDistanceDominatesParentPair) {
  const geom::Rect uni(0, 0, 5000, 5000);
  JoinFixture f =
      MakeFixture(workload::GaussianClusters(400, 5, 0.08, 7, uni),
                  workload::TigerHydro({.hydro_objects = 300, .seed = 8}), 8);
  // Walk both trees and check every (parent child, other node) combination
  // via a random sample of node pairs.
  std::vector<PairRef> r_nodes{RootRef(*f.r)};
  std::vector<PairRef> s_nodes{RootRef(*f.s)};
  std::vector<PairRef> children;
  for (size_t i = 0; i < r_nodes.size() && i < 200; ++i) {
    if (r_nodes[i].IsObject()) continue;
    ASSERT_TRUE(FetchChildren(*f.r, r_nodes[i], &children).ok());
    r_nodes.insert(r_nodes.end(), children.begin(), children.end());
  }
  for (size_t i = 0; i < s_nodes.size() && i < 200; ++i) {
    if (s_nodes[i].IsObject()) continue;
    ASSERT_TRUE(FetchChildren(*f.s, s_nodes[i], &children).ok());
    s_nodes.insert(s_nodes.end(), children.begin(), children.end());
  }
  Random rng(3);
  int checked = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const PairRef& r = r_nodes[rng.UniformInt(r_nodes.size())];
    const PairRef& s = s_nodes[rng.UniformInt(s_nodes.size())];
    if (r.IsObject() || s.IsObject()) continue;
    const double parent_dist = geom::MinDistance(r.rect, s.rect);
    std::vector<PairRef> rc, sc;
    ASSERT_TRUE(FetchChildren(*f.r, r, &rc).ok());
    ASSERT_TRUE(FetchChildren(*f.s, s, &sc).ok());
    for (const PairRef& a : rc) {
      for (const PairRef& b : sc) {
        ASSERT_GE(geom::MinDistance(a.rect, b.rect), parent_dist - 1e-12);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

// ---------------------------------------------------------------------------
// Cost-ordering properties the evaluation section reports. These are
// statements about *work*, not correctness, so they use comfortable
// margins rather than exact thresholds.

TEST(CostOrderingTest, BidirectionalBeatsUniDirectionalOnDistanceWork) {
  const geom::Rect uni(0, 0, 50000, 50000);
  JoinFixture f = MakeFixture(
      workload::TigerStreets({.street_segments = 4000, .towns = 10,
                              .seed = 71}),
      workload::TigerHydro({.hydro_objects = 1500, .towns = 10, .seed = 71}),
      32, 256);
  JoinOptions options;
  JoinStats hs, b, am;
  ASSERT_TRUE(HsKdj::Run(*f.r, *f.s, 1000, options, &hs).ok());
  ASSERT_TRUE(BKdj::Run(*f.r, *f.s, 1000, options, &b).ok());
  ASSERT_TRUE(AmKdj::Run(*f.r, *f.s, 1000, options, &am).ok());
  // The optimized plane sweep slashes distance work (Figure 10a)...
  EXPECT_LT(b.real_distance_computations, hs.real_distance_computations);
  EXPECT_LT(am.real_distance_computations, hs.real_distance_computations);
  // ...and the adaptive estimate additionally contains queue growth
  // (Figure 10b). Raw B-KDJ pays an O(fanout^2) startup while qDmax is
  // still infinite, so only AM-KDJ is asserted against B-KDJ here.
  EXPECT_LT(am.main_queue_insertions, b.main_queue_insertions);
}

TEST(CostOrderingTest, AmKdjPrunesAtLeastAsWellAsBKdjWhenOverestimated) {
  // Section 5.6: with an overestimated eDmax, AM-KDJ clamps to qDmax and
  // "always requires no more distance computation and queue insertion
  // operations than B-KDJ".
  const geom::Rect uni(0, 0, 10000, 10000);
  JoinFixture f =
      MakeFixture(workload::GaussianClusters(400, 8, 0.03, 31, uni),
                  workload::UniformRects(300, 50.0, 32, uni), 16);
  JoinOptions options;
  JoinStats b;
  ASSERT_TRUE(BKdj::Run(*f.r, *f.s, 800, options, &b).ok());
  const auto dmax = ComputeTrueDmax(*f.r, *f.s, 800, options);
  ASSERT_TRUE(dmax.ok());
  options.forced_edmax = geom::DistVal(2.0 * *dmax);
  JoinStats am;
  ASSERT_TRUE(AmKdj::Run(*f.r, *f.s, 800, options, &am).ok());
  EXPECT_LE(am.real_distance_computations, b.real_distance_computations);
  EXPECT_LE(am.main_queue_insertions, b.main_queue_insertions);
}

TEST(CostOrderingTest, UnderestimateCostBoundedByTwiceBKdj) {
  // Section 5.6: an underestimated eDmax costs at most ~2x B-KDJ (each
  // sweep region is examined at most twice).
  const geom::Rect uni(0, 0, 10000, 10000);
  JoinFixture f =
      MakeFixture(workload::GaussianClusters(400, 8, 0.03, 31, uni),
                  workload::UniformRects(300, 50.0, 32, uni), 16);
  JoinOptions options;
  JoinStats b;
  ASSERT_TRUE(BKdj::Run(*f.r, *f.s, 800, options, &b).ok());
  const auto dmax = ComputeTrueDmax(*f.r, *f.s, 800, options);
  ASSERT_TRUE(dmax.ok());
  options.forced_edmax = geom::DistVal(0.1 * *dmax);
  JoinStats am;
  ASSERT_TRUE(AmKdj::Run(*f.r, *f.s, 800, options, &am).ok());
  EXPECT_LE(am.real_distance_computations,
            2 * b.real_distance_computations + 1000);
  EXPECT_LE(am.node_accesses, 2 * b.node_accesses + 1000);
}

TEST(CostOrderingTest, CompensationQueueIsSmallerThanMainQueue) {
  // Section 5.6 observes Qc at a fraction of a percent of Qm; assert the
  // order-of-magnitude relationship.
  const geom::Rect uni(0, 0, 10000, 10000);
  JoinFixture f =
      MakeFixture(workload::GaussianClusters(500, 8, 0.03, 51, uni),
                  workload::UniformRects(400, 50.0, 52, uni), 16);
  JoinOptions options;
  const auto dmax = ComputeTrueDmax(*f.r, *f.s, 1000, options);
  ASSERT_TRUE(dmax.ok());
  options.forced_edmax =
      geom::DistVal(0.5 * *dmax);  // underestimate: Qc is exercised
  JoinStats am;
  ASSERT_TRUE(AmKdj::Run(*f.r, *f.s, 1000, options, &am).ok());
  EXPECT_GT(am.compensation_queue_insertions, 0u);
  EXPECT_LT(am.compensation_queue_insertions,
            am.main_queue_insertions / 4);
}

// ---------------------------------------------------------------------------
// Randomized end-to-end property sweep: all four KDJ algorithms agree on
// the distance sequence across random workload shapes.

class AgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AgreementTest, AllAlgorithmsAgree) {
  Random rng(GetParam());
  const geom::Rect uni(0, 0, 2000, 2000);
  const uint64_t nr = 20 + rng.UniformInt(uint64_t{150});
  const uint64_t ns = 20 + rng.UniformInt(uint64_t{150});
  const uint64_t k = 1 + rng.UniformInt(uint64_t{300});
  const uint32_t fanout = 4 + static_cast<uint32_t>(
      rng.UniformInt(uint64_t{12}));
  JoinFixture f = MakeFixture(
      workload::GaussianClusters(nr, 1 + rng.UniformInt(uint64_t{5}),
                                 0.02 + rng.NextDouble() * 0.2,
                                 GetParam() * 3 + 1, uni),
      workload::UniformRects(ns, rng.Uniform(1.0, 80.0),
                             GetParam() * 7 + 2, uni),
      fanout);
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  JoinOptions options;
  for (const auto algorithm :
       {KdjAlgorithm::kHsKdj, KdjAlgorithm::kBKdj, KdjAlgorithm::kAmKdj,
        KdjAlgorithm::kSjSort}) {
    auto result =
        RunKDistanceJoin(*f.r, *f.s, k, algorithm, options, nullptr);
    ASSERT_TRUE(result.ok());
    const size_t expect = std::min<uint64_t>(k, brute.size());
    ASSERT_EQ(result->size(), expect) << ToString(algorithm);
    for (size_t i = 0; i < expect; ++i) {
      ASSERT_NEAR((*result)[i].distance, brute[i], 1e-9)
          << ToString(algorithm) << " seed " << GetParam() << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, AgreementTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
}  // namespace amdj::core
