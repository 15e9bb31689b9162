#include <gtest/gtest.h>

#include "core/amidj.h"
#include "core/distance_join.h"
#include "test_util.h"
#include "workload/generators.h"

namespace amdj::core {
namespace {

using test::BruteForceDistances;
using test::ExpectNoDuplicates;
using test::JoinFixture;
using test::MakeFixture;

JoinFixture ClusterFixture(uint64_t nr = 250, uint64_t ns = 180,
                           uint32_t fanout = 8) {
  const geom::Rect uni(0, 0, 10000, 10000);
  return MakeFixture(workload::GaussianClusters(nr, 6, 0.05, 41, uni),
                     workload::UniformRects(ns, 40.0, 42, uni), fanout);
}

std::vector<ResultPair> Drain(DistanceJoinCursor& cursor, uint64_t limit) {
  std::vector<ResultPair> out;
  ResultPair pair;
  bool done = false;
  while (out.size() < limit) {
    EXPECT_TRUE(cursor.Next(&pair, &done).ok());
    if (done) break;
    out.push_back(pair);
  }
  return out;
}

class IdjTest : public ::testing::TestWithParam<IdjAlgorithm> {};

TEST_P(IdjTest, ProducesAllPairsInOrder) {
  JoinFixture f = ClusterFixture(60, 40);
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  JoinOptions options;
  options.idj_initial_k = 16;  // force many AM-IDJ stages
  JoinStats stats;
  auto cursor =
      OpenIncrementalJoin(*f.r, *f.s, GetParam(), options, &stats);
  ASSERT_TRUE(cursor.ok());
  const auto results = Drain(**cursor, brute.size() + 10);
  ASSERT_EQ(results.size(), brute.size());  // exhausts exactly the product
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_NEAR(results[i].distance, brute[i], 1e-9) << "rank " << i;
    if (i > 0) {
      EXPECT_GE(results[i].distance, results[i - 1].distance);
    }
  }
  ExpectNoDuplicates(results);
  EXPECT_EQ((*cursor)->produced(), brute.size());
  EXPECT_EQ(stats.pairs_produced, brute.size());

  // A drained cursor keeps reporting done without error.
  ResultPair pair;
  bool done = false;
  ASSERT_TRUE((*cursor)->Next(&pair, &done).ok());
  EXPECT_TRUE(done);
}

TEST_P(IdjTest, PrefixMatchesKdj) {
  JoinFixture f = ClusterFixture();
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  JoinOptions options;
  auto cursor =
      OpenIncrementalJoin(*f.r, *f.s, GetParam(), options, nullptr);
  ASSERT_TRUE(cursor.ok());
  const auto results = Drain(**cursor, 500);
  ASSERT_EQ(results.size(), 500u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_NEAR(results[i].distance, brute[i], 1e-9) << "rank " << i;
  }
}

TEST_P(IdjTest, EmptyInputsFinishImmediately) {
  workload::Dataset empty;
  workload::Dataset one;
  one.objects = {geom::Rect(0, 0, 1, 1)};
  JoinFixture f = MakeFixture(empty, one);
  auto cursor =
      OpenIncrementalJoin(*f.r, *f.s, GetParam(), JoinOptions{}, nullptr);
  ASSERT_TRUE(cursor.ok());
  ResultPair pair;
  bool done = false;
  ASSERT_TRUE((*cursor)->Next(&pair, &done).ok());
  EXPECT_TRUE(done);
}

TEST_P(IdjTest, SpillingQueueDoesNotChangeResults) {
  JoinFixture f = ClusterFixture(150, 120);
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  JoinOptions options;
  options.queue_disk = f.queue_disk.get();
  options.queue_memory_bytes = 8 * 1024;  // tiny: heavy spilling
  auto cursor =
      OpenIncrementalJoin(*f.r, *f.s, GetParam(), options, nullptr);
  ASSERT_TRUE(cursor.ok());
  const auto results = Drain(**cursor, 2000);
  ASSERT_EQ(results.size(), 2000u);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_NEAR(results[i].distance, brute[i], 1e-9) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, IdjTest,
                         ::testing::Values(IdjAlgorithm::kHsIdj,
                                           IdjAlgorithm::kAmIdj),
                         [](const auto& info) {
                           return info.param == IdjAlgorithm::kHsIdj
                                      ? "HsIdj"
                                      : "AmIdj";
                         });

TEST(AmIdjTest, StepwiseBatchesStayOrderedAcrossStages) {
  JoinFixture f = ClusterFixture();
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  JoinOptions options;
  options.idj_initial_k = 50;
  AmIdjCursor cursor(*f.r, *f.s, options, nullptr);
  // Simulate a user repeatedly asking for batches of 100.
  std::vector<ResultPair> all;
  for (int batch = 0; batch < 8; ++batch) {
    cursor.PrefetchHint(all.size() + 100);
    const auto part = Drain(cursor, 100);
    all.insert(all.end(), part.begin(), part.end());
  }
  ASSERT_EQ(all.size(), 800u);
  EXPECT_GT(cursor.stage_count(), 1u);  // initial_k 50 forces compensation
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_NEAR(all[i].distance, brute[i], 1e-9) << "rank " << i;
  }
}

TEST(AmIdjTest, ForcedStageEdmaxScheduleIsRespectedAndCorrect) {
  JoinFixture f = ClusterFixture(100, 80);
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  JoinOptions options;
  AmIdjCursor cursor(*f.r, *f.s, options, nullptr);
  // Drive with the *true* Dmax schedule (Figure 15's oracle variant):
  // each batch of 200 ends exactly at the real k-th distance.
  std::vector<ResultPair> all;
  for (int batch = 1; batch <= 5; ++batch) {
    const size_t target = batch * 200;
    cursor.ForceNextStageEdmax(geom::DistVal(brute[target - 1]));
    const auto part = Drain(cursor, target - all.size());
    all.insert(all.end(), part.begin(), part.end());
    ASSERT_EQ(all.size(), target);
  }
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_NEAR(all[i].distance, brute[i], 1e-9) << "rank " << i;
  }
}

TEST(AmIdjTest, UnderestimatedForcedEdmaxStillCorrect) {
  JoinFixture f = ClusterFixture(100, 80);
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  JoinOptions options;
  options.forced_edmax = geom::DistVal(brute[3] * 0.5);  // absurdly aggressive first stage
  options.idj_initial_k = 4;
  AmIdjCursor cursor(*f.r, *f.s, options, nullptr);
  const auto results = Drain(cursor, 500);
  ASSERT_EQ(results.size(), 500u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_NEAR(results[i].distance, brute[i], 1e-9) << "rank " << i;
  }
  EXPECT_GT(cursor.stage_count(), 2u);
}

TEST(AmIdjTest, CorrectionPoliciesAllCorrect) {
  JoinFixture f = ClusterFixture(80, 60);
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  for (const auto policy :
       {CorrectionPolicy::kAggressive, CorrectionPolicy::kConservative,
        CorrectionPolicy::kArithmeticOnly, CorrectionPolicy::kGeometricOnly}) {
    JoinOptions options;
    options.correction = policy;
    options.idj_initial_k = 8;
    AmIdjCursor cursor(*f.r, *f.s, options, nullptr);
    const auto results = Drain(cursor, 300);
    ASSERT_EQ(results.size(), 300u);
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_NEAR(results[i].distance, brute[i], 1e-9)
          << "policy " << static_cast<int>(policy) << " rank " << i;
    }
  }
}

TEST(AmIdjTest, HintSizesFirstStage) {
  JoinFixture f = ClusterFixture(100, 80);
  JoinOptions options;
  options.idj_initial_k = 10;
  AmIdjCursor small_hint(*f.r, *f.s, options, nullptr);
  AmIdjCursor big_hint(*f.r, *f.s, options, nullptr);
  big_hint.PrefetchHint(2000);
  Drain(small_hint, 1);
  Drain(big_hint, 1);
  // The hinted cursor starts with a larger (k-scaled) cutoff.
  EXPECT_GT(big_hint.current_edmax(), small_hint.current_edmax());
}

}  // namespace
}  // namespace amdj::core
