// Bit-for-bit determinism: identical seeds and options must produce
// identical results and identical work counters across runs — the property
// every EXPERIMENTS.md number relies on, and a tripwire for hidden
// iteration-order or uninitialized-memory nondeterminism.

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "core/semi_join.h"
#include "geom/kernels.h"
#include "test_util.h"
#include "workload/generators.h"

namespace amdj::core {
namespace {

struct RunOutput {
  std::vector<ResultPair> results;
  uint64_t distance_computations;
  uint64_t queue_insertions;
  uint64_t node_accesses;
};

RunOutput RunOnce(KdjAlgorithm algorithm, uint64_t seed) {
  const geom::Rect uni(0, 0, 50000, 50000);
  workload::TigerSynthOptions wopts;
  wopts.street_segments = 4000;
  wopts.hydro_objects = 1200;
  wopts.seed = seed;
  test::JoinFixture f = test::MakeFixture(workload::TigerStreets(wopts),
                                          workload::TigerHydro(wopts), 32,
                                          128);
  JoinOptions options;
  options.queue_disk = f.queue_disk.get();
  options.queue_memory_bytes = 32 * 1024;
  JoinStats stats;
  auto result = RunKDistanceJoin(*f.r, *f.s, 2000, algorithm, options,
                                 &stats);
  EXPECT_TRUE(result.ok());
  return {std::move(*result), stats.real_distance_computations,
          stats.main_queue_insertions, stats.node_accesses};
}

class DeterminismTest : public ::testing::TestWithParam<KdjAlgorithm> {};

TEST_P(DeterminismTest, RepeatedRunsAreBitIdentical) {
  const RunOutput a = RunOnce(GetParam(), 424242);
  const RunOutput b = RunOnce(GetParam(), 424242);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_EQ(a.results[i], b.results[i]) << "rank " << i;
  }
  EXPECT_EQ(a.distance_computations, b.distance_computations);
  EXPECT_EQ(a.queue_insertions, b.queue_insertions);
  EXPECT_EQ(a.node_accesses, b.node_accesses);
}

TEST_P(DeterminismTest, DifferentSeedsDiffer) {
  const RunOutput a = RunOnce(GetParam(), 1);
  const RunOutput b = RunOnce(GetParam(), 2);
  // Same cardinality but (astronomically likely) different content.
  ASSERT_EQ(a.results.size(), b.results.size());
  bool any_diff = false;
  for (size_t i = 0; i < a.results.size() && !any_diff; ++i) {
    any_diff = !(a.results[i] == b.results[i]);
  }
  EXPECT_TRUE(any_diff);
}

// The squared-distance/key refactor and the SIMD kernels must not change a
// single emitted pair or its position: a run pinned to the scalar kernels
// must be bit-identical — results, order, and work counters — to a run on
// the dispatched (possibly SIMD) backend. This is the end-to-end form of
// the kernels' bit-exactness contract.
TEST_P(DeterminismTest, ScalarAndSimdBackendsEmitIdenticalPairOrder) {
  geom::ForceKernelBackend(geom::KernelBackend::kScalar);
  const RunOutput scalar = RunOnce(GetParam(), 424242);
  geom::ResetKernelBackend();
  const RunOutput dispatched = RunOnce(GetParam(), 424242);
  ASSERT_EQ(scalar.results.size(), dispatched.results.size());
  for (size_t i = 0; i < scalar.results.size(); ++i) {
    ASSERT_EQ(scalar.results[i], dispatched.results[i])
        << "rank " << i << " differs between scalar and "
        << ToString(geom::ActiveKernelBackend()) << " backends";
  }
  EXPECT_EQ(scalar.distance_computations, dispatched.distance_computations);
  EXPECT_EQ(scalar.queue_insertions, dispatched.queue_insertions);
  EXPECT_EQ(scalar.node_accesses, dispatched.node_accesses);
}

INSTANTIATE_TEST_SUITE_P(AllKdj, DeterminismTest,
                         ::testing::Values(KdjAlgorithm::kHsKdj,
                                           KdjAlgorithm::kBKdj,
                                           KdjAlgorithm::kAmKdj,
                                           KdjAlgorithm::kSjSort),
                         [](const auto& info) {
                           std::string n = ToString(info.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

TEST(DeterminismTest, SemiJoinIsDeterministic) {
  const geom::Rect uni(0, 0, 10000, 10000);
  auto run = [&] {
    test::JoinFixture f = test::MakeFixture(
        workload::GaussianClusters(500, 5, 0.04, 9, uni),
        workload::UniformRects(400, 30.0, 10, uni), 16);
    return *DistanceSemiJoin(*f.r, *f.s, JoinOptions{},
                             SemiJoinStrategy::kIncrementalJoin, nullptr);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].r_id, b[i].r_id);
    EXPECT_EQ(a[i].s_id, b[i].s_id);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
}

}  // namespace
}  // namespace amdj::core
