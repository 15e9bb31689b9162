// Concurrent read-only queries over shared trees: N threads run different
// joins / kNN searches against the same BufferPool + DiskManager; every
// thread's results must equal its own single-threaded reference. Each
// query carries its own JoinStats — buffer-pool accesses are attributed
// per-query through storage::QueryAttributionScope, so concurrent stats
// are exact, not approximate (see PerQueryStatsAttribution below and
// join_service_test.cc for the reconciliation against pool totals).

#include <atomic>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/distance_join.h"
#include "core/expansion.h"
#include "core/semi_join.h"
#include "rtree/knn.h"
#include "test_util.h"
#include "workload/generators.h"

namespace amdj {
namespace {

TEST(ConcurrencyTest, ParallelJoinsMatchSerialResults) {
  const geom::Rect uni(0, 0, 50000, 50000);
  test::JoinFixture f = test::MakeFixture(
      workload::TigerStreets({.street_segments = 6000, .seed = 90}),
      workload::TigerHydro({.hydro_objects = 2000, .seed = 90}),
      /*fanout=*/32, /*buffer_pages=*/64);  // small pool: heavy contention

  struct Task {
    core::KdjAlgorithm algorithm;
    uint64_t k;
    std::vector<core::ResultPair> expected;
  };
  std::vector<Task> tasks = {
      {core::KdjAlgorithm::kHsKdj, 500, {}},
      {core::KdjAlgorithm::kBKdj, 1500, {}},
      {core::KdjAlgorithm::kAmKdj, 3000, {}},
      {core::KdjAlgorithm::kHsKdj, 2500, {}},
      {core::KdjAlgorithm::kAmKdj, 100, {}},
      {core::KdjAlgorithm::kBKdj, 50, {}},
  };
  // Serial references.
  for (Task& t : tasks) {
    auto result = core::RunKDistanceJoin(*f.r, *f.s, t.k, t.algorithm,
                                         core::JoinOptions{}, nullptr);
    ASSERT_TRUE(result.ok());
    t.expected = std::move(*result);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int round = 0; round < 2; ++round) {
    for (const Task& t : tasks) {
      threads.emplace_back([&f, &t, &failures] {
        auto result = core::RunKDistanceJoin(*f.r, *f.s, t.k, t.algorithm,
                                             core::JoinOptions{}, nullptr);
        if (!result.ok() || result->size() != t.expected.size()) {
          ++failures;
          return;
        }
        for (size_t i = 0; i < result->size(); ++i) {
          if (std::abs((*result)[i].distance - t.expected[i].distance) >
              1e-9) {
            ++failures;
            return;
          }
        }
      });
    }
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// Each concurrent query's JoinStats must equal the stats of its own solo
// run on a fresh, identically sized pool: attribution may not bleed
// between queries racing on the shared buffer pool. (Hit/miss splits DO
// depend on interleaving, so only interleaving-independent counters are
// compared; the hit+miss sum reconciliation lives in join_service_test.)
TEST(ConcurrencyTest, PerQueryStatsAttribution) {
  const workload::Dataset r_data =
      workload::TigerStreets({.street_segments = 4000, .seed = 93});
  const workload::Dataset s_data =
      workload::TigerHydro({.hydro_objects = 1500, .seed = 93});
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 32, 48);

  struct Task {
    core::KdjAlgorithm algorithm;
    uint64_t k;
    JoinStats expected;
    JoinStats actual;
  };
  std::vector<Task> tasks = {
      {core::KdjAlgorithm::kHsKdj, 400, {}, {}},
      {core::KdjAlgorithm::kBKdj, 1200, {}, {}},
      {core::KdjAlgorithm::kAmKdj, 2500, {}, {}},
      {core::KdjAlgorithm::kAmKdj, 60, {}, {}},
  };
  // Solo references, each on its own fixture so reference stats see no
  // cross-query pool pollution either.
  for (Task& t : tasks) {
    test::JoinFixture solo = test::MakeFixture(r_data, s_data, 32, 48);
    auto result = core::RunKDistanceJoin(*solo.r, *solo.s, t.k, t.algorithm,
                                         core::JoinOptions{}, &t.expected);
    ASSERT_TRUE(result.ok());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (Task& t : tasks) {
    threads.emplace_back([&f, &t, &failures] {
      auto result = core::RunKDistanceJoin(*f.r, *f.s, t.k, t.algorithm,
                                           core::JoinOptions{}, &t.actual);
      if (!result.ok()) ++failures;
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  for (const Task& t : tasks) {
    // Same algorithm, same trees, same k => identical traversal, so the
    // access/expansion counters must match the solo run exactly.
    EXPECT_EQ(t.actual.node_accesses, t.expected.node_accesses);
    EXPECT_EQ(t.actual.node_expansions, t.expected.node_expansions);
    EXPECT_EQ(t.actual.real_distance_computations,
              t.expected.real_distance_computations);
    // Hits + misses partition the accesses, whatever the interleaving.
    EXPECT_EQ(t.actual.node_buffer_hits + t.actual.node_disk_reads,
              t.actual.node_accesses);
  }
}

TEST(ConcurrencyTest, ParallelKnnAndCursors) {
  const geom::Rect uni(0, 0, 10000, 10000);
  test::JoinFixture f = test::MakeFixture(
      workload::GaussianClusters(3000, 6, 0.05, 91, uni),
      workload::UniformRects(2000, 30.0, 92, uni), 32, 32);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Half the threads stream IDJ cursors, half run kNN queries.
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&f, &failures, i] {
      auto cursor = core::OpenIncrementalJoin(
          *f.r, *f.s,
          i % 2 == 0 ? core::IdjAlgorithm::kHsIdj
                     : core::IdjAlgorithm::kAmIdj,
          core::JoinOptions{}, nullptr);
      if (!cursor.ok()) {
        ++failures;
        return;
      }
      core::ResultPair p;
      bool done = false;
      double prev = -1.0;
      for (int n = 0; n < 800; ++n) {
        if (!(*cursor)->Next(&p, &done).ok() || done ||
            p.distance < prev - 1e-12) {
          ++failures;
          return;
        }
        prev = p.distance;
      }
    });
    threads.emplace_back([&f, &failures, i] {
      Random rng(1000 + i);
      for (int q = 0; q < 50; ++q) {
        const geom::Point query(rng.Uniform(0, 10000),
                                rng.Uniform(0, 10000));
        auto knn = rtree::NearestNeighbors(*f.r, query, 10);
        if (!knn.ok() || knn->size() != 10) {
          ++failures;
          return;
        }
        double prev = -1.0;
        for (const auto& e : *knn) {
          const double d = geom::MinDistance(
              geom::Rect::FromPoint(query), e.rect);
          if (d < prev - 1e-12) {
            ++failures;
            return;
          }
          prev = d;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// The sweep-order table under concurrency: threads sweeping trees that were
// never joined race to build and publish the same (page, orientation)
// orders. Every result must equal its serial reference, computed on a
// separate, identically built pair of trees so the concurrent run starts
// with an empty table.
TEST(ConcurrencyTest, ColdSweepOrderTableMatchesSerialReferences) {
  const workload::Dataset r_data =
      workload::TigerStreets({.street_segments = 4000, .seed = 95});
  const workload::Dataset s_data =
      workload::TigerHydro({.hydro_objects = 1500, .seed = 95});
  test::JoinFixture serial = test::MakeFixture(r_data, s_data, 32, 64);
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 32, 64);

  struct Task {
    bool idj;  // AM-IDJ cursor drained to k pairs; otherwise a KDJ run
    core::KdjAlgorithm algorithm;
    uint64_t k;
    std::vector<core::ResultPair> expected;
    std::vector<core::ResultPair> actual;
    bool ok = false;
  };
  std::vector<Task> tasks = {
      {false, core::KdjAlgorithm::kAmKdj, 2000, {}, {}},
      {false, core::KdjAlgorithm::kBKdj, 1500, {}, {}},
      {false, core::KdjAlgorithm::kSjSort, 1000, {}, {}},
      {true, core::KdjAlgorithm::kAmKdj, 1200, {}, {}},
      {false, core::KdjAlgorithm::kAmKdj, 300, {}, {}},
      {false, core::KdjAlgorithm::kBKdj, 2500, {}, {}},
      {false, core::KdjAlgorithm::kSjSort, 200, {}, {}},
      {true, core::KdjAlgorithm::kAmKdj, 400, {}, {}},
  };
  const auto run = [](const test::JoinFixture& fx, const Task& t,
                      std::vector<core::ResultPair>* out) {
    if (!t.idj) {
      auto result = core::RunKDistanceJoin(*fx.r, *fx.s, t.k, t.algorithm,
                                           core::JoinOptions{}, nullptr);
      if (!result.ok()) return false;
      *out = std::move(*result);
      return true;
    }
    auto cursor = core::OpenIncrementalJoin(
        *fx.r, *fx.s, core::IdjAlgorithm::kAmIdj, core::JoinOptions{},
        nullptr);
    if (!cursor.ok()) return false;
    core::ResultPair p;
    bool done = false;
    while (out->size() < t.k) {
      if (!(*cursor)->Next(&p, &done).ok()) return false;
      if (done) break;
      out->push_back(p);
    }
    return true;
  };
  for (Task& t : tasks) ASSERT_TRUE(run(serial, t, &t.expected));
  ASSERT_EQ(f.r->sweep_orders().order_count(), 0u);
  ASSERT_EQ(f.s->sweep_orders().order_count(), 0u);

  std::latch start(static_cast<std::ptrdiff_t>(tasks.size()));
  std::vector<std::thread> threads;
  for (Task& t : tasks) {
    threads.emplace_back([&f, &t, &run, &start] {
      start.arrive_and_wait();
      t.ok = run(f, t, &t.actual);
    });
  }
  for (auto& th : threads) th.join();
  for (const Task& t : tasks) {
    EXPECT_TRUE(t.ok);
    EXPECT_EQ(t.actual, t.expected)
        << (t.idj ? "AM-IDJ" : core::ToString(t.algorithm)) << " k=" << t.k;
  }
  EXPECT_GT(f.r->sweep_orders().order_count(), 0u);
  EXPECT_EQ(f.r->sweep_orders().order_count(),
            serial.r->sweep_orders().order_count());
}

// The buffer pool under concurrent node fetches: the service's queries
// fetch children concurrently through one pool, so a pool much smaller
// than the working set must evict under contention without handing out a
// torn or recycled page.
TEST(ParallelBufferPoolTest, ConcurrentFetchChildrenUnderEviction) {
  workload::TigerSynthOptions wopts;
  wopts.street_segments = 3000;
  wopts.hydro_objects = 1000;
  wopts.seed = 3;
  test::JoinFixture f = test::MakeFixture(workload::TigerStreets(wopts),
                                          workload::TigerHydro(wopts), 16,
                                          /*buffer_pages=*/12);
  // Reference child lists, collected single-threaded.
  std::vector<core::PairRef> roots = {core::RootRef(*f.r),
                                      core::RootRef(*f.s)};
  std::vector<std::vector<core::PairRef>> levels[2];
  for (int t = 0; t < 2; ++t) {
    const rtree::RTree& tree = t == 0 ? *f.r : *f.s;
    std::vector<core::PairRef> frontier = {roots[static_cast<size_t>(t)]};
    while (!frontier.empty() && !frontier.front().IsObject()) {
      levels[t].push_back(frontier);
      std::vector<core::PairRef> next;
      for (const core::PairRef& ref : frontier) {
        std::vector<core::PairRef> children;
        ASSERT_TRUE(core::ChildList(tree, ref, &children).ok());
        next.insert(next.end(), children.begin(), children.end());
      }
      frontier = std::move(next);
    }
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&f, &levels, &failures, w] {
      const rtree::RTree& tree = w % 2 == 0 ? *f.r : *f.s;
      const auto& my_levels = levels[w % 2];
      std::vector<core::PairRef> children;
      for (int round = 0; round < 30; ++round) {
        for (const auto& level : my_levels) {
          const core::PairRef& ref =
              level[static_cast<size_t>(round * 31 + w) % level.size()];
          if (!core::ChildList(tree, ref, &children).ok() || children.empty()) {
            ++failures;
            return;
          }
          // Children must be contained in the parent MBR.
          for (const core::PairRef& child : children) {
            if (!ref.rect.Contains(child.rect)) {
              ++failures;
              return;
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace amdj
