// Microbenchmarks for the sweep machinery: sweeping-index evaluation (the
// paper argues it is "a trivial cost"; verify), one full plane sweep
// versus the Cartesian product it replaces, the sweep loop alone over two
// filled page sides, and filling one sweep side from a node page with and
// without its cached sweep order.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>

#include "common/logging.h"
#include "common/random.h"
#include "core/plane_sweeper.h"
#include "core/sweep_plan.h"
#include "geom/metric.h"
#include "geom/sweep_geometry.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "rtree/sweep_order.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace amdj {
namespace {

void BM_SweepingIndex(benchmark::State& state) {
  Random rng(1);
  std::vector<std::pair<geom::Rect, geom::Rect>> pairs;
  for (int i = 0; i < 1024; ++i) {
    auto rect = [&] {
      const double x = rng.Uniform(0, 1000);
      const double y = rng.Uniform(0, 1000);
      return geom::Rect(x, y, x + rng.Uniform(1, 100),
                        y + rng.Uniform(1, 100));
    };
    pairs.emplace_back(rect(), rect());
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [r, s] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(geom::SweepingIndex(r, s, 25.0, 0));
    benchmark::DoNotOptimize(geom::SweepingIndex(r, s, 25.0, 1));
  }
}
BENCHMARK(BM_SweepingIndex);

void BM_ChooseSweepPlan(benchmark::State& state) {
  Random rng(2);
  const geom::Rect r(0, 0, 120, 400);
  const geom::Rect s(100, 50, 260, 500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ChooseSweepPlan(
        r, s, geom::DistVal(20.0), core::SweepStrategy::kOptimized));
  }
}
BENCHMARK(BM_ChooseSweepPlan);

std::vector<core::PairRef> MakeRefs(uint64_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<core::PairRef> refs(n);
  for (uint64_t i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, 10000);
    const double y = rng.Uniform(0, 10000);
    refs[i].rect = geom::Rect(x, y, x + 10, y + 10);
    refs[i].id = static_cast<uint32_t>(i);
  }
  return refs;
}

void BM_PlaneSweepKeyed(benchmark::State& state) {
  const auto left = MakeRefs(static_cast<uint64_t>(state.range(0)), 3);
  const auto right = MakeRefs(static_cast<uint64_t>(state.range(0)), 4);
  const double cutoff = static_cast<double>(state.range(1));
  const geom::KeyVal cutoff_key =
      geom::DistanceToKey(geom::DistVal(cutoff), geom::Metric::kL2);
  const core::SweepPlan plan{0, geom::SweepDirection::kForward};
  core::KeyedSweepSpec spec;
  spec.metric = geom::Metric::kL2;
  spec.axis_cutoff_key = &cutoff_key;
  spec.dist_cutoff_key = &cutoff_key;
  for (auto _ : state) {
    uint64_t emitted = 0;
    core::PlaneSweepKeyed(left, right, plan, spec, nullptr,
                          [&](const core::PairRef&, const core::PairRef&,
                              geom::KeyVal) { ++emitted; });
    benchmark::DoNotOptimize(emitted);
  }
}
BENCHMARK(BM_PlaneSweepKeyed)
    ->Args({113, 50})      // typical node pair, tight cutoff
    ->Args({113, 10000});  // loose cutoff: degenerates toward Cartesian

// A full (113-entry) leaf page of an STR-loaded tree over uniform
// rectangles, copied out of the buffer pool: the page a join sweeps. The
// first leaf of every seed covers about the same region, so two seeds give
// two overlapping pages, as a join's node pair has.
std::array<char, storage::kPageSize> FullLeafPage(uint64_t seed = 5) {
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool(&disk, 64);
  auto tree = rtree::RTree::Create(&pool, rtree::RTree::Options()).value();
  Random rng(seed);
  std::vector<rtree::Entry> objects;
  objects.reserve(4 * rtree::kMaxEntriesPerPage);
  for (uint32_t i = 0; i < 4 * rtree::kMaxEntriesPerPage; ++i) {
    const double x = rng.Uniform(0, 10000);
    const double y = rng.Uniform(0, 10000);
    objects.emplace_back(geom::Rect(x, y, x + 10, y + 10), i);
  }
  AMDJ_CHECK(tree->BulkLoad(std::move(objects), /*fill=*/1.0).ok());
  rtree::Node root;
  AMDJ_CHECK(tree->ReadNode(tree->root(), &root).ok());
  auto guard = pool.FetchPage(root.entries[0].id);
  AMDJ_CHECK(guard.ok());
  std::array<char, storage::kPageSize> page;
  std::copy(guard->data(), guard->data() + storage::kPageSize, page.begin());
  return page;
}

// The sweep loop alone: both sides are filled once from two overlapping
// full leaf pages, and each iteration runs only PlaneSweepKeyed over them
// (BM_PlaneSweepKeyed also sorts both lists every iteration). A cutoff of
// 50 is a join's tight case, where most anchors have no candidate in
// range; 1<<20 exceeds every distance between the pages (Cartesian).
void BM_PlaneSweepKeyedArena(benchmark::State& state) {
  const auto left_page = FullLeafPage(5);
  const auto right_page = FullLeafPage(6);
  rtree::NodeView left, right;
  AMDJ_CHECK(rtree::NodeView::Parse(left_page.data(), &left).ok());
  AMDJ_CHECK(rtree::NodeView::Parse(right_page.data(), &right).ok());
  rtree::SweepOrderTable orders;
  orders.Reset(2);
  auto arena = std::make_unique<core::SweepArena>();
  arena->left.Build(left, 0, orders, std::nullopt, 0, true);
  arena->right.Build(right, 1, orders, std::nullopt, 0, true);
  AMDJ_CHECK(arena->left.size == rtree::kMaxEntriesPerPage &&
             arena->right.size == rtree::kMaxEntriesPerPage);
  const geom::KeyVal cutoff_key = geom::DistanceToKey(
      geom::DistVal(static_cast<double>(state.range(0))), geom::Metric::kL2);
  core::KeyedSweepSpec spec;
  spec.metric = geom::Metric::kL2;
  spec.axis_cutoff_key = &cutoff_key;
  spec.dist_cutoff_key = &cutoff_key;
  uint64_t emitted = 0;
  for (auto _ : state) {
    core::PlaneSweepKeyed(arena.get(), spec, nullptr,
                          [&](const core::PairRef&, const core::PairRef&,
                              geom::KeyVal) { ++emitted; });
    benchmark::DoNotOptimize(emitted);
  }
  state.counters["pairs"] = benchmark::Counter(
      static_cast<double>(emitted), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PlaneSweepKeyedArena)
    ->ArgName("cutoff")
    ->Arg(50)
    ->Arg(1 << 20);

// Filling one side from the page when the table has no order for it yet:
// the sort, the order's publication, and (by the Reset each iteration)
// freeing it again.
void BM_SweepSideFirstTouch(benchmark::State& state) {
  const auto page = FullLeafPage();
  rtree::NodeView node;
  AMDJ_CHECK(rtree::NodeView::Parse(page.data(), &node).ok());
  AMDJ_CHECK(node.count() == rtree::kMaxEntriesPerPage);
  rtree::SweepOrderTable orders;
  core::SweepSide side;
  for (auto _ : state) {
    orders.Reset(1);
    side.Build(node, 0, orders, std::nullopt, 0, true);
    benchmark::DoNotOptimize(side.key_lo.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SweepSideFirstTouch);

// The same fill with the page's order cached: a validated gather.
void BM_SweepSideCached(benchmark::State& state) {
  const auto page = FullLeafPage();
  rtree::NodeView node;
  AMDJ_CHECK(rtree::NodeView::Parse(page.data(), &node).ok());
  AMDJ_CHECK(node.count() == rtree::kMaxEntriesPerPage);
  rtree::SweepOrderTable orders;
  orders.Reset(1);
  core::SweepSide side;
  side.Build(node, 0, orders, std::nullopt, 0, true);  // publishes
  AMDJ_CHECK(orders.order_count() == 1);
  for (auto _ : state) {
    side.Build(node, 0, orders, std::nullopt, 0, true);
    benchmark::DoNotOptimize(side.key_lo.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SweepSideCached);

void BM_CartesianBaseline(benchmark::State& state) {
  const auto left = MakeRefs(113, 3);
  const auto right = MakeRefs(113, 4);
  for (auto _ : state) {
    double sum = 0;
    for (const auto& l : left) {
      for (const auto& r : right) {
        sum += geom::MinDistance(l.rect, r.rect);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CartesianBaseline);

}  // namespace
}  // namespace amdj

BENCHMARK_MAIN();
