// The per-tree sweep-order table: a cached order must give exactly the
// side a fresh (key, id) sort gives, and an order that no longer matches
// its page must cost time, never an answer.

#include "rtree/sweep_order.h"

#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "core/expansion.h"
#include "core/plane_sweeper.h"
#include "test_util.h"
#include "workload/generators.h"

namespace amdj::core {
namespace {

using geom::Rect;
using geom::SweepDirection;
using test::Distances;
using test::SweepingJoins;

/// Every node page of `tree` as the ref a join would expand it through.
std::vector<PairRef> AllNodeRefs(const rtree::RTree& tree) {
  std::vector<PairRef> refs = {RootRef(tree)};
  for (size_t i = 0; i < refs.size(); ++i) {
    if (refs[i].level == 0) continue;
    std::vector<PairRef> children;
    EXPECT_TRUE(FetchChildren(tree, refs[i], &children).ok());
    refs.insert(refs.end(), children.begin(), children.end());
  }
  return refs;
}

void ExpectSameSide(const SweepSide& got, const SweepSide& want) {
  ASSERT_EQ(got.size, want.size);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.level, want.level);
  for (size_t k = 0; k < want.size; ++k) {
    EXPECT_EQ(got.ids[k], want.ids[k]) << "slot " << k;
    EXPECT_EQ(got.key_lo[k], want.key_lo[k]) << "slot " << k;
    EXPECT_EQ(got.key_hi[k], want.key_hi[k]) << "slot " << k;
    EXPECT_EQ(got.RectAt(k), want.RectAt(k)) << "slot " << k;
  }
}

/// Reverses the entry slots of every node page in place, behind the tree's
/// back: the tree stays the same set of nodes, but every cached order of a
/// page with two or more children now gathers out of order.
void ReverseEveryPage(const rtree::RTree& tree) {
  for (const PairRef& ref : AllNodeRefs(tree)) {
    auto guard = tree.buffer_pool()->FetchPage(ref.id);
    ASSERT_TRUE(guard.ok());
    rtree::Node node;
    ASSERT_TRUE(rtree::Node::Deserialize(guard->data(), &node).ok());
    std::reverse(node.entries.begin(), node.entries.end());
    node.Serialize(guard->MutableData());
  }
}

/// Only the counters that do not depend on buffer timing or wall time.
void ExpectSameWork(const JoinStats& a, const JoinStats& b) {
  EXPECT_EQ(a.node_accesses, b.node_accesses);
  EXPECT_EQ(a.node_expansions, b.node_expansions);
  EXPECT_EQ(a.axis_distance_computations, b.axis_distance_computations);
  EXPECT_EQ(a.real_distance_computations, b.real_distance_computations);
  EXPECT_EQ(a.main_queue_insertions, b.main_queue_insertions);
  EXPECT_EQ(a.compensation_queue_insertions,
            b.compensation_queue_insertions);
}

class SweepOrderTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    f_ = test::MakeFixture(
        workload::TigerStreets({.street_segments = 3000, .seed = 7}),
        workload::TigerHydro({.hydro_objects = 1200, .seed = 7}),
        /*fanout=*/48, /*buffer_pages=*/32);
  }
  test::JoinFixture f_;
};

TEST_F(SweepOrderTableTest, GatherEqualsFreshSortOnEveryPageAndOrientation) {
  const Rect bounds = f_.r->bounds();
  const Rect window(bounds.lo.x + bounds.Side(0) * 0.2,
                    bounds.lo.y + bounds.Side(1) * 0.1,
                    bounds.lo.x + bounds.Side(0) * 0.7,
                    bounds.lo.y + bounds.Side(1) * 0.8);
  const std::vector<PairRef> refs = AllNodeRefs(*f_.r);
  ASSERT_GT(refs.size(), 20u);
  EXPECT_EQ(f_.r->sweep_orders().order_count(), 0u);
  SweepSide fresh;
  SweepSide side;
  // Pass 0 publishes (first windowed, then unwindowed touches); pass 1
  // gathers every side from the table.
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::optional<Rect>& w :
         {std::optional<Rect>(window), std::optional<Rect>()}) {
      for (const PairRef& ref : refs) {
        std::vector<PairRef> children;
        ASSERT_TRUE(ChildList(*f_.r, ref, w, &children).ok());
        for (int axis = 0; axis < 2; ++axis) {
          for (const auto dir :
               {SweepDirection::kForward, SweepDirection::kBackward}) {
            const SweepPlan plan{axis, dir};
            fresh.Build(children, axis, dir == SweepDirection::kForward);
            if (children.empty()) {
              fresh.kind = ref.level == 0 ? RefKind::kObject : RefKind::kNode;
              fresh.level = ref.level == 0 ? 0 : ref.level - 1;
            }
            ASSERT_TRUE(LoadSweepSide(*f_.r, ref, w, plan, &side).ok());
            ExpectSameSide(side, fresh);
          }
        }
      }
    }
    // Every page with two or more children now has all four orders, of
    // one length byte plus one byte per child each.
    size_t expected = 0;
    size_t order_bytes = 0;
    for (const PairRef& ref : refs) {
      std::vector<PairRef> children;
      ASSERT_TRUE(FetchChildren(*f_.r, ref, &children).ok());
      if (children.size() < 2) continue;
      for (int o = 0; o < rtree::kSweepOrientations; ++o) {
        EXPECT_EQ(f_.r->sweep_orders().Find(ref.id, o).size(),
                  children.size());
        ++expected;
        order_bytes += 1 + children.size();
      }
    }
    EXPECT_EQ(f_.r->sweep_orders().order_count(), expected);
    // Plus the slot array: one slot per (page id, orientation) up to the
    // tree's highest page, at most twice the page file's.
    storage::PageId max_page = 0;
    for (const PairRef& ref : refs) max_page = std::max(max_page, ref.id);
    const size_t slot_bytes = f_.r->sweep_orders().bytes() - order_bytes;
    EXPECT_GE(slot_bytes,
              (max_page + 1) * rtree::kSweepOrientations * sizeof(void*));
    EXPECT_LE(slot_bytes, 2 * f_.tree_disk->PageCount() *
                              rtree::kSweepOrientations * sizeof(void*));
  }
}

TEST_F(SweepOrderTableTest, BufferClearKeepsOrdersAndMutationDropsThem) {
  auto first = RunKDistanceJoin(*f_.r, *f_.s, 500, KdjAlgorithm::kAmKdj,
                                JoinOptions{}, nullptr);
  ASSERT_TRUE(first.ok());
  const size_t orders = f_.r->sweep_orders().order_count();
  EXPECT_GT(orders, 0u);
  EXPECT_GT(f_.s->sweep_orders().order_count(), 0u);
  ASSERT_TRUE(f_.pool->Clear().ok());
  EXPECT_EQ(f_.r->sweep_orders().order_count(), orders);

  bool found = false;
  ASSERT_TRUE(f_.r->Delete(f_.r_objects[0], 0, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(f_.r->sweep_orders().order_count(), 0u);
  EXPECT_GT(f_.s->sweep_orders().order_count(), 0u);  // s was not mutated
  ASSERT_TRUE(f_.r->Insert(f_.r_objects[0], 0).ok());
  EXPECT_EQ(f_.r->sweep_orders().order_count(), 0u);
  ASSERT_TRUE(f_.pool->Clear().ok());
  auto again = RunKDistanceJoin(*f_.r, *f_.s, 500, KdjAlgorithm::kAmKdj,
                                JoinOptions{}, nullptr);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Distances(*again), Distances(*first));
  EXPECT_GT(f_.r->sweep_orders().order_count(), 0u);
}

TEST_F(SweepOrderTableTest, PageRewrittenBehindTheTreeFallsBackToSorting) {
  const uint64_t k = 2000;
  std::vector<JoinStats> before_stats;
  const auto before = SweepingJoins(*f_.r, *f_.s, k, &before_stats);
  const size_t r_orders = f_.r->sweep_orders().order_count();
  ASSERT_GT(r_orders, 0u);

  // Same nodes, reversed slots: every cached order is now stale, and a
  // sweep sorted by (key, id) is unchanged — so is every answer and every
  // work counter.
  ReverseEveryPage(*f_.r);
  ReverseEveryPage(*f_.s);
  std::vector<JoinStats> after_stats;
  const auto after = SweepingJoins(*f_.r, *f_.s, k, &after_stats);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]) << "join " << i;
    ExpectSameWork(after_stats[i], before_stats[i]);
  }
  // Stale orders are ignored, not replaced.
  EXPECT_EQ(f_.r->sweep_orders().order_count(), r_orders);

  ASSERT_TRUE(f_.pool->Clear().ok());
  auto hs = RunKDistanceJoin(*f_.r, *f_.s, k, KdjAlgorithm::kHsKdj,
                             JoinOptions{}, nullptr);
  ASSERT_TRUE(hs.ok());
  for (const auto& result : after) {
    EXPECT_EQ(Distances(result), Distances(*hs));
  }
}

TEST(SweepOrderTableSharedFileTest, SecondTreeRewritesPagesBehindTheFirst) {
  // Tree A is joined (filling its table); tree B, opened over A's pages,
  // then inserts into them. A's cached orders no longer match the rewritten
  // pages, and A's sweeping joins must still equal HS-KDJ over the same
  // pages — and the brute force over the objects now stored there.
  const Rect uni(0, 0, 10000, 10000);
  const workload::Dataset r_data = workload::UniformPoints(1500, 11, uni);
  const workload::Dataset s_data = workload::UniformPoints(800, 12, uni);
  test::JoinFixture f = test::MakeFixture(r_data, s_data, /*fanout=*/32);
  const uint64_t k = 1500;
  std::vector<JoinStats> stats;
  SweepingJoins(*f.r, *f.s, k, &stats);
  ASSERT_GT(f.r->sweep_orders().order_count(), 0u);

  auto b = rtree::RTree::Open(f.pool.get(), f.r->ToMeta(),
                              rtree::RTree::Options());
  ASSERT_TRUE(b.ok());
  // Inside A's bounds and few enough that the root does not split, so A's
  // root, height and bounds still describe the pages.
  const workload::Dataset extra = workload::UniformPoints(300, 13, uni);
  std::vector<Rect> r_objects = f.r_objects;
  for (const Rect& rect : extra.objects) {
    ASSERT_TRUE((*b)->Insert(rect, static_cast<uint32_t>(r_objects.size()))
                    .ok());
    r_objects.push_back(rect);
  }
  ASSERT_EQ((*b)->root(), f.r->root());
  ASSERT_EQ((*b)->height(), f.r->height());

  const auto after = SweepingJoins(*f.r, *f.s, k, &stats);
  ASSERT_TRUE(f.pool->Clear().ok());
  auto hs = RunKDistanceJoin(*f.r, *f.s, k, KdjAlgorithm::kHsKdj,
                             JoinOptions{}, nullptr);
  ASSERT_TRUE(hs.ok());
  const std::vector<double> brute =
      test::BruteForceDistances(r_objects, f.s_objects);
  for (const auto& result : after) {
    EXPECT_EQ(Distances(result), Distances(*hs));
    test::ExpectMatchesBruteForce(result, brute, k, r_objects, f.s_objects);
  }
}

}  // namespace
}  // namespace amdj::core
