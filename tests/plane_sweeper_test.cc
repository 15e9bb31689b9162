#include "core/plane_sweeper.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/expansion.h"
#include "test_util.h"

namespace amdj::core {
namespace {

using geom::KeyVal;
using geom::Metric;
using geom::Rect;
using geom::SweepDirection;

constexpr double kInf = std::numeric_limits<double>::infinity();
const KeyVal kNoFilter{kInf};

std::vector<PairRef> MakeRefs(const std::vector<Rect>& rects,
                              uint32_t id_base) {
  std::vector<PairRef> refs;
  for (size_t i = 0; i < rects.size(); ++i) {
    PairRef r;
    r.rect = rects[i];
    r.id = id_base + static_cast<uint32_t>(i);
    r.kind = RefKind::kObject;
    refs.push_back(r);
  }
  return refs;
}

KeyVal AxisKey(const PairRef& l, const PairRef& r, int axis, Metric metric) {
  return geom::AxisGapToKey(geom::AxisDistance(l.rect, r.rect, axis), metric);
}

/// Reference: all pairs whose axis separation key is <= `axis_cut`.
std::set<std::pair<uint32_t, uint32_t>> BruteWithin(
    const std::vector<PairRef>& left, const std::vector<PairRef>& right,
    int axis, KeyVal axis_cut, Metric metric = Metric::kL2) {
  std::set<std::pair<uint32_t, uint32_t>> out;
  for (const auto& l : left) {
    for (const auto& r : right) {
      if (AxisKey(l, r, axis, metric) <= axis_cut) out.insert({l.id, r.id});
    }
  }
  return out;
}

KeyVal Key(double distance, Metric metric = Metric::kL2) {
  return geom::DistanceToKey(geom::DistVal(distance), metric);
}

/// The pairs a keyed sweep reports with its axis cutoff at `axis_cut` and
/// no distance filter, checking each report against the geometry.
std::set<std::pair<uint32_t, uint32_t>> SweepPairs(
    const std::vector<PairRef>& left, const std::vector<PairRef>& right,
    const SweepPlan& plan, KeyVal axis_cut, bool* covered = nullptr,
    JoinStats* stats = nullptr, Metric metric = Metric::kL2) {
  std::set<std::pair<uint32_t, uint32_t>> out;
  KeyedSweepSpec spec;
  spec.metric = metric;
  spec.axis_cutoff_key = &axis_cut;
  spec.dist_cutoff_key = &kNoFilter;
  const KeyedSweepResult result = PlaneSweepKeyed(
      left, right, plan, spec, stats,
      [&](const PairRef& l, const PairRef& r, KeyVal dist_key) {
        EXPECT_LE(AxisKey(l, r, plan.axis, metric), axis_cut);
        EXPECT_EQ(dist_key.raw(),
                  geom::MinDistanceKey(l.rect, r.rect, metric).raw());
        const bool inserted = out.insert({l.id, r.id}).second;
        EXPECT_TRUE(inserted) << "pair enumerated twice";
      });
  if (covered != nullptr) *covered = result.axis_covered;
  return out;
}

std::vector<Rect> RandomRects(Random& rng, int n, double extent,
                              double max_side) {
  std::vector<Rect> rects;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, extent);
    const double y = rng.Uniform(0, extent);
    rects.push_back(Rect(x, y, x + rng.Uniform(0, max_side),
                         y + rng.Uniform(0, max_side)));
  }
  return rects;
}

TEST(PlaneSweeperTest, EnumeratesExactlyPairsWithinCutoff) {
  Random rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const int nl = 1 + static_cast<int>(rng.UniformInt(uint64_t{30}));
    const int nr = 1 + static_cast<int>(rng.UniformInt(uint64_t{30}));
    const auto left = MakeRefs(RandomRects(rng, nl, 100, 10), 0);
    const auto right = MakeRefs(RandomRects(rng, nr, 100, 10), 1000);
    const double cutoff = rng.Uniform(0, 30);
    for (const Metric metric : {Metric::kL2, Metric::kL1, Metric::kLInf}) {
      for (int axis = 0; axis < 2; ++axis) {
        for (const auto dir :
             {SweepDirection::kForward, SweepDirection::kBackward}) {
          const SweepPlan plan{axis, dir};
          const KeyVal cut = Key(cutoff, metric);
          EXPECT_EQ(
              SweepPairs(left, right, plan, cut, nullptr, nullptr, metric),
              BruteWithin(left, right, axis, cut, metric))
              << "axis=" << axis << " dir=" << static_cast<int>(dir)
              << " metric=" << static_cast<int>(metric);
        }
      }
    }
  }
}

TEST(PlaneSweeperTest, InfiniteCutoffIsCartesianAndCovered) {
  const auto left = MakeRefs({Rect(0, 0, 1, 1), Rect(5, 5, 6, 6)}, 0);
  const auto right =
      MakeRefs({Rect(2, 2, 3, 3), Rect(9, 0, 10, 1), Rect(4, 8, 5, 9)}, 100);
  bool covered = false;
  const auto pairs = SweepPairs(left, right, {0, SweepDirection::kForward},
                                Key(kInf), &covered);
  EXPECT_EQ(pairs.size(), 6u);
  EXPECT_TRUE(covered);
}

TEST(PlaneSweeperTest, CoveredFlagFalseWhenCutoffPrunes) {
  const auto left = MakeRefs({Rect(0, 0, 1, 1)}, 0);
  const auto right = MakeRefs({Rect(100, 0, 101, 1)}, 100);
  bool covered = true;
  const auto pairs = SweepPairs(left, right, {0, SweepDirection::kForward},
                                Key(5.0), &covered);
  EXPECT_TRUE(pairs.empty());
  EXPECT_FALSE(covered);
}

TEST(PlaneSweeperTest, EmptyListsAreHandled) {
  const auto some = MakeRefs({Rect(0, 0, 1, 1)}, 0);
  const std::vector<PairRef> none;
  const SweepPlan plan{0, SweepDirection::kForward};
  bool covered = false;
  EXPECT_TRUE(SweepPairs(none, some, plan, Key(kInf), &covered).empty());
  EXPECT_TRUE(covered);
  EXPECT_TRUE(SweepPairs(some, none, plan, Key(kInf), &covered).empty());
  EXPECT_TRUE(covered);
  EXPECT_TRUE(SweepPairs(none, none, plan, Key(kInf), &covered).empty());
  EXPECT_TRUE(covered);
}

TEST(PlaneSweeperTest, DynamicCutoffShrinkTightensRemainingSweep) {
  // Five right items at x = 0, 10, 20, 30, 40; anchor at x = 0 with cutoff
  // starting at 100 that shrinks to 15 after the first callback.
  const auto left = MakeRefs({Rect(0, 0, 0, 0)}, 0);
  const auto right = MakeRefs(
      {Rect(0, 0, 0, 0), Rect(10, 0, 10, 0), Rect(20, 0, 20, 0),
       Rect(30, 0, 30, 0), Rect(40, 0, 40, 0)},
      100);
  KeyVal cutoff = Key(100.0);
  KeyedSweepSpec spec;
  spec.axis_cutoff_key = &cutoff;
  spec.dist_cutoff_key = &cutoff;
  std::vector<uint32_t> seen;
  PlaneSweepKeyed(left, right, {0, SweepDirection::kForward}, spec, nullptr,
                  [&](const PairRef& /*l*/, const PairRef& r, KeyVal) {
                    seen.push_back(r.id);
                    cutoff = Key(15.0);
                  });
  // 0 and 10 qualify; 20, 30, 40 are cut off after the shrink.
  EXPECT_EQ(seen, (std::vector<uint32_t>{100, 101}));
}

TEST(PlaneSweeperTest, NegativeCutoffAbortsSweepImmediately) {
  // A callback that drops the cutoff below zero (the join loops do this on
  // a failed queue push) must stop the sweep after the current pair and
  // report the sweep as not covered.
  const auto left = MakeRefs({Rect(0, 0, 0, 0)}, 0);
  const auto right = MakeRefs(
      {Rect(0, 0, 0, 0), Rect(1, 0, 1, 0), Rect(2, 0, 2, 0),
       Rect(3, 0, 3, 0)},
      100);
  KeyVal cutoff = Key(100.0);
  KeyedSweepSpec spec;
  spec.axis_cutoff_key = &cutoff;
  spec.dist_cutoff_key = &kNoFilter;
  std::vector<uint32_t> seen;
  const KeyedSweepResult result = PlaneSweepKeyed(
      left, right, {0, SweepDirection::kForward}, spec, nullptr,
      [&](const PairRef& /*l*/, const PairRef& r, KeyVal) {
        seen.push_back(r.id);
        cutoff = KeyVal(-1.0);  // abort
      });
  EXPECT_EQ(seen, (std::vector<uint32_t>{100}));
  EXPECT_FALSE(result.axis_covered);
}

TEST(PlaneSweeperTest, MidSweepShrinkMatchesBruteForceAtFinalCutoff) {
  // Shrinking the cutoff mid-sweep may drop pairs the *initial* cutoff
  // admitted, but everything within the *final* cutoff must still be
  // enumerated. With the shrink applied before any pair is seen, the
  // filtered callback set equals a fixed-cutoff sweep.
  Random rng(23);
  std::vector<Rect> l_rects, r_rects;
  for (int i = 0; i < 25; ++i) {
    const double x = rng.Uniform(0, 100);
    l_rects.push_back(Rect(x, 0, x + rng.Uniform(0, 4), 1));
    const double y = rng.Uniform(0, 100);
    r_rects.push_back(Rect(y, 0, y + rng.Uniform(0, 4), 1));
  }
  const auto left = MakeRefs(l_rects, 0);
  const auto right = MakeRefs(r_rects, 1000);
  const KeyVal final_cutoff = Key(8.0);
  KeyVal cutoff = Key(50.0);
  KeyedSweepSpec spec;
  spec.axis_cutoff_key = &cutoff;
  spec.dist_cutoff_key = &kNoFilter;
  std::set<std::pair<uint32_t, uint32_t>> seen;
  bool first = true;
  PlaneSweepKeyed(left, right, {0, SweepDirection::kForward}, spec, nullptr,
                  [&](const PairRef& l, const PairRef& r, KeyVal) {
                    if (first) {
                      cutoff = final_cutoff;  // shrink before admitting
                      first = false;
                    }
                    if (AxisKey(l, r, 0, Metric::kL2) <= final_cutoff) {
                      seen.insert({l.id, r.id});
                    }
                  });
  EXPECT_EQ(seen, BruteWithin(left, right, 0, final_cutoff));
}

TEST(PlaneSweeperTest, AxisDistancePerAnchorIsNonDecreasing) {
  // The keyed callback carries the distance key, not the axis separation;
  // the per-anchor order is recomputed from the reported refs.
  Random rng(9);
  std::vector<Rect> l_rects, r_rects;
  for (int i = 0; i < 40; ++i) {
    const double x = rng.Uniform(0, 100);
    l_rects.push_back(Rect(x, 0, x + rng.Uniform(0, 5), 1));
    const double y = rng.Uniform(0, 100);
    r_rects.push_back(Rect(y, 0, y + rng.Uniform(0, 5), 1));
  }
  const auto left = MakeRefs(l_rects, 0);
  const auto right = MakeRefs(r_rects, 1000);
  const KeyVal cutoff = Key(30.0);
  KeyedSweepSpec spec;
  spec.axis_cutoff_key = &cutoff;
  spec.dist_cutoff_key = &kNoFilter;
  // Whenever the anchor changes, the separation may reset; within an
  // anchor's scan it ascends. An anchor is the side that stayed fixed
  // between consecutive reports.
  std::pair<uint32_t, uint32_t> last{UINT32_MAX, UINT32_MAX};
  double last_dist = 0.0;
  int violations = 0;
  PlaneSweepKeyed(left, right, {0, SweepDirection::kForward}, spec, nullptr,
                  [&](const PairRef& l, const PairRef& r, KeyVal) {
                    const double axis_dist =
                        geom::AxisDistance(l.rect, r.rect, 0);
                    const bool same_anchor =
                        l.id == last.first || r.id == last.second;
                    if (same_anchor && axis_dist < last_dist) ++violations;
                    last = {l.id, r.id};
                    last_dist = axis_dist;
                  });
  EXPECT_EQ(violations, 0);
}

TEST(PlaneSweeperTest, CountsAxisComputations) {
  const auto left = MakeRefs({Rect(0, 0, 1, 1), Rect(2, 0, 3, 1)}, 0);
  const auto right = MakeRefs({Rect(1, 0, 2, 1), Rect(4, 0, 5, 1)}, 100);
  JoinStats stats;
  SweepPairs(left, right, {0, SweepDirection::kForward}, Key(kInf), nullptr,
             &stats);
  EXPECT_EQ(stats.axis_distance_computations, 4u);
  EXPECT_EQ(stats.real_distance_computations, 4u);
}

TEST(PlaneSweeperTest, SingletonVsListWorks) {
  // The node-vs-object degenerate case: one side is a single ref.
  const auto left = MakeRefs({Rect(5, 5, 6, 6)}, 0);
  std::vector<Rect> rects;
  for (int i = 0; i < 20; ++i) rects.push_back(Rect(i, 5, i + 0.5, 6));
  const auto right = MakeRefs(rects, 100);
  const auto pairs =
      SweepPairs(left, right, {0, SweepDirection::kForward}, Key(3.0));
  EXPECT_EQ(pairs, BruteWithin(left, right, 0, Key(3.0)));
}

TEST(PlaneSweeperTest, BackwardSweepVisitsAnchorsFromTheHighEnd) {
  // Points at x = 0, 10, 20 on the left and 5, 15 on the right: a backward
  // sweep takes anchors in descending x (the left point at 20 first) and
  // scans each anchor's candidates in descending x too.
  const auto left =
      MakeRefs({Rect(0, 0, 0, 0), Rect(10, 0, 10, 0), Rect(20, 0, 20, 0)}, 0);
  const auto right = MakeRefs({Rect(5, 0, 5, 0), Rect(15, 0, 15, 0)}, 100);
  const KeyVal cutoff = Key(kInf);
  KeyedSweepSpec spec;
  spec.axis_cutoff_key = &cutoff;
  spec.dist_cutoff_key = &cutoff;
  std::vector<std::pair<uint32_t, uint32_t>> seen;
  PlaneSweepKeyed(left, right, {0, SweepDirection::kBackward}, spec, nullptr,
                  [&](const PairRef& l, const PairRef& r, KeyVal) {
                    seen.push_back({l.id, r.id});
                  });
  const std::vector<std::pair<uint32_t, uint32_t>> expected = {
      {2, 101}, {2, 100},  // anchor left x=20: right 15, then 5
      {1, 101},            // anchor right x=15: left 10 (20 is done)
      {0, 101},            //   then left 0
      {1, 100},            // anchor left x=10: right 5
      {0, 100}};           // anchor right x=5: left 0
  EXPECT_EQ(seen, expected);
}

TEST(PlaneSweeperTest, SkipAxisBelowKeySkipsTheExaminedPrefix) {
  // Anchor at x = 0 against points at x = 1..6: with the earlier stage's
  // axis cutoff at 3, candidates 1..3 are counted as axis computations but
  // skipped before their distance; 4..6 are examined and reported.
  const auto left = MakeRefs({Rect(0, 0, 0, 0)}, 0);
  std::vector<Rect> rects;
  for (int x = 1; x <= 6; ++x) rects.push_back(Rect(x, 0, x, 0));
  const auto right = MakeRefs(rects, 100);
  const KeyVal cutoff = Key(kInf);
  KeyedSweepSpec spec;
  spec.axis_cutoff_key = &cutoff;
  spec.dist_cutoff_key = &cutoff;
  spec.skip_axis_below_key = Key(3.0);
  JoinStats stats;
  std::vector<uint32_t> seen;
  PlaneSweepKeyed(left, right, {0, SweepDirection::kForward}, spec, &stats,
                  [&](const PairRef&, const PairRef& r, KeyVal) {
                    seen.push_back(r.id);
                  });
  EXPECT_EQ(seen, (std::vector<uint32_t>{103, 104, 105}));
  EXPECT_EQ(stats.axis_distance_computations, 6u);
  EXPECT_EQ(stats.real_distance_computations, 3u);
}

TEST(PlaneSweeperTest, SkipDistBelowKeySkipsReportedPairs) {
  // The axis separation is 0 for every candidate (they overlap in x), so
  // only the distance skip applies: pairs at distance <= 2 were reported
  // by an earlier stage and are computed but not reported again; pairs
  // above the distance cutoff are filtered.
  const auto left = MakeRefs({Rect(0, 0, 10, 0)}, 0);
  std::vector<Rect> rects;
  for (int y = 1; y <= 5; ++y) rects.push_back(Rect(0, y, 10, y));
  const auto right = MakeRefs(rects, 100);
  const KeyVal axis_cut = Key(kInf);
  const KeyVal dist_cut = Key(4.0);
  KeyedSweepSpec spec;
  spec.axis_cutoff_key = &axis_cut;
  spec.dist_cutoff_key = &dist_cut;
  spec.skip_dist_below_key = Key(2.0);
  JoinStats stats;
  std::vector<uint32_t> seen;
  const KeyedSweepResult result = PlaneSweepKeyed(
      left, right, {0, SweepDirection::kForward}, spec, &stats,
      [&](const PairRef&, const PairRef& r, KeyVal) {
        seen.push_back(r.id);
      });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<uint32_t>{102, 103}));  // y = 3, 4
  EXPECT_EQ(stats.axis_distance_computations, 5u);
  EXPECT_EQ(stats.real_distance_computations, 5u);
  EXPECT_TRUE(result.axis_covered);
  EXPECT_TRUE(result.dist_filtered);  // y = 5
}

TEST(PlaneSweeperTest, WindowRestrictsPageSidesToIntersectingChildren) {
  // Sides filled from real leaf pages under windows sweep exactly the
  // window-intersecting children: the reported pairs equal a brute force
  // over the window-filtered child lists, in both directions on both axes.
  Random rng(31);
  workload::Dataset r_data, s_data;
  r_data.objects = RandomRects(rng, 60, 1000, 40);
  s_data.objects = RandomRects(rng, 60, 1000, 40);
  test::JoinFixture f = test::MakeFixture(r_data, s_data, /*fanout=*/100);
  ASSERT_EQ(f.r->height(), 1);  // one leaf page per tree
  ASSERT_EQ(f.s->height(), 1);
  const geom::Rect r_window(100, 100, 700, 600);
  const geom::Rect s_window(300, 0, 1000, 800);
  std::vector<PairRef> r_kids, s_kids;
  ASSERT_TRUE(ChildList(*f.r, RootRef(*f.r), r_window, &r_kids).ok());
  ASSERT_TRUE(ChildList(*f.s, RootRef(*f.s), s_window, &s_kids).ok());
  ASSERT_LT(r_kids.size(), 60u);
  ASSERT_LT(s_kids.size(), 60u);
  JoinOptions options;
  options.r_window = r_window;
  options.s_window = s_window;
  PairEntry root = MakePair(RootRef(*f.r), RootRef(*f.s));
  const KeyVal cutoff = Key(120.0);
  for (int pass = 0; pass < 2; ++pass) {  // first touch, then cached
    for (int axis = 0; axis < 2; ++axis) {
      for (const auto dir :
           {SweepDirection::kForward, SweepDirection::kBackward}) {
        const SweepPlan plan{axis, dir};
        auto arena = LoadSweepSides(*f.r, *f.s, root, plan, options);
        ASSERT_TRUE(arena.ok());
        KeyedSweepSpec spec;
        spec.axis_cutoff_key = &cutoff;
        spec.dist_cutoff_key = &kNoFilter;
        std::set<std::pair<uint32_t, uint32_t>> seen;
        PlaneSweepKeyed(*arena, spec, nullptr,
                        [&](const PairRef& l, const PairRef& r, KeyVal) {
                          EXPECT_TRUE(l.rect.Intersects(r_window));
                          EXPECT_TRUE(r.rect.Intersects(s_window));
                          seen.insert({l.id, r.id});
                        });
        EXPECT_EQ(seen, BruteWithin(r_kids, s_kids, axis, cutoff))
            << "pass " << pass << " axis " << axis;
      }
    }
  }
  EXPECT_GT(f.r->sweep_orders().order_count(), 0u);
}

/// Everything a keyed sweep did: each report in order, both work counters
/// and both flags.
struct SweepTrace {
  struct Report {
    uint32_t l_id, r_id;
    Rect l_rect, r_rect;
    double dist_key;
    bool operator==(const Report&) const = default;
  };
  std::vector<Report> reports;
  uint64_t axis = 0;
  uint64_t real = 0;
  bool covered = true;
  bool filtered = false;
};

/// A callback's side effects on the cutoffs, replayed identically on the
/// sweep under test and on the reference: every `every`-th report shrinks
/// the axis cutoff to `shrink_to_key` and the distance cutoff to 3/4 of
/// it, and halves `shrink_to_key`; kAbort instead drops the axis cutoff
/// below zero at report `every`, as the joins do on a failed push.
struct CutoffPolicy {
  enum Mode { kNone, kShrink, kAbort } mode = kNone;
  int every = 1;
  double shrink_to_key = 0.0;
};

/// One randomized sweep: plan, metric, skip bounds, initial cutoffs and
/// the callback's cutoff policy.
struct SweepCase {
  SweepPlan plan{0, SweepDirection::kForward};
  Metric metric = Metric::kL2;
  KeyVal skip_axis_key = KeyedSweepSpec::kNoSkip;
  KeyVal skip_dist_key = KeyedSweepSpec::kNoSkip;
  KeyVal axis_cut_key, dist_cut_key;
  CutoffPolicy policy;
};

/// The live cutoffs of one sweep, mutated by the callback per `policy`.
struct Cutoffs {
  explicit Cutoffs(const SweepCase& c)
      : axis_key(c.axis_cut_key),
        dist_key(c.dist_cut_key),
        policy(c.policy),
        shrink_to_key(c.policy.shrink_to_key) {}

  void OnReport(std::size_t reports) {
    const auto every = static_cast<std::size_t>(policy.every);
    if (policy.mode == CutoffPolicy::kNone || reports % every != 0) return;
    if (policy.mode == CutoffPolicy::kAbort) {
      if (reports == every) axis_key = KeyVal(-1.0);
      return;
    }
    axis_key = std::min(axis_key, KeyVal(shrink_to_key));
    dist_key = std::min(dist_key, KeyVal(shrink_to_key * 0.75));
    shrink_to_key *= 0.5;
  }

  KeyVal axis_key, dist_key;
  CutoffPolicy policy;
  double shrink_to_key;
};

/// The seven documented steps, one candidate at a time, straight from the
/// ref lists: the specification PlaneSweepKeyed's gated, batched loop must
/// reproduce.
SweepTrace ReferenceSweep(std::vector<PairRef> left,
                          std::vector<PairRef> right, const SweepCase& c) {
  const bool forward = c.plan.dir == SweepDirection::kForward;
  auto key = [&](const PairRef& p) {
    return forward ? p.rect.lo.Coord(c.plan.axis)
                   : -p.rect.hi.Coord(c.plan.axis);
  };
  auto before = [&](const PairRef& a, const PairRef& b) {
    return key(a) != key(b) ? key(a) < key(b) : a.id < b.id;
  };
  std::sort(left.begin(), left.end(), before);
  std::sort(right.begin(), right.end(), before);
  SweepTrace trace;
  Cutoffs cut(c);
  std::size_t il = 0, ir = 0;
  while (il < left.size() && ir < right.size()) {
    const bool anchor_is_left = key(left[il]) <= key(right[ir]);
    const PairRef& anchor = anchor_is_left ? left[il++] : right[ir++];
    const std::vector<PairRef>& other = anchor_is_left ? right : left;
    for (std::size_t j = anchor_is_left ? ir : il; j < other.size(); ++j) {
      const PairRef& cand = other[j];
      ++trace.axis;  // 1
      const KeyVal axis_key = AxisKey(anchor, cand, c.plan.axis, c.metric);
      if (axis_key > cut.axis_key) {  // 2
        trace.covered = false;
        break;
      }
      if (axis_key <= c.skip_axis_key) continue;  // 3
      ++trace.real;                               // 4
      const KeyVal dist_key =
          geom::MinDistanceKey(anchor.rect, cand.rect, c.metric);
      if (dist_key <= c.skip_dist_key) continue;  // 5
      if (dist_key > cut.dist_key) {              // 6
        trace.filtered = true;
        continue;
      }
      const PairRef& l = anchor_is_left ? anchor : cand;  // 7
      const PairRef& r = anchor_is_left ? cand : anchor;
      trace.reports.push_back({l.id, r.id, l.rect, r.rect, dist_key.raw()});
      cut.OnReport(trace.reports.size());
    }
  }
  return trace;
}

SweepTrace KeyedSweepTrace(const std::vector<PairRef>& left,
                           const std::vector<PairRef>& right,
                           const SweepCase& c) {
  SweepTrace trace;
  Cutoffs cut(c);
  KeyedSweepSpec spec;
  spec.metric = c.metric;
  spec.axis_cutoff_key = &cut.axis_key;
  spec.dist_cutoff_key = &cut.dist_key;
  spec.skip_axis_below_key = c.skip_axis_key;
  spec.skip_dist_below_key = c.skip_dist_key;
  JoinStats stats;
  const KeyedSweepResult result = PlaneSweepKeyed(
      left, right, c.plan, spec, &stats,
      [&](const PairRef& l, const PairRef& r, KeyVal dist_key) {
        trace.reports.push_back({l.id, r.id, l.rect, r.rect, dist_key.raw()});
        cut.OnReport(trace.reports.size());
      });
  trace.axis = stats.axis_distance_computations;
  trace.real = stats.real_distance_computations;
  trace.covered = result.axis_covered;
  trace.filtered = result.dist_filtered;
  return trace;
}

/// `n` rects whose sweep keys tie often: on a coarse integer grid (equal
/// keys, zero gaps, duplicates across and within sides) or continuous.
std::vector<Rect> TieProneRects(Random& rng, std::size_t n, bool grid) {
  std::vector<Rect> rects;
  const double extent = std::max<double>(4.0, static_cast<double>(n) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    if (grid) {
      const double x = static_cast<double>(
          rng.UniformInt(uint64_t{static_cast<uint64_t>(extent)}));
      const double y = static_cast<double>(
          rng.UniformInt(uint64_t{static_cast<uint64_t>(extent)}));
      rects.push_back(Rect(x, y, x + static_cast<double>(rng.UniformInt(
                                          uint64_t{3})),
                           y + static_cast<double>(rng.UniformInt(
                                   uint64_t{3}))));
    } else {
      const double x = rng.Uniform(0, extent);
      const double y = rng.Uniform(0, extent);
      rects.push_back(Rect(x, y, x + rng.Uniform(0, 2), y + rng.Uniform(0, 2)));
    }
  }
  return rects;
}

TEST(PlaneSweeperTest, MatchesOneCandidateAtATimeReference) {
  // Side sizes straddle every kernel-batch edge (8, 8+16, 8+16+32, 64) and
  // reach past a full page; each (left, right, metric, direction) runs a
  // random axis, cutoff regime, skip bounds and cutoff policy.
  const std::size_t sizes[] = {0,  1,  7,  8,  9,  15, 16,  17,
                               31, 32, 33, 63, 64, 65, 113, 130};
  Random rng(2024);
  int shrunk = 0, aborted = 0, skipped_axis = 0, skipped_dist = 0, cut = 0;
  for (const std::size_t nl : sizes) {
    for (const std::size_t nr : sizes) {
      for (const Metric metric : {Metric::kL2, Metric::kL1, Metric::kLInf}) {
        for (const auto dir :
             {SweepDirection::kForward, SweepDirection::kBackward}) {
          const bool grid = rng.Bernoulli(0.5);
          const auto left = MakeRefs(TieProneRects(rng, nl, grid), 0);
          const auto right = MakeRefs(TieProneRects(rng, nr, grid), 1000);
          SweepCase c;
          c.metric = metric;
          c.plan = {static_cast<int>(rng.UniformInt(uint64_t{2})), dir};
          const double extent =
              std::max<double>(4.0, static_cast<double>(std::max(nl, nr)));
          // Tight (often 0: only overlapping pairs), moderate, unbounded.
          const int regime = static_cast<int>(rng.UniformInt(uint64_t{3}));
          const double d = regime == 0   ? std::floor(rng.Uniform(0, 2))
                           : regime == 1 ? rng.Uniform(0, extent / 3)
                                         : kInf;
          c.axis_cut_key = Key(d, metric);
          c.dist_cut_key =
              rng.Bernoulli(0.5) ? c.axis_cut_key : Key(d * 0.8, metric);
          const int skips = static_cast<int>(rng.UniformInt(uint64_t{4}));
          const double skip_d = rng.Uniform(0, std::min(d, extent / 4));
          if (skips & 1) c.skip_axis_key = Key(std::floor(skip_d), metric);
          if (skips & 2) c.skip_dist_key = Key(skip_d, metric);
          c.policy.mode = static_cast<CutoffPolicy::Mode>(
              rng.UniformInt(uint64_t{3}));
          c.policy.every = 1 + static_cast<int>(rng.UniformInt(uint64_t{5}));
          c.policy.shrink_to_key =
              Key(rng.Uniform(0, extent / 4), metric).raw();

          const SweepTrace want = ReferenceSweep(left, right, c);
          const SweepTrace got = KeyedSweepTrace(left, right, c);
          const std::string where =
              "nl=" + std::to_string(nl) + " nr=" + std::to_string(nr) +
              " metric=" + geom::ToString(metric) +
              " axis=" + std::to_string(c.plan.axis) +
              " dir=" + std::to_string(static_cast<int>(dir)) +
              " regime=" + std::to_string(regime) +
              " skips=" + std::to_string(skips) +
              " policy=" + std::to_string(c.policy.mode);
          ASSERT_EQ(got.reports.size(), want.reports.size()) << where;
          for (std::size_t i = 0; i < want.reports.size(); ++i) {
            ASSERT_TRUE(got.reports[i] == want.reports[i])
                << where << " report " << i << ": got (" << got.reports[i].l_id
                << ", " << got.reports[i].r_id << "), want ("
                << want.reports[i].l_id << ", " << want.reports[i].r_id
                << ")";
          }
          EXPECT_EQ(got.axis, want.axis) << where;
          EXPECT_EQ(got.real, want.real) << where;
          EXPECT_EQ(got.covered, want.covered) << where;
          EXPECT_EQ(got.filtered, want.filtered) << where;
          const auto every = static_cast<std::size_t>(c.policy.every);
          if (c.policy.mode == CutoffPolicy::kShrink &&
              want.reports.size() >= every) {
            ++shrunk;
          }
          if (c.policy.mode == CutoffPolicy::kAbort &&
              want.reports.size() == every) {
            ++aborted;
          }
          if (skips & 1) ++skipped_axis;
          if (skips & 2) ++skipped_dist;
          if (!want.covered) ++cut;
        }
      }
    }
  }
  // Every behaviour the reference covers was actually exercised.
  EXPECT_GT(shrunk, 50);
  EXPECT_GT(aborted, 50);
  EXPECT_GT(skipped_axis, 100);
  EXPECT_GT(skipped_dist, 100);
  EXPECT_GT(cut, 100);
}

}  // namespace
}  // namespace amdj::core
