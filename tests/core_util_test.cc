// Units for the small core plumbing: pair entries, expansion helpers,
// stats accounting, cost model, logging and the timer.

#include <type_traits>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/cost_model.h"
#include "core/expansion.h"
#include "core/pair_entry.h"
#include "test_util.h"
#include "workload/generators.h"

namespace amdj::core {
namespace {

using geom::Rect;

TEST(PairEntryTest, IsTriviallyCopyableForDiskSpill) {
  static_assert(std::is_trivially_copyable_v<PairEntry>,
                "PairEntry must memcpy-serialize for the hybrid queue");
  static_assert(std::is_trivially_copyable_v<ResultPair>,
                "ResultPair must memcpy-serialize for the external sorter");
}

TEST(PairEntryTest, MakePairComputesMetricKey) {
  PairRef r, s;
  r.rect = Rect(0, 0, 1, 1);
  s.rect = Rect(4, 5, 6, 7);
  // L2 keys are squared distances (dx=3, dy=4 -> 25); L1/LInf keys are the
  // distances themselves.
  EXPECT_DOUBLE_EQ(MakePair(r, s).key.raw(), 25.0);
  EXPECT_DOUBLE_EQ(MakePair(r, s, geom::Metric::kL1).key.raw(), 7.0);
  EXPECT_DOUBLE_EQ(MakePair(r, s, geom::Metric::kLInf).key.raw(), 4.0);
}

TEST(PairEntryTest, CompareOrdersByKeyThenObjectness) {
  auto make = [](double d, bool objects, uint32_t rid) {
    PairEntry e;
    e.key = geom::KeyVal(d);
    e.r.kind = objects ? RefKind::kObject : RefKind::kNode;
    e.s.kind = e.r.kind;
    e.r.id = rid;
    return e;
  };
  PairEntryCompare less;
  EXPECT_TRUE(less(make(1.0, false, 0), make(2.0, true, 0)));
  // Equal distance: object pairs first.
  EXPECT_TRUE(less(make(1.0, true, 0), make(1.0, false, 0)));
  EXPECT_FALSE(less(make(1.0, false, 0), make(1.0, true, 0)));
  // Full tie: ids decide, deterministically.
  EXPECT_TRUE(less(make(1.0, true, 1), make(1.0, true, 2)));
  EXPECT_FALSE(less(make(1.0, true, 2), make(1.0, true, 1)));
}

TEST(PairEntryTest, SelfPairDetection) {
  PairRef obj_a, obj_b, node_a;
  obj_a.kind = RefKind::kObject;
  obj_a.id = 7;
  obj_b.kind = RefKind::kObject;
  obj_b.id = 7;
  node_a.kind = RefKind::kNode;
  node_a.id = 7;
  EXPECT_TRUE(IsSelfPair(obj_a, obj_b));
  obj_b.id = 8;
  EXPECT_FALSE(IsSelfPair(obj_a, obj_b));
  EXPECT_FALSE(IsSelfPair(obj_a, node_a));  // node id space is unrelated
}

TEST(PairEntryTest, ToStringMentionsKindAndBookkeeping) {
  PairRef r, s;
  r.kind = RefKind::kNode;
  r.id = 3;
  s.kind = RefKind::kObject;
  s.id = 9;
  PairEntry e = MakePair(r, s);
  EXPECT_NE(e.ToString().find("node 3"), std::string::npos);
  EXPECT_NE(e.ToString().find("obj 9"), std::string::npos);
  EXPECT_EQ(e.ToString().find("prior_cutoff"), std::string::npos);
  e.prior_cutoff = geom::KeyVal(5.0);
  EXPECT_NE(e.ToString().find("prior_cutoff"), std::string::npos);
}

TEST(ExpansionTest, RootRefAndChildren) {
  const Rect uni(0, 0, 100, 100);
  test::JoinFixture f =
      test::MakeFixture(workload::UniformPoints(100, 7, uni),
                        workload::UniformPoints(50, 8, uni), 6);
  const PairRef root = RootRef(*f.r);
  EXPECT_FALSE(root.IsObject());
  EXPECT_EQ(root.id, f.r->root());
  EXPECT_EQ(root.level, f.r->height() - 1);
  EXPECT_EQ(root.rect, f.r->bounds());

  std::vector<PairRef> children;
  ASSERT_TRUE(FetchChildren(*f.r, root, &children).ok());
  ASSERT_FALSE(children.empty());
  for (const PairRef& c : children) {
    EXPECT_TRUE(root.rect.Contains(c.rect));
    if (root.level == 0) {
      EXPECT_TRUE(c.IsObject());
    } else {
      EXPECT_FALSE(c.IsObject());
      EXPECT_EQ(c.level, root.level - 1);
    }
  }

  // ChildList of an object is the object itself.
  PairRef object;
  object.kind = RefKind::kObject;
  object.id = 42;
  object.rect = Rect(1, 1, 2, 2);
  ASSERT_TRUE(ChildList(*f.r, object, &children).ok());
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0].id, 42u);
}

TEST(JoinStatsTest, AddAccumulatesAndPeakTakesMax) {
  JoinStats a, b;
  a.real_distance_computations = 10;
  a.main_queue_peak_size = 100;
  a.cpu_seconds = 1.5;
  b.real_distance_computations = 5;
  b.main_queue_peak_size = 70;
  b.cpu_seconds = 0.5;
  a.Add(b);
  EXPECT_EQ(a.real_distance_computations, 15u);
  EXPECT_EQ(a.main_queue_peak_size, 100u);
  EXPECT_DOUBLE_EQ(a.cpu_seconds, 2.0);
  a.Reset();
  EXPECT_EQ(a.real_distance_computations, 0u);
  EXPECT_EQ(a.cpu_seconds, 0.0);
}

TEST(JoinStatsTest, DerivedMetrics) {
  JoinStats s;
  s.real_distance_computations = 3;
  s.axis_distance_computations = 4;
  s.cpu_seconds = 1.0;
  s.simulated_io_seconds = 2.0;
  EXPECT_EQ(s.total_distance_computations(), 7u);
  EXPECT_DOUBLE_EQ(s.response_seconds(), 3.0);
  EXPECT_NE(s.ToString().find("real_distance_computations: 3"),
            std::string::npos);
}

TEST(CostModelTest, ChargesPerBandwidthClass) {
  core::CostModel model;  // 0.5 MB/s random, 5 MB/s sequential
  storage::DiskStats d;
  d.random_reads = 128;  // 128 * 4 KB = 0.5 MB -> 1 s
  EXPECT_NEAR(model.Seconds(d), 1.0, 1e-9);
  d.random_reads = 0;
  d.sequential_reads = 1280;  // 5 MB sequential -> 1 s
  EXPECT_NEAR(model.Seconds(d), 1.0, 1e-9);
  d.sequential_writes = 1280;  // writes count the same
  EXPECT_NEAR(model.Seconds(d), 2.0, 1e-9);
}

TEST(CostModelTest, DeltaSubtractsCounters) {
  storage::DiskStats before, after;
  before.page_reads = 10;
  before.random_reads = 4;
  after.page_reads = 25;
  after.random_reads = 9;
  const storage::DiskStats d = core::CostModel::Delta(before, after);
  EXPECT_EQ(d.page_reads, 15u);
  EXPECT_EQ(d.random_reads, 5u);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  const double before_reset = t.ElapsedSeconds();
  t.Reset();
  EXPECT_LE(t.ElapsedSeconds(), before_reset + 1.0);
}

TEST(LoggingTest, LevelGateWorks) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // These must simply not crash (output goes to stderr).
  AMDJ_LOG(kDebug) << "suppressed";
  AMDJ_LOG(kError) << "emitted";
  SetLogLevel(original);
}

}  // namespace
}  // namespace amdj::core
