// Randomized differential test: HybridQueue against std::priority_queue as
// the reference, comparing popped VALUES AND ORDER exactly. The queue
// contracts this pins down:
//   - the bucket-queue front always pops the comparator-minimum of the
//     whole structure (memory buckets + disk segments), in comparator
//     order, across spill/swap-in boundaries;
//   - tie plateaus (the count-compressed fast path) drain in exact
//     comparator tie-break order no matter how runs were sealed;
//   - misleading boundary_fn estimates (the adaptive-refinement path)
//     change wall time, never output;
//   - injected I/O faults mid-split and mid-swap-in surface as Status
//     errors, and after Heal the queue drains every accepted entry in
//     order (no loss, no duplication); a failed swap-in reinstalls its
//     segment intact.

#include <cstdint>
#include <limits>
#include <queue>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "geom/units.h"
#include "queue/hybrid_queue.h"
#include "storage/disk_manager.h"

namespace amdj::queue {
namespace {

using geom::KeyVal;

struct Item {
  KeyVal key{0.0};
  uint64_t tag = 0;
};

struct ItemCompare {
  bool operator()(const Item& a, const Item& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.tag < b.tag;
  }
};

using Queue = HybridQueue<Item, ItemCompare>;

/// std::priority_queue pops its maximum, so the reference inverts the
/// comparator to pop the ItemCompare-minimum first.
struct ItemGreater {
  bool operator()(const Item& a, const Item& b) const {
    return ItemCompare()(b, a);
  }
};
using Reference =
    std::priority_queue<Item, std::vector<Item>, ItemGreater>;

/// Key distributions the scenarios draw from.
enum class KeyDist {
  kUniform,      ///< Continuous uniform [0, 1e6): no ties, many segments.
  kTieHeavy,     ///< Ten discrete values, half the mass on one plateau.
  kClustered,    ///< Two narrow clusters with a wide gap (boundary stress).
};

double DrawKey(KeyDist dist, std::mt19937_64* rng) {
  switch (dist) {
    case KeyDist::kUniform:
      return std::uniform_real_distribution<double>(0, 1e6)(*rng);
    case KeyDist::kTieHeavy: {
      // 50% on plateau 0.0, the rest spread over nine more flat values.
      const uint64_t r = (*rng)() % 18;
      return r < 9 ? 0.0 : static_cast<double>(r - 8) * 111.0;
    }
    case KeyDist::kClustered: {
      const double base = ((*rng)() % 2 == 0) ? 10.0 : 9e5;
      return base + std::uniform_real_distribution<double>(0, 50)(*rng);
    }
  }
  return 0.0;
}

struct Scenario {
  const char* name;
  KeyDist dist;
  /// nullptr = no predetermined boundaries (pure adaptive refinement).
  std::function<KeyVal(uint64_t)> boundary_fn;
};

/// Interleaves pushes and pops against the reference, then drains both,
/// asserting every popped (key, tag) matches the reference's exactly.
void RunDifferential(const Scenario& scenario, uint64_t seed,
                     size_t steps) {
  storage::InMemoryDiskManager disk;
  Queue::Options options;
  options.memory_bytes = 1024;  // 64 entries: constant spill traffic
  options.disk = &disk;
  options.boundary_fn = scenario.boundary_fn;
  JoinStats stats;
  Queue q(options, &stats);
  Reference ref;

  std::mt19937_64 rng(seed);
  uint64_t tag = 0;
  uint64_t popped = 0;
  for (size_t i = 0; i < steps; ++i) {
    const bool push = ref.empty() || (rng() % 10) < 6;
    if (push) {
      const Item item{KeyVal(DrawKey(scenario.dist, &rng)), tag++};
      ASSERT_TRUE(q.Push(item).ok());
      ref.push(item);
    } else {
      Item got;
      ASSERT_TRUE(q.Pop(&got).ok()) << "step " << i;
      const Item want = ref.top();
      ref.pop();
      ASSERT_EQ(got.key, want.key) << "step " << i << " pop " << popped;
      ASSERT_EQ(got.tag, want.tag) << "step " << i << " pop " << popped;
      ++popped;
    }
    ASSERT_EQ(q.TotalSize(), ref.size());
  }
  while (!ref.empty()) {
    Item got;
    ASSERT_TRUE(q.Pop(&got).ok());
    const Item want = ref.top();
    ref.pop();
    ASSERT_EQ(got.key, want.key) << "drain pop " << popped;
    ASSERT_EQ(got.tag, want.tag) << "drain pop " << popped;
    ++popped;
  }
  EXPECT_TRUE(q.Empty());
  Item leftover;
  EXPECT_EQ(q.Pop(&leftover).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(stats.main_queue_insertions, tag);
}

/// A deliberately good Eq.-3-style boundary for uniform [0, 1e6) keys and
/// ~60% of `steps` insertions.
std::function<KeyVal(uint64_t)> UniformBoundary(size_t steps) {
  const double per = 1e6 / (0.6 * static_cast<double>(steps));
  return [per](uint64_t c) { return KeyVal(per * static_cast<double>(c)); };
}

/// A boundary that is wrong by orders of magnitude: the first segment
/// starts far below any real key, so nearly everything routes to memory
/// and overflow must refine adaptively — and swap-ins re-spill.
std::function<KeyVal(uint64_t)> MisleadingLowBoundary() {
  return [](uint64_t c) { return KeyVal(1e-3 * static_cast<double>(c)); };
}

class HybridQueueDifferentialTest
    : public ::testing::TestWithParam<Scenario> {};

TEST_P(HybridQueueDifferentialTest, MatchesReferenceValuesAndOrder) {
  // Three seeds per scenario: distinct interleavings, split points, and
  // plateau shapes.
  for (uint64_t seed : {11u, 222u, 3333u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    RunDifferential(GetParam(), seed, 6000);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, HybridQueueDifferentialTest,
    ::testing::Values(
        Scenario{"UniformNoBoundary", KeyDist::kUniform, nullptr},
        Scenario{"UniformGoodBoundary", KeyDist::kUniform,
                 UniformBoundary(6000)},
        Scenario{"UniformEstimatorOff", KeyDist::kUniform,
                 MisleadingLowBoundary()},
        Scenario{"TieHeavyNoBoundary", KeyDist::kTieHeavy, nullptr},
        Scenario{"TieHeavyGoodBoundary", KeyDist::kTieHeavy,
                 UniformBoundary(6000)},
        Scenario{"ClusteredEstimatorOff", KeyDist::kClustered,
                 MisleadingLowBoundary()}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Fault injection.

/// Pushes/pops with a write fault armed mid-run. Synchronous spill writes
/// retain failed-flush records for retry, so after Heal the queue must
/// drain every *accepted* entry in comparator order (popped values are
/// compared against a sorted multiset of the accepted pushes; phantom
/// retained records from failed pushes may legitimately also surface, so
/// each popped item must come from the attempted set).
TEST(HybridQueueFaultDifferentialTest, MidSplitWriteFaultHealsAndDrains) {
  storage::InMemoryDiskManager base;
  storage::FaultInjectionDiskManager disk(&base);
  Queue::Options options;
  options.memory_bytes = 1024;
  options.disk = &disk;
  JoinStats stats;
  Queue q(options, &stats);

  std::mt19937_64 rng(77);
  std::vector<Item> accepted;
  std::vector<Item> attempted;
  uint64_t tag = 0;
  bool saw_error = false;
  // Arm the fault after a few successful page writes: the failure lands in
  // the middle of some split's AppendMany.
  disk.FailWritesAfter(3);
  for (size_t i = 0; i < 4000; ++i) {
    const Item item{KeyVal(DrawKey(KeyDist::kUniform, &rng)), tag++};
    attempted.push_back(item);
    const Status s = q.Push(item);
    if (s.ok()) {
      accepted.push_back(item);
    } else {
      EXPECT_EQ(s.code(), StatusCode::kIOError);
      saw_error = true;
      disk.Heal();
    }
  }
  ASSERT_TRUE(saw_error) << "fault never fired — test is vacuous";

  // Every accepted entry must come out, in comparator order, and nothing
  // may appear that was never attempted.
  std::sort(attempted.begin(), attempted.end(), ItemCompare());
  std::vector<Item> popped;
  Item it;
  for (Status s = q.Pop(&it); s.ok(); s = q.Pop(&it)) {
    popped.push_back(it);
  }
  EXPECT_TRUE(q.Empty());
  EXPECT_GE(popped.size(), accepted.size());
  EXPECT_LE(popped.size(), attempted.size());
  for (size_t i = 1; i < popped.size(); ++i) {
    ASSERT_FALSE(ItemCompare()(popped[i], popped[i - 1]))
        << "pop order violated at " << i;
  }
  // popped must be a subsequence of attempted (sorted): two-pointer scan.
  size_t j = 0;
  for (const Item& p : popped) {
    while (j < attempted.size() &&
           (attempted[j].key != p.key || attempted[j].tag != p.tag)) {
      ++j;
    }
    ASSERT_LT(j, attempted.size()) << "popped an entry never pushed";
    ++j;
  }
  // ... and must contain every accepted entry: since popped ⊆ attempted
  // with no duplicates (tags are unique) and |popped| >= |accepted|, it is
  // enough that each accepted item is present.
  j = 0;
  std::sort(accepted.begin(), accepted.end(), ItemCompare());
  for (const Item& a : accepted) {
    while (j < popped.size() &&
           (popped[j].key != a.key || popped[j].tag != a.tag)) {
      ++j;
    }
    ASSERT_LT(j, popped.size()) << "accepted entry lost";
    ++j;
  }
}

/// Read fault armed mid-drain: the next swap-in surfaces kIOError, the
/// segment is reinstalled intact, and a healed disk drains the full
/// contents in exact reference order.
TEST(HybridQueueFaultDifferentialTest, MidPrefetchReadFaultHealsAndDrains) {
  storage::InMemoryDiskManager base;
  storage::FaultInjectionDiskManager disk(&base);
  Queue::Options options;
  options.memory_bytes = 1024;
  options.disk = &disk;
  // Deliberately under-scaled boundary estimate (10x fewer insertions than
  // actual): each segment holds several pages, so swap-ins re-spill and
  // read real page lists.
  options.boundary_fn = UniformBoundary(3000);
  JoinStats stats;
  Queue q(options, &stats);
  Reference ref;

  std::mt19937_64 rng(55);
  uint64_t tag = 0;
  for (size_t i = 0; i < 30000; ++i) {
    const Item item{KeyVal(DrawKey(KeyDist::kUniform, &rng)), tag++};
    ASSERT_TRUE(q.Push(item).ok());
    ref.push(item);
  }
  // Drain some: crosses several swap-ins before the fault arms.
  Item got;
  for (size_t i = 0; i < 1500; ++i) {
    ASSERT_TRUE(q.Pop(&got).ok());
    ASSERT_EQ(got.tag, ref.top().tag);
    ref.pop();
  }
  disk.FailReadsAfter(0);
  // Pop until the fault surfaces (the current front bucket may still hold
  // entries that need no I/O; bound the scan).
  Status status = Status::OK();
  size_t safe_pops = 0;
  while (status.ok() && safe_pops < 5000) {
    status = q.Pop(&got);
    if (status.ok()) {
      ASSERT_EQ(got.tag, ref.top().tag);
      ref.pop();
      ++safe_pops;
    }
  }
  ASSERT_EQ(status.code(), StatusCode::kIOError)
      << "read fault never surfaced";
  disk.Heal();
  // Everything left must drain in exact reference order.
  while (!ref.empty()) {
    ASSERT_TRUE(q.Pop(&got).ok());
    ASSERT_EQ(got.key, ref.top().key);
    ASSERT_EQ(got.tag, ref.top().tag);
    ref.pop();
  }
  EXPECT_TRUE(q.Empty());
  // Swap-ins must have actually happened for this test to mean anything.
  EXPECT_GT(stats.queue_swapins, 0u);
}

}  // namespace
}  // namespace amdj::queue
