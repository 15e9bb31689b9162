#include "queue/distance_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "geom/units.h"

namespace amdj::queue {
namespace {

using geom::KeyVal;

constexpr KeyVal kInf = KeyVal::Infinity();

TEST(DistanceQueueTest, CutoffIsInfinityUntilFull) {
  DistanceQueue q(3);
  EXPECT_EQ(q.CutoffKey(), kInf);
  q.Insert(KeyVal(5.0));
  q.Insert(KeyVal(1.0));
  EXPECT_EQ(q.CutoffKey(), kInf);
  q.Insert(KeyVal(3.0));
  EXPECT_EQ(q.CutoffKey(), KeyVal(5.0));
}

TEST(DistanceQueueTest, KeepsKSmallest) {
  DistanceQueue q(3);
  for (double d : {9.0, 7.0, 5.0, 3.0, 1.0, 8.0}) q.Insert(KeyVal(d));
  // Smallest three: 1, 3, 5 -> cutoff 5.
  EXPECT_EQ(q.CutoffKey(), KeyVal(5.0));
  EXPECT_EQ(q.size(), 3u);
}

TEST(DistanceQueueTest, IgnoresDistancesBeyondCutoff) {
  DistanceQueue q(2);
  q.Insert(KeyVal(1.0));
  q.Insert(KeyVal(2.0));
  q.Insert(KeyVal(10.0));
  EXPECT_EQ(q.CutoffKey(), KeyVal(2.0));
  q.Insert(KeyVal(2.0));  // equal to cutoff: not an improvement
  EXPECT_EQ(q.CutoffKey(), KeyVal(2.0));
  q.Insert(KeyVal(1.5));
  EXPECT_EQ(q.CutoffKey(), KeyVal(1.5));
}

TEST(DistanceQueueTest, KOfOneTracksMinimum) {
  DistanceQueue q(1);
  EXPECT_EQ(q.CutoffKey(), kInf);
  q.Insert(KeyVal(4.0));
  EXPECT_EQ(q.CutoffKey(), KeyVal(4.0));
  q.Insert(KeyVal(6.0));
  EXPECT_EQ(q.CutoffKey(), KeyVal(4.0));
  q.Insert(KeyVal(2.0));
  EXPECT_EQ(q.CutoffKey(), KeyVal(2.0));
}

TEST(DistanceQueueTest, ZeroKIsTreatedAsOne) {
  DistanceQueue q(0);
  EXPECT_EQ(q.capacity(), 1u);
}

TEST(DistanceQueueTest, CountsInsertionsInStats) {
  JoinStats stats;
  DistanceQueue q(2, &stats);
  q.Insert(KeyVal(5.0));
  q.Insert(KeyVal(3.0));
  q.Insert(KeyVal(10.0));  // rejected: no insertion counted
  q.Insert(KeyVal(1.0));   // accepted
  EXPECT_EQ(stats.distance_queue_insertions, 3u);
}

TEST(DistanceQueueTest, MatchesSortReferenceRandomized) {
  Random rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t k = 1 + rng.UniformInt(uint64_t{50});
    DistanceQueue q(k);
    std::vector<double> all;
    const size_t n = 1 + rng.UniformInt(uint64_t{500});
    for (size_t i = 0; i < n; ++i) {
      const double d = rng.Uniform(0, 1000);
      all.push_back(d);
      q.Insert(KeyVal(d));
    }
    std::sort(all.begin(), all.end());
    const KeyVal expected =
        all.size() >= k ? KeyVal(all[k - 1]) : kInf;
    EXPECT_EQ(q.CutoffKey(), expected) << "k=" << k << " n=" << n;
  }
}

/// The distance queue as the paper states it, on a std::priority_queue:
/// keep the k smallest keys, count every kept key.
class ReferenceDistanceQueue {
 public:
  explicit ReferenceDistanceQueue(size_t k) : k_(k) {}

  void Insert(double key) {
    if (heap_.size() < k_) {
      heap_.push(key);
      ++insertions_;
    } else if (key < heap_.top()) {
      heap_.pop();
      heap_.push(key);
      ++insertions_;
    }
  }

  double Cutoff() const {
    return heap_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : heap_.top();
  }
  size_t size() const { return heap_.size(); }
  uint64_t insertions() const { return insertions_; }

 private:
  size_t k_;
  std::priority_queue<double> heap_;
  uint64_t insertions_ = 0;
};

/// Draws the next key of a stream that mixes the regimes the radix layout
/// must get exactly right: tie runs, signed zeros, +inf, keys equal to the
/// running cutoff and, mostly, keys below it (the join's regime: the
/// kernels only emit pairs inside the cutoff).
class KeyStream {
 public:
  explicit KeyStream(uint64_t seed) : rng_(seed) {}

  double Next(double cutoff) {
    if (tie_left_ > 0) {
      --tie_left_;
      return last_;
    }
    const double ceiling = std::isinf(cutoff) ? 1e6 : cutoff;
    const uint64_t kind = rng_.UniformInt(uint64_t{40});
    double key;
    if (kind == 0) {
      key = 0.0;
    } else if (kind == 1) {
      key = -0.0;
    } else if (kind == 2) {
      key = std::numeric_limits<double>::infinity();
    } else if (kind == 3) {
      key = cutoff;
    } else if (kind == 4) {
      // A tie run below the cutoff: this key, repeated.
      key = rng_.Uniform(0, ceiling);
      tie_left_ = rng_.UniformInt(uint64_t{60});
    } else if (kind == 5) {
      key = rng_.Uniform(0, 2 * ceiling);  // often above: rejected
    } else {
      key = rng_.Uniform(0, ceiling);
    }
    last_ = key;
    return key;
  }

 private:
  Random rng_;
  double last_ = 0.0;
  uint64_t tie_left_ = 0;
};

/// Feeds `n` stream keys to a DistanceQueue and the reference, comparing
/// the cutoff and the size after every key and the insertion count at the
/// end. Returns how many keys were drawn strictly below the running cutoff
/// once k keys were held.
size_t ExpectMatchesReferenceAfterEveryInsert(size_t k, size_t n,
                                              uint64_t seed) {
  JoinStats stats;
  DistanceQueue q(k, &stats);
  ReferenceDistanceQueue ref(k);
  KeyStream stream(seed);
  size_t below_cutoff = 0;
  for (size_t i = 0; i < n; ++i) {
    const double cutoff = ref.Cutoff();
    const double key = stream.Next(cutoff);
    if (key < cutoff && ref.size() == k) ++below_cutoff;
    q.Insert(KeyVal(key));
    ref.Insert(key);
    if (q.CutoffKey() != KeyVal(ref.Cutoff()) || q.size() != ref.size()) {
      ADD_FAILURE() << "k=" << k << " diverged at insert " << i << " (key "
                    << key << "): cutoff " << q.CutoffKey().raw() << " vs "
                    << ref.Cutoff() << ", size " << q.size() << " vs "
                    << ref.size();
      return below_cutoff;
    }
  }
  EXPECT_EQ(stats.distance_queue_insertions, ref.insertions()) << "k=" << k;
  return below_cutoff;
}

TEST(DistanceQueueTest, CutoffMatchesReferenceAfterEveryInsert) {
  for (const size_t k : {size_t{1}, size_t{7}, size_t{1000}, size_t{100000}}) {
    // The fill, then enough keys that at least 3k land below the running
    // cutoff and replace it.
    const size_t n = k + 5 * k + 2000;
    const size_t below = ExpectMatchesReferenceAfterEveryInsert(k, n, 7 + k);
    EXPECT_GE(below, 3 * k) << "k=" << k;
  }
  // A k larger than the stream: the cutoff stays +inf throughout.
  EXPECT_EQ(ExpectMatchesReferenceAfterEveryInsert(1000, 600, 3), 0u);
}

// Join keys are never negative, but the bit-pattern order covers every
// non-NaN key: a cutoff and a key of opposite signs differ in bit 63.
TEST(DistanceQueueTest, MixedSignKeysMatchReference) {
  Random rng(17);
  for (const size_t k : {size_t{1}, size_t{5}, size_t{64}}) {
    DistanceQueue q(k);
    ReferenceDistanceQueue ref(k);
    for (int i = 0; i < 5000; ++i) {
      const double key = rng.Bernoulli(0.05) ? -0.0 : rng.Uniform(-1e3, 1e3);
      q.Insert(KeyVal(key));
      ref.Insert(key);
      ASSERT_EQ(q.CutoffKey(), KeyVal(ref.Cutoff()))
          << "k=" << k << " insert " << i;
    }
  }
}

}  // namespace
}  // namespace amdj::queue
