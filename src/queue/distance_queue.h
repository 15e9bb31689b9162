#ifndef AMDJ_QUEUE_DISTANCE_QUEUE_H_
#define AMDJ_QUEUE_DISTANCE_QUEUE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "geom/units.h"

namespace amdj::queue {

/// The paper's *distance queue* (Section 2.1): the k smallest object-pair
/// priorities seen so far. Its maximum is the pruning cutoff qDmax; until
/// k values have been collected the cutoff is +infinity.
///
/// Since the key-space migration (PR 2) the values are metric *keys*
/// (geom::KeyVal — squared distances under L2), not true distances; the
/// key is monotone in the distance, so the k-th smallest key is exactly
/// the key of the k-th smallest distance. The strong type makes feeding a
/// distance-space value into the cutoff a compile error.
///
/// Following the paper's footnote 1, only *object* pair keys are inserted
/// (node pairs would have to contribute their max-distance key, which
/// rarely lowers the cutoff). An ablation bench flips this policy.
///
/// Layout: a monotone radix heap (Ahuja, Mehlhorn, Orlin, Tarjan 1990)
/// over order-reversed key bit patterns. Once k keys are held, a key is
/// accepted only when strictly below the cutoff, and it evicts one copy of
/// the cutoff, so the cutoff never rises: every key ever accepted has a
/// pattern above the current cutoff's. That is the radix heap's
/// precondition, and it makes the structure exact, not approximate.
/// Bucket b holds the patterns whose highest bit differing from the
/// cutoff's is bit b - 1; bucket 0 holds the copies of the cutoff itself.
/// An accepted key is appended to its bucket and one entry of bucket 0 is
/// dropped. Only when bucket 0 runs dry is the lowest non-empty bucket
/// redistributed around its minimum pattern (the new cutoff); every entry
/// moves to a strictly lower bucket, so an entry moves at most 64 times.
class DistanceQueue {
 public:
  /// `k` must be >= 1. `stats` (optional) receives insertion counts.
  explicit DistanceQueue(size_t k, JoinStats* stats = nullptr);

  /// Offers a key; keeps only the k smallest. Keys are never NaN.
  void Insert(geom::KeyVal key);

  /// Current pruning cutoff qDmax as a key: the k-th smallest key seen, or
  /// +infinity while fewer than k keys have been inserted.
  geom::KeyVal CutoffKey() const { return cutoff_; }

  size_t size() const { return size_; }
  size_t capacity() const { return k_; }

 private:
  /// Order-reversed view of a key's IEEE-754 bits: a larger key has a
  /// smaller pattern, for every non-NaN key. Non-negative keys flip their
  /// 63 low bits, negative ones keep theirs (which already order in
  /// reverse); `+ 0.0` folds -0.0 into +0.0, which compares equal to it.
  static uint64_t Pattern(geom::KeyVal key) {
    const uint64_t bits = std::bit_cast<uint64_t>(key.raw() + 0.0);
    return bits ^ (((bits >> 63) - 1) >> 1);
  }
  /// Inverse of Pattern (the flip is an involution: bit 63 never flips).
  static geom::KeyVal KeyOf(uint64_t pattern) {
    return geom::KeyVal(
        std::bit_cast<double>(pattern ^ (((pattern >> 63) - 1) >> 1)));
  }

  /// Appends a pattern to its bucket relative to the cutoff's pattern.
  void Place(uint64_t pattern) {
    const int b = std::bit_width(pattern ^ cutoff_pattern_);
    buckets_[b].push_back(pattern);
    occupied_ |= uint64_t{1} << (b & 63);
  }

  /// Refills the empty bucket 0: the lowest non-empty bucket's minimum
  /// pattern becomes the cutoff and the bucket is redistributed around it.
  void Settle();

  size_t k_;
  JoinStats* stats_;
  size_t size_ = 0;
  /// Buckets above this many entries give their storage back after a
  /// redistribution, so the slack stays O(k).
  size_t release_above_;
  geom::KeyVal cutoff_ = geom::KeyVal::Infinity();
  /// Pattern of cutoff_ once k keys are held; 0 (below every non-NaN
  /// pattern) while filling.
  uint64_t cutoff_pattern_ = 0;
  std::array<std::vector<uint64_t>, 65> buckets_;
  /// Bit b set iff bucket b (1 <= b <= 63) is non-empty; bit 0 is
  /// don't-care (bucket 0 is checked directly, bucket 64 — keys of the
  /// other sign than the cutoff — is the fallback when no bit is set).
  uint64_t occupied_ = 0;
};

}  // namespace amdj::queue

#endif  // AMDJ_QUEUE_DISTANCE_QUEUE_H_
