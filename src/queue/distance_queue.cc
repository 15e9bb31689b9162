#include "queue/distance_queue.h"

#include <algorithm>

namespace amdj::queue {

DistanceQueue::DistanceQueue(size_t k, JoinStats* stats)
    : k_(k == 0 ? 1 : k),
      stats_(stats),
      release_above_(std::max<size_t>(k_ / 16, 64)) {}

void DistanceQueue::Insert(geom::KeyVal key) {
  if (size_ < k_) {
    // Filling: the cutoff is +inf, so every key is kept.
    if (stats_ != nullptr) ++stats_->distance_queue_insertions;
    Place(Pattern(key));
    if (++size_ == k_) Settle();
    return;
  }
  if (key >= cutoff_) return;  // not among the k smallest
  if (stats_ != nullptr) ++stats_->distance_queue_insertions;
  Place(Pattern(key));
  buckets_[0].pop_back();  // evict one copy of the old cutoff
  if (buckets_[0].empty()) Settle();
}

void DistanceQueue::Settle() {
  // k >= 1 keys are held and bucket 0 is empty, so a later bucket is not:
  // the lowest one flagged in occupied_, or else bucket 64.
  const uint64_t flagged = occupied_ & ~uint64_t{1};
  const int b = flagged != 0 ? std::countr_zero(flagged) : 64;
  occupied_ &= ~(uint64_t{1} << (b & 63));
  std::vector<uint64_t>& from = buckets_[b];
  cutoff_pattern_ = *std::min_element(from.begin(), from.end());
  cutoff_ = KeyOf(cutoff_pattern_);
  // Every entry of bucket b agrees with the new cutoff's pattern on bit
  // b - 1 and above, so each lands in a bucket below b: `from` is never
  // appended to while it is walked.
  for (const uint64_t pattern : from) Place(pattern);
  from.clear();
  if (from.capacity() > release_above_) std::vector<uint64_t>().swap(from);
}

}  // namespace amdj::queue
