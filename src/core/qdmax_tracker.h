#ifndef AMDJ_CORE_QDMAX_TRACKER_H_
#define AMDJ_CORE_QDMAX_TRACKER_H_

#include "common/stats.h"
#include "core/options.h"
#include "core/pair_entry.h"
#include "queue/cutoff_tracker.h"
#include "queue/distance_queue.h"

namespace amdj::core {

/// Policy-dispatching wrapper around the qDmax cutoff state of the KDJ
/// algorithms. Call OnPush for every pair entering the main queue and
/// OnNodePairLeave for every non-object pair leaving it (expanded,
/// discarded, or bounced at a stage boundary).
///
/// kObjectPairsOnly (the paper's default) counts object-pair distances in
/// a plain bounded max-heap. kAllPairs additionally counts node-pair
/// max-distance *certificates*, revoked when the pair leaves the queue —
/// see TrackedDistanceQueue for why revocation is what makes that policy
/// sound. Pairs carrying compensation bookkeeping (already expanded once)
/// never contribute certificates: part of their subtree product is
/// already represented by their stage-one children.
class QdmaxTracker {
 public:
  QdmaxTracker(uint64_t k, const JoinOptions& options, JoinStats* stats)
      : policy_(options.distance_queue_policy),
        metric_(options.metric),
        stats_(stats),
        objects_(static_cast<size_t>(k), stats),
        tracked_(static_cast<size_t>(k), stats) {}

  /// Records a pair that was just pushed into the main queue (or emitted —
  /// object-pair distances are permanent either way).
  void OnPush(const PairEntry& e) {
    if (e.IsObjectPair()) {
      if (policy_ == DistanceQueuePolicy::kObjectPairsOnly) {
        objects_.Insert(e.key);
      } else {
        tracked_.Insert(e.key);
      }
      return;
    }
    if (policy_ == DistanceQueuePolicy::kAllPairs && !e.WasExpanded()) {
      if (stats_ != nullptr) ++stats_->real_distance_computations;
      tracked_.InsertRevocable(Certificate(e));
    }
  }

  /// Records a non-object pair leaving the main queue.
  void OnNodePairLeave(const PairEntry& e) {
    if (policy_ == DistanceQueuePolicy::kAllPairs && !e.WasExpanded()) {
      tracked_.Revoke(Certificate(e));
    }
  }

  /// The current qDmax, as a metric key (same space as PairEntry::key).
  geom::KeyVal Cutoff() const {
    return policy_ == DistanceQueuePolicy::kObjectPairsOnly
               ? objects_.CutoffKey()
               : tracked_.CutoffKey();
  }

 private:
  geom::KeyVal Certificate(const PairEntry& e) const {
    return geom::MaxDistanceKey(e.r.rect, e.s.rect, metric_);
  }

  DistanceQueuePolicy policy_;
  geom::Metric metric_;
  JoinStats* stats_;
  queue::DistanceQueue objects_;
  queue::TrackedDistanceQueue tracked_;
};

}  // namespace amdj::core

#endif  // AMDJ_CORE_QDMAX_TRACKER_H_
