#ifndef AMDJ_CORE_HS_JOIN_H_
#define AMDJ_CORE_HS_JOIN_H_

#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/cursor.h"
#include "core/options.h"
#include "core/pair_entry.h"
#include "core/qdmax_tracker.h"
#include "queue/hybrid_queue.h"
#include "rtree/rtree.h"

namespace amdj::core {

/// Main-queue type shared by all distance-join algorithms.
using MainQueue = queue::HybridQueue<PairEntry, PairEntryCompare>;

/// Builds main-queue options (memory budget, spill disk, Eq.-3 boundary
/// function) from the join options and tree metadata.
MainQueue::Options MakeMainQueueOptions(const rtree::RTree& r,
                                        const rtree::RTree& s,
                                        const JoinOptions& options);

/// The main-queue comparator implied by the options' tie-break policy.
inline PairEntryCompare MakeMainQueueCompare(const JoinOptions& options) {
  return PairEntryCompare{options.tie_break == TieBreak::kObjectsFirst};
}

/// Closes a k-distance join's last report phase, recording the answer's
/// last distance as "final_dmax". No-op without options.report.
void FinishKdjReport(const JoinOptions& options,
                     const std::vector<ResultPair>& results,
                     const JoinStats& stats);

/// Hjaltason & Samet's k-distance join (SIGMOD'98), the paper's HS-KDJ
/// baseline: top-down traversal with *uni-directional* node expansion — a
/// dequeued pair <r, s> pairs the children of one node with the other node
/// as a whole — pruned by the distance queue's qDmax.
class HsKdj {
 public:
  /// Returns the k nearest object pairs in non-decreasing distance order
  /// (fewer if the Cartesian product is smaller). `stats` may be null.
  static StatusOr<std::vector<ResultPair>> Run(const rtree::RTree& r,
                                               const rtree::RTree& s,
                                               uint64_t k,
                                               const JoinOptions& options,
                                               JoinStats* stats);
};

/// Hjaltason & Samet's incremental distance join (HS-IDJ): the same
/// uni-directional traversal without a distance queue, producing pairs one
/// at a time.
class HsIdjCursor : public DistanceJoinCursor {
 public:
  /// Neither tree nor stats ownership is taken; both must outlive the
  /// cursor. `stats` may be null.
  HsIdjCursor(const rtree::RTree& r, const rtree::RTree& s,
              const JoinOptions& options, JoinStats* stats);

  Status Next(ResultPair* out, bool* done) override;
  uint64_t produced() const override { return produced_; }

 private:
  const rtree::RTree& r_;
  const rtree::RTree& s_;
  JoinOptions options_;
  JoinStats* stats_;
  JoinStats local_stats_;
  MainQueue queue_;
  /// Expansion scratch, reused across Next() calls.
  std::vector<PairRef> children_;
  bool primed_ = false;
  uint64_t produced_ = 0;
};

namespace internal_hs {

/// Uni-directional expansion shared by HS-KDJ and HS-IDJ: expands the
/// higher-level (tie: larger-area) node side of `pair` against the other
/// side as a whole, pushing every child pair with distance <= `cutoff`.
/// Counts one real distance computation per child. `tracker` (nullable for
/// IDJ) receives every push. `scratch` is a caller-owned child buffer,
/// cleared on entry — hoist it out of the expansion loop so the capacity
/// is reused across calls.
Status ExpandUniDirectional(const rtree::RTree& r, const rtree::RTree& s,
                            const PairEntry& pair, geom::KeyVal cutoff,
                            const JoinOptions& options, MainQueue* queue,
                            QdmaxTracker* tracker, JoinStats* stats,
                            std::vector<PairRef>* scratch);

}  // namespace internal_hs

}  // namespace amdj::core

#endif  // AMDJ_CORE_HS_JOIN_H_
