#ifndef AMDJ_CORE_BKDJ_H_
#define AMDJ_CORE_BKDJ_H_

#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/hs_join.h"
#include "core/options.h"
#include "core/pair_entry.h"
#include "rtree/rtree.h"

namespace amdj::core {

/// B-KDJ (Section 3, Algorithm 1): k-distance join with *bidirectional*
/// node expansion — a dequeued pair <r, s> pairs children of r with
/// children of s directly — kept sub-Cartesian by the optimized plane
/// sweep: per-pair sweeping-axis selection (minimum sweeping index, Eq. 2)
/// and sweeping-direction selection (Section 3.3), pruned by the distance
/// queue's qDmax on both axis and real distances.
class BKdj {
 public:
  /// Returns the k nearest object pairs in non-decreasing distance order
  /// (fewer if the Cartesian product is smaller). `stats` may be null.
  static StatusOr<std::vector<ResultPair>> Run(const rtree::RTree& r,
                                               const rtree::RTree& s,
                                               uint64_t k,
                                               const JoinOptions& options,
                                               JoinStats* stats);
};

}  // namespace amdj::core

#endif  // AMDJ_CORE_BKDJ_H_
