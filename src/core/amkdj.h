#ifndef AMDJ_CORE_AMKDJ_H_
#define AMDJ_CORE_AMKDJ_H_

#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/hs_join.h"
#include "core/options.h"
#include "core/pair_entry.h"
#include "rtree/rtree.h"

namespace amdj::core {

/// AM-KDJ (Section 4.1, Algorithms 2 + 3): adaptive multi-stage k-distance
/// join. Stage one prunes *aggressively*: axis distances beyond the
/// estimated cutoff eDmax (Eq. 3, or JoinOptions::forced_edmax) are skipped
/// entirely, while real distances are still filtered by the exact qDmax.
/// Every node pair whose sweep was cut short is remembered in a
/// compensation queue together with the eDmax used, so that if stage one
/// ends before k results (eDmax was an underestimate) a compensation stage
/// re-expands exactly the skipped sweep suffixes under qDmax — guaranteeing
/// the same results as B-KDJ for *any* eDmax.
class AmKdj {
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

#endif  // AMDJ_CORE_AMKDJ_H_
