#ifndef AMDJ_CORE_BEST_FIRST_H_
#define AMDJ_CORE_BEST_FIRST_H_

#include <optional>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/hs_join.h"
#include "core/options.h"
#include "core/pair_entry.h"
#include "core/qdmax_tracker.h"
#include "rtree/rtree.h"

namespace amdj::core {

/// The best-first, bidirectional-expansion loop shared by B-KDJ (Algorithm
/// 1), both stages of AM-KDJ (Algorithms 2 and 3) and every stage of AM-IDJ
/// (Section 4.2). It owns the main queue, the compensation queue Qc and the
/// stage cutoff eDmax. A stage is two facts the engine holds — whether an
/// eDmax is set, and whether a QdmaxTracker is attached — and they decide
/// every difference between the algorithms:
///   - the sweep's axis prune is the fixed eDmax when one is set, else the
///     live qDmax;
///   - the distance filter is the live qDmax with a tracker, else eDmax;
///   - a pair resumed from Qc skips its examined axis prefix with a tracker
///     (qDmax drops are permanent), else only the children it already
///     reported (eDmax drops are recoverable);
///   - under an eDmax, Qc takes a pair whose sweep eDmax cut short or,
///     without a tracker, one whose sweep filtered a child.
/// B-KDJ is a tracker and no eDmax; AM-KDJ's aggressive stage adds an
/// eDmax, clamped to qDmax as qDmax falls (Algorithm 2, line 8), and its
/// compensation stage clears it; AM-IDJ sets a growing eDmax per stage
/// with no tracker.
class BestFirstJoin {
 public:
  /// Neither tree, the options, the stats (non-null) nor the tracker
  /// (nullable) is owned; all must outlive the engine.
  BestFirstJoin(const rtree::RTree& r, const rtree::RTree& s,
                const JoinOptions& options, JoinStats* stats,
                QdmaxTracker* tracker);

  /// Queues the root pair.
  Status PushRoot();

  /// Pops until an object pair is emitted into *out (*emitted = true), a
  /// pair beyond eDmax is put back, or the main queue runs dry.
  Status Step(ResultPair* out, bool* emitted);

  /// Steps, appending to *results, until it holds k pairs or a Step emits
  /// nothing.
  Status Drain(uint64_t k, std::vector<ResultPair>* results);

  /// Moves Qc back into the main queue: the start of a compensation stage
  /// or of AM-IDJ's next stage.
  Status Recover();

  /// The stage cutoff as a metric key; std::nullopt for none.
  const std::optional<geom::KeyVal>& edmax() const { return edmax_; }
  void set_edmax(std::optional<geom::KeyVal> edmax) { edmax_ = edmax; }

  size_t compensation_size() const { return compensation_.size(); }
  /// True when neither the main queue nor Qc holds a pair.
  bool Exhausted() const { return queue_.Empty() && compensation_.empty(); }

 private:
  /// Expands node pair `c` with one plane sweep, resuming its recorded
  /// sweep if it comes from Qc, and records it in Qc if the stage's eDmax
  /// left children unexamined.
  Status Expand(PairEntry c);

  const rtree::RTree& r_;
  const rtree::RTree& s_;
  const JoinOptions& options_;
  JoinStats* stats_;
  QdmaxTracker* tracker_;
  MainQueue queue_;
  std::vector<PairEntry> compensation_;  // Qc: node pairs only, stays small
  std::optional<geom::KeyVal> edmax_;
};

}  // namespace amdj::core

#endif  // AMDJ_CORE_BEST_FIRST_H_
