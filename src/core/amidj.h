#ifndef AMDJ_CORE_AMIDJ_H_
#define AMDJ_CORE_AMIDJ_H_

#include <optional>

#include "common/stats.h"
#include "common/status.h"
#include "core/best_first.h"
#include "core/cursor.h"
#include "core/dmax_estimator.h"
#include "core/options.h"
#include "core/pair_entry.h"
#include "geom/metric.h"
#include "rtree/rtree.h"

namespace amdj::core {

/// AM-IDJ (Section 4.2): adaptive multi-stage *incremental* distance join.
/// Because the stopping cardinality is unknown, there is no distance queue;
/// the estimated eDmax_i alone prunes each stage. Stage i targets k_i
/// results under cutoff eDmax_i; when the main queue yields a pair beyond
/// the cutoff (or runs dry) while the caller still wants results, the next
/// stage begins: eDmax_{i+1} is re-estimated from the results so far
/// (Eq. 4/5 corrections), the compensation queue's partially-expanded node
/// pairs re-enter the main queue, and their sweeps resume exactly where the
/// previous cutoff stopped them. Results stream out in globally
/// non-decreasing distance order across stages.
class AmIdjCursor : public DistanceJoinCursor {
 public:
  /// Neither tree nor stats ownership is taken; both must outlive the
  /// cursor. `stats` may be null.
  AmIdjCursor(const rtree::RTree& r, const rtree::RTree& s,
              const JoinOptions& options, JoinStats* stats);

  Status Next(ResultPair* out, bool* done) override;
  uint64_t produced() const override { return produced_; }

  /// Sizes the first stage's eDmax for an expected consumption of k pairs
  /// (and later stages' growth). Harmless to omit.
  void PrefetchHint(uint64_t k) override;

  /// Forces the *next* stage transition (or the first stage, if priming has
  /// not happened) to use exactly this cutoff instead of the estimate.
  /// Figure 15's "real Dmax" variant drives the cursor through this.
  /// Distance space (geom::DistVal), like every user-facing cutoff.
  void ForceNextStageEdmax(geom::DistVal edmax);

  /// Cutoff of the stage currently executing, as a distance (the internal
  /// cutoff lives in key space; this converts at the API boundary).
  geom::DistVal current_edmax() const {
    return geom::KeyToDistance(
        engine_.edmax().value_or(geom::KeyVal::Zero()), options_.metric);
  }
  /// Number of stages started so far (1 after the first Next()).
  uint32_t stage_count() const { return stage_count_; }

 private:
  Status Prime();
  /// Moves the compensation queue into the main queue under a freshly
  /// estimated (or forced) larger cutoff.
  Status StartNewStage();

  const rtree::RTree& r_;
  const rtree::RTree& s_;
  JoinOptions options_;
  JoinStats* stats_;
  JoinStats local_stats_;
  DmaxEstimator fallback_estimator_;
  const CutoffEstimator* estimator_;  // options_.estimator or the fallback
  /// Stages run with an eDmax and no qDmax tracker; the engine holds the
  /// stage cutoff in key space, and estimator calls and the public
  /// accessors convert.
  BestFirstJoin engine_;
  std::optional<geom::DistVal> forced_next_edmax_;
  uint64_t target_hint_ = 0;
  uint64_t produced_ = 0;
  geom::DistVal last_distance_ = geom::DistVal::Zero();
  uint32_t stage_count_ = 0;
  bool primed_ = false;
  bool exhausted_ = false;
};

}  // namespace amdj::core

#endif  // AMDJ_CORE_AMIDJ_H_
