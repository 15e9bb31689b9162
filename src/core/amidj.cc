#include "core/amidj.h"

#include <algorithm>
#include <string>

#include "common/run_report.h"
#include "common/trace.h"

namespace amdj::core {

AmIdjCursor::AmIdjCursor(const rtree::RTree& r, const rtree::RTree& s,
                         const JoinOptions& options, JoinStats* stats)
    : r_(r),
      s_(s),
      options_(options),
      stats_(stats != nullptr ? stats : &local_stats_),
      fallback_estimator_(r.bounds(), r.size(), s.bounds(), s.size(),
                          options.metric),
      estimator_(options_.estimator != nullptr ? options_.estimator
                                                : &fallback_estimator_),
      engine_(r, s, options_, stats_, nullptr) {}

void AmIdjCursor::PrefetchHint(uint64_t k) {
  target_hint_ = std::max(target_hint_, k);
}

void AmIdjCursor::ForceNextStageEdmax(geom::DistVal edmax) {
  forced_next_edmax_ = edmax;
}

Status AmIdjCursor::Prime() {
  primed_ = true;
  if (r_.size() == 0 || s_.size() == 0) {
    exhausted_ = true;
    return Status::OK();
  }
  stage_count_ = 1;
  const uint64_t k1 = std::max(options_.idj_initial_k, target_hint_);
  geom::DistVal first;  // distance space until the conversion below
  if (forced_next_edmax_.has_value()) {
    first = *forced_next_edmax_;
    forced_next_edmax_.reset();
  } else {
    first = InitialEdmaxEstimate(options_, *estimator_, k1);
  }
  if (options_.report != nullptr) {
    options_.report->BeginPhase("stage-1", *stats_);
    options_.report->OnCutoff("initial_edmax", first.raw(), 0);
  }
  AMDJ_TRACE(options_.tracer, Counter("edmax", first.raw()));
  AMDJ_TRACE(options_.tracer,
             Instant("stage_start",
                     {{"stage", 1.0}, {"edmax", first.raw()}}));
  engine_.set_edmax(geom::DistanceToKeyCutoff(first, options_.metric));
  return engine_.PushRoot();
}

Status AmIdjCursor::StartNewStage() {
  ++stage_count_;
  geom::DistVal next = geom::DistVal::Zero();
  if (forced_next_edmax_.has_value()) {
    next = *forced_next_edmax_;
    forced_next_edmax_.reset();
  } else {
    // Target roughly double the pairs produced so far (at least the hint
    // and at least one more initial batch), then re-estimate the cutoff
    // from the freshest ground truth: the produced_-th distance.
    const uint64_t k_next = std::max<uint64_t>(
        {target_hint_, produced_ * 2, produced_ + options_.idj_initial_k});
    const bool aggressive =
        options_.correction == CorrectionPolicy::kAggressive;
    if (options_.estimator != nullptr || produced_ == 0) {
      // Custom estimators define their own correction; the Eq.-4/5 policy
      // split below is specific to the uniform estimator.
      next = produced_ == 0 ? estimator_->EstimateDmax(k_next)
                            : estimator_->Correct(k_next, produced_,
                                                  last_distance_, aggressive);
    } else {
      switch (options_.correction) {
        case CorrectionPolicy::kArithmeticOnly:
          next = fallback_estimator_.ArithmeticCorrection(k_next, produced_,
                                                          last_distance_);
          break;
        case CorrectionPolicy::kGeometricOnly:
          next = fallback_estimator_.GeometricCorrection(k_next, produced_,
                                                         last_distance_);
          break;
        default:
          next = fallback_estimator_.Correct(k_next, produced_,
                                             last_distance_, aggressive);
          break;
      }
    }
  }
  // Safeguard: the cutoff must strictly grow or the stage cannot make
  // progress (e.g. heavily skewed data keeps the correction below the old
  // estimate). Applied in distance space — the estimator's native units —
  // before the key-space conversion; the key round-trips exactly
  // (sqrt(fl(d*d)) == d), so the growth schedule is unchanged.
  const geom::DistVal edmax_dist = current_edmax();
  if (next <= edmax_dist) {
    // Raw view: the 1.5x growth schedule is distance-space arithmetic.
    next = edmax_dist > geom::DistVal::Zero()
               ? geom::DistVal(edmax_dist.raw() * 1.5)
               : std::max(estimator_->EstimateDmax(1),
                          geom::DistVal(1e-12));
  }
  if (options_.report != nullptr) {
    options_.report->BeginPhase("stage-" + std::to_string(stage_count_),
                                *stats_);
    options_.report->OnCutoff("stage_edmax", next.raw(), produced_);
  }
  AMDJ_TRACE(options_.tracer, Counter("edmax", next.raw()));
  AMDJ_TRACE(options_.tracer,
             Instant("stage_start",
                     {{"stage", static_cast<double>(stage_count_)},
                      {"edmax", next.raw()},
                      {"produced", static_cast<double>(produced_)},
                      {"recovered",
                       static_cast<double>(engine_.compensation_size())}}));
  engine_.set_edmax(geom::DistanceToKeyCutoff(next, options_.metric));
  return engine_.Recover();
}

Status AmIdjCursor::Next(ResultPair* out, bool* done) {
  *done = false;
  if (!primed_) AMDJ_RETURN_IF_ERROR(Prime());
  while (!exhausted_) {
    bool emitted = false;
    AMDJ_RETURN_IF_ERROR(engine_.Step(out, &emitted));
    if (emitted) {
      last_distance_ = geom::DistVal(out->distance);
      ++produced_;
      return Status::OK();
    }
    if (engine_.Exhausted()) {
      exhausted_ = true;
      break;
    }
    // Everything within the current cutoff has been surfaced (a pair
    // beyond it was put back, or the main queue ran dry with pruned pairs
    // in Qc): grow the cutoff and recover the pruned children before going
    // deeper.
    AMDJ_RETURN_IF_ERROR(StartNewStage());
  }
  *done = true;
  return Status::OK();
}

}  // namespace amdj::core
