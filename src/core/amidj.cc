#include "core/amidj.h"

#include <algorithm>
#include <string>

#include "common/run_report.h"
#include "common/trace.h"
#include "core/expansion.h"
#include "core/plane_sweeper.h"

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
      queue_(MakeMainQueueOptions(r, s, options), stats_,
             MakeMainQueueCompare(options)) {}

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
  edmax_ = geom::DistanceToKeyCutoff(first, options_.metric);
  return queue_.Push(MakePair(RootRef(r_), RootRef(s_), options_.metric));
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
  const geom::DistVal edmax_dist =
      geom::KeyToDistance(edmax_, options_.metric);
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
                       static_cast<double>(compensation_.size())}}));
  edmax_ = geom::DistanceToKeyCutoff(next, options_.metric);
  for (const PairEntry& e : compensation_) {
    AMDJ_RETURN_IF_ERROR(queue_.Push(e));
  }
  compensation_.clear();
  return Status::OK();
}

Status AmIdjCursor::Expand(PairEntry c) {
  ++stats_->node_expansions;
  TraceSpan span(options_.tracer, "expand_sweep",
                 {{"r_level", static_cast<double>(c.r.level)},
                  {"s_level", static_cast<double>(c.s.level)},
                  {"key", c.key.raw()}});
  SweepPlan plan;
  geom::KeyVal prior{-1.0};
  if (c.WasExpanded()) {
    // Resume the earlier sweep: same axis and direction reproduce the
    // earlier enumeration order, so the examined region is exactly
    // { axis <= prior, real <= prior }.
    plan.axis = c.prior_axis;
    plan.dir = c.prior_dir == 0 ? geom::SweepDirection::kForward
                                : geom::SweepDirection::kBackward;
    prior = c.prior_cutoff;
  } else {
    plan = ChooseSweepPlan(c.r.rect, c.s.rect,
                           geom::KeyToDistance(edmax_, options_.metric),
                           options_.sweep);
  }
  auto arena = LoadSweepSides(r_, s_, c, plan, options_);
  if (!arena.ok()) return arena.status();

  Status sweep_status;
  geom::KeyVal axis_cutoff = edmax_;
  KeyedSweepSpec spec;
  spec.metric = options_.metric;
  spec.axis_cutoff_key = &axis_cutoff;
  // A child with key > eDmax is dropped but recoverable in a later stage;
  // the sweep records the drop in `dist_filtered`.
  spec.dist_cutoff_key = &edmax_;
  // Pairs in the previously examined region were already inserted (or
  // emitted) by the earlier stage; in the prefix axis <= prior, exactly
  // those with key <= prior. (In the suffix key >= axis > prior, so the
  // test never misfires.)
  spec.skip_dist_below_key = prior;
  const KeyedSweepResult sweep = PlaneSweepKeyed(
      *arena, spec, stats_,
      [&](const PairRef& lref, const PairRef& rref, geom::KeyVal dist_key) {
        if (!sweep_status.ok()) return;
        if (options_.exclude_same_id && IsSelfPair(lref, rref)) return;
        PairEntry e;
        e.r = lref;
        e.s = rref;
        e.key = dist_key;
        sweep_status = queue_.Push(e);
        if (!sweep_status.ok()) {
          axis_cutoff = geom::KeyVal(-1.0);  // abort the sweep
        }
      });
  AMDJ_RETURN_IF_ERROR(sweep_status);

  if (!sweep.axis_covered || sweep.dist_filtered) {
    // The expansion skipped children that a later, larger cutoff could
    // admit: record it (with the cutoff that bounds the examined region)
    // for compensation. Fully covered pairs never re-enter — this is what
    // guarantees termination once eDmax exceeds the data diameter. The max
    // keeps the bookkeeping exact if a forced cutoff ever shrinks.
    c.prior_cutoff = std::max(edmax_, prior);
    c.prior_axis = static_cast<int8_t>(plan.axis);
    c.prior_dir =
        plan.dir == geom::SweepDirection::kForward ? int8_t{0} : int8_t{1};
    compensation_.push_back(c);
    ++stats_->compensation_queue_insertions;
  }
  return Status::OK();
}

Status AmIdjCursor::Next(ResultPair* out, bool* done) {
  *done = false;
  if (!primed_) AMDJ_RETURN_IF_ERROR(Prime());
  PairEntry c;
  while (!exhausted_) {
    if (queue_.Empty()) {
      if (compensation_.empty()) {
        exhausted_ = true;
        break;
      }
      AMDJ_RETURN_IF_ERROR(StartNewStage());
      continue;
    }
    AMDJ_RETURN_IF_ERROR(queue_.Pop(&c));
    if (c.key > edmax_) {
      // Everything within the current cutoff has been surfaced; grow it
      // and recover the aggressively pruned children before going deeper.
      // Checked before emission: an object pair beyond the cutoff must not
      // overtake pruned-but-closer pairs (can only arise under a forced,
      // shrinking cutoff schedule, but order is sacred).
      AMDJ_RETURN_IF_ERROR(queue_.Push(c));
      AMDJ_RETURN_IF_ERROR(StartNewStage());
      continue;
    }
    if (c.IsObjectPair()) {
      const geom::DistVal dist = geom::KeyToDistance(c.key, options_.metric);
      *out = {dist.raw(), c.r.id, c.s.id};
      last_distance_ = dist;
      ++produced_;
      ++stats_->pairs_produced;
      return Status::OK();
    }
    AMDJ_RETURN_IF_ERROR(Expand(c));
  }
  *done = true;
  return Status::OK();
}

}  // namespace amdj::core
