#include "core/best_first.h"

#include <algorithm>

#include "common/trace.h"
#include "core/expansion.h"
#include "core/plane_sweeper.h"

namespace amdj::core {

BestFirstJoin::BestFirstJoin(const rtree::RTree& r, const rtree::RTree& s,
                             const JoinOptions& options, JoinStats* stats,
                             QdmaxTracker* tracker)
    : r_(r),
      s_(s),
      options_(options),
      stats_(stats),
      tracker_(tracker),
      queue_(MakeMainQueueOptions(r, s, options), stats,
             MakeMainQueueCompare(options)) {}

Status BestFirstJoin::PushRoot() {
  const PairEntry root = MakePair(RootRef(r_), RootRef(s_), options_.metric);
  AMDJ_RETURN_IF_ERROR(queue_.Push(root));
  if (tracker_ != nullptr) tracker_->OnPush(root);
  return Status::OK();
}

Status BestFirstJoin::Step(ResultPair* out, bool* emitted) {
  *emitted = false;
  PairEntry c;
  while (!queue_.Empty()) {
    AMDJ_RETURN_IF_ERROR(queue_.Pop(&c));
    if (tracker_ != nullptr && !c.IsObjectPair()) {
      tracker_->OnNodePairLeave(c);
    }
    if (edmax_.has_value()) {
      // Algorithm 2, line 8: an overestimated eDmax is clamped to qDmax.
      if (tracker_ != nullptr && tracker_->Cutoff() <= *edmax_) {
        edmax_ = tracker_->Cutoff();
      }
      if (c.key > *edmax_) {
        // The frontier left the eDmax radius: the stage ends. Checked
        // before emission — an object pair beyond eDmax must not overtake
        // the closer pairs eDmax pruned, which the next stage recovers.
        AMDJ_RETURN_IF_ERROR(queue_.Push(c));
        if (tracker_ != nullptr && !c.IsObjectPair()) {
          tracker_->OnPush(c);  // restore its certificate
        }
        return Status::OK();
      }
    }
    if (c.IsObjectPair()) {
      *out = {geom::KeyToDistance(c.key, options_.metric).raw(), c.r.id,
              c.s.id};
      ++stats_->pairs_produced;
      *emitted = true;
      return Status::OK();
    }
    // qDmax upper-bounds the final k-th distance at all times, so a pair
    // whose minimum distance exceeds it can never contribute.
    if (tracker_ != nullptr && c.key > tracker_->Cutoff()) continue;
    AMDJ_RETURN_IF_ERROR(Expand(c));
  }
  return Status::OK();
}

Status BestFirstJoin::Drain(uint64_t k, std::vector<ResultPair>* results) {
  ResultPair pair;
  for (bool emitted = true; emitted && results->size() < k;) {
    AMDJ_RETURN_IF_ERROR(Step(&pair, &emitted));
    if (emitted) results->push_back(pair);
  }
  return Status::OK();
}

Status BestFirstJoin::Recover() {
  for (const PairEntry& e : compensation_) {
    AMDJ_RETURN_IF_ERROR(queue_.Push(e));
  }
  compensation_.clear();
  return Status::OK();
}

Status BestFirstJoin::Expand(PairEntry c) {
  ++stats_->node_expansions;
  TraceSpan span(options_.tracer, "expand_sweep",
                 {{"r_level", static_cast<double>(c.r.level)},
                  {"s_level", static_cast<double>(c.s.level)},
                  {"key", c.key.raw()}});
  // The callback refreshes qdmax after every push; -1 aborts the sweep.
  geom::KeyVal qdmax = tracker_ != nullptr ? tracker_->Cutoff()
                                           : geom::KeyVal::Infinity();
  geom::KeyVal edmax = edmax_.value_or(geom::KeyVal::Infinity());
  geom::KeyVal* const axis_cutoff = edmax_.has_value() ? &edmax : &qdmax;
  KeyedSweepSpec spec;
  spec.metric = options_.metric;
  spec.axis_cutoff_key = axis_cutoff;
  spec.dist_cutoff_key = tracker_ != nullptr ? &qdmax : &edmax;

  SweepPlan plan;
  if (c.WasExpanded()) {
    // Resume the recorded sweep: the same axis and direction reproduce its
    // enumeration order, so the examined region is {axis <= prior_cutoff}.
    plan.axis = c.prior_axis;
    plan.dir = c.prior_dir == 0 ? geom::SweepDirection::kForward
                                : geom::SweepDirection::kBackward;
    if (tracker_ != nullptr) {
      // Its pairs were filtered under a qDmax no smaller than today's:
      // those dropped stay dropped, those kept are already queued.
      spec.skip_axis_below_key = c.prior_cutoff;
    } else {
      // Only those with key <= prior_cutoff were reported; the rest of the
      // prefix was dropped under the old eDmax and is due now. (In the
      // suffix key >= axis > prior_cutoff, so the test never misfires.)
      spec.skip_dist_below_key = c.prior_cutoff;
    }
  } else {
    plan = ChooseSweepPlan(c.r.rect, c.s.rect,
                           geom::KeyToDistance(*axis_cutoff, options_.metric),
                           options_.sweep);
  }
  auto arena = LoadSweepSides(r_, s_, c, plan, options_);
  if (!arena.ok()) return arena.status();

  Status status;
  const KeyedSweepResult sweep = PlaneSweepKeyed(
      *arena, spec, stats_,
      [&](const PairRef& lref, const PairRef& rref, geom::KeyVal dist_key) {
        if (!status.ok()) return;
        if (options_.exclude_same_id && IsSelfPair(lref, rref)) return;
        PairEntry e;
        e.r = lref;
        e.s = rref;
        e.key = dist_key;
        status = queue_.Push(e);
        if (!status.ok()) {
          *axis_cutoff = geom::KeyVal(-1.0);  // abort the sweep
          return;
        }
        if (tracker_ != nullptr) {
          tracker_->OnPush(e);  // Algorithm 1, line 19: qDmax may shrink
          qdmax = tracker_->Cutoff();
        }
      });
  AMDJ_RETURN_IF_ERROR(status);

  if (edmax_.has_value() &&
      (!sweep.axis_covered || (tracker_ == nullptr && sweep.dist_filtered))) {
    // Record the pair with the cutoff that bounds its examined region, so
    // a later stage examines exactly the remainder. Fully covered pairs
    // never re-enter: that keeps Qc orders of magnitude smaller than the
    // main queue, and ends AM-IDJ once eDmax exceeds the data diameter.
    // The max keeps the bookkeeping exact if a forced eDmax ever shrinks.
    c.prior_cutoff = std::max(*edmax_, c.prior_cutoff);
    c.prior_axis = static_cast<int8_t>(plan.axis);
    c.prior_dir =
        plan.dir == geom::SweepDirection::kForward ? int8_t{0} : int8_t{1};
    compensation_.push_back(c);
    ++stats_->compensation_queue_insertions;
  }
  return Status::OK();
}

}  // namespace amdj::core
