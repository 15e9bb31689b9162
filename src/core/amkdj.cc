#include "core/amkdj.h"

#include "common/run_report.h"
#include "common/trace.h"
#include "core/dmax_estimator.h"
#include "core/expansion.h"
#include "core/plane_sweeper.h"
#include "core/qdmax_tracker.h"

namespace amdj::core {

StatusOr<std::vector<ResultPair>> AmKdj::Run(const rtree::RTree& r,
                                             const rtree::RTree& s,
                                             uint64_t k,
                                             const JoinOptions& options,
                                             JoinStats* stats) {
  std::vector<ResultPair> results;
  if (k == 0 || r.size() == 0 || s.size() == 0) return results;
  JoinStats local;
  if (stats == nullptr) stats = &local;

  const DmaxEstimator fallback_estimator(r.bounds(), r.size(), s.bounds(),
                                         s.size(), options.metric);
  const CutoffEstimator* estimator = options.estimator != nullptr
                                         ? options.estimator
                                         : &fallback_estimator;
  geom::KeyVal edmax = geom::DistanceToKeyCutoff(
      InitialEdmaxEstimate(options, *estimator, k),
      options.metric);
  if (options.report != nullptr) {
    options.report->BeginPhase("aggressive", *stats);
    options.report->OnCutoff("initial_edmax",
                             geom::KeyToDistance(edmax, options.metric).raw(), 0);
  }
  AMDJ_TRACE(options.tracer,
             Counter("edmax",
                     geom::KeyToDistance(edmax, options.metric).raw()));
  const auto finish_report = [&options, &stats](
                                 const std::vector<ResultPair>& res) {
    if (options.report == nullptr) return;
    if (!res.empty()) {
      options.report->OnCutoff("final_dmax", res.back().distance,
                               res.size());
    }
    options.report->EndPhase(*stats);
  };

  MainQueue queue(MakeMainQueueOptions(r, s, options), stats,
                  MakeMainQueueCompare(options));
  QdmaxTracker tracker(k, options, stats);
  std::vector<PairEntry> compensation;  // Qc: node pairs only, stays small
  {
    const PairEntry root = MakePair(RootRef(r), RootRef(s), options.metric);
    AMDJ_RETURN_IF_ERROR(queue.Push(root));
    tracker.OnPush(root);
  }

  PairEntry c;

  // ------------------------------------------------------------------
  // Stage one: aggressive pruning (Algorithm 2).
  bool compensate = false;
  while (results.size() < k && !queue.Empty()) {
    AMDJ_RETURN_IF_ERROR(queue.Pop(&c));
    if (!c.IsObjectPair()) tracker.OnNodePairLeave(c);
    geom::KeyVal qdmax = tracker.Cutoff();
    // Line 8: an overestimated eDmax is clamped to qDmax, after which the
    // stage behaves exactly like B-KDJ.
    if (qdmax <= edmax) edmax = qdmax;
    if (c.key > edmax) {
      // Line 9 (with the obvious reading of the garbled comparison): the
      // frontier left the eDmax radius with fewer than k results, so eDmax
      // was an underestimate. This check must precede emission — an
      // *object* pair beyond eDmax must wait for the compensation stage,
      // which first recovers the aggressively pruned closer pairs; emitting
      // it here would break the non-decreasing output order.
      AMDJ_RETURN_IF_ERROR(queue.Push(c));
      if (!c.IsObjectPair()) tracker.OnPush(c);  // restore its certificate
      compensate = true;
      break;
    }
    if (c.IsObjectPair()) {
      results.push_back({geom::KeyToDistance(c.key, options.metric).raw(),
                         c.r.id, c.s.id});
      ++stats->pairs_produced;
      continue;
    }

    ++stats->node_expansions;
    TraceSpan span(options.tracer, "expand_sweep",
                   {{"r_level", static_cast<double>(c.r.level)},
                    {"s_level", static_cast<double>(c.s.level)},
                    {"key", c.key.raw()}});
    const SweepPlan plan =
        ChooseSweepPlan(c.r.rect, c.s.rect,
                        geom::KeyToDistance(edmax, options.metric),
                        options.sweep);
    auto arena = LoadSweepSides(r, s, c, plan, options);
    if (!arena.ok()) return arena.status();

    Status sweep_status;
    geom::KeyVal axis_cutoff = edmax;  // line 22: aggressive axis pruning
    KeyedSweepSpec spec;
    spec.metric = options.metric;
    spec.axis_cutoff_key = &axis_cutoff;
    spec.dist_cutoff_key = &qdmax;  // exact filter: permanent under qDmax
    const bool covered =
        PlaneSweepKeyed(
            *arena, spec, stats,
            [&](const PairRef& lref, const PairRef& rref,
                geom::KeyVal dist_key) {
              if (!sweep_status.ok()) return;
              if (options.exclude_same_id && IsSelfPair(lref, rref)) return;
              PairEntry e;
              e.r = lref;
              e.s = rref;
              e.key = dist_key;
              sweep_status = queue.Push(e);
              if (!sweep_status.ok()) {
                axis_cutoff = geom::KeyVal(-1.0);  // abort the sweep
                return;
              }
              tracker.OnPush(e);
              qdmax = tracker.Cutoff();
            })
            .axis_covered;
    AMDJ_RETURN_IF_ERROR(sweep_status);

    if (!covered) {
      // Some sweep suffix was skipped under eDmax: remember the pair and
      // the cutoff so compensation can examine exactly the remainder.
      // (Fully covered pairs can never yield new children; keeping them out
      // of Qc is what keeps it orders of magnitude smaller than Qm.)
      c.prior_cutoff = edmax;
      c.prior_axis = static_cast<int8_t>(plan.axis);
      c.prior_dir =
          plan.dir == geom::SweepDirection::kForward ? int8_t{0} : int8_t{1};
      compensation.push_back(c);
      ++stats->compensation_queue_insertions;
    }
  }

  if (!compensate && results.size() < k && !compensation.empty()) {
    // Stage one drained the main queue without reaching k (aggressively
    // pruned pairs are still recoverable).
    compensate = true;
  }
  if (results.size() >= k || !compensate) {
    finish_report(results);
    return results;
  }

  // ------------------------------------------------------------------
  // Compensation stage (Algorithm 3).
  AMDJ_TRACE(options.tracer,
             Instant("stage_transition",
                     {{"edmax",
                       geom::KeyToDistance(edmax, options.metric).raw()},
                      {"qdmax", geom::KeyToDistance(tracker.Cutoff(),
                                                    options.metric)
                                    .raw()},
                      {"pairs_so_far",
                       static_cast<double>(results.size())},
                      {"compensation_pairs",
                       static_cast<double>(compensation.size())}}));
  if (options.report != nullptr) {
    options.report->OnCutoff(
        "stage_transition_edmax",
        geom::KeyToDistance(edmax, options.metric).raw(), results.size());
    options.report->BeginPhase("compensation", *stats);
  }
  for (const PairEntry& e : compensation) {
    AMDJ_RETURN_IF_ERROR(queue.Push(e));
  }
  compensation.clear();

  while (results.size() < k && !queue.Empty()) {
    AMDJ_RETURN_IF_ERROR(queue.Pop(&c));
    if (c.IsObjectPair()) {
      results.push_back({geom::KeyToDistance(c.key, options.metric).raw(),
                         c.r.id, c.s.id});
      ++stats->pairs_produced;
      continue;
    }
    tracker.OnNodePairLeave(c);
    geom::KeyVal cutoff = tracker.Cutoff();
    if (c.key > cutoff) continue;

    ++stats->node_expansions;
    TraceSpan span(options.tracer, "expand_sweep",
                   {{"r_level", static_cast<double>(c.r.level)},
                    {"s_level", static_cast<double>(c.s.level)},
                    {"key", c.key.raw()}});
    // Pairs expanded in stage one re-sweep with the *same* axis and
    // direction (their children's sweep order is reproduced), skipping the
    // already-examined prefix; fresh pairs get a full B-KDJ sweep.
    SweepPlan plan;
    geom::KeyVal skip_below{-1.0};
    if (c.WasExpanded()) {
      plan.axis = c.prior_axis;
      plan.dir = c.prior_dir == 0 ? geom::SweepDirection::kForward
                                  : geom::SweepDirection::kBackward;
      skip_below = c.prior_cutoff;
    } else {
      plan = ChooseSweepPlan(c.r.rect, c.s.rect,
                             geom::KeyToDistance(cutoff, options.metric),
                             options.sweep);
    }
    auto arena = LoadSweepSides(r, s, c, plan, options);
    if (!arena.ok()) return arena.status();

    Status sweep_status;
    KeyedSweepSpec spec;
    spec.metric = options.metric;
    spec.axis_cutoff_key = &cutoff;
    spec.dist_cutoff_key = &cutoff;
    // Skip the stage-one prefix: those pairs were examined under a qDmax
    // no smaller than today's, so any that were dropped stay dropped and
    // any that qualified are already in the main queue.
    spec.skip_axis_below_key = skip_below;
    PlaneSweepKeyed(
        *arena, spec, stats,
        [&](const PairRef& lref, const PairRef& rref,
            geom::KeyVal dist_key) {
          if (!sweep_status.ok()) return;
          if (options.exclude_same_id && IsSelfPair(lref, rref)) {
            return;
          }
          PairEntry e;
          e.r = lref;
          e.s = rref;
          e.key = dist_key;
          sweep_status = queue.Push(e);
          if (!sweep_status.ok()) {
            cutoff = geom::KeyVal(-1.0);
            return;
          }
          tracker.OnPush(e);
          cutoff = tracker.Cutoff();
        });
    AMDJ_RETURN_IF_ERROR(sweep_status);
  }
  finish_report(results);
  return results;
}

}  // namespace amdj::core
