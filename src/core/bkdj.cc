#include "core/bkdj.h"

#include "common/run_report.h"
#include "common/trace.h"
#include "core/expansion.h"
#include "core/plane_sweeper.h"
#include "core/qdmax_tracker.h"

namespace amdj::core {

StatusOr<std::vector<ResultPair>> BKdj::Run(const rtree::RTree& r,
                                            const rtree::RTree& s,
                                            uint64_t k,
                                            const JoinOptions& options,
                                            JoinStats* stats) {
  std::vector<ResultPair> results;
  if (k == 0 || r.size() == 0 || s.size() == 0) return results;
  JoinStats local;
  if (stats == nullptr) stats = &local;

  if (options.report != nullptr) options.report->BeginPhase("search", *stats);
  MainQueue queue(MakeMainQueueOptions(r, s, options), stats,
                  MakeMainQueueCompare(options));
  QdmaxTracker tracker(k, options, stats);
  {
    const PairEntry root = MakePair(RootRef(r), RootRef(s), options.metric);
    AMDJ_RETURN_IF_ERROR(queue.Push(root));
    tracker.OnPush(root);
  }

  PairEntry c;
  while (results.size() < k && !queue.Empty()) {
    AMDJ_RETURN_IF_ERROR(queue.Pop(&c));
    if (c.IsObjectPair()) {
      results.push_back({geom::KeyToDistance(c.key, options.metric).raw(),
                         c.r.id, c.s.id});
      ++stats->pairs_produced;
      continue;
    }
    tracker.OnNodePairLeave(c);
    // qDmax upper-bounds the final k-th distance at all times, so a pair
    // whose minimum distance exceeds it can never contribute.
    geom::KeyVal cutoff = tracker.Cutoff();
    if (c.key > cutoff) continue;

    ++stats->node_expansions;
    TraceSpan span(options.tracer, "expand_sweep",
                   {{"r_level", static_cast<double>(c.r.level)},
                    {"s_level", static_cast<double>(c.s.level)},
                    {"key", c.key.raw()}});
    const SweepPlan plan = ChooseSweepPlan(
        c.r.rect, c.s.rect, geom::KeyToDistance(cutoff, options.metric),
        options.sweep);
    auto arena = LoadSweepSides(r, s, c, plan, options);
    if (!arena.ok()) return arena.status();

    Status sweep_status;
    KeyedSweepSpec spec;
    spec.metric = options.metric;
    // The sweep prune and the distance filter (Algorithm 1, line 17) both
    // track the live qDmax, refreshed by the callback after every push.
    spec.axis_cutoff_key = &cutoff;
    spec.dist_cutoff_key = &cutoff;
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
            cutoff = geom::KeyVal(-1.0);  // abort the sweep
            return;
          }
          tracker.OnPush(e);  // line 19: qDmax may shrink
          cutoff = tracker.Cutoff();
        });
    AMDJ_RETURN_IF_ERROR(sweep_status);
  }
  if (options.report != nullptr) {
    if (!results.empty()) {
      options.report->OnCutoff("final_dmax", results.back().distance,
                               results.size());
    }
    options.report->EndPhase(*stats);
  }
  return results;
}

}  // namespace amdj::core
