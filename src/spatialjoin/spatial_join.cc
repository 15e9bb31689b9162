#include "spatialjoin/spatial_join.h"

#include <vector>

#include "core/expansion.h"
#include "core/plane_sweeper.h"
#include "core/sweep_plan.h"

namespace amdj::spatialjoin {

using core::PairEntry;
using core::PairRef;
using core::ResultPair;
using core::RootRef;

Status SpatialJoin::Within(
    const rtree::RTree& r, const rtree::RTree& s, geom::DistVal dmax,
    const core::JoinOptions& options, JoinStats* stats,
    const std::function<Status(const ResultPair&)>& emit) {
  JoinStats local;
  if (stats == nullptr) stats = &local;
  if (r.size() == 0 || s.size() == 0) return Status::OK();

  // Every internal comparison runs in key space; `dmax` converts once here
  // and emissions convert back (exact round-trip for L2).
  const geom::KeyVal dmax_key =
      geom::DistanceToKeyCutoff(dmax, options.metric);
  std::vector<PairEntry> stack;
  {
    PairEntry root = core::MakePair(RootRef(r), RootRef(s), options.metric);
    ++stats->real_distance_computations;
    if (root.key > dmax_key) return Status::OK();
    stack.push_back(root);
  }

  while (!stack.empty()) {
    const PairEntry c = stack.back();
    stack.pop_back();
    if (c.IsObjectPair()) {
      // pairs_produced is reserved for end results (SJ-SORT counts the
      // post-sort output); callers wanting the raw join cardinality can
      // count in `emit`.
      AMDJ_RETURN_IF_ERROR(emit({geom::KeyToDistance(c.key, options.metric)
                                     .raw(),
                                 c.r.id, c.s.id}));
      continue;
    }
    ++stats->node_expansions;
    const core::SweepPlan plan =
        core::ChooseSweepPlan(c.r.rect, c.s.rect, dmax,
                              options.sweep);
    auto arena = core::LoadSweepSides(r, s, c, plan, options);
    if (!arena.ok()) return arena.status();
    Status sweep_status;
    core::KeyedSweepSpec spec;
    spec.metric = options.metric;
    spec.axis_cutoff_key = &dmax_key;
    spec.dist_cutoff_key = &dmax_key;
    core::PlaneSweepKeyed(
        *arena, spec, stats,
        [&](const PairRef& lref, const PairRef& rref,
            geom::KeyVal dist_key) {
          if (!sweep_status.ok()) return;
          if (options.exclude_same_id && core::IsSelfPair(lref, rref)) {
            return;
          }
          PairEntry e;
          e.r = lref;
          e.s = rref;
          e.key = dist_key;
          stack.push_back(e);
        });
    AMDJ_RETURN_IF_ERROR(sweep_status);
  }
  return Status::OK();
}

}  // namespace amdj::spatialjoin
