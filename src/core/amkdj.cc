#include "core/amkdj.h"

#include "common/run_report.h"
#include "common/trace.h"
#include "core/best_first.h"
#include "core/dmax_estimator.h"

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
  const geom::KeyVal initial = geom::DistanceToKeyCutoff(
      InitialEdmaxEstimate(options, *estimator, k), options.metric);
  const auto distance = [&options](geom::KeyVal key) {
    return geom::KeyToDistance(key, options.metric).raw();
  };
  if (options.report != nullptr) {
    options.report->BeginPhase("aggressive", *stats);
    options.report->OnCutoff("initial_edmax", distance(initial), 0);
  }
  AMDJ_TRACE(options.tracer, Counter("edmax", distance(initial)));

  // Stage one (Algorithm 2): sweeps prune axis distances at eDmax while
  // the exact qDmax filters real distances; a pair whose sweep eDmax cut
  // short waits in Qc.
  QdmaxTracker tracker(k, options, stats);
  BestFirstJoin join(r, s, options, stats, &tracker);
  join.set_edmax(initial);
  AMDJ_RETURN_IF_ERROR(join.PushRoot());
  AMDJ_RETURN_IF_ERROR(join.Drain(k, &results));

  if (results.size() < k && !join.Exhausted()) {
    // Stage one ended short of k — the frontier passed eDmax, or the main
    // queue ran dry with pruned pairs in Qc — so eDmax underestimated
    // Dmax. Compensation (Algorithm 3) is B-KDJ over the main queue plus
    // Qc, whose pairs resume their sweeps past the examined prefix.
    const double edmax = distance(join.edmax().value_or(initial));
    AMDJ_TRACE(options.tracer,
               Instant("stage_transition",
                       {{"edmax", edmax},
                        {"qdmax", distance(tracker.Cutoff())},
                        {"pairs_so_far", static_cast<double>(results.size())},
                        {"compensation_pairs",
                         static_cast<double>(join.compensation_size())}}));
    if (options.report != nullptr) {
      options.report->OnCutoff("stage_transition_edmax", edmax,
                               results.size());
      options.report->BeginPhase("compensation", *stats);
    }
    join.set_edmax(std::nullopt);
    AMDJ_RETURN_IF_ERROR(join.Recover());
    AMDJ_RETURN_IF_ERROR(join.Drain(k, &results));
  }
  FinishKdjReport(options, results, *stats);
  return results;
}

}  // namespace amdj::core
