#include "core/bkdj.h"

#include "common/run_report.h"
#include "core/best_first.h"

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
  // A tracker and no eDmax: every sweep prunes and filters by the live
  // qDmax (Algorithm 1).
  QdmaxTracker tracker(k, options, stats);
  BestFirstJoin join(r, s, options, stats, &tracker);
  AMDJ_RETURN_IF_ERROR(join.PushRoot());
  AMDJ_RETURN_IF_ERROR(join.Drain(k, &results));
  FinishKdjReport(options, results, *stats);
  return results;
}

}  // namespace amdj::core
