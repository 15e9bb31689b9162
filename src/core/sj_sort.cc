#include "core/sj_sort.h"

#include <algorithm>

#include "common/run_report.h"
#include "common/trace.h"
#include "core/hs_join.h"
#include "spatialjoin/external_sorter.h"
#include "spatialjoin/spatial_join.h"

namespace amdj::core {

StatusOr<std::vector<ResultPair>> SjSort::Run(const rtree::RTree& r,
                                              const rtree::RTree& s,
                                              uint64_t k, geom::DistVal dmax,
                                              const JoinOptions& options,
                                              JoinStats* stats) {
  std::vector<ResultPair> results;
  if (k == 0 || r.size() == 0 || s.size() == 0) return results;
  JoinStats local;
  if (stats == nullptr) stats = &local;

  if (options.report != nullptr) {
    options.report->BeginPhase("spatial-join", *stats);
    options.report->OnCutoff("dmax_window", dmax.raw(), 0);
  }
  spatialjoin::ExternalSorter sorter(options.queue_disk,
                                     options.queue_memory_bytes, stats);
  {
    TraceSpan sj_span(options.tracer, "spatial_join", {{"dmax", dmax.raw()}});
    AMDJ_RETURN_IF_ERROR(spatialjoin::SpatialJoin::Within(
        r, s, dmax, options, stats,
        [&](const ResultPair& pair) -> Status {
          ++stats->main_queue_insertions;
          return sorter.Add(pair);
        }));
  }
  if (options.report != nullptr) options.report->BeginPhase("sort", *stats);
  {
    TraceSpan sort_span(options.tracer, "external_sort");
    AMDJ_RETURN_IF_ERROR(sorter.Finish());
  }

  if (options.report != nullptr) options.report->BeginPhase("emit", *stats);
  TraceSpan emit_span(options.tracer, "emit");
  results.reserve(static_cast<size_t>(std::min<uint64_t>(k, uint64_t{1} << 20)));
  ResultPair rec;
  bool done = false;
  while (results.size() < k) {
    AMDJ_RETURN_IF_ERROR(sorter.Next(&rec, &done));
    if (done) break;
    results.push_back(rec);
    ++stats->pairs_produced;
  }
  FinishKdjReport(options, results, *stats);
  return results;
}

}  // namespace amdj::core
