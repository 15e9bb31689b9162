#include "core/hs_join.h"

#include "common/run_report.h"
#include "common/trace.h"
#include "core/dmax_estimator.h"
#include "core/expansion.h"
#include "geom/kernels.h"

namespace amdj::core {

MainQueue::Options MakeMainQueueOptions(const rtree::RTree& r,
                                        const rtree::RTree& s,
                                        const JoinOptions& options) {
  MainQueue::Options qopts;
  qopts.memory_bytes = options.queue_memory_bytes;
  qopts.disk = options.queue_disk;
  qopts.tracer = options.tracer;
  qopts.report = options.report;
  if (options.queue_disk != nullptr &&
      options.predetermined_queue_boundaries && r.size() > 0 &&
      s.size() > 0) {
    // Estimators speak distance; the queue partitions by priority key.
    std::function<geom::DistVal(uint64_t)> fn;
    if (options.estimator != nullptr) {
      fn = options.estimator->BoundaryFn();
    } else {
      DmaxEstimator estimator(r.bounds(), r.size(), s.bounds(), s.size(),
                              options.metric);
      fn = estimator.BoundaryFn();
    }
    qopts.boundary_fn = [fn = std::move(fn),
                         metric = options.metric](uint64_t c) {
      return geom::DistanceToKey(fn(c), metric);
    };
  }
  return qopts;
}

void FinishKdjReport(const JoinOptions& options,
                     const std::vector<ResultPair>& results,
                     const JoinStats& stats) {
  if (options.report == nullptr) return;
  if (!results.empty()) {
    options.report->OnCutoff("final_dmax", results.back().distance,
                             results.size());
  }
  options.report->EndPhase(stats);
}

namespace internal_hs {

Status ExpandUniDirectional(const rtree::RTree& r, const rtree::RTree& s,
                            const PairEntry& pair, geom::KeyVal cutoff,
                            const JoinOptions& options, MainQueue* queue,
                            QdmaxTracker* tracker, JoinStats* stats,
                            std::vector<PairRef>* scratch) {
  ++stats->node_expansions;
  // Pick the side to expand: a node over an object; the higher level over
  // the lower; ties by larger area (the node more in need of refinement).
  bool expand_r;
  if (pair.r.IsObject()) {
    expand_r = false;
  } else if (pair.s.IsObject()) {
    expand_r = true;
  } else if (pair.r.level != pair.s.level) {
    expand_r = pair.r.level > pair.s.level;
  } else {
    expand_r = pair.r.rect.Area() >= pair.s.rect.Area();
  }

  std::vector<PairRef>& children = *scratch;
  AMDJ_RETURN_IF_ERROR(ChildList(expand_r ? r : s,
                                 expand_r ? pair.r : pair.s,
                                 expand_r ? options.r_window
                                          : options.s_window,
                                 &children));
  const PairRef& other = expand_r ? pair.s : pair.r;
  const size_t n = children.size();
  if (options.metric == geom::Metric::kL2 && n > 0) {
    // One-sided expansion is the ideal batch shape: n child rects against
    // one fixed rect under a cutoff that is static for the whole loop
    // (`cutoff` is a value parameter — tracker updates do not feed back
    // into this expansion, matching the scalar code path exactly).
    struct BatchScratch {
      std::vector<double> lo0, hi0, lo1, hi1, keys;
      std::vector<uint32_t> idx;
    };
    thread_local BatchScratch b;
    b.lo0.resize(n);
    b.hi0.resize(n);
    b.lo1.resize(n);
    b.hi1.resize(n);
    b.keys.resize(n);
    b.idx.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const geom::Rect& rc = children[i].rect;
      b.lo0[i] = rc.lo.x;
      b.hi0[i] = rc.hi.x;
      b.lo1[i] = rc.lo.y;
      b.hi1[i] = rc.hi.y;
    }
    stats->real_distance_computations += n;
    geom::BatchMinDistSquared(b.lo0.data(), b.hi0.data(), b.lo1.data(),
                              b.hi1.data(), other.rect.lo.x, other.rect.hi.x,
                              other.rect.lo.y, other.rect.hi.y, n,
                              b.keys.data());
    // Raw view: the batch kernels operate on untyped key arrays.
    const size_t kept =
        geom::BatchFilterWithin(b.keys.data(), n, cutoff.raw(),
                                b.idx.data());
    for (size_t j = 0; j < kept; ++j) {
      const uint32_t i = b.idx[j];
      PairEntry e;
      e.r = expand_r ? children[i] : other;
      e.s = expand_r ? other : children[i];
      e.key = geom::KeyVal(b.keys[i]);
      if (options.exclude_same_id && IsSelfPair(e.r, e.s)) continue;
      AMDJ_RETURN_IF_ERROR(queue->Push(e));
      if (tracker != nullptr) tracker->OnPush(e);
    }
    return Status::OK();
  }
  for (const PairRef& child : children) {
    ++stats->real_distance_computations;
    PairEntry e = expand_r ? MakePair(child, other, options.metric)
                           : MakePair(other, child, options.metric);
    if (e.key > cutoff) continue;
    if (options.exclude_same_id && IsSelfPair(e.r, e.s)) continue;
    AMDJ_RETURN_IF_ERROR(queue->Push(e));
    if (tracker != nullptr) tracker->OnPush(e);
  }
  return Status::OK();
}

}  // namespace internal_hs

StatusOr<std::vector<ResultPair>> HsKdj::Run(const rtree::RTree& r,
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
  std::vector<PairRef> children;
  while (results.size() < k && !queue.Empty()) {
    AMDJ_RETURN_IF_ERROR(queue.Pop(&c));
    if (c.IsObjectPair()) {
      results.push_back({geom::KeyToDistance(c.key, options.metric).raw(),
                         c.r.id, c.s.id});
      ++stats->pairs_produced;
      continue;
    }
    tracker.OnNodePairLeave(c);
    if (c.key > tracker.Cutoff()) continue;
    TraceSpan span(options.tracer, "expand_unidir",
                   {{"r_level", static_cast<double>(c.r.level)},
                    {"s_level", static_cast<double>(c.s.level)},
                    {"key", c.key.raw()}});
    AMDJ_RETURN_IF_ERROR(internal_hs::ExpandUniDirectional(
        r, s, c, tracker.Cutoff(), options, &queue, &tracker, stats,
        &children));
  }
  FinishKdjReport(options, results, *stats);
  return results;
}

HsIdjCursor::HsIdjCursor(const rtree::RTree& r, const rtree::RTree& s,
                         const JoinOptions& options, JoinStats* stats)
    : r_(r),
      s_(s),
      options_(options),
      stats_(stats != nullptr ? stats : &local_stats_),
      queue_(MakeMainQueueOptions(r, s, options), stats_,
             MakeMainQueueCompare(options)) {}

Status HsIdjCursor::Next(ResultPair* out, bool* done) {
  *done = false;
  if (!primed_) {
    primed_ = true;
    if (r_.size() > 0 && s_.size() > 0) {
      AMDJ_RETURN_IF_ERROR(queue_.Push(
          MakePair(RootRef(r_), RootRef(s_), options_.metric)));
    }
  }
  PairEntry c;
  const geom::KeyVal kNoCutoff = geom::KeyVal::Infinity();
  while (!queue_.Empty()) {
    AMDJ_RETURN_IF_ERROR(queue_.Pop(&c));
    if (c.IsObjectPair()) {
      *out = {geom::KeyToDistance(c.key, options_.metric).raw(), c.r.id,
              c.s.id};
      ++produced_;
      ++stats_->pairs_produced;
      return Status::OK();
    }
    TraceSpan span(options_.tracer, "expand_unidir",
                   {{"r_level", static_cast<double>(c.r.level)},
                    {"s_level", static_cast<double>(c.s.level)},
                    {"key", c.key.raw()}});
    AMDJ_RETURN_IF_ERROR(internal_hs::ExpandUniDirectional(
        r_, s_, c, kNoCutoff, options_, &queue_, nullptr, stats_,
        &children_));
  }
  *done = true;
  return Status::OK();
}

}  // namespace amdj::core
