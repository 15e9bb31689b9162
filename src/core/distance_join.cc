#include "core/distance_join.h"

#include "common/run_report.h"
#include "common/timer.h"
#include "common/trace.h"
#include "storage/query_context.h"
#include "core/amidj.h"
#include "core/amkdj.h"
#include "core/bkdj.h"
#include "core/hs_join.h"
#include "core/sj_sort.h"

namespace amdj::core {

namespace {

/// Wraps an IDJ cursor: attributes buffer-pool accesses to this query's
/// stats for the duration of every call, measures CPU time around every
/// Next(), and finalizes an attached run report when the cursor is
/// destroyed (destroy the cursor before serializing the report).
///
/// Attribution is installed per call (a thread-local
/// storage::QueryAttributionScope), not for the cursor's lifetime: between
/// calls the owning thread may run other queries — the JoinService
/// interleaves cursors and one-shot joins on its workers.
class TimedCursor : public DistanceJoinCursor {
 public:
  TimedCursor(JoinStats* stats, const JoinOptions& options,
              std::unique_ptr<JoinStats> owned_stats,
              std::unique_ptr<DistanceJoinCursor> inner)
      : stats_(stats),
        tracer_(options.tracer),
        report_(options.report),
        owned_stats_(std::move(owned_stats)),
        inner_(std::move(inner)) {}

  ~TimedCursor() override {
    {
      const storage::QueryAttributionScope scope(stats_, tracer_);
      inner_.reset();  // quiesce the algorithm before reading stats
    }
    if (report_ != nullptr) {
      report_->Finish(stats_ != nullptr ? *stats_ : JoinStats());
    }
  }

  Status Next(ResultPair* out, bool* done) override {
    const storage::QueryAttributionScope scope(stats_, tracer_);
    Timer timer;
    const Status status = inner_->Next(out, done);
    if (stats_ != nullptr) stats_->cpu_seconds += timer.ElapsedSeconds();
    return status;
  }

  uint64_t produced() const override { return inner_->produced(); }
  void PrefetchHint(uint64_t k) override {
    const storage::QueryAttributionScope scope(stats_, tracer_);
    inner_->PrefetchHint(k);
  }

  /// The wrapped cursor (for algorithm-specific knobs like
  /// AmIdjCursor::ForceNextStageEdmax).
  DistanceJoinCursor* inner() { return inner_.get(); }

 private:
  JoinStats* stats_;
  Tracer* tracer_;
  RunReport* report_;
  /// Backing stats when the caller passed none but attached a report (the
  /// report's phase deltas and totals must read one shared counter block).
  std::unique_ptr<JoinStats> owned_stats_;
  std::unique_ptr<DistanceJoinCursor> inner_;
};

}  // namespace

const char* ToString(KdjAlgorithm a) {
  switch (a) {
    case KdjAlgorithm::kHsKdj:
      return "HS-KDJ";
    case KdjAlgorithm::kBKdj:
      return "B-KDJ";
    case KdjAlgorithm::kAmKdj:
      return "AM-KDJ";
    case KdjAlgorithm::kSjSort:
      return "SJ-SORT";
  }
  return "?";
}

const char* ToString(IdjAlgorithm a) {
  switch (a) {
    case IdjAlgorithm::kHsIdj:
      return "HS-IDJ";
    case IdjAlgorithm::kAmIdj:
      return "AM-IDJ";
  }
  return "?";
}

StatusOr<double> ComputeTrueDmax(const rtree::RTree& r, const rtree::RTree& s,
                                 uint64_t k, const JoinOptions& options) {
  JoinOptions oracle_options = options;
  oracle_options.forced_edmax.reset();
  // The oracle is bookkeeping, not part of the observed run: it must not
  // emit trace events or open report phases.
  oracle_options.tracer = nullptr;
  oracle_options.report = nullptr;
  // A detached scope shadows any caller attribution: the oracle's node
  // accesses are bookkeeping and must not be charged to the observed run.
  const storage::QueryAttributionScope detached(nullptr, nullptr);
  auto pairs = AmKdj::Run(r, s, k, oracle_options, nullptr);
  if (!pairs.ok()) return pairs.status();
  if (pairs->empty()) return 0.0;
  return pairs->back().distance;
}

StatusOr<std::vector<ResultPair>> RunKDistanceJoin(const rtree::RTree& r,
                                                   const rtree::RTree& s,
                                                   uint64_t k,
                                                   KdjAlgorithm algorithm,
                                                   const JoinOptions& options,
                                                   JoinStats* stats) {
  double dmax = 0.0;
  if (algorithm == KdjAlgorithm::kSjSort) {
    // Oracle pre-pass, not charged to `stats` (favorable assumption).
    auto oracle = ComputeTrueDmax(r, s, k, options);
    if (!oracle.ok()) return oracle.status();
    dmax = *oracle;
  }

  // A report's phase deltas and totals must read one shared counter block;
  // back it locally when the caller attached a report without stats.
  JoinStats report_stats;
  if (stats == nullptr && options.report != nullptr) stats = &report_stats;
  if (options.report != nullptr) {
    options.report->SetMeta(ToString(algorithm), k);
  }

  // Thread-local attribution: node accesses this query performs land in
  // `stats`, even when other queries run concurrently over the same
  // buffer pools.
  const storage::QueryAttributionScope scope(stats, options.tracer);
  Timer timer;
  StatusOr<std::vector<ResultPair>> result =
      std::vector<ResultPair>();  // overwritten below
  {
    TraceSpan join_span(options.tracer, ToString(algorithm),
                        {{"k", static_cast<double>(k)}});
    switch (algorithm) {
      case KdjAlgorithm::kHsKdj:
        result = HsKdj::Run(r, s, k, options, stats);
        break;
      case KdjAlgorithm::kBKdj:
        result = BKdj::Run(r, s, k, options, stats);
        break;
      case KdjAlgorithm::kAmKdj:
        result = AmKdj::Run(r, s, k, options, stats);
        break;
      case KdjAlgorithm::kSjSort:
        result = SjSort::Run(r, s, k, geom::DistVal(dmax), options, stats);
        break;
    }
  }
  if (stats != nullptr) stats->cpu_seconds += timer.ElapsedSeconds();
  if (options.report != nullptr) options.report->Finish(*stats);
  return result;
}

StatusOr<std::unique_ptr<DistanceJoinCursor>> OpenIncrementalJoin(
    const rtree::RTree& r, const rtree::RTree& s, IdjAlgorithm algorithm,
    const JoinOptions& options, JoinStats* stats) {
  // Same shared-counter-block requirement as RunKDistanceJoin, but the
  // backing stats must live as long as the cursor.
  std::unique_ptr<JoinStats> owned_stats;
  if (stats == nullptr && options.report != nullptr) {
    owned_stats = std::make_unique<JoinStats>();
    stats = owned_stats.get();
  }
  if (options.report != nullptr) {
    options.report->SetMeta(ToString(algorithm), 0);
  }
  std::unique_ptr<DistanceJoinCursor> inner;
  {
    // Construction may already touch the trees (root fetches); attribute
    // it like any Next() call.
    const storage::QueryAttributionScope scope(stats, options.tracer);
    switch (algorithm) {
      case IdjAlgorithm::kHsIdj:
        inner = std::make_unique<HsIdjCursor>(r, s, options, stats);
        break;
      case IdjAlgorithm::kAmIdj:
        inner = std::make_unique<AmIdjCursor>(r, s, options, stats);
        break;
    }
  }
  return std::unique_ptr<DistanceJoinCursor>(new TimedCursor(
      stats, options, std::move(owned_stats), std::move(inner)));
}

}  // namespace amdj::core
