#ifndef AMDJ_CORE_OPTIONS_H_
#define AMDJ_CORE_OPTIONS_H_

#include <cstdint>
#include <optional>

#include "core/cutoff_estimator.h"
#include "geom/metric.h"
#include "geom/units.h"
#include "storage/disk_manager.h"

namespace amdj {
class Tracer;     // common/trace.h
class RunReport;  // common/run_report.h
}  // namespace amdj

namespace amdj::core {

/// Plane-sweep optimization level (Sections 3.2/3.3). The ablation benches
/// compare these; production use is kOptimized.
enum class SweepStrategy : uint8_t {
  /// Choose sweeping axis by minimum sweeping index and direction by
  /// projected-interval comparison (the paper's full optimization).
  kOptimized = 0,
  /// Fixed x-axis, forward direction (the paper's Figure 11 baseline).
  kFixedXForward = 1,
  /// Optimized axis, fixed forward direction.
  kAxisOnly = 2,
  /// Fixed x-axis, optimized direction.
  kDirectionOnly = 3,
};

/// What enters the distance queue (footnote 1 of the paper).
enum class DistanceQueuePolicy : uint8_t {
  /// Insert real distances of object pairs only (the paper's choice).
  kObjectPairsOnly = 0,
  /// Additionally insert max-distances of node pairs (the alternative the
  /// footnote argues against; kept for the ablation bench).
  kAllPairs = 1,
};

/// Main-queue tie handling for equal-distance entries. Spatial data has
/// huge zero-distance plateaus (every intersecting pair), so this choice
/// dominates small-k behaviour: kObjectsFirst surfaces results without
/// expanding the whole plateau; kDistanceOnly (ids decide, kind-blind)
/// models a 1998-era implementation and reproduces the paper's far more
/// expensive HS baseline (bench/ablation_tie_break).
enum class TieBreak : uint8_t {
  kObjectsFirst = 0,
  kDistanceOnly = 1,
};

/// How the two runtime eDmax corrections (Eq. 4 arithmetic, Eq. 5
/// geometric) are combined (Section 4.3.2).
enum class CorrectionPolicy : uint8_t {
  /// min(arithmetic, geometric): "err on the aggressive side".
  kAggressive = 0,
  /// max(arithmetic, geometric): conservative.
  kConservative = 1,
  kArithmeticOnly = 2,
  kGeometricOnly = 3,
};

/// Knobs shared by every distance-join algorithm.
struct JoinOptions {
  /// In-memory budget of the main queue (the paper's "in-memory portion of
  /// a main queue", 512 KB in most experiments).
  size_t queue_memory_bytes = 512 * 1024;

  /// Spill target for the main queue's disk segments and the external
  /// sorter. nullptr keeps queues entirely in memory (useful for tests).
  storage::DiskManager* queue_disk = nullptr;

  /// Plane-sweep optimization level.
  SweepStrategy sweep = SweepStrategy::kOptimized;

  /// Distance-queue content policy (KDJ algorithms only).
  DistanceQueuePolicy distance_queue_policy =
      DistanceQueuePolicy::kObjectPairsOnly;

  /// Overrides the Eq.-3 initial eDmax estimate (Figure 14 forces
  /// multiples of the true Dmax through this). Distance space — the
  /// algorithms fence it into key space via geom::DistanceToKeyCutoff.
  std::optional<geom::DistVal> forced_edmax;

  /// Learned upper-bound hint on the initial eDmax estimate, in distance
  /// space. The adaptive algorithms min() it into the estimator's initial
  /// estimate (see InitialEdmaxEstimate below); the service's shared-work
  /// layer sets it from exact Dmax values observed by completed joins on
  /// the same tree pair and options. Exact-safe by construction: eDmax is
  /// only ever a *staging* cutoff — an estimate that is too small triggers
  /// the compensation machinery, never a dropped result — so a hint can
  /// change how much work stage one does but not what the join returns.
  /// Ignored when forced_edmax is set (the figure benches force exact
  /// multiples and must not be second-guessed).
  std::optional<geom::DistVal> edmax_seed;

  /// First-stage target cardinality for AM-IDJ when no hint is given.
  uint64_t idj_initial_k = 4096;

  /// How runtime corrections combine (AM-IDJ stage transitions).
  CorrectionPolicy correction = CorrectionPolicy::kConservative;

  /// Use the Eq.-3 boundary formula to predetermine hybrid-queue segment
  /// boundaries (Section 4.4). Disabled = adaptive median splits only.
  bool predetermined_queue_boundaries = true;

  /// Distance metric for pair ranking. Axis-distance pruning and Lemma 1
  /// are exact under every supported Lp metric.
  geom::Metric metric = geom::Metric::kL2;

  /// Self-join mode: suppress pairs whose two sides are the same object id
  /// (useful when joining a tree with itself — otherwise the k results are
  /// dominated by the zero-distance diagonal).
  bool exclude_same_id = false;

  /// Custom eDmax estimator for the adaptive algorithms (e.g.
  /// HistogramEstimator for skewed data). Not owned; must outlive the
  /// join. nullptr = the paper's uniform Eq.-3 estimator.
  const CutoffEstimator* estimator = nullptr;

  /// Main-queue tie handling (see TieBreak).
  TieBreak tie_break = TieBreak::kObjectsFirst;

  /// Structured tracer (common/trace.h). nullptr (the default) disables
  /// every instrumentation point — one predicted branch each, and the join
  /// behaves byte-for-byte like an uninstrumented build. Not owned; must
  /// outlive the join; export only after the join call has returned.
  Tracer* tracer = nullptr;

  /// Per-phase run report aggregator (common/run_report.h). nullptr (the
  /// default) disables it. Not owned; must outlive the join (for the IDJ
  /// cursors: outlive the cursor, whose destructor finalizes the report).
  RunReport* report = nullptr;

  /// Spatial restriction: only R objects intersecting r_window (and S
  /// objects intersecting s_window) participate. Unset = no restriction.
  /// Filtering happens during node expansion, so subtrees outside a
  /// window are never visited ("find the nearest hotel-restaurant pairs
  /// downtown").
  std::optional<geom::Rect> r_window;
  std::optional<geom::Rect> s_window;
};

/// Initial eDmax estimate (distance space) for the adaptive algorithms:
/// forced_edmax when set (figure benches), otherwise the estimator's Eq.-3
/// estimate min'd with any learned edmax_seed. The seed is an upper bound
/// on the true Dmax(k) observed from a completed join, so min() can only
/// tighten the staging estimate — it never invalidates pruning, and an
/// over-tight seed is recovered by the compensation machinery exactly like
/// an over-tight Eq.-3 estimate.
inline geom::DistVal InitialEdmaxEstimate(const JoinOptions& options,
                                          const CutoffEstimator& estimator,
                                          uint64_t k) {
  if (options.forced_edmax) return *options.forced_edmax;
  geom::DistVal estimate = estimator.EstimateDmax(k);
  if (options.edmax_seed && *options.edmax_seed < estimate) {
    estimate = *options.edmax_seed;
  }
  return estimate;
}

}  // namespace amdj::core

#endif  // AMDJ_CORE_OPTIONS_H_
