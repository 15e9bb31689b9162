#ifndef AMDJ_COMMON_RUN_REPORT_H_
#define AMDJ_COMMON_RUN_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"

namespace amdj {

/// Structured per-phase summary of one join run, fed by the same
/// instrumentation points as the tracer (see common/trace.h) but folded
/// into an aggregate instead of an event stream:
///
///   - one Phase per algorithm stage (B-KDJ "search", AM-KDJ
///     "aggressive"/"compensation", AM-IDJ "stage-N", SJ-SORT
///     "spatial-join"/"sort"/"emit"), with wall time and the JoinStats
///     counter *deltas* incurred during that phase — additive deltas sum
///     to the run's flat totals when the JoinStats started at zero;
///   - the cutoff trajectory: initial eDmax estimate, runtime corrections
///     and stage cutoffs, final Dmax (all in distance space);
///   - per-phase main-queue depth high-water marks.
///
/// Serialized as JSON (ToJson) and as an aligned human table (ToTable).
///
/// Threading: all methods must be called from the thread running the join
/// loop. OnQueueDepth is the one hot-path hook (called per main-queue
/// push); it is a compare-and-update, nothing more.
///
/// Reuse: a RunReport accumulates exactly one run. RunKDistanceJoin /
/// the IDJ cursor call Finish() automatically when one is attached via
/// JoinOptions::report.
class RunReport {
 public:
  struct CutoffPoint {
    std::string label;       ///< e.g. "initial_edmax", "stage_edmax".
    double distance = 0.0;   ///< Distance space (not metric key).
    uint64_t pairs_so_far = 0;
  };

  struct Phase {
    std::string name;
    double wall_seconds = 0.0;
    JoinStats delta;             ///< Counter deltas incurred in this phase.
    uint64_t queue_depth_peak = 0;  ///< Main-queue high water within phase.
  };

  /// Labels the run (shown in the serializations). Optional.
  void SetMeta(const std::string& algorithm, uint64_t k);

  /// Ends any open phase and begins a new one; `stats` is the live
  /// counter block whose delta the phase will report.
  void BeginPhase(const std::string& name, const JoinStats& stats);

  /// Ends the open phase (no-op when none is open).
  void EndPhase(const JoinStats& stats);

  /// Records one point of the cutoff trajectory, in distance space. The
  /// trajectory keeps the first kMaxTrajectory points plus the final one;
  /// the drop count is reported so truncation is never silent.
  void OnCutoff(const char* label, double distance, uint64_t pairs_so_far);

  /// Main-queue depth sample; maintains the open phase's high-water mark.
  void OnQueueDepth(uint64_t depth) {
    if (depth > queue_peak_) queue_peak_ = depth;
  }

  /// Closes any open phase and snapshots the run totals. Idempotent: the
  /// first call wins for phases; totals are re-snapshotted every call so
  /// late additions (cpu_seconds, simulated I/O) are picked up.
  void Finish(const JoinStats& stats);

  const std::vector<Phase>& phases() const { return phases_; }
  const std::vector<CutoffPoint>& cutoff_trajectory() const {
    return trajectory_;
  }
  const JoinStats& totals() const { return totals_; }

  /// Full report as a JSON object: meta, phases (with per-field counter
  /// deltas via JoinStats::ToJson), cutoff trajectory, totals.
  std::string ToJson() const;

  /// Aligned human-readable table: one column per phase plus a totals
  /// column, one row per non-zero counter, then the cutoff trajectory.
  std::string ToTable() const;

  /// Convenience: writes ToJson() (plus a trailing newline) to `path`.
  Status WriteJsonFile(const std::string& path) const;

  static constexpr size_t kMaxTrajectory = 256;

 private:
  std::string algorithm_;
  uint64_t k_ = 0;
  std::vector<Phase> phases_;
  std::vector<CutoffPoint> trajectory_;
  uint64_t trajectory_dropped_ = 0;
  JoinStats totals_;
  bool finished_ = false;

  // Open-phase state.
  bool phase_open_ = false;
  std::string open_name_;
  JoinStats open_begin_;
  std::chrono::steady_clock::time_point open_start_;
  uint64_t queue_peak_ = 0;
};

}  // namespace amdj

#endif  // AMDJ_COMMON_RUN_REPORT_H_
