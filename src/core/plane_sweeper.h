#ifndef AMDJ_CORE_PLANE_SWEEPER_H_
#define AMDJ_CORE_PLANE_SWEEPER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "core/pair_entry.h"
#include "core/sweep_plan.h"
#include "geom/kernels.h"
#include "geom/metric.h"
#include "geom/sweep_geometry.h"

namespace amdj::core {

/// Candidates per kernel batch: the cutoff-independent arithmetic (axis
/// gaps, distance keys) of up to this many candidates is precomputed with
/// one SIMD kernel call, then a scalar loop applies the cutoff tests —
/// which must re-read the (possibly shrinking) cutoff per candidate and
/// count per candidate, exactly like the pre-vectorized code.
inline constexpr std::size_t kSweepChunk = 64;

/// One side of a sweep in structure-of-arrays layout, sorted by
/// (sweep key, id): the sweep scans `key_lo` linearly (cache-dense, no
/// PairRef pointer chasing) and the kernels read the original coordinate
/// arrays. Buffers only ever grow, so a reused side stops allocating after
/// warm-up.
struct SweepSide {
  std::vector<double> key_lo;  ///< Sweep-axis lo (negated when backward).
  std::vector<double> key_hi;  ///< Sweep-axis hi (negated when backward).
  std::vector<double> lo0, hi0, lo1, hi1;  ///< Original rect coordinates.
  std::vector<const PairRef*> refs;        ///< Back-pointers, sweep order.
  std::size_t size = 0;

  /// Fills the arrays from `items` for a sweep along `axis`; a backward
  /// sweep is a forward sweep in negated coordinates. Ties on the sweep
  /// key order by id, as the sweep always has.
  void Build(const std::vector<PairRef>& items, int axis, bool forward);

 private:
  struct SortRec {
    double key;
    uint32_t id;
    uint32_t idx;
  };
  std::vector<SortRec> sort_scratch_;
};

/// The pooled per-thread sweep state: both sides plus the per-chunk kernel
/// output buffers.
struct SweepArena {
  SweepSide left;
  SweepSide right;
  double axis_gap[kSweepChunk];
  double dist_key[kSweepChunk];
};

/// The calling thread's arena. Each join thread reuses its own across
/// every sweep it runs, so steady-state sweeps allocate nothing.
SweepArena* ThreadSweepArena();

/// Bidirectional plane sweep over two child lists (the heart of Algorithm 1
/// and its aggressive/compensating variants): repeatedly take the not-yet-
/// processed item with the minimum sweep coordinate as the *anchor* and scan
/// the remaining items of the *other* list in sweep order, stopping as soon
/// as the axis separation exceeds `*cutoff` — so only O(|L| + |R|) pairs are
/// touched for a tight cutoff instead of the full Cartesian product.
///
/// `*cutoff` is re-read before every comparison, so a callback that shrinks
/// the cutoff immediately tightens the remaining sweep. Axis separations
/// here are in plain coordinate units (not metric keys); the join hot path
/// uses PlaneSweepKeyed below instead.
///
/// The callback is invoked as cb(left_ref, right_ref, axis_distance) with
/// axis_distance non-decreasing per anchor; it computes the real distance
/// and applies the algorithm-specific filters. Every unordered pair within
/// the cutoff is reported exactly once.
///
/// Axis-distance computations are counted into `stats` (Figure 11's metric).
///
/// Returns true if the sweep *axis-covered* every pair: no anchor's scan was
/// cut short by the cutoff while candidates remained.
template <typename Callback>
bool PlaneSweep(const std::vector<PairRef>& left,
                const std::vector<PairRef>& right, const SweepPlan& plan,
                const double* cutoff, JoinStats* stats, Callback&& cb) {
  SweepArena* arena = ThreadSweepArena();
  const bool forward = plan.dir == geom::SweepDirection::kForward;
  arena->left.Build(left, plan.axis, forward);
  arena->right.Build(right, plan.axis, forward);
  const SweepSide& lhs = arena->left;
  const SweepSide& rhs = arena->right;

  std::size_t il = 0;
  std::size_t ir = 0;
  bool covered = true;
  while (il < lhs.size && ir < rhs.size) {
    const bool anchor_is_left = lhs.key_lo[il] <= rhs.key_lo[ir];
    const SweepSide& aside = anchor_is_left ? lhs : rhs;
    const SweepSide& other = anchor_is_left ? rhs : lhs;
    const std::size_t ai = anchor_is_left ? il++ : ir++;
    const double anchor_hi = aside.key_hi[ai];
    const PairRef& aref = *aside.refs[ai];
    std::size_t j = anchor_is_left ? ir : il;
    bool cut = false;
    while (j < other.size && !cut) {
      const std::size_t n = std::min(kSweepChunk, other.size - j);
      geom::BatchAxisDistance(other.key_lo.data() + j, anchor_hi, n,
                              arena->axis_gap);
      for (std::size_t t = 0; t < n; ++t) {
        if (stats != nullptr) ++stats->axis_distance_computations;
        const double axis_dist = arena->axis_gap[t];
        if (axis_dist > *cutoff) {
          covered = false;
          cut = true;  // keys ascend: nothing further fits this anchor
          break;
        }
        if (anchor_is_left) {
          cb(aref, *other.refs[j + t], axis_dist);
        } else {
          cb(*other.refs[j + t], aref, axis_dist);
        }
      }
      j += n;
    }
  }
  return covered;
}

/// Cutoffs and skip thresholds of a keyed sweep, all in metric-key space
/// (geom::KeyVal — squared distances under L2). Strongly typed: wiring a
/// distance-space cutoff in here no longer compiles; fence through
/// geom::DistanceToKeyCutoff first.
struct KeyedSweepSpec {
  geom::Metric metric = geom::Metric::kL2;
  /// Lemma-1 prune: a candidate whose axis-separation key exceeds this
  /// ends its anchor's scan. Re-read before every comparison, so a
  /// callback (or another thread through an atomic-backed copy the caller
  /// refreshes) can tighten an in-flight sweep.
  const geom::KeyVal* axis_cutoff_key = nullptr;
  /// Distance filter: survivors with key above this are dropped (counted,
  /// not reported). Re-read before every filter test; often aliases
  /// axis_cutoff_key (B-KDJ) but is distinct under a static axis stage
  /// (AM-KDJ sweeps with eDmax while filtering against qDmax).
  const geom::KeyVal* dist_cutoff_key = nullptr;
  /// Candidates with axis key <= this were examined by an earlier stage:
  /// skipped before the distance computation (and its counter), exactly
  /// complementing that stage's axis prune. kNoSkip = no prior stage.
  geom::KeyVal skip_axis_below_key = kNoSkip;
  /// Candidates with distance key <= this were reported by an earlier
  /// stage: skipped after the distance computation (AM-IDJ's re-expansion
  /// guard, which cuts on the real distance, not the axis).
  geom::KeyVal skip_dist_below_key = kNoSkip;

  /// Sentinel below every real key (keys are >= 0): skips nothing.
  static constexpr geom::KeyVal kNoSkip{-1.0};
};

struct KeyedSweepResult {
  /// False if some anchor's scan was cut short by the axis cutoff while
  /// candidates remained (the expansion may have pruned pairs — the
  /// adaptive algorithms then queue the pair for compensation).
  bool axis_covered = true;
  /// True if some candidate passed the axis test but exceeded the distance
  /// cutoff (AM-IDJ must also compensate those).
  bool dist_filtered = false;
};

/// The keyed, kernel-batched sweep the join algorithms run on: same anchor
/// discipline as PlaneSweep, but candidate runs are evaluated through the
/// batch kernels (axis gaps and, under L2, full MinDist keys per chunk) and
/// the callback is invoked only for survivors, as cb(lref, rref, dist_key)
/// with dist_key a geom::KeyVal.
///
/// Exact per-candidate decision sequence (counters identical to the
/// pre-keyed scalar code):
///   1. count one axis-distance computation
///   2. axis_key > *axis_cutoff_key        -> end anchor scan (not covered)
///   3. axis_key <= skip_axis_below_key    -> skip (earlier stage saw it)
///   4. count one real-distance computation
///   5. dist_key <= skip_dist_below_key    -> skip (earlier stage kept it)
///   6. dist_key > *dist_cutoff_key        -> drop (dist_filtered)
///   7. cb(lref, rref, dist_key)
/// Steps 2 and 6 re-read their cutoffs per candidate; the chunked kernel
/// precomputation covers only cutoff-independent arithmetic, so batching
/// cannot change which candidates survive.
template <typename Callback>
KeyedSweepResult PlaneSweepKeyed(const std::vector<PairRef>& left,
                                 const std::vector<PairRef>& right,
                                 const SweepPlan& plan,
                                 const KeyedSweepSpec& spec, JoinStats* stats,
                                 Callback&& cb) {
  SweepArena* arena = ThreadSweepArena();
  const bool forward = plan.dir == geom::SweepDirection::kForward;
  arena->left.Build(left, plan.axis, forward);
  arena->right.Build(right, plan.axis, forward);
  const SweepSide& lhs = arena->left;
  const SweepSide& rhs = arena->right;
  const bool l2 = spec.metric == geom::Metric::kL2;

  KeyedSweepResult result;
  std::size_t il = 0;
  std::size_t ir = 0;
  while (il < lhs.size && ir < rhs.size) {
    const bool anchor_is_left = lhs.key_lo[il] <= rhs.key_lo[ir];
    const SweepSide& aside = anchor_is_left ? lhs : rhs;
    const SweepSide& other = anchor_is_left ? rhs : lhs;
    const std::size_t ai = anchor_is_left ? il++ : ir++;
    const double anchor_hi = aside.key_hi[ai];
    const PairRef& aref = *aside.refs[ai];
    const geom::Rect& arect = aref.rect;
    std::size_t j = anchor_is_left ? ir : il;
    bool cut = false;
    while (j < other.size && !cut) {
      const std::size_t n = std::min(kSweepChunk, other.size - j);
      geom::BatchAxisDistance(other.key_lo.data() + j, anchor_hi, n,
                              arena->axis_gap);
      if (l2) {
        // Distance keys are only ever read for candidates that pass step 2,
        // and cutoffs shrink monotonically — so the prefix passing against
        // the cutoff's *current* value bounds every candidate that can
        // still need one. Under a tight cutoff this collapses the MinDist
        // batch to the few candidates actually scanned. Raw view: the
        // kernel scratch arrays are untyped doubles (geom/units.h).
        const double axis_cut_now = spec.axis_cutoff_key->raw();
        std::size_t m = 0;
        if (arena->axis_gap[n - 1] * arena->axis_gap[n - 1] <=
            axis_cut_now) {
          m = n;  // gaps ascend within a chunk: whole chunk passes
        } else {
          while (m < n && arena->axis_gap[m] * arena->axis_gap[m] <=
                              axis_cut_now) {
            ++m;
          }
        }
        if (m > 0) {
          geom::BatchMinDistSquared(
              other.lo0.data() + j, other.hi0.data() + j,
              other.lo1.data() + j, other.hi1.data() + j, arect.lo.x,
              arect.hi.x, arect.lo.y, arect.hi.y, m, arena->dist_key);
        }
      }
      for (std::size_t t = 0; t < n; ++t) {
        if (stats != nullptr) ++stats->axis_distance_computations;
        const double gap = arena->axis_gap[t];
        const geom::KeyVal axis_key = geom::AxisGapToKey(gap, spec.metric);
        if (axis_key > *spec.axis_cutoff_key) {
          result.axis_covered = false;
          cut = true;  // keys ascend: nothing further fits this anchor
          break;
        }
        if (axis_key <= spec.skip_axis_below_key) continue;
        if (stats != nullptr) ++stats->real_distance_computations;
        // Raw view: arena->dist_key holds the kernels' untyped output.
        const geom::KeyVal dist_key =
            l2 ? geom::KeyVal(arena->dist_key[t])
               : geom::MinDistanceKey(arect, other.refs[j + t]->rect,
                                      spec.metric);
        if (dist_key <= spec.skip_dist_below_key) continue;
        if (dist_key > *spec.dist_cutoff_key) {
          result.dist_filtered = true;
          continue;
        }
        if (anchor_is_left) {
          cb(aref, *other.refs[j + t], dist_key);
        } else {
          cb(*other.refs[j + t], aref, dist_key);
        }
      }
      j += n;
    }
  }
  return result;
}

}  // namespace amdj::core

#endif  // AMDJ_CORE_PLANE_SWEEPER_H_
