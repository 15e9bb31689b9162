#ifndef AMDJ_CORE_PLANE_SWEEPER_H_
#define AMDJ_CORE_PLANE_SWEEPER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/pair_entry.h"
#include "core/sweep_plan.h"
#include "geom/kernels.h"
#include "geom/metric.h"
#include "geom/sweep_geometry.h"
#include "rtree/node.h"
#include "rtree/sweep_order.h"

namespace amdj::core {

/// Largest kernel batch: the cutoff-independent arithmetic (axis gaps,
/// distance keys) of up to this many candidates is precomputed with one
/// SIMD kernel call, then a scalar loop applies the cutoff tests — which
/// must re-read the (possibly shrinking) cutoff per candidate and count per
/// candidate, exactly like the pre-vectorized code. An anchor whose first
/// candidate already fails the axis test makes no kernel call at all; the
/// others start at kSweepFirstChunk and double per batch up to this cap, so
/// a scan that ends after a few candidates computes a few gaps, not 64.
/// Batch sizes only decide how much is precomputed, never which candidate
/// is tested or counted next, so they cannot move a counter or a report.
inline constexpr std::size_t kSweepChunk = 64;
/// An anchor's first kernel batch (8, then 16, 32, 64, 64, ...).
inline constexpr std::size_t kSweepFirstChunk = 8;

/// One side of a sweep in structure-of-arrays layout, sorted by
/// (sweep key, id): the sweep scans `key_lo` linearly (cache-dense) and the
/// kernels read the original coordinate arrays. Every child of one side
/// shares a kind and level (a node's children are all objects or all nodes
/// one level down), so a ref is rebuilt from the columns only for the pairs
/// a sweep reports. Buffers only ever grow, so a reused side stops
/// allocating after warm-up.
struct SweepSide {
  std::vector<double> key_lo;  ///< Sweep-axis lo (negated when backward).
  std::vector<double> key_hi;  ///< Sweep-axis hi (negated when backward).
  std::vector<double> lo0, hi0, lo1, hi1;  ///< Original rect coordinates.
  std::vector<uint32_t> ids;               ///< Ref ids, sweep order.
  RefKind kind = RefKind::kObject;
  uint8_t level = 0;
  std::size_t size = 0;

  geom::Rect RectAt(std::size_t k) const {
    return geom::Rect(lo0[k], lo1[k], hi0[k], hi1[k]);
  }
  PairRef RefAt(std::size_t k) const {
    PairRef ref;
    ref.rect = RectAt(k);
    ref.id = ids[k];
    ref.kind = kind;
    ref.level = level;
    return ref;
  }

  /// Fills the side from `items`, which must share one kind and level, for
  /// a sweep along `axis`; a backward sweep is a forward sweep in negated
  /// coordinates. Ties on the sweep key order by id, as the sweep always
  /// has.
  void Build(const std::vector<PairRef>& items, int axis, bool forward);

  /// Fills the side with the children of a pinned node page, restricted to
  /// `window`, in the same order the list overload gives. The order comes
  /// from `orders` when it holds one for (page, orientation) that still
  /// matches the page; otherwise the children are sorted, and on a first
  /// use the page's order is published to `orders`.
  void Build(const rtree::NodeView& node, storage::PageId page,
             const rtree::SweepOrderTable& orders,
             const std::optional<geom::Rect>& window, int axis,
             bool forward);

  /// Fills the side with the single object `ref` (none if it misses
  /// `window`): the object side of a mixed object/node pair.
  void BuildOne(const PairRef& ref, const std::optional<geom::Rect>& window,
                int axis, bool forward);

 private:
  struct SortRec {
    double key;
    uint32_t id;
    uint32_t idx;
  };

  void Resize(std::size_t n);
  void Put(std::size_t k, double sweep_lo, const geom::Rect& rc,
           uint32_t id, int axis, bool forward);
  /// Sorts the page's children that meet `window` into sort_scratch_ by
  /// (key, id); returns how many there are.
  std::size_t SortPage(const rtree::NodeView& node,
                       const std::optional<geom::Rect>& window, int axis,
                       bool forward);
  /// Fills the side in `order`; false (side unusable) if `order` does not
  /// put the page's children in strictly ascending (key, id) order.
  bool Gather(const rtree::NodeView& node, std::span<const uint8_t> order,
              const std::optional<geom::Rect>& window, int axis,
              bool forward);

  std::vector<SortRec> sort_scratch_;
  std::vector<uint8_t> order_scratch_;
};

/// The pooled per-thread sweep state: both sides plus the per-batch kernel
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

/// Bidirectional plane sweep over the two filled sides of `arena` (the
/// heart of Algorithm 1 and its aggressive/compensating variants):
/// repeatedly take the not-yet-processed child with the minimum sweep key
/// as the *anchor* (left first on ties) and scan the remaining children of
/// the *other* side in sweep order, stopping as soon as the axis separation
/// exceeds the axis cutoff — so only O(|L| + |R|) pairs are touched for a
/// tight cutoff instead of the full Cartesian product. Every unordered
/// pair is examined at most once, and within one anchor's scan candidates
/// come in ascending axis separation.
///
/// Each anchor's first candidate is decided by one scalar gap (the kernels'
/// max(0, lo - hi)) before any kernel call or ref is built: under a tight
/// cutoff most anchors have no candidate in range and cost one compare.
/// Past it, candidate runs are evaluated through the batch kernels (axis
/// gaps and, under L2, full MinDist keys per batch, batches growing from
/// kSweepFirstChunk to kSweepChunk); the callback is invoked only for
/// survivors, as cb(lref, rref, dist_key) with dist_key a geom::KeyVal.
///
/// Exact per-candidate decision sequence:
///   1. count one axis-distance computation
///   2. axis_key > *axis_cutoff_key        -> end anchor scan (not covered)
///   3. axis_key <= skip_axis_below_key    -> skip (earlier stage saw it)
///   4. count one real-distance computation
///   5. dist_key <= skip_dist_below_key    -> skip (earlier stage kept it)
///   6. dist_key > *dist_cutoff_key        -> drop (dist_filtered)
///   7. cb(lref, rref, dist_key)
/// Steps 2 and 6 re-read their cutoffs per candidate; the batched kernel
/// precomputation covers only cutoff-independent arithmetic, so batching
/// cannot change which candidates survive. The first-candidate gate runs
/// steps 1–2 itself only when it ends the scan; when the candidate passes,
/// it counts nothing and the batch loop tests it again against the same
/// cutoff, so every candidate is still counted exactly once.
template <typename Callback>
KeyedSweepResult PlaneSweepKeyed(SweepArena* arena,
                                 const KeyedSweepSpec& spec, JoinStats* stats,
                                 Callback&& cb) {
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
    std::size_t j = anchor_is_left ? ir : il;  // < other.size: loop guard
    const double lead = other.key_lo[j] - anchor_hi;
    if (geom::AxisGapToKey(lead > 0.0 ? lead : 0.0, spec.metric) >
        *spec.axis_cutoff_key) {
      if (stats != nullptr) ++stats->axis_distance_computations;
      result.axis_covered = false;
      continue;
    }
    const PairRef aref = aside.RefAt(ai);
    const geom::Rect& arect = aref.rect;
    std::size_t batch = kSweepFirstChunk;
    bool cut = false;
    while (j < other.size && !cut) {
      const std::size_t n = std::min(batch, other.size - j);
      batch = std::min(2 * batch, kSweepChunk);
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
          m = n;  // gaps ascend within a batch: the whole batch passes
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
               : geom::MinDistanceKey(arect, other.RectAt(j + t),
                                      spec.metric);
        if (dist_key <= spec.skip_dist_below_key) continue;
        if (dist_key > *spec.dist_cutoff_key) {
          result.dist_filtered = true;
          continue;
        }
        if (anchor_is_left) {
          cb(aref, other.RefAt(j + t), dist_key);
        } else {
          cb(other.RefAt(j + t), aref, dist_key);
        }
      }
      j += n;
    }
  }
  return result;
}

/// PlaneSweepKeyed over two ref lists (each of one kind and level), sorted
/// into the calling thread's arena under `plan`.
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
  return PlaneSweepKeyed(arena, spec, stats, std::forward<Callback>(cb));
}

}  // namespace amdj::core

#endif  // AMDJ_CORE_PLANE_SWEEPER_H_
