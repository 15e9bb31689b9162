#ifndef AMDJ_CORE_EXPANSION_H_
#define AMDJ_CORE_EXPANSION_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "core/options.h"
#include "core/pair_entry.h"
#include "core/plane_sweeper.h"
#include "core/sweep_plan.h"
#include "rtree/rtree.h"

namespace amdj::core {

/// The PairRef designating `tree`'s root node (level = height - 1).
PairRef RootRef(const rtree::RTree& tree);

/// Loads the children of a node ref as PairRefs: objects if the node is a
/// leaf, nodes one level down otherwise. Counts one node access on the
/// tree's buffer pool. `ref` must be a node ref. Fails with Corruption if
/// the page's level is not the ref's.
Status FetchChildren(const rtree::RTree& tree, const PairRef& ref,
                     std::vector<PairRef>* out);

/// Children of a pair side: FetchChildren for a node, the ref itself for an
/// object (so object/node mixed pairs expand uniformly, degenerating to a
/// one-sided sweep).
Status ChildList(const rtree::RTree& tree, const PairRef& ref,
                 std::vector<PairRef>* out);

/// ChildList restricted to refs intersecting `window` (pass std::nullopt
/// for no restriction). Because a node MBR disjoint from the window cannot
/// contain an intersecting object, pruning at every level is exact.
Status ChildList(const rtree::RTree& tree, const PairRef& ref,
                 const std::optional<geom::Rect>& window,
                 std::vector<PairRef>* out);

/// Fills `side` with the children of `ref` (the windowed ChildList) in
/// `plan`'s sweep order, reading a node's pinned page in place: no Node,
/// no PairRef list, and no sort once `tree`'s sweep-order table holds the
/// page's order. A node side counts one node access, like FetchChildren,
/// and fails with Corruption if the page's level is not the ref's.
Status LoadSweepSide(const rtree::RTree& tree, const PairRef& ref,
                     const std::optional<geom::Rect>& window,
                     const SweepPlan& plan, SweepSide* side);

/// Fills the calling thread's sweep arena for expanding `pair`: the r side
/// from `r` under options.r_window, then the s side from `s` under
/// options.s_window, both in `plan`'s order. Returns the arena for
/// PlaneSweepKeyed.
StatusOr<SweepArena*> LoadSweepSides(const rtree::RTree& r,
                                     const rtree::RTree& s,
                                     const PairEntry& pair,
                                     const SweepPlan& plan,
                                     const JoinOptions& options);

}  // namespace amdj::core

#endif  // AMDJ_CORE_EXPANSION_H_
