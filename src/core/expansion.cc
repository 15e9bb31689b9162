#include "core/expansion.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "rtree/node.h"

namespace amdj::core {

namespace {

/// Pins `ref`'s page and parses it in place, checking that the page sits
/// at the ref's level: the level decides whether the children are objects
/// or nodes, so a page at the wrong level must not be expanded.
Status PinNode(const rtree::RTree& tree, const PairRef& ref,
               storage::PageGuard* guard, rtree::NodeView* node) {
  AMDJ_CHECK(!ref.IsObject()) << "cannot expand an object ref";
  auto fetched = tree.buffer_pool()->FetchPage(ref.id);
  if (!fetched.ok()) return fetched.status();
  *guard = std::move(*fetched);
  AMDJ_RETURN_IF_ERROR(rtree::NodeView::Parse(guard->data(), node));
  if (node->level() != ref.level) {
    return Status::Corruption("node page " + std::to_string(ref.id) +
                              " has level " + std::to_string(node->level()) +
                              ", expected " + std::to_string(ref.level));
  }
  return Status::OK();
}

}  // namespace

PairRef RootRef(const rtree::RTree& tree) {
  PairRef ref;
  ref.rect = tree.size() > 0 ? tree.bounds() : geom::Rect();
  ref.id = tree.root();
  ref.kind = RefKind::kNode;
  ref.level = static_cast<uint8_t>(tree.height() - 1);
  return ref;
}

Status FetchChildren(const rtree::RTree& tree, const PairRef& ref,
                     std::vector<PairRef>* out) {
  storage::PageGuard guard;
  rtree::NodeView node;
  AMDJ_RETURN_IF_ERROR(PinNode(tree, ref, &guard, &node));
  out->resize(node.count());
  for (uint16_t i = 0; i < node.count(); ++i) {
    PairRef& child = (*out)[i];
    child.rect = node.rect(i);
    child.id = node.id(i);
    if (node.IsLeaf()) {
      child.kind = RefKind::kObject;
      child.level = 0;
    } else {
      child.kind = RefKind::kNode;
      child.level = static_cast<uint8_t>(node.level() - 1);
    }
  }
  return Status::OK();
}

Status ChildList(const rtree::RTree& tree, const PairRef& ref,
                 std::vector<PairRef>* out) {
  if (ref.IsObject()) {
    out->assign(1, ref);
    return Status::OK();
  }
  return FetchChildren(tree, ref, out);
}

Status ChildList(const rtree::RTree& tree, const PairRef& ref,
                 const std::optional<geom::Rect>& window,
                 std::vector<PairRef>* out) {
  AMDJ_RETURN_IF_ERROR(ChildList(tree, ref, out));
  if (window.has_value()) {
    out->erase(std::remove_if(out->begin(), out->end(),
                              [&](const PairRef& child) {
                                return !child.rect.Intersects(*window);
                              }),
               out->end());
  }
  return Status::OK();
}

Status LoadSweepSide(const rtree::RTree& tree, const PairRef& ref,
                     const std::optional<geom::Rect>& window,
                     const SweepPlan& plan, SweepSide* side) {
  const bool forward = plan.dir == geom::SweepDirection::kForward;
  if (ref.IsObject()) {
    side->BuildOne(ref, window, plan.axis, forward);
    return Status::OK();
  }
  storage::PageGuard guard;
  rtree::NodeView node;
  AMDJ_RETURN_IF_ERROR(PinNode(tree, ref, &guard, &node));
  side->Build(node, ref.id, tree.sweep_orders(), window, plan.axis, forward);
  return Status::OK();
}

StatusOr<SweepArena*> LoadSweepSides(const rtree::RTree& r,
                                     const rtree::RTree& s,
                                     const PairEntry& pair,
                                     const SweepPlan& plan,
                                     const JoinOptions& options) {
  SweepArena* arena = ThreadSweepArena();
  AMDJ_RETURN_IF_ERROR(
      LoadSweepSide(r, pair.r, options.r_window, plan, &arena->left));
  AMDJ_RETURN_IF_ERROR(
      LoadSweepSide(s, pair.s, options.s_window, plan, &arena->right));
  return arena;
}

}  // namespace amdj::core
