#include "core/plane_sweeper.h"

#include "common/logging.h"

namespace amdj::core {

namespace {

/// The sweep key: sweep-axis lo, or -hi for a backward sweep (a backward
/// sweep is a forward sweep in negated coordinates).
double SweepKey(const geom::Rect& rc, int axis, bool forward) {
  return forward ? rc.lo.Coord(axis) : -rc.hi.Coord(axis);
}

/// Sweep order: ascending key, ties by id.
struct KeyThenId {
  template <typename Rec>
  bool operator()(const Rec& a, const Rec& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }
};

}  // namespace

void SweepSide::Resize(std::size_t n) {
  if (key_lo.size() >= n) return;  // grow only; `size` is the live length
  key_lo.resize(n);
  key_hi.resize(n);
  lo0.resize(n);
  hi0.resize(n);
  lo1.resize(n);
  hi1.resize(n);
  ids.resize(n);
}

void SweepSide::Put(std::size_t k, double sweep_lo, const geom::Rect& rc,
                    uint32_t id, int axis, bool forward) {
  key_lo[k] = sweep_lo;
  key_hi[k] = forward ? rc.hi.Coord(axis) : -rc.lo.Coord(axis);
  lo0[k] = rc.lo.x;
  hi0[k] = rc.hi.x;
  lo1[k] = rc.lo.y;
  hi1[k] = rc.hi.y;
  ids[k] = id;
}

void SweepSide::Build(const std::vector<PairRef>& items, int axis,
                      bool forward) {
  const std::size_t n = items.size();
  if (n > 0) {
    kind = items[0].kind;
    level = items[0].level;
  }
  sort_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    AMDJ_CHECK(items[i].kind == kind && items[i].level == level)
        << "a sweep side mixes ref kinds or levels";
    sort_scratch_[i] = {SweepKey(items[i].rect, axis, forward), items[i].id,
                        static_cast<uint32_t>(i)};
  }
  std::sort(sort_scratch_.begin(), sort_scratch_.end(), KeyThenId());
  Resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const SortRec& rec = sort_scratch_[k];
    Put(k, rec.key, items[rec.idx].rect, rec.id, axis, forward);
  }
  size = n;
}

void SweepSide::BuildOne(const PairRef& ref,
                         const std::optional<geom::Rect>& window, int axis,
                         bool forward) {
  kind = ref.kind;
  level = ref.level;
  size = 0;
  if (window.has_value() && !ref.rect.Intersects(*window)) return;
  Resize(1);
  Put(0, SweepKey(ref.rect, axis, forward), ref.rect, ref.id, axis, forward);
  size = 1;
}

std::size_t SweepSide::SortPage(const rtree::NodeView& node,
                                const std::optional<geom::Rect>& window,
                                int axis, bool forward) {
  const std::size_t n = node.count();
  sort_scratch_.resize(n);
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Rect rc = node.rect(i);
    if (window.has_value() && !rc.Intersects(*window)) continue;
    sort_scratch_[m++] = {SweepKey(rc, axis, forward), node.id(i),
                          static_cast<uint32_t>(i)};
  }
  std::sort(sort_scratch_.begin(), sort_scratch_.begin() + m,
            KeyThenId());
  return m;
}

bool SweepSide::Gather(const rtree::NodeView& node,
                       std::span<const uint8_t> order,
                       const std::optional<geom::Rect>& window, int axis,
                       bool forward) {
  std::size_t m = 0;
  double prev_key = 0.0;
  uint32_t prev_id = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const geom::Rect rc = node.rect(i);
    const double key = SweepKey(rc, axis, forward);
    const uint32_t id = node.id(i);
    // Strict ascent over *every* child (filtered ones too) proves that the
    // order is a permutation of the page's slots and equals a fresh sort.
    if (k > 0 && !(prev_key < key || (prev_key == key && prev_id < id))) {
      return false;
    }
    prev_key = key;
    prev_id = id;
    if (window.has_value() && !rc.Intersects(*window)) continue;
    Put(m++, key, rc, id, axis, forward);
  }
  size = m;
  return true;
}

void SweepSide::Build(const rtree::NodeView& node, storage::PageId page,
                      const rtree::SweepOrderTable& orders,
                      const std::optional<geom::Rect>& window, int axis,
                      bool forward) {
  kind = node.IsLeaf() ? RefKind::kObject : RefKind::kNode;
  level = node.IsLeaf() ? 0 : static_cast<uint8_t>(node.level() - 1);
  const std::size_t n = node.count();
  Resize(n);
  const int orientation = rtree::SweepOrientation(axis, forward);
  const std::span<const uint8_t> order = orders.Find(page, orientation);
  if (order.size() == n && n > 0 &&
      Gather(node, order, window, axis, forward)) {
    return;
  }
  // No usable order: sort exactly as a list would be sorted.
  const std::size_t m = SortPage(node, window, axis, forward);
  for (std::size_t k = 0; k < m; ++k) {
    const SortRec& rec = sort_scratch_[k];
    Put(k, rec.key, node.rect(rec.idx), rec.id, axis, forward);
  }
  size = m;
  // A stale order stays put (readers may hold it) until the tree's next
  // mutation; only a first use publishes.
  if (!order.empty() || n < 2) return;
  if (window.has_value()) SortPage(node, std::nullopt, axis, forward);
  order_scratch_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    if (k > 0 && sort_scratch_[k - 1].key == sort_scratch_[k].key &&
        sort_scratch_[k - 1].id == sort_scratch_[k].id) {
      return;  // duplicate (key, id): no unique order to cache
    }
    order_scratch_[k] = static_cast<uint8_t>(sort_scratch_[k].idx);
  }
  orders.Publish(page, orientation, order_scratch_);
}

SweepArena* ThreadSweepArena() {
  thread_local SweepArena arena;
  return &arena;
}

}  // namespace amdj::core
