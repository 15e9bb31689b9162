#ifndef AMDJ_RTREE_SWEEP_ORDER_H_
#define AMDJ_RTREE_SWEEP_ORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "rtree/entry.h"
#include "storage/page.h"

namespace amdj::rtree {

/// Sweep orientations of a node page: axis x or y, forward or backward.
inline constexpr int kSweepOrientations = 4;

/// Index of the orientation (axis, forward) in [0, kSweepOrientations).
inline int SweepOrientation(int axis, bool forward) {
  return 2 * axis + (forward ? 0 : 1);
}

/// Per-tree cache of each node page's children in plane-sweep order.
///
/// For a (page, orientation) the order is the permutation of the page's
/// entry slots ascending by (sweep key, id), where the sweep key is the
/// sweep-axis lo, or -hi when the sweep runs backward. Node pages do not
/// change while joins run, so a join sorts a page once per orientation and
/// every later sweep of it, in this or a later query, gathers in the
/// cached order instead of sorting again.
///
/// Orders are derived from page contents, not from buffer residency:
/// clearing the buffer pool keeps them. Every tree mutation drops them
/// (Reset). Readers never trust an order blindly: the gather checks that it
/// still matches the page (core::SweepSide) and sorts instead if it does
/// not, so a page rewritten behind the tree's back costs time, never an
/// answer.
///
/// Concurrency: Find and Publish may run from any number of threads at
/// once. An order is published with one compare-and-swap (release) into
/// an empty slot and read with an acquire load; the losing builder of a
/// race frees its copy. Published orders are immutable until Reset, which
/// (with construction and destruction) requires exclusive access — the
/// tree's mutators already do.
class SweepOrderTable {
 public:
  SweepOrderTable() = default;
  ~SweepOrderTable();

  SweepOrderTable(const SweepOrderTable&) = delete;
  SweepOrderTable& operator=(const SweepOrderTable&) = delete;

  /// Frees every order and makes room for page ids below `pages`.
  /// Exclusive access only.
  void Reset(size_t pages);

  /// The order published for (page, orientation); empty if there is none
  /// or `page` lies beyond the table.
  std::span<const uint8_t> Find(storage::PageId page, int orientation) const {
    if (page >= pages_) return {};
    const uint8_t* order =
        slots_[Slot(page, orientation)].load(std::memory_order_acquire);
    if (order == nullptr) return {};
    return {order + 1, order[0]};
  }

  /// Publishes `order` (a permutation of at most kMaxEntriesPerPage slots)
  /// for (page, orientation) unless an order is already there. No-op for
  /// a page beyond the table.
  void Publish(storage::PageId page, int orientation,
               std::span<const uint8_t> order) const;

  /// Number of published orders.
  size_t order_count() const {
    return order_count_.load(std::memory_order_relaxed);
  }
  /// Bytes of the published orders (one length byte plus one byte per
  /// child each) plus the slot array.
  size_t bytes() const {
    return order_bytes_.load(std::memory_order_relaxed) +
           slot_capacity_ * sizeof(std::atomic<uint8_t*>);
  }

 private:
  static_assert(kMaxEntriesPerPage <= UINT8_MAX,
                "child slots and counts are stored in one byte");

  static size_t Slot(storage::PageId page, int orientation) {
    return static_cast<size_t>(page) * kSweepOrientations +
           static_cast<size_t>(orientation);
  }

  /// Frees every published order.
  void FreeOrders();

  /// Page ids below this have slots.
  size_t pages_ = 0;
  /// Allocated slots; grows geometrically so per-insert Resets stay cheap.
  size_t slot_capacity_ = 0;
  /// One slot per (page, orientation): null, or a published order laid
  /// out as [size][slot 0]...[slot size-1].
  std::unique_ptr<std::atomic<uint8_t*>[]> slots_;
  mutable std::atomic<size_t> order_count_{0};
  mutable std::atomic<size_t> order_bytes_{0};
};

}  // namespace amdj::rtree

#endif  // AMDJ_RTREE_SWEEP_ORDER_H_
