#include "rtree/sweep_order.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace amdj::rtree {

SweepOrderTable::~SweepOrderTable() { FreeOrders(); }

void SweepOrderTable::FreeOrders() {
  if (order_count_.load(std::memory_order_relaxed) == 0) return;
  for (size_t i = 0; i < slot_capacity_; ++i) {
    delete[] slots_[i].exchange(nullptr, std::memory_order_relaxed);
  }
  order_count_.store(0, std::memory_order_relaxed);
  order_bytes_.store(0, std::memory_order_relaxed);
}

void SweepOrderTable::Reset(size_t pages) {
  FreeOrders();
  const size_t needed = pages * kSweepOrientations;
  if (needed > slot_capacity_) {
    const size_t capacity = std::max(needed, 2 * slot_capacity_);
    slots_ = std::make_unique<std::atomic<uint8_t*>[]>(capacity);  // null
    slot_capacity_ = capacity;
  }
  pages_ = pages;
}

void SweepOrderTable::Publish(storage::PageId page, int orientation,
                              std::span<const uint8_t> order) const {
  if (page >= pages_) return;
  AMDJ_CHECK(order.size() <= kMaxEntriesPerPage)
      << "sweep order of " << order.size() << " slots";
  auto* copy = new uint8_t[order.size() + 1];
  copy[0] = static_cast<uint8_t>(order.size());
  std::memcpy(copy + 1, order.data(), order.size());
  uint8_t* expected = nullptr;
  if (!slots_[Slot(page, orientation)].compare_exchange_strong(
          expected, copy, std::memory_order_release,
          std::memory_order_relaxed)) {
    delete[] copy;  // another thread published first
    return;
  }
  order_count_.fetch_add(1, std::memory_order_relaxed);
  order_bytes_.fetch_add(order.size() + 1, std::memory_order_relaxed);
}

}  // namespace amdj::rtree
