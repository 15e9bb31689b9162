#ifndef AMDJ_RTREE_NODE_H_
#define AMDJ_RTREE_NODE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"
#include "geom/rect.h"
#include "rtree/entry.h"

namespace amdj::rtree {

/// Read-only view of a node page in place; the page layout is
///   [uint16 level][uint16 count][4 bytes pad][count x packed Entry].
/// The view borrows the page bytes, so it is valid only while the page
/// stays pinned. The join hot path reads children straight from a pinned
/// page through it, without materializing a Node.
class NodeView {
 public:
  /// Parses the page header; fails with Corruption on an impossible entry
  /// count (so every index below count() lies inside the page).
  static Status Parse(const char* page, NodeView* out);

  /// 0 for leaves; increases toward the root.
  uint16_t level() const { return level_; }
  uint16_t count() const { return count_; }
  bool IsLeaf() const { return level_ == 0; }

  geom::Rect rect(size_t i) const {
    geom::Rect r;
    const char* p = EntryBytes(i);
    std::memcpy(&r.lo.x, p, sizeof(double));
    std::memcpy(&r.lo.y, p + 8, sizeof(double));
    std::memcpy(&r.hi.x, p + 16, sizeof(double));
    std::memcpy(&r.hi.y, p + 24, sizeof(double));
    return r;
  }
  uint32_t id(size_t i) const {
    uint32_t v;
    std::memcpy(&v, EntryBytes(i) + 32, sizeof(v));
    return v;
  }

 private:
  const char* EntryBytes(size_t i) const {
    return page_ + kNodeHeaderBytes + i * kEntryBytes;
  }

  const char* page_ = nullptr;
  uint16_t level_ = 0;
  uint16_t count_ = 0;
};

/// In-memory image of one R-tree node. Nodes are deserialized from 4 KB
/// pages (see NodeView for the layout), mutated, and serialized back.
struct Node {
  /// 0 for leaves; increases toward the root.
  uint16_t level = 0;
  std::vector<Entry> entries;

  bool IsLeaf() const { return level == 0; }

  /// Union of all entry rectangles (Rect::Empty() if the node is empty).
  geom::Rect ComputeMbr() const;

  /// Writes this node into a kPageSize buffer. The entry count must not
  /// exceed kMaxEntriesPerPage.
  void Serialize(char* page) const;

  /// Parses a node from a kPageSize buffer through NodeView; fails with
  /// Corruption on an impossible entry count.
  static Status Deserialize(const char* page, Node* out);
};

}  // namespace amdj::rtree

#endif  // AMDJ_RTREE_NODE_H_
