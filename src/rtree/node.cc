#include "rtree/node.h"

#include <cstring>

#include "common/logging.h"
#include "storage/page.h"

namespace amdj::rtree {

geom::Rect Node::ComputeMbr() const {
  geom::Rect mbr = geom::Rect::Empty();
  for (const Entry& e : entries) mbr.Extend(e.rect);
  return mbr;
}

void Node::Serialize(char* page) const {
  AMDJ_CHECK(entries.size() <= kMaxEntriesPerPage)
      << "node has " << entries.size() << " entries";
  std::memset(page, 0, storage::kPageSize);
  const uint16_t count = static_cast<uint16_t>(entries.size());
  std::memcpy(page, &level, sizeof(level));
  std::memcpy(page + 2, &count, sizeof(count));
  char* p = page + kNodeHeaderBytes;
  for (const Entry& e : entries) {
    std::memcpy(p, &e.rect.lo.x, sizeof(double));
    std::memcpy(p + 8, &e.rect.lo.y, sizeof(double));
    std::memcpy(p + 16, &e.rect.hi.x, sizeof(double));
    std::memcpy(p + 24, &e.rect.hi.y, sizeof(double));
    std::memcpy(p + 32, &e.id, sizeof(uint32_t));
    p += kEntryBytes;
  }
}

Status NodeView::Parse(const char* page, NodeView* out) {
  uint16_t level = 0;
  uint16_t count = 0;
  std::memcpy(&level, page, sizeof(level));
  std::memcpy(&count, page + 2, sizeof(count));
  if (count > kMaxEntriesPerPage) {
    return Status::Corruption("node entry count " + std::to_string(count) +
                              " exceeds page capacity");
  }
  out->page_ = page;
  out->level_ = level;
  out->count_ = count;
  return Status::OK();
}

Status Node::Deserialize(const char* page, Node* out) {
  NodeView view;
  AMDJ_RETURN_IF_ERROR(NodeView::Parse(page, &view));
  out->level = view.level();
  out->entries.resize(view.count());
  for (uint16_t i = 0; i < view.count(); ++i) {
    out->entries[i] = Entry(view.rect(i), view.id(i));
  }
  return Status::OK();
}

}  // namespace amdj::rtree
