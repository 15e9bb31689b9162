#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "rtree/hilbert_bulk_loader.h"
#include "rtree/str_bulk_loader.h"

namespace amdj::rtree {

using geom::Rect;
using storage::PageId;

namespace {

/// Area growth needed for `rect` to absorb `add`.
double Enlargement(const Rect& rect, const Rect& add) {
  return geom::Union(rect, add).Area() - rect.Area();
}

}  // namespace

/// Drops the sweep-order table when a mutator returns, on every path: the
/// mutation may have rewritten any node page and allocated pages the table
/// must now cover.
class RTree::SweepOrderReset {
 public:
  explicit SweepOrderReset(RTree* tree) : tree_(tree) {}
  ~SweepOrderReset() {
    tree_->sweep_orders_.Reset(tree_->pool_->disk()->PageCount());
  }
  SweepOrderReset(const SweepOrderReset&) = delete;
  SweepOrderReset& operator=(const SweepOrderReset&) = delete;

 private:
  RTree* tree_;
};

StatusOr<std::unique_ptr<RTree>> RTree::Create(storage::BufferPool* pool,
                                               const Options& options) {
  Options opts = options;
  if (opts.max_entries < 4 || opts.max_entries > kMaxEntriesPerPage) {
    return Status::InvalidArgument("max_entries must be in [4, " +
                                   std::to_string(kMaxEntriesPerPage) + "]");
  }
  if (opts.min_entries == 0) {
    opts.min_entries =
        std::max<uint32_t>(2, static_cast<uint32_t>(opts.max_entries * 0.4));
  }
  if (opts.min_entries > opts.max_entries / 2) {
    return Status::InvalidArgument("min_entries must be <= max_entries / 2");
  }
  if (opts.reinsert_fraction <= 0.0 || opts.reinsert_fraction >= 0.5) {
    return Status::InvalidArgument("reinsert_fraction must be in (0, 0.5)");
  }
  auto tree = std::unique_ptr<RTree>(new RTree(pool, opts));
  const SweepOrderReset reset(tree.get());
  Node root;
  root.level = 0;
  auto root_id = tree->AllocNode(root);
  if (!root_id.ok()) return root_id.status();
  tree->root_ = *root_id;
  return tree;
}

StatusOr<std::unique_ptr<RTree>> RTree::Open(storage::BufferPool* pool,
                                             const Meta& meta,
                                             const Options& options) {
  Options opts = options;
  if (meta.max_entries != 0) opts.max_entries = meta.max_entries;
  if (meta.min_entries != 0) opts.min_entries = meta.min_entries;
  auto created = Create(pool, opts);
  if (!created.ok()) return created.status();
  std::unique_ptr<RTree> tree = std::move(*created);
  // Create() allocated a fresh empty root; drop it in favor of the
  // persisted one.
  tree->FreeNodePage(tree->root_);
  tree->root_ = meta.root;
  tree->height_ = meta.height;
  tree->size_ = meta.size;
  tree->node_count_ = meta.node_count;
  tree->bounds_ = meta.bounds;
  // Sanity: the persisted root must parse and sit at the stated level.
  Node root;
  AMDJ_RETURN_IF_ERROR(tree->ReadNode(tree->root_, &root));
  if (root.level != meta.height - 1) {
    return Status::Corruption("meta height does not match root level");
  }
  return tree;
}

RTree::Meta RTree::ToMeta() const {
  Meta meta;
  meta.root = root_;
  meta.height = height_;
  meta.size = size_;
  meta.node_count = node_count_;
  meta.bounds = bounds_;
  meta.max_entries = options_.max_entries;
  meta.min_entries = options_.min_entries;
  return meta;
}

namespace {
constexpr char kMetaMagic[8] = {'A', 'M', 'D', 'J', 'R', 'T', '0', '1'};
}  // namespace

Status RTree::WriteMetaPage(PageId page_id) const {
  auto guard = pool_->FetchPage(page_id);
  if (!guard.ok()) return guard.status();
  char* p = guard->MutableData();
  std::memset(p, 0, storage::kPageSize);
  const Meta meta = ToMeta();
  std::memcpy(p, kMetaMagic, sizeof(kMetaMagic));
  std::memcpy(p + 8, &meta.root, sizeof(meta.root));
  std::memcpy(p + 12, &meta.height, sizeof(meta.height));
  std::memcpy(p + 16, &meta.size, sizeof(meta.size));
  std::memcpy(p + 24, &meta.node_count, sizeof(meta.node_count));
  std::memcpy(p + 32, &meta.bounds, sizeof(meta.bounds));
  std::memcpy(p + 64, &meta.max_entries, sizeof(meta.max_entries));
  std::memcpy(p + 68, &meta.min_entries, sizeof(meta.min_entries));
  return Status::OK();
}

StatusOr<std::unique_ptr<RTree>> RTree::OpenFromMetaPage(
    storage::BufferPool* pool, PageId page_id, const Options& options) {
  Meta meta;
  {
    auto guard = pool->FetchPage(page_id);
    if (!guard.ok()) return guard.status();
    const char* p = guard->data();
    if (std::memcmp(p, kMetaMagic, sizeof(kMetaMagic)) != 0) {
      return Status::Corruption("not an R-tree meta page");
    }
    std::memcpy(&meta.root, p + 8, sizeof(meta.root));
    std::memcpy(&meta.height, p + 12, sizeof(meta.height));
    std::memcpy(&meta.size, p + 16, sizeof(meta.size));
    std::memcpy(&meta.node_count, p + 24, sizeof(meta.node_count));
    std::memcpy(&meta.bounds, p + 32, sizeof(meta.bounds));
    std::memcpy(&meta.max_entries, p + 64, sizeof(meta.max_entries));
    std::memcpy(&meta.min_entries, p + 68, sizeof(meta.min_entries));
  }
  return Open(pool, meta, options);
}

Status RTree::ReadNode(PageId page_id, Node* out) const {
  auto guard = pool_->FetchPage(page_id);
  if (!guard.ok()) return guard.status();
  return Node::Deserialize(guard->data(), out);
}

Status RTree::WriteNode(PageId page_id, const Node& node) const {
  auto guard = pool_->FetchPage(page_id);
  if (!guard.ok()) return guard.status();
  node.Serialize(guard->MutableData());
  return Status::OK();
}

StatusOr<PageId> RTree::AllocNode(const Node& node) const {
  PageId id = storage::kInvalidPageId;
  auto guard = pool_->NewPage(&id);
  if (!guard.ok()) return guard.status();
  node.Serialize(guard->MutableData());
  return id;
}

size_t RTree::ChooseSubtree(const Node& node, const Rect& rect) const {
  AMDJ_CHECK(!node.entries.empty());
  // For nodes whose children are leaves, R* minimizes *overlap* enlargement
  // among the kNearlyMin entries of least area enlargement; higher up it
  // minimizes area enlargement (ties: smaller area).
  const bool children_are_leaves = (node.level == 1);
  if (!children_are_leaves) {
    size_t best = 0;
    double best_enl = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const double enl = Enlargement(node.entries[i].rect, rect);
      const double area = node.entries[i].rect.Area();
      if (enl < best_enl || (enl == best_enl && area < best_area)) {
        best = i;
        best_enl = enl;
        best_area = area;
      }
    }
    return best;
  }
  // Rank children by area enlargement, then examine only the best few for
  // the quadratic overlap computation (the standard R* optimization).
  constexpr size_t kNearlyMin = 32;
  std::vector<size_t> order(node.entries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return Enlargement(node.entries[a].rect, rect) <
           Enlargement(node.entries[b].rect, rect);
  });
  const size_t candidates = std::min(kNearlyMin, order.size());
  size_t best = order[0];
  double best_overlap_enl = std::numeric_limits<double>::infinity();
  double best_enl = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < candidates; ++c) {
    const size_t i = order[c];
    const Rect enlarged = geom::Union(node.entries[i].rect, rect);
    double overlap_before = 0.0;
    double overlap_after = 0.0;
    for (size_t j = 0; j < node.entries.size(); ++j) {
      if (j == i) continue;
      overlap_before +=
          geom::IntersectionArea(node.entries[i].rect, node.entries[j].rect);
      overlap_after +=
          geom::IntersectionArea(enlarged, node.entries[j].rect);
    }
    const double overlap_enl = overlap_after - overlap_before;
    const double enl = Enlargement(node.entries[i].rect, rect);
    const double area = node.entries[i].rect.Area();
    if (overlap_enl < best_overlap_enl ||
        (overlap_enl == best_overlap_enl &&
         (enl < best_enl || (enl == best_enl && area < best_area)))) {
      best = i;
      best_overlap_enl = overlap_enl;
      best_enl = enl;
      best_area = area;
    }
  }
  return best;
}

void RTree::SplitNode(Node* node, Node* sibling) const {
  const uint32_t total = static_cast<uint32_t>(node->entries.size());
  const uint32_t m = options_.min_entries;
  AMDJ_CHECK(total >= 2 * m) << "split of node with " << total << " entries";

  // R* split: for each axis, sort by lower then by upper boundary and sum
  // the margins of all legal distributions; pick the axis with the minimum
  // margin sum, then the distribution with minimal overlap (ties: area).
  struct Candidate {
    int axis;
    bool by_upper;
    uint32_t split_at;  // first group = sorted[0, split_at)
    double overlap;
    double area;
  };

  Candidate best{-1, false, 0, std::numeric_limits<double>::infinity(),
                 std::numeric_limits<double>::infinity()};
  int best_axis = -1;
  double best_margin = std::numeric_limits<double>::infinity();

  std::vector<Entry> sorted = node->entries;
  // Evaluate margin sums per axis first.
  std::vector<std::vector<Entry>> sorted_by[2];  // [axis][0=lower,1=upper]
  for (int axis = 0; axis < 2; ++axis) {
    double margin_sum = 0.0;
    for (int by_upper = 0; by_upper < 2; ++by_upper) {
      std::sort(sorted.begin(), sorted.end(),
                [axis, by_upper](const Entry& a, const Entry& b) {
                  const double ka = by_upper ? a.rect.hi.Coord(axis)
                                             : a.rect.lo.Coord(axis);
                  const double kb = by_upper ? b.rect.hi.Coord(axis)
                                             : b.rect.lo.Coord(axis);
                  return ka < kb;
                });
      sorted_by[axis].push_back(sorted);
      // Prefix/suffix MBRs for O(n) margin evaluation.
      std::vector<Rect> prefix(total), suffix(total);
      Rect acc = Rect::Empty();
      for (uint32_t i = 0; i < total; ++i) {
        acc.Extend(sorted[i].rect);
        prefix[i] = acc;
      }
      acc = Rect::Empty();
      for (uint32_t i = total; i > 0; --i) {
        acc.Extend(sorted[i - 1].rect);
        suffix[i - 1] = acc;
      }
      for (uint32_t k = m; k <= total - m; ++k) {
        margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
      }
    }
    if (margin_sum < best_margin) {
      best_margin = margin_sum;
      best_axis = axis;
    }
  }

  // Choose the distribution on the winning axis.
  for (int by_upper = 0; by_upper < 2; ++by_upper) {
    const std::vector<Entry>& s = sorted_by[best_axis][by_upper];
    std::vector<Rect> prefix(total), suffix(total);
    Rect acc = Rect::Empty();
    for (uint32_t i = 0; i < total; ++i) {
      acc.Extend(s[i].rect);
      prefix[i] = acc;
    }
    acc = Rect::Empty();
    for (uint32_t i = total; i > 0; --i) {
      acc.Extend(s[i - 1].rect);
      suffix[i - 1] = acc;
    }
    for (uint32_t k = m; k <= total - m; ++k) {
      const double overlap = geom::IntersectionArea(prefix[k - 1], suffix[k]);
      const double area = prefix[k - 1].Area() + suffix[k].Area();
      if (overlap < best.overlap ||
          (overlap == best.overlap && area < best.area)) {
        best = {best_axis, by_upper != 0, k, overlap, area};
      }
    }
  }

  const std::vector<Entry>& s = sorted_by[best.axis][best.by_upper ? 1 : 0];
  sibling->level = node->level;
  sibling->entries.assign(s.begin() + best.split_at, s.end());
  node->entries.assign(s.begin(), s.begin() + best.split_at);
}

void RTree::PickReinsertVictims(Node* node,
                                std::vector<Entry>* victims) const {
  const Rect mbr = node->ComputeMbr();
  const geom::Point center = mbr.Center();
  const uint32_t p = std::max<uint32_t>(
      1, static_cast<uint32_t>(
             std::floor(options_.reinsert_fraction * node->entries.size())));
  std::vector<std::pair<double, size_t>> dist(node->entries.size());
  for (size_t i = 0; i < node->entries.size(); ++i) {
    dist[i] = {geom::DistanceSquared(node->entries[i].rect.Center(), center),
               i};
  }
  // Farthest p entries are evicted; they will be reinserted closest-first
  // ("close reinsert").
  std::sort(dist.begin(), dist.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<bool> evict(node->entries.size(), false);
  for (uint32_t i = 0; i < p; ++i) evict[dist[i].second] = true;
  // Closest-first order for reinsertion.
  for (uint32_t i = p; i > 0; --i) {
    victims->push_back(node->entries[dist[i - 1].second]);
  }
  std::vector<Entry> kept;
  kept.reserve(node->entries.size() - p);
  for (size_t i = 0; i < node->entries.size(); ++i) {
    if (!evict[i]) kept.push_back(node->entries[i]);
  }
  node->entries = std::move(kept);
}

Status RTree::InsertRecurse(PageId page_id, uint16_t node_level,
                            const Entry& entry, uint16_t target_level,
                            InsertContext* ctx, InsertResult* result) {
  Node node;
  AMDJ_RETURN_IF_ERROR(ReadNode(page_id, &node));
  AMDJ_CHECK(node.level == node_level)
      << "expected level " << node_level << ", found " << node.level;

  if (node_level == target_level) {
    node.entries.push_back(entry);
  } else {
    const size_t idx = ChooseSubtree(node, entry.rect);
    const PageId child = node.entries[idx].id;
    InsertResult child_result;
    AMDJ_RETURN_IF_ERROR(InsertRecurse(child, node_level - 1, entry,
                                       target_level, ctx, &child_result));
    node.entries[idx].rect = child_result.mbr;
    if (child_result.split) {
      node.entries.push_back(child_result.new_sibling);
    }
  }

  result->split = false;
  if (node.entries.size() > options_.max_entries) {
    const bool is_root = (page_id == root_);
    const bool can_reinsert =
        options_.forced_reinsert && !is_root &&
        node_level < ctx->reinserted_levels.size() &&
        !ctx->reinserted_levels[node_level];
    if (can_reinsert) {
      ctx->reinserted_levels[node_level] = true;
      std::vector<Entry> victims;
      PickReinsertVictims(&node, &victims);
      for (const Entry& v : victims) ctx->pending.emplace_back(node_level, v);
    } else {
      Node sibling;
      SplitNode(&node, &sibling);
      auto sibling_id = AllocNode(sibling);
      if (!sibling_id.ok()) return sibling_id.status();
      ++node_count_;
      result->split = true;
      result->new_sibling = Entry(sibling.ComputeMbr(), *sibling_id);
    }
  }

  AMDJ_RETURN_IF_ERROR(WriteNode(page_id, node));
  result->mbr = node.ComputeMbr();
  return Status::OK();
}

Status RTree::GrowRoot(const Entry& left, const Entry& right,
                       uint16_t new_level) {
  Node new_root;
  new_root.level = new_level;
  new_root.entries = {left, right};
  auto id = AllocNode(new_root);
  if (!id.ok()) return id.status();
  ++node_count_;
  root_ = *id;
  height_ = static_cast<uint16_t>(new_level + 1);
  return Status::OK();
}

Status RTree::InsertEntryAtLevel(const Entry& entry,
                                 uint16_t target_level) {
  InsertContext ctx;
  ctx.reinserted_levels.assign(height_, false);
  ctx.pending.emplace_back(target_level, entry);
  while (!ctx.pending.empty()) {
    auto [level, pending_entry] = ctx.pending.front();
    ctx.pending.erase(ctx.pending.begin());
    InsertResult result;
    AMDJ_RETURN_IF_ERROR(InsertRecurse(root_, height_ - 1, pending_entry,
                                       level, &ctx, &result));
    if (result.split) {
      Node old_root;
      AMDJ_RETURN_IF_ERROR(ReadNode(root_, &old_root));
      const Entry left(result.mbr, root_);
      AMDJ_RETURN_IF_ERROR(
          GrowRoot(left, result.new_sibling, old_root.level + 1));
      ctx.reinserted_levels.resize(height_, true);  // root never reinserts
    }
  }
  return Status::OK();
}

Status RTree::Insert(const Rect& rect, uint32_t id) {
  if (!rect.IsValid()) {
    return Status::InvalidArgument("cannot insert an invalid rectangle");
  }
  const SweepOrderReset reset(this);
  AMDJ_RETURN_IF_ERROR(InsertEntryAtLevel(Entry(rect, id), 0));
  ++size_;
  bounds_.Extend(rect);
  return Status::OK();
}

void RTree::FreeNodePage(PageId page_id) {
  // The cached frame must be dropped before the id can be reused, or a
  // later allocation of the same id would alias the stale frame.
  const Status s = pool_->Discard(page_id);
  AMDJ_CHECK(s.ok()) << s.ToString();
  pool_->disk()->FreePage(page_id);
}

Status RTree::CollectObjectsAndFree(PageId page_id,
                                    std::vector<Entry>* out) {
  Node node;
  AMDJ_RETURN_IF_ERROR(ReadNode(page_id, &node));
  if (node.IsLeaf()) {
    out->insert(out->end(), node.entries.begin(), node.entries.end());
  } else {
    for (const Entry& e : node.entries) {
      AMDJ_RETURN_IF_ERROR(CollectObjectsAndFree(e.id, out));
    }
  }
  FreeNodePage(page_id);
  --node_count_;
  return Status::OK();
}

Status RTree::DeleteRecurse(PageId page_id, uint16_t node_level,
                            const Rect& rect, uint32_t id, bool* found,
                            bool* underflow, Rect* mbr,
                            std::vector<Entry>* orphan_objects) {
  Node node;
  AMDJ_RETURN_IF_ERROR(ReadNode(page_id, &node));
  *underflow = false;
  bool modified = false;
  if (node.IsLeaf()) {
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (node.entries[i].id == id && node.entries[i].rect == rect) {
        node.entries.erase(node.entries.begin() + i);
        *found = true;
        modified = true;
        break;
      }
    }
  } else {
    for (size_t i = 0; i < node.entries.size() && !*found; ++i) {
      if (!node.entries[i].rect.Contains(rect)) continue;
      bool child_underflow = false;
      Rect child_mbr;
      AMDJ_RETURN_IF_ERROR(DeleteRecurse(node.entries[i].id, node_level - 1,
                                         rect, id, found, &child_underflow,
                                         &child_mbr, orphan_objects));
      if (!*found) continue;
      modified = true;
      if (child_underflow) {
        AMDJ_RETURN_IF_ERROR(
            CollectObjectsAndFree(node.entries[i].id, orphan_objects));
        node.entries.erase(node.entries.begin() + i);
      } else {
        node.entries[i].rect = child_mbr;
      }
    }
  }
  if (modified) {
    AMDJ_RETURN_IF_ERROR(WriteNode(page_id, node));
  }
  *mbr = node.ComputeMbr();
  *underflow = page_id != root_ &&
               node.entries.size() < options_.min_entries;
  return Status::OK();
}

Status RTree::Delete(const Rect& rect, uint32_t id, bool* found) {
  const SweepOrderReset reset(this);
  *found = false;
  bool underflow = false;
  Rect mbr;
  std::vector<Entry> orphans;
  AMDJ_RETURN_IF_ERROR(DeleteRecurse(root_, height_ - 1, rect, id, found,
                                     &underflow, &mbr, &orphans));
  if (!*found) return Status::OK();
  --size_;

  // Shrink the root while it is an internal node with a single child (or
  // reset it to an empty leaf if everything is gone).
  Node root;
  AMDJ_RETURN_IF_ERROR(ReadNode(root_, &root));
  while (root.level > 0 && root.entries.size() == 1) {
    const PageId child = root.entries[0].id;
    FreeNodePage(root_);
    --node_count_;
    root_ = child;
    --height_;
    AMDJ_RETURN_IF_ERROR(ReadNode(root_, &root));
  }
  if (root.level > 0 && root.entries.empty()) {
    root.level = 0;
    height_ = 1;
    AMDJ_RETURN_IF_ERROR(WriteNode(root_, root));
  }

  // Reinsert objects orphaned by dissolved nodes (they are still counted
  // in size_).
  for (const Entry& orphan : orphans) {
    AMDJ_RETURN_IF_ERROR(InsertEntryAtLevel(orphan, 0));
  }

  // Bounds may have shrunk; recompute from the root.
  AMDJ_RETURN_IF_ERROR(ReadNode(root_, &root));
  bounds_ = root.ComputeMbr();
  return Status::OK();
}

Status RTree::BulkLoad(std::vector<Entry> objects, double fill) {
  const SweepOrderReset reset(this);
  StrBulkLoader loader(this);
  return loader.Load(std::move(objects), fill);
}

Status RTree::BulkLoadHilbert(std::vector<Entry> objects, double fill) {
  const SweepOrderReset reset(this);
  HilbertBulkLoader loader(this);
  return loader.Load(std::move(objects), fill);
}

StatusOr<std::vector<Entry>> RTree::RangeQuery(const Rect& query) const {
  std::vector<Entry> results;
  std::vector<PageId> stack = {root_};
  Node node;
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    AMDJ_RETURN_IF_ERROR(ReadNode(id, &node));
    for (const Entry& e : node.entries) {
      if (!e.rect.Intersects(query)) continue;
      if (node.IsLeaf()) {
        results.push_back(e);
      } else {
        stack.push_back(e.id);
      }
    }
  }
  return results;
}

Status RTree::ForEachObject(
    const std::function<void(const Entry&)>& fn) const {
  std::vector<PageId> stack = {root_};
  Node node;
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    AMDJ_RETURN_IF_ERROR(ReadNode(id, &node));
    for (const Entry& e : node.entries) {
      if (node.IsLeaf()) {
        fn(e);
      } else {
        stack.push_back(e.id);
      }
    }
  }
  return Status::OK();
}

Status RTree::ValidateRecurse(PageId page_id, uint16_t expected_level,
                              const Rect& parent_rect, bool is_root,
                              uint64_t* objects, uint64_t* nodes) const {
  Node node;
  AMDJ_RETURN_IF_ERROR(ReadNode(page_id, &node));
  ++*nodes;
  if (node.level != expected_level) {
    return Status::Corruption("node level mismatch");
  }
  if (node.entries.size() > options_.max_entries) {
    return Status::Corruption("node overflow");
  }
  if (!is_root && node.entries.empty()) {
    return Status::Corruption("empty non-root node");
  }
  if (is_root && expected_level > 0 && node.entries.size() < 2) {
    return Status::Corruption("internal root with fewer than 2 entries");
  }
  const Rect mbr = node.ComputeMbr();
  if (!is_root && mbr != parent_rect) {
    return Status::Corruption("parent entry MBR does not match child MBR");
  }
  if (node.IsLeaf()) {
    *objects += node.entries.size();
    return Status::OK();
  }
  for (const Entry& e : node.entries) {
    AMDJ_RETURN_IF_ERROR(ValidateRecurse(e.id, expected_level - 1, e.rect,
                                         false, objects, nodes));
  }
  return Status::OK();
}

Status RTree::Validate() const {
  uint64_t objects = 0;
  uint64_t nodes = 0;
  AMDJ_RETURN_IF_ERROR(ValidateRecurse(root_, height_ - 1, geom::Rect(), true,
                                       &objects, &nodes));
  if (objects != size_) {
    return Status::Corruption("object count mismatch: counted " +
                              std::to_string(objects) + ", recorded " +
                              std::to_string(size_));
  }
  if (nodes != node_count_) {
    return Status::Corruption("node count mismatch: counted " +
                              std::to_string(nodes) + ", recorded " +
                              std::to_string(node_count_));
  }
  return Status::OK();
}

}  // namespace amdj::rtree
