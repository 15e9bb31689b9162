#ifndef AMDJ_RTREE_RTREE_H_
#define AMDJ_RTREE_RTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "geom/rect.h"
#include "rtree/entry.h"
#include "rtree/node.h"
#include "rtree/sweep_order.h"
#include "storage/buffer_pool.h"

namespace amdj::rtree {

/// Disk-based R*-tree (Beckmann et al., SIGMOD'90): ChooseSubtree with
/// overlap-minimizing leaf selection, margin-driven split axis selection,
/// and forced reinsertion. Nodes live on 4 KB pages behind a BufferPool.
///
/// Concurrent read-only use (joins, queries) is safe; the mutators (Insert,
/// Delete, BulkLoad*) need exclusive access.
class RTree {
 public:
  struct Options {
    /// Maximum entries per node; must be in [4, kMaxEntriesPerPage]. Tests
    /// shrink this to force deep trees on small inputs.
    uint32_t max_entries = kMaxEntriesPerPage;
    /// Minimum entries per node; 0 means 40% of max (the R* default).
    uint32_t min_entries = 0;
    /// Enables R* forced reinsertion on overflow (once per level per
    /// insertion).
    bool forced_reinsert = true;
    /// Fraction of entries evicted by a forced reinsert (R* uses 0.3).
    double reinsert_fraction = 0.3;
  };

  /// Everything needed to re-open a tree over an existing page file; see
  /// WriteMetaPage / OpenFromMetaPage for the stock on-disk round trip.
  struct Meta {
    storage::PageId root = storage::kInvalidPageId;
    uint16_t height = 1;
    uint64_t size = 0;
    uint64_t node_count = 1;
    geom::Rect bounds = geom::Rect::Empty();
    uint32_t max_entries = 0;
    uint32_t min_entries = 0;
  };

  /// Creates an empty tree whose nodes are allocated from `pool`'s disk.
  /// Does not take ownership of `pool`.
  static StatusOr<std::unique_ptr<RTree>> Create(storage::BufferPool* pool,
                                                 const Options& options);

  /// Re-opens a tree previously described by Meta() over the same (or a
  /// faithfully persisted) page file. Fields of `options` not covered by
  /// Meta (forced_reinsert, reinsert_fraction) apply to future inserts.
  static StatusOr<std::unique_ptr<RTree>> Open(storage::BufferPool* pool,
                                               const Meta& meta,
                                               const Options& options);

  /// Snapshot of the tree's identity for persistence.
  Meta ToMeta() const;

  /// Serializes Meta() into the given page (allocate one and remember its
  /// id, conventionally page 0 of a dedicated file).
  Status WriteMetaPage(storage::PageId page_id) const;

  /// Re-opens a tree from a meta page written by WriteMetaPage.
  static StatusOr<std::unique_ptr<RTree>> OpenFromMetaPage(
      storage::BufferPool* pool, storage::PageId page_id,
      const Options& options);
  static StatusOr<std::unique_ptr<RTree>> OpenFromMetaPage(
      storage::BufferPool* pool, storage::PageId page_id) {
    return OpenFromMetaPage(pool, page_id, Options());
  }

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  /// Inserts one object. `id` is an opaque caller-assigned object id.
  Status Insert(const geom::Rect& rect, uint32_t id);

  /// Removes one object whose MBR and id match exactly (the first match if
  /// duplicates exist). `*found` reports whether anything was removed.
  /// Underflowing nodes are dissolved and their objects reinserted
  /// (CondenseTree, flattening orphaned subtrees to objects — simpler than
  /// whole-subtree reinsertion and only costlier under mass deletion).
  Status Delete(const geom::Rect& rect, uint32_t id, bool* found);

  /// Replaces the tree contents by STR bulk loading (Sort-Tile-Recursive).
  /// `fill` in (0, 1] is the node fill factor.
  Status BulkLoad(std::vector<Entry> objects, double fill = 0.9);

  /// Replaces the tree contents by Hilbert-curve bulk loading (see
  /// HilbertBulkLoader for the trade-off against STR).
  Status BulkLoadHilbert(std::vector<Entry> objects, double fill = 0.9);

  /// All object entries whose MBR intersects `query`.
  StatusOr<std::vector<Entry>> RangeQuery(const geom::Rect& query) const;

  /// Invokes `fn` for every object entry in the tree (tree order).
  Status ForEachObject(
      const std::function<void(const Entry&)>& fn) const;

  /// Reads the node stored at `page_id` (counts as one node access on the
  /// buffer pool). Used by the join algorithms to expand node pairs.
  Status ReadNode(storage::PageId page_id, Node* out) const;

  /// Page id of the root node.
  storage::PageId root() const { return root_; }
  /// Number of levels; 1 for a tree whose root is a leaf.
  uint16_t height() const { return height_; }
  /// Number of objects.
  uint64_t size() const { return size_; }
  /// Number of nodes (internal + leaf).
  uint64_t node_count() const { return node_count_; }
  /// MBR of the whole tree (Rect::Empty() when empty).
  geom::Rect bounds() const { return bounds_; }

  storage::BufferPool* buffer_pool() const { return pool_; }
  const Options& options() const { return options_; }

  /// The node pages' cached plane-sweep orders (see SweepOrderTable).
  /// Joins fill it on first use; every mutator drops it.
  const SweepOrderTable& sweep_orders() const { return sweep_orders_; }

  /// Exhaustively checks structural invariants (entry counts, level
  /// monotonicity, parent-MBR containment, object count). For tests.
  Status Validate() const;

 private:
  RTree(storage::BufferPool* pool, const Options& options)
      : pool_(pool), options_(options) {}

  /// Drops the sweep-order table when a mutator returns (rtree.cc).
  class SweepOrderReset;

  Status WriteNode(storage::PageId page_id, const Node& node) const;
  StatusOr<storage::PageId> AllocNode(const Node& node) const;

  /// Inserts `entry` at `target_level`. On structural overflow may split
  /// nodes (propagating upward) or schedule forced reinserts.
  struct InsertContext {
    // Levels at which a forced reinsert has already happened for the
    // current top-level insertion (R* does at most one per level).
    std::vector<bool> reinserted_levels;
    // Entries evicted by forced reinserts, tagged with their level.
    std::vector<std::pair<uint16_t, Entry>> pending;
  };

  struct InsertResult {
    bool split = false;
    Entry new_sibling;  // valid iff split
    geom::Rect mbr;     // updated MBR of the visited node
  };

  Status InsertRecurse(storage::PageId page_id, uint16_t node_level,
                       const Entry& entry, uint16_t target_level,
                       InsertContext* ctx, InsertResult* result);

  /// The full insertion driver (pending reinserts, root growth) without
  /// the size/bounds bookkeeping; shared by Insert and Delete's orphan
  /// reinsertion.
  Status InsertEntryAtLevel(const Entry& entry, uint16_t target_level);

  Status DeleteRecurse(storage::PageId page_id, uint16_t node_level,
                       const geom::Rect& rect, uint32_t id, bool* found,
                       bool* underflow, geom::Rect* mbr,
                       std::vector<Entry>* orphan_objects);

  /// Gathers every object of the subtree and frees its node pages.
  Status CollectObjectsAndFree(storage::PageId page_id,
                               std::vector<Entry>* out);

  /// Discards the page from the buffer pool and returns it to the disk.
  void FreeNodePage(storage::PageId page_id);

  /// R* ChooseSubtree among `node`'s children for `rect`.
  size_t ChooseSubtree(const Node& node, const geom::Rect& rect) const;

  /// Splits `node` (which has max_entries + 1 entries) using the R* axis
  /// and index selection; the removed half is returned in `sibling`.
  void SplitNode(Node* node, Node* sibling) const;

  /// Removes the reinsert_fraction entries farthest from the node's center.
  void PickReinsertVictims(Node* node, std::vector<Entry>* victims) const;

  Status GrowRoot(const Entry& left, const Entry& right, uint16_t new_level);

  Status ValidateRecurse(storage::PageId page_id, uint16_t expected_level,
                         const geom::Rect& parent_rect, bool is_root,
                         uint64_t* objects, uint64_t* nodes) const;

  storage::BufferPool* pool_;
  Options options_;
  storage::PageId root_ = storage::kInvalidPageId;
  uint16_t height_ = 1;
  uint64_t size_ = 0;
  uint64_t node_count_ = 1;
  geom::Rect bounds_ = geom::Rect::Empty();
  SweepOrderTable sweep_orders_;

  friend class StrBulkLoader;
  friend class HilbertBulkLoader;
};

}  // namespace amdj::rtree

#endif  // AMDJ_RTREE_RTREE_H_
