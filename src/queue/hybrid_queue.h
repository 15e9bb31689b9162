#ifndef AMDJ_QUEUE_HYBRID_QUEUE_H_
#define AMDJ_QUEUE_HYBRID_QUEUE_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/run_report.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_checker.h"
#include "common/trace.h"
#include "geom/units.h"
#include "queue/binary_heap.h"
#include "queue/segment_file.h"
#include "storage/disk_manager.h"

namespace amdj::queue {

/// The paper's memory-parameterized *main queue* (Section 4.4): a priority
/// queue range-partitioned by priority key (a metric key — squared distance
/// under L2; partitioning by key partitions by distance since the key is
/// monotone in it). The partitions covering the smallest keys live in
/// memory; every other partition is an unsorted on-disk pile (SegmentFile).
/// When memory overflows, the farthest in-memory range *splits* off to a
/// new shortest-range segment; when memory empties, the shortest-range
/// segment is *swapped in* (re-spilling its excess if it exceeds the
/// memory capacity).
///
/// The in-memory tier is a monotone bucket queue in key space, not a single
/// comparison heap. Bucket boundaries come from `Options::boundary_fn`
/// (Eq. 3: the estimated key of the c-th closest pair), subdividing the
/// memory range into `memory_buckets` buckets the same way the segment
/// boundaries subdivide the disk range. A push is O(1): binary-search the
/// bucket (or segment) by key and append, unsorted. Only the *front*
/// bucket is ever comparator-ordered, lazily, on first pop — so the
/// tie-break comparator never sees entries the join will not reach soon,
/// and an overflow usually spills a rear bucket wholesale (no sort at
/// all). When the estimator is off and a single bucket overflows, the
/// bucket is refined adaptively: sorted once and cut at a key boundary
/// (the seed behavior), amortized O(log n) per push by the
/// `next_refine_at_` guard.
///
/// Tie-plateau fast path: consecutive pushes with an identical key — the
/// regime that dominates tie-heavy workloads — append to an *open run* in
/// O(1) with no comparator work. A run is sealed into a sorted block when
/// a different key arrives (or a pop needs the front); blocks drain by
/// bumping a cursor, so a plateau of k entries costs one O(k log k)
/// tie-break sort total instead of k heap re-orderings. A plateau too wide
/// to split (wider than the memory capacity) becomes an *exempt* block:
/// it stays resident, is excluded from refine gathering (a stuck plateau
/// must not be re-sorted on every overflow), and keys at or below it are
/// never spilled (a key plateau must never straddle the memory/disk
/// boundary).
///
/// If `boundary_fn` is provided, segment boundaries are predetermined at
/// construction as boundary_fn(i * n) for memory capacity n, which routes
/// distant insertions straight to the right pile and minimizes split/swap
/// operations. Without it the queue degrades to adaptive refinement
/// splits. The disk tier is one flat, bound-ordered table of slots, each a
/// key range's lower bound plus its SegmentFile; a slot's file is created
/// on the range's first append, so a predetermined range that never
/// receives an entry costs 16 bytes and no allocation, and routing
/// binary-searches the bounds without touching any file.
///
/// Correctness invariant: every entry in a disk segment has key >= its
/// slot's lower_bound, and memory only accepts entries below the front
/// slot's lower_bound — hence the global minimum is always in memory
/// (after swap-in when memory runs dry). Within memory, bucket boundaries
/// are key values, so every bucket-0 entry is strictly closer than every
/// other bucket's; a pop therefore compares only the heads of bucket-0's
/// sorted sources (drain, blocks, fresh heap) under the full comparator
/// and returns the exact comparator-minimum of the whole queue — the same
/// value, in the same order, as the reference heap.
///
/// T must be trivially copyable with a public `geom::KeyVal key` member
/// (the priority — a metric key, enforced at compile time so a
/// distance-space value cannot be routed by a key-space boundary). Compare
/// orders pops and must be consistent with ascending key (equal-key
/// entries are ordered by its tie-break).
///
/// Concurrency contract: thread-confined. The queue — in particular the
/// split/swap-in path, which rewrites the bucket and segment structure
/// together — is mutated exclusively by the coordinating (query) thread,
/// and every spill write and swap-in read runs synchronously on it.
/// Confinement is enforced: every mutating entry point checks the
/// confinement owner (common/thread_checker.h) and aborts on a
/// cross-thread call instead of corrupting the boundary structure.
template <typename T, typename Compare>
class HybridQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "queue entries are spilled to disk by memcpy");
  static_assert(std::is_same_v<decltype(T::key), geom::KeyVal>,
                "the priority member must be a metric key (geom::KeyVal): "
                "bucket/segment boundaries partition key space");

 public:
  struct Options {
    /// Bytes of memory for the in-memory tier. The paper's experiments use
    /// 64 KB - 1024 KB (Figure 13), default 512 KB.
    size_t memory_bytes = 512 * 1024;
    /// Backing store for disk segments. nullptr disables spilling: the
    /// queue stays entirely in memory regardless of memory_bytes.
    storage::DiskManager* disk = nullptr;
    /// Estimated key of the c-th closest pair (Eq. 3); see above.
    /// Key-space typed: an estimator's distance-space output must be
    /// fenced through geom::DistanceToKey before it can route entries.
    std::function<geom::KeyVal(uint64_t)> boundary_fn;
    /// Number of predetermined segments created when boundary_fn is set.
    /// Each covers ~one memory capacity of entries under an accurate
    /// Eq.-3 estimate; entries beyond the last boundary pile into the
    /// final segment, so this should comfortably exceed (expected
    /// insertions / memory capacity). A segment that never receives an
    /// entry costs one table slot and no file.
    size_t predetermined_segments = 1024;
    /// In-memory buckets the memory key range is subdivided into when
    /// boundary_fn is set (each covers ~capacity/memory_buckets entries).
    /// More buckets make overflow spills finer-grained; 1 disables the
    /// subdivision (a single catch-all bucket, refined adaptively).
    size_t memory_buckets = 16;
    /// Optional observability hooks (common/trace.h, common/run_report.h):
    /// split/swap-in events and per-push depth samples. Both nullable (the
    /// default), not owned.
    Tracer* tracer = nullptr;
    RunReport* report = nullptr;
  };

  HybridQueue(const Options& options, JoinStats* stats,
              Compare cmp = Compare())
      : options_(options), stats_(stats), cmp_(cmp), fresh_(cmp) {
    buckets_.push_back(Bucket{geom::KeyVal::NegativeInfinity(), {}});
    if (options_.disk == nullptr) {
      capacity_ = std::numeric_limits<size_t>::max();
      return;
    }
    capacity_ = std::max<size_t>(16, options_.memory_bytes / sizeof(T));
    if (options_.boundary_fn) {
      segments_.reserve(options_.predetermined_segments);
      geom::KeyVal prev = geom::KeyVal::Zero();
      for (size_t j = 1; j <= options_.predetermined_segments; ++j) {
        const geom::KeyVal b = options_.boundary_fn(j * capacity_);
        if (!(b > prev)) continue;  // boundaries must strictly increase
        segments_.push_back(Slot{b, nullptr});
        prev = b;
      }
      // Subdivide the memory range [0, first segment bound) the same way.
      const geom::KeyVal mem_bound = HeapUpperBound();
      prev = geom::KeyVal::Zero();
      const size_t per_bucket =
          std::max<size_t>(1, capacity_ / std::max<size_t>(
                                              1, options_.memory_buckets));
      for (size_t j = 1; j < options_.memory_buckets; ++j) {
        const geom::KeyVal b = options_.boundary_fn(j * per_bucket);
        if (!(b > prev) || !(b < mem_bound)) continue;
        buckets_.push_back(Bucket{b, {}});
        prev = b;
      }
    }
  }

  HybridQueue(const HybridQueue&) = delete;
  HybridQueue& operator=(const HybridQueue&) = delete;

  /// Inserts an entry. Counted into the stats/report only once the entry
  /// has actually landed (memory push, or segment append succeeded) — a
  /// failed spill Append must not inflate main_queue_insertions.
  Status Push(const T& item) {
    AMDJ_CHECK(owner_.CalledOnValidThread())
        << "HybridQueue::Push off the coordinator thread";
    // With no segment yet, HeapUpperBound() is +inf and a +inf key (an
    // overflowed d²) has nowhere else to go: it stays in memory.
    if (item.key < HeapUpperBound() || segments_.empty()) {
      PushMemory(item);
      CountInsertion();
      if (mem_count_ > capacity_) AMDJ_RETURN_IF_ERROR(Overflow());
      return Status::OK();
    }
    Slot& slot = RouteToSegment(item.key);
    if (slot.file == nullptr) slot.file = MakeSegment();
    SegmentFile* seg = slot.file.get();
    const uint64_t before = seg->count();
    const Status appended = seg->Append(&item);
    // A record staged before a failed page flush is inside seg->count()
    // (retained for retry) even though the push failed — mirror it in the
    // running total so TotalSize() keeps matching the per-segment counts.
    total_count_ += seg->count() - before;
    AMDJ_RETURN_IF_ERROR(appended);
    CountInsertion();
    return Status::OK();
  }

  /// True when no entries remain anywhere.
  bool Empty() const { return total_count_ == 0; }

  /// Entries in memory + on disk. O(1): maintained as a running total (the
  /// per-push path must not walk the ~predetermined_segments piles).
  uint64_t TotalSize() const { return total_count_; }

  /// Removes the minimum entry into `*out`; OutOfRange when empty.
  Status Pop(T* out) {
    AMDJ_CHECK(owner_.CalledOnValidThread())
        << "HybridQueue::Pop off the coordinator thread";
    AMDJ_RETURN_IF_ERROR(SettleFront());
    if (mem_count_ == 0) return Status::OutOfRange("queue is empty");
    TakeFrontHead(FrontHead(), out);
    return Status::OK();
  }

  /// Number of memory->disk split events performed (a rear-bucket spill or
  /// an adaptive front refinement that spilled; one event may write
  /// several segments).
  uint64_t split_count() const { return splits_; }
  /// Number of non-empty disk->memory swap-ins performed.
  uint64_t swapin_count() const { return swapins_; }
  /// Memory capacity in entries (n in the paper's boundary formula).
  size_t heap_capacity() const { return capacity_; }
  /// Current number of disk key ranges (including predetermined ones that
  /// never received an entry and so have no segment file).
  size_t segment_count() const { return segments_.size(); }
  /// Current number of entries in the in-memory tier.
  size_t heap_size() const { return mem_count_; }
  /// Current number of in-memory buckets.
  size_t bucket_count() const { return buckets_.size(); }
  /// Adaptive front-bucket refinements (gather+sort passes).
  uint64_t refine_count() const { return refines_; }

 private:
  /// A key range of the in-memory tier. Only the front bucket is ever
  /// ordered; the rest are unsorted appenders, spilled wholesale (no
  /// comparator work) on overflow.
  struct Bucket {
    geom::KeyVal lower_bound;
    std::vector<T> entries;  // unsorted
  };

  /// A sealed, comparator-sorted run of front-bucket entries, drained by
  /// cursor. Sealed tie-plateau runs and stuck (exempt) plateaus live
  /// here.
  struct Block {
    std::vector<T> entries;  // sorted by Compare
    size_t pos = 0;
    /// Exempt blocks are unsplittable plateaus: excluded from refine
    /// gathering, and the refine cut never spills keys at or below them.
    bool exempt = false;
    size_t live() const { return entries.size() - pos; }
  };

  /// Where the current front entry lives.
  enum class Src : uint8_t { kDrain, kBlock, kFresh };
  struct Head {
    Src src;
    size_t block_idx;
    const T* item;
  };

  /// One key range of the disk tier: its inclusive lower bound and its
  /// pile, created on the range's first append (null = empty range).
  struct Slot {
    geom::KeyVal lower_bound;
    std::unique_ptr<SegmentFile> file;
  };

  /// Runs of at least this size seal into their own block; smaller ones
  /// go through the fresh heap (a cursor block must be worth its scan slot
  /// in the pop loop).
  static constexpr size_t kRunSealMin = 33;
  /// At most this many non-exempt blocks; further seals fall back to the
  /// fresh heap so the per-pop head scan stays O(1)-ish.
  static constexpr size_t kMaxSealedBlocks = 8;
  /// Exempt blocks beyond this are merged into one (rare: each merge
  /// collapses them all, so reaching the cap again takes this many more
  /// stuck refinements).
  static constexpr size_t kMaxExemptBlocks = 32;

  std::unique_ptr<SegmentFile> MakeSegment() const {
    return std::make_unique<SegmentFile>(options_.disk, sizeof(T), stats_);
  }

  /// Records one successful insertion (call after the entry is in). The
  /// entry is already counted by TotalSize() here, matching the pre-insert
  /// `TotalSize() + 1` peak the sequential algorithms have always reported.
  void CountInsertion() {
    if (stats_ != nullptr) {
      ++stats_->main_queue_insertions;
      stats_->main_queue_peak_size =
          std::max<uint64_t>(stats_->main_queue_peak_size, total_count_);
      stats_->main_queue_peak_buckets = std::max<uint64_t>(
          stats_->main_queue_peak_buckets, buckets_.size());
    }
    if (options_.report != nullptr) {
      options_.report->OnQueueDepth(total_count_);
    }
  }

  /// The front slot's bound, whether or not its range holds entries.
  geom::KeyVal HeapUpperBound() const {
    return segments_.empty() ? geom::KeyVal::Infinity()
                             : segments_.front().lower_bound;
  }

  /// Last slot with lower_bound <= key. Only called when
  /// key >= HeapUpperBound(), so a match always exists.
  Slot& RouteToSegment(geom::KeyVal key) {
    size_t lo = 0;
    size_t hi = segments_.size();  // invariant: segments_[lo].lb <= key
    while (lo + 1 < hi) {
      const size_t mid = (lo + hi) / 2;
      if (segments_[mid].lower_bound <= key) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return segments_[lo];
  }

  /// Last bucket with lower_bound <= key (bucket 0 catches everything
  /// below bucket 1: its own bound is -inf).
  size_t RouteToBucket(geom::KeyVal key) const {
    size_t lo = 0;
    size_t hi = buckets_.size();
    while (lo + 1 < hi) {
      const size_t mid = (lo + hi) / 2;
      if (buckets_[mid].lower_bound <= key) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// O(1) memory insert: append to the routed bucket, or — in the active
  /// front bucket — extend/start a tie run.
  void PushMemory(const T& item) {
    const size_t idx = RouteToBucket(item.key);
    if (idx > 0 || !front_active_) {
      buckets_[idx].entries.push_back(item);
    } else if (!open_run_.empty() && item.key == open_run_key_) {
      open_run_.push_back(item);  // the tie-plateau fast path
    } else {
      SealOpenRun();
      open_run_.push_back(item);
      open_run_key_ = item.key;
    }
    ++mem_count_;
    ++total_count_;
  }

  /// Closes the open tie run: big runs become a cursor block (one
  /// tie-break sort for the whole plateau), small ones go through the
  /// fresh heap.
  void SealOpenRun() {
    if (open_run_.empty()) return;
    size_t sealed = 0;
    for (const Block& b : blocks_) sealed += b.exempt ? 0 : 1;
    if (open_run_.size() >= kRunSealMin && sealed < kMaxSealedBlocks) {
      std::sort(open_run_.begin(), open_run_.end(), cmp_);
      Block b;
      b.entries = std::move(open_run_);
      blocks_.push_back(std::move(b));
    } else {
      for (const T& e : open_run_) fresh_.Push(e);
    }
    open_run_.clear();
  }

  /// Sorts the front bucket's raw entries into the drain (the one lazy
  /// full-comparator sort per bucket).
  void ActivateFront() {
    if (front_active_) return;
    std::vector<T>& raw = buckets_.front().entries;
    std::sort(raw.begin(), raw.end(), cmp_);
    drain_ = std::move(raw);
    raw.clear();
    drain_pos_ = 0;
    front_active_ = true;
  }

  bool FrontExhausted() const {
    return drain_pos_ >= drain_.size() && blocks_.empty() &&
           fresh_.Empty() && open_run_.empty() &&
           buckets_.front().entries.empty();
  }

  /// Ensures the comparator-minimum of the whole queue is reachable via
  /// FrontHead(): swaps segments in while memory is empty, activates and
  /// compacts the front bucket. After this, mem_count_ == 0 means the
  /// queue is empty.
  Status SettleFront() {
    for (;;) {
      if (mem_count_ > 0) {
        ActivateFront();
        SealOpenRun();
        if (!FrontExhausted()) return Status::OK();
        // The front bucket is a drained shell but memory still holds
        // entries: they are in a rear bucket. Promote it.
        AMDJ_CHECK(buckets_.size() > 1);
        buckets_.pop_front();
        ResetFrontState();
        continue;
      }
      if (segments_.empty()) return Status::OK();  // genuinely empty
      AMDJ_RETURN_IF_ERROR(SwapIn());
    }
  }

  void ResetFrontState() {
    front_active_ = false;
    drain_.clear();
    drain_pos_ = 0;
    // blocks_/fresh_/open_run_ are empty whenever the front is replaced
    // (FrontExhausted or a refine gathered them).
  }

  /// The comparator-minimum among the front bucket's sources. Requires a
  /// settled, non-exhausted front. Ties across sources take the first
  /// scanned (drain, then blocks in seal order, then fresh) — a fixed,
  /// content-deterministic precedence.
  Head FrontHead() const {
    Head h{Src::kDrain, 0, nullptr};
    if (drain_pos_ < drain_.size()) {
      h.item = &drain_[drain_pos_];
    }
    for (size_t i = 0; i < blocks_.size(); ++i) {
      const T& cand = blocks_[i].entries[blocks_[i].pos];
      if (h.item == nullptr || cmp_(cand, *h.item)) {
        h = Head{Src::kBlock, i, &cand};
      }
    }
    if (!fresh_.Empty() &&
        (h.item == nullptr || cmp_(fresh_.Top(), *h.item))) {
      h = Head{Src::kFresh, 0, &fresh_.Top()};
    }
    AMDJ_CHECK(h.item != nullptr);
    return h;
  }

  /// Copies then removes the entry FrontHead() returned.
  void TakeFrontHead(const Head& head, T* out) {
    *out = *head.item;
    switch (head.src) {
      case Src::kDrain:
        ++drain_pos_;
        break;
      case Src::kBlock: {
        Block& b = blocks_[head.block_idx];
        ++b.pos;
        if (b.pos >= b.entries.size()) {
          // Ordered erase: block order is part of the deterministic tie
          // precedence in FrontHead().
          blocks_.erase(blocks_.begin() + head.block_idx);
        }
        break;
      }
      case Src::kFresh:
        fresh_.Pop();
        break;
    }
    --mem_count_;
    --total_count_;
  }

  /// Adjusts a sorted cut index so no kept entry ties with the spilled
  /// boundary: a key plateau must never straddle the memory/disk
  /// boundary. Tied entries that ended up in memory would pop before tied
  /// entries in the segment regardless of the comparator's tie-break,
  /// making pop order at a plateau depend on *when* splits happened (the
  /// push/pop interleaving) instead of on the comparator — observable as
  /// order divergence between otherwise identical runs. Returns
  /// items.size() when the whole range is one plateau (no key boundary
  /// can split it).
  static size_t TieSafeCut(const std::vector<T>& items, size_t cut) {
    while (cut > 0 && items[cut - 1].key == items[cut].key) --cut;
    if (cut == 0) {
      // The closest plateau is wider than the intended in-memory part:
      // keep the whole plateau and spill only what lies beyond it.
      const geom::KeyVal d0 = items[0].key;
      while (cut < items.size() && items[cut].key == d0) ++cut;
    }
    return cut;
  }

  /// Memory overflow. First spill whole rear buckets (no comparator
  /// work); if a single catch-all bucket is still over capacity, refine
  /// it adaptively.
  Status Overflow() {
    if (buckets_.size() > 1) {
      bool spilled_any = false;
      uint64_t spilled_entries = 0;
      while (buckets_.size() > 1 && mem_count_ > capacity_ / 2) {
        Bucket bucket = std::move(buckets_.back());
        buckets_.pop_back();
        if (bucket.entries.empty()) continue;  // never-used range: no pile
        auto seg = MakeSegment();
        const Status spilled = seg->AppendMany(
            bucket.entries.data(), bucket.entries.size());
        if (!spilled.ok()) {
          // Nothing landed durably: drop the half-written segment (its
          // staged bytes with it) and put the bucket back — the queue
          // stays consistent and the caller sees the error.
          buckets_.push_back(std::move(bucket));
          return spilled;
        }
        mem_count_ -= bucket.entries.size();
        spilled_entries += bucket.entries.size();
        segments_.insert(segments_.begin(),
                         Slot{bucket.lower_bound, std::move(seg)});
        spilled_any = true;
      }
      if (spilled_any) {
        ++splits_;
        if (stats_ != nullptr) ++stats_->queue_splits;
        AMDJ_TRACE(options_.tracer,
                   Instant("queue_split",
                           {{"kept", static_cast<double>(mem_count_)},
                            {"spilled",
                             static_cast<double>(spilled_entries)},
                            {"boundary_key",
                             segments_.front().lower_bound.raw()}}));
        AMDJ_TRACE(options_.tracer,
                   Counter("queue_buckets",
                           static_cast<double>(buckets_.size())));
      }
    }
    if (mem_count_ <= capacity_ || buckets_.size() > 1) return Status::OK();
    return RefineFront();
  }

  size_t ExemptLive() const {
    size_t n = 0;
    for (const Block& b : blocks_) {
      if (b.exempt) n += b.live();
    }
    return n;
  }

  geom::KeyVal ExemptMaxKey() const {
    geom::KeyVal mx = geom::KeyVal::NegativeInfinity();
    for (const Block& b : blocks_) {
      // Blocks are key-ascending (Compare is consistent with the key), so
      // the last entry carries the block's max key.
      if (b.exempt && b.live() > 0) {
        mx = std::max(mx, b.entries.back().key);
      }
    }
    return mx;
  }

  /// Adaptive refinement of a lone over-capacity bucket: gather every
  /// live non-exempt entry, sort once with the full comparator, and spill
  /// the suffix past a key boundary as a new shortest-range segment (the
  /// seed's split, minus the stuck plateaus). When nothing is spillable —
  /// one giant plateau — the plateau becomes an exempt block and the
  /// `next_refine_at_` guard stops per-push re-sorts (the seed's
  /// quadratic wall on tie-heavy workloads).
  Status RefineFront() {
    if (mem_count_ < next_refine_at_) return Status::OK();
    ++refines_;
    if (stats_ != nullptr) ++stats_->queue_bucket_refinements;

    std::vector<T> items;
    items.reserve(mem_count_ - ExemptLive());
    std::vector<T>& raw = buckets_.front().entries;
    items.insert(items.end(), raw.begin(), raw.end());
    raw.clear();
    items.insert(items.end(), drain_.begin() + drain_pos_, drain_.end());
    drain_.clear();
    drain_pos_ = 0;
    for (Block& b : blocks_) {
      if (b.exempt) continue;
      items.insert(items.end(), b.entries.begin() + b.pos, b.entries.end());
    }
    blocks_.erase(std::remove_if(blocks_.begin(), blocks_.end(),
                                 [](const Block& b) { return !b.exempt; }),
                  blocks_.end());
    items.insert(items.end(), open_run_.begin(), open_run_.end());
    open_run_.clear();
    {
      std::vector<T> heaped = fresh_.TakeAll();
      items.insert(items.end(), heaped.begin(), heaped.end());
    }
    std::sort(items.begin(), items.end(), cmp_);
    front_active_ = true;  // whatever stays becomes drain/blocks

    // The spill boundary must (a) leave ~capacity/2 in memory, (b) lie
    // strictly above every exempt plateau (spilling below a resident
    // plateau would break the memory invariant), and (c) fall on a key
    // change (tie safety). Advance past all three.
    const geom::KeyVal exempt_max = ExemptMaxKey();
    size_t cut = std::min(capacity_ / 2, items.size());
    while (cut < items.size() && !(items[cut].key > exempt_max)) ++cut;
    while (cut > 0 && cut < items.size() &&
           items[cut - 1].key == items[cut].key) {
      ++cut;
    }

    if (cut >= items.size()) {
      // Nothing spillable. A single wide plateau parks as an exempt
      // block; anything else just stays resident. Either way, back off:
      // re-gathering on every push is the quadratic this refactor kills.
      if (!items.empty() && items.front().key == items.back().key &&
          items.size() >= std::max<size_t>(16, capacity_ / 4)) {
        Block b;
        b.entries = std::move(items);
        b.exempt = true;
        blocks_.push_back(std::move(b));
        MaybeMergeExemptBlocks();
        AMDJ_TRACE(options_.tracer,
                   Instant("queue_plateau_parked",
                           {{"entries",
                             static_cast<double>(mem_count_)}}));
      } else {
        drain_ = std::move(items);
        drain_pos_ = 0;
      }
      next_refine_at_ =
          mem_count_ + std::max<uint64_t>(capacity_ / 2, 64);
      return Status::OK();
    }

    // The new slot's bound, read before `items` is cut and moved away.
    const geom::KeyVal bound = items[cut].key;
    auto seg = MakeSegment();
    const Status spilled =
        seg->AppendMany(items.data() + cut, items.size() - cut);
    if (!spilled.ok()) {
      // Keep everything resident (sorted — it becomes the drain) and
      // surface the error; the half-written segment dies here.
      drain_ = std::move(items);
      drain_pos_ = 0;
      return spilled;
    }
    ++splits_;
    if (stats_ != nullptr) ++stats_->queue_splits;
    AMDJ_TRACE(options_.tracer,
               Instant("queue_split",
                       {{"kept", static_cast<double>(cut)},
                        {"spilled",
                         static_cast<double>(items.size() - cut)},
                        {"boundary_key", bound.raw()}}));
    mem_count_ -= items.size() - cut;
    items.resize(cut);
    drain_ = std::move(items);
    drain_pos_ = 0;
    segments_.insert(segments_.begin(), Slot{bound, std::move(seg)});
    // The cut may have been pushed past capacity by an exempt plateau or
    // a wide boundary plateau; back off in that case too, or the next
    // push re-gathers immediately.
    next_refine_at_ =
        mem_count_ > capacity_
            ? mem_count_ + std::max<uint64_t>(capacity_ / 2, 64)
            : 0;
    return Status::OK();
  }

  void MaybeMergeExemptBlocks() {
    size_t exempt = 0;
    for (const Block& b : blocks_) exempt += b.exempt ? 1 : 0;
    if (exempt <= kMaxExemptBlocks) return;
    std::vector<T> merged;
    for (Block& b : blocks_) {
      if (!b.exempt) continue;
      merged.insert(merged.end(), b.entries.begin() + b.pos,
                    b.entries.end());
    }
    blocks_.erase(std::remove_if(blocks_.begin(), blocks_.end(),
                                 [](const Block& b) { return b.exempt; }),
                  blocks_.end());
    std::sort(merged.begin(), merged.end(), cmp_);
    Block b;
    b.entries = std::move(merged);
    b.exempt = true;
    blocks_.push_back(std::move(b));
  }

  /// Memory underflow: load the shortest-range segment; if it exceeds the
  /// memory capacity, re-spill its farther part in page-sized batches.
  Status SwapIn() {
    Slot slot = std::move(segments_.front());
    segments_.erase(segments_.begin());
    SegmentFile* seg = slot.file.get();
    if (seg == nullptr || seg->count() == 0) return Status::OK();  // empty
    std::vector<T> items(static_cast<size_t>(seg->count()));
    const Status loaded =
        seg->ReadAllInto(reinterpret_cast<char*>(items.data()));
    if (!loaded.ok()) {
      // Put the segment back: its records are intact (pages + staging
      // page), so a healed disk can retry the swap-in — and TotalSize()
      // keeps matching the per-segment counts.
      segments_.insert(segments_.begin(), std::move(slot));
      return loaded;
    }
    ++swapins_;
    if (stats_ != nullptr) ++stats_->queue_swapins;
    AMDJ_TRACE(options_.tracer,
               Instant("queue_swapin",
                       {{"loaded", static_cast<double>(seg->count())},
                        {"lower_bound_key", slot.lower_bound.raw()}}));
    seg->Drop();
    slot.file.reset();
    bool sorted = false;
    if (items.size() > capacity_) {
      std::sort(items.begin(), items.end(), cmp_);
      sorted = true;
      const size_t keep = TieSafeCut(items, capacity_);
      if (keep < items.size()) {
        // The re-spill slot's bound, read before `items` is cut.
        const geom::KeyVal bound = items[keep].key;
        auto respill = MakeSegment();
        const Status spilled = respill->AppendMany(
            items.data() + keep, items.size() - keep);
        if (!spilled.ok()) {
          // Keep the whole load resident rather than lose the tail; the
          // error still aborts the join upstream.
          InstallFront(std::move(items), sorted);
          return spilled;
        }
        items.resize(keep);
        segments_.insert(segments_.begin(), Slot{bound, std::move(respill)});
      }
    }
    InstallFront(std::move(items), sorted);
    return Status::OK();
  }

  /// Installs a swapped-in load as the (single) front bucket.
  void InstallFront(std::vector<T> items, bool sorted) {
    AMDJ_CHECK(mem_count_ == 0);
    buckets_.clear();
    buckets_.push_back(Bucket{geom::KeyVal::NegativeInfinity(), {}});
    ResetFrontState();
    mem_count_ = items.size();
    if (sorted) {
      drain_ = std::move(items);
      drain_pos_ = 0;
      front_active_ = true;
    } else {
      buckets_.front().entries = std::move(items);
    }
  }

  Options options_;
  JoinStats* stats_;
  size_t capacity_;
  Compare cmp_;

  /// The in-memory tier: key-ascending buckets; buckets_[0] catches
  /// everything below buckets_[1].lower_bound.
  std::deque<Bucket> buckets_;

  /// Front-bucket drain state (meaningful once front_active_). The drain
  /// is the bucket's lazily sorted backbone; blocks are sealed tie runs
  /// (plus exempt plateaus); fresh holds post-activation pushes too small
  /// or too scattered for a run; the open run is the O(1) plateau
  /// appender.
  bool front_active_ = false;
  std::vector<T> drain_;
  size_t drain_pos_ = 0;
  std::vector<Block> blocks_;
  BinaryHeap<T, Compare> fresh_;
  std::vector<T> open_run_;
  geom::KeyVal open_run_key_ = geom::KeyVal::Zero();

  std::vector<Slot> segments_;  // by lower_bound ascending

  uint64_t mem_count_ = 0;    ///< Entries in the memory tier.
  uint64_t total_count_ = 0;  ///< Memory + segments (incl. phantom staged).
  /// Refine back-off: no re-gather until mem_count_ reaches this (stuck
  /// plateaus would otherwise re-sort the front on every push).
  uint64_t next_refine_at_ = 0;

  uint64_t splits_ = 0;
  uint64_t swapins_ = 0;
  uint64_t refines_ = 0;

  /// Confinement owner: bound to the first mutating caller (see the class
  /// comment's concurrency contract).
  ThreadChecker owner_;
};

}  // namespace amdj::queue

#endif  // AMDJ_QUEUE_HYBRID_QUEUE_H_
