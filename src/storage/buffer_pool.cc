#include "storage/buffer_pool.h"

#include <cstring>

#include "common/logging.h"
#include "common/metrics.h"

namespace amdj::storage {

namespace {

/// Process-wide buffer-pool metrics (all pools feed one series each; the
/// per-query split already lives in JoinStats). Resolved once, lazily.
struct PoolMetrics {
  Counter* hits;
  Counter* misses;
  Counter* evictions;
};

PoolMetrics& GlobalPoolMetrics() {
  static PoolMetrics metrics = [] {
    MetricsRegistry* registry = MetricsRegistry::Global();
    return PoolMetrics{
        registry->GetCounter("amdj_buffer_pool_hits_total", "",
                             "Page fetches served from memory"),
        registry->GetCounter("amdj_buffer_pool_misses_total", "",
                             "Page fetches that went to disk"),
        registry->GetCounter("amdj_buffer_pool_evictions_total", "",
                             "Resident pages evicted to make room"),
    };
  }();
  return metrics;
}

}  // namespace

// ---------------------------------------------------------------------------
// PageGuard

PageGuard::PageGuard(BufferPool* pool, PageId page_id, char* data)
    : pool_(pool), page_id_(page_id), data_(data) {}

PageGuard::~PageGuard() { Release(); }

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_),
      page_id_(other.page_id_),
      data_(other.data_),
      dirty_(other.dirty_) {
  other.pool_ = nullptr;
  other.data_ = nullptr;
  other.page_id_ = kInvalidPageId;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    page_id_ = other.page_id_;
    data_ = other.data_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
    other.page_id_ = kInvalidPageId;
  }
  return *this;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->UnpinPage(page_id_, dirty_);
    pool_ = nullptr;
    data_ = nullptr;
    dirty_ = false;
  }
}

// ---------------------------------------------------------------------------
// BufferPool

BufferPool::BufferPool(DiskManager* disk, size_t capacity_pages)
    : disk_(disk), capacity_(capacity_pages == 0 ? 1 : capacity_pages) {
  frames_.resize(capacity_);
  free_frames_.reserve(capacity_);
  for (size_t i = capacity_; i > 0; --i) free_frames_.push_back(i - 1);
}

BufferPool::~BufferPool() {
  const Status s = FlushAll();
  if (!s.ok()) {
    AMDJ_LOG(kWarn) << "BufferPool flush on destruction failed: "
                    << s.ToString();
  }
}

void BufferPool::TouchLru(size_t frame_idx) {
  auto it = lru_pos_.find(frame_idx);
  if (it != lru_pos_.end()) lru_.erase(it->second);
  lru_.push_front(frame_idx);
  lru_pos_[frame_idx] = lru_.begin();
}

int BufferPool::FindVictim(Status* status) {
  *status = Status::OK();
  if (!free_frames_.empty()) {
    const size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return static_cast<int>(idx);
  }
  // Evict the least recently used unpinned frame.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const size_t idx = *it;
    Frame& f = frames_[idx];
    if (f.pin_count > 0) continue;
    if (f.dirty) {
      const Status s = disk_->WritePage(f.page_id, f.data.get());
      if (!s.ok()) {
        *status = s;
        return -1;
      }
      f.dirty = false;
    }
    table_.erase(f.page_id);
    lru_.erase(lru_pos_[idx]);
    lru_pos_.erase(idx);
    f.page_id = kInvalidPageId;
    GlobalPoolMetrics().evictions->Increment();
    return static_cast<int>(idx);
  }
  *status = Status::ResourceExhausted("all buffer frames are pinned");
  return -1;
}

StatusOr<PageGuard> BufferPool::FetchPage(PageId page_id) {
  // An active scope attributes this access to the calling thread's query;
  // otherwise the pool-wide sink applies. The per-query JoinStats is
  // incremented under the pool mutex, like the pool-wide one — threads of
  // *different* queries write different JoinStats blocks.
  QueryAttribution* query = QueryAttributionScope::Current();
  const MutexLock lock(&mutex_);
  JoinStats* stats = query != nullptr ? query->stats : stats_;
  Tracer* tracer = query != nullptr ? query->tracer : tracer_;
  if (stats != nullptr) ++stats->node_accesses;
  auto it = table_.find(page_id);
  const bool hit = it != table_.end();
  if (tracer != nullptr) {
    // The hit-ratio window travels with the attribution source, so
    // concurrent queries sample their own ratios instead of a blend.
    uint64_t& window_accesses =
        query != nullptr ? query->window_accesses : window_accesses_;
    uint64_t& window_hits =
        query != nullptr ? query->window_hits : window_hits_;
    ++window_accesses;
    if (hit) ++window_hits;
    if (window_accesses >= kTraceWindow) {
      tracer->Counter("buffer_hit_ratio",
                      static_cast<double>(window_hits) /
                          static_cast<double>(window_accesses));
      window_accesses = 0;
      window_hits = 0;
    }
  }
  if (hit) {
    ++hits_;
    GlobalPoolMetrics().hits->Increment();
    if (stats != nullptr) ++stats->node_buffer_hits;
    Frame& f = frames_[it->second];
    ++f.pin_count;
    TouchLru(it->second);
    return PageGuard(this, page_id, f.data.get());
  }
  ++misses_;
  GlobalPoolMetrics().misses->Increment();
  if (stats != nullptr) ++stats->node_disk_reads;
  Status status;
  const int victim = FindVictim(&status);
  if (victim < 0) return status;
  Frame& f = frames_[static_cast<size_t>(victim)];
  if (f.data == nullptr) f.data = std::make_unique<char[]>(kPageSize);
  const Status read = disk_->ReadPage(page_id, f.data.get());
  if (!read.ok()) {
    free_frames_.push_back(static_cast<size_t>(victim));
    return read;
  }
  f.page_id = page_id;
  f.pin_count = 1;
  f.dirty = false;
  table_[page_id] = static_cast<size_t>(victim);
  TouchLru(static_cast<size_t>(victim));
  return PageGuard(this, page_id, f.data.get());
}

StatusOr<PageGuard> BufferPool::NewPage(PageId* page_id) {
  const MutexLock lock(&mutex_);
  Status status;
  const int victim = FindVictim(&status);
  if (victim < 0) return status;
  const PageId id = disk_->AllocatePage();
  Frame& f = frames_[static_cast<size_t>(victim)];
  if (f.data == nullptr) f.data = std::make_unique<char[]>(kPageSize);
  std::memset(f.data.get(), 0, kPageSize);
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = true;
  table_[id] = static_cast<size_t>(victim);
  TouchLru(static_cast<size_t>(victim));
  *page_id = id;
  return PageGuard(this, id, f.data.get());
}

void BufferPool::UnpinPage(PageId page_id, bool dirty) {
  const MutexLock lock(&mutex_);
  auto it = table_.find(page_id);
  if (it == table_.end()) return;
  Frame& f = frames_[it->second];
  if (f.pin_count > 0) --f.pin_count;
  if (dirty) f.dirty = true;
}

Status BufferPool::Discard(PageId page_id) {
  const MutexLock lock(&mutex_);
  auto it = table_.find(page_id);
  if (it == table_.end()) return Status::OK();
  Frame& f = frames_[it->second];
  if (f.pin_count > 0) {
    return Status::FailedPrecondition("discard of pinned page " +
                                      std::to_string(page_id));
  }
  const size_t idx = it->second;
  table_.erase(it);
  auto pos = lru_pos_.find(idx);
  if (pos != lru_pos_.end()) {
    lru_.erase(pos->second);
    lru_pos_.erase(pos);
  }
  f.page_id = kInvalidPageId;
  f.dirty = false;
  free_frames_.push_back(idx);
  return Status::OK();
}

Status BufferPool::FlushAll() {
  const MutexLock lock(&mutex_);
  for (Frame& f : frames_) {
    if (f.page_id != kInvalidPageId && f.dirty) {
      AMDJ_RETURN_IF_ERROR(disk_->WritePage(f.page_id, f.data.get()));
      f.dirty = false;
    }
  }
  return Status::OK();
}

Status BufferPool::Clear() {
  const MutexLock lock(&mutex_);
  for (size_t idx = 0; idx < frames_.size(); ++idx) {
    Frame& f = frames_[idx];
    if (f.page_id == kInvalidPageId) continue;
    if (f.pin_count > 0) {
      return Status::FailedPrecondition("page " + std::to_string(f.page_id) +
                                        " still pinned");
    }
    if (f.dirty) {
      AMDJ_RETURN_IF_ERROR(disk_->WritePage(f.page_id, f.data.get()));
    }
    table_.erase(f.page_id);
    auto pos = lru_pos_.find(idx);
    if (pos != lru_pos_.end()) {
      lru_.erase(pos->second);
      lru_pos_.erase(pos);
    }
    f.page_id = kInvalidPageId;
    f.dirty = false;
    free_frames_.push_back(idx);
  }
  return Status::OK();
}

}  // namespace amdj::storage
