#include "queue/segment_file.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"

namespace amdj::queue {

SegmentFile::SegmentFile(storage::DiskManager* disk, size_t record_size,
                         JoinStats* stats, ThreadPool* io_pool,
                         Tracer* tracer)
    : disk_(disk),
      record_size_(record_size),
      stats_(stats),
      io_pool_(io_pool),
      tracer_(tracer) {
  AMDJ_CHECK(record_size_ >= 1 && record_size_ <= storage::kPageSize);
}

SegmentFile::~SegmentFile() {
  if (disk_ != nullptr) {
    // Workers may still be writing to pages_ entries; freeing a page out
    // from under an inflight write would let the allocator hand it to
    // someone else mid-write.
    (void)WaitAllWrites();
    for (storage::PageId id : pages_) disk_->FreePage(id);
  }
}

SegmentFile::SegmentFile(SegmentFile&& other) noexcept
    : disk_(other.disk_),
      record_size_(other.record_size_),
      stats_(other.stats_),
      io_pool_(other.io_pool_),
      tracer_(other.tracer_),
      count_(other.count_),
      staged_(other.staged_),
      submitted_seq_(other.submitted_seq_) {
  // Inflight workers hold a pointer to `other`'s handshake state, which a
  // move cannot transplant (the mutex is pinned) — quiesce first, then the
  // byte-level state moves freely and only the sticky error needs carrying.
  const Status drained = other.WaitAllWrites();
  pages_ = std::move(other.pages_);
  page_ = std::move(other.page_);
  {
    const MutexLock lock(&io_mu_);
    async_error_ = drained;
  }
  other.disk_ = nullptr;
  other.pages_.clear();
  other.count_ = 0;
  other.staged_ = 0;
}

SegmentFile& SegmentFile::operator=(SegmentFile&& other) noexcept {
  if (this != &other) {
    const Status drained = other.WaitAllWrites();
    if (disk_ != nullptr) {
      (void)WaitAllWrites();
      for (storage::PageId id : pages_) disk_->FreePage(id);
    }
    disk_ = other.disk_;
    record_size_ = other.record_size_;
    stats_ = other.stats_;
    io_pool_ = other.io_pool_;
    tracer_ = other.tracer_;
    count_ = other.count_;
    staged_ = other.staged_;
    submitted_seq_ = other.submitted_seq_;
    pages_ = std::move(other.pages_);
    page_ = std::move(other.page_);
    {
      const MutexLock lock(&io_mu_);
      async_error_ = drained;
    }
    other.disk_ = nullptr;
    other.pages_.clear();
    other.count_ = 0;
    other.staged_ = 0;
  }
  return *this;
}

Status SegmentFile::Append(const void* record) {
  if (staged_ + record_size_ > storage::kPageSize) {
    // A previous FlushBuffer failed and left a full page behind; retry it
    // before accepting more data.
    AMDJ_RETURN_IF_ERROR(FlushBuffer());
  }
  Stage(static_cast<const char*>(record), 1);
  if (staged_ + record_size_ > storage::kPageSize) {
    // The page cannot take another record: write it out.
    AMDJ_RETURN_IF_ERROR(FlushBuffer());
  }
  return Status::OK();
}

Status SegmentFile::AppendMany(const void* records, size_t n) {
  const char* src = static_cast<const char*>(records);
  while (n > 0) {
    if (staged_ + record_size_ > storage::kPageSize) {
      // Retry a flush a previous failed call left behind (same protocol
      // as Append).
      AMDJ_RETURN_IF_ERROR(FlushBuffer());
    }
    const size_t take =
        std::min((storage::kPageSize - staged_) / record_size_, n);
    Stage(src, take);
    src += take * record_size_;
    n -= take;
    if (staged_ + record_size_ > storage::kPageSize) {
      AMDJ_RETURN_IF_ERROR(FlushBuffer());
    }
  }
  return Status::OK();
}

void SegmentFile::Stage(const char* records, size_t n) {
  const size_t staged = staged_ + n * record_size_;
  if (staged > page_.size()) {
    // Grow geometrically, so a segment holding a few records stays small
    // (a query may touch hundreds of predetermined ranges), and to the
    // whole page once past half of it: a full page is always more than
    // half a page, so it has kPageSize bytes to write, its tail zero.
    const size_t size = staged > storage::kPageSize / 2
                            ? storage::kPageSize
                            : std::max(staged, 2 * page_.size());
    page_.reserve(size);  // exactly: resize alone may round capacity up
    page_.resize(size);
  }
  std::memcpy(page_.data() + staged_, records, n * record_size_);
  staged_ = staged;
  count_ += n;
}

Status SegmentFile::FlushBuffer() {
  if (io_pool_ == nullptr) {
    const storage::PageId id = disk_->AllocatePage();
    const Status written = disk_->WritePage(id, page_.data());
    if (!written.ok()) {
      // The page is neither recorded in pages_ nor reachable any other
      // way: return it to the allocator or it leaks for the disk's
      // lifetime. The staged records stay (count_ already covers them),
      // so a healed disk can retry the flush.
      disk_->FreePage(id);
      return written;
    }
    if (stats_ != nullptr) ++stats_->queue_page_writes;
    pages_.push_back(id);
    staged_ = 0;
    return Status::OK();
  }

  // Async path. Fail fast on a sticky error — the segment is poisoned and
  // submitting more writes after a failure would only lose more data.
  AMDJ_RETURN_IF_ERROR(AsyncErrorSnapshot());

  const storage::PageId id = disk_->AllocatePage();
  uint64_t seq;
  {
    const MutexLock lock(&io_mu_);
    // Double-buffer backpressure: at most kMaxInflightWrites pages in
    // flight; block (briefly — a page write) for the oldest to retire.
    if (pending_seqs_.size() >= kMaxInflightWrites) {
      static Histogram* stall_histogram = MetricsRegistry::Global()->GetHistogram(
          "amdj_spill_write_stall_ns", "",
          "Producer stalls waiting for an in-flight spill write to retire");
      const uint64_t stall_start = MetricsEnabled() ? MetricsNowNanos() : 0;
      while (pending_seqs_.size() >= kMaxInflightWrites) io_cv_.Wait(&io_mu_);
      if (stall_start != 0) {
        stall_histogram->Observe(MetricsNowNanos() - stall_start);
      }
    }
    seq = ++submitted_seq_;
    pending_seqs_.push_back(seq);
  }
  pages_.push_back(id);
  // The task owns a copy of the page bytes; it touches only the
  // thread-safe disk manager, the thread-safe tracer, and the io_mu_
  // handshake — never the coordinator-confined structure
  // (pages_/count_/page_/stats_).
  storage::DiskManager* disk = disk_;
  Tracer* tracer = tracer_;
  io_pool_->Submit(
      [this, disk, tracer, id, seq, data = page_]() mutable {
        Status written;
        {
          const TraceSpan span(tracer, "spill_write_io",
                               {{"page", static_cast<double>(id)},
                                {"seq", static_cast<double>(seq)}});
          written = disk->WritePage(id, data.data());
        }
        const MutexLock lock(&io_mu_);
        pending_seqs_.erase(
            std::find(pending_seqs_.begin(), pending_seqs_.end(), seq));
        if (written.ok()) {
          ++unfolded_page_writes_;
        } else if (async_error_.ok()) {
          async_error_ = written;
        }
        io_cv_.NotifyAll();
      });
  staged_ = 0;
  return Status::OK();
}

Status SegmentFile::AsyncErrorSnapshot() {
  const MutexLock lock(&io_mu_);
  return async_error_;
}

Status SegmentFile::WaitAllWrites() {
  if (io_pool_ == nullptr) return Status::OK();
  const MutexLock lock(&io_mu_);
  if (!pending_seqs_.empty()) {
    static Histogram* drain_histogram = MetricsRegistry::Global()->GetHistogram(
        "amdj_spill_drain_wait_ns", "",
        "Reader waits for all in-flight spill writes to retire");
    const uint64_t drain_start = MetricsEnabled() ? MetricsNowNanos() : 0;
    while (!pending_seqs_.empty()) io_cv_.Wait(&io_mu_);
    if (drain_start != 0) {
      drain_histogram->Observe(MetricsNowNanos() - drain_start);
    }
  }
  if (stats_ != nullptr && unfolded_page_writes_ > 0) {
    stats_->queue_page_writes += unfolded_page_writes_;
    unfolded_page_writes_ = 0;
  }
  return async_error_;
}

Status SegmentFile::WaitWritesThrough(uint64_t seq) {
  const MutexLock lock(&io_mu_);
  // No lambda predicate: the thread-safety analysis cannot see an
  // enclosing-scope lock through a lambda boundary.
  for (;;) {
    bool pending_through = false;
    for (uint64_t pending : pending_seqs_) {
      if (pending <= seq) {
        pending_through = true;
        break;
      }
    }
    if (!pending_through) break;
    io_cv_.Wait(&io_mu_);
  }
  return async_error_;
}

Status SegmentFile::ReadPagesInto(storage::DiskManager* disk,
                                  const std::vector<storage::PageId>& page_ids,
                                  size_t record_size, size_t records_per_page,
                                  uint64_t max_records, char* out,
                                  uint64_t* pages_read) {
  char page[storage::kPageSize];
  uint64_t remaining = max_records;
  for (storage::PageId id : page_ids) {
    if (remaining == 0) break;
    AMDJ_RETURN_IF_ERROR(disk->ReadPage(id, page));
    ++*pages_read;
    const size_t records = static_cast<size_t>(
        std::min<uint64_t>(records_per_page, remaining));
    std::memcpy(out, page, records * record_size);
    out += records * record_size;
    remaining -= records;
  }
  return Status::OK();
}

Status SegmentFile::ReadAllInto(char* out) { return ReadTailInto(0, out); }

Status SegmentFile::ReadTailInto(size_t skip_pages, char* out) {
  AMDJ_RETURN_IF_ERROR(WaitAllWrites());
  AMDJ_CHECK(skip_pages <= pages_.size());
  const uint64_t on_disk = count_ - buffered_records();
  const uint64_t skipped =
      static_cast<uint64_t>(skip_pages) * RecordsPerPage();
  const std::vector<storage::PageId> tail(pages_.begin() + skip_pages,
                                          pages_.end());
  uint64_t pages_read = 0;
  const Status read = ReadPagesInto(disk_, tail, record_size_,
                                    RecordsPerPage(), on_disk - skipped,
                                    out, &pages_read);
  if (stats_ != nullptr) stats_->queue_page_reads += pages_read;
  AMDJ_RETURN_IF_ERROR(read);
  // Skip the copy when nothing is staged: the staging buffer may not exist
  // yet, and memcpy must not see its null data() even for zero bytes.
  if (staged_ > 0) {
    std::memcpy(out + (on_disk - skipped) * record_size_, page_.data(),
                staged_);
  }
  return Status::OK();
}

Status SegmentFile::ReadAll(std::vector<char>* out) {
  out->resize(count_ * record_size_);
  return ReadAllInto(out->data());
}

void SegmentFile::Drop() {
  (void)WaitAllWrites();
  for (storage::PageId id : pages_) disk_->FreePage(id);
  pages_.clear();
  staged_ = 0;
  count_ = 0;
  const MutexLock lock(&io_mu_);
  async_error_ = Status::OK();
}

}  // namespace amdj::queue
