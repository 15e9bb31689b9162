#include "queue/segment_file.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace amdj::queue {

SegmentFile::SegmentFile(storage::DiskManager* disk, size_t record_size,
                         JoinStats* stats)
    : disk_(disk), record_size_(record_size), stats_(stats) {
  AMDJ_CHECK(record_size_ >= 1 && record_size_ <= storage::kPageSize);
}

SegmentFile::~SegmentFile() {
  if (disk_ != nullptr) {
    for (storage::PageId id : pages_) disk_->FreePage(id);
  }
}

SegmentFile::SegmentFile(SegmentFile&& other) noexcept
    : disk_(std::exchange(other.disk_, nullptr)),
      record_size_(other.record_size_),
      stats_(other.stats_),
      count_(std::exchange(other.count_, 0)),
      pages_(std::move(other.pages_)),
      page_(std::move(other.page_)),
      staged_(std::exchange(other.staged_, 0)) {
  other.pages_.clear();
}

SegmentFile& SegmentFile::operator=(SegmentFile&& other) noexcept {
  if (this != &other) {
    if (disk_ != nullptr) {
      for (storage::PageId id : pages_) disk_->FreePage(id);
    }
    disk_ = std::exchange(other.disk_, nullptr);
    record_size_ = other.record_size_;
    stats_ = other.stats_;
    count_ = std::exchange(other.count_, 0);
    staged_ = std::exchange(other.staged_, 0);
    pages_ = std::move(other.pages_);
    page_ = std::move(other.page_);
    other.pages_.clear();
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

Status SegmentFile::ReadAllInto(char* out) {
  // Pages are only ever written full; the staging page holds the tail.
  const size_t per_page = RecordsPerPage();
  char page[storage::kPageSize];
  for (storage::PageId id : pages_) {
    AMDJ_RETURN_IF_ERROR(disk_->ReadPage(id, page));
    if (stats_ != nullptr) ++stats_->queue_page_reads;
    std::memcpy(out, page, per_page * record_size_);
    out += per_page * record_size_;
  }
  // Skip the copy when nothing is staged: the staging buffer may not exist
  // yet, and memcpy must not see its null data() even for zero bytes.
  if (staged_ > 0) std::memcpy(out, page_.data(), staged_);
  return Status::OK();
}

Status SegmentFile::ReadAll(std::vector<char>* out) {
  out->resize(count_ * record_size_);
  return ReadAllInto(out->data());
}

void SegmentFile::Drop() {
  for (storage::PageId id : pages_) disk_->FreePage(id);
  pages_.clear();
  staged_ = 0;
  count_ = 0;
}

}  // namespace amdj::queue
