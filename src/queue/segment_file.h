#ifndef AMDJ_QUEUE_SEGMENT_FILE_H_
#define AMDJ_QUEUE_SEGMENT_FILE_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace amdj::queue {

/// An unsorted on-disk pile of fixed-size records, the backing store of one
/// hybrid-queue partition (the paper stores every partition beyond the
/// in-memory heap "on disk as merely unsorted piles", Section 4.4).
///
/// Records are staged in one buffer that grows to a page (one at a time
/// via Append, or in batches via AppendMany); a full page is written from
/// that buffer as is, so a spill copies each record once on its way to the
/// disk and allocates nothing per page. ReadAllInto streams every record
/// back with a single copy. Page reads/writes are counted into the
/// optional JoinStats sink (queue_page_reads / queue_page_writes). All I/O
/// is synchronous on the calling thread.
class SegmentFile {
 public:
  /// `record_size` must be in [1, kPageSize]. Ownership is not taken of
  /// `disk` or `stats`.
  SegmentFile(storage::DiskManager* disk, size_t record_size,
              JoinStats* stats);
  ~SegmentFile();

  SegmentFile(SegmentFile&& other) noexcept;
  SegmentFile& operator=(SegmentFile&& other) noexcept;
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  /// Appends one record of record_size bytes.
  Status Append(const void* record);

  /// Appends `n` records packed back-to-back at `records`, staging them
  /// a page at a time (the bulk path used by hybrid-queue spills —
  /// one copy and one page write per RecordsPerPage() records).
  Status AppendMany(const void* records, size_t n);

  /// Copies all records (on disk, then staged) into `out`, packed
  /// back-to-back; `out` must have room for count() * record_size bytes.
  /// One copy per record (page buffer -> out).
  Status ReadAllInto(char* out);

  /// Convenience wrapper over ReadAllInto: resizes `out` to
  /// count() * record_size bytes.
  Status ReadAll(std::vector<char>* out);

  /// Releases all pages back to the disk manager and empties the pile.
  void Drop();

  uint64_t count() const { return count_; }
  size_t record_size() const { return record_size_; }
  size_t RecordsPerPage() const { return storage::kPageSize / record_size_; }

 private:
  /// Copies `n` records into the staging page, growing it as needed. The
  /// caller guarantees they fit in one page.
  void Stage(const char* records, size_t n);

  /// Writes the full staging page out to a freshly allocated page id. A
  /// failure frees the page id (not leaked) and keeps the staged records
  /// so the flush can be retried.
  Status FlushBuffer();

  storage::DiskManager* disk_;
  size_t record_size_;
  JoinStats* stats_;
  uint64_t count_ = 0;
  std::vector<storage::PageId> pages_;
  /// The staging page, the first `staged_` bytes of it holding records.
  /// It grows on append, to kPageSize bytes by the time it is full; bytes
  /// past RecordsPerPage() records are never written, so they stay zero
  /// on every page.
  std::vector<char> page_;
  size_t staged_ = 0;
};

}  // namespace amdj::queue

#endif  // AMDJ_QUEUE_SEGMENT_FILE_H_
