#ifndef AMDJ_QUEUE_SEGMENT_FILE_H_
#define AMDJ_QUEUE_SEGMENT_FILE_H_

#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace amdj::queue {

/// An unsorted on-disk pile of fixed-size records, the backing store of one
/// hybrid-queue partition (the paper stores every partition beyond the
/// in-memory heap "on disk as merely unsorted piles", Section 4.4).
///
/// Records are staged in one buffer that grows to a page (one at a time
/// via Append, or in batches via AppendMany); a full page is written from
/// that buffer as is, so a synchronous spill copies each record once on
/// its way to the disk and allocates nothing per page. ReadAllInto streams
/// every record back with a single copy. Page reads/writes are counted
/// into the optional JoinStats sink (queue_page_reads / queue_page_writes).
///
/// Asynchronous spill I/O: with an `io_pool`, full pages are written on the
/// pool instead of inline, double-buffered — at most
/// `kMaxInflightWrites` page writes are in flight, and submitting a third
/// blocks until the oldest completes. Each submitted write owns a copy of
/// its page. The structural state (pages_, count_, page_, staged_) stays
/// coordinator-confined like the owning queue; workers
/// touch only their captured page buffer, the thread-safe DiskManager, and
/// the annotated async-completion state below. Completion handshake:
/// every submitted page gets a sequence number; WaitWritesThrough(seq)
/// blocks until all submissions <= seq have completed, which is what the
/// queue's prefetch tasks use to order reads after the writes that produced
/// the pages (submissions ahead of the prefetch in the pool's FIFO, so the
/// wait cannot deadlock even on a single-worker pool). Write errors are
/// sticky: the first failure is remembered and returned by every subsequent
/// harvest (WaitAllWrites / ReadAll* / the next inline flush).
class SegmentFile {
 public:
  /// At most this many async page writes in flight per segment (the
  /// "double buffer": one page filling, two draining keeps the disk busy
  /// without unbounded buffering).
  static constexpr size_t kMaxInflightWrites = 2;

  /// `record_size` must be in [1, kPageSize]. Ownership is not taken of
  /// `disk`, `stats`, `io_pool` or `tracer`; `io_pool == nullptr` (the
  /// default) keeps every write synchronous.
  SegmentFile(storage::DiskManager* disk, size_t record_size,
              JoinStats* stats, ThreadPool* io_pool = nullptr,
              Tracer* tracer = nullptr);
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

  /// Copies all records (buffered + on disk) into `out`, packed
  /// back-to-back; `out` must have room for count() * record_size bytes.
  /// One copy per record (page buffer -> out); harvests pending async
  /// writes first.
  Status ReadAllInto(char* out);

  /// Like ReadAllInto but skips the first `skip_pages` pages (each holding
  /// exactly RecordsPerPage() records — pages are only ever written full).
  /// The hybrid queue uses this to read just the post-prefetch-snapshot
  /// tail of a segment.
  Status ReadTailInto(size_t skip_pages, char* out);

  /// Convenience wrapper over ReadAllInto: resizes `out` to
  /// count() * record_size bytes.
  Status ReadAll(std::vector<char>* out);

  /// Releases all pages back to the disk manager and empties the pile
  /// (after harvesting pending async writes).
  void Drop();

  /// Blocks until every submitted async write has completed, folds the
  /// deferred page-write stats into the JoinStats sink, and returns the
  /// sticky first write error (OK when none, or when writes are
  /// synchronous). Coordinator-thread only.
  Status WaitAllWrites();

  /// Blocks until all async writes with submission sequence <= `seq` have
  /// completed and returns the sticky error. Safe from any thread; used by
  /// prefetch workers (see the class comment's handshake).
  Status WaitWritesThrough(uint64_t seq) AMDJ_EXCLUDES(io_mu_);

  /// Sequence number of the most recent submitted async write (0 when none
  /// yet). Coordinator-thread only (it is the only submitter).
  uint64_t write_seq() const { return submitted_seq_; }

  /// The page ids holding flushed records, in append order. Records fill
  /// RecordsPerPage() per page; the staging page holds the tail.
  /// Coordinator-thread only; pages already submitted for writing are
  /// readable once WaitWritesThrough(write_seq()) returned (the prefetch
  /// contract).
  const std::vector<storage::PageId>& pages() const { return pages_; }

  /// Records currently in the staging page (not yet on any page on disk).
  size_t buffered_records() const { return staged_ / record_size_; }

  uint64_t count() const { return count_; }
  size_t record_size() const { return record_size_; }
  size_t RecordsPerPage() const { return storage::kPageSize / record_size_; }

  /// Reads `page_ids` (each holding up to `records_per_page` records of
  /// `record_size` bytes) from `disk`, packing up to `max_records` records
  /// back-to-back into `out`. Pure function of its arguments — no
  /// SegmentFile state — so prefetch workers can run it on a page-list
  /// snapshot while the coordinator keeps appending. `*pages_read` is
  /// incremented per page fetched (the worker-local stand-in for the
  /// coordinator-confined JoinStats sink).
  static Status ReadPagesInto(storage::DiskManager* disk,
                              const std::vector<storage::PageId>& page_ids,
                              size_t record_size, size_t records_per_page,
                              uint64_t max_records, char* out,
                              uint64_t* pages_read);

 private:
  /// Copies `n` records into the staging page, growing it as needed. The
  /// caller guarantees they fit in one page.
  void Stage(const char* records, size_t n);

  /// Writes the full staging page out to a freshly allocated page id —
  /// inline when no io pool, otherwise as an async task that owns a copy.
  /// An inline failure frees the page id (not leaked) and keeps the
  /// staged records so the flush can be retried; async errors are sticky
  /// (harvested later).
  Status FlushBuffer();

  /// Returns (without clearing) the sticky async error.
  Status AsyncErrorSnapshot() AMDJ_EXCLUDES(io_mu_);

  storage::DiskManager* disk_;
  size_t record_size_;
  JoinStats* stats_;
  ThreadPool* io_pool_;
  Tracer* tracer_;
  uint64_t count_ = 0;
  std::vector<storage::PageId> pages_;
  /// The staging page, the first `staged_` bytes of it holding records.
  /// It grows on append, to kPageSize bytes by the time it is full; bytes
  /// past RecordsPerPage() records are never written, so they stay zero
  /// on every page.
  std::vector<char> page_;
  size_t staged_ = 0;
  /// Submission counter (coordinator-only writer; read under io_mu_ by
  /// waiters via completed_seq_ comparisons only).
  uint64_t submitted_seq_ = 0;

  /// Async-write completion state. Guards the handshake between the
  /// coordinator (submit/backpressure/harvest) and io-pool workers
  /// (completion). Mutable state only — the queue's structural invariants
  /// never depend on it mid-flight.
  mutable Mutex io_mu_;
  CondVar io_cv_;
  /// Sequence numbers of submitted-but-incomplete writes (size <=
  /// kMaxInflightWrites). A vector, not a counter: two inflight writes can
  /// complete out of order across pool workers, and WaitWritesThrough(seq)
  /// must not return while any submission <= seq is still pending.
  std::vector<uint64_t> pending_seqs_ AMDJ_GUARDED_BY(io_mu_);
  /// First async write failure, sticky.
  Status async_error_ AMDJ_GUARDED_BY(io_mu_) = Status::OK();
  /// Async page writes not yet folded into stats_ (workers must not touch
  /// the coordinator-confined JoinStats sink).
  uint64_t unfolded_page_writes_ AMDJ_GUARDED_BY(io_mu_) = 0;
};

}  // namespace amdj::queue

#endif  // AMDJ_QUEUE_SEGMENT_FILE_H_
