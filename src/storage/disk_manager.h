#ifndef AMDJ_STORAGE_DISK_MANAGER_H_
#define AMDJ_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"
#include "storage/page.h"

namespace amdj::storage {

/// I/O counters kept by every DiskManager. "Sequential" accesses are those
/// whose page id immediately follows the previously accessed page; the
/// simulated cost model (core::CostModel) charges them at the paper's
/// sequential bandwidth and everything else at random bandwidth.
struct DiskStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t sequential_reads = 0;
  uint64_t random_reads = 0;
  uint64_t sequential_writes = 0;
  uint64_t random_writes = 0;
  uint64_t pages_allocated = 0;

  void Reset() { *this = DiskStats(); }
};

/// Page-granular storage abstraction. The bundled implementations are
/// thread-safe (internally locked), so multiple concurrent queries may
/// share one page file; note that DiskStats are then aggregated across
/// all of them.
///
/// The lock lives here in the base: the stats counters (and the
/// last-accessed page ids that classify sequential vs. random) are updated
/// by the derived I/O paths under `mutex_`, so one capability covers both
/// the derived manager's page state and the shared accounting — annotated,
/// compiler-checked (common/annotations.h).
class DiskManager {
 public:
  virtual ~DiskManager() = default;

  /// Allocates a new page (possibly reusing a freed one) and returns its id.
  virtual PageId AllocatePage() = 0;

  /// Returns a page to the allocator's free list. Freeing a page that is
  /// already free is rejected (logged and ignored): admitting the
  /// duplicate would hand the same id to two later AllocatePage callers,
  /// silently aliasing their pages.
  virtual void FreePage(PageId page_id) = 0;

  /// Reads page `page_id` into `out` (kPageSize bytes).
  virtual Status ReadPage(PageId page_id, char* out) = 0;

  /// Writes kPageSize bytes from `data` to page `page_id`.
  virtual Status WritePage(PageId page_id, const char* data) = 0;

  /// Number of pages ever allocated (high-water mark, including freed).
  virtual uint32_t PageCount() const = 0;

  /// A consistent snapshot of the I/O counters. By value, under the lock:
  /// concurrent queries keep writing these counters, so handing out a
  /// reference would hand out a torn read.
  DiskStats stats() const AMDJ_EXCLUDES(mutex_) {
    const MutexLock lock(&mutex_);
    return stats_;
  }

 protected:
  /// Classifies and counts one read/write for the stats.
  void CountRead(PageId page_id) AMDJ_REQUIRES(mutex_);
  void CountWrite(PageId page_id) AMDJ_REQUIRES(mutex_);

  /// Guards stats_ / last_read_ / last_write_ here, plus the derived
  /// manager's page table and free list (one lock per manager).
  mutable Mutex mutex_;
  DiskStats stats_ AMDJ_GUARDED_BY(mutex_);

 private:
  PageId last_read_ AMDJ_GUARDED_BY(mutex_) = kInvalidPageId;
  PageId last_write_ AMDJ_GUARDED_BY(mutex_) = kInvalidPageId;
};

/// Heap-backed DiskManager. Used by tests and by benches that only care
/// about I/O *counts* (the simulated cost model turns counts into time).
class InMemoryDiskManager : public DiskManager {
 public:
  InMemoryDiskManager() = default;

  PageId AllocatePage() override;
  void FreePage(PageId page_id) override;
  Status ReadPage(PageId page_id, char* out) override;
  Status WritePage(PageId page_id, const char* data) override;
  uint32_t PageCount() const override;

 private:
  std::vector<std::unique_ptr<char[]>> pages_ AMDJ_GUARDED_BY(mutex_);
  std::vector<PageId> free_list_ AMDJ_GUARDED_BY(mutex_);
  /// Mirrors free_list_ for O(1) checks.
  std::unordered_set<PageId> free_set_ AMDJ_GUARDED_BY(mutex_);
};

/// File-backed DiskManager (one flat file of 4 KB pages).
class FileDiskManager : public DiskManager {
 public:
  /// Opens the backing file. By default the file is treated as scratch:
  /// truncated on open and removed on destruction. With
  /// `persistent = true` an existing file is reopened with its pages
  /// intact (page_count restored from the file size) and kept on close —
  /// the mode to use with RTree::WriteMetaPage / OpenFromMetaPage.
  /// Check Ok() before use.
  explicit FileDiskManager(const std::string& path, bool persistent = false);
  ~FileDiskManager() override;

  FileDiskManager(const FileDiskManager&) = delete;
  FileDiskManager& operator=(const FileDiskManager&) = delete;

  /// True if the backing file opened successfully.
  bool Ok() const { return file_ != nullptr; }

  PageId AllocatePage() override;
  void FreePage(PageId page_id) override;
  Status ReadPage(PageId page_id, char* out) override;
  Status WritePage(PageId page_id, const char* data) override;
  uint32_t PageCount() const override;

 private:
  /// fseek takes a `long`, which is 32-bit on some ABIs — page offsets
  /// overflow it past 2 GiB. Seeks go through a 64-bit-safe wrapper.
  Status SeekToPage(PageId page_id) AMDJ_REQUIRES(mutex_);

  std::string path_;
  bool persistent_ = false;
  /// The FILE handle is written only by the constructor/destructor; the
  /// seek+read/write pairs on it are serialized by mutex_.
  std::FILE* file_ AMDJ_PT_GUARDED_BY(mutex_) = nullptr;
  uint32_t page_count_ AMDJ_GUARDED_BY(mutex_) = 0;
  std::vector<PageId> free_list_ AMDJ_GUARDED_BY(mutex_);
  /// Mirrors free_list_ for O(1) checks.
  std::unordered_set<PageId> free_set_ AMDJ_GUARDED_BY(mutex_);
};

/// Wraps another DiskManager and injects failures, for testing error paths.
/// The countdowns are atomic, so the wrapper is as thread-safe as the
/// wrapped manager — the join service and the async spill I/O hammer it
/// from many threads in the TSan tests.
class FaultInjectionDiskManager : public DiskManager {
 public:
  /// Does not take ownership of `base`.
  explicit FaultInjectionDiskManager(DiskManager* base) : base_(base) {}

  /// After `n` more successful reads, every read fails with IOError.
  void FailReadsAfter(uint64_t n) {
    reads_until_failure_.store(n, std::memory_order_relaxed);
  }
  /// After `n` more successful writes, every write fails with IOError.
  void FailWritesAfter(uint64_t n) {
    writes_until_failure_.store(n, std::memory_order_relaxed);
  }
  /// Clears injected failures.
  void Heal() {
    reads_until_failure_.store(kNever, std::memory_order_relaxed);
    writes_until_failure_.store(kNever, std::memory_order_relaxed);
  }

  PageId AllocatePage() override { return base_->AllocatePage(); }
  void FreePage(PageId page_id) override { base_->FreePage(page_id); }
  Status ReadPage(PageId page_id, char* out) override;
  Status WritePage(PageId page_id, const char* data) override;
  uint32_t PageCount() const override { return base_->PageCount(); }

 private:
  static constexpr uint64_t kNever = UINT64_MAX;

  /// Atomically consumes one unit of `countdown`. Returns false — without
  /// decrementing further — once the countdown has reached zero.
  static bool ConsumeBudget(std::atomic<uint64_t>* countdown);

  DiskManager* base_;
  std::atomic<uint64_t> reads_until_failure_{kNever};
  std::atomic<uint64_t> writes_until_failure_{kNever};
};

}  // namespace amdj::storage

#endif  // AMDJ_STORAGE_DISK_MANAGER_H_
