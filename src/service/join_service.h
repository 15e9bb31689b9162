#ifndef AMDJ_SERVICE_JOIN_SERVICE_H_
#define AMDJ_SERVICE_JOIN_SERVICE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/distance_join.h"
#include "core/options.h"
#include "core/pair_entry.h"
#include "rtree/rtree.h"

namespace amdj::service {

class SharedWorkRegistry;  // service/shared_work.h
struct SharedWorkKeys;     // service/shared_work.h

/// One distance-join request against the service's tree pair: either a
/// k-distance join (the k closest pairs) or an incremental join streamed
/// to a caller-chosen cardinality.
struct JoinRequest {
  enum class Kind : uint8_t {
    kKdj = 0,  ///< One-shot k-distance join.
    kIdj = 1,  ///< Incremental join, streamed until `k` pairs (or done).
  };

  Kind kind = Kind::kKdj;
  core::KdjAlgorithm kdj_algorithm = core::KdjAlgorithm::kAmKdj;
  core::IdjAlgorithm idj_algorithm = core::IdjAlgorithm::kAmIdj;
  /// KDJ: result cardinality. IDJ: number of pairs to stream.
  uint64_t k = 10;
  /// Per-request knobs (metric, sweep, tie-break, tracer/report, ...).
  /// The service overrides queue_disk (a session-scoped spill disk) and
  /// clamps queue_memory_bytes to the admission budget; see
  /// JoinService::EffectiveOptions. An attached tracer/report must not be
  /// shared between concurrently submitted requests.
  core::JoinOptions options;
};

/// Outcome of one request: the result pairs plus the query's *own*
/// JoinStats — node accesses, buffer hits, queue work, CPU seconds — with
/// exact attribution even while other queries share the buffer pool.
struct JoinResponse {
  Status status = Status::OK();
  std::vector<core::ResultPair> results;
  JoinStats stats;
  /// Time the request spent queued before a worker picked it up.
  double wait_seconds = 0.0;
  /// Execution wall time (excludes wait_seconds); wait + exec is the
  /// end-to-end service latency.
  double exec_seconds = 0.0;
};

/// Inter-query concurrent execution layer: accepts KDJ/IDJ requests
/// against one shared (read-only) pair of R-trees and runs them on a
/// fixed-size ThreadPool.
///
/// Admission control: at most `max_inflight` queries execute at once
/// (excess requests queue FIFO), and each admitted query's hybrid-queue
/// memory is clamped to queue_memory_budget_bytes / max_inflight — so N
/// concurrent hybrid queues cannot blow the configured memory cap no
/// matter what the requests ask for.
///
/// Session scoping: every executing query gets its own spill disk for
/// queue segments / sort runs (nothing shared, nothing leaked across
/// queries) and its own JoinStats. Buffer-pool accesses are attributed
/// per-query through storage::QueryAttributionScope, so the response's
/// counters are exact under concurrency and per-query sums reconcile with
/// the pool's global hit/miss totals.
///
/// Thread-safety: Submit may be called from any thread. The trees and
/// their buffer pool must outlive the service and must not be mutated
/// while it runs (the R-tree is not thread-safe for writes).
class JoinService {
 public:
  struct Options {
    /// Maximum concurrently executing queries (>= 1).
    uint32_t max_inflight = 4;
    /// Total in-memory budget shared by the in-flight queries' main
    /// queues; each query gets budget / max_inflight (floored at
    /// kMinQueueMemoryBytes).
    size_t queue_memory_budget_bytes = 4 * 1024 * 1024;
    /// Give each query a private in-memory spill disk for queue segments.
    /// When false, queues never spill (JoinOptions::queue_disk = nullptr)
    /// and the memory clamp is only nominal — spilling is what makes the
    /// budget enforceable.
    bool session_spill_disk = true;
    /// Admission cap on requests queued but not yet started; 0 (the
    /// default) is unlimited. A Submit over the cap is rejected *without*
    /// blocking: its future is immediately ready with
    /// Status::ResourceExhausted — the caller's backpressure signal.
    uint32_t max_queued = 0;
    /// End-to-end (queue wait + execution) latency threshold past which a
    /// query is logged at warn level together with its full RunReport
    /// JSON; the service attaches its own report when the request did not
    /// bring one. 0 (the default) disables the slow-query log.
    double slow_query_seconds = 0.0;
    /// In-flight dedupe (service/shared_work.h): semantically identical
    /// concurrent submissions piggyback on one execution, each future
    /// getting its own response with a stats.shared_hit marker. Off by
    /// default — duplicates then execute independently, which admission
    /// tests and benches that measure raw execution rely on. Requests
    /// carrying a tracer or report are never deduped regardless.
    bool dedupe_inflight = false;
    /// Capacity (entries) of the semantic result cache: completed KDJ runs
    /// are recorded per (algorithm, options-key) and a later k' <= k is
    /// answered byte-identically from the cached prefix without touching
    /// the trees; cached exact Dmax values also seed the eDmax estimator
    /// of later runs (JoinOptions::edmax_seed). 0 (the default) disables
    /// both the cache and the learned seed.
    size_t shared_cache_entries = 0;
    /// Worker thread name prefix.
    std::string name_prefix = "amdj-svc";
  };

  /// Point-in-time admission counters, all read under one lock so the
  /// accounting identity `accepted == completed + inflight + queued` holds
  /// exactly at every snapshot (each state transition updates its two
  /// sides in one critical section).
  struct AdmissionSnapshot {
    uint64_t accepted = 0;
    uint64_t completed = 0;
    uint64_t rejected = 0;
    uint32_t inflight = 0;
    uint32_t queued = 0;
    uint32_t peak_inflight = 0;
  };

  /// Floor for the per-query queue memory clamp.
  static constexpr size_t kMinQueueMemoryBytes = 16 * 1024;

  /// `r`, `s` (and their buffer pool) must outlive the service.
  JoinService(const rtree::RTree& r, const rtree::RTree& s,
              const Options& options);

  /// Drains: queued and in-flight requests finish before destruction
  /// returns (their futures all become ready).
  ~JoinService();

  JoinService(const JoinService&) = delete;
  JoinService& operator=(const JoinService&) = delete;

  /// Enqueues a request; the future carries its response (never an
  /// exception — errors travel in JoinResponse::status).
  std::future<JoinResponse> Submit(JoinRequest request);

  /// Synchronous convenience: Submit + wait.
  JoinResponse Run(JoinRequest request) { return Submit(std::move(request)).get(); }

  /// The options a request will actually execute under: the request's own
  /// JoinOptions with queue_memory_bytes clamped to the per-query budget
  /// and queue_disk cleared (the session spill disk is attached at
  /// execution time). Exposed so callers can reproduce a
  /// query's solo run exactly. The learned eDmax seed is NOT reflected
  /// here: it depends on runtime cache state, never changes results, and
  /// is only applied when shared_cache_entries > 0.
  core::JoinOptions EffectiveOptions(const JoinRequest& request) const;

  size_t per_query_queue_memory_bytes() const {
    return per_query_queue_memory_;
  }
  uint32_t max_inflight() const { return max_inflight_; }

  /// Requests finished since construction.
  uint64_t completed() const AMDJ_EXCLUDES(mutex_);
  /// Highest number of simultaneously executing queries observed.
  uint32_t peak_inflight() const AMDJ_EXCLUDES(mutex_);
  /// Requests rejected by the max_queued admission cap.
  uint64_t rejected() const AMDJ_EXCLUDES(mutex_);
  /// All admission counters under one lock (see AdmissionSnapshot).
  AdmissionSnapshot admission_snapshot() const AMDJ_EXCLUDES(mutex_);

  /// Shared-work counters: responses served by piggybacking on an
  /// identical in-flight execution / from the result cache; runs whose
  /// initial eDmax was seeded from an observed Dmax; shareable requests
  /// that found nothing and executed themselves. All zero when both
  /// dedupe_inflight and shared_cache_entries are off.
  uint64_t shared_inflight_hits() const;
  uint64_t shared_cache_hits() const;
  uint64_t shared_seed_hits() const;
  uint64_t shared_misses() const;
  size_t shared_cache_size() const;

 private:
  JoinResponse Execute(const JoinRequest& request, double wait_seconds,
                       const SharedWorkKeys& keys);
  /// Resolves every follower piggybacked on `exec_key` with a copy of the
  /// leader's response (shared_hit marker, per-follower wait/exec split).
  void ResolveFollowers(const JoinRequest& request,
                        const std::string& exec_key,
                        const JoinResponse& response) AMDJ_EXCLUDES(mutex_);
  /// Runs the request under fully resolved options into `response`.
  void ExecuteRequest(const JoinRequest& request,
                      const core::JoinOptions& options,
                      JoinResponse* response);

  const rtree::RTree& r_;
  const rtree::RTree& s_;
  Options options_;
  uint32_t max_inflight_;
  size_t per_query_queue_memory_;

  /// Guards the admission counters below (the admission *queue* itself is
  /// the pool's FIFO task queue, guarded inside ThreadPool).
  mutable Mutex mutex_;
  uint32_t inflight_ AMDJ_GUARDED_BY(mutex_) = 0;
  uint32_t queued_ AMDJ_GUARDED_BY(mutex_) = 0;
  uint32_t peak_inflight_ AMDJ_GUARDED_BY(mutex_) = 0;
  uint64_t accepted_ AMDJ_GUARDED_BY(mutex_) = 0;
  uint64_t completed_ AMDJ_GUARDED_BY(mutex_) = 0;
  uint64_t rejected_ AMDJ_GUARDED_BY(mutex_) = 0;

  /// Shared-work layer (dedupe map, result cache, observed-Dmax table);
  /// always constructed (cheap when disabled). Declared before pool_: the
  /// query workers resolve follower groups and record completions here, so
  /// it must outlive the pool's drain. Lock order: registry mutex first,
  /// then mutex_ (Submit nests the admission check inside the registry's
  /// membership check so the two decisions are one atomic step).
  std::unique_ptr<SharedWorkRegistry> shared_;

  /// Last member: destroyed (drained) first, while the counters above are
  /// still alive for the final tasks.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace amdj::service

#endif  // AMDJ_SERVICE_JOIN_SERVICE_H_
