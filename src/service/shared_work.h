#ifndef AMDJ_SERVICE_SHARED_WORK_H_
#define AMDJ_SERVICE_SHARED_WORK_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "core/cutoff_estimator.h"
#include "core/pair_entry.h"
#include "geom/units.h"
// For JoinRequest/JoinResponse (std::promise<JoinResponse> needs the
// complete type). join_service.h only forward-declares this header's
// types, so the dependency is one-directional.
#include "service/join_service.h"

namespace amdj {
class Gauge;  // common/metrics.h
}  // namespace amdj

namespace amdj::service {

/// The three canonical keys of one request against the shared-work layer.
/// All are keyed *within* one JoinService instance (one tree pair), so the
/// "pair" component of the ISSUE's (pair, options-key, k) tuple is the
/// registry instance itself.
struct SharedWorkKeys {
  /// In-flight dedupe identity: kind | algorithm | k | every semantic
  /// option. Two requests with equal exec keys produce byte-identical
  /// responses, so one execution can serve both.
  std::optional<std::string> exec_key;
  /// Result-cache identity: like exec_key but without k — a cache entry
  /// stores the k it ran at and answers any k' <= k by prefix. KDJ only
  /// (IDJ cursors stream; their drained prefix is the same data, but the
  /// cache records completed KDJ runs per the prefix-property argument).
  std::optional<std::string> cache_key;
  /// Observed-Dmax table identity: only the options that change the result
  /// *multiset* of distances — metric, self-join exclusion, windows. The
  /// k-th smallest distance is identical across algorithms, sweep
  /// strategies and tie-break policies, so Dmax learned under one
  /// configuration seeds every other.
  std::optional<std::string> seed_key;
};

/// Canonicalizes a request into its shared-work keys. Requests that carry
/// per-request observers (tracer, report) are never shared — all three
/// keys come back empty: an observer expects to see *its own* execution,
/// and a piggybacked response would silently starve it.
SharedWorkKeys ComputeSharedWorkKeys(const JoinRequest& request);

/// Cross-query shared-work state of one JoinService: the in-flight dedupe
/// map, the semantic result cache, and the observed-Dmax table. All three
/// are guarded by one internal mutex; every method is thread-safe. Lock
/// order with the service's admission mutex is registry -> admission
/// (JoinService nests its counter updates inside registry critical
/// sections, never the reverse).
class SharedWorkRegistry {
 public:
  /// `cache_entries` bounds the result cache (0 disables it; the dedupe
  /// map is bounded by the number of distinct in-flight requests and needs
  /// no cap). `cache_size_gauge`, when set, tracks the live entry count
  /// (amdj_service_shared_cache_entries).
  explicit SharedWorkRegistry(size_t cache_entries,
                              Gauge* cache_size_gauge = nullptr);
  ~SharedWorkRegistry();

  SharedWorkRegistry(const SharedWorkRegistry&) = delete;
  SharedWorkRegistry& operator=(const SharedWorkRegistry&) = delete;

  // --- in-flight dedupe ---

  /// One request piggybacking on an identical in-flight execution.
  struct Follower {
    std::promise<JoinResponse> promise;
    std::chrono::steady_clock::time_point submit_time;
  };
  /// Followers plus the leader's execution-start time, handed to the
  /// leader at completion so it can attribute wait/exec per follower.
  struct FollowerGroup {
    std::vector<Follower> followers;
    std::chrono::steady_clock::time_point exec_start;
    bool exec_started = false;
  };

  /// Atomically: if `exec_key` has an in-flight leader, registers a
  /// follower and returns its future; otherwise registers the caller AS
  /// the leader and returns nullopt. `admit` runs under the registry lock
  /// in the leader case only, BEFORE the leader is registered — the
  /// service does its admission-cap check and counter updates there, and
  /// a false return rejects the request without registering anything
  /// (JoinOrLead then also returns nullopt; the caller distinguishes via
  /// the admit callback's own out-state). Follower registration invokes
  /// `on_follower` (counter updates) under the lock instead.
  std::optional<std::future<JoinResponse>> JoinOrLead(
      const std::string& exec_key, bool* became_leader,
      const std::function<bool()>& admit,
      const std::function<void()>& on_follower) AMDJ_EXCLUDES(mutex_);

  /// Marks the leader's execution start (wait/exec attribution boundary
  /// for followers that joined while the leader sat queued).
  void NoteExecutionStart(const std::string& exec_key) AMDJ_EXCLUDES(mutex_);

  /// Removes the in-flight entry and returns its followers; subsequent
  /// identical submissions start a fresh leader. The caller resolves each
  /// follower's promise.
  FollowerGroup FinishExecution(const std::string& exec_key)
      AMDJ_EXCLUDES(mutex_);

  // --- semantic result cache ---

  /// Answer for a k'-request served from cache: the result prefix, and the
  /// byte-identical-to-solo guarantee documented in DESIGN.md.
  struct CacheHit {
    std::vector<core::ResultPair> results;
  };

  /// Returns the cached prefix when a completed run answers `k`: a stored
  /// run at k0 >= k answers by prefix, and an *exhaustive* stored run
  /// (fewer than k0 results exist in the data) answers every k >= its
  /// result count with the full set. Refreshes LRU order on hit.
  std::optional<CacheHit> CacheLookup(const std::string& cache_key,
                                      uint64_t k) AMDJ_EXCLUDES(mutex_);

  /// Records a completed KDJ run. Keeps whichever of (existing, new) entry
  /// has the larger k — the larger run answers strictly more queries.
  /// `results` must be the complete, final result vector.
  void CacheInsert(const std::string& cache_key, uint64_t k,
                   std::vector<core::ResultPair> results)
      AMDJ_EXCLUDES(mutex_);

  // --- learned eDmax seed ---

  /// Records the exact Dmax observed by a completed run: `k_observed` is
  /// the result count actually produced, `dmax` the last result's
  /// distance, `exhaustive` whether the data held fewer than the requested
  /// k pairs (then `dmax` upper-bounds Dmax(k') for every k').
  void RecordDmax(const std::string& seed_key, uint64_t k_observed,
                  geom::DistVal dmax, bool exhaustive) AMDJ_EXCLUDES(mutex_);

  /// Upper-bound-or-estimate seed for a new run at `k` (distance space),
  /// or nullopt when nothing relevant was observed. An observation at
  /// k0 >= k (or any exhaustive observation) yields an exact upper bound
  /// Dmax(k) <= dmax(k0); an observation at k0 < k extrapolates through
  /// the estimator's conservative Eq. 4/5 correction — an estimate, which
  /// is still exact-safe because the seed only stages the adaptive
  /// algorithms (JoinOptions::edmax_seed).
  std::optional<geom::DistVal> SeedFor(const std::string& seed_key,
                                       uint64_t k,
                                       const core::CutoffEstimator& estimator)
      AMDJ_EXCLUDES(mutex_);

  /// Counts a shareable request that found no shared work and ran its own
  /// execution (the leader path of JoinOrLead counts this itself; this is
  /// for the cache-enabled/dedupe-disabled configuration where JoinOrLead
  /// is never called).
  void NoteMiss() AMDJ_EXCLUDES(mutex_);

  // --- introspection (tests, service accessors) ---

  size_t cache_size() const AMDJ_EXCLUDES(mutex_);
  size_t cache_capacity() const { return cache_entries_; }
  uint64_t inflight_hits() const AMDJ_EXCLUDES(mutex_);
  uint64_t cache_hits() const AMDJ_EXCLUDES(mutex_);
  uint64_t seed_hits() const AMDJ_EXCLUDES(mutex_);
  uint64_t misses() const AMDJ_EXCLUDES(mutex_);

 private:
  struct InflightEntry;
  struct CacheEntry;
  struct SeedObservations;

  const size_t cache_entries_;
  Gauge* const cache_size_gauge_;

  mutable Mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<InflightEntry>> inflight_
      AMDJ_GUARDED_BY(mutex_);
  std::unordered_map<std::string, CacheEntry> cache_ AMDJ_GUARDED_BY(mutex_);
  /// LRU order, most recent at front; values are keys into cache_.
  std::list<std::string> lru_ AMDJ_GUARDED_BY(mutex_);
  std::unordered_map<std::string, SeedObservations> seeds_
      AMDJ_GUARDED_BY(mutex_);
  uint64_t inflight_hits_ AMDJ_GUARDED_BY(mutex_) = 0;
  uint64_t cache_hits_ AMDJ_GUARDED_BY(mutex_) = 0;
  uint64_t seed_hits_ AMDJ_GUARDED_BY(mutex_) = 0;
  uint64_t misses_ AMDJ_GUARDED_BY(mutex_) = 0;
};

}  // namespace amdj::service

#endif  // AMDJ_SERVICE_SHARED_WORK_H_
