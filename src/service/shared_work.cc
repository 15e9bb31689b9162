#include "service/shared_work.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/metrics.h"

namespace amdj::service {

namespace {

/// Canonical key fragments. Doubles go in by bit pattern (two values that
/// differ only past printable precision must NOT collide into one key),
/// pointers by address (a custom estimator's identity IS its address —
/// two estimators with different state must never share cache lines).
void AppendU64(std::string* out, uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%llx|",
                static_cast<unsigned long long>(v));
  *out += buf;
}

void AppendDouble(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

void AppendOptDist(std::string* out, const std::optional<geom::DistVal>& v) {
  if (v.has_value()) {
    // Raw view: the key is a byte fingerprint, unit-less by construction.
    AppendDouble(out, v->raw());
  } else {
    *out += "n|";
  }
}

void AppendOptRect(std::string* out, const std::optional<geom::Rect>& r) {
  if (r.has_value()) {
    AppendDouble(out, r->lo.x);
    AppendDouble(out, r->lo.y);
    AppendDouble(out, r->hi.x);
    AppendDouble(out, r->hi.y);
  } else {
    *out += "n|";
  }
}

/// Every JoinOptions knob that can influence the response bytes or stats
/// of an execution this request might share. queue_memory_bytes and
/// queue_disk are deliberately absent: spilling changes where the queue
/// lives, never what the join returns, and the service overrides both
/// anyway (EffectiveOptions).
std::string SemanticOptionsKey(const core::JoinOptions& o) {
  std::string key;
  AppendU64(&key, static_cast<uint64_t>(o.metric));
  AppendU64(&key, static_cast<uint64_t>(o.sweep));
  AppendU64(&key, static_cast<uint64_t>(o.distance_queue_policy));
  AppendU64(&key, static_cast<uint64_t>(o.tie_break));
  AppendU64(&key, static_cast<uint64_t>(o.correction));
  AppendU64(&key, o.predetermined_queue_boundaries ? 1 : 0);
  AppendU64(&key, o.exclude_same_id ? 1 : 0);
  AppendU64(&key, o.idj_initial_k);
  AppendOptDist(&key, o.forced_edmax);
  AppendOptDist(&key, o.edmax_seed);
  AppendU64(&key, reinterpret_cast<uintptr_t>(o.estimator));
  AppendOptRect(&key, o.r_window);
  AppendOptRect(&key, o.s_window);
  return key;
}

/// The options that change which pair distances exist at all — the result
/// *multiset* — as opposed to how the run is staged or ordered. Dmax(k) is
/// the k-th smallest distance of that multiset, so observations transfer
/// across algorithm, sweep, tie-break, and estimator choices.
std::string DmaxSeedKey(const core::JoinOptions& o) {
  std::string key = "S|";
  AppendU64(&key, static_cast<uint64_t>(o.metric));
  AppendU64(&key, o.exclude_same_id ? 1 : 0);
  AppendOptRect(&key, o.r_window);
  AppendOptRect(&key, o.s_window);
  return key;
}

}  // namespace

SharedWorkKeys ComputeSharedWorkKeys(const JoinRequest& request) {
  SharedWorkKeys keys;
  const core::JoinOptions& o = request.options;
  // Observer-carrying requests execute solo: a tracer/report records ONE
  // execution's events.
  if (o.tracer != nullptr || o.report != nullptr) return keys;
  const std::string options_key = SemanticOptionsKey(o);
  std::string exec;
  if (request.kind == JoinRequest::Kind::kKdj) {
    exec = "K|";
    AppendU64(&exec, static_cast<uint64_t>(request.kdj_algorithm));
    std::string cache = "C|";
    AppendU64(&cache, static_cast<uint64_t>(request.kdj_algorithm));
    cache += options_key;
    keys.cache_key = std::move(cache);
  } else {
    exec = "I|";
    AppendU64(&exec, static_cast<uint64_t>(request.idj_algorithm));
  }
  AppendU64(&exec, request.k);
  exec += options_key;
  keys.exec_key = std::move(exec);
  keys.seed_key = DmaxSeedKey(o);
  return keys;
}

struct SharedWorkRegistry::InflightEntry {
  FollowerGroup group;
};

struct SharedWorkRegistry::CacheEntry {
  uint64_t k = 0;
  /// results->size() < k means the run was exhaustive: the data holds only
  /// results->size() pairs, so the entry answers every k' (the full set is
  /// the answer for any k' >= its size).
  std::shared_ptr<const std::vector<core::ResultPair>> results;
  std::list<std::string>::iterator lru_pos;
};

struct SharedWorkRegistry::SeedObservations {
  /// k_observed -> exact Dmax(k_observed), at most kMaxObservations.
  std::vector<std::pair<uint64_t, geom::DistVal>> by_k;
  /// Smallest Dmax of an exhaustive run (upper-bounds Dmax(k) for all k).
  std::optional<geom::DistVal> exhaustive_dmax;
};

namespace {
constexpr size_t kMaxObservationsPerKey = 32;
}  // namespace

SharedWorkRegistry::SharedWorkRegistry(size_t cache_entries,
                                       Gauge* cache_size_gauge)
    : cache_entries_(cache_entries), cache_size_gauge_(cache_size_gauge) {}

SharedWorkRegistry::~SharedWorkRegistry() {
  // In-flight entries are owned by their leaders; by the time the service
  // destroys the registry the query pool has drained, so every group has
  // been taken and resolved. Nothing to do beyond freeing the maps.
}

std::optional<std::future<JoinResponse>> SharedWorkRegistry::JoinOrLead(
    const std::string& exec_key, bool* became_leader,
    const std::function<bool()>& admit,
    const std::function<void()>& on_follower) {
  const MutexLock lock(&mutex_);
  auto it = inflight_.find(exec_key);
  if (it != inflight_.end()) {
    *became_leader = false;
    Follower follower;
    follower.submit_time = std::chrono::steady_clock::now();
    std::future<JoinResponse> future = follower.promise.get_future();
    it->second->group.followers.push_back(std::move(follower));
    ++inflight_hits_;
    on_follower();
    return future;
  }
  // Leader path: admission (cap check + counters) happens under the
  // registry lock so the membership decision and the admission decision
  // are one atomic step — otherwise two racing submissions could both
  // lead, or a rejected request could leave a zombie entry.
  if (!admit()) {
    *became_leader = false;
    return std::nullopt;
  }
  *became_leader = true;
  ++misses_;
  inflight_.emplace(exec_key, std::make_shared<InflightEntry>());
  return std::nullopt;
}

void SharedWorkRegistry::NoteExecutionStart(const std::string& exec_key) {
  const MutexLock lock(&mutex_);
  auto it = inflight_.find(exec_key);
  if (it == inflight_.end()) return;
  it->second->group.exec_start = std::chrono::steady_clock::now();
  it->second->group.exec_started = true;
}

SharedWorkRegistry::FollowerGroup SharedWorkRegistry::FinishExecution(
    const std::string& exec_key) {
  const MutexLock lock(&mutex_);
  auto it = inflight_.find(exec_key);
  if (it == inflight_.end()) return FollowerGroup{};
  FollowerGroup group = std::move(it->second->group);
  inflight_.erase(it);
  return group;
}

std::optional<SharedWorkRegistry::CacheHit> SharedWorkRegistry::CacheLookup(
    const std::string& cache_key, uint64_t k) {
  if (cache_entries_ == 0) return std::nullopt;
  const MutexLock lock(&mutex_);
  auto it = cache_.find(cache_key);
  if (it == cache_.end()) return std::nullopt;
  CacheEntry& entry = it->second;
  const std::vector<core::ResultPair>& stored = *entry.results;
  const bool exhaustive = stored.size() < entry.k;
  if (k > entry.k && !exhaustive) return std::nullopt;
  // Prefix property: the stored run's output is the unique top-entry.k of
  // a deterministic total order, so its first min(k, size) entries are
  // byte-identical to what a fresh run at k would produce.
  CacheHit hit;
  const size_t take = static_cast<size_t>(
      std::min<uint64_t>(k, static_cast<uint64_t>(stored.size())));
  hit.results.assign(stored.begin(), stored.begin() + take);
  lru_.splice(lru_.begin(), lru_, entry.lru_pos);
  ++cache_hits_;
  return hit;
}

void SharedWorkRegistry::CacheInsert(const std::string& cache_key, uint64_t k,
                                     std::vector<core::ResultPair> results) {
  if (cache_entries_ == 0) return;
  const MutexLock lock(&mutex_);
  auto it = cache_.find(cache_key);
  if (it != cache_.end()) {
    if (it->second.k >= k) {
      // The resident entry answers a superset of what this run would.
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return;
    }
    it->second.k = k;
    it->second.results = std::make_shared<const std::vector<core::ResultPair>>(
        std::move(results));
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  lru_.push_front(cache_key);
  CacheEntry entry;
  entry.k = k;
  entry.results = std::make_shared<const std::vector<core::ResultPair>>(
      std::move(results));
  entry.lru_pos = lru_.begin();
  cache_.emplace(cache_key, std::move(entry));
  if (cache_size_gauge_ != nullptr) cache_size_gauge_->Increment();
  while (cache_.size() > cache_entries_) {
    const std::string& victim = lru_.back();
    cache_.erase(victim);
    lru_.pop_back();
    if (cache_size_gauge_ != nullptr) cache_size_gauge_->Decrement();
  }
}

void SharedWorkRegistry::RecordDmax(const std::string& seed_key,
                                    uint64_t k_observed, geom::DistVal dmax,
                                    bool exhaustive) {
  if (k_observed == 0) return;
  const MutexLock lock(&mutex_);
  SeedObservations& obs = seeds_[seed_key];
  if (exhaustive) {
    if (!obs.exhaustive_dmax || dmax < *obs.exhaustive_dmax) {
      obs.exhaustive_dmax = dmax;
    }
    return;
  }
  auto it = std::lower_bound(
      obs.by_k.begin(), obs.by_k.end(), k_observed,
      [](const std::pair<uint64_t, geom::DistVal>& a, uint64_t b) {
        return a.first < b;
      });
  if (it != obs.by_k.end() && it->first == k_observed) {
    // Exact joins at one (options, k) agree on Dmax; keep the smaller in
    // case float noise across algorithms ever disagrees in the last ulp.
    it->second = std::min(it->second, dmax);
    return;
  }
  obs.by_k.insert(it, {k_observed, dmax});
  if (obs.by_k.size() > kMaxObservationsPerKey) {
    // Evict the smallest-k observation: cheapest to re-learn and the least
    // binding upper bound for future (typically larger) k.
    obs.by_k.erase(obs.by_k.begin());
  }
}

std::optional<geom::DistVal> SharedWorkRegistry::SeedFor(
    const std::string& seed_key, uint64_t k,
    const core::CutoffEstimator& estimator) {
  const MutexLock lock(&mutex_);
  auto it = seeds_.find(seed_key);
  if (it == seeds_.end()) return std::nullopt;
  const SeedObservations& obs = it->second;
  std::optional<geom::DistVal> seed = obs.exhaustive_dmax;
  // Smallest observed k0 >= k: dmax(k0) is an exact upper bound on
  // Dmax(k) (Dmax is nondecreasing in k).
  auto ge = std::lower_bound(
      obs.by_k.begin(), obs.by_k.end(), k,
      [](const std::pair<uint64_t, geom::DistVal>& a, uint64_t b) {
        return a.first < b;
      });
  if (ge != obs.by_k.end()) {
    if (!seed || ge->second < *seed) seed = ge->second;
  } else if (!seed && !obs.by_k.empty()) {
    // All observations sit below k: extrapolate from the largest through
    // the conservative Eq. 4/5 correction. An estimate, not a bound — but
    // the seed only stages the run (JoinOptions::edmax_seed), and the
    // correction is anchored at a *true* (k0, Dmax(k0)) point where Eq. 3
    // is anchored at an assumed-uniform density, so it is the better
    // learned guess the ISSUE asks for.
    const auto& best = obs.by_k.back();
    seed = estimator.Correct(k, best.first, best.second,
                             /*aggressive=*/false);
  }
  if (seed.has_value()) ++seed_hits_;
  return seed;
}

void SharedWorkRegistry::NoteMiss() {
  const MutexLock lock(&mutex_);
  ++misses_;
}

size_t SharedWorkRegistry::cache_size() const {
  const MutexLock lock(&mutex_);
  return cache_.size();
}

uint64_t SharedWorkRegistry::inflight_hits() const {
  const MutexLock lock(&mutex_);
  return inflight_hits_;
}

uint64_t SharedWorkRegistry::cache_hits() const {
  const MutexLock lock(&mutex_);
  return cache_hits_;
}

uint64_t SharedWorkRegistry::seed_hits() const {
  const MutexLock lock(&mutex_);
  return seed_hits_;
}

uint64_t SharedWorkRegistry::misses() const {
  const MutexLock lock(&mutex_);
  return misses_;
}

}  // namespace amdj::service
