#include "service/join_service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/run_report.h"
#include "common/timer.h"
#include "core/dmax_estimator.h"
#include "service/shared_work.h"
#include "storage/disk_manager.h"

namespace amdj::service {

namespace {

/// Process-wide service metrics (one series set; all JoinService instances
/// in the process feed them — in practice a serve process hosts one).
struct ServiceMetrics {
  Histogram* admission_wait_ns;
  Gauge* inflight;
  Gauge* queued;
  Counter* accepted;
  Counter* rejected;
  Counter* completed;
  Counter* slow_queries;
  Counter* shared_inflight_hits;
  Counter* shared_cache_hits;
  Counter* shared_seeds;
  Counter* shared_misses;
  Gauge* shared_cache_entries;
};

ServiceMetrics& GlobalServiceMetrics() {
  static ServiceMetrics metrics = [] {
    MetricsRegistry* registry = MetricsRegistry::Global();
    return ServiceMetrics{
        registry->GetHistogram("amdj_service_admission_wait_ns", "",
                               "Time a request spent queued before a worker "
                               "picked it up"),
        registry->GetGauge("amdj_service_inflight_queries", "",
                           "Queries currently executing"),
        registry->GetGauge("amdj_service_queued_queries", "",
                           "Requests admitted but not yet started"),
        registry->GetCounter("amdj_service_requests_total",
                             "outcome=\"accepted\"",
                             "Requests by admission outcome"),
        registry->GetCounter("amdj_service_requests_total",
                             "outcome=\"rejected\"",
                             "Requests by admission outcome"),
        registry->GetCounter("amdj_service_completed_total", "",
                             "Requests finished (any status)"),
        registry->GetCounter("amdj_service_slow_queries_total", "",
                             "Queries past the slow_query_seconds threshold"),
        registry->GetCounter("amdj_service_shared_hits_total",
                             "kind=\"inflight\"",
                             "Responses served by the shared-work layer"),
        registry->GetCounter("amdj_service_shared_hits_total",
                             "kind=\"cache\"",
                             "Responses served by the shared-work layer"),
        registry->GetCounter("amdj_service_shared_seeds_total", "",
                             "Runs whose initial eDmax was seeded from an "
                             "observed Dmax"),
        registry->GetCounter("amdj_service_shared_misses_total", "",
                             "Shareable requests that found no shared work "
                             "and executed themselves"),
        registry->GetGauge("amdj_service_shared_cache_entries", "",
                           "Live entries in the semantic result cache"),
    };
  }();
  return metrics;
}

/// Per-algorithm end-to-end latency series. The label set is closed (the
/// two algorithm enums), so cardinality is bounded; the registry lookup is
/// one cold map access per completed query.
Histogram* QueryLatencyHistogram(const JoinRequest& request) {
  const char* algorithm = request.kind == JoinRequest::Kind::kKdj
                              ? core::ToString(request.kdj_algorithm)
                              : core::ToString(request.idj_algorithm);
  return MetricsRegistry::Global()->GetHistogram(
      "amdj_service_query_latency_ns",
      std::string("algorithm=\"") + algorithm + "\"",
      "End-to-end query latency (admission wait + execution)");
}

uint64_t SecondsToNanos(double seconds) {
  if (seconds <= 0.0) return 0;
  return static_cast<uint64_t>(seconds * 1e9);
}

double DurationSeconds(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0.0;
  return std::chrono::duration<double>(to - from).count();
}

std::future<JoinResponse> ReadyFuture(JoinResponse response) {
  std::promise<JoinResponse> promise;
  std::future<JoinResponse> future = promise.get_future();
  promise.set_value(std::move(response));
  return future;
}

}  // namespace

JoinService::JoinService(const rtree::RTree& r, const rtree::RTree& s,
                         const Options& options)
    : r_(r),
      s_(s),
      options_(options),
      max_inflight_(std::max<uint32_t>(1, options.max_inflight)),
      per_query_queue_memory_(
          std::max(kMinQueueMemoryBytes,
                   options.queue_memory_budget_bytes / max_inflight_)),
      shared_(std::make_unique<SharedWorkRegistry>(
          options.shared_cache_entries,
          GlobalServiceMetrics().shared_cache_entries)),
      pool_(std::make_unique<ThreadPool>(max_inflight_,
                                         options.name_prefix)) {}

JoinService::~JoinService() {
  // Draining happens in the pool destructor; pool_ being the last member
  // would already order this correctly, but reset explicitly so the drain
  // is visible at the point the service dies.
  pool_.reset();
}

core::JoinOptions JoinService::EffectiveOptions(
    const JoinRequest& request) const {
  core::JoinOptions effective = request.options;
  effective.queue_memory_bytes =
      std::min(effective.queue_memory_bytes, per_query_queue_memory_);
  // The session spill disk is per-execution; whatever the caller set is
  // replaced (a shared spill disk across concurrent queries would mix
  // their segments and outlive neither cleanly).
  effective.queue_disk = nullptr;
  return effective;
}

std::future<JoinResponse> JoinService::Submit(JoinRequest request) {
  ServiceMetrics& metrics = GlobalServiceMetrics();
  const bool cache_on = options_.shared_cache_entries > 0;
  SharedWorkKeys keys;
  if (options_.dedupe_inflight || cache_on) {
    keys = ComputeSharedWorkKeys(request);
  }

  // 1. Semantic result cache: a completed run at k0 >= k answers this
  // request byte-identically from its prefix without touching the trees.
  // Cache hits bypass admission entirely (they cost no execution slot).
  if (cache_on && keys.cache_key.has_value()) {
    auto hit = shared_->CacheLookup(*keys.cache_key, request.k);
    if (hit.has_value()) {
      {
        const MutexLock lock(&mutex_);
        ++accepted_;
        ++completed_;
      }
      metrics.accepted->Increment();
      metrics.completed->Increment();
      metrics.shared_cache_hits->Increment();
      if (MetricsEnabled()) QueryLatencyHistogram(request)->Observe(0);
      JoinResponse response;
      response.results = std::move(hit->results);
      response.stats.shared_hit = 1;
      return ReadyFuture(std::move(response));
    }
  }

  // Admission: cap check + the accepted/queued transition, one critical
  // section so the snapshot identity holds. Runs either standalone (no
  // dedupe) or nested under the registry lock (lock order: registry ->
  // mutex_), where it makes lead-vs-reject one atomic step with the
  // membership check.
  const auto admit = [this] {
    const MutexLock lock(&mutex_);
    if (options_.max_queued > 0 && queued_ >= options_.max_queued) {
      ++rejected_;
      return false;
    }
    ++accepted_;
    ++queued_;
    return true;
  };
  const auto reject = [this, &metrics] {
    // Reject without blocking: the ready future is the backpressure
    // signal open-loop callers need — blocking here would turn the
    // admission queue into an unbounded hidden one at the caller.
    metrics.rejected->Increment();
    JoinResponse response;
    response.status = Status::ResourceExhausted(
        "join service admission queue is full (max_queued=" +
        std::to_string(options_.max_queued) + ")");
    return ReadyFuture(std::move(response));
  };

  // 2. In-flight dedupe: piggyback on a semantically identical execution
  // already admitted. Followers are admitted past max_queued — they cost
  // no execution slot, and rejecting a request the service is already
  // computing would be perverse.
  const bool leads = options_.dedupe_inflight && keys.exec_key.has_value();
  if (leads) {
    bool became_leader = false;
    auto piggy = shared_->JoinOrLead(
        *keys.exec_key, &became_leader, admit, [this] {
          const MutexLock lock(&mutex_);
          ++accepted_;
          ++queued_;
        });
    if (piggy.has_value()) {
      metrics.accepted->Increment();
      metrics.queued->Increment();
      metrics.shared_inflight_hits->Increment();
      return std::move(*piggy);
    }
    if (!became_leader) return reject();
    metrics.shared_misses->Increment();
  } else {
    if (!admit()) return reject();
    if (keys.exec_key.has_value()) {
      // Shareable but nothing to share with (cache miss, dedupe off).
      shared_->NoteMiss();
      metrics.shared_misses->Increment();
    }
  }
  metrics.accepted->Increment();
  metrics.queued->Increment();
  Timer queued;
  return pool_->Submit([this, request = std::move(request),
                        keys = std::move(keys), leads, queued] {
    ServiceMetrics& metrics = GlobalServiceMetrics();
    const double wait_seconds = queued.ElapsedSeconds();
    metrics.queued->Decrement();
    metrics.admission_wait_ns->Observe(SecondsToNanos(wait_seconds));
    {
      const MutexLock lock(&mutex_);
      --queued_;
      ++inflight_;
      peak_inflight_ = std::max(peak_inflight_, inflight_);
    }
    if (leads) shared_->NoteExecutionStart(*keys.exec_key);
    JoinResponse response;
    {
      const ScopedGauge inflight_gauge(metrics.inflight);
      response = Execute(request, wait_seconds, keys);
    }
    // Record the completed run before resolving followers, so a follow-up
    // submission racing the resolutions can already hit the cache.
    if (options_.shared_cache_entries > 0 && keys.cache_key.has_value() &&
        response.status.ok() &&
        request.kind == JoinRequest::Kind::kKdj) {
      if (!response.results.empty()) {
        const bool exhaustive = response.results.size() < request.k;
        shared_->RecordDmax(
            *keys.seed_key, response.results.size(),
            geom::DistVal(response.results.back().distance), exhaustive);
      }
      shared_->CacheInsert(*keys.cache_key, request.k, response.results);
    }
    if (leads) ResolveFollowers(request, *keys.exec_key, response);
    {
      const MutexLock lock(&mutex_);
      --inflight_;
      ++completed_;
    }
    metrics.completed->Increment();
    if (MetricsEnabled()) {
      QueryLatencyHistogram(request)->Observe(
          SecondsToNanos(wait_seconds + response.exec_seconds));
    }
    return response;
  });
}

void JoinService::ResolveFollowers(const JoinRequest& request,
                                   const std::string& exec_key,
                                   const JoinResponse& response) {
  SharedWorkRegistry::FollowerGroup group = shared_->FinishExecution(exec_key);
  if (group.followers.empty()) return;
  ServiceMetrics& metrics = GlobalServiceMetrics();
  const auto now = std::chrono::steady_clock::now();
  {
    const MutexLock lock(&mutex_);
    queued_ -= static_cast<uint32_t>(group.followers.size());
    completed_ += group.followers.size();
  }
  for (SharedWorkRegistry::Follower& follower : group.followers) {
    JoinResponse copy = response;
    copy.stats.shared_hit = 1;
    // Attribution mirrors a solo run's wait/exec split: time before the
    // leader started executing was this follower's queue wait; time the
    // follower overlapped with the execution is its exec time.
    if (group.exec_started) {
      copy.wait_seconds =
          DurationSeconds(follower.submit_time, group.exec_start);
      copy.exec_seconds = DurationSeconds(
          std::max(follower.submit_time, group.exec_start), now);
    } else {
      copy.wait_seconds = 0.0;
      copy.exec_seconds = DurationSeconds(follower.submit_time, now);
    }
    metrics.queued->Decrement();
    metrics.admission_wait_ns->Observe(SecondsToNanos(copy.wait_seconds));
    metrics.completed->Increment();
    if (MetricsEnabled()) {
      QueryLatencyHistogram(request)->Observe(
          SecondsToNanos(copy.wait_seconds + copy.exec_seconds));
    }
    follower.promise.set_value(std::move(copy));
  }
}

JoinResponse JoinService::Execute(const JoinRequest& request,
                                  double wait_seconds,
                                  const SharedWorkKeys& keys) {
  JoinResponse response;
  response.wait_seconds = wait_seconds;

  core::JoinOptions options = EffectiveOptions(request);
  // Learned eDmax seed: consult the observed-Dmax table before the
  // Eq. 3-5 estimator. Upper-bound hint only (JoinOptions::edmax_seed) —
  // it stages the adaptive algorithms tighter but cannot change results.
  // Skipped for forced_edmax (figure benches force exact multiples) and
  // caller-provided seeds.
  if (options_.shared_cache_entries > 0 && keys.seed_key.has_value() &&
      !options.forced_edmax.has_value() && !options.edmax_seed.has_value()) {
    const core::DmaxEstimator fallback_estimator(
        r_.bounds(), r_.size(), s_.bounds(), s_.size(), options.metric);
    const core::CutoffEstimator* estimator =
        options.estimator != nullptr ? options.estimator
                                     : &fallback_estimator;
    const uint64_t target_k =
        request.kind == JoinRequest::Kind::kKdj
            ? request.k
            : std::max(options.idj_initial_k, request.k);
    auto seed = shared_->SeedFor(*keys.seed_key, target_k, *estimator);
    if (seed.has_value()) {
      options.edmax_seed = seed;
      GlobalServiceMetrics().shared_seeds->Increment();
    }
  }
  // Slow-query log: a query past the threshold dumps a full RunReport, so
  // when the request brought none the service attaches its own — the
  // phase/cutoff breakdown is exactly what a latency investigation needs
  // and is unrecoverable after the fact.
  RunReport slow_report;
  if (options_.slow_query_seconds > 0.0 && options.report == nullptr) {
    options.report = &slow_report;
  }
  // Session-scoped spill disk: this query's queue segments and sort runs
  // live (and die) with this execution — no sharing, no leak across
  // queries.
  storage::InMemoryDiskManager session_disk;
  if (options_.session_spill_disk) options.queue_disk = &session_disk;

  Timer exec;
  ExecuteRequest(request, options, &response);
  response.exec_seconds = exec.ElapsedSeconds();

  if (options_.slow_query_seconds > 0.0 &&
      wait_seconds + response.exec_seconds >= options_.slow_query_seconds) {
    GlobalServiceMetrics().slow_queries->Increment();
    const RunReport* report =
        request.options.report != nullptr ? request.options.report
                                          : &slow_report;
    AMDJ_LOG(kWarn) << "slow query: wait=" << wait_seconds
                    << "s exec=" << response.exec_seconds
                    << "s threshold=" << options_.slow_query_seconds
                    << "s report=" << report->ToJson();
  }
  return response;
}

void JoinService::ExecuteRequest(const JoinRequest& request,
                                 const core::JoinOptions& options,
                                 JoinResponse* out) {
  JoinResponse& response = *out;
  if (request.kind == JoinRequest::Kind::kKdj) {
    auto result = core::RunKDistanceJoin(r_, s_, request.k,
                                         request.kdj_algorithm, options,
                                         &response.stats);
    if (!result.ok()) {
      response.status = result.status();
      return;
    }
    response.results = std::move(*result);
    return;
  }

  auto cursor = core::OpenIncrementalJoin(r_, s_, request.idj_algorithm,
                                          options, &response.stats);
  if (!cursor.ok()) {
    response.status = cursor.status();
    return;
  }
  (*cursor)->PrefetchHint(request.k);
  // `k` is caller-controlled; an unclamped reserve(UINT64_MAX) throws
  // std::length_error out of the worker, breaking the "future never
  // carries an exception" contract. The vector still grows to the true
  // result count past the clamp — this only caps the pre-allocation.
  response.results.reserve(static_cast<size_t>(
      std::min<uint64_t>(request.k, uint64_t{1} << 20)));
  for (uint64_t i = 0; i < request.k; ++i) {
    core::ResultPair pair;
    bool done = false;
    const Status status = (*cursor)->Next(&pair, &done);
    if (!status.ok()) {
      response.status = status;
      break;
    }
    if (done) break;
    response.results.push_back(pair);
  }
  // Destroy the cursor before returning: it quiesces the algorithm under
  // this query's attribution scope and finalizes any attached report, so
  // response.stats is complete once the future resolves.
  cursor->reset();
  return;
}

uint64_t JoinService::completed() const {
  const MutexLock lock(&mutex_);
  return completed_;
}

uint32_t JoinService::peak_inflight() const {
  const MutexLock lock(&mutex_);
  return peak_inflight_;
}

uint64_t JoinService::rejected() const {
  const MutexLock lock(&mutex_);
  return rejected_;
}

JoinService::AdmissionSnapshot JoinService::admission_snapshot() const {
  const MutexLock lock(&mutex_);
  AdmissionSnapshot snapshot;
  snapshot.accepted = accepted_;
  snapshot.completed = completed_;
  snapshot.rejected = rejected_;
  snapshot.inflight = inflight_;
  snapshot.queued = queued_;
  snapshot.peak_inflight = peak_inflight_;
  return snapshot;
}

uint64_t JoinService::shared_inflight_hits() const {
  return shared_->inflight_hits();
}

uint64_t JoinService::shared_cache_hits() const {
  return shared_->cache_hits();
}

uint64_t JoinService::shared_seed_hits() const {
  return shared_->seed_hits();
}

uint64_t JoinService::shared_misses() const { return shared_->misses(); }

size_t JoinService::shared_cache_size() const {
  return shared_->cache_size();
}

}  // namespace amdj::service
