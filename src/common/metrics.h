#ifndef AMDJ_COMMON_METRICS_H_
#define AMDJ_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace amdj {

/// Live metrics layer: a process-wide registry of counters, gauges and
/// latency histograms that a long-running JoinService can expose *while*
/// queries execute — the always-on complement to the one-shot, per-query
/// Tracer/RunReport pair (see docs/OBSERVABILITY.md).
///
/// Design contract, in order of importance:
///
///   1. *Never* changes join results. Metrics observe; they are not
///      consulted by any algorithm. Guarded by the metrics-on == metrics-off
///      byte-identity test in metrics_test.cc.
///   2. Cheap enough to leave compiled in: the update hot paths are
///      lock-free (per-thread-sharded relaxed atomics for counters/gauges,
///      one relaxed fetch_add into a log bucket for histograms), and a
///      single relaxed bool load short-circuits everything when metrics
///      are disabled (AMDJ_METRICS=0). The <2% wall budget on fig10/fig11
///      is enforced by scripts/check_bench_regression.py in CI.
///   3. Reads are exact-at-a-point: Value()/TakeSnapshot() aggregate the
///      shards on demand. Registration (rare) locks an amdj::Mutex; metric
///      pointers returned by the registry are stable for the process
///      lifetime, so call sites resolve them once and cache.
///
/// Naming scheme (enforced by convention, documented in
/// docs/OBSERVABILITY.md): `amdj_<component>_<what>[_<unit>]`, labels only
/// from small closed sets (algorithm, stage, pool name) — never query ids,
/// object ids or anything unbounded.

namespace metrics_internal {

/// Shard count for per-thread striping (power of two). 16 slots keeps a
/// Counter at one KiB while making same-cache-line contention between two
/// running queries unlikely.
inline constexpr size_t kShards = 16;

struct alignas(64) PaddedU64 {
  std::atomic<uint64_t> v{0};
};
struct alignas(64) PaddedI64 {
  std::atomic<int64_t> v{0};
};

extern std::atomic<bool> g_enabled;
extern std::atomic<size_t> g_next_thread_slot;

/// Stable per-thread shard index in [0, kShards): threads are assigned
/// round-robin on first use, so two long-lived workers almost never share
/// a slot.
inline size_t ThisThreadShard() {
  thread_local const size_t slot =
      g_next_thread_slot.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

}  // namespace metrics_internal

/// Global on/off switch. Defaults to on; the environment variable
/// AMDJ_METRICS=0 (or "false"/"off") disables it at process start — the
/// knob the overhead A/B benchmark runs flip. A relaxed load: toggling
/// mid-flight is safe but gauges incremented while on and decremented
/// while off (or vice versa) will drift, so tests that toggle should use
/// fresh metric objects or tolerate skew.
inline bool MetricsEnabled() {
  return metrics_internal::g_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);

/// Steady-clock nanoseconds since an arbitrary epoch (histogram unit).
inline uint64_t MetricsNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonically increasing event count. Lock-free: each thread adds into
/// its own cache-line-padded shard; Value() sums the shards.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    if (!MetricsEnabled()) return;
    shards_[metrics_internal::ThisThreadShard()].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  metrics_internal::PaddedU64 shards_[metrics_internal::kShards];
};

/// Instantaneous signed level (in-flight queries, queued requests, busy
/// workers). Same sharded representation as Counter; the level is the sum of
/// per-shard deltas, so Add/Sub from any thread balance globally.
class Gauge {
 public:
  void Add(int64_t n) {
    if (!MetricsEnabled()) return;
    shards_[metrics_internal::ThisThreadShard()].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  void Decrement() { Add(-1); }

  int64_t Value() const {
    int64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  friend class MetricsRegistry;
  friend class ScopedGauge;
  Gauge() = default;
  metrics_internal::PaddedI64 shards_[metrics_internal::kShards];
};

/// Increments `gauge` for the enclosing scope — but only pairs the
/// decrement with an increment that actually happened, so a mid-scope
/// toggle of the global flag cannot leave the gauge skewed.
class ScopedGauge {
 public:
  explicit ScopedGauge(Gauge* gauge) : gauge_(gauge) {
    if (gauge_ != nullptr && MetricsEnabled()) {
      gauge_->Add(1);
    } else {
      gauge_ = nullptr;
    }
  }
  ~ScopedGauge() {
    // Bypass the enabled check: the increment happened, the decrement must.
    if (gauge_ != nullptr) {
      gauge_->shards_[metrics_internal::ThisThreadShard()].v.fetch_add(
          -1, std::memory_order_relaxed);
    }
  }

  ScopedGauge(const ScopedGauge&) = delete;
  ScopedGauge& operator=(const ScopedGauge&) = delete;

 private:
  Gauge* gauge_;
};

/// Log-bucketed histogram of uint64 values (canonically nanoseconds).
///
/// Bucketing: values 0..15 get exact unit buckets; from 16 up, each
/// power-of-two octave is split into 16 linear sub-buckets. A bucket's
/// width is therefore at most 1/16 of its lower bound, so the percentile
/// read off the bucket midpoint carries a bounded relative error of
/// 1/32 ≈ 3.2% (verified against exact sorted-sample percentiles by the
/// randomized differential test in metrics_test.cc).
///
/// Updates are one relaxed fetch_add on the value's bucket plus one on a
/// per-thread sum shard — lock-free, no allocation. Snapshots copy the
/// bucket array with relaxed loads; a snapshot taken mid-update is a valid
/// (slightly stale) distribution, never a torn one.
class Histogram {
 public:
  static constexpr int kSubBits = 4;  ///< 16 sub-buckets per octave.
  /// Buckets 0..15 exact, then 16 per octave for octaves 4..63.
  static constexpr size_t kNumBuckets = 16 + (64 - kSubBits) * 16;

  void Observe(uint64_t value) {
    if (!MetricsEnabled()) return;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_shards_[metrics_internal::ThisThreadShard()].v.fetch_add(
        value, std::memory_order_relaxed);
  }

  /// Point-in-time copy of the distribution with exact rank-based
  /// percentile extraction over the bucket boundaries.
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::vector<uint64_t> buckets;  ///< kNumBuckets counts.

    /// Value at quantile q in [0, 1]: walks the buckets to the exact rank
    /// ceil(q * count) and returns that bucket's midpoint. 0 when empty.
    double Percentile(double q) const;
    /// Upper edge of the highest non-empty bucket (an upper bound on the
    /// maximum observed value). 0 when empty.
    uint64_t MaxUpperBound() const;
  };

  Snapshot TakeSnapshot() const;
  uint64_t Count() const { return TakeSnapshot().count; }

  /// Bucket geometry (exposed for tests and exposition).
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(size_t index);
  static uint64_t BucketWidth(size_t index);

 private:
  friend class MetricsRegistry;
  Histogram() = default;
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  metrics_internal::PaddedU64 sum_shards_[metrics_internal::kShards];
};

/// Records the scope's wall time (steady clock, nanoseconds) into a
/// histogram on destruction. A null histogram or disabled metrics makes
/// construction and destruction each a single branch.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr && MetricsEnabled()) {
      start_ = MetricsNowNanos();
    } else {
      histogram_ = nullptr;
    }
  }
  ~ScopedLatencyTimer() {
    if (histogram_ != nullptr) {
      histogram_->Observe(MetricsNowNanos() - start_);
    }
  }

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_ = 0;
};

/// Owner and name directory of every metric. Get* registers on first use
/// (under an amdj::Mutex — registration is rare and cold) and returns a
/// pointer that stays valid for the registry's lifetime; call sites cache
/// it. Identity is (name, labels): two call sites asking for the same pair
/// share one metric.
///
/// `labels` is a raw Prometheus label-pair string without braces, e.g.
/// `algorithm="am-kdj"` or `stage="probe",phase="0"` — empty for none.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation point uses.
  /// Tests build private registries to stay isolated.
  static MetricsRegistry* Global();

  Counter* GetCounter(const std::string& name, const std::string& labels = "",
                      const std::string& help = "") AMDJ_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name, const std::string& labels = "",
                  const std::string& help = "") AMDJ_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name,
                          const std::string& labels = "",
                          const std::string& help = "") AMDJ_EXCLUDES(mu_);

  /// Prometheus text exposition format. Counters and gauges verbatim;
  /// histograms as summaries (quantile label, `_sum`, `_count`) — the
  /// bucket array is too fine to ship, the quantiles are what dashboards
  /// want and they are computed exactly here, not downstream.
  std::string ToPrometheusText() const AMDJ_EXCLUDES(mu_);

  /// One JSON object (schema "amdj-metrics-v1"): counters, gauges, and
  /// histograms with count/sum/p50/p95/p99/p999/max_le.
  std::string ToJson() const AMDJ_EXCLUDES(mu_);

 private:
  struct Key {
    std::string name;
    std::string labels;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };
  template <typename T>
  struct Entry {
    std::unique_ptr<T> metric;
    std::string help;
  };

  mutable Mutex mu_;
  std::map<Key, Entry<Counter>> counters_ AMDJ_GUARDED_BY(mu_);
  std::map<Key, Entry<Gauge>> gauges_ AMDJ_GUARDED_BY(mu_);
  std::map<Key, Entry<Histogram>> histograms_ AMDJ_GUARDED_BY(mu_);
};

}  // namespace amdj

#endif  // AMDJ_COMMON_METRICS_H_
