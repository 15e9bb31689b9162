#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "core/pair_entry.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/dataset.h"

/// \file
/// Shared pieces of the repository benchmark (see README.md): the run's
/// result record, the span log of traced runs, tree set-up, the output
/// check and the statistics helpers. The two workloads live in
/// closed_loop.cc and open_loop.cc.

namespace perfbench {

using amdj::JoinStats;
namespace core = amdj::core;
namespace geom = amdj::geom;
namespace rtree = amdj::rtree;
namespace storage = amdj::storage;
namespace workload = amdj::workload;

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to);

/// Prints `message` to stderr, ends the HostProbe child if there is one
/// and exits with status 2. For set-up failures that leave nothing to
/// measure.
[[noreturn]] void Die(const std::string& message);

/// `s` as a quoted, escaped JSON string.
std::string JsonString(std::string_view s);

/// Uniform double in [0, 1).
double Uniform(std::mt19937_64& rng);

/// Fisher-Yates shuffle, the same on every standard library.
template <typename T>
void Shuffle(std::vector<T>* v, std::mt19937_64& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    const auto j = static_cast<size_t>(Uniform(rng) * static_cast<double>(i));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

/// One run's command line.
struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

/// Everything one run reports. main() prints it as one JSON object.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Extra context for readers (sample counts, percentiles used, ...);
  /// `json_value` must already be valid JSON.
  void Note(const std::string& key, const std::string& json_value);
  /// Marks the run incorrect with a reason.
  void Error(const std::string& message);
  /// The per-request JoinStats work counters, identical on every request
  /// of a deterministic workload; run.py compares them across runs.
  void SetCounters(const JoinStats& stats);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::string ToJson() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> errors_;
  std::string counters_ = "{}";
};

/// In-memory span log of a traced run: one span per call the benchmark
/// makes into a layer, written out once the run ends.
class SpanLog {
 public:
  static constexpr int32_t kNoParent = -1;
  /// Request id of spans outside any request (set-up).
  static constexpr int64_t kNoRequest = -1;

  int32_t Begin(const char* name, int32_t parent, int64_t request);
  void End(int32_t id);
  /// A span whose interval is known only afterwards.
  int32_t Add(const char* name, Clock::time_point start, Clock::time_point end,
              int32_t parent, int64_t request);
  /// Attaches a JSON object of counters to span `id`.
  void Attach(int32_t id, std::string json_object);

  /// Per span name: the summed self time in seconds, each span's duration
  /// minus the part of it its child spans cover.
  std::map<std::string, double> SelfSeconds() const;

  /// One JSON object per line: id, name, parent, request, start_us, end_us
  /// (relative to the log's creation) and the attached counters.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int32_t parent;
    int64_t request;
    std::string args;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span; records nothing when `log` is null (untraced requests).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int32_t parent, int64_t request)
      : log_(log),
        id_(log != nullptr ? log->Begin(name, parent, request)
                           : SpanLog::kNoParent) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

/// One seed's TigerSynth data (kept for the output check) and both
/// R*-trees on an in-memory page file behind an LRU buffer. Not movable:
/// the members must be torn down in reverse order (the buffer flushes to
/// the page file on destruction).
struct Env {
  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  workload::Dataset streets;
  workload::Dataset hydro;
  std::unique_ptr<storage::InMemoryDiskManager> tree_disk;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<rtree::RTree> r;  ///< streets
  std::unique_ptr<rtree::RTree> s;  ///< hydro
};

struct SetupTimes {
  double gen_s = 0.0;
  double bulkload_s = 0.0;
};

/// Generates both data sets at the repository's default scale (120k
/// streets x 36k hydro), numbers their objects in an order drawn from
/// `seed`, and bulk-loads them behind a buffer of `buffer_bytes`. Records
/// workload.gen and rtree.bulkload spans under `parent`.
std::unique_ptr<Env> BuildEnv(uint64_t seed, size_t buffer_bytes,
                              SpanLog* log, int32_t parent,
                              SetupTimes* times);

/// The shared host runs slower for stretches of seconds to minutes, and
/// that moves every wall time of a run alike. HostProbe times a fixed
/// kernel that no library change can move: a priority queue of random
/// keys with 4 KB page copies over a 40 MB array, the resource mix of a
/// spilling join. End-to-end times are scaled by kProbeReferenceMs over
/// the probe's time next to them, which gives them in milliseconds of a
/// host on which the probe takes kProbeReferenceMs (README.md). The
/// kernel runs in a child process, so its memory stays out of this
/// process's peak resident set. Construct it before any thread starts.
class HostProbe {
 public:
  HostProbe();
  /// Ends the child and waits for it.
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Runs the kernel once and returns its wall time in ms.
  double Run();
  /// Median of three Run()s.
  double RunMedian3();

 private:
  int to_child_ = -1;
  int from_child_ = -1;
};

/// The probe's time on the reference host in a fast stretch.
inline constexpr double kProbeReferenceMs = 40.0;

/// The factor that turns a wall time measured between probes of
/// `before_ms` and `after_ms` into reference-host time.
double HostScale(double before_ms, double after_ms);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr size_t kSetupReps = 15;

/// Wall times of every set-up repetition of a run.
struct SetupSamples {
  std::vector<double> total_s;
  /// total_s scaled to the reference host (HostScale).
  std::vector<double> scaled_total_s;
  std::vector<double> gen_s;
  std::vector<double> bulkload_s;

  void Add(double total, double scale, const SetupTimes& times) {
    total_s.push_back(total);
    scaled_total_s.push_back(total * scale);
    gen_s.push_back(times.gen_s);
    bulkload_s.push_back(times.bulkload_s);
  }
};

/// setup_s (untraced runs), or workload.gen_s, rtree.bulkload_s and
/// rtree.pages (traced runs).
void AddSetupMetrics(Result* result, const SetupSamples& samples,
                     const Env& env, bool trace);

/// The distances of HS-KDJ's answer at `k_max` on `seed`'s data: the
/// reference of the output check. HS-KDJ does no plane sweep, so it is an
/// independent code path. It runs in a child process on its own copy of
/// the data, so that its memory never enters this process's peak resident
/// set. Call it before any thread starts: the child forks from this one.
std::vector<double> ReferenceDistances(uint64_t seed, uint64_t k_max);

/// Checks join answers against the ReferenceDistances of the run's seed at
/// the largest k the run asks for.
class OutputChecker {
 public:
  OutputChecker(const Env& env, std::vector<double> reference)
      : env_(env), reference_(std::move(reference)) {}

  /// Empty when `pairs` is a correct answer for `k`, else the first
  /// violation: wrong count, a distance that differs bit-for-bit from the
  /// reference prefix or from the recomputed distance of its two objects,
  /// an unknown object id, or a repeated (r_id, s_id).
  std::string Check(const std::vector<core::ResultPair>& pairs,
                    uint64_t k);

 private:
  const Env& env_;
  std::vector<double> reference_;
  std::vector<uint64_t> ids_;  ///< reused buffer for the repeat check
};

/// Empty when every work counter of `actual` equals `expected`, else the
/// first counter that differs. Time-valued fields are skipped.
std::string CompareCounters(const JoinStats& expected,
                            const JoinStats& actual);

/// `p`-th percentile (0..100) of `values`, linearly interpolated.
double Percentile(std::vector<double> values, double p);

/// The highest of p50/p80/p90/p99/p99.9 with at least 10 of `n` samples
/// beyond it: p90 from 100 samples, p99 from 1,000. The coarse ladder
/// keeps the percentile fixed while the sample count drifts between runs,
/// and leaves more than 10 samples beyond it for most counts.
double TailPercentile(size_t n);

/// Adds the storage/queue/core per-layer metrics from the sum of `n`
/// requests' JoinStats (peak fields hold the maximum) and their summed
/// simulated I/O seconds.
void AddJoinLayerMetrics(Result* result, const JoinStats& sum, uint64_t n,
                         double sim_io_s);

/// Adds the service-layer metrics with value 0 for workloads that call the
/// library directly; repeat_share is still measured.
void AddBypassedServiceMetrics(Result* result, double repeat_share);

/// Adds a self.<span>_ms per-layer metric for every span name the
/// benchmark records: self time per set-up for set-up spans, per traced
/// request for the others, 0 for spans the workload never records.
void AddSelfTimeMetrics(Result* result, const SpanLog& log,
                        uint64_t traced_requests);

/// Peak resident set of this process, MB.
double PeakRssMb();

/// The workloads; README.md says why each exists.
void RunKdjCold(const Args& args, HostProbe* probe, Result* result);
void RunSvcOpen(const Args& args, HostProbe* probe, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
