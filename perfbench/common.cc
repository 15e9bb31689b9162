#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <queue>
#include <string_view>

#include "core/distance_join.h"
#include "geom/metric.h"
#include "perfbench.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

/// The HostProbe child, or 0; Die() ends it.
pid_t probe_child = 0;

void EndProbeChild() {
  if (probe_child <= 0) return;
  kill(probe_child, SIGKILL);
  while (waitpid(probe_child, nullptr, 0) < 0 && errno == EINTR) {
  }
  probe_child = 0;
}

/// Reads exactly `n` bytes; false on end of file or error.
bool ReadFull(int fd, char* data, size_t n) {
  while (n > 0) {
    const ssize_t done = read(fd, data, n);
    if (done < 0 && errno == EINTR) continue;
    if (done <= 0) return false;
    data += done;
    n -= static_cast<size_t>(done);
  }
  return true;
}

bool WriteFull(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t done = write(fd, data, n);
    if (done < 0 && errno == EINTR) continue;
    if (done <= 0) return false;
    data += done;
    n -= static_cast<size_t>(done);
  }
  return true;
}

constexpr uint64_t kProbeInsertions = 200'000;
constexpr size_t kProbePages = 10'000;  // 40 MB

/// The probe's kernel: kProbeInsertions pushes of random keys into a
/// priority queue with a pop after every third and a random page copy
/// after every 40th, then a full drain.
double ProbeKernel(std::vector<char>* pages) {
  std::mt19937_64 rng(1);
  std::priority_queue<std::pair<double, uint64_t>> queue;
  std::vector<char> page(storage::kPageSize);
  double sum = 0.0;
  for (uint64_t i = 0; i < kProbeInsertions; ++i) {
    queue.emplace(static_cast<double>(rng() >> 11), i);
    if (i % 40 == 0) {
      const size_t from = rng() % kProbePages, to = rng() % kProbePages;
      std::memcpy(page.data(), pages->data() + from * storage::kPageSize,
                  storage::kPageSize);
      std::memcpy(pages->data() + to * storage::kPageSize, page.data(),
                  storage::kPageSize);
    }
    if (i % 3 == 0) {
      sum += queue.top().first;
      queue.pop();
    }
  }
  while (!queue.empty()) {
    sum += queue.top().first;
    queue.pop();
  }
  return sum;
}

[[noreturn]] void ProbeChildMain(int requests, int replies) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::vector<char> pages(kProbePages * storage::kPageSize, 1);
  volatile double sink = 0.0;
  char request;
  while (ReadFull(requests, &request, 1)) {
    const Clock::time_point start = Clock::now();
    sink = sink + ProbeKernel(&pages);
    const double ms = SecondsBetween(start, Clock::now()) * 1e3;
    if (!WriteFull(replies, reinterpret_cast<const char*>(&ms), sizeof(ms))) {
      break;
    }
  }
  _exit(0);
}

}  // namespace

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  EndProbeChild();
  std::exit(2);
}

HostProbe::HostProbe() {
  int requests[2], replies[2];
  if (pipe(requests) != 0 || pipe(replies) != 0) Die("pipe failed");
  const pid_t child = fork();
  if (child < 0) Die("fork failed");
  if (child == 0) {
    close(requests[1]);
    close(replies[0]);
    ProbeChildMain(requests[0], replies[1]);
  }
  close(requests[0]);
  close(replies[1]);
  probe_child = child;
  to_child_ = requests[1];
  from_child_ = replies[0];
}

HostProbe::~HostProbe() {
  close(to_child_);  // the child sees end of file and exits
  close(from_child_);
  while (probe_child > 0 && waitpid(probe_child, nullptr, 0) < 0 &&
         errno == EINTR) {
  }
  probe_child = 0;
}

double HostProbe::Run() {
  const char request = 'r';
  double ms = 0.0;
  if (!WriteFull(to_child_, &request, 1) ||
      !ReadFull(from_child_, reinterpret_cast<char*>(&ms), sizeof(ms))) {
    Die("the host probe process failed");
  }
  return ms;
}

double HostProbe::RunMedian3() {
  std::vector<double> ms = {Run(), Run(), Run()};
  return Percentile(std::move(ms), 50);
}

double HostScale(double before_ms, double after_ms) {
  return kProbeReferenceMs / (0.5 * (before_ms + after_ms));
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Time-valued JoinStats fields differ run to run by nature; every other
/// field is a work counter of a deterministic join.
bool IsTimeField(std::string_view name) {
  for (const std::string_view suffix : {"_seconds", "_ns", "_us", "_ms"}) {
    if (name.size() >= suffix.size() &&
        name.substr(name.size() - suffix.size()) == suffix) {
      return true;
    }
  }
  return false;
}

}  // namespace

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Entry{value, unit};
}

void Result::Note(const std::string& key, const std::string& json_value) {
  notes_[key] = json_value;
}

void Result::Error(const std::string& message) {
  // A systematic failure repeats on every request; a few instances name it.
  if (errors_.size() < 20) errors_.push_back(message);
}

void Result::SetCounters(const JoinStats& stats) {
  std::string out = "{";
  amdj::ForEachJoinStatsField(
      stats, [&out](const char* name, const auto& field, amdj::StatFieldKind) {
        if (IsTimeField(name)) return;
        if (out.size() > 1) out += ',';
        out += JsonString(name) + ':' + JsonNumber(static_cast<double>(field));
      });
  counters_ = out + '}';
}

std::string Result::ToJson() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"errors\":[";
  for (size_t i = 0; i < errors_.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonString(errors_[i]);
  }
  out += "],\"counters\":" + counters_ + ",\"notes\":{";
  bool first = true;
  for (const auto& [key, value] : notes_) {
    if (!first) out += ',';
    first = false;
    out += JsonString(key) + ':' + value;
  }
  out += "},\"metrics\":{";
  first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) out += ',';
    first = false;
    out += JsonString(name) + ":{\"value\":" + JsonNumber(entry.value) +
           ",\"unit\":" + JsonString(entry.unit) + '}';
  }
  return out + "}}";
}

int32_t SpanLog::Begin(const char* name, int32_t parent, int64_t request) {
  const Clock::time_point now = Clock::now();
  return Add(name, now, now, parent, request);
}

void SpanLog::End(int32_t id) { spans_[id].end = Clock::now(); }

int32_t SpanLog::Add(const char* name, Clock::time_point start,
                     Clock::time_point end, int32_t parent, int64_t request) {
  spans_.push_back(Span{name, start, end, parent, request, {}});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Attach(int32_t id, std::string json_object) {
  spans_[id].args = std::move(json_object);
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  std::vector<std::vector<int32_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent) {
      children[spans_[i].parent].push_back(static_cast<int32_t>(i));
    }
  }
  std::map<std::string, double> out;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to this span.
    covered.clear();
    for (const int32_t c : children[i]) {
      const auto start = std::max(spans_[c].start, span.start);
      const auto end = std::min(spans_[c].end, span.end);
      if (start < end) covered.emplace_back(start, end);
    }
    std::sort(covered.begin(), covered.end());
    double child_seconds = 0.0;
    Clock::time_point reach = span.start;
    for (const auto& [start, end] : covered) {
      const auto from = std::max(start, reach);
      if (end > from) {
        child_seconds += SecondsBetween(from, end);
        reach = end;
      }
    }
    out[span.name] += SecondsBetween(span.start, span.end) - child_seconds;
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"request\":%lld,"
                 "\"start_us\":%.3f,\"end_us\":%.3f%s%s}\n",
                 i, span.name, span.parent,
                 static_cast<long long>(span.request), us(span.start),
                 us(span.end), span.args.empty() ? "" : ",\"counters\":",
                 span.args.c_str());
  }
  return std::fclose(f) == 0;
}

double Uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::unique_ptr<Env> BuildEnv(uint64_t seed, size_t buffer_bytes,
                              SpanLog* log, int32_t parent,
                              SetupTimes* times) {
  auto env = std::make_unique<Env>();
  {
    const ScopedSpan span(log, "workload.gen", parent, SpanLog::kNoRequest);
    const Clock::time_point start = Clock::now();
    // Every seed joins the same geometry, TigerSynth at its default seed;
    // the seed shuffles the object order, which renumbers the objects and
    // changes the trees and every tie-break. README.md says why.
    const workload::TigerSynthOptions options;
    env->streets = workload::TigerStreets(options);
    env->hydro = workload::TigerHydro(options);
    std::seed_seq seq{seed};
    std::mt19937_64 rng(seq);
    Shuffle(&env->streets.objects, rng);
    Shuffle(&env->hydro.objects, rng);
    times->gen_s = SecondsBetween(start, Clock::now());
  }
  const ScopedSpan span(log, "rtree.bulkload", parent, SpanLog::kNoRequest);
  const Clock::time_point start = Clock::now();
  env->tree_disk = std::make_unique<storage::InMemoryDiskManager>();
  env->pool = std::make_unique<storage::BufferPool>(
      env->tree_disk.get(),
      std::max<size_t>(8, buffer_bytes / storage::kPageSize));
  auto r = rtree::RTree::Create(env->pool.get(), rtree::RTree::Options());
  auto s = rtree::RTree::Create(env->pool.get(), rtree::RTree::Options());
  if (!r.ok() || !s.ok()) Die("RTree::Create failed");
  env->r = std::move(*r);
  env->s = std::move(*s);
  amdj::Status status = env->r->BulkLoad(env->streets.ToEntries());
  if (status.ok()) status = env->s->BulkLoad(env->hydro.ToEntries());
  if (!status.ok()) Die("BulkLoad failed: " + status.ToString());
  times->bulkload_s = SecondsBetween(start, Clock::now());
  return env;
}

std::vector<double> ReferenceDistances(uint64_t seed, uint64_t k_max) {
  int fds[2];
  if (pipe(fds) != 0) Die("pipe failed");
  const pid_t child = fork();
  if (child < 0) Die("fork failed");
  if (child == 0) {
    close(fds[0]);
    probe_child = 0;  // the parent's to end
    // A buffer that holds both trees: the reference needs no cold start.
    SetupTimes times;
    const std::unique_ptr<Env> env =
        BuildEnv(seed, 8 * 1024 * 1024, nullptr, SpanLog::kNoParent, &times);
    storage::InMemoryDiskManager spill;
    core::JoinOptions options;
    options.queue_disk = &spill;
    auto pairs = core::RunKDistanceJoin(
        *env->r, *env->s, k_max, core::KdjAlgorithm::kHsKdj, options, nullptr);
    if (!pairs.ok()) {
      std::fprintf(stderr, "perfbench: HS-KDJ reference failed: %s\n",
                   pairs.status().ToString().c_str());
      _exit(1);
    }
    std::vector<double> distances;
    distances.reserve(pairs->size());
    for (const core::ResultPair& pair : *pairs) {
      distances.push_back(pair.distance);
    }
    _exit(WriteFull(fds[1], reinterpret_cast<const char*>(distances.data()),
                    distances.size() * sizeof(double))
              ? 0
              : 1);
  }
  close(fds[1]);
  std::vector<char> bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      bytes.size() % sizeof(double) != 0) {
    Die("the HS-KDJ reference process failed");
  }
  std::vector<double> distances(bytes.size() / sizeof(double));
  std::memcpy(distances.data(), bytes.data(), bytes.size());
  return distances;
}

std::string OutputChecker::Check(const std::vector<core::ResultPair>& pairs,
                                 uint64_t k) {
  const auto fail = [](const char* what, size_t i) {
    return std::string(what) + " at pair " + std::to_string(i);
  };
  if (pairs.size() != k) {
    return "expected " + std::to_string(k) + " pairs, got " +
           std::to_string(pairs.size());
  }
  if (k > reference_.size()) return "k exceeds the reference";
  ids_.clear();
  for (size_t i = 0; i < pairs.size(); ++i) {
    const core::ResultPair& pair = pairs[i];
    const uint64_t bits = std::bit_cast<uint64_t>(pair.distance);
    if (bits != std::bit_cast<uint64_t>(reference_[i])) {
      return fail("distance differs from the HS-KDJ reference", i);
    }
    if (pair.r_id >= env_.streets.objects.size() ||
        pair.s_id >= env_.hydro.objects.size()) {
      return fail("unknown object id", i);
    }
    const geom::DistVal recomputed = geom::KeyToDistance(
        geom::MinDistanceKey(env_.streets.objects[pair.r_id],
                             env_.hydro.objects[pair.s_id], geom::Metric::kL2),
        geom::Metric::kL2);
    if (bits != std::bit_cast<uint64_t>(recomputed.raw())) {
      return fail("distance differs from its objects' distance", i);
    }
    ids_.push_back(uint64_t{pair.r_id} << 32 | pair.s_id);
  }
  std::sort(ids_.begin(), ids_.end());
  if (std::adjacent_find(ids_.begin(), ids_.end()) != ids_.end()) {
    return "an (r_id, s_id) pair repeats";
  }
  return {};
}

std::string CompareCounters(const JoinStats& expected,
                            const JoinStats& actual) {
  std::string drift;
  amdj::ForEachJoinStatsFieldPair(
      expected, actual,
      [&drift](const char* name, const auto& want, const auto& got,
               amdj::StatFieldKind) {
        if (!drift.empty() || IsTimeField(name) || want == got) return;
        drift = std::string("counter ") + name + " drifted: " +
                JsonNumber(static_cast<double>(want)) + " then " +
                JsonNumber(static_cast<double>(got));
      });
  return drift;
}

void AddSetupMetrics(Result* result, const SetupSamples& samples,
                     const Env& env, bool trace) {
  if (!trace) {
    result->Metric("setup_s", Percentile(samples.scaled_total_s, 50), "s");
    result->Note("wall_setup_s", std::to_string(Percentile(samples.total_s, 50)));
    return;
  }
  result->Metric("workload.gen_s", Percentile(samples.gen_s, 50), "s");
  result->Metric("rtree.bulkload_s", Percentile(samples.bulkload_s, 50), "s");
  result->Metric("rtree.pages", env.tree_disk->PageCount(), "count");
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] + (pos - static_cast<double>(lo)) *
                          (values[lo + 1] - values[lo]);
}

double TailPercentile(size_t n) {
  if (n >= 10'000) return 99.9;
  if (n >= 1'000) return 99.0;
  if (n >= 100) return 90.0;
  if (n >= 50) return 80.0;
  return 50.0;
}

void AddJoinLayerMetrics(Result* result, const JoinStats& sum, uint64_t n,
                         double sim_io_s) {
  const double requests = static_cast<double>(std::max<uint64_t>(n, 1));
  const auto mean = [requests](uint64_t total) {
    return static_cast<double>(total) / requests;
  };
  const double pairs = static_cast<double>(std::max<uint64_t>(sum.pairs_produced, 1));
  result->Metric("storage.node_accesses", mean(sum.node_accesses), "count");
  result->Metric("storage.disk_reads", mean(sum.node_disk_reads), "count");
  result->Metric("storage.hit_ratio",
                 sum.node_accesses == 0
                     ? 0.0
                     : static_cast<double>(sum.node_buffer_hits) /
                           static_cast<double>(sum.node_accesses),
                 "ratio");
  result->Metric("storage.sim_io_s", sim_io_s / requests, "s");
  result->Metric("queue.insertions", mean(sum.main_queue_insertions), "count");
  result->Metric("queue.insertions_per_pair",
                 static_cast<double>(sum.main_queue_insertions) / pairs,
                 "ratio");
  result->Metric("queue.page_writes", mean(sum.queue_page_writes), "count");
  result->Metric("queue.page_reads", mean(sum.queue_page_reads), "count");
  result->Metric("queue.splits", mean(sum.queue_splits), "count");
  result->Metric("queue.swapins", mean(sum.queue_swapins), "count");
  result->Metric("queue.peak_size",
                 static_cast<double>(sum.main_queue_peak_size), "count");
  result->Metric("queue.comp_insertions",
                 mean(sum.compensation_queue_insertions), "count");
  result->Metric("core.real_dist", mean(sum.real_distance_computations),
                 "count");
  result->Metric("core.axis_dist", mean(sum.axis_distance_computations),
                 "count");
  result->Metric("core.dist_per_pair",
                 static_cast<double>(sum.real_distance_computations +
                                     sum.axis_distance_computations) /
                     pairs,
                 "ratio");
  result->Metric("core.expansions", mean(sum.node_expansions), "count");
  result->Metric("core.dq_insertions", mean(sum.distance_queue_insertions),
                 "count");
}

void AddBypassedServiceMetrics(Result* result, double repeat_share) {
  for (const char* name :
       {"service.submit_us_p50", "service.submit_us_tail"}) {
    result->Metric(name, 0.0, "us");
  }
  for (const char* name :
       {"service.gen_lag_ms_p99", "service.gen_lag_ms_max",
        "service.wait_ms_p50", "service.wait_ms_tail", "service.exec_ms_p50",
        "service.exec_ms_tail", "service.exec_small_ms"}) {
    result->Metric(name, 0.0, "ms");
  }
  result->Metric("service.utilization", 0.0, "ratio");
  for (const char* name : {"service.backlog_max", "service.peak_inflight",
                           "service.rejected"}) {
    result->Metric(name, 0.0, "count");
  }
  result->Metric("service.repeat_share", repeat_share, "ratio");
}

void AddSelfTimeMetrics(Result* result, const SpanLog& log,
                        uint64_t traced_requests) {
  static constexpr struct {
    const char* span;
    bool per_setup;
  } kSpans[] = {
      {"workload.gen", true},    {"rtree.bulkload", true},
      {"service.start", true},   {"storage.warm", true},
      {"request", false},        {"storage.clear", false},
      {"core.kdj", false},       {"service.submit", false},
      {"service.wait", false},   {"service.exec", false},
  };
  const std::map<std::string, double> self = log.SelfSeconds();
  for (const auto& [span, per_setup] : kSpans) {
    const auto it = self.find(span);
    const double divisor = static_cast<double>(
        per_setup ? kSetupReps : std::max<uint64_t>(traced_requests, 1));
    result->Metric(std::string("self.") + span + "_ms",
                   it == self.end() ? 0.0 : it->second * 1e3 / divisor, "ms");
  }
}

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace perfbench
