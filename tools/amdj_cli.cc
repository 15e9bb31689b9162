// amdj_cli — command-line front end for the distance-join library.
//
//   amdj_cli generate --kind=KIND --n=N --out=FILE [--seed=S]
//       KIND: uniform | rects | clusters | zipf | tiger-streets | tiger-hydro
//   amdj_cli info     --data=FILE
//   amdj_cli join     --r=FILE --s=FILE --k=K [--algo=hs|b|am|sj]
//                     [--metric=l2|l1|linf] [--estimator=uniform|histogram]
//                     [--self] [--limit=N] [--stats]
//                     [--trace=FILE] [--trace-jsonl=FILE]
//                     [--report-json=FILE] [--report]
//   amdj_cli stream   --r=FILE --s=FILE [--batch=N] [--batches=N]
//                     [--algo=hs|am] [--trace=FILE] [--trace-jsonl=FILE]
//                     [--report-json=FILE] [--report]
//
// Observability (see docs/OBSERVABILITY.md):
//   --trace=FILE        write a Chrome trace_event JSON (Perfetto-loadable)
//   --trace-jsonl=FILE  write the same events as one JSON object per line
//   --report-json=FILE  write the per-phase run report as JSON
//   --report            print the run report as an aligned table
//   --log-level=LEVEL   debug|info|warn|error|off (any command; default warn)
//   amdj_cli semijoin --r=FILE --s=FILE [--strategy=idj|nn] [--self]
//                     [--metric=l2|l1|linf] [--limit=N]
//   amdj_cli knn      --data=FILE --x=X --y=Y --k=K [--metric=l2|l1|linf]
//   amdj_cli estimate --r=FILE --s=FILE --k=K
//   amdj_cli batch    --r=FILE --s=FILE --requests=FILE [--inflight=N]
//                     [--budget-kb=KB] [--dedupe] [--shared-cache=N]
//                     [--metric=l2|l1|linf] [--self]
//       replays a request file concurrently through the JoinService. Each
//       non-empty, non-# line of the request file is
//       `<kdj|idj> <hs|b|am|sj> <k>` (IDJ accepts hs|am); requests run
//       with at most N in flight, each with its own attributed stats.
//   amdj_cli serve    --r=FILE --s=FILE [batch flags]
//                     [--requests=FILE]
//                     [--max-queued=N] [--slow-query-ms=MS]
//                     [--metrics-json=FILE] [--metrics-interval-ms=MS]
//       long-running service mode. With --requests it replays the file
//       like `batch`; without it, stdin is a control channel: each line
//       is a request (`<kdj|idj> <algo> <k>`, run synchronously), or
//       `metrics` (print the live metrics snapshot as JSON), `metrics-prom`
//       (Prometheus text), `quit` (exit; EOF also exits). --metrics-json
//       starts a background exporter that atomically rewrites FILE every
//       --metrics-interval-ms (default 1000) and once more on shutdown.
//       --max-queued / --slow-query-ms wire the service admission cap and
//       slow-query log (both also accepted by `batch`).
//       --dedupe piggybacks semantically identical concurrent requests on
//       one execution; --shared-cache=N enables the N-entry semantic
//       result cache + learned eDmax seeding (both off by default; both
//       also accepted by `batch`; see DESIGN.md "Shared-work layer").
//
// Every command rejects a flag it does not read (exit 2, "unknown flag
// --X") before touching any dataset.
//
// Dataset files are produced by `generate` (workload::Dataset binary
// format); files ending in .csv are parsed as x,y or x0,y0,x1,y1 rows
// (see workload::Dataset::FromCsv). Trees are bulk-loaded in memory per
// invocation.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/run_report.h"
#include "common/trace.h"
#include "core/amidj.h"
#include "core/distance_join.h"
#include "core/dmax_estimator.h"
#include "core/histogram_estimator.h"
#include "core/semi_join.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"
#include "service/join_service.h"
#include "cli_request_parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"

namespace amdj::cli {
namespace {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        Fail("unexpected argument: " + arg);
      }
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// True when the flag appeared at all — distinguishes an absent flag
  /// from one given an empty value (GetString returns "" for both).
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string Require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Fail("missing required --" + key);
    return it->second;
  }

  uint64_t GetUint(const std::string& key, uint64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtoull(it->second.c_str(), nullptr,
                                               10);
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }

  bool GetBool(const std::string& key) const {
    return values_.count(key) > 0;
  }

  /// Every flag that appeared, for unknown-flag scans.
  const std::map<std::string, std::string>& values() const { return values_; }

  [[noreturn]] static void Fail(const std::string& message) {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    std::exit(2);
  }

 private:
  std::map<std::string, std::string> values_;
};

void CheckOk(const Status& status) {
  if (!status.ok()) Args::Fail(status.ToString());
}

LogLevel ParseLogLevel(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  Args::Fail("unknown log level " + name + " (debug|info|warn|error|off)");
}

/// Presence-keyed positive-integer flag (same discipline as --log-level):
/// an absent flag returns `fallback`, but a present flag must parse fully
/// as an integer >= 1 — `--metrics-interval-ms=0`, `=-3`, or trailing
/// junk are usage errors, never a silent fall-back to the default.
uint32_t ParsePositiveFlag(const Args& args, const std::string& key,
                           uint32_t fallback) {
  if (!args.Has(key)) return fallback;
  const std::string text = args.GetString(key);
  char* end = nullptr;
  const long long value =
      text.empty() ? 0 : std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || value < 1 ||
      value > std::numeric_limits<uint32_t>::max()) {
    Args::Fail("--" + key + " must be a positive integer, got '" + text +
               "'");
  }
  return static_cast<uint32_t>(value);
}

/// Shared --trace/--trace-jsonl/--report-json/--report handling for the
/// join-running commands: wires the hooks into `options` before the run and
/// serializes after it.
class Observability {
 public:
  explicit Observability(const Args& args)
      : trace_path_(args.GetString("trace")),
        trace_jsonl_path_(args.GetString("trace-jsonl")),
        report_json_path_(args.GetString("report-json")),
        report_table_(args.GetBool("report")) {}

  void Wire(core::JoinOptions* options) {
    if (!trace_path_.empty() || !trace_jsonl_path_.empty()) {
      options->tracer = &tracer_;
    }
    if (!report_json_path_.empty() || report_table_) {
      options->report = &report_;
    }
  }

  /// Call after the join has returned (for stream: after the cursor is
  /// destroyed, which finalizes the report).
  void Emit() {
    if (!trace_path_.empty()) {
      CheckOk(tracer_.ExportChromeTrace(trace_path_));
      std::fprintf(stderr, "wrote %zu trace events to %s\n",
                   tracer_.event_count(), trace_path_.c_str());
    }
    if (!trace_jsonl_path_.empty()) {
      CheckOk(tracer_.ExportJsonl(trace_jsonl_path_));
    }
    if (!report_json_path_.empty()) {
      CheckOk(report_.WriteJsonFile(report_json_path_));
      std::fprintf(stderr, "wrote run report to %s\n",
                   report_json_path_.c_str());
    }
    if (report_table_) {
      std::printf("\n%s", report_.ToTable().c_str());
    }
  }

 private:
  Tracer tracer_;
  RunReport report_;
  std::string trace_path_;
  std::string trace_jsonl_path_;
  std::string report_json_path_;
  bool report_table_;
};

geom::Metric ParseMetric(const std::string& name) {
  if (name == "l2" || name.empty()) return geom::Metric::kL2;
  if (name == "l1") return geom::Metric::kL1;
  if (name == "linf") return geom::Metric::kLInf;
  Args::Fail("unknown metric " + name + " (l2|l1|linf)");
}

workload::Dataset LoadDataset(const std::string& path) {
  const bool csv = path.size() > 4 &&
                   path.compare(path.size() - 4, 4, ".csv") == 0;
  auto ds = csv ? workload::Dataset::FromCsv(path)
                : workload::Dataset::LoadFrom(path);
  if (!ds.ok()) Args::Fail(ds.status().ToString());
  return std::move(*ds);
}

/// In-memory join session over two datasets.
struct Session {
  storage::InMemoryDiskManager disk;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<rtree::RTree> r;
  std::unique_ptr<rtree::RTree> s;
  workload::Dataset r_data;
  workload::Dataset s_data;

  Session(const std::string& r_path, const std::string& s_path) {
    r_data = LoadDataset(r_path);
    s_data = LoadDataset(s_path);
    pool = std::make_unique<storage::BufferPool>(&disk, 2048);
    r = std::move(*rtree::RTree::Create(pool.get(), {}));
    s = std::move(*rtree::RTree::Create(pool.get(), {}));
    CheckOk(r->BulkLoad(r_data.ToEntries()));
    CheckOk(s->BulkLoad(s_data.ToEntries()));
    std::fprintf(stderr, "loaded %s (%zu objects), %s (%zu objects)\n",
                 r_data.name.c_str(), r_data.objects.size(),
                 s_data.name.c_str(), s_data.objects.size());
  }
};

int CmdGenerate(const Args& args) {
  const std::string kind = args.Require("kind");
  const std::string out = args.Require("out");
  const uint64_t n = args.GetUint("n", 10000);
  const uint64_t seed = args.GetUint("seed", 42);
  const double universe = args.GetDouble("universe",
                                         workload::kUniverseSize);
  const geom::Rect uni(0, 0, universe, universe);

  workload::Dataset ds;
  if (kind == "uniform") {
    ds = workload::UniformPoints(n, seed, uni);
  } else if (kind == "rects") {
    ds = workload::UniformRects(n, args.GetDouble("side", 50.0), seed, uni);
  } else if (kind == "clusters") {
    ds = workload::GaussianClusters(
        n, static_cast<uint32_t>(args.GetUint("clusters", 8)),
        args.GetDouble("sigma", 0.03), seed, uni);
  } else if (kind == "zipf") {
    ds = workload::ZipfSkewedPoints(n, args.GetDouble("theta", 0.8), seed,
                                    uni);
  } else if (kind == "tiger-streets" || kind == "tiger-hydro") {
    workload::TigerSynthOptions opts;
    opts.seed = seed;
    if (kind == "tiger-streets") {
      opts.street_segments = n;
      ds = workload::TigerStreets(opts);
    } else {
      opts.hydro_objects = n;
      ds = workload::TigerHydro(opts);
    }
  } else {
    Args::Fail("unknown kind " + kind);
  }
  CheckOk(ds.SaveTo(out));
  std::printf("wrote %zu objects (%s) to %s\n", ds.objects.size(),
              ds.name.c_str(), out.c_str());
  return 0;
}

int CmdInfo(const Args& args) {
  const workload::Dataset ds = LoadDataset(args.Require("data"));
  const geom::Rect b = ds.Bounds();
  std::printf("name:    %s\n", ds.name.c_str());
  std::printf("objects: %zu\n", ds.objects.size());
  std::printf("bounds:  %s\n", b.ToString().c_str());
  double total_area = 0;
  for (const auto& r : ds.objects) total_area += r.Area();
  std::printf("mean object area: %.3f\n",
              ds.objects.empty() ? 0.0 : total_area / ds.objects.size());
  return 0;
}

core::KdjAlgorithm ParseKdj(const std::string& name) {
  if (name == "hs") return core::KdjAlgorithm::kHsKdj;
  if (name == "b") return core::KdjAlgorithm::kBKdj;
  if (name == "am" || name.empty()) return core::KdjAlgorithm::kAmKdj;
  if (name == "sj") return core::KdjAlgorithm::kSjSort;
  Args::Fail("unknown algorithm " + name + " (hs|b|am|sj)");
}

int CmdJoin(const Args& args) {
  // Flag validation fires before any dataset is touched.
  const core::KdjAlgorithm algorithm = ParseKdj(args.GetString("algo", "am"));
  Session session(args.Require("r"), args.Require("s"));
  const uint64_t k = args.GetUint("k", 10);
  core::JoinOptions options;
  options.metric = ParseMetric(args.GetString("metric"));
  options.exclude_same_id = args.GetBool("self");

  std::unique_ptr<core::HistogramEstimator> histogram;
  if (args.GetString("estimator") == "histogram") {
    histogram = std::make_unique<core::HistogramEstimator>(
        session.r_data.objects, session.s_data.objects);
    options.estimator = histogram.get();
  }

  Observability obs(args);
  obs.Wire(&options);

  JoinStats stats;
  auto result = core::RunKDistanceJoin(*session.r, *session.s, k, algorithm,
                                       options, &stats);
  CheckOk(result.status());
  obs.Emit();

  const uint64_t limit = args.GetUint("limit", 10);
  for (size_t i = 0; i < result->size() && i < limit; ++i) {
    const auto& p = (*result)[i];
    std::printf("%6zu  r[%u] <-> s[%u]  dist=%.6f\n", i + 1, p.r_id, p.s_id,
                p.distance);
  }
  if (result->size() > limit) {
    std::printf("... (%zu results total)\n", result->size());
  }
  if (args.GetBool("stats")) {
    std::printf("\n%s\n", stats.ToString().c_str());
  }
  return 0;
}

int CmdStream(const Args& args) {
  Session session(args.Require("r"), args.Require("s"));
  const uint64_t batch = args.GetUint("batch", 10);
  const uint64_t batches = args.GetUint("batches", 5);
  core::JoinOptions options;
  options.metric = ParseMetric(args.GetString("metric"));
  options.exclude_same_id = args.GetBool("self");
  const std::string algo = args.GetString("algo", "am");
  const core::IdjAlgorithm algorithm =
      algo == "hs" ? core::IdjAlgorithm::kHsIdj : core::IdjAlgorithm::kAmIdj;

  Observability obs(args);
  obs.Wire(&options);

  JoinStats stats;
  auto cursor = core::OpenIncrementalJoin(*session.r, *session.s, algorithm,
                                          options, &stats);
  CheckOk(cursor.status());
  core::ResultPair p;
  bool done = false;
  for (uint64_t b = 1; b <= batches && !done; ++b) {
    std::printf("-- batch %" PRIu64 " --\n", b);
    (*cursor)->PrefetchHint(b * batch);
    for (uint64_t i = 0; i < batch; ++i) {
      CheckOk((*cursor)->Next(&p, &done));
      if (done) {
        std::printf("(exhausted)\n");
        break;
      }
      std::printf("  r[%u] <-> s[%u]  dist=%.6f\n", p.r_id, p.s_id,
                  p.distance);
    }
  }
  cursor->reset();  // finalize the report before serializing it
  obs.Emit();
  return 0;
}

int CmdSemiJoin(const Args& args) {
  Session session(args.Require("r"), args.Require("s"));
  core::JoinOptions options;
  options.metric = ParseMetric(args.GetString("metric"));
  options.exclude_same_id = args.GetBool("self");
  const core::SemiJoinStrategy strategy =
      args.GetString("strategy", "idj") == "nn"
          ? core::SemiJoinStrategy::kPerObjectNn
          : core::SemiJoinStrategy::kIncrementalJoin;
  JoinStats stats;
  auto result = core::DistanceSemiJoin(*session.r, *session.s, options,
                                       strategy, &stats);
  CheckOk(result.status());
  const uint64_t limit = args.GetUint("limit", 10);
  for (size_t i = 0; i < result->size() && i < limit; ++i) {
    const auto& p = (*result)[i];
    std::printf("%6zu  r[%u] -> nearest s[%u]  dist=%.6f\n", i + 1, p.r_id,
                p.s_id, p.distance);
  }
  std::printf("(%zu R objects resolved)\n", result->size());
  return 0;
}

int CmdKnn(const Args& args) {
  const workload::Dataset ds = LoadDataset(args.Require("data"));
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool(&disk, 1024);
  auto tree = rtree::RTree::Create(&pool, {}).value();
  CheckOk(tree->BulkLoad(ds.ToEntries()));
  const geom::Point q(args.GetDouble("x", 0), args.GetDouble("y", 0));
  auto result = rtree::NearestNeighbors(
      *tree, q, args.GetUint("k", 5),
      ParseMetric(args.GetString("metric")));
  CheckOk(result.status());
  for (size_t i = 0; i < result->size(); ++i) {
    const auto& e = (*result)[i];
    std::printf("%4zu  obj[%u] %s  dist=%.6f\n", i + 1, e.id,
                e.rect.ToString().c_str(),
                geom::MinDistance(geom::Rect::FromPoint(q), e.rect,
                                  ParseMetric(args.GetString("metric")))
                    .raw());
  }
  return 0;
}

int CmdEstimate(const Args& args) {
  Session session(args.Require("r"), args.Require("s"));
  const uint64_t k = args.GetUint("k", 1000);
  core::DmaxEstimator uniform(session.r->bounds(), session.r->size(),
                              session.s->bounds(), session.s->size());
  core::HistogramEstimator histogram(session.r_data.objects,
                                     session.s_data.objects);
  auto truth = core::ComputeTrueDmax(*session.r, *session.s, k,
                                     core::JoinOptions{});
  CheckOk(truth.status());
  std::printf("k = %" PRIu64 "\n", k);
  std::printf("true Dmax:           %.6f\n", *truth);
  std::printf("Eq. 3 (uniform):     %.6f (%.2fx)\n",
              uniform.InitialEstimate(k).raw(),
              uniform.InitialEstimate(k).raw() / std::max(*truth, 1e-12));
  std::printf("grid histogram:      %.6f (%.2fx)\n",
              histogram.EstimateDmax(k).raw(),
              histogram.EstimateDmax(k).raw() / std::max(*truth, 1e-12));
  return 0;
}

/// Shared service construction for batch/serve.
service::JoinService::Options ServiceOptionsFromArgs(const Args& args) {
  service::JoinService::Options options;
  options.max_inflight = static_cast<uint32_t>(args.GetUint("inflight", 4));
  options.queue_memory_budget_bytes =
      static_cast<size_t>(args.GetUint("budget-kb", 4096)) * 1024;
  options.max_queued = static_cast<uint32_t>(args.GetUint("max-queued", 0));
  options.slow_query_seconds =
      static_cast<double>(args.GetUint("slow-query-ms", 0)) / 1000.0;
  options.dedupe_inflight = args.GetBool("dedupe");
  options.shared_cache_entries =
      static_cast<size_t>(args.GetUint("shared-cache", 0));
  return options;
}

int CmdBatch(const Args& args) {
  Session session(args.Require("r"), args.Require("s"));
  const std::string requests_path = args.Require("requests");

  std::ifstream in(requests_path);
  if (!in) Args::Fail("cannot open request file " + requests_path);
  core::JoinOptions base;
  base.metric = ParseMetric(args.GetString("metric"));
  base.exclude_same_id = args.GetBool("self");
  std::vector<service::JoinRequest> requests;
  std::string line;
  for (size_t lineno = 1; std::getline(in, line); ++lineno) {
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    StatusOr<service::JoinRequest> request = ParseRequestLine(line, lineno);
    CheckOk(request.status());
    request->options = base;
    requests.push_back(std::move(*request));
  }
  if (requests.empty()) Args::Fail("no requests in " + requests_path);

  service::JoinService service(*session.r, *session.s,
                               ServiceOptionsFromArgs(args));
  std::fprintf(stderr,
               "%zu requests, %u in flight, %zu KB queue memory per query\n",
               requests.size(), service.max_inflight(),
               service.per_query_queue_memory_bytes() / 1024);

  Timer wall;
  std::vector<std::future<service::JoinResponse>> futures;
  futures.reserve(requests.size());
  for (const auto& request : requests) {
    futures.push_back(service.Submit(request));
  }
  uint64_t failures = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const service::JoinResponse response = futures[i].get();
    if (!response.status.ok()) {
      ++failures;
      std::printf("%4zu  FAILED: %s\n", i + 1,
                  response.status.ToString().c_str());
      continue;
    }
    std::printf("%4zu  %zu pairs  cpu=%.3fs  waited=%.3fs  "
                "accesses=%" PRIu64 "  hits=%" PRIu64 "\n",
                i + 1, response.results.size(), response.stats.cpu_seconds,
                response.wait_seconds, response.stats.node_accesses,
                response.stats.node_buffer_hits);
  }
  const double elapsed = wall.ElapsedSeconds();
  std::printf("\n%zu queries in %.3fs (%.1f queries/s, peak in-flight %u, "
              "%" PRIu64 " failed)\n",
              requests.size(), elapsed,
              elapsed > 0 ? requests.size() / elapsed : 0.0,
              service.peak_inflight(), failures);
  return failures == 0 ? 0 : 1;
}

/// Background metrics exporter: atomically rewrites `path` with a JSON
/// snapshot of the global registry every `interval_ms`, plus one final
/// snapshot on destruction so short runs still leave a file behind.
class MetricsExporter {
 public:
  MetricsExporter(std::string path, uint64_t interval_ms)
      : path_(std::move(path)), interval_ms_(interval_ms) {
    thread_ = std::thread([this] { Loop(); });
  }

  ~MetricsExporter() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    WriteSnapshot();  // shutdown snapshot: the numbers a CI step scrapes
  }

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

 private:
  void Loop() {
    // Sleep in 50ms slices so shutdown latency stays bounded even with a
    // long export interval.
    uint64_t slept_ms = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      slept_ms += 50;
      if (slept_ms < interval_ms_) continue;
      slept_ms = 0;
      WriteSnapshot();
    }
  }

  void WriteSnapshot() {
    // Write-then-rename: a scraper never observes a torn file.
    const std::string tmp = path_ + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "metrics exporter: cannot write %s\n",
                     tmp.c_str());
        return;
      }
      out << MetricsRegistry::Global()->ToJson() << "\n";
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
      std::fprintf(stderr, "metrics exporter: rename to %s failed\n",
                   path_.c_str());
    }
  }

  const std::string path_;
  const uint64_t interval_ms_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

int CmdServe(const Args& args) {
  // All metrics-flag validation fires before any dataset I/O, so a typo'd
  // invocation fails instantly instead of after minutes of loading.
  const uint64_t metrics_interval_ms =
      ParsePositiveFlag(args, "metrics-interval-ms", 1000);
  if (args.Has("metrics-interval-ms") && !args.Has("metrics-json")) {
    Args::Fail("--metrics-interval-ms requires --metrics-json=FILE");
  }
  std::string metrics_json_path;
  if (args.Has("metrics-json")) {
    metrics_json_path = args.GetString("metrics-json");
    if (metrics_json_path.empty() || metrics_json_path == "true") {
      Args::Fail("--metrics-json needs a file path (--metrics-json=FILE)");
    }
  }

  std::unique_ptr<MetricsExporter> exporter;
  if (!metrics_json_path.empty()) {
    exporter = std::make_unique<MetricsExporter>(metrics_json_path,
                                                 metrics_interval_ms);
  }

  // With --requests, serve is batch plus the exporter wrapped around it.
  if (args.Has("requests")) return CmdBatch(args);

  Session session(args.Require("r"), args.Require("s"));
  core::JoinOptions base;
  base.metric = ParseMetric(args.GetString("metric"));
  base.exclude_same_id = args.GetBool("self");
  service::JoinService service(*session.r, *session.s,
                               ServiceOptionsFromArgs(args));
  std::fprintf(stderr, "serving on stdin (request lines, `metrics`, "
                       "`metrics-prom`, `quit`)\n");

  std::string line;
  size_t lineno = 0;
  while (std::getline(std::cin, line)) {
    ++lineno;
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    const size_t end = line.find_last_not_of(" \t\r");
    const std::string command = line.substr(start, end - start + 1);
    if (command == "quit") break;
    if (command == "metrics") {
      std::printf("%s\n", MetricsRegistry::Global()->ToJson().c_str());
      std::fflush(stdout);
      continue;
    }
    if (command == "metrics-prom") {
      std::printf("%s", MetricsRegistry::Global()->ToPrometheusText().c_str());
      std::fflush(stdout);
      continue;
    }
    StatusOr<service::JoinRequest> request = ParseRequestLine(command, lineno);
    if (!request.ok()) {
      // Non-fatal: a control channel that dies on a typo is useless.
      std::fprintf(stderr, "error: %s\n", request.status().ToString().c_str());
      continue;
    }
    request->options = base;
    const service::JoinResponse response =
        service.Submit(std::move(*request)).get();
    if (!response.status.ok()) {
      std::printf("line %zu  FAILED: %s\n", lineno,
                  response.status.ToString().c_str());
    } else {
      std::printf("line %zu  %zu pairs  exec=%.3fs  waited=%.3fs\n", lineno,
                  response.results.size(), response.exec_seconds,
                  response.wait_seconds);
    }
    std::fflush(stdout);
  }
  std::fprintf(stderr, "served %" PRIu64 " queries (%" PRIu64 " rejected)\n",
               service.completed(), service.rejected());
  return 0;
}

/// One subcommand: its entry point and every flag it reads (--log-level
/// is accepted everywhere). Main rejects any other flag before the
/// command runs, so a typo or another command's flag is a usage error
/// instead of a silently ignored knob.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::vector<std::string> flags;
};

std::vector<std::string> Concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: amdj_cli "
                 "<generate|info|join|stream|batch|serve|semijoin|knn|"
                 "estimate> [--flags]\n(see the header of "
                 "tools/amdj_cli.cc)\n");
    return 2;
  }
  const std::string name = argv[1];
  const Args args(argc, argv);
  // Keyed on flag presence, not value emptiness: `--log-level=` (or any
  // unknown level) is a usage error, never a silent fall-back to the
  // default level.
  if (args.Has("log-level")) {
    SetLogLevel(ParseLogLevel(args.GetString("log-level")));
  }
  const std::vector<std::string> observability = {"trace", "trace-jsonl",
                                                  "report-json", "report"};
  const std::vector<std::string> service = {
      "r", "s", "requests", "metric", "self", "inflight", "budget-kb",
      "max-queued", "slow-query-ms", "dedupe", "shared-cache"};
  const Command commands[] = {
      {"generate", CmdGenerate,
       {"kind", "out", "n", "seed", "universe", "side", "clusters", "sigma",
        "theta"}},
      {"info", CmdInfo, {"data"}},
      {"join", CmdJoin,
       Concat({"r", "s", "k", "algo", "metric", "self", "estimator", "limit",
               "stats"},
              observability)},
      {"stream", CmdStream,
       Concat({"r", "s", "batch", "batches", "algo", "metric", "self"},
              observability)},
      {"batch", CmdBatch, service},
      {"serve", CmdServe,
       Concat(service, {"metrics-json", "metrics-interval-ms"})},
      {"semijoin", CmdSemiJoin,
       {"r", "s", "strategy", "metric", "self", "limit"}},
      {"knn", CmdKnn, {"data", "x", "y", "k", "metric"}},
      {"estimate", CmdEstimate, {"r", "s", "k"}},
  };
  for (const Command& command : commands) {
    if (name != command.name) continue;
    for (const auto& [key, value] : args.values()) {
      if (key == "log-level" ||
          std::find(command.flags.begin(), command.flags.end(), key) !=
              command.flags.end()) {
        continue;
      }
      std::string accepted;
      for (const std::string& flag : command.flags) accepted += " --" + flag;
      Args::Fail("unknown flag --" + key + " (" + name + " accepts" +
                 accepted + " --log-level)");
    }
    return command.run(args);
  }
  Args::Fail("unknown command " + name);
}

}  // namespace
}  // namespace amdj::cli

int main(int argc, char** argv) { return amdj::cli::Main(argc, argv); }
