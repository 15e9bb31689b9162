#include "bench_common.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/run_report.h"
#include "rtree/entry.h"

namespace amdj::bench {

BenchConfig BenchConfig::FromArgs(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t v = 0;
    if (std::sscanf(arg, "--streets=%" SCNu64, &v) == 1) {
      config.streets = v;
    } else if (std::sscanf(arg, "--hydro=%" SCNu64, &v) == 1) {
      config.hydro = v;
    } else if (std::sscanf(arg, "--buffer=%" SCNu64, &v) == 1) {
      config.buffer_bytes = v;
    } else if (std::sscanf(arg, "--memory=%" SCNu64, &v) == 1) {
      config.memory_bytes = v;
    } else if (std::sscanf(arg, "--seed=%" SCNu64, &v) == 1) {
      config.seed = v;
    } else if (std::strcmp(arg, "--quick") == 0) {
      config.streets /= 10;
      config.hydro /= 10;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      std::exit(2);
    }
  }
  return config;
}

core::JoinOptions BenchEnv::MakeJoinOptions() const {
  core::JoinOptions options;
  options.queue_memory_bytes = config.memory_bytes;
  options.queue_disk = queue_disk.get();
  return options;
}

BenchEnv MakeTigerEnv(const BenchConfig& config) {
  BenchEnv env;
  env.config = config;
  env.tree_disk = std::make_unique<storage::InMemoryDiskManager>();
  env.queue_disk = std::make_unique<storage::InMemoryDiskManager>();
  env.pool = std::make_unique<storage::BufferPool>(
      env.tree_disk.get(),
      std::max<size_t>(8, config.buffer_bytes / storage::kPageSize));

  workload::TigerSynthOptions wopts;
  wopts.street_segments = config.streets;
  wopts.hydro_objects = config.hydro;
  wopts.seed = config.seed;
  const workload::Dataset streets = workload::TigerStreets(wopts);
  const workload::Dataset hydro = workload::TigerHydro(wopts);

  rtree::RTree::Options topts;
  auto streets_tree = rtree::RTree::Create(env.pool.get(), topts);
  AMDJ_CHECK(streets_tree.ok()) << streets_tree.status().ToString();
  env.streets = std::move(*streets_tree);
  auto hydro_tree = rtree::RTree::Create(env.pool.get(), topts);
  AMDJ_CHECK(hydro_tree.ok()) << hydro_tree.status().ToString();
  env.hydro = std::move(*hydro_tree);

  Status s = env.streets->BulkLoad(streets.ToEntries());
  AMDJ_CHECK(s.ok()) << s.ToString();
  s = env.hydro->BulkLoad(hydro.ToEntries());
  AMDJ_CHECK(s.ok()) << s.ToString();
  return env;
}

namespace {

/// Snapshot + cold-start shared by the Run*Cold helpers.
struct ColdRun {
  storage::DiskStats tree_before;
  storage::DiskStats queue_before;
  std::chrono::steady_clock::time_point start;

  explicit ColdRun(BenchEnv& env) {
    const Status s = env.pool->Clear();
    AMDJ_CHECK(s.ok()) << s.ToString();
    tree_before = env.tree_disk->stats();
    queue_before = env.queue_disk->stats();
    start = std::chrono::steady_clock::now();
  }

  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  void Finish(BenchEnv& env, JoinStats* stats) const {
    const core::CostModel model;
    stats->simulated_io_seconds =
        model.Seconds(core::CostModel::Delta(tree_before,
                                             env.tree_disk->stats())) +
        model.Seconds(core::CostModel::Delta(queue_before,
                                             env.queue_disk->stats()));
  }
};

/// When AMDJ_BENCH_JSON names a file, every measured run appends one JSON
/// line there: {"bench","algorithm","k","wall_ms", the legacy top-level
/// keys "node_accesses"/"distance_computations"/"queue_insertions", and the
/// complete counter block under "stats" (JoinStats::ToJson, the same schema
/// amdj_cli --report-json embeds). scripts/run_all_benches.sh points this at
/// a per-bench file and assembles BENCH_PR2.json from them.
void AppendJsonStats(const char* algorithm, uint64_t k, double wall_ms,
                     const JoinStats& stats) {
  const char* path = std::getenv("AMDJ_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  const char* bench = std::getenv("AMDJ_BENCH_NAME");
  std::fprintf(f,
               "{\"bench\":\"%s\",\"algorithm\":\"%s\",\"k\":%" PRIu64
               ",\"wall_ms\":%.3f,\"node_accesses\":%" PRIu64
               ",\"distance_computations\":%" PRIu64
               ",\"queue_insertions\":%" PRIu64 ",\"stats\":%s}\n",
               bench != nullptr ? bench : "", algorithm, k, wall_ms,
               stats.node_accesses, stats.real_distance_computations,
               stats.main_queue_insertions, stats.ToJson().c_str());
  std::fclose(f);
}

/// When AMDJ_BENCH_REPORT_JSON names a file, every measured run also
/// carries a RunReport and appends its JSON (per-phase counter deltas +
/// cutoff trajectory) as one line there.
const char* ReportJsonPath() {
  const char* path = std::getenv("AMDJ_BENCH_REPORT_JSON");
  return (path != nullptr && *path != '\0') ? path : nullptr;
}

void AppendRunReport(const RunReport& report) {
  const char* path = ReportJsonPath();
  if (path == nullptr) return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  const std::string json = report.ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace

RunResult RunKdjCold(BenchEnv& env, core::KdjAlgorithm algorithm, uint64_t k,
                     const core::JoinOptions& options) {
  RunResult run;
  RunReport report;
  core::JoinOptions run_options = options;
  if (ReportJsonPath() != nullptr) run_options.report = &report;
  ColdRun cold(env);
  auto result = core::RunKDistanceJoin(*env.streets, *env.hydro, k,
                                       algorithm, run_options, &run.stats);
  AMDJ_CHECK(result.ok()) << result.status().ToString();
  run.results = std::move(*result);
  cold.Finish(env, &run.stats);
  AppendJsonStats(core::ToString(algorithm), k, cold.ElapsedMs(), run.stats);
  if (run_options.report != nullptr) AppendRunReport(report);
  return run;
}

RunResult RunIdjCold(BenchEnv& env, core::IdjAlgorithm algorithm, uint64_t k,
                     const core::JoinOptions& options) {
  RunResult run;
  RunReport report;
  core::JoinOptions run_options = options;
  if (ReportJsonPath() != nullptr) run_options.report = &report;
  ColdRun cold(env);
  auto cursor = core::OpenIncrementalJoin(*env.streets, *env.hydro,
                                          algorithm, run_options, &run.stats);
  AMDJ_CHECK(cursor.ok()) << cursor.status().ToString();
  core::ResultPair pair;
  bool done = false;
  for (uint64_t i = 0; i < k; ++i) {
    const Status s = (*cursor)->Next(&pair, &done);
    AMDJ_CHECK(s.ok()) << s.ToString();
    if (done) break;
    run.results.push_back(pair);
  }
  cursor->reset();  // the cursor's destructor finalizes the report
  cold.Finish(env, &run.stats);
  AppendJsonStats(core::ToString(algorithm), k, cold.ElapsedMs(), run.stats);
  if (run_options.report != nullptr) AppendRunReport(report);
  return run;
}

void PrintHeader(const std::string& title, const BenchEnv& env) {
  std::printf("# %s\n", title.c_str());
  std::printf(
      "workload: tiger-synth streets=%" PRIu64 " hydro=%" PRIu64
      " seed=%" PRIu64 "\n",
      env.config.streets, env.config.hydro, env.config.seed);
  std::printf("buffer=%zuKB queue-memory=%zuKB page=4KB\n\n",
              env.config.buffer_bytes / 1024, env.config.memory_bytes / 1024);
}

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s", w, cells[i].c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

std::string FormatCount(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string FormatSeconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", s);
  return buf;
}

}  // namespace amdj::bench
