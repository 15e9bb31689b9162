#ifndef AMDJ_BENCH_BENCH_COMMON_H_
#define AMDJ_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/cost_model.h"
#include "core/distance_join.h"
#include "core/options.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"

namespace amdj::bench {

/// Command-line knobs shared by every figure bench:
///   --streets=N --hydro=N   workload sizes (default 120000 / 36000)
///   --buffer=BYTES          R-tree buffer size (default 512 KB)
///   --memory=BYTES          main-queue memory (default 512 KB)
///   --quick                 1/10th workload for smoke runs
///   --seed=S                workload seed
struct BenchConfig {
  uint64_t streets = 120'000;
  uint64_t hydro = 36'000;
  size_t buffer_bytes = 512 * 1024;
  size_t memory_bytes = 512 * 1024;
  uint64_t seed = 20000'05'15;

  static BenchConfig FromArgs(int argc, char** argv);
};

/// A ready-to-join pair of R*-trees over the synthetic TIGER workload,
/// with a shared page file and LRU buffer (the paper's "R-tree buffer")
/// plus a separate spill disk for queues/sort runs.
struct BenchEnv {
  BenchConfig config;
  std::unique_ptr<storage::InMemoryDiskManager> tree_disk;
  std::unique_ptr<storage::InMemoryDiskManager> queue_disk;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<rtree::RTree> streets;
  std::unique_ptr<rtree::RTree> hydro;

  /// Join options wired to this environment's spill disk and memory size.
  core::JoinOptions MakeJoinOptions() const;
};

/// Builds the environment (bulk-loading both trees). Aborts on failure —
/// benches have no useful recovery.
BenchEnv MakeTigerEnv(const BenchConfig& config);

/// One measured algorithm execution.
struct RunResult {
  JoinStats stats;
  std::vector<core::ResultPair> results;
};

/// Runs a KDJ algorithm cold (buffer cleared first), filling in measured
/// CPU time and simulated I/O time (CostModel over the page I/O deltas of
/// both disks).
RunResult RunKdjCold(BenchEnv& env, core::KdjAlgorithm algorithm, uint64_t k,
                     const core::JoinOptions& options);

/// Runs an IDJ algorithm cold until `k` pairs are produced.
RunResult RunIdjCold(BenchEnv& env, core::IdjAlgorithm algorithm, uint64_t k,
                     const core::JoinOptions& options);

/// Formatting helpers: every bench prints a Markdown-ish table mirroring
/// its figure/table in the paper.
void PrintHeader(const std::string& title, const BenchEnv& env);
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);
std::string FormatCount(uint64_t v);
std::string FormatSeconds(double s);

}  // namespace amdj::bench

#endif  // AMDJ_BENCH_BENCH_COMMON_H_
