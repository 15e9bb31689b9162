// Microbenchmarks for the queue substrate: distance-queue inserts, the
// main queue's per-query construction, hybrid main-queue push/pop in memory
// and with disk spilling.
//
// The hybrid-queue benches report per-op push/pop latency and the queue's
// structural counters (splits, swap-ins, refinements) as benchmark
// counters — visible in the console output and, under
// --benchmark_format=json, as the "counters" object per benchmark, which
// scripts/check_bench_regression.py consumes.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "common/random.h"
#include "core/hs_join.h"
#include "core/pair_entry.h"
#include "queue/distance_queue.h"
#include "queue/hybrid_queue.h"
#include "storage/disk_manager.h"

namespace amdj {
namespace {

/// Phase timer + counter plumbing shared by the hybrid-queue benches:
/// accumulates wall time around the push and pop phases across iterations
/// and publishes per-op latencies plus the queue's structural counters.
struct QueueBenchStats {
  double push_ns = 0;
  double pop_ns = 0;
  int64_t pushes = 0;
  int64_t pops = 0;
  uint64_t splits = 0;
  uint64_t swapins = 0;
  uint64_t refines = 0;

  template <typename Fn>
  double TimeNs(Fn&& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  void Absorb(const core::MainQueue& q) {
    splits += q.split_count();
    swapins += q.swapin_count();
    refines += q.refine_count();
  }

  void Publish(benchmark::State& state) const {
    if (pushes > 0) {
      state.counters["push_ns_per_op"] =
          push_ns / static_cast<double>(pushes);
    }
    if (pops > 0) {
      state.counters["pop_ns_per_op"] = pop_ns / static_cast<double>(pops);
    }
    state.counters["splits"] = static_cast<double>(splits);
    state.counters["swapins"] = static_cast<double>(swapins);
    state.counters["refines"] = static_cast<double>(refines);
  }
};

/// The join's regime: once k keys are held, every key offered lies below
/// the running cutoff (the kernels only emit pairs inside it), so every
/// insert replaces the maximum. A stream of mostly rejected keys would time
/// only the comparison against the cutoff.
void BM_DistanceQueueInsert(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Random rng(1);
  std::vector<double> fractions(1 << 16);
  for (auto& f : fractions) f = rng.NextDouble();
  const size_t mask = fractions.size() - 1;
  size_t i = 0;
  auto filled = [&] {
    auto q = std::make_unique<queue::DistanceQueue>(k);
    for (size_t j = 0; j < k; ++j) {
      q->Insert(geom::KeyVal(fractions[i++ & mask]));
    }
    return q;
  };
  std::unique_ptr<queue::DistanceQueue> q = filled();
  for (auto _ : state) {
    if (q->CutoffKey() < geom::KeyVal(1e-200)) {
      // Each insert shrinks the cutoff; start over before it underflows.
      state.PauseTiming();
      q = filled();
      state.ResumeTiming();
    }
    q->Insert(geom::KeyVal(q->CutoffKey().raw() * fractions[i++ & mask]));
    benchmark::DoNotOptimize(q->CutoffKey());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DistanceQueueInsert)->Arg(10)->Arg(1000)->Arg(100000);

core::PairEntry MakeEntry(double key) {
  core::PairEntry e;
  e.key = geom::KeyVal(key);
  return e;
}

/// Per-query fixed cost of the main queue: every KDJ request builds one
/// with the default 1,024 predetermined boundaries, pushes its root pair
/// and destroys it.
void BM_MainQueueConstruct(benchmark::State& state) {
  storage::InMemoryDiskManager disk;
  core::MainQueue::Options options;
  options.disk = &disk;
  options.boundary_fn = [](uint64_t c) {
    return geom::KeyVal(static_cast<double>(c));
  };
  for (auto _ : state) {
    core::MainQueue q(options, nullptr);
    benchmark::DoNotOptimize(q.Push(MakeEntry(0.0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MainQueueConstruct);

void BM_HybridQueueInMemory(benchmark::State& state) {
  Random rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    core::MainQueue q(core::MainQueue::Options{}, nullptr);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(q.Push(MakeEntry(rng.NextDouble())));
    }
    core::PairEntry out;
    while (!q.Empty()) {
      benchmark::DoNotOptimize(q.Pop(&out));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_HybridQueueInMemory)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_HybridQueueSpilling(benchmark::State& state) {
  Random rng(3);
  QueueBenchStats bench;
  for (auto _ : state) {
    state.PauseTiming();
    storage::InMemoryDiskManager disk;
    core::MainQueue::Options options;
    options.disk = &disk;
    options.memory_bytes = 64 * 1024;
    core::MainQueue q(options, nullptr);
    state.ResumeTiming();
    bench.push_ns += bench.TimeNs([&] {
      for (int i = 0; i < state.range(0); ++i) {
        benchmark::DoNotOptimize(q.Push(MakeEntry(rng.NextDouble())));
      }
    });
    bench.pushes += state.range(0);
    bench.pop_ns += bench.TimeNs([&] {
      core::PairEntry out;
      while (!q.Empty()) {
        benchmark::DoNotOptimize(q.Pop(&out));
      }
    });
    bench.pops += state.range(0);
    bench.Absorb(q);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
  bench.Publish(state);
}
BENCHMARK(BM_HybridQueueSpilling)->Arg(1 << 14)->Arg(1 << 17);

void BM_HybridQueueSpillingWithBoundaries(benchmark::State& state) {
  Random rng(4);
  QueueBenchStats bench;
  for (auto _ : state) {
    state.PauseTiming();
    storage::InMemoryDiskManager disk;
    core::MainQueue::Options options;
    options.disk = &disk;
    options.memory_bytes = 64 * 1024;
    const double n = static_cast<double>(state.range(0));
    options.boundary_fn = [n](uint64_t c) {
      return geom::KeyVal(static_cast<double>(c) / n);
    };
    core::MainQueue q(options, nullptr);
    state.ResumeTiming();
    bench.push_ns += bench.TimeNs([&] {
      for (int i = 0; i < state.range(0); ++i) {
        benchmark::DoNotOptimize(q.Push(MakeEntry(rng.NextDouble())));
      }
    });
    bench.pushes += state.range(0);
    // Distance-join access pattern: only the closest tenth is consumed.
    bench.pop_ns += bench.TimeNs([&] {
      core::PairEntry out;
      for (int i = 0; i < state.range(0) / 10; ++i) {
        benchmark::DoNotOptimize(q.Pop(&out));
      }
    });
    bench.pops += state.range(0) / 10;
    bench.Absorb(q);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  bench.Publish(state);
}
BENCHMARK(BM_HybridQueueSpillingWithBoundaries)->Arg(1 << 14)->Arg(1 << 17);

/// The tie-plateau fast path: every entry has the same key, the regime
/// that used to re-sort the whole in-memory tier on every push. With the
/// run/block path this is O(1) per push amortized — the bench guards the
/// 100x ablation_tie_break win at the queue level.
void BM_HybridQueueTiePlateau(benchmark::State& state) {
  QueueBenchStats bench;
  for (auto _ : state) {
    state.PauseTiming();
    storage::InMemoryDiskManager disk;
    core::MainQueue::Options options;
    options.disk = &disk;
    options.memory_bytes = 64 * 1024;
    core::MainQueue q(options, nullptr);
    state.ResumeTiming();
    bench.push_ns += bench.TimeNs([&] {
      for (int i = 0; i < state.range(0); ++i) {
        benchmark::DoNotOptimize(q.Push(MakeEntry(0.0)));
      }
    });
    bench.pushes += state.range(0);
    bench.pop_ns += bench.TimeNs([&] {
      core::PairEntry out;
      while (!q.Empty()) {
        benchmark::DoNotOptimize(q.Pop(&out));
      }
    });
    bench.pops += state.range(0);
    bench.Absorb(q);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
  bench.Publish(state);
}
BENCHMARK(BM_HybridQueueTiePlateau)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace
}  // namespace amdj

BENCHMARK_MAIN();
