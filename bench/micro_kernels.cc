// Microbenchmarks for the batched SoA distance kernels: scalar vs SSE2 vs
// AVX2 at small, sweep-sized and large batches (the sweep's batches grow
// per anchor from kSweepFirstChunk = 8 to kSweepChunk = 64, with shorter
// remainders), plus the dispatched public entry points. Backends that are
// unavailable on the build/CPU report the best one at or below them (check
// the console line printed at startup).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "common/random.h"
#include "geom/kernels.h"

namespace amdj {
namespace {

using geom::KernelBackend;

struct Batch {
  std::vector<double> lo0, hi0, lo1, hi1, keys;
  std::vector<uint32_t> idx;
  std::vector<double> out;
  double q_lo0, q_hi0, q_lo1, q_hi1;
};

Batch MakeBatch(size_t n, uint64_t seed) {
  Random rng(seed);
  Batch b;
  b.lo0.resize(n);
  b.hi0.resize(n);
  b.lo1.resize(n);
  b.hi1.resize(n);
  b.keys.resize(n);
  b.idx.resize(n);
  b.out.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, 10000);
    const double y = rng.Uniform(0, 10000);
    b.lo0[i] = x;
    b.hi0[i] = x + rng.Uniform(1, 50);
    b.lo1[i] = y;
    b.hi1[i] = y + rng.Uniform(1, 50);
  }
  b.q_lo0 = 4000;
  b.q_hi0 = 4100;
  b.q_lo1 = 4000;
  b.q_hi1 = 4100;
  return b;
}

using MinDistFn = void (*)(const double*, const double*, const double*,
                           const double*, double, double, double, double,
                           std::size_t, double*);

MinDistFn MinDistFor(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return &geom::internal::BatchMinDistSquaredScalar;
    case KernelBackend::kSse2:
      return &geom::internal::BatchMinDistSquaredSse2;
    case KernelBackend::kAvx2:
      return &geom::internal::BatchMinDistSquaredAvx2;
  }
  return &geom::internal::BatchMinDistSquaredScalar;
}

void BM_BatchMinDistSquared(benchmark::State& state) {
  const auto backend = static_cast<KernelBackend>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  if (!geom::KernelBackendAvailable(backend)) {
    state.SkipWithError("backend unavailable");
    return;
  }
  MinDistFn fn = MinDistFor(backend);
  Batch b = MakeBatch(n, 7);
  for (auto _ : state) {
    fn(b.lo0.data(), b.hi0.data(), b.lo1.data(), b.hi1.data(), b.q_lo0,
       b.q_hi0, b.q_lo1, b.q_hi1, n, b.out.data());
    benchmark::DoNotOptimize(b.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(geom::ToString(backend));
}
BENCHMARK(BM_BatchMinDistSquared)
    ->ArgsProduct({{0, 1, 2}, {7, 64, 1024}});

using AxisFn = void (*)(const double*, double, std::size_t, double*);

AxisFn AxisFor(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return &geom::internal::BatchAxisDistanceScalar;
    case KernelBackend::kSse2:
      return &geom::internal::BatchAxisDistanceSse2;
    case KernelBackend::kAvx2:
      return &geom::internal::BatchAxisDistanceAvx2;
  }
  return &geom::internal::BatchAxisDistanceScalar;
}

void BM_BatchAxisDistance(benchmark::State& state) {
  const auto backend = static_cast<KernelBackend>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  if (!geom::KernelBackendAvailable(backend)) {
    state.SkipWithError("backend unavailable");
    return;
  }
  AxisFn fn = AxisFor(backend);
  Batch b = MakeBatch(n, 11);
  for (auto _ : state) {
    fn(b.lo0.data(), b.q_hi0, n, b.out.data());
    benchmark::DoNotOptimize(b.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(geom::ToString(backend));
}
BENCHMARK(BM_BatchAxisDistance)->ArgsProduct({{0, 1, 2}, {7, 64, 1024}});

using FilterFn = std::size_t (*)(const double*, std::size_t, double,
                                 std::uint32_t*);

FilterFn FilterFor(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return &geom::internal::BatchFilterWithinScalar;
    case KernelBackend::kSse2:
      return &geom::internal::BatchFilterWithinSse2;
    case KernelBackend::kAvx2:
      return &geom::internal::BatchFilterWithinAvx2;
  }
  return &geom::internal::BatchFilterWithinScalar;
}

void BM_BatchFilterWithin(benchmark::State& state) {
  const auto backend = static_cast<KernelBackend>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  if (!geom::KernelBackendAvailable(backend)) {
    state.SkipWithError("backend unavailable");
    return;
  }
  FilterFn fn = FilterFor(backend);
  Batch b = MakeBatch(n, 13);
  Random rng(17);
  for (size_t i = 0; i < n; ++i) b.keys[i] = rng.Uniform(0, 100);
  const double cutoff = 50.0;  // ~half survive: the interesting regime
  for (auto _ : state) {
    const size_t kept = fn(b.keys.data(), n, cutoff, b.idx.data());
    benchmark::DoNotOptimize(kept);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(geom::ToString(backend));
}
BENCHMARK(BM_BatchFilterWithin)->ArgsProduct({{0, 1, 2}, {7, 64, 1024}});

// The dispatched public entry point at the sweep's largest batch: measures
// what the join hot path actually pays, including the dispatch load.
void BM_DispatchedMinDist_Chunk64(benchmark::State& state) {
  Batch b = MakeBatch(64, 19);
  for (auto _ : state) {
    geom::BatchMinDistSquared(b.lo0.data(), b.hi0.data(), b.lo1.data(),
                              b.hi1.data(), b.q_lo0, b.q_hi0, b.q_lo1,
                              b.q_hi1, 64, b.out.data());
    benchmark::DoNotOptimize(b.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
  state.SetLabel(geom::ToString(geom::ActiveKernelBackend()));
}
BENCHMARK(BM_DispatchedMinDist_Chunk64);

}  // namespace
}  // namespace amdj

int main(int argc, char** argv) {
  std::printf("active kernel backend: %s\n",
              amdj::geom::ToString(amdj::geom::ActiveKernelBackend()));
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
