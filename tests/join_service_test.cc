// JoinService: inter-query concurrency with exact per-query stats
// attribution. The load-bearing checks are (a) every concurrently
// executed query returns byte-identical results to its own solo run, and
// (b) the per-query node-access counters reconcile exactly with the
// shared buffer pool's global hit/miss totals — concurrent attribution is
// an accounting identity, not an approximation.

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/distance_join.h"
#include "service/join_service.h"
#include "test_util.h"
#include "workload/generators.h"

namespace amdj {
namespace {

using service::JoinRequest;
using service::JoinResponse;
using service::JoinService;

/// Mixed KDJ/IDJ request set. SJ-SORT is deliberately absent from the
/// reconciliation workloads: its Dmax oracle pre-pass performs *uncharged*
/// pool fetches (a detached attribution scope), which is correct for the
/// paper's favorable-assumption accounting but would break the
/// per-query-sums == pool-delta identity below.
std::vector<JoinRequest> MixedRequests() {
  std::vector<JoinRequest> requests;
  JoinRequest kdj;
  kdj.kind = JoinRequest::Kind::kKdj;

  kdj.kdj_algorithm = core::KdjAlgorithm::kHsKdj;
  kdj.k = 300;
  requests.push_back(kdj);
  kdj.kdj_algorithm = core::KdjAlgorithm::kBKdj;
  kdj.k = 900;
  requests.push_back(kdj);
  kdj.kdj_algorithm = core::KdjAlgorithm::kAmKdj;
  kdj.k = 2000;
  requests.push_back(kdj);
  kdj.kdj_algorithm = core::KdjAlgorithm::kAmKdj;
  kdj.k = 50;
  requests.push_back(kdj);

  JoinRequest idj;
  idj.kind = JoinRequest::Kind::kIdj;
  idj.idj_algorithm = core::IdjAlgorithm::kHsIdj;
  idj.k = 700;
  requests.push_back(idj);
  idj.idj_algorithm = core::IdjAlgorithm::kAmIdj;
  idj.k = 1500;
  requests.push_back(idj);
  return requests;
}

/// Runs `request` alone on `f` (sequentially, nothing else in flight)
/// under the exact options the service would use.
JoinResponse RunSolo(const test::JoinFixture& f, const JoinService& service,
                     const JoinRequest& request) {
  JoinService::Options solo_options;
  solo_options.max_inflight = 1;
  // Reproduce the concurrent service's per-query clamp, not 1-in-flight's.
  solo_options.queue_memory_budget_bytes =
      service.per_query_queue_memory_bytes();
  JoinService solo(*f.r, *f.s, solo_options);
  return solo.Run(request);
}

TEST(JoinServiceTest, ConcurrentMixedQueriesMatchSoloRunsExactly) {
  const workload::Dataset r_data =
      workload::TigerStreets({.street_segments = 5000, .seed = 87});
  const workload::Dataset s_data =
      workload::TigerHydro({.hydro_objects = 1800, .seed = 87});
  // Small pool so concurrent queries genuinely evict each other's pages.
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 32, 48);

  JoinService::Options options;
  options.max_inflight = 4;
  options.queue_memory_budget_bytes = 512 * 1024;
  JoinService service(*f.r, *f.s, options);

  const std::vector<JoinRequest> requests = MixedRequests();
  ASSERT_GE(requests.size(), 4u) << "need N>=4 concurrent queries";

  // Solo references on a *fresh* identical fixture, so reference stats are
  // untouched by the concurrent run's pool state.
  std::vector<JoinResponse> solo;
  {
    test::JoinFixture fresh = test::MakeFixture(r_data, s_data, 32, 48);
    JoinService::Options probe = options;
    JoinService sizing(*fresh.r, *fresh.s, probe);
    for (const JoinRequest& request : requests) {
      solo.push_back(RunSolo(fresh, sizing, request));
      ASSERT_TRUE(solo.back().status.ok()) << solo.back().status.ToString();
    }
  }

  const uint64_t pool_hits_before = f.pool->hit_count();
  const uint64_t pool_misses_before = f.pool->miss_count();

  std::vector<std::future<JoinResponse>> futures;
  for (const JoinRequest& request : requests) {
    futures.push_back(service.Submit(request));
  }
  std::vector<JoinResponse> concurrent;
  for (auto& future : futures) concurrent.push_back(future.get());

  // (a) Byte-identical results to the solo runs.
  for (size_t q = 0; q < requests.size(); ++q) {
    ASSERT_TRUE(concurrent[q].status.ok())
        << concurrent[q].status.ToString();
    ASSERT_EQ(concurrent[q].results.size(), solo[q].results.size())
        << "query " << q;
    for (size_t i = 0; i < concurrent[q].results.size(); ++i) {
      EXPECT_EQ(concurrent[q].results[i], solo[q].results[i])
          << "query " << q << " pair " << i;
    }
  }

  // (b) Exact attribution: per-query sums reconcile with the pool's
  // global counters — every access charged to exactly one query.
  uint64_t sum_accesses = 0, sum_hits = 0, sum_misses = 0;
  for (size_t q = 0; q < requests.size(); ++q) {
    const JoinStats& stats = concurrent[q].stats;
    EXPECT_EQ(stats.node_buffer_hits + stats.node_disk_reads,
              stats.node_accesses)
        << "query " << q;
    // Traversal shape is interleaving-independent; only hit/miss split may
    // differ from the solo run.
    EXPECT_EQ(stats.node_accesses, solo[q].stats.node_accesses)
        << "query " << q;
    sum_accesses += stats.node_accesses;
    sum_hits += stats.node_buffer_hits;
    sum_misses += stats.node_disk_reads;
  }
  EXPECT_EQ(sum_hits, f.pool->hit_count() - pool_hits_before);
  EXPECT_EQ(sum_misses, f.pool->miss_count() - pool_misses_before);
  EXPECT_EQ(sum_accesses, (f.pool->hit_count() - pool_hits_before) +
                              (f.pool->miss_count() - pool_misses_before));

  EXPECT_EQ(service.completed(), requests.size());
  EXPECT_LE(service.peak_inflight(), options.max_inflight);
}

TEST(JoinServiceTest, AdmissionControlBoundsInflight) {
  const geom::Rect uni(0, 0, 10000, 10000);
  test::JoinFixture f = test::MakeFixture(
      workload::UniformPoints(3000, 21, uni),
      workload::UniformPoints(3000, 22, uni), 16, 64);

  JoinService::Options options;
  options.max_inflight = 2;
  JoinService service(*f.r, *f.s, options);

  JoinRequest request;
  request.kind = JoinRequest::Kind::kKdj;
  request.kdj_algorithm = core::KdjAlgorithm::kAmKdj;
  request.k = 1000;
  std::vector<std::future<JoinResponse>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.Submit(request));
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  EXPECT_EQ(service.completed(), 8u);
  EXPECT_LE(service.peak_inflight(), 2u);
  EXPECT_GE(service.peak_inflight(), 1u);
}

TEST(JoinServiceTest, QueueMemoryBudgetIsClampedPerQuery) {
  const geom::Rect uni(0, 0, 1000, 1000);
  test::JoinFixture f = test::MakeFixture(
      workload::UniformPoints(200, 31, uni),
      workload::UniformPoints(200, 32, uni));

  JoinService::Options options;
  options.max_inflight = 4;
  options.queue_memory_budget_bytes = 1024 * 1024;
  JoinService service(*f.r, *f.s, options);
  EXPECT_EQ(service.per_query_queue_memory_bytes(), 256u * 1024);

  JoinRequest greedy;
  greedy.options.queue_memory_bytes = 64 * 1024 * 1024;  // over budget
  EXPECT_EQ(service.EffectiveOptions(greedy).queue_memory_bytes,
            256u * 1024);
  JoinRequest modest;
  modest.options.queue_memory_bytes = 8 * 1024;  // under the clamp: kept
  EXPECT_EQ(service.EffectiveOptions(modest).queue_memory_bytes, 8u * 1024);

  // The floor: a tiny budget over many slots never clamps below the
  // minimum a hybrid queue needs to function.
  options.queue_memory_budget_bytes = 4 * 1024;
  options.max_inflight = 8;
  JoinService tiny(*f.r, *f.s, options);
  EXPECT_EQ(tiny.per_query_queue_memory_bytes(),
            JoinService::kMinQueueMemoryBytes);
}

// A tight per-query budget forces the hybrid queue to spill into the
// session disk; the spill must be invisible in the results and the
// session-scoped disk must not mix segments between concurrent queries.
TEST(JoinServiceTest, SpillingQueriesStayCorrectUnderConcurrency) {
  const workload::Dataset r_data =
      workload::TigerStreets({.street_segments = 4000, .seed = 77});
  const workload::Dataset s_data =
      workload::TigerHydro({.hydro_objects = 1500, .seed = 77});
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 32, 64);

  JoinService::Options options;
  options.max_inflight = 4;
  // 16 KB per query (the floor): guarantees spilling on these workloads.
  options.queue_memory_budget_bytes = 4 * JoinService::kMinQueueMemoryBytes;
  JoinService service(*f.r, *f.s, options);

  JoinRequest request;
  request.kind = JoinRequest::Kind::kKdj;
  request.kdj_algorithm = core::KdjAlgorithm::kHsKdj;  // queue-heaviest
  request.k = 1500;

  // Reference without any service in the picture.
  JoinStats reference_stats;
  core::JoinOptions reference_options = service.EffectiveOptions(request);
  reference_options.queue_disk = f.queue_disk.get();
  auto reference =
      core::RunKDistanceJoin(*f.r, *f.s, request.k, request.kdj_algorithm,
                             reference_options, &reference_stats);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference_stats.queue_page_writes, 0u)
      << "workload must actually spill for this test to bite";

  std::vector<std::future<JoinResponse>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(service.Submit(request));
  for (auto& future : futures) {
    const JoinResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_EQ(response.results.size(), reference->size());
    for (size_t i = 0; i < response.results.size(); ++i) {
      EXPECT_EQ(response.results[i], (*reference)[i]) << "pair " << i;
    }
    EXPECT_GT(response.stats.queue_page_writes, 0u);
  }
}

TEST(JoinServiceTest, IdjStreamsRequestedCardinality) {
  const geom::Rect uni(0, 0, 5000, 5000);
  test::JoinFixture f = test::MakeFixture(
      workload::GaussianClusters(2500, 5, 0.05, 41, uni),
      workload::UniformRects(1200, 25.0, 42, uni));

  JoinService service(*f.r, *f.s, {});
  JoinRequest request;
  request.kind = JoinRequest::Kind::kIdj;
  request.idj_algorithm = core::IdjAlgorithm::kAmIdj;
  request.k = 600;
  const JoinResponse response = service.Run(request);
  ASSERT_TRUE(response.status.ok());
  ASSERT_EQ(response.results.size(), 600u);
  for (size_t i = 1; i < response.results.size(); ++i) {
    EXPECT_GE(response.results[i].distance,
              response.results[i - 1].distance - 1e-12);
  }
  EXPECT_GT(response.stats.node_accesses, 0u);
  EXPECT_EQ(response.stats.node_buffer_hits + response.stats.node_disk_reads,
            response.stats.node_accesses);
}

TEST(JoinServiceTest, MaxQueuedRejectsWithReadyResourceExhaustedFuture) {
  const workload::Dataset r_data = workload::UniformPoints(3000, 41);
  const workload::Dataset s_data = workload::UniformPoints(3000, 42);
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 32, 64);

  JoinService::Options options;
  options.max_inflight = 1;
  options.max_queued = 1;
  JoinService service(*f.r, *f.s, options);

  JoinRequest request;
  request.kdj_algorithm = core::KdjAlgorithm::kAmKdj;
  request.k = 2000;  // ms-scale on this data: submits outrun completions

  constexpr size_t kSubmits = 12;
  std::vector<std::future<JoinResponse>> futures;
  futures.reserve(kSubmits);
  for (size_t i = 0; i < kSubmits; ++i) futures.push_back(service.Submit(request));

  size_t rejected = 0;
  size_t accepted_ok = 0;
  for (auto& future : futures) {
    JoinResponse response = future.get();
    if (response.status.code() == StatusCode::kResourceExhausted) {
      ++rejected;
      EXPECT_TRUE(response.results.empty());
    } else {
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(response.results.size(), 2000u);
      EXPECT_GT(response.exec_seconds, 0.0);
      ++accepted_ok;
    }
  }
  // With one worker and one queue slot, a tight 12-submit loop must bounce
  // off the cap; the first request is always admitted.
  EXPECT_GE(rejected, 1u);
  EXPECT_GE(accepted_ok, 1u);
  EXPECT_EQ(service.rejected(), rejected);
  EXPECT_EQ(service.completed(), accepted_ok);

  // A rejection must not block: a fresh one resolves immediately.
  // (The pool is idle now, so refill the queue first.)
  std::vector<std::future<JoinResponse>> refill;
  for (size_t i = 0; i < 4; ++i) refill.push_back(service.Submit(request));
  for (auto& future : refill) (void)future.get();
}

// Regression: the IDJ path used to reserve(request.k) with the
// caller-controlled k — k = UINT64_MAX threw std::length_error out of the
// worker, violating the "future never carries an exception" contract. The
// reserve is now clamped; a huge k simply streams until the data runs out.
TEST(JoinServiceTest, HugeKRequestReturnsCleanStatusInsteadOfThrowing) {
  const geom::Rect uni(0, 0, 1000, 1000);
  test::JoinFixture f = test::MakeFixture(
      workload::UniformPoints(25, 91, uni),
      workload::UniformPoints(25, 92, uni), 8, 64);

  JoinService service(*f.r, *f.s, {});

  JoinRequest idj;
  idj.kind = JoinRequest::Kind::kIdj;
  idj.idj_algorithm = core::IdjAlgorithm::kAmIdj;
  idj.k = UINT64_MAX;
  std::future<JoinResponse> future = service.Submit(idj);
  JoinResponse response;
  ASSERT_NO_THROW(response = future.get());
  ASSERT_TRUE(response.status.ok() ||
              response.status.code() == StatusCode::kResourceExhausted)
      << response.status.ToString();
  // 25 x 25 objects: the stream drains the full cross product, no more.
  EXPECT_EQ(response.results.size(), 625u);

  JoinRequest kdj;
  kdj.kind = JoinRequest::Kind::kKdj;
  kdj.k = UINT64_MAX;
  ASSERT_NO_THROW(response = service.Run(kdj));
  ASSERT_TRUE(response.status.ok() ||
              response.status.code() == StatusCode::kResourceExhausted)
      << response.status.ToString();
  EXPECT_EQ(response.results.size(), 625u);
}

// EffectiveOptions is documented as "the options a request will actually
// execute under": the per-query admission clamp, whatever the request
// kind or algorithm, never below the hybrid queue's floor — and a solo
// service with the same per-query budget must reproduce a query exactly.
// (The name dates from when sharded requests also divided the clamp across
// shard threads; with shard routing gone only the admission clamp is left.)
TEST(JoinServiceTest, EffectiveOptionsReflectsShardedClampAndReproduces) {
  const workload::Dataset r_data =
      workload::TigerStreets({.street_segments = 3000, .seed = 93});
  const workload::Dataset s_data =
      workload::TigerHydro({.hydro_objects = 1200, .seed = 93});
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 16, 64);

  JoinService::Options options;
  options.max_inflight = 2;
  options.queue_memory_budget_bytes = 1024 * 1024;  // 512 KB per query
  JoinService service(*f.r, *f.s, options);

  JoinRequest am;
  am.kdj_algorithm = core::KdjAlgorithm::kAmKdj;
  am.k = 800;
  am.options.queue_memory_bytes = 64 * 1024 * 1024;
  // Clamped to the per-query budget, the same for every request kind.
  EXPECT_EQ(service.EffectiveOptions(am).queue_memory_bytes, 512u * 1024);
  JoinRequest hs = am;
  hs.kdj_algorithm = core::KdjAlgorithm::kHsKdj;
  EXPECT_EQ(service.EffectiveOptions(hs).queue_memory_bytes, 512u * 1024);
  JoinRequest idj = am;
  idj.kind = JoinRequest::Kind::kIdj;
  EXPECT_EQ(service.EffectiveOptions(idj).queue_memory_bytes, 512u * 1024);

  // The floor survives the per-slot split.
  JoinService::Options tiny = options;
  tiny.queue_memory_budget_bytes = 2 * JoinService::kMinQueueMemoryBytes;
  JoinService tiny_service(*f.r, *f.s, tiny);
  EXPECT_EQ(tiny_service.EffectiveOptions(am).queue_memory_bytes,
            JoinService::kMinQueueMemoryBytes);

  // Solo reproduction: a 1-inflight service whose per-query budget equals
  // the concurrent service's must execute under the same effective
  // options and return byte-identical results.
  const JoinResponse concurrent = service.Run(am);
  ASSERT_TRUE(concurrent.status.ok()) << concurrent.status.ToString();
  JoinService::Options solo_options = options;
  solo_options.max_inflight = 1;
  solo_options.queue_memory_budget_bytes =
      service.per_query_queue_memory_bytes();
  JoinService solo(*f.r, *f.s, solo_options);
  EXPECT_EQ(solo.EffectiveOptions(am).queue_memory_bytes,
            service.EffectiveOptions(am).queue_memory_bytes);
  const JoinResponse reproduced = solo.Run(am);
  ASSERT_TRUE(reproduced.status.ok()) << reproduced.status.ToString();
  ASSERT_EQ(reproduced.results.size(), concurrent.results.size());
  for (size_t i = 0; i < reproduced.results.size(); ++i) {
    EXPECT_EQ(reproduced.results[i], concurrent.results[i]) << "pair " << i;
  }
}

// Admission counter reconciliation: `accepted == completed + inflight +
// queued` is an invariant of every critical section, so it must hold at
// EVERY concurrently sampled instant — not just at quiescence.
TEST(JoinServiceTest, AdmissionCountersReconcileUnderConcurrentBurst) {
  const geom::Rect uni(0, 0, 10000, 10000);
  test::JoinFixture f = test::MakeFixture(
      workload::UniformPoints(2000, 95, uni),
      workload::UniformPoints(2000, 96, uni), 16, 64);

  JoinService::Options options;
  options.max_inflight = 2;
  options.max_queued = 3;
  JoinService service(*f.r, *f.s, options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> samples{0};
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const JoinService::AdmissionSnapshot s = service.admission_snapshot();
      EXPECT_EQ(s.accepted,
                s.completed + s.inflight + s.queued)
          << "accepted=" << s.accepted << " completed=" << s.completed
          << " inflight=" << s.inflight << " queued=" << s.queued;
      samples.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  JoinRequest request;
  request.kdj_algorithm = core::KdjAlgorithm::kAmKdj;
  request.k = 500;
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 30;
  std::vector<std::thread> submitters;
  std::atomic<uint64_t> rejected_seen{0};
  std::atomic<uint64_t> ok_seen{0};
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (size_t i = 0; i < kPerThread; ++i) {
        std::future<JoinResponse> future = service.Submit(request);
        const JoinResponse response = future.get();
        if (response.status.code() == StatusCode::kResourceExhausted) {
          rejected_seen.fetch_add(1);
        } else {
          ASSERT_TRUE(response.status.ok()) << response.status.ToString();
          ok_seen.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  stop.store(true);
  sampler.join();

  EXPECT_GT(samples.load(), 0u);
  const JoinService::AdmissionSnapshot final = service.admission_snapshot();
  EXPECT_EQ(final.accepted, final.completed);
  EXPECT_EQ(final.inflight, 0u);
  EXPECT_EQ(final.queued, 0u);
  EXPECT_EQ(final.accepted + final.rejected, kThreads * kPerThread);
  EXPECT_EQ(final.completed, ok_seen.load());
  EXPECT_EQ(final.rejected, rejected_seen.load());
  EXPECT_EQ(service.rejected(), rejected_seen.load());

  // A rejected submission's future is ready immediately.
  JoinService::Options no_room = options;
  no_room.max_inflight = 1;
  no_room.max_queued = 1;
  JoinService crowded(*f.r, *f.s, no_room);
  JoinRequest slow = request;
  slow.k = 2000;
  std::vector<std::future<JoinResponse>> backlog;
  for (int i = 0; i < 10; ++i) backlog.push_back(crowded.Submit(slow));
  bool saw_instant_rejection = false;
  for (auto& future : backlog) {
    if (future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      const JoinResponse response = future.get();
      if (response.status.code() == StatusCode::kResourceExhausted) {
        saw_instant_rejection = true;
      }
    } else {
      (void)future.get();
    }
  }
  EXPECT_TRUE(saw_instant_rejection)
      << "rejections must resolve without waiting";
}

TEST(JoinServiceTest, SlowQueryThresholdCountsAndReportsEveryQuery) {
  const workload::Dataset r_data = workload::UniformPoints(500, 51);
  const workload::Dataset s_data = workload::UniformPoints(500, 52);
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 32, 64);

  Counter* slow = MetricsRegistry::Global()->GetCounter(
      "amdj_service_slow_queries_total");
  const uint64_t before = slow->Value();

  JoinService::Options options;
  options.max_inflight = 2;
  options.slow_query_seconds = 1e-9;  // everything is "slow"
  JoinService service(*f.r, *f.s, options);

  JoinRequest request;
  request.k = 100;
  const JoinResponse kdj = service.Run(request);
  ASSERT_TRUE(kdj.status.ok()) << kdj.status.ToString();
  EXPECT_GT(kdj.exec_seconds, 0.0);

  JoinRequest idj;
  idj.kind = JoinRequest::Kind::kIdj;
  idj.k = 100;
  const JoinResponse idj_resp = service.Run(idj);
  ASSERT_TRUE(idj_resp.status.ok()) << idj_resp.status.ToString();

  EXPECT_EQ(slow->Value(), before + 2);

  // Threshold off: nothing counted.
  JoinService::Options quiet = options;
  quiet.slow_query_seconds = 0.0;
  JoinService quiet_service(*f.r, *f.s, quiet);
  (void)quiet_service.Run(request);
  EXPECT_EQ(slow->Value(), before + 2);
}

}  // namespace
}  // namespace amdj
