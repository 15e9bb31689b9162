// SharedWork layer: in-flight dedupe, the semantic result cache, and the
// learned eDmax seed (service/shared_work.h). The load-bearing property
// throughout is byte-identity: every deduped or cached response must equal
// (values AND order) what a fresh solo execution of the same request would
// return — sharing is an optimization of *work*, never of *answers*.

#include <algorithm>
#include <future>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/run_report.h"
#include "common/trace.h"
#include "core/distance_join.h"
#include "core/dmax_estimator.h"
#include "service/join_service.h"
#include "service/shared_work.h"
#include "test_util.h"
#include "workload/generators.h"

namespace amdj {
namespace {

using service::ComputeSharedWorkKeys;
using service::JoinRequest;
using service::JoinResponse;
using service::JoinService;
using service::SharedWorkKeys;
using service::SharedWorkRegistry;

void ExpectSameResults(const std::vector<core::ResultPair>& got,
                       const std::vector<core::ResultPair>& want,
                       const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << label << " pair " << i;
  }
}

// --- key canonicalization ---

TEST(SharedWorkKeysTest, IdenticalRequestsShareOneExecKey) {
  JoinRequest a;
  a.k = 500;
  JoinRequest b = a;
  const SharedWorkKeys ka = ComputeSharedWorkKeys(a);
  const SharedWorkKeys kb = ComputeSharedWorkKeys(b);
  ASSERT_TRUE(ka.exec_key.has_value());
  EXPECT_EQ(*ka.exec_key, *kb.exec_key);
  ASSERT_TRUE(ka.cache_key.has_value());
  EXPECT_EQ(*ka.cache_key, *kb.cache_key);
}

TEST(SharedWorkKeysTest, SemanticKnobsSeparateKeys) {
  JoinRequest base;
  base.k = 500;
  const std::string base_key = *ComputeSharedWorkKeys(base).exec_key;

  JoinRequest different_k = base;
  different_k.k = 501;
  EXPECT_NE(*ComputeSharedWorkKeys(different_k).exec_key, base_key);

  JoinRequest different_algo = base;
  different_algo.kdj_algorithm = core::KdjAlgorithm::kBKdj;
  EXPECT_NE(*ComputeSharedWorkKeys(different_algo).exec_key, base_key);

  JoinRequest different_metric = base;
  different_metric.options.metric = geom::Metric::kL1;
  EXPECT_NE(*ComputeSharedWorkKeys(different_metric).exec_key, base_key);

  JoinRequest different_tie = base;
  different_tie.options.tie_break = core::TieBreak::kDistanceOnly;
  EXPECT_NE(*ComputeSharedWorkKeys(different_tie).exec_key, base_key);

  JoinRequest windowed = base;
  windowed.options.r_window = geom::Rect(0, 0, 10, 10);
  EXPECT_NE(*ComputeSharedWorkKeys(windowed).exec_key, base_key);

  JoinRequest idj = base;
  idj.kind = JoinRequest::Kind::kIdj;
  EXPECT_NE(*ComputeSharedWorkKeys(idj).exec_key, base_key);
  // IDJ runs stream; only KDJ results enter the cache.
  EXPECT_FALSE(ComputeSharedWorkKeys(idj).cache_key.has_value());
}

TEST(SharedWorkKeysTest, SpillKnobsDoNotSeparateKeys) {
  // Spilling changes where the queue lives, never what the join returns —
  // and the service overrides these anyway.
  JoinRequest a;
  JoinRequest b;
  b.options.queue_memory_bytes = a.options.queue_memory_bytes * 2;
  EXPECT_EQ(*ComputeSharedWorkKeys(a).exec_key,
            *ComputeSharedWorkKeys(b).exec_key);
}

TEST(SharedWorkKeysTest, ObserverRequestsAreNeverShared) {
  Tracer tracer;
  JoinRequest traced;
  traced.options.tracer = &tracer;
  EXPECT_FALSE(ComputeSharedWorkKeys(traced).exec_key.has_value());
  EXPECT_FALSE(ComputeSharedWorkKeys(traced).cache_key.has_value());
  EXPECT_FALSE(ComputeSharedWorkKeys(traced).seed_key.has_value());

  RunReport report;
  JoinRequest reported;
  reported.options.report = &report;
  EXPECT_FALSE(ComputeSharedWorkKeys(reported).exec_key.has_value());
}

TEST(SharedWorkKeysTest, SeedKeyIgnoresStagingKnobs) {
  // Dmax(k) is a property of the result multiset: algorithm, sweep,
  // tie-break and estimator choices must all learn from each other.
  JoinRequest a;
  JoinRequest b;
  b.kdj_algorithm = core::KdjAlgorithm::kBKdj;
  b.options.sweep = core::SweepStrategy::kFixedXForward;
  b.options.tie_break = core::TieBreak::kDistanceOnly;
  EXPECT_EQ(*ComputeSharedWorkKeys(a).seed_key,
            *ComputeSharedWorkKeys(b).seed_key);

  JoinRequest c;
  c.options.metric = geom::Metric::kL1;
  EXPECT_NE(*ComputeSharedWorkKeys(a).seed_key,
            *ComputeSharedWorkKeys(c).seed_key);
  JoinRequest d;
  d.options.exclude_same_id = true;
  EXPECT_NE(*ComputeSharedWorkKeys(a).seed_key,
            *ComputeSharedWorkKeys(d).seed_key);
}

// --- in-flight dedupe ---

// Deterministic piggyback setup: one worker, a slow blocker occupying it,
// then N identical submissions — the first becomes the leader (queued
// behind the blocker), the rest MUST register as followers because Submit
// returns only after registration, long before the leader can start.
TEST(SharedWorkServiceTest, DuplicateInflightRequestsCollapseToOneExecution) {
  const geom::Rect uni(0, 0, 10000, 10000);
  test::JoinFixture f = test::MakeFixture(
      workload::UniformPoints(3000, 61, uni),
      workload::UniformPoints(3000, 62, uni), 16, 64);

  JoinService::Options options;
  options.max_inflight = 1;
  options.dedupe_inflight = true;
  JoinService service(*f.r, *f.s, options);

  JoinRequest blocker;
  blocker.kdj_algorithm = core::KdjAlgorithm::kHsKdj;
  blocker.k = 1500;
  std::future<JoinResponse> blocker_future = service.Submit(blocker);

  JoinRequest request;
  request.kdj_algorithm = core::KdjAlgorithm::kAmKdj;
  request.k = 800;
  constexpr size_t kDuplicates = 6;
  std::vector<std::future<JoinResponse>> futures;
  for (size_t i = 0; i < kDuplicates; ++i) {
    futures.push_back(service.Submit(request));
  }
  EXPECT_EQ(service.shared_inflight_hits(), kDuplicates - 1);

  ASSERT_TRUE(blocker_future.get().status.ok());
  std::vector<JoinResponse> responses;
  for (auto& future : futures) responses.push_back(future.get());

  // Solo reference from a sharing-free service.
  JoinService::Options solo_options;
  solo_options.max_inflight = 1;
  solo_options.queue_memory_budget_bytes =
      service.per_query_queue_memory_bytes();
  JoinService solo(*f.r, *f.s, solo_options);
  const JoinResponse reference = solo.Run(request);
  ASSERT_TRUE(reference.status.ok());

  size_t leaders = 0;
  for (size_t q = 0; q < responses.size(); ++q) {
    ASSERT_TRUE(responses[q].status.ok()) << responses[q].status.ToString();
    ExpectSameResults(responses[q].results, reference.results, "dup");
    if (responses[q].stats.shared_hit == 0) {
      ++leaders;
      EXPECT_GT(responses[q].stats.node_accesses, 0u) << "leader " << q;
    } else {
      // Followers carry the leader's counters plus the marker; their
      // wait/exec attribution is their own.
      EXPECT_EQ(responses[q].stats.shared_hit, 1u);
      EXPECT_GE(responses[q].wait_seconds, 0.0);
      EXPECT_GE(responses[q].exec_seconds, 0.0);
    }
  }
  EXPECT_EQ(leaders, 1u) << "exactly one real execution per dedupe group";

  // Every submission got a response and the admission identity closed.
  const JoinService::AdmissionSnapshot snapshot = service.admission_snapshot();
  EXPECT_EQ(snapshot.accepted, kDuplicates + 1);
  EXPECT_EQ(snapshot.completed, kDuplicates + 1);
  EXPECT_EQ(snapshot.inflight, 0u);
  EXPECT_EQ(snapshot.queued, 0u);
}

TEST(SharedWorkServiceTest, TracedRequestsExecuteSolo) {
  const geom::Rect uni(0, 0, 5000, 5000);
  test::JoinFixture f = test::MakeFixture(
      workload::UniformPoints(2000, 63, uni),
      workload::UniformPoints(2000, 64, uni), 16, 64);

  JoinService::Options options;
  options.max_inflight = 1;
  options.dedupe_inflight = true;
  options.shared_cache_entries = 8;
  JoinService service(*f.r, *f.s, options);

  // The blocker carries a report, so it is unshareable too — every
  // observer-carrying request in this test must leave the registry empty.
  RunReport blocker_report;
  JoinRequest blocker;
  blocker.kdj_algorithm = core::KdjAlgorithm::kHsKdj;
  blocker.k = 1200;
  blocker.options.report = &blocker_report;
  std::future<JoinResponse> blocker_future = service.Submit(blocker);

  // Two identical traced requests behind the blocker: each must run its
  // own execution (a tracer records ONE execution's events).
  Tracer tracer_a;
  Tracer tracer_b;
  JoinRequest traced;
  traced.k = 400;
  traced.options.tracer = &tracer_a;
  std::future<JoinResponse> first = service.Submit(traced);
  traced.options.tracer = &tracer_b;
  std::future<JoinResponse> second = service.Submit(traced);

  ASSERT_TRUE(blocker_future.get().status.ok());
  const JoinResponse ra = first.get();
  const JoinResponse rb = second.get();
  ASSERT_TRUE(ra.status.ok());
  ASSERT_TRUE(rb.status.ok());
  EXPECT_EQ(ra.stats.shared_hit, 0u);
  EXPECT_EQ(rb.stats.shared_hit, 0u);
  EXPECT_GT(ra.stats.node_accesses, 0u);
  EXPECT_GT(rb.stats.node_accesses, 0u);
  EXPECT_EQ(service.shared_inflight_hits(), 0u);
  // And the traced runs never entered the cache.
  EXPECT_EQ(service.shared_cache_size(), 0u);
}

// --- semantic result cache ---

TEST(SharedWorkServiceTest, CacheAnswersSmallerKByteIdentically) {
  const workload::Dataset r_data =
      workload::TigerStreets({.street_segments = 3000, .seed = 71});
  const workload::Dataset s_data =
      workload::TigerHydro({.hydro_objects = 1200, .seed = 71});
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 16, 64);

  JoinService::Options options;
  options.max_inflight = 2;
  options.shared_cache_entries = 8;
  JoinService service(*f.r, *f.s, options);

  JoinRequest big;
  big.k = 1000;
  const JoinResponse warm = service.Run(big);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_EQ(warm.results.size(), 1000u);
  EXPECT_EQ(warm.stats.shared_hit, 0u);
  EXPECT_EQ(service.shared_cache_size(), 1u);

  test::JoinFixture fresh = test::MakeFixture(r_data, s_data, 16, 64);
  JoinService::Options solo_options;
  solo_options.max_inflight = 1;
  solo_options.queue_memory_budget_bytes =
      service.per_query_queue_memory_bytes();
  JoinService solo(*fresh.r, *fresh.s, solo_options);

  for (const uint64_t smaller : {1000u, 999u, 500u, 17u, 1u}) {
    JoinRequest request;
    request.k = smaller;
    const JoinResponse cached = service.Run(request);
    ASSERT_TRUE(cached.status.ok());
    EXPECT_EQ(cached.stats.shared_hit, 1u) << "k=" << smaller;
    EXPECT_EQ(cached.stats.node_accesses, 0u)
        << "a cache hit must not touch the trees";
    const JoinResponse reference = solo.Run(request);
    ASSERT_TRUE(reference.status.ok());
    ExpectSameResults(cached.results, reference.results, "cached");
  }
  EXPECT_EQ(service.shared_cache_hits(), 5u);
}

// The boundary case the prefix property must survive: k' lands inside a
// plateau of equal distances. Collinear integer points give massive ties
// (many pairs at each integer distance); the deterministic tie order
// (objects-first, then ids) makes prefix-of-cached == fresh-run exact.
TEST(SharedWorkServiceTest, CachePrefixExactOnTiePlateauBoundary) {
  workload::Dataset r_data;
  workload::Dataset s_data;
  for (int i = 0; i < 40; ++i) {
    r_data.objects.push_back(geom::Rect::FromPoint(geom::Point(i, 0)));
    s_data.objects.push_back(geom::Rect::FromPoint(geom::Point(i, 0)));
  }
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 8, 64);

  JoinService::Options options;
  options.shared_cache_entries = 4;
  JoinService service(*f.r, *f.s, options);

  JoinRequest big;
  big.k = 300;  // spans the d=0 plateau (40 pairs) and several more
  const JoinResponse warm = service.Run(big);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_EQ(warm.results.size(), 300u);

  JoinService fresh_service(*f.r, *f.s, {});  // no sharing
  // 20 and 40 cut the zero plateau mid-way and at its edge; 100 lands
  // inside the d=1 plateau (78 pairs, ranks 41..118).
  for (const uint64_t boundary : {20u, 39u, 40u, 41u, 100u, 299u}) {
    JoinRequest request;
    request.k = boundary;
    const JoinResponse cached = service.Run(request);
    ASSERT_TRUE(cached.status.ok());
    EXPECT_EQ(cached.stats.shared_hit, 1u) << "k=" << boundary;
    const JoinResponse reference = fresh_service.Run(request);
    ASSERT_TRUE(reference.status.ok());
    ExpectSameResults(cached.results, reference.results, "plateau");
  }
}

TEST(SharedWorkServiceTest, ExhaustiveEntryAnswersAnyLargerK) {
  const geom::Rect uni(0, 0, 1000, 1000);
  test::JoinFixture f = test::MakeFixture(
      workload::UniformPoints(20, 73, uni),
      workload::UniformPoints(20, 74, uni), 8, 64);

  JoinService::Options options;
  options.shared_cache_entries = 4;
  JoinService service(*f.r, *f.s, options);

  JoinRequest over;
  over.k = 1000;  // only 400 pairs exist
  const JoinResponse warm = service.Run(over);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_EQ(warm.results.size(), 400u);

  JoinRequest way_over;
  way_over.k = 100000;
  const JoinResponse cached = service.Run(way_over);
  ASSERT_TRUE(cached.status.ok());
  EXPECT_EQ(cached.stats.shared_hit, 1u);
  ExpectSameResults(cached.results, warm.results, "exhaustive");
}

TEST(SharedWorkServiceTest, LargerKMissesCacheButSeedsEstimator) {
  const workload::Dataset r_data =
      workload::TigerStreets({.street_segments = 3000, .seed = 75});
  const workload::Dataset s_data =
      workload::TigerHydro({.hydro_objects = 1200, .seed = 75});
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 16, 64);

  JoinService::Options options;
  options.shared_cache_entries = 8;
  JoinService service(*f.r, *f.s, options);

  JoinRequest small;
  small.k = 200;
  ASSERT_TRUE(service.Run(small).status.ok());
  const uint64_t seeds_before = service.shared_seed_hits();

  JoinRequest big;
  big.k = 2000;
  const JoinResponse grown = service.Run(big);
  ASSERT_TRUE(grown.status.ok());
  EXPECT_EQ(grown.stats.shared_hit, 0u) << "k'>k is a cache miss";
  EXPECT_GT(service.shared_seed_hits(), seeds_before)
      << "the observed Dmax(200) must seed the k=2000 estimate";

  // The seeded run is byte-identical to an unseeded solo run: the seed
  // stages the adaptive algorithm, it cannot change results.
  JoinService no_sharing(*f.r, *f.s, {});
  const JoinResponse reference = no_sharing.Run(big);
  ASSERT_TRUE(reference.status.ok());
  ExpectSameResults(grown.results, reference.results, "seeded");
}

TEST(SharedWorkServiceTest, CacheEvictsLruAndStaysBounded) {
  const geom::Rect uni(0, 0, 2000, 2000);
  test::JoinFixture f = test::MakeFixture(
      workload::UniformPoints(500, 77, uni),
      workload::UniformPoints(500, 78, uni), 16, 64);

  JoinService::Options options;
  options.shared_cache_entries = 2;
  JoinService service(*f.r, *f.s, options);

  // Three distinct cache keys (distinct algorithms / tie-breaks).
  JoinRequest a;
  a.k = 100;
  JoinRequest b = a;
  b.kdj_algorithm = core::KdjAlgorithm::kBKdj;
  JoinRequest c = a;
  c.options.tie_break = core::TieBreak::kDistanceOnly;

  ASSERT_TRUE(service.Run(a).status.ok());
  ASSERT_TRUE(service.Run(b).status.ok());
  EXPECT_EQ(service.shared_cache_size(), 2u);
  ASSERT_TRUE(service.Run(c).status.ok());
  EXPECT_EQ(service.shared_cache_size(), 2u) << "capacity is a hard bound";

  // `a` was the least recently used -> evicted: re-running it misses.
  const uint64_t hits_before = service.shared_cache_hits();
  const JoinResponse again = service.Run(a);
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.stats.shared_hit, 0u);
  EXPECT_EQ(service.shared_cache_hits(), hits_before);
  // `c` stayed resident.
  const JoinResponse c_again = service.Run(c);
  ASSERT_TRUE(c_again.status.ok());
  EXPECT_EQ(c_again.stats.shared_hit, 1u);
}

// --- randomized differential: cached/deduped == fresh solo, always ---

TEST(SharedWorkServiceTest, RandomOptionLaddersMatchFreshSoloRuns) {
  const workload::Dataset r_data =
      workload::TigerStreets({.street_segments = 2500, .seed = 79});
  const workload::Dataset s_data =
      workload::TigerHydro({.hydro_objects = 1000, .seed = 79});
  test::JoinFixture f = test::MakeFixture(r_data, s_data, 16, 64);

  JoinService::Options options;
  options.max_inflight = 2;
  options.dedupe_inflight = true;
  options.shared_cache_entries = 16;
  JoinService service(*f.r, *f.s, options);

  JoinService no_sharing(*f.r, *f.s, {.max_inflight = 2});

  std::mt19937 rng(2026);
  const core::KdjAlgorithm algorithms[] = {core::KdjAlgorithm::kHsKdj,
                                           core::KdjAlgorithm::kBKdj,
                                           core::KdjAlgorithm::kAmKdj};
  const core::SweepStrategy sweeps[] = {core::SweepStrategy::kOptimized,
                                        core::SweepStrategy::kFixedXForward};
  const core::TieBreak ties[] = {core::TieBreak::kObjectsFirst,
                                 core::TieBreak::kDistanceOnly};
  for (int set = 0; set < 6; ++set) {
    JoinRequest request;
    request.kdj_algorithm = algorithms[rng() % 3];
    request.options.sweep = sweeps[rng() % 2];
    request.options.tie_break = ties[rng() % 2];
    std::vector<uint64_t> ladder = {600, 50, 300, 600, 123, 600, 1};
    std::shuffle(ladder.begin(), ladder.end(), rng);
    for (const uint64_t k : ladder) {
      request.k = k;
      const JoinResponse shared = service.Run(request);
      ASSERT_TRUE(shared.status.ok()) << shared.status.ToString();
      JoinRequest solo_request = request;
      const JoinResponse reference = no_sharing.Run(solo_request);
      ASSERT_TRUE(reference.status.ok());
      ExpectSameResults(shared.results, reference.results, "ladder");
    }
  }
  EXPECT_GT(service.shared_cache_hits(), 0u);
}

// --- registry unit coverage ---

TEST(SharedWorkRegistryTest, SeedPrefersExactUpperBoundOverExtrapolation) {
  SharedWorkRegistry registry(/*cache_entries=*/4);
  const core::DmaxEstimator estimator(geom::Rect(0, 0, 100, 100), 1000,
                                      geom::Rect(0, 0, 100, 100), 1000);
  const std::string key = "S|test";

  EXPECT_FALSE(registry.SeedFor(key, 100, estimator).has_value());

  registry.RecordDmax(key, 500, geom::DistVal(7.5), /*exhaustive=*/false);
  // k <= k0: dmax(k0) is an exact upper bound.
  auto seed = registry.SeedFor(key, 100, estimator);
  ASSERT_TRUE(seed.has_value());
  EXPECT_DOUBLE_EQ(seed->raw(), 7.5);

  // k > every observation: conservative Eq. 4/5 extrapolation from the
  // largest observed point — strictly above the observed dmax.
  seed = registry.SeedFor(key, 2000, estimator);
  ASSERT_TRUE(seed.has_value());
  EXPECT_GT(seed->raw(), 7.5);
  EXPECT_DOUBLE_EQ(seed->raw(),
                   estimator.Correct(2000, 500, geom::DistVal(7.5),
                                     /*aggressive=*/false)
                       .raw());

  // A closer (smaller) covering observation tightens the bound.
  registry.RecordDmax(key, 150, geom::DistVal(4.0), /*exhaustive=*/false);
  seed = registry.SeedFor(key, 100, estimator);
  ASSERT_TRUE(seed.has_value());
  EXPECT_DOUBLE_EQ(seed->raw(), 4.0);

  // An exhaustive run's Dmax upper-bounds every k.
  registry.RecordDmax(key, 90, geom::DistVal(3.0), /*exhaustive=*/true);
  seed = registry.SeedFor(key, 1000000, estimator);
  ASSERT_TRUE(seed.has_value());
  EXPECT_DOUBLE_EQ(seed->raw(), 3.0);
}

TEST(SharedWorkRegistryTest, CacheKeepsLargerKOnCollision) {
  SharedWorkRegistry registry(/*cache_entries=*/4);
  std::vector<core::ResultPair> small(10);
  std::vector<core::ResultPair> large(50);
  for (size_t i = 0; i < large.size(); ++i) {
    large[i].distance = static_cast<double>(i);
    if (i < small.size()) small[i].distance = static_cast<double>(i);
  }
  registry.CacheInsert("k", 50, large);
  registry.CacheInsert("k", 10, small);  // must not downgrade the entry
  auto hit = registry.CacheLookup("k", 30);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->results.size(), 30u);
  EXPECT_DOUBLE_EQ(hit->results.back().distance, 29.0);
}

}  // namespace
}  // namespace amdj
