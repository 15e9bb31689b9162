// Golden ranked output and work counters of the best-first sweeping joins
// (B-KDJ, AM-KDJ, AM-IDJ) on paths no figure bench records: the L1 and
// L-infinity metrics, windows, a self-join, the kind-blind tie break, the
// all-pairs distance queue, forced eDmax values, AM-IDJ stage schedules,
// every correction policy and the histogram estimator. Each case pins a
// digest of the ranked output (distance bits and ids) and every JoinStats
// field except the two time fields, so a refactor that changes which pairs
// are examined, pushed, spilled or fetched fails here even when the answer
// stays right.
//
// The expected values live in join_golden.txt next to this file, one line
// per case. To re-record them after an intended behaviour change, run
//   AMDJ_GOLDEN_RECORD=/path/to/out.txt ./join_golden_test
// and replace join_golden.txt with the output, explaining the change.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/amidj.h"
#include "core/distance_join.h"
#include "core/histogram_estimator.h"
#include "storage/query_context.h"
#include "test_util.h"
#include "workload/generators.h"

namespace amdj::core {
namespace {

constexpr uint64_t kPairs = 2000;

test::JoinFixture& Fixture() {
  static test::JoinFixture fixture = [] {
    workload::TigerSynthOptions wopts;
    wopts.street_segments = 4000;
    wopts.hydro_objects = 1200;
    wopts.seed = 424242;
    return test::MakeFixture(workload::TigerStreets(wopts),
                             workload::TigerHydro(wopts), 32, 128);
  }();
  return fixture;
}

/// Base options of every case: a 32 KB main queue spilling to the
/// fixture's queue disk.
JoinOptions BaseOptions() {
  JoinOptions options;
  options.queue_disk = Fixture().queue_disk.get();
  options.queue_memory_bytes = 32 * 1024;
  return options;
}

/// One line: the case name, the answer's size and digest, then every
/// integer JoinStats field.
std::string Describe(const std::string& name,
                     const std::vector<ResultPair>& pairs,
                     const JoinStats& stats) {
  uint64_t digest = 14695981039346656037ull;  // FNV-1a over the answer
  const auto mix = [&digest](uint64_t v, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      digest = (digest ^ ((v >> (8 * b)) & 0xff)) * 1099511628211ull;
    }
  };
  for (const ResultPair& p : pairs) {
    mix(std::bit_cast<uint64_t>(p.distance), 8);
    mix(p.r_id, 4);
    mix(p.s_id, 4);
  }
  std::ostringstream line;
  line << name << " pairs=" << pairs.size() << " digest=" << std::hex
       << digest << std::dec;
  ForEachJoinStatsField(stats, [&line](const char* field, const auto& value,
                                       StatFieldKind) {
    if constexpr (std::is_integral_v<std::decay_t<decltype(value)>>) {
      line << ' ' << field << '=' << value;
    }
  });
  return line.str();
}

std::string RunKdj(const std::string& name, KdjAlgorithm algorithm,
                   const JoinOptions& options, bool self_join = false) {
  test::JoinFixture& f = Fixture();
  EXPECT_TRUE(f.pool->Clear().ok());
  const rtree::RTree& s = self_join ? *f.r : *f.s;
  JoinStats stats;
  auto result = RunKDistanceJoin(*f.r, s, kPairs, algorithm, options, &stats);
  EXPECT_TRUE(result.ok()) << name << ": " << result.status().ToString();
  return Describe(name, result.ok() ? *result : std::vector<ResultPair>{},
                  stats);
}

/// Drains an AM-IDJ cursor to kPairs pairs. `before_batch(cursor, b)` runs
/// before each batch b of `batch` pairs (a forced stage schedule).
std::string RunIdj(
    const std::string& name, const JoinOptions& options,
    bool self_join = false, uint64_t batch = kPairs,
    const std::function<void(AmIdjCursor&, uint64_t)>& before_batch = {}) {
  test::JoinFixture& f = Fixture();
  EXPECT_TRUE(f.pool->Clear().ok());
  const rtree::RTree& s = self_join ? *f.r : *f.s;
  JoinStats stats;
  std::vector<ResultPair> pairs;
  {
    const storage::QueryAttributionScope scope(&stats, nullptr);
    AmIdjCursor cursor(*f.r, s, options, &stats);
    ResultPair p;
    bool done = false;
    for (uint64_t b = 1; !done && pairs.size() < kPairs; ++b) {
      if (before_batch) before_batch(cursor, b);
      while (pairs.size() < std::min(kPairs, b * batch)) {
        const Status status = cursor.Next(&p, &done);
        EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
        if (!status.ok() || done) {
          done = true;
          break;
        }
        pairs.push_back(p);
      }
    }
  }
  return Describe(name, pairs, stats);
}

double TrueDmax(uint64_t k) {
  test::JoinFixture& f = Fixture();
  auto dmax = ComputeTrueDmax(*f.r, *f.s, k, BaseOptions());
  EXPECT_TRUE(dmax.ok());
  return dmax.ok() ? *dmax : 0.0;
}

std::vector<std::string> RunAllCases() {
  test::JoinFixture& f = Fixture();
  const geom::Rect rb = f.r->bounds();
  const geom::Rect sb = f.s->bounds();
  // The lower-left 60% of R's bounds and the upper-right 60% of S's.
  const geom::Rect r_window(rb.lo.x, rb.lo.y,
                            rb.lo.x + 0.6 * (rb.hi.x - rb.lo.x),
                            rb.lo.y + 0.6 * (rb.hi.y - rb.lo.y));
  const geom::Rect s_window(sb.lo.x + 0.4 * (sb.hi.x - sb.lo.x),
                            sb.lo.y + 0.4 * (sb.hi.y - sb.lo.y), sb.hi.x,
                            sb.hi.y);

  struct Variant {
    std::string name;
    std::function<void(JoinOptions*)> set;
    bool self_join = false;
  };
  const std::vector<Variant> variants = {
      {"l2", [](JoinOptions*) {}},
      {"l1", [](JoinOptions* o) { o->metric = geom::Metric::kL1; }},
      {"linf", [](JoinOptions* o) { o->metric = geom::Metric::kLInf; }},
      {"r_window", [&](JoinOptions* o) { o->r_window = r_window; }},
      {"s_window", [&](JoinOptions* o) { o->s_window = s_window; }},
      {"self_join", [](JoinOptions* o) { o->exclude_same_id = true; }, true},
      {"distance_only",
       [](JoinOptions* o) { o->tie_break = TieBreak::kDistanceOnly; }},
      {"all_pairs",
       [](JoinOptions* o) {
         o->distance_queue_policy = DistanceQueuePolicy::kAllPairs;
       }},
  };

  std::vector<std::string> lines;
  for (const Variant& v : variants) {
    JoinOptions options = BaseOptions();
    v.set(&options);
    lines.push_back(
        RunKdj("bkdj/" + v.name, KdjAlgorithm::kBKdj, options, v.self_join));
    lines.push_back(
        RunKdj("amkdj/" + v.name, KdjAlgorithm::kAmKdj, options, v.self_join));
    lines.push_back(RunIdj("amidj/" + v.name, options, v.self_join));
  }

  const double dmax = TrueDmax(kPairs);
  for (const auto& [label, factor] :
       std::vector<std::pair<std::string, double>>{
           {"0", 0.0}, {"0.1x", 0.1}, {"10x", 10.0}}) {
    JoinOptions options = BaseOptions();
    options.forced_edmax = geom::DistVal(dmax * factor);
    lines.push_back(
        RunKdj("amkdj/forced_edmax_" + label, KdjAlgorithm::kAmKdj, options));
  }
  {
    JoinOptions options = BaseOptions();
    options.distance_queue_policy = DistanceQueuePolicy::kAllPairs;
    options.forced_edmax = geom::DistVal(dmax * 0.1);
    lines.push_back(RunKdj("amkdj/all_pairs_forced_edmax_0.1x",
                           KdjAlgorithm::kAmKdj, options));
  }

  {
    JoinOptions options = BaseOptions();
    options.idj_initial_k = 16;
    lines.push_back(RunIdj("amidj/initial_k_16", options));
  }
  {
    // Five batches of 400 pairs; each batch forces its next stage to 0.9x
    // the true Dmax of the batch's last pair (the first to half of it), so
    // forced stages and estimated ones alternate.
    std::vector<double> step_dmax;
    for (uint64_t b = 1; b <= 5; ++b) step_dmax.push_back(TrueDmax(400 * b));
    lines.push_back(RunIdj(
        "amidj/forced_schedule", BaseOptions(), false, 400,
        [&step_dmax](AmIdjCursor& cursor, uint64_t b) {
          const double factor = b == 1 ? 0.5 : 0.9;
          cursor.ForceNextStageEdmax(
              geom::DistVal(step_dmax[b - 1] * factor));
        }));
  }
  for (const auto& [label, policy] :
       std::vector<std::pair<std::string, CorrectionPolicy>>{
           {"aggressive", CorrectionPolicy::kAggressive},
           {"conservative", CorrectionPolicy::kConservative},
           {"arithmetic", CorrectionPolicy::kArithmeticOnly},
           {"geometric", CorrectionPolicy::kGeometricOnly}}) {
    JoinOptions options = BaseOptions();
    options.idj_initial_k = 64;
    options.correction = policy;
    lines.push_back(RunIdj("amidj/correction_" + label, options));
  }
  {
    auto histogram = HistogramEstimator::FromTrees(*f.r, *f.s);
    EXPECT_TRUE(histogram.ok());
    if (histogram.ok()) {
      JoinOptions options = BaseOptions();
      options.estimator = &*histogram;
      lines.push_back(
          RunKdj("amkdj/histogram", KdjAlgorithm::kAmKdj, options));
      options.idj_initial_k = 64;
      lines.push_back(RunIdj("amidj/histogram", options));
    }
  }
  return lines;
}

std::string CaseName(const std::string& line) {
  return line.substr(0, line.find(' '));
}

TEST(JoinGoldenTest, OutputAndWorkCountersMatchRecordedValues) {
  const std::vector<std::string> actual = RunAllCases();

  if (const char* record = std::getenv("AMDJ_GOLDEN_RECORD")) {
    std::ofstream out(record);
    for (const std::string& line : actual) out << line << '\n';
    ASSERT_TRUE(out.good()) << "cannot write " << record;
    GTEST_SKIP() << "recorded " << actual.size() << " cases to " << record;
  }

  std::ifstream in(AMDJ_GOLDEN_FILE);
  ASSERT_TRUE(in.is_open()) << "cannot open " << AMDJ_GOLDEN_FILE;
  std::map<std::string, std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) expected[CaseName(line)] = line;
  }
  EXPECT_EQ(expected.size(), actual.size())
      << "the golden file and the test disagree on the case list";
  for (const std::string& line : actual) {
    const auto it = expected.find(CaseName(line));
    ASSERT_NE(it, expected.end()) << "no golden value for " << CaseName(line);
    EXPECT_EQ(it->second, line);
  }
}

}  // namespace
}  // namespace amdj::core
