// JoinStats serialization round-trip and delta semantics: every field the
// ForEachJoinStatsField visitor knows about must appear in ToString and
// ToJson (the satellite bug this guards against: a field added to the
// struct but silently missing from a serialization), and SubtractJoinStats
// must implement the kAdd/kMax phase-delta contract RunReport relies on.

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/run_report.h"
#include "common/stats.h"

namespace amdj {
namespace {

/// Fills every field with a distinct, recognizable value (index-derived) so
/// serializations can be checked for per-field presence.
JoinStats MakeDistinctStats(uint64_t base) {
  JoinStats s;
  uint64_t i = 0;
  ForEachJoinStatsField(s, [&i, base](const char*, auto& field,
                                      StatFieldKind) {
    using Field = std::decay_t<decltype(field)>;
    field = static_cast<Field>(base + 7 * i);
    ++i;
  });
  return s;
}

TEST(JoinStatsSerializationTest, VisitorCoversEveryField) {
  int count = 0;
  JoinStats s;
  ForEachJoinStatsField(
      s, [&count](const char*, const auto&, StatFieldKind) { ++count; });
  // 18 uint64 counters + 2 double times; the sizeof static_assert in
  // stats.cc enforces that this visitor cannot fall behind the struct.
  EXPECT_EQ(count, 20);
}

TEST(JoinStatsSerializationTest, EveryFieldAppearsInToString) {
  const JoinStats s = MakeDistinctStats(1000);
  const std::string text = s.ToString();
  ForEachJoinStatsField(s, [&text](const char* name, const auto& field,
                                   StatFieldKind) {
    EXPECT_NE(text.find(name), std::string::npos) << "missing " << name;
    std::ostringstream value;
    value << name << ": " << field;
    EXPECT_NE(text.find(value.str()), std::string::npos)
        << "missing value for " << name << " in:\n"
        << text;
  });
}

TEST(JoinStatsSerializationTest, EveryFieldAppearsInToJsonWithValue) {
  const JoinStats s = MakeDistinctStats(2000);
  const std::string json = s.ToJson();
  ForEachJoinStatsField(s, [&json](const char* name, const auto& field,
                                   StatFieldKind) {
    using Field = std::decay_t<decltype(field)>;
    std::string pair = std::string("\"") + name + "\":";
    if constexpr (std::is_same_v<Field, double>) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", field);
      pair += buf;
    } else {
      pair += std::to_string(field);
    }
    EXPECT_NE(json.find(pair), std::string::npos)
        << "missing " << pair << " in " << json;
  });
  // Derived totals are part of the schema too.
  EXPECT_NE(json.find("\"total_distance_computations\":"), std::string::npos);
  EXPECT_NE(json.find("\"response_seconds\":"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(JoinStatsDeltaTest, SubtractTakesDifferencesAndKeepsPeaks) {
  JoinStats begin = MakeDistinctStats(100);
  JoinStats end = MakeDistinctStats(100);
  end.Add(MakeDistinctStats(50));  // end = begin + extra, peaks take max

  const JoinStats delta = SubtractJoinStats(end, begin);
  ForEachJoinStatsFieldPair(
      delta, begin,
      [&end](const char* name, const auto& d, const auto& b,
             StatFieldKind kind) {
        // Find the matching end-field value by re-walking (names are the
        // visitor's literals, so pointer identity is fine but compare by
        // strcmp for robustness).
        ForEachJoinStatsField(end, [&](const char* n2, const auto& e,
                                       StatFieldKind) {
          if (std::string(name) != n2) return;
          if (kind == StatFieldKind::kMax) {
            EXPECT_EQ(static_cast<double>(d), static_cast<double>(e))
                << name << ": kMax delta must report the end value";
          } else {
            EXPECT_EQ(static_cast<double>(d),
                      static_cast<double>(e) - static_cast<double>(b))
                << name;
          }
        });
      });
}

TEST(JoinStatsDeltaTest, AddThenSubtractRoundTrips) {
  const JoinStats begin = MakeDistinctStats(300);
  const JoinStats extra = MakeDistinctStats(40);
  JoinStats end = begin;
  end.Add(extra);
  const JoinStats delta = SubtractJoinStats(end, begin);
  ForEachJoinStatsFieldPair(
      delta, extra,
      [](const char* name, const auto& d, const auto& x, StatFieldKind kind) {
        if (kind == StatFieldKind::kMax) return;  // reports end value instead
        EXPECT_EQ(static_cast<double>(d), static_cast<double>(x)) << name;
      });
}

TEST(RunReportTest, PhaseDeltasSumToTotals) {
  RunReport report;
  JoinStats live;  // the shared counter block a join would mutate

  report.BeginPhase("one", live);
  live.real_distance_computations += 10;
  live.pairs_produced += 4;
  live.main_queue_peak_size = 7;
  report.BeginPhase("two", live);  // implicitly ends "one"
  live.real_distance_computations += 5;
  live.pairs_produced += 2;
  live.main_queue_peak_size = 9;
  report.Finish(live);

  ASSERT_EQ(report.phases().size(), 2u);
  JoinStats summed;
  for (const RunReport::Phase& p : report.phases()) summed.Add(p.delta);
  ForEachJoinStatsFieldPair(
      summed, report.totals(),
      [](const char* name, const auto& s, const auto& t, StatFieldKind kind) {
        if (kind == StatFieldKind::kMax) {
          EXPECT_EQ(static_cast<double>(s), static_cast<double>(t))
              << name << ": max over phase end-values is the run peak";
          return;
        }
        if (std::string(name) == "cpu_seconds") return;  // added post-run
        EXPECT_EQ(static_cast<double>(s), static_cast<double>(t)) << name;
      });
}

TEST(RunReportTest, CutoffTrajectoryTruncatesLoudly) {
  RunReport report;
  for (size_t i = 0; i < RunReport::kMaxTrajectory + 10; ++i) {
    report.OnCutoff("point", static_cast<double>(i), i);
  }
  EXPECT_EQ(report.cutoff_trajectory().size(), RunReport::kMaxTrajectory);
  // The final point always survives (last slot is overwritten).
  EXPECT_EQ(report.cutoff_trajectory().back().pairs_so_far,
            RunReport::kMaxTrajectory + 9);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"cutoff_trajectory_dropped\":10"), std::string::npos)
      << json;
}

TEST(RunReportTest, JsonAndTableCarrySchemaAndMeta) {
  RunReport report;
  report.SetMeta("AM-KDJ", 42);
  JoinStats live;
  report.BeginPhase("aggressive", live);
  live.pairs_produced = 42;
  report.OnCutoff("final_dmax", 3.5, 42);
  report.Finish(live);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema\":\"amdj-run-report-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"algorithm\":\"AM-KDJ\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":42"), std::string::npos);
  const std::string table = report.ToTable();
  EXPECT_NE(table.find("aggressive"), std::string::npos);
  EXPECT_NE(table.find("pairs_produced"), std::string::npos);
  EXPECT_NE(table.find("final_dmax"), std::string::npos);
}

}  // namespace
}  // namespace amdj
