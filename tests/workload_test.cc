#include "workload/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "workload/dataset.h"

namespace amdj::workload {
namespace {

const geom::Rect kUniverse(0, 0, kUniverseSize, kUniverseSize);

void ExpectAllInUniverse(const Dataset& ds, const geom::Rect& universe) {
  for (const geom::Rect& r : ds.objects) {
    EXPECT_TRUE(r.IsValid());
    EXPECT_TRUE(universe.Contains(r)) << r.ToString();
  }
}

TEST(GeneratorsTest, UniformPointsBasics) {
  const auto ds = UniformPoints(1000, 1);
  EXPECT_EQ(ds.objects.size(), 1000u);
  ExpectAllInUniverse(ds, kUniverse);
  for (const auto& r : ds.objects) EXPECT_EQ(r.Area(), 0.0);
  // Roughly centered.
  double cx = 0;
  for (const auto& r : ds.objects) cx += r.Center().x;
  EXPECT_NEAR(cx / 1000.0, kUniverseSize / 2, kUniverseSize * 0.05);
}

TEST(GeneratorsTest, Determinism) {
  const auto a = UniformPoints(100, 42);
  const auto b = UniformPoints(100, 42);
  const auto c = UniformPoints(100, 43);
  EXPECT_EQ(a.objects.size(), b.objects.size());
  for (size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i], b.objects[i]);
  }
  EXPECT_NE(a.objects[0], c.objects[0]);
}

TEST(GeneratorsTest, UniformRectsHaveRequestedScale) {
  const auto ds = UniformRects(2000, 100.0, 2);
  EXPECT_EQ(ds.objects.size(), 2000u);
  ExpectAllInUniverse(ds, kUniverse);
  double mean_w = 0;
  for (const auto& r : ds.objects) mean_w += r.Side(0);
  mean_w /= ds.objects.size();
  EXPECT_NEAR(mean_w, 100.0, 20.0);  // exponential mean (clamped)
}

TEST(GeneratorsTest, GaussianClustersAreClustered) {
  const auto clustered = GaussianClusters(3000, 4, 0.01, 3);
  const auto uniform = UniformPoints(3000, 3);
  ExpectAllInUniverse(clustered, kUniverse);
  // Clustered data has much smaller mean nearest-ish distance: compare
  // mean distance to a random other point within each set.
  auto spread = [](const Dataset& ds) {
    double total = 0;
    for (size_t i = 0; i + 1 < ds.objects.size(); i += 2) {
      total += geom::MinDistance(ds.objects[i], ds.objects[i + 1]);
    }
    return total;
  };
  EXPECT_LT(spread(clustered), spread(uniform) * 0.8);
}

TEST(GeneratorsTest, ZipfSkewConcentratesMass) {
  const auto ds = ZipfSkewedPoints(5000, 0.9, 4);
  ExpectAllInUniverse(ds, kUniverse);
  // A heavily skewed distribution puts far more than a quarter of the
  // points into the lowest-coordinate quadrant.
  int low_quadrant = 0;
  for (const auto& r : ds.objects) {
    if (r.lo.x < kUniverseSize / 4 && r.lo.y < kUniverseSize / 4) {
      ++low_quadrant;
    }
  }
  EXPECT_GT(low_quadrant, 5000 / 4);
}

TEST(GeneratorsTest, TigerStreetsShape) {
  TigerSynthOptions opts;
  opts.street_segments = 20000;
  opts.hydro_objects = 6000;
  const auto streets = TigerStreets(opts);
  EXPECT_EQ(streets.objects.size(), 20000u);
  ExpectAllInUniverse(streets, kUniverse);
  // Street segments are small relative to the universe (road segments,
  // not highways across the whole state in one MBR).
  double mean_diag = 0;
  for (const auto& r : streets.objects) {
    mean_diag += std::hypot(r.Side(0), r.Side(1));
  }
  mean_diag /= streets.objects.size();
  EXPECT_LT(mean_diag, 0.01 * kUniverseSize);
  EXPECT_GT(mean_diag, 0.0001 * kUniverseSize);
}

TEST(GeneratorsTest, TigerHydroShape) {
  TigerSynthOptions opts;
  opts.street_segments = 20000;
  opts.hydro_objects = 6000;
  const auto hydro = TigerHydro(opts);
  EXPECT_EQ(hydro.objects.size(), 6000u);
  ExpectAllInUniverse(hydro, kUniverse);
}

TEST(GeneratorsTest, TigerDatasetsOverlapLikeRealGeography) {
  // Streets and hydrography share the same towns, so their MBRs must
  // overlap substantially — the distance join depends on this.
  TigerSynthOptions opts;
  opts.street_segments = 10000;
  opts.hydro_objects = 3000;
  const auto streets = TigerStreets(opts);
  const auto hydro = TigerHydro(opts);
  const double inter =
      geom::IntersectionArea(streets.Bounds(), hydro.Bounds());
  EXPECT_GT(inter, 0.5 * hydro.Bounds().Area());
  // And hydro objects actually come near streets: sample minimum distances.
  double near_count = 0;
  for (size_t i = 0; i < 200; ++i) {
    const auto& h = hydro.objects[i * (hydro.objects.size() / 200)];
    double best = 1e18;
    for (size_t j = 0; j < streets.objects.size(); j += 7) {
      best = std::min(best, geom::MinDistance(h, streets.objects[j]));
    }
    if (best < 0.02 * kUniverseSize) ++near_count;
  }
  EXPECT_GT(near_count, 120);
}

TEST(GeneratorsTest, TigerIsClusteredNotUniform) {
  // The synthetic census data must be skewed (the paper's estimator
  // discussion hinges on it): compare local density variance against a
  // uniform layout on a coarse grid.
  TigerSynthOptions opts;
  opts.street_segments = 20000;
  const auto streets = TigerStreets(opts);
  const auto uniform = UniformPoints(20000, opts.seed);
  auto grid_variance = [](const Dataset& ds) {
    constexpr int kG = 16;
    std::vector<double> counts(kG * kG, 0.0);
    for (const auto& r : ds.objects) {
      const auto c = r.Center();
      int gx = std::min(kG - 1, static_cast<int>(c.x / kUniverseSize * kG));
      int gy = std::min(kG - 1, static_cast<int>(c.y / kUniverseSize * kG));
      counts[gy * kG + gx] += 1.0;
    }
    const double mean = ds.objects.size() / double(kG * kG);
    double var = 0;
    for (double c : counts) var += (c - mean) * (c - mean);
    return var / (kG * kG);
  };
  EXPECT_GT(grid_variance(streets), 10.0 * grid_variance(uniform));
}

TEST(DatasetTest, SaveLoadRoundTrip) {
  auto ds = UniformRects(500, 20.0, 5);
  ds.name = "roundtrip";
  const std::string path = ::testing::TempDir() + "/amdj_ds_test.bin";
  ASSERT_TRUE(ds.SaveTo(path).ok());
  auto loaded = Dataset::LoadFrom(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->name, "roundtrip");
  ASSERT_EQ(loaded->objects.size(), ds.objects.size());
  for (size_t i = 0; i < ds.objects.size(); ++i) {
    EXPECT_EQ(loaded->objects[i], ds.objects[i]);
  }
  std::remove(path.c_str());
}

TEST(DatasetTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/amdj_garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a dataset", f);
  std::fclose(f);
  EXPECT_FALSE(Dataset::LoadFrom(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(Dataset::LoadFrom("/nonexistent/nope.bin").ok());

  // A well-formed file carrying a NaN or inf coordinate is corrupt too.
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Dataset ds = UniformRects(5, 20.0, 5);
    ds.objects[3].hi.y = bad;
    ASSERT_TRUE(ds.SaveTo(path).ok());
    auto loaded = Dataset::LoadFrom(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    EXPECT_NE(loaded.status().message().find("object 3"), std::string::npos)
        << loaded.status().ToString();
    std::remove(path.c_str());
  }
}

TEST(DatasetTest, ToEntriesAssignsDenseIds) {
  const auto ds = UniformPoints(10, 6);
  const auto entries = ds.ToEntries();
  ASSERT_EQ(entries.size(), 10u);
  for (uint32_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].id, i);
    EXPECT_EQ(entries[i].rect, ds.objects[i]);
  }
}

TEST(DatasetTest, FromCsvParsesPointsAndRects) {
  const std::string path = ::testing::TempDir() + "/amdj_csv_test.csv";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("# hotels\n", f);
  std::fputs("1.5, 2.5\n", f);
  std::fputs("\n", f);
  std::fputs("10,20,30,40\n", f);
  std::fputs("  7 , 8 \n", f);
  std::fputs("5,5,1,1\n", f);  // reversed corners are normalized
  std::fclose(f);
  auto ds = Dataset::FromCsv(path);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->objects.size(), 4u);
  EXPECT_EQ(ds->objects[0], geom::Rect(1.5, 2.5, 1.5, 2.5));
  EXPECT_EQ(ds->objects[1], geom::Rect(10, 20, 30, 40));
  EXPECT_EQ(ds->objects[2], geom::Rect(7, 8, 7, 8));
  EXPECT_EQ(ds->objects[3], geom::Rect(1, 1, 5, 5));
  std::remove(path.c_str());
}

TEST(DatasetTest, FromCsvRejectsMalformedRowWithLineNumber) {
  const std::string path = ::testing::TempDir() + "/amdj_csv_bad.csv";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("1,2\n", f);
  std::fputs("not,numbers,here\n", f);
  std::fclose(f);
  auto ds = Dataset::FromCsv(path);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ds.status().message().find("line 2"), std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(Dataset::FromCsv("/nonexistent/x.csv").ok());

  // %lf parses nan/inf (and overflows 1e400 to inf): all are rejected with
  // the offending line, while a large finite value is accepted.
  for (const char* row : {"nan,nan\n", "inf,0\n", "0,-inf\n", "1e400,0\n",
                          "0,0,nan,1\n"}) {
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("1e150,0\n", f);
    std::fputs(row, f);
    std::fclose(f);
    ds = Dataset::FromCsv(path);
    ASSERT_FALSE(ds.ok()) << row;
    EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument) << row;
    EXPECT_NE(ds.status().message().find("non-finite coordinate at line 2"),
              std::string::npos)
        << ds.status().ToString();
    std::remove(path.c_str());
  }
}

// Coordinates at +/-kMaxCoord load; the next double beyond it, on either
// side and in any column, is rejected naming the line.
TEST(DatasetTest, FromCsvAcceptsDomainEdgeAndRejectsBeyond) {
  const std::string path = ::testing::TempDir() + "/amdj_csv_domain.csv";
  const double edge = geom::kMaxCoord;
  const double beyond = std::nextafter(edge, HUGE_VAL);
  auto text = [](double x) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return std::string(buf);
  };
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs((text(edge) + "," + text(-edge) + "\n").c_str(), f);
  std::fputs((text(-edge) + "," + text(-edge) + "," + text(edge) + "," +
              text(edge) + "\n")
                 .c_str(),
             f);
  std::fclose(f);
  auto ds = Dataset::FromCsv(path);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->objects.size(), 2u);
  EXPECT_EQ(ds->objects[0], geom::Rect(edge, -edge, edge, -edge));
  EXPECT_EQ(ds->objects[1], geom::Rect(-edge, -edge, edge, edge));

  for (const std::string& row :
       {text(beyond) + ",0", "0," + text(-beyond),
        "0,0,1," + text(beyond), text(-beyond) + ",0,1,1"}) {
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("0,0\n", f);
    std::fputs((row + "\n").c_str(), f);
    std::fclose(f);
    ds = Dataset::FromCsv(path);
    ASSERT_FALSE(ds.ok()) << row;
    EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument) << row;
    EXPECT_NE(ds.status().message().find(
                  "coordinate beyond +/-1e+150 at line 2"),
              std::string::npos)
        << ds.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(DatasetTest, LoadFromAcceptsDomainEdgeAndRejectsBeyond) {
  const std::string path = ::testing::TempDir() + "/amdj_ds_domain.bin";
  const double edge = geom::kMaxCoord;
  Dataset ds = UniformRects(5, 20.0, 5);
  ds.objects[1] = geom::Rect(-edge, -edge, edge, edge);
  ASSERT_TRUE(ds.SaveTo(path).ok());
  auto loaded = Dataset::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->objects[1], ds.objects[1]);

  for (const double bad : {std::nextafter(edge, HUGE_VAL),
                           std::nextafter(-edge, -HUGE_VAL)}) {
    Dataset beyond = ds;
    beyond.objects[3].lo.y = bad;
    ASSERT_TRUE(beyond.SaveTo(path).ok());
    loaded = Dataset::LoadFrom(path);
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    EXPECT_NE(loaded.status().message().find(
                  "coordinate beyond +/-1e+150 in object 3"),
              std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(DatasetTest, BoundsCoverEverything) {
  const auto ds = UniformRects(100, 30.0, 7);
  const geom::Rect bounds = ds.Bounds();
  for (const auto& r : ds.objects) EXPECT_TRUE(bounds.Contains(r));
  EXPECT_TRUE(Dataset{}.Bounds().IsEmpty());
}

}  // namespace
}  // namespace amdj::workload
