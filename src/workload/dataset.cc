#include "workload/dataset.h"

#include <cstdio>
#include <cstring>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace amdj::workload {

geom::Rect Dataset::Bounds() const {
  geom::Rect bounds = geom::Rect::Empty();
  for (const geom::Rect& r : objects) bounds.Extend(r);
  return bounds;
}

std::vector<rtree::Entry> Dataset::ToEntries() const {
  std::vector<rtree::Entry> entries;
  entries.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    entries.emplace_back(objects[i], static_cast<uint32_t>(i));
  }
  return entries;
}

namespace {
constexpr char kMagic[8] = {'A', 'M', 'D', 'J', 'D', 'S', '0', '1'};

bool IsFinite(const geom::Rect& r) {
  return std::isfinite(r.lo.x) && std::isfinite(r.lo.y) &&
         std::isfinite(r.hi.x) && std::isfinite(r.hi.y);
}

bool InDomain(double c) { return std::fabs(c) <= geom::kMaxCoord; }

bool InDomain(const geom::Rect& r) {
  return InDomain(r.lo.x) && InDomain(r.lo.y) && InDomain(r.hi.x) &&
         InDomain(r.hi.y);
}

/// "coordinate beyond +/-1e+150": names the domain limit in messages.
std::string OutOfDomain() {
  char limit[32];
  std::snprintf(limit, sizeof(limit), "%g", geom::kMaxCoord);
  return std::string("coordinate beyond +/-") + limit;
}
}  // namespace

Status Dataset::SaveTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  uint64_t n = objects.size();
  uint64_t name_len = name.size();
  bool ok = std::fwrite(kMagic, 1, sizeof(kMagic), f) == sizeof(kMagic) &&
            std::fwrite(&name_len, sizeof(name_len), 1, f) == 1 &&
            (name_len == 0 ||
             std::fwrite(name.data(), 1, name_len, f) == name_len) &&
            std::fwrite(&n, sizeof(n), 1, f) == 1 &&
            (n == 0 ||
             std::fwrite(objects.data(), sizeof(geom::Rect), n, f) == n);
  std::fclose(f);
  if (!ok) return Status::IOError("short write to " + path);
  return Status::OK();
}

StatusOr<Dataset> Dataset::LoadFrom(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  char magic[sizeof(kMagic)];
  Dataset ds;
  uint64_t n = 0;
  uint64_t name_len = 0;
  bool ok = std::fread(magic, 1, sizeof(magic), f) == sizeof(magic) &&
            std::memcmp(magic, kMagic, sizeof(magic)) == 0 &&
            std::fread(&name_len, sizeof(name_len), 1, f) == 1 &&
            name_len < (1u << 20);
  if (ok && name_len > 0) {
    ds.name.resize(name_len);
    ok = std::fread(ds.name.data(), 1, name_len, f) == name_len;
  }
  ok = ok && std::fread(&n, sizeof(n), 1, f) == 1 && n < (1ull << 32);
  if (ok && n > 0) {
    ds.objects.resize(n);
    ok = std::fread(ds.objects.data(), sizeof(geom::Rect), n, f) == n;
  }
  std::fclose(f);
  if (!ok) return Status::Corruption("malformed dataset file " + path);
  for (size_t i = 0; i < ds.objects.size(); ++i) {
    if (!IsFinite(ds.objects[i])) {
      return Status::Corruption("non-finite coordinate in object " +
                                std::to_string(i) + " of " + path);
    }
    if (!InDomain(ds.objects[i])) {
      return Status::Corruption(OutOfDomain() + " in object " +
                                std::to_string(i) + " of " + path);
    }
  }
  return ds;
}

StatusOr<Dataset> Dataset::FromCsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  Dataset ds;
  ds.name = path;
  char line[4096];
  uint64_t lineno = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++lineno;
    // Skip blank and comment lines.
    const char* p = line;
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '\0' || *p == '\n' || *p == '\r' || *p == '#') continue;
    double v[4];
    const int n = std::sscanf(p, "%lf , %lf , %lf , %lf", &v[0], &v[1],
                              &v[2], &v[3]);
    std::string problem;
    if (n != 2 && n != 4) {
      problem = "malformed CSV row";
    } else if (!std::all_of(v, v + n,
                            [](double x) { return std::isfinite(x); })) {
      // %lf accepts nan/inf; no algorithm has a defined answer for them.
      problem = "non-finite coordinate";
    } else if (!std::all_of(v, v + n,
                            [](double x) { return InDomain(x); })) {
      problem = OutOfDomain();
    }
    if (!problem.empty()) {
      std::fclose(f);
      return Status::InvalidArgument(problem + " at line " +
                                     std::to_string(lineno) + " of " +
                                     path);
    }
    if (n == 2) {
      ds.objects.push_back(geom::Rect::FromPoint(geom::Point(v[0], v[1])));
    } else {
      const geom::Rect r(std::min(v[0], v[2]), std::min(v[1], v[3]),
                         std::max(v[0], v[2]), std::max(v[1], v[3]));
      ds.objects.push_back(r);
    }
  }
  std::fclose(f);
  return ds;
}

}  // namespace amdj::workload
