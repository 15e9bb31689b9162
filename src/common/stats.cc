#include "common/stats.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <type_traits>

namespace amdj {

// Field-count tripwire: 18 uint64_t counters + 2 double times. If this
// fires you added (or removed) a JoinStats field — update
// ForEachJoinStatsField in stats.h and then this constant; every derived
// serialization (ToString/ToJson/Add/deltas) follows automatically.
static_assert(sizeof(JoinStats) == 18 * sizeof(uint64_t) + 2 * sizeof(double),
              "JoinStats changed: update ForEachJoinStatsField (stats.h) "
              "and this size check");

namespace {

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void JoinStats::Add(const JoinStats& other) {
  ForEachJoinStatsFieldPair(
      *this, other,
      [](const char*, auto& dst, const auto& src, StatFieldKind kind) {
        using Field = std::decay_t<decltype(dst)>;
        if (kind == StatFieldKind::kMax) {
          dst = std::max<Field>(dst, src);
        } else {
          dst += src;
        }
      });
}

void JoinStats::Reset() { *this = JoinStats(); }

JoinStats SubtractJoinStats(const JoinStats& end, const JoinStats& begin) {
  JoinStats delta = end;
  ForEachJoinStatsFieldPair(
      delta, begin,
      [](const char*, auto& dst, const auto& src, StatFieldKind kind) {
        if (kind == StatFieldKind::kMax) return;  // keep the end value
        dst -= src;
      });
  return delta;
}

std::string JoinStats::ToString() const {
  std::ostringstream os;
  os << "JoinStats{\n";
  ForEachJoinStatsField(
      *this, [&os](const char* name, const auto& field, StatFieldKind) {
        os << "  " << name << ": " << field << "\n";
      });
  os << "}";
  return os.str();
}

std::string JoinStats::ToJson() const {
  std::string out = "{";
  bool first = true;
  ForEachJoinStatsField(*this, [&out, &first](const char* name,
                                              const auto& field,
                                              StatFieldKind) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    using Field = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<Field, double>) {
      out += FormatDouble(field);
    } else {
      out += std::to_string(field);
    }
  });
  out += ",\"total_distance_computations\":";
  out += std::to_string(total_distance_computations());
  out += ",\"response_seconds\":";
  out += FormatDouble(response_seconds());
  out += '}';
  return out;
}

}  // namespace amdj
