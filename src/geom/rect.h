#ifndef AMDJ_GEOM_RECT_H_
#define AMDJ_GEOM_RECT_H_

#include <limits>
#include <string>

#include "geom/point.h"

namespace amdj::geom {

/// The coordinate domain: |c| <= kMaxCoord for every coordinate an input
/// may carry. Two points inside it are at most 2 * kMaxCoord apart per
/// axis, so the largest key any metric forms, the squared L2 diagonal
/// 8 * kMaxCoord^2, stays finite, and with it every distance. The dataset
/// loaders reject coordinates beyond it.
inline constexpr double kMaxCoord = 1e150;
static_assert(8 * kMaxCoord * kMaxCoord <
              std::numeric_limits<double>::max());

/// An axis-aligned rectangle (MBR). Degenerate rectangles (lo == hi along an
/// axis) represent points and line-segment endpoints.
struct Rect {
  Point lo;  ///< Minimum corner.
  Point hi;  ///< Maximum corner.

  Rect() = default;
  Rect(const Point& l, const Point& h) : lo(l), hi(h) {}
  Rect(double x0, double y0, double x1, double y1)
      : lo(x0, y0), hi(x1, y1) {}

  /// A rectangle that contains nothing and acts as the identity for Extend().
  static Rect Empty();

  /// The degenerate rectangle covering exactly `p`.
  static Rect FromPoint(const Point& p) { return Rect(p, p); }

  /// True if no point is contained (as produced by Empty()).
  bool IsEmpty() const { return lo.x > hi.x || lo.y > hi.y; }

  /// True if lo <= hi on every axis (Empty() is not valid in this sense).
  bool IsValid() const { return lo.x <= hi.x && lo.y <= hi.y; }

  /// Side length along `axis` (the paper's |r|_x).
  double Side(int axis) const { return hi.Coord(axis) - lo.Coord(axis); }

  double Area() const { return IsEmpty() ? 0.0 : Side(0) * Side(1); }

  /// Perimeter / 2; the R*-tree "margin" measure.
  double Margin() const { return IsEmpty() ? 0.0 : Side(0) + Side(1); }

  Point Center() const {
    return Point((lo.x + hi.x) * 0.5, (lo.y + hi.y) * 0.5);
  }

  bool Contains(const Point& p) const {
    return lo.x <= p.x && p.x <= hi.x && lo.y <= p.y && p.y <= hi.y;
  }

  bool Contains(const Rect& r) const {
    return lo.x <= r.lo.x && r.hi.x <= hi.x && lo.y <= r.lo.y &&
           r.hi.y <= hi.y;
  }

  bool Intersects(const Rect& r) const {
    return !(r.lo.x > hi.x || r.hi.x < lo.x || r.lo.y > hi.y ||
             r.hi.y < lo.y);
  }

  /// Grows this rectangle to cover `r`.
  void Extend(const Rect& r);

  /// Grows this rectangle to cover `p`.
  void Extend(const Point& p);

  bool operator==(const Rect& o) const { return lo == o.lo && hi == o.hi; }
  bool operator!=(const Rect& o) const { return !(*this == o); }

  std::string ToString() const;
};

/// Smallest rectangle covering both arguments.
Rect Union(const Rect& a, const Rect& b);

/// Intersection; Empty() if disjoint.
Rect Intersection(const Rect& a, const Rect& b);

/// Area of the intersection (0 if disjoint).
double IntersectionArea(const Rect& a, const Rect& b);

/// Separation of [a.lo, a.hi] and [b.lo, b.hi] projected on `axis`:
/// 0 if the projections overlap, otherwise the gap length. This is the
/// paper's axis_distance used for plane-sweep pruning.
double AxisDistance(const Rect& a, const Rect& b, int axis);

/// Minimum Euclidean distance between any point of `a` and any point of `b`
/// (the paper's dist(r, s); 0 if they intersect).
double MinDistance(const Rect& a, const Rect& b);

/// Squared minimum distance (cheaper; monotone in MinDistance).
double MinDistanceSquared(const Rect& a, const Rect& b);

/// Maximum Euclidean distance between any point of `a` and any point of `b`.
double MaxDistance(const Rect& a, const Rect& b);

/// MINMAXDIST of a point query to a rectangle is not needed for joins and is
/// intentionally omitted.

}  // namespace amdj::geom

#endif  // AMDJ_GEOM_RECT_H_
