#ifndef AMDJ_WORKLOAD_DATASET_H_
#define AMDJ_WORKLOAD_DATASET_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "geom/rect.h"
#include "rtree/entry.h"

namespace amdj::workload {

/// A named collection of spatial objects (MBRs with dense ids 0..n-1),
/// i.e. one side of a distance join.
struct Dataset {
  std::string name;
  std::vector<geom::Rect> objects;

  /// MBR of the whole set (Rect::Empty() when empty).
  geom::Rect Bounds() const;

  /// R-tree entries (object id = index).
  std::vector<rtree::Entry> ToEntries() const;

  /// Binary round trip for caching generated workloads between runs.
  /// LoadFrom fails with Corruption on a malformed file or on a NaN/inf
  /// coordinate or one beyond ±geom::kMaxCoord, naming the object index.
  Status SaveTo(const std::string& path) const;
  static StatusOr<Dataset> LoadFrom(const std::string& path);

  /// Imports real data from CSV. Each non-empty, non-`#` line is either a
  /// point `x,y` or a rectangle `x0,y0,x1,y1` (whitespace tolerated; rows
  /// may mix). Object ids are assigned in row order. Fails with
  /// InvalidArgument on the first malformed row, NaN/inf coordinate or
  /// coordinate beyond ±geom::kMaxCoord, naming its line number.
  static StatusOr<Dataset> FromCsv(const std::string& path);
};

}  // namespace amdj::workload

#endif  // AMDJ_WORKLOAD_DATASET_H_
