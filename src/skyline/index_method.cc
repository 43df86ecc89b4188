// The "Index" skyline method of Tan, Eng, Ooi ("Efficient progressive
// skyline computation", VLDB 2001) — the second of the two algorithms in
// the paper's reference [12].
//
// Objects are processed in ascending order of their minimum coordinate
// minC(p) = min_{Dim ∈ B} p.Dim. Two facts drive the algorithm:
//   1. a dominator always has minC(q) ≤ minC(p) (min is monotone), so a
//      BNL window over this order rarely evicts;
//   2. once some window object q has max coordinate maxC(q) strictly below
//      the smallest remaining minC, every remaining object is strictly
//      dominated by q — the scan stops early.
// The original partitions objects into d sorted lists to emit progressive
// results; a single merged sort performs the identical comparisons, so we
// use that (the library returns complete skylines, not streams).
#include <algorithm>
#include <limits>
#include <vector>

#include "skyline/algorithms.h"
#include "skyline/dominance_kernels.h"

namespace skycube {

namespace {

double MinCoordinate(const double* row, DimMask subspace) {
  double best = row[LowestDim(subspace)];
  ForEachDim(subspace, [&](int dim) { best = std::min(best, row[dim]); });
  return best;
}

double MaxCoordinate(const double* row, DimMask subspace) {
  double best = row[LowestDim(subspace)];
  ForEachDim(subspace, [&](int dim) { best = std::max(best, row[dim]); });
  return best;
}

}  // namespace

// The window is a columnar block probed with the batch kernels; the
// incoming object first asks whether any window row dominates it, and only
// then evicts the rows it dominates.
std::vector<ObjectId> SkylineIndex(const RankedView& view, DimMask subspace,
                                   const std::vector<ObjectId>& candidates) {
  const Dataset& data = view.data();
  struct Entry {
    double min_coord;
    ObjectId id;
  };
  std::vector<Entry> order;
  order.reserve(candidates.size());
  for (ObjectId id : candidates) {
    order.push_back({MinCoordinate(data.Row(id), subspace), id});
  }
  std::sort(order.begin(), order.end(), [](const Entry& a, const Entry& b) {
    if (a.min_coord != b.min_coord) return a.min_coord < b.min_coord;
    return a.id < b.id;
  });

  RankedWindow window(view, subspace, std::min<size_t>(candidates.size(), 256));
  double best_window_max = std::numeric_limits<double>::infinity();
  for (const Entry& entry : order) {
    // Early termination: a window object fits entirely below every
    // remaining object's smallest coordinate → it strictly dominates them.
    if (best_window_max < entry.min_coord) break;
    if (window.AnyDominates(entry.id)) continue;
    window.EvictDominatedBy(entry.id);
    window.Append(entry.id);
    // Evictions cannot invalidate best_window_max: the object that set it
    // is only evicted by a dominator, whose coordinates — hence maximum —
    // are no larger.
    best_window_max =
        std::min(best_window_max, MaxCoordinate(data.Row(entry.id), subspace));
  }
  std::vector<ObjectId> skyline = window.ids();
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

}  // namespace skycube
