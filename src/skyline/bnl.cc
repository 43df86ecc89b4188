// Block-nested-loops skyline (Börzsönyi, Kossmann, Stocker, ICDE 2001).
// Maintains a window of incomparable objects; every incoming object is
// compared against the window, possibly evicting dominated window entries.
// With the dataset in memory the "blocks" degenerate to a single pass, which
// is the standard in-memory formulation.
#include <algorithm>
#include <vector>

#include "skyline/algorithms.h"
#include "skyline/dominance_kernels.h"

namespace skycube {

// The compare-and-evict pass is two batch probes over a columnar window:
// "does any window row dominate the candidate?" and, only if not, "evict
// the rows the candidate dominates". Equal rows dominate in neither
// direction, so they stay side by side.
std::vector<ObjectId> SkylineBnl(const RankedView& view, DimMask subspace,
                                 const std::vector<ObjectId>& candidates) {
  RankedWindow window(view, subspace, std::min<size_t>(candidates.size(), 256));
  for (ObjectId candidate : candidates) {
    if (window.AnyDominates(candidate)) continue;
    window.EvictDominatedBy(candidate);
    window.Append(candidate);
  }
  std::vector<ObjectId> skyline = window.ids();
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

}  // namespace skycube
