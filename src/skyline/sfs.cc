// Sort-filter-skyline (Chomicki, Godfrey, Gryz, Liang, ICDE 2003).
// Objects are presorted by a monotone score (here the coordinate sum over
// the subspace, ties broken lexicographically); after the sort no object
// can dominate an earlier one, so a single pass with a grow-only window
// suffices — no evictions, unlike BNL.
#include <algorithm>
#include <vector>

#include "skyline/algorithms.h"
#include "skyline/dominance.h"
#include "skyline/dominance_kernels.h"

namespace skycube {

std::vector<ObjectId> SkylineSfs(const RankedView& view, DimMask subspace,
                                 const std::vector<ObjectId>& candidates) {
  const Dataset& data = view.data();
  std::vector<PresortEntry> order;
  order.reserve(candidates.size());
  for (ObjectId id : candidates) {
    order.push_back(MakePresortEntry(data, subspace, id));
  }
  std::sort(order.begin(), order.end(),
            [&](const PresortEntry& a, const PresortEntry& b) {
              return PresortBefore(data, subspace, a, b);
            });

  RankedWindow window(view, subspace, std::min<size_t>(candidates.size(), 256));
  for (const PresortEntry& entry : order) {
    if (!window.AnyDominates(entry.id)) window.Append(entry.id);
  }
  std::vector<ObjectId> skyline = window.ids();
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

}  // namespace skycube
