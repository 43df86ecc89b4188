// LESS — linear elimination sort for skyline (Godfrey, Shipley, Gryz,
// VLDB 2005). Two ideas on top of SFS: (1) during the initial pass an
// elimination-filter (EF) window of a few best-scoring objects discards
// clearly dominated records before the sort; (2) the final pass is the SFS
// filter over the survivors. On average the sort then touches far fewer
// records than SFS.
#include <algorithm>
#include <vector>

#include "skyline/algorithms.h"
#include "skyline/dominance.h"
#include "skyline/dominance_kernels.h"

namespace skycube {

namespace {

constexpr size_t kEfWindowSize = 16;

}  // namespace

std::vector<ObjectId> SkylineLess(const RankedView& view, DimMask subspace,
                                  const std::vector<ObjectId>& candidates) {
  const Dataset& data = view.data();
  // Pass 1: eliminate records dominated by the EF window while collecting
  // scores. The EF window retains the lowest-scoring objects seen so far
  // (low score = likely dominator); it holds at most kEfWindowSize
  // entries, so it stays pairwise.
  std::vector<PresortEntry> ef;  // kept sorted by score ascending, small
  std::vector<PresortEntry> survivors;
  survivors.reserve(candidates.size());
  for (ObjectId id : candidates) {
    const double* row = data.Row(id);
    const PresortEntry scored = MakePresortEntry(data, subspace, id);
    const double score = scored.score;
    bool dominated = false;
    for (const PresortEntry& entry : ef) {
      // A dominator's score is ≤, never >, the dominated row's.
      if (entry.score > score) break;
      if (RowDominates(data.Row(entry.id), row, subspace)) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    survivors.push_back(scored);
    // Update EF window: insert, keep the kEfWindowSize lowest scores.
    if (ef.size() < kEfWindowSize || score < ef.back().score) {
      auto pos = std::lower_bound(
          ef.begin(), ef.end(), score,
          [](const PresortEntry& entry, double s) { return entry.score < s; });
      ef.insert(pos, scored);
      if (ef.size() > kEfWindowSize) ef.pop_back();
    }
  }

  // Pass 2: SFS over the survivors, on a batch columnar window.
  std::sort(survivors.begin(), survivors.end(),
            [&](const PresortEntry& a, const PresortEntry& b) {
              return PresortBefore(data, subspace, a, b);
            });
  RankedWindow window(view, subspace, std::min<size_t>(survivors.size(), 256));
  for (const PresortEntry& entry : survivors) {
    if (!window.AnyDominates(entry.id)) window.Append(entry.id);
  }
  std::vector<ObjectId> skyline = window.ids();
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

}  // namespace skycube
