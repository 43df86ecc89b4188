#include "router/merge.h"

#include <algorithm>

#include "skyline/dominance_kernels.h"

namespace skycube::router {

std::vector<ObjectId> MergeSkylineCandidates(
    const RowStore& rows, DimMask subspace,
    std::vector<ObjectId> candidates) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (candidates.size() <= 1) return candidates;

  // Gather the candidates' rows straight into one columnar block.
  RankedBlock block(subspace, candidates.size());
  for (ObjectId gid : candidates) block.Append(rows.Row(gid));

  // One refilter pass: candidate i survives iff no candidate strictly
  // dominates it. A row never strictly dominates itself or an equal row,
  // so probing against the full block (self included) is safe.
  std::vector<ObjectId> merged;
  merged.reserve(candidates.size());
  std::vector<double> probe(
      static_cast<size_t>(std::max(block.num_packed_dims(), 1)));
  for (ObjectId gid : candidates) {
    block.GatherProbe(rows.Row(gid), probe.data());
    if (!BlockAnyDominates(block, probe.data())) merged.push_back(gid);
  }
  return merged;
}

}  // namespace skycube::router
