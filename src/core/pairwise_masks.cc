#include "core/pairwise_masks.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "skyline/dominance_kernels.h"

namespace skycube {

namespace {

// j-tile width: one row chunk's output tile (kPairwiseTile DimMask words)
// plus the value columns it scans stay cache resident while the i rows
// stream over them.
constexpr size_t kPairwiseTile = 1024;

}  // namespace

PairwiseMasks::PairwiseMasks(const RankedView& view,
                             std::vector<ObjectId> objects, DimMask universe,
                             bool materialize, int num_threads)
    : data_(&view.data()),
      objects_(std::move(objects)),
      universe_(universe),
      materialized_(materialize) {
  if (!materialized_) return;
  const size_t n = objects_.size();
  dom_.assign(n * n, 0);
  // Gather the seeds' values once into a columnar block and fill the full
  // matrix tile by tile — every cell, including (i, i) and the lower
  // triangle, has exactly one writer, so chunking over i rows is
  // race-free. dom(i, i) = 0 falls out of the kernel.
  const RankedBlock block = RankedBlock::Gather(view, universe_, objects_);
  ParallelChunks(n, num_threads, [&](int, size_t begin, size_t end) {
    for (size_t j_begin = 0; j_begin < n; j_begin += kPairwiseTile) {
      const size_t j_end = std::min(j_begin + kPairwiseTile, n);
      PairwiseDominanceTile(block, begin, end, j_begin, j_end,
                            dom_.data() + begin * n + j_begin, n);
    }
  });
}

}  // namespace skycube
