// The dominance and coincidence matrices of the paper's §5.1, restricted to
// the seed objects F(S). Cell dom(i,j) holds the dimensions on which seed i
// is strictly smaller than seed j; co(i,j) the dimensions where they
// coincide. Property 1: co(i,j) = D − dom(i,j) − dom(j,i), so only the
// dominance cells need storage.
//
// Storage is O(|F(S)|²) words when materialized; for large seed sets (the
// anti-correlated workloads) the provider can instead recompute cells from
// the rows on demand — the benchmarked ablation `materialize` toggles this.
#ifndef SKYCUBE_CORE_PAIRWISE_MASKS_H_
#define SKYCUBE_CORE_PAIRWISE_MASKS_H_

#include <cstddef>
#include <vector>

#include "common/subspace.h"
#include "dataset/dataset.h"
#include "dataset/ranked_view.h"

namespace skycube {

/// Provides dom/co masks between seed objects, addressed by *seed index*
/// (position in the seed list, not raw ObjectId).
class PairwiseMasks {
 public:
  /// `objects` are the seed object ids of `view`; `universe` is the full
  /// space mask. When `materialize` is true, all |objects|² dominance cells
  /// are precomputed in one pass of the tiled columnar kernel, parallelized
  /// over `num_threads` (0 = all hardware threads); otherwise cells are
  /// computed from the rows on demand. `view` must outlive this object.
  PairwiseMasks(const RankedView& view, std::vector<ObjectId> objects,
                DimMask universe, bool materialize, int num_threads = 1);

  size_t size() const { return objects_.size(); }
  ObjectId object(size_t index) const { return objects_[index]; }
  const std::vector<ObjectId>& objects() const { return objects_; }
  DimMask universe() const { return universe_; }

  /// Dimensions where object(i) < object(j). dom(i,i) = ∅.
  DimMask Dominance(size_t i, size_t j) const {
    if (materialized_) return dom_[i * objects_.size() + j];
    return data_->DominanceMask(objects_[i], objects_[j], universe_);
  }

  /// Dimensions where object(i) == object(j). co(i,i) = universe.
  DimMask Coincidence(size_t i, size_t j) const {
    if (materialized_) {
      return universe_ & ~dom_[i * objects_.size() + j] &
             ~dom_[j * objects_.size() + i];
    }
    return data_->CoincidenceMask(objects_[i], objects_[j], universe_);
  }

  bool materialized() const { return materialized_; }

 private:
  const Dataset* data_;
  std::vector<ObjectId> objects_;
  DimMask universe_;
  bool materialized_;
  std::vector<DimMask> dom_;  // row-major |objects|² when materialized
};

}  // namespace skycube

#endif  // SKYCUBE_CORE_PAIRWISE_MASKS_H_
