// Column-major (SoA) copy of a Dataset's doubles.
//
// The view is one O(n·d) transpose of the row-major table: column(dim)
// holds every object's value on `dim`, contiguous and indexed by ObjectId.
// The batch dominance kernels (skyline/dominance_kernels.h) and every
// window algorithm scan these columns directly; they compare the doubles
// with IEEE `<` and `==`, the same comparisons the row-major oracle makes
// (inputs are finite, and -0.0 == +0.0), so no rank compression is needed.
//
// The view is immutable and keeps a pointer to the source Dataset (which
// must outlive it): per-object work that wants a whole row at once reads
// it from data().
#ifndef SKYCUBE_DATASET_RANKED_VIEW_H_
#define SKYCUBE_DATASET_RANKED_VIEW_H_

#include <vector>

#include "common/subspace.h"
#include "dataset/dataset.h"

namespace skycube {

/// The values of a Dataset, one contiguous column per dimension.
class RankedView {
 public:
  /// Transposes `data`. `data` must outlive the view.
  explicit RankedView(const Dataset& data);

  const Dataset& data() const { return *data_; }
  int num_dims() const { return num_dims_; }
  size_t num_objects() const { return num_objects_; }

  /// Contiguous value column of dimension `dim` (indexed by ObjectId).
  const double* column(int dim) const {
    SKYCUBE_DCHECK(dim >= 0 && dim < num_dims_);
    return values_.data() + static_cast<size_t>(dim) * num_objects_;
  }

 private:
  const Dataset* data_;
  int num_dims_;
  size_t num_objects_;
  std::vector<double> values_;  // dim-major: values_[dim * n + id]
};

}  // namespace skycube

#endif  // SKYCUBE_DATASET_RANKED_VIEW_H_
