#include "dataset/ranked_view.h"

namespace skycube {

RankedView::RankedView(const Dataset& data)
    : data_(&data),
      num_dims_(data.num_dims()),
      num_objects_(data.num_objects()),
      values_(static_cast<size_t>(num_dims_) * num_objects_) {
  for (size_t id = 0; id < num_objects_; ++id) {
    const double* row = data.Row(static_cast<ObjectId>(id));
    for (int dim = 0; dim < num_dims_; ++dim) {
      values_[static_cast<size_t>(dim) * num_objects_ + id] = row[dim];
    }
  }
}

}  // namespace skycube
