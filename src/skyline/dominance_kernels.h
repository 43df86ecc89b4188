// Columnar batch dominance kernels — the branch-poor, batch-shaped
// counterparts of the pairwise kernels in skyline/dominance.h.
//
// The kernels read double columns: the dataset's transpose (RankedView,
// dataset/ranked_view.h) or a packed RankedBlock of selected rows. They
// compare with the same IEEE `<`/`==` as the row kernels, so every result
// equals the pairwise oracle's (tests/skyline/dominance_kernels_test.cc
// asserts this). The wins come from flag accumulation instead of
// data-dependent branches and from batch shapes — one probe row against a
// contiguous block of rows, or tile × tile — whose inner loops are
// independent across rows.
#ifndef SKYCUBE_SKYLINE_DOMINANCE_KERNELS_H_
#define SKYCUBE_SKYLINE_DOMINANCE_KERNELS_H_

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/subspace.h"
#include "dataset/ranked_view.h"

namespace skycube {

/// A packed column-major block of values for a subset of objects,
/// restricted to the dimensions of one subspace (packed densely in
/// increasing dimension order). Batch kernels run over its contiguous
/// columns.
class RankedBlock {
 public:
  /// An empty block over the dims of `subspace` with initial room for
  /// `capacity` rows (a hint — Append grows the block geometrically).
  RankedBlock(DimMask subspace, size_t capacity);

  /// Gathers all of `ids` into a block, column by column.
  static RankedBlock Gather(const RankedView& view, DimMask subspace,
                            const std::vector<ObjectId>& ids);

  int num_packed_dims() const { return static_cast<int>(dims_.size()); }
  /// Original dimension index of packed column `k`.
  int dim(int k) const { return dims_[k]; }
  size_t size() const { return size_; }

  /// Contiguous value column of packed dimension `k` (size() valid entries).
  const double* column(int k) const {
    return values_.data() + static_cast<size_t>(k) * capacity_;
  }

  /// Appends one object as a new row, growing if full. `row` holds all of
  /// the object's values, indexed by original dimension.
  void Append(const double* row) {
    if (size_ == capacity_) Grow();
    for (size_t k = 0; k < dims_.size(); ++k) {
      values_[k * capacity_ + size_] = row[dims_[k]];
    }
    ++size_;
  }

  /// Fills probe[k] with `row`'s value on packed dimension `k` — the probe
  /// row format the batch kernels take. `row` is indexed as in Append.
  void GatherProbe(const double* row, double* probe) const {
    for (size_t k = 0; k < dims_.size(); ++k) probe[k] = row[dims_[k]];
  }

  /// Removes every row j with drop[j] != 0, preserving order.
  void CompactWhereZero(const uint8_t* drop);

 private:
  void Grow();

  std::vector<int> dims_;  // packed dim -> original dim
  size_t capacity_;
  size_t size_ = 0;
  std::vector<double> values_;  // packed-dim-major, stride capacity_
};

/// True iff some row of `block` strictly dominates the probe row (equal
/// rows do not dominate). Tiles internally with per-tile early exit.
bool BlockAnyDominates(const RankedBlock& block, const double* probe);

/// dominated[j] = 1 iff the probe row strictly dominates block row j.
/// `dominated` must have block.size() entries.
void BlockDominatedFlags(const RankedBlock& block, const double* probe,
                         uint8_t* dominated);

/// Batch twin of RowDominates: sets bit j of `out` (sized `count`) iff
/// `candidate` strictly dominates ids[j] in `subspace`. out must be a
/// DynamicBitset of `count` cleared bits.
void DominatedBitmap(const RankedView& view, ObjectId candidate,
                     const ObjectId* ids, size_t count, DimMask subspace,
                     DynamicBitset* out);

/// Batch twin of Dataset::CoincidenceMask: out[j] = dims of `universe`
/// where ids[j] shares `reference`'s value.
void CoincidenceMasks(const RankedView& view, ObjectId reference,
                      const ObjectId* ids, size_t count, DimMask universe,
                      DimMask* out);

/// Batch twin of Dataset::DominanceMask: out[j] = dims of `universe` where
/// `reference`'s value is strictly smaller than ids[j]'s.
void DominanceMasks(const RankedView& view, ObjectId reference,
                    const ObjectId* ids, size_t count, DimMask universe,
                    DimMask* out);

/// Tile kernel behind PairwiseMasks: for every (i, j) in
/// [i_begin, i_end) × [j_begin, j_end), writes the dominance mask
/// dom(i, j) = {dims of the block's subspace : value_i < value_j} into
/// dom[(i - i_begin) * stride + (j - j_begin)]. Cells are fully
/// overwritten; dom(i, i) = 0 falls out naturally.
void PairwiseDominanceTile(const RankedBlock& block, size_t i_begin,
                           size_t i_end, size_t j_begin, size_t j_end,
                           DimMask* dom, size_t stride);

/// A dominance window over the view's objects: the BNL/SFS/LESS/index-
/// method working set, stored as a RankedBlock with ids alongside.
/// AnyDominates is the batch inner loop of every window algorithm;
/// EvictDominatedBy supports the BNL-style eviction pass.
class RankedWindow {
 public:
  /// `view` must outlive the window.
  RankedWindow(const RankedView& view, DimMask subspace, size_t capacity)
      : data_(&view.data()),
        block_(subspace, capacity),
        probe_(block_.num_packed_dims() > 0 ? block_.num_packed_dims() : 1) {
    ids_.reserve(capacity);
  }

  const std::vector<ObjectId>& ids() const { return ids_; }
  size_t size() const { return ids_.size(); }

  /// True iff some window row strictly dominates `target`.
  bool AnyDominates(ObjectId target) {
    block_.GatherProbe(data_->Row(target), probe_.data());
    return BlockAnyDominates(block_, probe_.data());
  }

  /// Removes every window row strictly dominated by `target`.
  void EvictDominatedBy(ObjectId target);

  void Append(ObjectId id) {
    block_.Append(data_->Row(id));
    ids_.push_back(id);
  }

 private:
  const Dataset* data_;
  RankedBlock block_;
  std::vector<ObjectId> ids_;
  std::vector<double> probe_;
  std::vector<uint8_t> dominated_;  // eviction scratch
};

}  // namespace skycube

#endif  // SKYCUBE_SKYLINE_DOMINANCE_KERNELS_H_
