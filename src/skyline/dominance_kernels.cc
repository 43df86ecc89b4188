#include "skyline/dominance_kernels.h"

#include <algorithm>

namespace skycube {

namespace {

// Batch tile width: two flag arrays of this size stay comfortably in L1
// next to the value columns being scanned. Flags and masks are 64-bit, the
// lane width of a double compare, and the loops update them with selects
// (`c ? x : y`): GCC 12 vectorizes that form for double compares, but not
// `x &= static_cast<uint64_t>(c)`.
constexpr size_t kTile = 256;

// First tile width for the any-dominates probe. Window algorithms keep
// their windows in a sort order that concentrates strong dominators at the
// front, so most dominated probes are killed within the first few rows —
// a pairwise scan would exploit that with a first-dominator early exit.
// Starting small and growing geometrically (4 -> 16 -> 64 -> 256) restores
// that early exit at tile granularity without giving up vectorized
// throughput on probes that survive deep into the window.
constexpr size_t kFirstTile = 4;

}  // namespace

RankedBlock::RankedBlock(DimMask subspace, size_t capacity)
    : dims_(MaskDims(subspace)), capacity_(capacity) {
  values_.resize(dims_.size() * capacity_);
}

RankedBlock RankedBlock::Gather(const RankedView& view, DimMask subspace,
                                const std::vector<ObjectId>& ids) {
  SKYCUBE_DCHECK(IsSubsetOf(subspace, FullMask(view.num_dims())));
  RankedBlock block(subspace, ids.size());
  for (size_t k = 0; k < block.dims_.size(); ++k) {
    const double* col = view.column(block.dims_[k]);
    double* out = block.values_.data() + k * block.capacity_;
    for (size_t j = 0; j < ids.size(); ++j) out[j] = col[ids[j]];
  }
  block.size_ = ids.size();
  return block;
}

void RankedBlock::Grow() {
  const size_t new_capacity = capacity_ == 0 ? 64 : capacity_ * 2;
  std::vector<double> grown(dims_.size() * new_capacity);
  for (size_t k = 0; k < dims_.size(); ++k) {
    const double* src = values_.data() + k * capacity_;
    double* dst = grown.data() + k * new_capacity;
    for (size_t j = 0; j < size_; ++j) dst[j] = src[j];
  }
  values_ = std::move(grown);
  capacity_ = new_capacity;
}

void RankedBlock::CompactWhereZero(const uint8_t* drop) {
  size_t keep = 0;
  for (size_t j = 0; j < size_; ++j) keep += (drop[j] == 0);
  if (keep == size_) return;
  for (size_t k = 0; k < dims_.size(); ++k) {
    double* col = values_.data() + k * capacity_;
    size_t out = 0;
    for (size_t j = 0; j < size_; ++j) {
      if (drop[j] == 0) col[out++] = col[j];
    }
  }
  size_ = keep;
}

bool BlockAnyDominates(const RankedBlock& block, const double* probe) {
  const int num_dims = block.num_packed_dims();
  const size_t n = block.size();
  uint64_t le[kTile];  // row ≤ probe on every dim scanned so far
  uint64_t lt[kTile];  // row < probe on some dim
  size_t tile = kFirstTile;
  for (size_t base = 0; base < n;
       base += tile, tile = std::min(tile * 4, kTile)) {
    const size_t m = std::min(tile, n - base);
    for (size_t j = 0; j < m; ++j) le[j] = 1;
    for (size_t j = 0; j < m; ++j) lt[j] = 0;
    uint64_t alive = 1;
    for (int k = 0; k < num_dims && alive != 0; ++k) {
      const double* col = block.column(k) + base;
      const double r = probe[k];
      alive = 0;
      for (size_t j = 0; j < m; ++j) {
        le[j] = col[j] <= r ? le[j] : 0;
        lt[j] = col[j] < r ? 1 : lt[j];
        alive |= le[j];
      }
      // Once no row is still ≤ on every scanned dim, the whole tile is
      // dead — the batch analogue of the pairwise incomparable short-circuit.
    }
    uint64_t any = 0;
    for (size_t j = 0; j < m; ++j) any |= (le[j] & lt[j]);
    if (any != 0) return true;
  }
  return false;
}

void BlockDominatedFlags(const RankedBlock& block, const double* probe,
                         uint8_t* dominated) {
  const int num_dims = block.num_packed_dims();
  const size_t n = block.size();
  uint64_t ge[kTile];  // probe ≤ row on every dim scanned so far
  uint64_t gt[kTile];  // probe < row on some dim
  for (size_t base = 0; base < n; base += kTile) {
    const size_t m = std::min(kTile, n - base);
    for (size_t j = 0; j < m; ++j) ge[j] = 1;
    for (size_t j = 0; j < m; ++j) gt[j] = 0;
    uint64_t alive = 1;
    for (int k = 0; k < num_dims && alive != 0; ++k) {
      const double* col = block.column(k) + base;
      const double r = probe[k];
      alive = 0;
      for (size_t j = 0; j < m; ++j) {
        ge[j] = r <= col[j] ? ge[j] : 0;
        gt[j] = r < col[j] ? 1 : gt[j];
        alive |= ge[j];
      }
      // Dead tile: no row can be dominated once every ge flag dropped.
    }
    for (size_t j = 0; j < m; ++j) {
      dominated[base + j] = static_cast<uint8_t>(ge[j] & gt[j]);
    }
  }
}

void RankedWindow::EvictDominatedBy(ObjectId target) {
  if (ids_.empty()) return;
  block_.GatherProbe(data_->Row(target), probe_.data());
  dominated_.assign(ids_.size(), 0);
  BlockDominatedFlags(block_, probe_.data(), dominated_.data());
  size_t keep = 0;
  for (size_t j = 0; j < ids_.size(); ++j) {
    if (dominated_[j] == 0) ids_[keep++] = ids_[j];
  }
  if (keep == ids_.size()) return;
  block_.CompactWhereZero(dominated_.data());
  ids_.resize(keep);
}

void DominatedBitmap(const RankedView& view, ObjectId candidate,
                     const ObjectId* ids, size_t count, DimMask subspace,
                     DynamicBitset* out) {
  SKYCUBE_DCHECK(out->size() >= count);
  uint64_t ge[kTile];
  uint64_t gt[kTile];
  const std::vector<int> dims = MaskDims(subspace);
  for (size_t base = 0; base < count; base += kTile) {
    const size_t m = std::min(kTile, count - base);
    for (size_t j = 0; j < m; ++j) ge[j] = 1;
    for (size_t j = 0; j < m; ++j) gt[j] = 0;
    uint64_t alive = 1;
    for (size_t k = 0; k < dims.size() && alive != 0; ++k) {
      const double* col = view.column(dims[k]);
      const double r = col[candidate];
      const ObjectId* id = ids + base;
      alive = 0;
      for (size_t j = 0; j < m; ++j) {
        const double v = col[id[j]];
        ge[j] = r <= v ? ge[j] : 0;
        gt[j] = r < v ? 1 : gt[j];
        alive |= ge[j];
      }
    }
    for (size_t j = 0; j < m; ++j) {
      if ((ge[j] & gt[j]) != 0) out->Set(base + j);
    }
  }
}

void CoincidenceMasks(const RankedView& view, ObjectId reference,
                      const ObjectId* ids, size_t count, DimMask universe,
                      DimMask* out) {
  std::fill(out, out + count, DimMask{0});
  ForEachDim(universe, [&](int dim) {
    const double* col = view.column(dim);
    const double r = col[reference];
    const DimMask bit = DimBit(dim);
    for (size_t j = 0; j < count; ++j) {
      out[j] |= col[ids[j]] == r ? bit : 0;
    }
  });
}

void DominanceMasks(const RankedView& view, ObjectId reference,
                    const ObjectId* ids, size_t count, DimMask universe,
                    DimMask* out) {
  std::fill(out, out + count, DimMask{0});
  ForEachDim(universe, [&](int dim) {
    const double* col = view.column(dim);
    const double r = col[reference];
    const DimMask bit = DimBit(dim);
    for (size_t j = 0; j < count; ++j) {
      out[j] |= r < col[ids[j]] ? bit : 0;
    }
  });
}

void PairwiseDominanceTile(const RankedBlock& block, size_t i_begin,
                           size_t i_end, size_t j_begin, size_t j_end,
                           DimMask* dom, size_t stride) {
  const int num_dims = block.num_packed_dims();
  const size_t width = j_end - j_begin;
  for (size_t i = i_begin; i < i_end; ++i) {
    DimMask* row = dom + (i - i_begin) * stride;
    std::fill(row, row + width, DimMask{0});
    for (int k = 0; k < num_dims; ++k) {
      const DimMask bit = DimBit(block.dim(k));
      const double ri = block.column(k)[i];
      const double* col = block.column(k) + j_begin;
      for (size_t j = 0; j < width; ++j) {
        row[j] |= ri < col[j] ? bit : 0;
      }
    }
  }
}

}  // namespace skycube
