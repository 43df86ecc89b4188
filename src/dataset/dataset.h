// In-memory multidimensional dataset: the object set S in space D.
//
// Values are doubles with smaller-is-better semantics (the skyline
// convention of Börzsönyi et al.). Datasets with larger-is-better columns —
// like the NBA player statistics in the paper — are handled by Negated().
#ifndef SKYCUBE_DATASET_DATASET_H_
#define SKYCUBE_DATASET_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/subspace.h"

namespace skycube {

/// Identifier of an object (row) in a Dataset.
using ObjectId = uint32_t;

/// Parses a subspace from dimension names out of `dim_names`, e.g.
/// "price,stops" or "price+stops" (',' and '+' separate; spaces ignored).
/// Fails with NotFound on an unknown name, InvalidArgument on an empty
/// list.
Result<DimMask> MaskFromNameList(const std::vector<std::string>& dim_names,
                                 const std::string& names);

/// True iff every one of `values` is finite. Every dataset value must be:
/// a NaN breaks the dominance order and the presort's strict weak ordering,
/// and inf + -inf turns a coordinate sum into NaN. Ingest paths (CSV, the
/// service, the router, WAL and checkpoint decoding) refuse anything else.
bool AllFinite(const std::vector<double>& values);

/// A dense row-major table of `num_objects() × num_dims()` doubles.
/// Immutable-after-build usage is typical: construct via FromRows / a
/// generator, then hand to the algorithms.
class Dataset {
 public:
  /// Creates an empty dataset with `num_dims` dimensions (1..kMaxDims) and
  /// optional dimension names (defaults to "A", "B", ..., "D17", ...).
  explicit Dataset(int num_dims, std::vector<std::string> dim_names = {});

  /// Builds a dataset from rows; fails on ragged rows, zero dimensions, or
  /// dimensionality above kMaxDims.
  static Result<Dataset> FromRows(std::vector<std::vector<double>> rows,
                                  std::vector<std::string> dim_names = {});

  /// Loads a numeric CSV (header = dimension names when present).
  static Result<Dataset> FromCsvFile(const std::string& path,
                                     bool has_header = true);

  /// Saves to CSV with dimension names as the header.
  Status ToCsvFile(const std::string& path) const;

  /// Appends one row; `values` must have exactly num_dims() entries.
  void AddRow(const std::vector<double>& values);

  int num_dims() const { return num_dims_; }
  size_t num_objects() const { return values_.size() / num_dims_; }

  /// The full space D as a mask.
  DimMask full_mask() const { return FullMask(num_dims_); }

  /// Value of object `id` on dimension `dim`.
  double Value(ObjectId id, int dim) const {
    SKYCUBE_DCHECK(id < num_objects() && dim >= 0 && dim < num_dims_);
    return values_[static_cast<size_t>(id) * num_dims_ + dim];
  }

  /// Pointer to the contiguous row of object `id`.
  const double* Row(ObjectId id) const {
    SKYCUBE_DCHECK(id < num_objects());
    return values_.data() + static_cast<size_t>(id) * num_dims_;
  }

  /// The projection of object `id` onto `subspace`, dimensions in increasing
  /// order (the |B|-tuple u_B of the paper).
  std::vector<double> Projection(ObjectId id, DimMask subspace) const;

  /// True iff objects `a` and `b` have equal projections on `subspace`.
  bool ProjectionsEqual(ObjectId a, ObjectId b, DimMask subspace) const;

  /// Dimensions (within `universe`) where `a` and `b` share the same value —
  /// one cell of the paper's coincidence matrix.
  DimMask CoincidenceMask(ObjectId a, ObjectId b, DimMask universe) const;

  /// Dimensions (within `universe`) where `a`'s value is strictly smaller
  /// than `b`'s — one cell of the paper's dominance matrix.
  DimMask DominanceMask(ObjectId a, ObjectId b, DimMask universe) const;

  const std::string& dim_name(int dim) const { return dim_names_[dim]; }
  const std::vector<std::string>& dim_names() const { return dim_names_; }

  /// Parses a subspace from dimension names, e.g. "price,stops" or
  /// "price+stops" (',' and '+' both separate). Fails with NotFound on an
  /// unknown name, InvalidArgument on an empty list.
  Result<DimMask> MaskFromNames(const std::string& names) const;

  /// Returns a copy restricted to the first `d` dimensions (the paper's
  /// "first d dimensions" scalability sweeps).
  Dataset WithPrefixDims(int d) const;

  /// Returns a copy with only the first `n` rows (size sweeps).
  Dataset WithFirstRows(size_t n) const;

  /// Returns a copy with all values negated: converts larger-is-better data
  /// (NBA statistics) to the smaller-is-better convention.
  Dataset Negated() const;

  /// Returns a copy with every value truncated to `decimals` decimal digits
  /// (toward zero) — the paper's §6.2 device for introducing moderate value
  /// coincidence into continuous synthetic data.
  Dataset Truncated(int decimals) const;

 private:
  int num_dims_;
  std::vector<std::string> dim_names_;
  std::vector<double> values_;  // row-major
};

}  // namespace skycube

#endif  // SKYCUBE_DATASET_DATASET_H_
