// Dominance kernels: pairwise comparison of objects within a subspace.
// These are the innermost loops of every algorithm in the library.
#ifndef SKYCUBE_SKYLINE_DOMINANCE_H_
#define SKYCUBE_SKYLINE_DOMINANCE_H_

#include "common/subspace.h"
#include "dataset/dataset.h"

namespace skycube {

/// Outcome of comparing two projections u_B vs v_B under the dominance
/// partial order (smaller is better).
enum class DomOrder {
  kEqual,            // u_B == v_B
  kFirstDominates,   // u dominates v in B
  kSecondDominates,  // v dominates u in B
  kIncomparable,     // neither dominates
};

/// Compares rows `a` and `b` on the dimensions of `subspace`.
inline DomOrder CompareRows(const double* a, const double* b,
                            DimMask subspace) {
  bool a_better = false;
  bool b_better = false;
  while (subspace != 0) {
    const int dim = LowestDim(subspace);
    subspace &= subspace - 1;
    const double va = a[dim];
    const double vb = b[dim];
    if (va < vb) {
      if (b_better) return DomOrder::kIncomparable;
      a_better = true;
    } else if (vb < va) {
      if (a_better) return DomOrder::kIncomparable;
      b_better = true;
    }
  }
  if (a_better) return DomOrder::kFirstDominates;
  if (b_better) return DomOrder::kSecondDominates;
  return DomOrder::kEqual;
}

/// True iff row `a` dominates row `b` in `subspace` (≤ everywhere, < at
/// least once).
inline bool RowDominates(const double* a, const double* b, DimMask subspace) {
  bool strict = false;
  while (subspace != 0) {
    const int dim = LowestDim(subspace);
    subspace &= subspace - 1;
    if (a[dim] > b[dim]) return false;
    strict |= (a[dim] < b[dim]);
  }
  return strict;
}

/// True iff row `a` dominates or equals row `b` in `subspace`.
inline bool RowDominatesOrEqual(const double* a, const double* b,
                                DimMask subspace) {
  while (subspace != 0) {
    const int dim = LowestDim(subspace);
    subspace &= subspace - 1;
    if (a[dim] > b[dim]) return false;
  }
  return true;
}

/// Object-id convenience wrappers.
inline DomOrder CompareObjects(const Dataset& data, ObjectId a, ObjectId b,
                               DimMask subspace) {
  return CompareRows(data.Row(a), data.Row(b), subspace);
}
inline bool Dominates(const Dataset& data, ObjectId a, ObjectId b,
                      DimMask subspace) {
  return RowDominates(data.Row(a), data.Row(b), subspace);
}

/// Monotone scoring function for the SFS/LESS presort: the sum of the
/// projection's coordinates. If u dominates v in `subspace` then
/// SortScore(u) ≤ SortScore(v) — not strictly: rounding can make the sums
/// equal, as for (1e20, 0) and (1e20, 1). PresortBefore breaks such ties.
inline double SortScore(const double* row, DimMask subspace) {
  double sum = 0;
  while (subspace != 0) {
    const int dim = LowestDim(subspace);
    subspace &= subspace - 1;
    sum += row[dim];
  }
  return sum;
}

/// Three-way lexicographic comparison of rows `a` and `b` over the dims of
/// `subspace` in increasing order: < 0, 0 or > 0. If u dominates v then u
/// compares lower — at the first dim where they differ, u is smaller.
inline int LexicographicCompare(const double* a, const double* b,
                                DimMask subspace) {
  while (subspace != 0) {
    const int dim = LowestDim(subspace);
    subspace &= subspace - 1;
    if (a[dim] < b[dim]) return -1;
    if (b[dim] < a[dim]) return 1;
  }
  return 0;
}

/// One object in the SFS/LESS presort.
struct PresortEntry {
  double score;  // SortScore over the subspace
  double lead;   // value on the subspace's lowest dimension
  ObjectId id;
};

/// The presort entry of object `id` over `subspace`.
inline PresortEntry MakePresortEntry(const Dataset& data, DimMask subspace,
                                     ObjectId id) {
  const double* row = data.Row(id);
  return {SortScore(row, subspace), row[LowestDim(subspace)], id};
}

/// The presort's strict weak order: ascending score, ties by lexicographic
/// row order (the cached lead value settles most ties without touching the
/// rows), then by id. A dominator always sorts before what it dominates,
/// so no object can dominate one sorted earlier.
inline bool PresortBefore(const Dataset& data, DimMask subspace,
                          const PresortEntry& a, const PresortEntry& b) {
  if (a.score != b.score) return a.score < b.score;
  if (a.lead != b.lead) return a.lead < b.lead;
  const int order =
      LexicographicCompare(data.Row(a.id), data.Row(b.id), subspace);
  if (order != 0) return order < 0;
  return a.id < b.id;
}

}  // namespace skycube

#endif  // SKYCUBE_SKYLINE_DOMINANCE_H_
