// The answer oracle: every read the benchmark sends is checked against the
// direct CompressedSkylineCube answer over the same rows. A mismatch is a
// failed operation and fails the run.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cube.h"
#include "net/protocol.h"
#include "service/request.h"
#include "workloads.h"

namespace perfbench {

class ReadOracle {
 public:
  /// Precomputes the skyline of every subspace (num_dims must be small).
  explicit ReadOracle(
      std::shared_ptr<const skycube::CompressedSkylineCube> cube);

  const skycube::CompressedSkylineCube& cube() const { return *cube_; }
  const std::vector<skycube::ObjectId>& Skyline(
      skycube::DimMask subspace) const {
    return skylines_[subspace];
  }

  /// True when `got` is a complete (ok, not partial) answer to `op` whose
  /// payload equals the cube's: the same ids in the same order for Q1, the
  /// same flag for Q2, the same count for Q3 and cardinality.
  bool Check(const ReadOp& op, const skycube::net::WireResponse& got) const;
  bool Check(const ReadOp& op, const skycube::QueryResponse& got) const;

 private:
  bool CheckPayload(const ReadOp& op, const std::vector<skycube::ObjectId>* ids,
                    bool member, uint64_t count) const;

  std::shared_ptr<const skycube::CompressedSkylineCube> cube_;
  std::vector<std::vector<skycube::ObjectId>> skylines_;  // by subspace mask
};

/// Answers `op` with the direct cube call and returns the answer's size,
/// flag or count, so that a timing loop can keep the result observable.
inline uint64_t DirectAnswer(const skycube::CompressedSkylineCube& cube,
                             const ReadOp& op) {
  switch (op.kind) {
    case skycube::QueryKind::kSubspaceSkyline:
      return cube.SubspaceSkyline(op.subspace).size();
    case skycube::QueryKind::kSkylineCardinality:
      return cube.SkylineCardinality(op.subspace);
    case skycube::QueryKind::kMembership:
      return cube.IsInSubspaceSkyline(op.object, op.subspace);
    default:
      return cube.CountSubspacesWhereSkyline(op.object);
  }
}

/// The wire request for a read op.
skycube::net::WireRequest ToWire(const ReadOp& op);
/// The service request for a read op.
skycube::QueryRequest ToQuery(const ReadOp& op);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
