#include "oracle.h"

#include <utility>

namespace perfbench {

using skycube::DimMask;
using skycube::ObjectId;
using skycube::QueryKind;

ReadOracle::ReadOracle(
    std::shared_ptr<const skycube::CompressedSkylineCube> cube)
    : cube_(std::move(cube)) {
  const DimMask full = skycube::FullMask(cube_->num_dims());
  skylines_.resize(static_cast<size_t>(full) + 1);
  for (DimMask mask = 1; mask <= full; ++mask) {
    skylines_[mask] = cube_->SubspaceSkyline(mask);
  }
}

bool ReadOracle::CheckPayload(const ReadOp& op,
                              const std::vector<ObjectId>* ids, bool member,
                              uint64_t count) const {
  switch (op.kind) {
    case QueryKind::kSubspaceSkyline:
      return ids != nullptr && *ids == skylines_[op.subspace];
    case QueryKind::kSkylineCardinality:
      return count == skylines_[op.subspace].size();
    case QueryKind::kMembership:
      return member == cube_->IsInSubspaceSkyline(op.object, op.subspace);
    default:
      return count == cube_->CountSubspacesWhereSkyline(op.object);
  }
}

bool ReadOracle::Check(const ReadOp& op,
                       const skycube::net::WireResponse& got) const {
  if (got.status != skycube::StatusCode::kOk || got.partial ||
      got.request_op != skycube::net::OpcodeForKind(op.kind)) {
    return false;
  }
  return CheckPayload(op, &got.ids, got.member, got.count);
}

bool ReadOracle::Check(const ReadOp& op,
                       const skycube::QueryResponse& got) const {
  if (!got.ok || got.partial || got.kind != op.kind) return false;
  return CheckPayload(op, got.ids.get(), got.member, got.count);
}

skycube::net::WireRequest ToWire(const ReadOp& op) {
  skycube::net::WireRequest request;
  request.op = skycube::net::OpcodeForKind(op.kind);
  request.subspace = op.subspace;
  request.object = op.object;
  return request;
}

skycube::QueryRequest ToQuery(const ReadOp& op) {
  return skycube::QueryRequest::Make(op.kind, op.subspace, op.object);
}

}  // namespace perfbench
