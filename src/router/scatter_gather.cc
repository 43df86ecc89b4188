#include "router/scatter_gather.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "dataset/dataset.h"
#include "router/merge.h"

namespace skycube::router {
namespace {

/// Per-wave budget when the request carries no deadline.
constexpr int64_t kDefaultBudgetMillis = 30000;

/// Q3 fan-out guard: subspace enumeration is 2^d - 1 requests per shard.
constexpr int kMaxEnumerationDims = 20;

/// The budget of a mutation forwarded to its owner shard: the request's
/// own deadline, or the default budget when it carries none.
Deadline OwnerBudget(const Deadline& request_deadline) {
  return request_deadline.infinite()
             ? Deadline::AfterMillis(kDefaultBudgetMillis)
             : request_deadline;
}

}  // namespace

ScatterGather::ScatterGather(RouterTopology* topology,
                             std::vector<ShardBackend*> backends,
                             ScatterGatherOptions options)
    : topology_(topology),
      backends_(std::move(backends)),
      options_(options) {}

void ScatterGather::NoteVersion(uint64_t version) {
  uint64_t seen = known_version_.load(std::memory_order_relaxed);
  while (version > seen &&
         !known_version_.compare_exchange_weak(seen, version,
                                               std::memory_order_acq_rel)) {
  }
}

Deadline ScatterGather::WaveBudget(const Deadline& request_deadline) const {
  if (request_deadline.infinite()) {
    return Deadline::AfterMillis(kDefaultBudgetMillis);
  }
  const auto remaining = request_deadline.remaining();
  if (remaining.count() <= 0) return Deadline::ExpiredNow();
  return Deadline::After(std::chrono::nanoseconds(static_cast<int64_t>(
      static_cast<double>(remaining.count()) * options_.budget_fraction)));
}

QueryResponse ScatterGather::ErrorResponse(const QueryRequest& request,
                                           StatusCode code,
                                           std::string error) {
  QueryResponse response;
  response.kind = request.kind;
  response.ok = false;
  response.code = code;
  response.error = std::move(error);
  response.snapshot_version = known_version();
  return response;
}

const char* ScatterGather::ValidationError(
    const QueryRequest& request) const {
  const DimMask full = FullMask(topology_->num_dims());
  switch (request.kind) {
    case QueryKind::kSubspaceSkyline:
    case QueryKind::kSkylineCardinality:
      if (request.subspace == 0) return "empty subspace";
      if ((request.subspace & ~full) != 0) {
        return "subspace uses dimensions beyond the cube";
      }
      break;
    case QueryKind::kMembership:
      if (request.subspace == 0) return "empty subspace";
      if ((request.subspace & ~full) != 0) {
        return "subspace uses dimensions beyond the cube";
      }
      if (request.object >= topology_->total_rows()) {
        return "object id out of range";
      }
      break;
    case QueryKind::kMembershipCount:
      if (request.object >= topology_->total_rows()) {
        return "object id out of range";
      }
      break;
    case QueryKind::kSkycubeSize:
      break;
    case QueryKind::kInsert:
      if (static_cast<int>(request.values.size()) !=
          topology_->num_dims()) {
        return "insert row width does not match the cube";
      }
      if (!AllFinite(request.values)) return "insert values must be finite";
      break;
    case QueryKind::kDelete:
      // Any object id is acceptable: deletes are idempotent, and an
      // unknown or already-dead target answers the "dead" path.
      break;
    case QueryKind::kEpochDiff:
      if (request.subspace == 0) return "empty subspace";
      if ((request.subspace & ~full) != 0) {
        return "subspace uses dimensions beyond the cube";
      }
      if (request.since_version == 0) {
        return "epoch diff needs a since_version";
      }
      break;
  }
  return nullptr;
}

ScatterGather::Wave ScatterGather::RunWave(
    const std::vector<QueryRequest>& batch, Deadline budget) {
  const size_t num_shards = backends_.size();
  Wave wave;
  wave.responses.resize(num_shards);
  std::vector<std::unique_ptr<ShardCall>> calls(num_shards);
  // Scatter first so every shard computes concurrently; collect after.
  for (size_t s = 0; s < num_shards; ++s) {
    if (backends_[s]->down()) {
      shard_losses_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    calls[s] = backends_[s]->Start(batch, budget);
    if (calls[s] == nullptr) {
      shard_losses_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    shard_calls_.fetch_add(1, std::memory_order_relaxed);
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (calls[s] == nullptr) continue;
    std::vector<QueryResponse> responses;
    std::string error;
    if (calls[s]->Collect(&responses, &error) &&
        responses.size() == batch.size()) {
      wave.responses[s] = std::move(responses);
      ++wave.live;
    } else {
      shard_losses_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  wave.partial = wave.live < num_shards;
  return wave;
}

ScatterGather::Merged ScatterGather::MergeWaveItem(
    const Wave& wave, size_t item_index, DimMask subspace,
    const std::vector<ObjectId>& extra, std::vector<uint8_t>* contributing) {
  Merged merged;
  std::vector<ObjectId> candidates(extra);
  size_t contributors = 0;
  StatusCode first_error = StatusCode::kUnavailable;
  std::string first_error_text = "no shard reachable";
  bool saw_error = false;
  for (size_t s = 0; s < wave.responses.size(); ++s) {
    const std::vector<QueryResponse>& items = wave.responses[s];
    if (item_index >= items.size()) {
      merged.partial = true;  // shard lost in the wave
      continue;
    }
    const QueryResponse& item = items[item_index];
    if (!item.ok || item.ids == nullptr) {
      // The shard answered but this item failed (deadline inside the
      // shard, shed, ...): degrade to the survivors.
      merged.partial = true;
      if (!saw_error && !item.ok) {
        saw_error = true;
        first_error = item.code;
        first_error_text = item.error;
      }
      shard_losses_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Translate shard-local ids to global ids. The id list can lag a
    // just-inserted row by the ingest thread's append; wait it out.
    std::vector<ObjectId> globals;
    globals.reserve(item.ids->size());
    bool translated = true;
    for (ObjectId local : *item.ids) {
      if (!topology_->WaitForLocal(s, local, Deadline::AfterMillis(1000))) {
        translated = false;
        break;
      }
      globals.push_back(topology_->GlobalId(s, local));
    }
    if (!translated) {
      merged.partial = true;
      shard_losses_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    candidates.insert(candidates.end(), globals.begin(), globals.end());
    merged.version = std::max(merged.version, item.snapshot_version);
    merged.all_hit = merged.all_hit && item.cache_hit;
    if (contributing != nullptr) (*contributing)[s] = 1;
    ++contributors;
  }
  // No shard contributed: the query has no reachable population at all
  // (the extra candidate alone is not an answer — it was never checked
  // against anything). Propagate the first shard error, or kUnavailable.
  if (contributors == 0) {
    merged.ok = false;
    merged.code = saw_error ? first_error : StatusCode::kUnavailable;
    merged.error =
        saw_error ? std::move(first_error_text) : "no shard reachable";
    return merged;
  }
  NoteVersion(merged.version);
  merge_candidates_.fetch_add(candidates.size(),
                              std::memory_order_relaxed);
  merged.ids = MergeSkylineCandidates(topology_->rows(), subspace,
                                      std::move(candidates));
  return merged;
}

QueryResponse ScatterGather::ExecuteSkyline(const QueryRequest& request,
                                            bool want_ids) {
  const Deadline budget = WaveBudget(request.deadline);
  std::vector<QueryRequest> batch = {
      QueryRequest::SubspaceSkyline(request.subspace).WithDeadline(budget)};
  Wave wave = RunWave(batch, budget);
  if (wave.live == 0) {
    return ErrorResponse(request, StatusCode::kUnavailable,
                         "no shard reachable");
  }
  Merged merged = MergeWaveItem(wave, 0, request.subspace, {});
  if (!merged.ok) {
    return ErrorResponse(request, merged.code, std::move(merged.error));
  }
  if (request.deadline.expired()) {
    return ErrorResponse(request, StatusCode::kDeadlineExceeded,
                         "deadline expired during merge");
  }
  QueryResponse response;
  response.kind = request.kind;
  response.count = merged.ids.size();
  if (want_ids) {
    response.ids = std::make_shared<const std::vector<ObjectId>>(
        std::move(merged.ids));
  }
  response.snapshot_version = merged.version;
  response.cache_hit = merged.all_hit;
  response.partial = merged.partial || wave.partial;
  if (response.partial) {
    partial_answers_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

QueryResponse ScatterGather::ExecuteMembership(const QueryRequest& request) {
  const Deadline budget = WaveBudget(request.deadline);
  std::vector<QueryRequest> batch = {
      QueryRequest::SubspaceSkyline(request.subspace).WithDeadline(budget)};
  Wave wave = RunWave(batch, budget);
  // The object's own row is always a merge candidate (the router holds its
  // values), so membership degrades gracefully even when the owner shard
  // is down — and when it is up, transitivity guarantees a dominated
  // object is refiltered out by one of its shard's skyline rows.
  Merged merged = MergeWaveItem(wave, 0, request.subspace, {request.object});
  if (!merged.ok) {
    return ErrorResponse(request, merged.code, std::move(merged.error));
  }
  if (request.deadline.expired()) {
    return ErrorResponse(request, StatusCode::kDeadlineExceeded,
                         "deadline expired during merge");
  }
  QueryResponse response;
  response.kind = request.kind;
  response.member = std::binary_search(merged.ids.begin(), merged.ids.end(),
                                       request.object);
  response.snapshot_version = merged.version;
  response.cache_hit = merged.all_hit;
  response.partial = merged.partial || wave.partial;
  if (response.partial) {
    partial_answers_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

QueryResponse ScatterGather::ExecuteEnumeration(
    const QueryRequest& request) {
  const int dims = topology_->num_dims();
  if (dims > kMaxEnumerationDims) {
    return ErrorResponse(
        request, StatusCode::kInvalidArgument,
        "skycube enumeration over " + std::to_string(dims) +
            " dimensions exceeds the router's fan-out guard");
  }
  const Deadline budget = WaveBudget(request.deadline);
  const DimMask full = FullMask(dims);
  std::vector<QueryRequest> batch;
  batch.reserve(static_cast<size_t>(full));
  for (DimMask mask = 1; mask <= full; ++mask) {
    batch.push_back(QueryRequest::SubspaceSkyline(mask).WithDeadline(budget));
  }
  Wave wave = RunWave(batch, budget);
  if (wave.live == 0) {
    return ErrorResponse(request, StatusCode::kUnavailable,
                         "no shard reachable");
  }
  const bool count_membership =
      request.kind == QueryKind::kMembershipCount;
  const std::vector<ObjectId> extra =
      count_membership ? std::vector<ObjectId>{request.object}
                       : std::vector<ObjectId>{};
  QueryResponse response;
  response.kind = request.kind;
  response.cache_hit = true;
  for (DimMask mask = 1; mask <= full; ++mask) {
    if (request.deadline.expired()) {
      return ErrorResponse(request, StatusCode::kDeadlineExceeded,
                           "deadline expired during subspace merges");
    }
    Merged merged =
        MergeWaveItem(wave, static_cast<size_t>(mask - 1), mask, extra);
    if (!merged.ok) {
      return ErrorResponse(request, merged.code, std::move(merged.error));
    }
    if (count_membership) {
      response.count += std::binary_search(merged.ids.begin(),
                                           merged.ids.end(), request.object)
                            ? 1
                            : 0;
    } else {
      response.count += merged.ids.size();
    }
    response.snapshot_version =
        std::max(response.snapshot_version, merged.version);
    response.cache_hit = response.cache_hit && merged.all_hit;
    response.partial = response.partial || merged.partial;
  }
  response.partial = response.partial || wave.partial;
  if (response.partial) {
    partial_answers_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

QueryResponse ScatterGather::ForwardToOwner(const QueryRequest& request,
                                            const QueryRequest& forward,
                                            size_t owner, Deadline budget) {
  const char* what = request.kind == QueryKind::kInsert ? "insert" : "delete";
  std::unique_ptr<ShardCall> call;
  if (!backends_[owner]->down()) {
    call = backends_[owner]->Start({forward}, budget);
  }
  if (call == nullptr) {
    shard_losses_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(request, StatusCode::kUnavailable,
                         "owner shard " + std::to_string(owner) +
                             " unreachable; " + what + " not applied");
  }
  shard_calls_.fetch_add(1, std::memory_order_relaxed);
  std::vector<QueryResponse> responses;
  std::string error;
  if (!call->Collect(&responses, &error) || responses.empty()) {
    shard_losses_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(request, StatusCode::kUnavailable,
                         "owner shard " + std::to_string(owner) +
                             " failed mid-" + what + ": " + error);
  }
  QueryResponse response = std::move(responses[0]);
  response.kind = request.kind;
  return response;
}

QueryResponse ScatterGather::ExecuteInsert(const QueryRequest& request) {
  // Serialize inserts: global ids are assigned by arrival order and the
  // topology append must pair with exactly one shard acknowledgement.
  MutexLock lock(&ingest_mu_);
  const ObjectId gid = topology_->total_rows();
  const size_t owner = topology_->OwnerOf(gid);
  QueryResponse response =
      ForwardToOwner(request, request, owner, OwnerBudget(request.deadline));
  if (!response.ok) return response;  // not applied
  // Acknowledged by the owner: advance the mutation epoch, then make the
  // row visible to the merge path (AppendRow stamps it with the new epoch,
  // so the row is live from this epoch onward).
  topology_->AdvanceEpoch();
  topology_->AppendRow(request.values.data());
  NoteVersion(response.snapshot_version);
  inserts_routed_.fetch_add(1, std::memory_order_relaxed);
  response.count = topology_->total_rows();
  response.cache_hit = false;
  response.partial = false;
  return response;
}

QueryResponse ScatterGather::ExecuteDelete(const QueryRequest& request) {
  // Serialize with inserts: the topology delete stamp must pair with
  // exactly one shard acknowledgement, in epoch order.
  MutexLock lock(&ingest_mu_);
  const ObjectId gid = request.object;
  if (gid >= topology_->total_rows() || !topology_->IsLive(gid)) {
    // Idempotent: an unknown or already-dead target succeeds without
    // contacting any shard (and without advancing the epoch — nothing
    // changed).
    QueryResponse response;
    response.kind = QueryKind::kDelete;
    response.insert_path = "dead";
    response.count = topology_->num_live();
    response.snapshot_version = known_version();
    return response;
  }
  const size_t owner = topology_->OwnerOf(gid);
  const int64_t local = topology_->LocalId(owner, gid);
  if (local < 0) {
    return ErrorResponse(request, StatusCode::kInternal,
                         "row " + std::to_string(gid) +
                             " missing from its owner shard's id list");
  }
  const Deadline budget = OwnerBudget(request.deadline);
  QueryRequest forward =
      QueryRequest::Delete(static_cast<ObjectId>(local));
  forward.deadline = budget;
  QueryResponse response = ForwardToOwner(request, forward, owner, budget);
  if (!response.ok) return response;  // not applied
  // Acknowledged by the owner: stamp the row dead at the new epoch.
  topology_->MarkDeleted(gid, topology_->AdvanceEpoch());
  NoteVersion(response.snapshot_version);
  deletes_routed_.fetch_add(1, std::memory_order_relaxed);
  response.count = topology_->num_live();
  response.cache_hit = false;
  response.partial = false;
  return response;
}

QueryResponse ScatterGather::ExecuteEpochDiff(const QueryRequest& request) {
  const uint64_t since = request.since_version;
  if (since > topology_->epoch()) {
    return ErrorResponse(request, StatusCode::kNotFound,
                         "since_version " + std::to_string(since) +
                             " is ahead of the router epoch");
  }
  const Deadline budget = WaveBudget(request.deadline);
  std::vector<QueryRequest> batch = {
      QueryRequest::SubspaceSkyline(request.subspace).WithDeadline(budget)};
  Wave wave = RunWave(batch, budget);
  if (wave.live == 0) {
    return ErrorResponse(request, StatusCode::kUnavailable,
                         "no shard reachable");
  }
  // Current side: the shard wave, tracking exactly which shards
  // contributed — the historical side below is restricted to the same
  // shards so the diff never mistakes shard loss for row churn.
  std::vector<uint8_t> contributing(backends_.size(), 0);
  Merged merged = MergeWaveItem(wave, 0, request.subspace, {}, &contributing);
  if (!merged.ok) {
    return ErrorResponse(request, StatusCode::kUnavailable,
                         "no shard contributed a skyline");
  }
  const std::vector<ObjectId>& current = merged.ids;
  if (request.deadline.expired()) {
    return ErrorResponse(request, StatusCode::kDeadlineExceeded,
                         "deadline expired during merge");
  }
  // Historical side: reconstruct the rows live at epoch `since` (owned by
  // a contributing shard) from the per-row epoch stamps and take their
  // skyline locally — the router holds every row value.
  const ObjectId known_rows = topology_->total_rows();
  std::vector<ObjectId> hist_candidates;
  for (ObjectId gid = 0; gid < known_rows; ++gid) {
    if (!contributing[topology_->OwnerOf(gid)]) continue;
    if (!topology_->LiveAt(gid, since)) continue;
    hist_candidates.push_back(gid);
  }
  merge_candidates_.fetch_add(hist_candidates.size(),
                              std::memory_order_relaxed);
  const std::vector<ObjectId> historical = MergeSkylineCandidates(
      topology_->rows(), request.subspace, std::move(hist_candidates));
  if (request.deadline.expired()) {
    return ErrorResponse(request, StatusCode::kDeadlineExceeded,
                         "deadline expired during historical merge");
  }
  auto entered = std::make_shared<std::vector<ObjectId>>();
  auto left = std::make_shared<std::vector<ObjectId>>();
  std::set_difference(current.begin(), current.end(), historical.begin(),
                      historical.end(), std::back_inserter(*entered));
  std::set_difference(historical.begin(), historical.end(), current.begin(),
                      current.end(), std::back_inserter(*left));
  QueryResponse response;
  response.kind = QueryKind::kEpochDiff;
  response.count = entered->size() + left->size();
  response.ids = std::move(entered);
  response.left_ids = std::move(left);
  response.snapshot_version = merged.version;
  response.cache_hit = merged.all_hit;
  response.partial = merged.partial || wave.partial;
  if (response.partial) {
    partial_answers_.fetch_add(1, std::memory_order_relaxed);
  }
  epoch_diffs_.fetch_add(1, std::memory_order_relaxed);
  return response;
}

QueryResponse ScatterGather::Execute(const QueryRequest& request) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (const char* error = ValidationError(request)) {
    return ErrorResponse(request, StatusCode::kInvalidArgument, error);
  }
  if (request.deadline.expired()) {
    return ErrorResponse(request, StatusCode::kDeadlineExceeded,
                         "deadline expired before dispatch");
  }
  switch (request.kind) {
    case QueryKind::kSubspaceSkyline:
      return ExecuteSkyline(request, /*want_ids=*/true);
    case QueryKind::kSkylineCardinality:
      return ExecuteSkyline(request, /*want_ids=*/false);
    case QueryKind::kMembership:
      return ExecuteMembership(request);
    case QueryKind::kMembershipCount:
    case QueryKind::kSkycubeSize:
      return ExecuteEnumeration(request);
    case QueryKind::kInsert:
      return ExecuteInsert(request);
    case QueryKind::kDelete:
      return ExecuteDelete(request);
    case QueryKind::kEpochDiff:
      return ExecuteEpochDiff(request);
  }
  return ErrorResponse(request, StatusCode::kInvalidArgument,
                       "unknown query kind");
}

ScatterGatherStats ScatterGather::stats() const {
  ScatterGatherStats stats;
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.shard_calls = shard_calls_.load(std::memory_order_relaxed);
  stats.shard_losses = shard_losses_.load(std::memory_order_relaxed);
  stats.partial_answers = partial_answers_.load(std::memory_order_relaxed);
  stats.merge_candidates =
      merge_candidates_.load(std::memory_order_relaxed);
  stats.inserts_routed = inserts_routed_.load(std::memory_order_relaxed);
  stats.deletes_routed = deletes_routed_.load(std::memory_order_relaxed);
  stats.epoch_diffs = epoch_diffs_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace skycube::router
