// skycube_shardtest — end-to-end harness for the sharded serving tier
// (docs/SHARDING.md). Forks three real skycube_serve shard processes (each
// owning its consistent-hash partition, with durable ingest under
// --work-dir/shard-K) and one skycube_router in front, then drives the
// binary protocol against the router:
//
//   round 1  oracle: every subspace skyline, cardinality, membership and
//            Q3 answer through the router is byte-identical to a
//            single-node service over the same rows;
//   round 2  inserts: rows inserted through the router land on their owner
//            shard and every subsequent merged answer matches the
//            single-node oracle including the new rows;
//   round 3  degradation: SIGKILL one shard mid-load. Every answer that
//            still claims to be complete (partial flag clear) must match
//            the full oracle; every partial-flagged answer must match the
//            oracle over the surviving shards' rows; errors are tolerated
//            only while the router is discovering the death — never a
//            wrong answer, flagged or not;
//   round 4  recovery: the shard is respawned on its old port and recovers
//            its partition (checkpoint + WAL, inserts included); the
//            router's probe revives it and answers go back to full,
//            unflagged, oracle-identical.
//
// With --replication the harness instead runs the failover scenario
// (docs/REPLICATION.md): every shard gets a primary plus a --replica-of
// hot standby, the router is given `primary+replica` endpoint sets, and
// the chaos round SIGKILLs a primary mid-pipelined-burst. After failover
// every answer must be complete (partial flag clear) and byte-identical
// to the full oracle — the acked insert prefix survives the kill. The
// promoted replica must report role=primary, accept fenced mutations, and
// the respawned old primary must rejoin as its replica and converge to an
// identical skyline.
//
// Usage (registered as a ctest test):
//   skycube_shardtest --serve=PATH --router=PATH --work-dir=DIR
//                     [--tuples=N] [--dims=D] [--seed=S] [--replication]
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/consistent_hash.h"
#include "common/deadline.h"
#include "common/flags.h"
#include "common/subspace.h"
#include "core/maintenance.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "harness/harness.h"
#include "net/client.h"
#include "net/protocol.h"
#include "service/ingest.h"
#include "service/service.h"

namespace skycube {
namespace {

int g_failures = 0;

#define CHECK_SHARD(cond, ...)                    \
  do {                                            \
    if (!(cond)) {                                \
      std::fprintf(stderr, "FAIL ");              \
      std::fprintf(stderr, __VA_ARGS__);          \
      std::fprintf(stderr, "\n");                 \
      ++g_failures;                               \
      return false;                               \
    }                                             \
  } while (0)

constexpr size_t kNumShards = 3;
constexpr int64_t kReadTimeoutMillis = 60000;

/// Starts a serve/router child into *child and scrapes its port; false,
/// with the failure counted, when it never printed its listen line.
bool Spawn(const std::string& binary, const std::vector<std::string>& args,
           harness::Child* child) {
  Result<harness::Child> spawned =
      harness::Child::SpawnListening(binary, args);
  if (!spawned.ok()) {
    std::fprintf(stderr, "FAIL %s\n", spawned.status().ToString().c_str());
    ++g_failures;
    return false;
  }
  *child = std::move(spawned).value();
  return true;
}

/// One request over a fresh-enough connection; false on transport failure
/// (the degradation round treats that as a tolerated loss, not a bug).
bool WireQuery(net::NetClient* client, const net::WireRequest& request,
               net::WireResponse* response) {
  if (!client->SendRequest(request).ok()) return false;
  std::string error;
  return client->ReadResponse(response,
                              Deadline::AfterMillis(kReadTimeoutMillis),
                              &error) == net::NetClient::Got::kFrame;
}

net::WireRequest SkylineRequest(DimMask subspace, uint64_t id) {
  net::WireRequest request;
  request.op = net::Opcode::kSkyline;
  request.id = id;
  request.subspace = subspace;
  return request;
}

/// The single-node oracle: the same rows through the same service stack,
/// one process, no sharding. Answers are the ground truth the router's
/// merged answers must reproduce bit-for-bit.
struct Oracle {
  explicit Oracle(Dataset data)
      : rows(CopyRows(data)),
        maintainer(std::make_unique<IncrementalCubeMaintainer>(
            std::move(data))),
        handler(std::make_unique<MaintainerInsertHandler>(maintainer.get())),
        service(std::make_unique<SkycubeService>(
            std::make_shared<const CompressedSkylineCube>(
                maintainer->MakeCube()))) {
    service->AttachInsertHandler(handler.get());
  }

  static std::vector<std::vector<double>> CopyRows(const Dataset& data) {
    std::vector<std::vector<double>> rows;
    rows.reserve(data.num_objects());
    for (ObjectId id = 0; id < data.num_objects(); ++id) {
      rows.emplace_back(data.Row(id), data.Row(id) + data.num_dims());
    }
    return rows;
  }

  std::vector<ObjectId> Skyline(DimMask subspace) const {
    const QueryResponse response =
        service->Execute(QueryRequest::SubspaceSkyline(subspace));
    return response.ok && response.ids ? *response.ids
                                       : std::vector<ObjectId>{};
  }

  bool Insert(const std::vector<double>& values) {
    rows.push_back(values);
    return service->Execute(QueryRequest::Insert(values)).ok;
  }

  std::vector<std::vector<double>> rows;  // global id -> values
  std::unique_ptr<IncrementalCubeMaintainer> maintainer;
  std::unique_ptr<MaintainerInsertHandler> handler;
  std::unique_ptr<SkycubeService> service;
};

/// a strictly dominates b on `subspace` (<= everywhere, < somewhere).
bool StrictlyDominates(const std::vector<double>& a,
                       const std::vector<double>& b, DimMask subspace) {
  bool strict = false;
  for (int d = 0; d < static_cast<int>(a.size()); ++d) {
    if ((subspace & DimBit(d)) == 0) continue;
    if (a[d] > b[d]) return false;
    if (a[d] < b[d]) strict = true;
  }
  return strict;
}

/// The survivor oracle: skyline over the rows NOT owned by `dead_shard` —
/// what a partial-flagged answer must equal. Brute force (the population
/// is small); ids are global.
std::vector<ObjectId> SurvivorSkyline(const Oracle& oracle,
                                      const HashRing& ring,
                                      size_t dead_shard, DimMask subspace) {
  std::vector<ObjectId> survivors;
  for (ObjectId gid = 0; gid < oracle.rows.size(); ++gid) {
    if (ring.OwnerOf(gid) != dead_shard) survivors.push_back(gid);
  }
  std::vector<ObjectId> skyline;
  for (ObjectId candidate : survivors) {
    bool dominated = false;
    for (ObjectId other : survivors) {
      if (other != candidate &&
          StrictlyDominates(oracle.rows[other], oracle.rows[candidate],
                            subspace)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) skyline.push_back(candidate);
  }
  return skyline;
}

std::string IdListPreview(const std::vector<ObjectId>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size() && i < 12; ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(ids[i]);
  }
  if (ids.size() > 12) out += " ...";
  return out;
}

bool RunOracleRound(uint16_t router_port, const Oracle& oracle, int dims,
                    const char* label) {
  net::NetClient client;
  CHECK_SHARD(client.Connect("127.0.0.1", router_port).ok(),
              "%s: router connect failed", label);
  const DimMask full = FullMask(dims);
  uint64_t id = 0;
  for (DimMask mask = 1; mask <= full; ++mask) {
    net::WireResponse response;
    CHECK_SHARD(WireQuery(&client, SkylineRequest(mask, id++), &response),
                "%s: skyline transport failed", label);
    CHECK_SHARD(response.status == StatusCode::kOk, "%s: skyline err: %s",
                label, response.text.c_str());
    CHECK_SHARD(!response.partial, "%s: unexpected partial flag", label);
    const std::vector<ObjectId> expected = oracle.Skyline(mask);
    CHECK_SHARD(response.ids == expected,
                "%s: skyline mismatch on mask %llu: got [%s] want [%s]",
                label, static_cast<unsigned long long>(mask),
                IdListPreview(response.ids).c_str(),
                IdListPreview(expected).c_str());
  }
  // Q2 membership and the Q3 aggregates against the oracle service.
  for (ObjectId object = 0; object < 24; ++object) {
    net::WireRequest request;
    request.op = net::Opcode::kMembership;
    request.id = id++;
    request.subspace = full;
    request.object = object;
    net::WireResponse response;
    CHECK_SHARD(WireQuery(&client, request, &response),
                "%s: membership transport failed", label);
    CHECK_SHARD(response.status == StatusCode::kOk, "%s: membership err: %s",
                label, response.text.c_str());
    const QueryResponse expected =
        oracle.service->Execute(QueryRequest::Membership(object, full));
    CHECK_SHARD(response.member == expected.member,
                "%s: membership mismatch for object %u", label,
                static_cast<unsigned>(object));
  }
  for (ObjectId object = 0; object < 6; ++object) {
    net::WireRequest request;
    request.op = net::Opcode::kMembershipCount;
    request.id = id++;
    request.object = object;
    net::WireResponse response;
    CHECK_SHARD(WireQuery(&client, request, &response),
                "%s: count transport failed", label);
    CHECK_SHARD(response.status == StatusCode::kOk, "%s: count err: %s",
                label, response.text.c_str());
    const QueryResponse expected =
        oracle.service->Execute(QueryRequest::MembershipCount(object));
    CHECK_SHARD(response.count == expected.count,
                "%s: membership count mismatch for object %u (%llu != %llu)",
                label, static_cast<unsigned>(object),
                static_cast<unsigned long long>(response.count),
                static_cast<unsigned long long>(expected.count));
  }
  {
    net::WireRequest request;
    request.op = net::Opcode::kSkycubeSize;
    request.id = id++;
    net::WireResponse response;
    CHECK_SHARD(WireQuery(&client, request, &response),
                "%s: skycube-size transport failed", label);
    CHECK_SHARD(response.status == StatusCode::kOk, "%s: size err: %s",
                label, response.text.c_str());
    const QueryResponse expected =
        oracle.service->Execute(QueryRequest::SkycubeSize());
    CHECK_SHARD(response.count == expected.count,
                "%s: skycube size mismatch (%llu != %llu)", label,
                static_cast<unsigned long long>(response.count),
                static_cast<unsigned long long>(expected.count));
  }
  return true;
}

bool RunInsertRound(uint16_t router_port, Oracle* oracle, int dims) {
  net::NetClient client;
  CHECK_SHARD(client.Connect("127.0.0.1", router_port).ok(),
              "insert: router connect failed");
  constexpr int kInserts = 24;
  for (int i = 0; i < kInserts; ++i) {
    net::WireRequest request;
    request.op = net::Opcode::kInsert;
    request.id = static_cast<uint64_t>(i);
    for (int d = 0; d < dims; ++d) {
      request.values.push_back(0.31 + 0.017 * i + 0.003 * d);
    }
    net::WireResponse response;
    CHECK_SHARD(WireQuery(&client, request, &response),
                "insert: transport failed at %d", i);
    CHECK_SHARD(response.status == StatusCode::kOk, "insert %d failed: %s",
                i, response.text.c_str());
    CHECK_SHARD(oracle->Insert(request.values),
                "insert: oracle rejected row %d", i);
  }
  return true;
}

bool RunDegradationRound(uint16_t router_port, harness::Child* victim,
                         size_t victim_shard, const Oracle& oracle,
                         const HashRing& ring, int dims) {
  const DimMask full = FullMask(dims);
  // A pipelined load is in flight when the SIGKILL lands.
  net::NetClient loaded;
  CHECK_SHARD(loaded.Connect("127.0.0.1", router_port).ok(),
              "degrade: router connect failed");
  constexpr uint64_t kBurst = 32;
  std::string burst;
  for (uint64_t i = 0; i < kBurst; ++i) {
    burst += EncodeRequest(
        SkylineRequest(1 + (i % full), i));
  }
  CHECK_SHARD(loaded.Send(burst).ok(), "degrade: burst send failed");
  CHECK_SHARD(victim->Kill(SIGKILL), "degrade: kill failed");
  victim->Wait();

  // Drain the burst: every answer is (a) complete-and-full-oracle-correct,
  // (b) partial-and-survivor-oracle-correct, or (c) an error/stream loss
  // while the router discovers the death. Never a wrong answer.
  uint64_t complete = 0;
  uint64_t partial = 0;
  uint64_t errors = 0;
  for (uint64_t i = 0; i < kBurst; ++i) {
    net::WireResponse response;
    std::string error;
    const net::NetClient::Got got = loaded.ReadResponse(
        &response, Deadline::AfterMillis(kReadTimeoutMillis), &error);
    if (got != net::NetClient::Got::kFrame) break;  // stream loss: tolerated
    const DimMask mask = 1 + (response.id % full);
    if (response.status != StatusCode::kOk) {
      ++errors;
      continue;
    }
    if (response.partial) {
      ++partial;
      const std::vector<ObjectId> expected =
          SurvivorSkyline(oracle, ring, victim_shard, mask);
      CHECK_SHARD(response.ids == expected,
                  "degrade: WRONG partial answer on mask %llu",
                  static_cast<unsigned long long>(mask));
    } else {
      ++complete;
      CHECK_SHARD(response.ids == oracle.Skyline(mask),
                  "degrade: WRONG unflagged answer on mask %llu after kill",
                  static_cast<unsigned long long>(mask));
    }
  }
  std::fprintf(stderr,
               "degrade: burst answers complete=%llu partial=%llu "
               "errors=%llu\n",
               static_cast<unsigned long long>(complete),
               static_cast<unsigned long long>(partial),
               static_cast<unsigned long long>(errors));

  // Steady state: within the probe window the router must serve
  // partial-flagged, survivor-correct answers (fresh connection per try —
  // the loaded one may have died with the wave).
  const Deadline settle = Deadline::AfterMillis(20000);
  bool settled = false;
  while (!settle.expired() && !settled) {
    usleep(50 * 1000);
    net::NetClient client;
    if (!client.Connect("127.0.0.1", router_port).ok()) break;
    net::WireResponse response;
    if (!WireQuery(&client, SkylineRequest(full, 9000), &response)) continue;
    if (response.status != StatusCode::kOk) continue;
    CHECK_SHARD(response.partial,
                "degrade: complete-claiming answer with a shard dead");
    const std::vector<ObjectId> expected =
        SurvivorSkyline(oracle, ring, victim_shard, full);
    CHECK_SHARD(response.ids == expected,
                "degrade: steady-state partial answer wrong: got [%s] want "
                "[%s]",
                IdListPreview(response.ids).c_str(),
                IdListPreview(expected).c_str());
    settled = true;
  }
  CHECK_SHARD(settled, "degrade: router never settled into partial serving");

  // Membership for a victim-owned object still answers (the router holds
  // the row values): member iff no surviving row strictly dominates it.
  ObjectId victim_object = 0;
  while (victim_object < oracle.rows.size() &&
         ring.OwnerOf(victim_object) != victim_shard) {
    ++victim_object;
  }
  CHECK_SHARD(victim_object < oracle.rows.size(),
              "degrade: no victim-owned row found");
  bool expected_member = true;
  for (ObjectId gid = 0; gid < oracle.rows.size(); ++gid) {
    if (gid != victim_object && ring.OwnerOf(gid) != victim_shard &&
        StrictlyDominates(oracle.rows[gid], oracle.rows[victim_object],
                          full)) {
      expected_member = false;
      break;
    }
  }
  {
    net::NetClient client;
    CHECK_SHARD(client.Connect("127.0.0.1", router_port).ok(),
                "degrade: reconnect failed");
    net::WireRequest request;
    request.op = net::Opcode::kMembership;
    request.id = 9001;
    request.subspace = full;
    request.object = victim_object;
    net::WireResponse response;
    CHECK_SHARD(WireQuery(&client, request, &response),
                "degrade: membership transport failed");
    CHECK_SHARD(response.status == StatusCode::kOk,
                "degrade: membership err: %s", response.text.c_str());
    CHECK_SHARD(response.partial, "degrade: membership not partial-flagged");
    CHECK_SHARD(response.member == expected_member,
                "degrade: membership wrong for victim-owned object %u",
                static_cast<unsigned>(victim_object));
  }
  return true;
}

bool RunRecoveryRound(uint16_t router_port, const std::string& serve,
                      const std::vector<std::string>& victim_args,
                      harness::Child* victim, const Oracle& oracle,
                      int dims) {
  if (!Spawn(serve, victim_args, victim)) return false;
  const DimMask full = FullMask(dims);
  const std::vector<ObjectId> expected = oracle.Skyline(full);
  const Deadline settle = Deadline::AfterMillis(60000);
  while (!settle.expired()) {
    usleep(100 * 1000);
    net::NetClient client;
    if (!client.Connect("127.0.0.1", router_port).ok()) continue;
    net::WireResponse response;
    if (!WireQuery(&client, SkylineRequest(full, 9100), &response)) continue;
    if (response.status != StatusCode::kOk || response.partial) continue;
    CHECK_SHARD(response.ids == expected,
                "recover: full answer wrong after shard respawn");
    return RunOracleRound(router_port, oracle, dims, "recover");
  }
  CHECK_SHARD(false, "recover: router never returned to full answers");
  return false;
}

/// Full-space skyline asked of one server directly (not through the
/// router) — the convergence comparison between a promoted primary and a
/// rejoined replica.
bool DirectSkyline(uint16_t port, DimMask subspace,
                   std::vector<ObjectId>* ids) {
  net::NetClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return false;
  net::WireResponse response;
  if (!WireQuery(&client, SkylineRequest(subspace, 1), &response)) {
    return false;
  }
  if (response.status != StatusCode::kOk) return false;
  *ids = response.ids;
  return true;
}

/// Blocks until `replica_port`'s applied LSN reaches `primary_port`'s tip.
/// The semi-sync fence usually guarantees this already; waiting makes the
/// acked-prefix assertion deterministic even if a fence degraded.
bool WaitCaughtUp(uint16_t primary_port, uint16_t replica_port,
                  int64_t timeout_millis) {
  const Deadline deadline = Deadline::AfterMillis(timeout_millis);
  while (!deadline.expired()) {
    uint64_t primary_lsn = 0;
    uint64_t replica_lsn = 0;
    if (harness::ReplState(primary_port, kReadTimeoutMillis, &primary_lsn,
                           nullptr) &&
        harness::ReplState(replica_port, kReadTimeoutMillis, &replica_lsn,
                           nullptr) &&
        replica_lsn >= primary_lsn) {
      return true;
    }
    usleep(50 * 1000);
  }
  return false;
}

/// The replication chaos round: SIGKILL the victim shard's primary while a
/// pipelined burst is in flight, then require the router to fail over to
/// the replica and return to complete, unflagged, full-oracle answers —
/// every insert acked before the kill included. During the discovery
/// window errors and survivor-correct partials are tolerated (and
/// counted); a wrong answer never is.
bool RunReplicationChaosRound(uint16_t router_port,
                              harness::Child* victim_primary,
                              uint16_t victim_replica_port,
                              size_t victim_shard, const Oracle& oracle,
                              const HashRing& ring, int dims) {
  const DimMask full = FullMask(dims);
  net::NetClient loaded;
  CHECK_SHARD(loaded.Connect("127.0.0.1", router_port).ok(),
              "chaos: router connect failed");
  constexpr uint64_t kBurst = 32;
  std::string burst;
  for (uint64_t i = 0; i < kBurst; ++i) {
    burst += EncodeRequest(SkylineRequest(1 + (i % full), i));
  }
  CHECK_SHARD(loaded.Send(burst).ok(), "chaos: burst send failed");
  CHECK_SHARD(victim_primary->Kill(SIGKILL), "chaos: kill failed");
  victim_primary->Wait();

  uint64_t complete = 0;
  uint64_t partial = 0;
  uint64_t errors = 0;
  for (uint64_t i = 0; i < kBurst; ++i) {
    net::WireResponse response;
    std::string error;
    const net::NetClient::Got got = loaded.ReadResponse(
        &response, Deadline::AfterMillis(kReadTimeoutMillis), &error);
    if (got != net::NetClient::Got::kFrame) break;  // stream loss: tolerated
    const DimMask mask = 1 + (response.id % full);
    if (response.status != StatusCode::kOk) {
      ++errors;
      continue;
    }
    if (response.partial) {
      // Pre-failover window: the merge dropped the victim set. Must still
      // be exactly the survivor skyline.
      ++partial;
      const std::vector<ObjectId> expected =
          SurvivorSkyline(oracle, ring, victim_shard, mask);
      CHECK_SHARD(response.ids == expected,
                  "chaos: WRONG partial answer on mask %llu",
                  static_cast<unsigned long long>(mask));
    } else {
      ++complete;
      CHECK_SHARD(response.ids == oracle.Skyline(mask),
                  "chaos: WRONG complete answer on mask %llu after kill",
                  static_cast<unsigned long long>(mask));
    }
  }
  std::fprintf(stderr,
               "chaos: burst answers complete=%llu partial=%llu "
               "errors=%llu\n",
               static_cast<unsigned long long>(complete),
               static_cast<unsigned long long>(partial),
               static_cast<unsigned long long>(errors));

  // Failover settle: a fresh connection must get a complete, unflagged,
  // oracle-identical answer once the router promotes the replica.
  const Deadline settle = Deadline::AfterMillis(45000);
  bool settled = false;
  while (!settle.expired() && !settled) {
    usleep(50 * 1000);
    net::NetClient client;
    if (!client.Connect("127.0.0.1", router_port).ok()) break;
    net::WireResponse response;
    if (!WireQuery(&client, SkylineRequest(full, 9000), &response)) continue;
    if (response.status != StatusCode::kOk || response.partial) continue;
    CHECK_SHARD(response.ids == oracle.Skyline(full),
                "chaos: post-failover answer wrong: got [%s] want [%s]",
                IdListPreview(response.ids).c_str(),
                IdListPreview(oracle.Skyline(full)).c_str());
    settled = true;
  }
  CHECK_SHARD(settled, "chaos: router never failed over to the replica");

  // The replica must actually have been promoted, not merely read from.
  std::string role;
  uint64_t promoted_lsn = 0;
  CHECK_SHARD(harness::ReplState(victim_replica_port, kReadTimeoutMillis,
                                 &promoted_lsn, &role),
              "chaos: promoted replica unreachable");
  CHECK_SHARD(role == "primary",
              "chaos: victim replica reports role=%s after failover",
              role.c_str());

  // Every answer kind, full oracle, zero partials — the acked prefix is
  // complete on the promoted replica.
  return RunOracleRound(router_port, oracle, dims, "post-failover");
}

/// Respawns the killed primary as a replica of the promoted one and waits
/// for convergence: role=replica, applied LSN at the new primary's tip,
/// and a byte-identical full-space skyline asked of each directly.
bool RunRejoinRound(const std::string& serve,
                    const std::vector<std::string>& rejoin_args,
                    harness::Child* old_primary, uint16_t new_primary_port,
                    int dims) {
  if (!Spawn(serve, rejoin_args, old_primary)) return false;
  const Deadline deadline = Deadline::AfterMillis(60000);
  bool converged = false;
  while (!deadline.expired() && !converged) {
    usleep(100 * 1000);
    uint64_t primary_lsn = 0;
    uint64_t replica_lsn = 0;
    std::string role;
    if (!harness::ReplState(new_primary_port, kReadTimeoutMillis,
                            &primary_lsn, nullptr) ||
        !harness::ReplState(old_primary->port(), kReadTimeoutMillis,
                            &replica_lsn, &role)) {
      continue;
    }
    converged = role == "replica" && replica_lsn >= primary_lsn;
  }
  CHECK_SHARD(converged, "rejoin: old primary never converged as replica");
  const DimMask full = FullMask(dims);
  std::vector<ObjectId> promoted_ids;
  std::vector<ObjectId> rejoined_ids;
  CHECK_SHARD(DirectSkyline(new_primary_port, full, &promoted_ids),
              "rejoin: promoted primary skyline failed");
  CHECK_SHARD(DirectSkyline(old_primary->port(), full, &rejoined_ids),
              "rejoin: rejoined replica skyline failed");
  CHECK_SHARD(promoted_ids == rejoined_ids,
              "rejoin: rejoined replica diverges: got [%s] want [%s]",
              IdListPreview(rejoined_ids).c_str(),
              IdListPreview(promoted_ids).c_str());
  return true;
}

/// What both scenarios share: the binaries, the scratch root, and the
/// synthetic source every process loads — shards filter it by ring
/// ownership, the router and the oracle load it whole, so the flags must
/// agree everywhere.
struct Scenario {
  std::string serve;
  std::string router;
  std::string work_dir;
  int dims = 0;
  std::vector<std::string> source_args;

  /// A shard's flags: the source filtered to ring partition `s`, durable
  /// under `data_dir`, on an ephemeral port (the last flag).
  std::vector<std::string> ShardArgs(size_t s,
                                     const std::string& data_dir) const {
    std::vector<std::string> args = source_args;
    args.push_back("--shard-count=" + std::to_string(kNumShards));
    args.push_back("--shard-index=" + std::to_string(s));
    args.push_back("--ring-seed=0");
    args.push_back("--data-dir=" + data_dir);
    args.push_back("--port=0");
    return args;
  }

  /// Starts the router in front of `endpoints` into *child.
  bool SpawnRouter(const std::string& endpoints, harness::Child* child) const {
    std::vector<std::string> args = source_args;
    args.push_back("--shards=" + endpoints);
    args.push_back("--ring-seed=0");
    args.push_back("--port=0");
    args.push_back("--down-after=2");
    args.push_back("--retry-ms=200");
    if (!Spawn(router, args, child)) return false;
    std::fprintf(stderr, "router pid %d port %u\n",
                 static_cast<int>(child->pid()),
                 static_cast<unsigned>(child->port()));
    return true;
  }
};

/// The --replication scenario: kNumShards primary+replica sets behind a
/// replica-aware router, oracle/insert rounds, the kill-primary chaos
/// round, post-failover fenced mutations, and the rejoin-and-converge
/// round. Every child is killed and reaped when the scenario returns.
void RunReplicationScenario(const Scenario& scenario, Oracle* oracle,
                            const HashRing& ring) {
  const std::string& work_dir = scenario.work_dir;
  const int dims = scenario.dims;
  std::vector<harness::Child> primaries(kNumShards);
  std::vector<harness::Child> replicas(kNumShards);
  std::string endpoints;
  for (size_t s = 0; s < kNumShards; ++s) {
    const std::string shard_dir = work_dir + "/shard-" + std::to_string(s);
    if (!Spawn(scenario.serve, scenario.ShardArgs(s, shard_dir + "-primary"),
               &primaries[s])) {
      return;
    }
    // The replica's whole state comes from the primary's snapshot + WAL;
    // it takes no dataset or shard-filter flags.
    const std::vector<std::string> replica_args = {
        "--data-dir=" + shard_dir + "-replica",
        "--replica-of=127.0.0.1:" + std::to_string(primaries[s].port()),
        "--port=0",
    };
    if (!Spawn(scenario.serve, replica_args, &replicas[s])) return;
    if (s > 0) endpoints += ',';
    endpoints += "127.0.0.1:" + std::to_string(primaries[s].port()) +
                 "+127.0.0.1:" + std::to_string(replicas[s].port());
    std::fprintf(stderr, "shard %zu primary pid %d port %u, replica pid %d "
                 "port %u\n",
                 s, static_cast<int>(primaries[s].pid()),
                 static_cast<unsigned>(primaries[s].port()),
                 static_cast<int>(replicas[s].pid()),
                 static_cast<unsigned>(replicas[s].port()));
  }
  harness::Child router_child;
  if (!scenario.SpawnRouter(endpoints, &router_child)) return;
  const uint16_t router_port = router_child.port();

  if (RunOracleRound(router_port, *oracle, dims, "oracle")) {
    std::fprintf(stderr, "PASS oracle round (replicated)\n");
  }
  if (g_failures == 0 && RunInsertRound(router_port, oracle, dims)) {
    std::fprintf(stderr, "PASS insert round (replicated)\n");
  }
  // Make the acked-prefix oracle deterministic: every replica at its
  // primary's tip before the kill.
  for (size_t s = 0; s < kNumShards && g_failures == 0; ++s) {
    if (!WaitCaughtUp(primaries[s].port(), replicas[s].port(), 30000)) {
      std::fprintf(stderr, "FAIL shard %zu replica never caught up\n", s);
      ++g_failures;
    }
  }
  constexpr size_t kVictim = 1;
  if (g_failures == 0 &&
      RunReplicationChaosRound(router_port, &primaries[kVictim],
                               replicas[kVictim].port(), kVictim, *oracle,
                               ring, dims)) {
    std::fprintf(stderr, "PASS replication chaos round\n");
  }
  // Fenced mutations through the promoted primary (its fence degrades to
  // async instantly while it has no follower of its own).
  if (g_failures == 0 && RunInsertRound(router_port, oracle, dims)) {
    std::fprintf(stderr, "PASS post-failover insert round\n");
  }
  if (g_failures == 0 &&
      RunOracleRound(router_port, *oracle, dims, "post-failover-insert")) {
    std::fprintf(stderr, "PASS post-failover oracle round\n");
  }
  if (g_failures == 0) {
    const std::vector<std::string> rejoin_args = {
        "--data-dir=" + work_dir + "/shard-" + std::to_string(kVictim) +
            "-primary",
        "--replica-of=127.0.0.1:" + std::to_string(replicas[kVictim].port()),
        "--port=0",
    };
    if (RunRejoinRound(scenario.serve, rejoin_args, &primaries[kVictim],
                       replicas[kVictim].port(), dims)) {
      std::fprintf(stderr, "PASS rejoin round (old primary converged as "
                   "replica)\n");
    }
  }
}

/// The sharding scenario: kNumShards shards behind the router, the oracle
/// and insert rounds, then one shard SIGKILLed (degradation) and respawned
/// (recovery). Every child is killed and reaped when the scenario returns.
void RunShardingScenario(const Scenario& scenario, Oracle* oracle,
                         const HashRing& ring) {
  const int dims = scenario.dims;
  std::vector<harness::Child> shards(kNumShards);
  std::vector<std::vector<std::string>> shard_args(kNumShards);
  std::string endpoints;
  for (size_t s = 0; s < kNumShards; ++s) {
    shard_args[s] = scenario.ShardArgs(
        s, scenario.work_dir + "/shard-" + std::to_string(s));
    if (!Spawn(scenario.serve, shard_args[s], &shards[s])) return;
    if (s > 0) endpoints += ',';
    endpoints += "127.0.0.1:" + std::to_string(shards[s].port());
    std::fprintf(stderr, "shard %zu pid %d port %u\n", s,
                 static_cast<int>(shards[s].pid()),
                 static_cast<unsigned>(shards[s].port()));
  }
  harness::Child router_child;
  if (!scenario.SpawnRouter(endpoints, &router_child)) return;
  const uint16_t router_port = router_child.port();

  if (RunOracleRound(router_port, *oracle, dims, "oracle")) {
    std::fprintf(stderr, "PASS oracle round\n");
  }
  if (RunInsertRound(router_port, oracle, dims)) {
    std::fprintf(stderr, "PASS insert round\n");
  }
  if (g_failures == 0 &&
      RunOracleRound(router_port, *oracle, dims, "post-insert")) {
    std::fprintf(stderr, "PASS post-insert oracle round\n");
  }
  constexpr size_t kVictim = 1;
  if (g_failures == 0 &&
      RunDegradationRound(router_port, &shards[kVictim], kVictim, *oracle,
                          ring, dims)) {
    std::fprintf(stderr, "PASS degradation round\n");
  }
  if (g_failures == 0) {
    // Respawn on the old port so the router's configured endpoint revives.
    std::vector<std::string> respawn_args = shard_args[kVictim];
    respawn_args.back() = "--port=" + std::to_string(shards[kVictim].port());
    const uint16_t old_port = shards[kVictim].port();
    if (RunRecoveryRound(router_port, scenario.serve, respawn_args,
                         &shards[kVictim], *oracle, dims)) {
      std::fprintf(stderr, "PASS recovery round (shard back on port %u)\n",
                   static_cast<unsigned>(old_port));
    }
  }
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  Scenario scenario;
  scenario.serve = flags.GetString("serve", "");
  scenario.router = flags.GetString("router", "");
  scenario.work_dir = flags.GetString("work-dir", "");
  if (scenario.serve.empty() || scenario.router.empty() ||
      scenario.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: skycube_shardtest --serve=PATH --router=PATH "
                 "--work-dir=DIR\n");
    return 2;
  }
  const int tuples = static_cast<int>(flags.GetInt("tuples", 500));
  scenario.dims = static_cast<int>(flags.GetInt("dims", 4));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 29));
  scenario.source_args = {
      "--synthetic",
      "--tuples=" + std::to_string(tuples),
      "--dims=" + std::to_string(scenario.dims),
      "--seed=" + std::to_string(seed),
      "--truncate=4",
  };
  SyntheticSpec spec;
  spec.distribution = DistributionFromName("independent");
  spec.num_objects = static_cast<size_t>(tuples);
  spec.num_dims = scenario.dims;
  spec.seed = seed;
  spec.truncate_decimals = 4;
  Oracle oracle(GenerateSynthetic(spec));
  const HashRing ring(kNumShards, /*seed=*/0, /*vnodes=*/64);

  std::error_code ec;
  std::filesystem::remove_all(scenario.work_dir, ec);
  std::filesystem::create_directories(scenario.work_dir, ec);

  const bool replication = flags.GetBool("replication", false);
  if (replication) {
    RunReplicationScenario(scenario, &oracle, ring);
  } else {
    RunShardingScenario(scenario, &oracle, ring);
  }
  const char* name =
      replication ? "skycube_shardtest --replication" : "skycube_shardtest";
  if (g_failures > 0) {
    std::fprintf(stderr, "%s: %d failure(s)\n", name, g_failures);
    return 1;
  }
  std::fprintf(stderr, "%s: all rounds passed\n", name);
  return 0;
}

}  // namespace
}  // namespace skycube

int main(int argc, char** argv) { return skycube::Main(argc, argv); }
