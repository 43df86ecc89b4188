// ShardedSkycubeService oracle tests: the in-process sharded tier against
// a single-node SkycubeService over the same rows. Merged answers must be
// byte-identical for every query kind at 1/2/4/8 shards, before and after
// inserts, with caches hot and cold. Degradation (SetShardDown) must set
// the partial flag, never produce an unflagged wrong answer, answer
// partial queries with exactly the survivor skyline, and reject inserts
// whose owner shard is down.
#include "router/sharded_service.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/subspace.h"
#include "skyline/algorithms.h"
#include "core/cube.h"
#include "core/maintenance.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "service/ingest.h"
#include "service/request.h"
#include "service/service.h"

namespace skycube::router {
namespace {

Dataset MakeData(size_t objects, int dims, uint64_t seed) {
  SyntheticSpec spec;
  spec.distribution = Distribution::kIndependent;
  spec.num_dims = dims;
  spec.num_objects = objects;
  spec.seed = seed;
  spec.truncate_decimals = 2;
  return GenerateSynthetic(spec);
}

/// Single-node ground truth with the same maintainer-backed insert path.
struct SingleNode {
  explicit SingleNode(Dataset data)
      : maintainer(std::make_unique<IncrementalCubeMaintainer>(
            std::move(data))),
        handler(std::make_unique<MaintainerInsertHandler>(maintainer.get())),
        service(std::make_unique<SkycubeService>(
            std::make_shared<const CompressedSkylineCube>(
                maintainer->MakeCube()))) {
    service->AttachInsertHandler(handler.get());
  }

  std::unique_ptr<IncrementalCubeMaintainer> maintainer;
  std::unique_ptr<MaintainerInsertHandler> handler;
  std::unique_ptr<SkycubeService> service;
};

/// Asserts every query kind answers identically through both tiers.
void ExpectOracleIdentical(ShardedSkycubeService& sharded,
                           SkycubeService& single, int dims) {
  const DimMask full = FullMask(dims);
  for (DimMask mask = 1; mask <= full; ++mask) {
    const QueryResponse got =
        sharded.Execute(QueryRequest::SubspaceSkyline(mask));
    const QueryResponse want =
        single.Execute(QueryRequest::SubspaceSkyline(mask));
    ASSERT_TRUE(got.ok) << got.error;
    ASSERT_TRUE(want.ok) << want.error;
    EXPECT_FALSE(got.partial);
    ASSERT_NE(got.ids, nullptr);
    ASSERT_NE(want.ids, nullptr);
    ASSERT_EQ(*got.ids, *want.ids) << "skyline mask " << mask;

    const QueryResponse got_card =
        sharded.Execute(QueryRequest::SkylineCardinality(mask));
    ASSERT_TRUE(got_card.ok) << got_card.error;
    EXPECT_EQ(got_card.count, want.ids->size()) << "cardinality " << mask;
  }
  const ObjectId total = sharded.topology().total_rows();
  for (ObjectId object = 0; object < total; object += 7) {
    const QueryResponse got =
        sharded.Execute(QueryRequest::Membership(object, full));
    const QueryResponse want =
        single.Execute(QueryRequest::Membership(object, full));
    ASSERT_TRUE(got.ok) << got.error;
    ASSERT_EQ(got.member, want.member) << "membership " << object;
  }
  for (ObjectId object = 0; object < total; object += 41) {
    const QueryResponse got =
        sharded.Execute(QueryRequest::MembershipCount(object));
    const QueryResponse want =
        single.Execute(QueryRequest::MembershipCount(object));
    ASSERT_TRUE(got.ok) << got.error;
    ASSERT_EQ(got.count, want.count) << "membership count " << object;
  }
  const QueryResponse got_size = sharded.Execute(QueryRequest::SkycubeSize());
  const QueryResponse want_size = single.Execute(QueryRequest::SkycubeSize());
  ASSERT_TRUE(got_size.ok) << got_size.error;
  EXPECT_EQ(got_size.count, want_size.count);
}

TEST(ShardedSkycubeService, OracleIdenticalAcrossShardCounts) {
  const int dims = 4;
  for (const size_t num_shards : {1u, 2u, 4u, 8u}) {
    SingleNode single(MakeData(300, dims, 13));
    ShardedServiceOptions options;
    options.num_shards = num_shards;
    ShardedSkycubeService sharded(MakeData(300, dims, 13), options);
    ASSERT_EQ(sharded.num_shards(), num_shards);
    ExpectOracleIdentical(sharded, *single.service, dims);
  }
}

TEST(ShardedSkycubeService, InsertsStayOracleIdentical) {
  const int dims = 4;
  SingleNode single(MakeData(200, dims, 21));
  ShardedServiceOptions options;
  options.num_shards = 3;
  ShardedSkycubeService sharded(MakeData(200, dims, 21), options);

  for (int i = 0; i < 20; ++i) {
    std::vector<double> values;
    for (int d = 0; d < dims; ++d) {
      values.push_back(0.27 + 0.013 * i + 0.005 * d);
    }
    const QueryResponse got = sharded.Execute(QueryRequest::Insert(values));
    const QueryResponse want =
        single.service->Execute(QueryRequest::Insert(values));
    ASSERT_TRUE(got.ok) << got.error;
    ASSERT_TRUE(want.ok) << want.error;
    EXPECT_EQ(got.count, static_cast<uint64_t>(200 + i + 1));
  }
  ASSERT_EQ(sharded.topology().total_rows(), 220u);
  ExpectOracleIdentical(sharded, *single.service, dims);
}

TEST(ShardedSkycubeService, NonFiniteInsertIsRefusedAtTheRouter) {
  const int dims = 3;
  ShardedServiceOptions options;
  options.num_shards = 2;
  ShardedSkycubeService sharded(MakeData(50, dims, 5), options);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    const QueryResponse refused =
        sharded.Execute(QueryRequest::Insert({0.5, bad, 0.5}));
    EXPECT_FALSE(refused.ok);
    EXPECT_EQ(refused.code, StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(sharded.topology().total_rows(), 50u);
}

TEST(ShardedSkycubeService, SecondPassRunsOnShardCaches) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  ShardedSkycubeService sharded(MakeData(150, 3, 5), options);
  const QueryRequest request = QueryRequest::SubspaceSkyline(0b111);
  const QueryResponse cold = sharded.Execute(request);
  ASSERT_TRUE(cold.ok);
  EXPECT_FALSE(cold.cache_hit);
  const QueryResponse warm = sharded.Execute(request);
  ASSERT_TRUE(warm.ok);
  // A merged answer is a cache hit only when EVERY shard answered from its
  // cache — the honest aggregate.
  EXPECT_TRUE(warm.cache_hit);
  ASSERT_NE(warm.ids, nullptr);
  EXPECT_EQ(*warm.ids, *cold.ids);
}

TEST(ShardedSkycubeService, DownShardDegradesToFlaggedSurvivorAnswers) {
  const int dims = 4;
  const Dataset data = MakeData(260, dims, 31);
  ShardedServiceOptions options;
  options.num_shards = 3;
  ShardedSkycubeService sharded(data, options);
  const DimMask full = FullMask(dims);
  const size_t down_shard = 1;

  // Ground truth for the degraded answers: a single-node service over only
  // the surviving shards' rows, ids translated back to global.
  std::vector<ObjectId> survivors;
  Dataset survivor_data(dims);
  for (ObjectId gid = 0; gid < data.num_objects(); ++gid) {
    if (sharded.topology().OwnerOf(gid) == down_shard) continue;
    survivors.push_back(gid);
    const double* row = data.Row(gid);
    survivor_data.AddRow(std::vector<double>(row, row + dims));
  }
  SingleNode survivor_oracle(std::move(survivor_data));

  sharded.SetShardDown(down_shard, true);
  for (DimMask mask = 1; mask <= full; ++mask) {
    const QueryResponse got =
        sharded.Execute(QueryRequest::SubspaceSkyline(mask));
    ASSERT_TRUE(got.ok) << got.error;
    // Every answer with a shard down must carry the partial flag — an
    // unflagged answer would be a silent wrong answer.
    ASSERT_TRUE(got.partial) << "mask " << mask;
    const QueryResponse want = survivor_oracle.service->Execute(
        QueryRequest::SubspaceSkyline(mask));
    ASSERT_TRUE(want.ok);
    std::vector<ObjectId> expected;
    expected.reserve(want.ids->size());
    for (const ObjectId local : *want.ids) {
      expected.push_back(survivors[local]);
    }
    ASSERT_EQ(*got.ids, expected) << "survivor skyline mask " << mask;
  }

  // Membership still answers for a row owned by the down shard (the
  // topology holds its values); the answer is against the reachable rows.
  ObjectId victim_row = 0;
  while (sharded.topology().OwnerOf(victim_row) != down_shard) ++victim_row;
  const QueryResponse member =
      sharded.Execute(QueryRequest::Membership(victim_row, full));
  ASSERT_TRUE(member.ok) << member.error;
  EXPECT_TRUE(member.partial);

  // An insert whose owner shard is down must be rejected loudly — never
  // applied partially, never silently dropped. Mark exactly the owner of
  // the next global id as down.
  sharded.SetShardDown(down_shard, false);
  const ObjectId next_gid = sharded.topology().total_rows();
  const size_t owner = sharded.topology().OwnerOf(next_gid);
  sharded.SetShardDown(owner, true);
  const QueryResponse insert = sharded.Execute(
      QueryRequest::Insert(std::vector<double>(dims, 0.5)));
  EXPECT_FALSE(insert.ok);
  EXPECT_EQ(insert.code, StatusCode::kUnavailable);
  EXPECT_EQ(sharded.topology().total_rows(), next_gid);

  // Revival: full, unflagged answers again.
  sharded.SetShardDown(owner, false);
  SingleNode single(MakeData(260, dims, 31));
  ExpectOracleIdentical(sharded, *single.service, dims);
}

// --- Epoch-diff oracle ---------------------------------------------------

/// Independent mirror of the router's epoch model: every row ever appended
/// (gid order), with the epochs it was born and (optionally) died at. The
/// expected diff is recomputed from scratch with ComputeSkylineAmong —
/// brute force against the router's stamp-reconstruction path.
struct EpochOracle {
  explicit EpochOracle(const Dataset& bootstrap) : rows(bootstrap) {
    born.assign(bootstrap.num_objects(), 1);
    died.assign(bootstrap.num_objects(), 0);
  }

  void Insert(const std::vector<double>& values) {
    rows.AddRow(values);
    born.push_back(++epoch);
    died.push_back(0);
  }

  void Delete(ObjectId gid) { died[gid] = ++epoch; }

  bool LiveAt(ObjectId gid, uint64_t at) const {
    return born[gid] <= at && (died[gid] == 0 || died[gid] > at);
  }

  /// Expected (entered, left) for Sky(mask) between epochs `since` and now,
  /// restricted to rows `keep` accepts (shard-degradation filter).
  std::pair<std::vector<ObjectId>, std::vector<ObjectId>> Diff(
      DimMask mask, uint64_t since,
      const std::function<bool(ObjectId)>& keep) const {
    std::vector<ObjectId> now_live, was_live;
    for (ObjectId gid = 0; gid < rows.num_objects(); ++gid) {
      if (keep && !keep(gid)) continue;
      if (died[gid] == 0) now_live.push_back(gid);
      if (LiveAt(gid, since)) was_live.push_back(gid);
    }
    const std::vector<ObjectId> current =
        ComputeSkylineAmong(rows, mask, now_live);
    const std::vector<ObjectId> historical =
        ComputeSkylineAmong(rows, mask, was_live);
    std::vector<ObjectId> entered, left;
    std::set_difference(current.begin(), current.end(), historical.begin(),
                        historical.end(), std::back_inserter(entered));
    std::set_difference(historical.begin(), historical.end(),
                        current.begin(), current.end(),
                        std::back_inserter(left));
    return {std::move(entered), std::move(left)};
  }

  Dataset rows;
  std::vector<uint64_t> born, died;
  uint64_t epoch = 1;
};

/// Runs a deterministic mutation mix and checks every epoch-diff answer
/// against the oracle at several depths and subspaces.
void RunEpochDiffOracle(size_t num_shards, uint64_t seed) {
  const int dims = 4;
  const Dataset data = MakeData(150, dims, seed);
  ShardedServiceOptions options;
  options.num_shards = num_shards;
  ShardedSkycubeService sharded(data, options);
  EpochOracle oracle(data);

  Rng rng(seed * 7 + 1);
  for (int i = 0; i < 24; ++i) {
    if (rng.NextBounded(3) == 0) {
      // Deletes target any known gid — some will be repeats (acked no-ops
      // that must NOT advance the epoch).
      const ObjectId victim = static_cast<ObjectId>(
          rng.NextBounded(sharded.topology().total_rows()));
      const QueryResponse response =
          sharded.Execute(QueryRequest::Delete(victim));
      ASSERT_TRUE(response.ok) << response.error;
      if (response.insert_path != "dead") oracle.Delete(victim);
    } else {
      std::vector<double> values;
      for (int d = 0; d < dims; ++d) {
        values.push_back(0.05 + 0.01 * static_cast<double>(
                                           rng.NextBounded(60)));
      }
      const QueryResponse response =
          sharded.Execute(QueryRequest::Insert(values));
      ASSERT_TRUE(response.ok) << response.error;
      oracle.Insert(values);
    }
  }
  ASSERT_EQ(sharded.topology().epoch(), oracle.epoch)
      << "router and oracle disagree on the mutation count";

  const DimMask full = FullMask(dims);
  const std::vector<uint64_t> depths = {1, oracle.epoch / 2, oracle.epoch};
  for (const uint64_t since : depths) {
    for (DimMask mask = 1; mask <= full; ++mask) {
      const QueryResponse got =
          sharded.Execute(QueryRequest::EpochDiff(mask, since));
      ASSERT_TRUE(got.ok) << got.error;
      EXPECT_FALSE(got.partial);
      const auto [entered, left] = oracle.Diff(mask, since, nullptr);
      ASSERT_NE(got.ids, nullptr);
      ASSERT_NE(got.left_ids, nullptr);
      EXPECT_EQ(*got.ids, entered)
          << "entered, mask " << mask << " since " << since;
      EXPECT_EQ(*got.left_ids, left)
          << "left, mask " << mask << " since " << since;
      EXPECT_EQ(got.count, entered.size() + left.size());
    }
  }
  // Diffing the current epoch against itself is always empty.
  const QueryResponse self =
      sharded.Execute(QueryRequest::EpochDiff(full, oracle.epoch));
  ASSERT_TRUE(self.ok) << self.error;
  EXPECT_EQ(self.count, 0u);
  // A future epoch was never reached.
  const QueryResponse future =
      sharded.Execute(QueryRequest::EpochDiff(full, oracle.epoch + 5));
  EXPECT_FALSE(future.ok);
  EXPECT_EQ(future.code, StatusCode::kNotFound);
}

TEST(ShardedSkycubeService, EpochDiffMatchesOracleAcrossShardCounts) {
  for (const size_t num_shards : {1u, 2u, 4u, 8u}) {
    RunEpochDiffOracle(num_shards, 40 + num_shards);
  }
}

TEST(ShardedSkycubeService, EpochDiffDegradesToFlaggedSurvivorDiff) {
  const int dims = 4;
  const Dataset data = MakeData(180, dims, 47);
  ShardedServiceOptions options;
  options.num_shards = 4;
  ShardedSkycubeService sharded(data, options);
  EpochOracle oracle(data);

  // A few mutations so the diff is non-trivial at depth 1.
  Rng rng(51);
  for (int i = 0; i < 10; ++i) {
    std::vector<double> values;
    for (int d = 0; d < dims; ++d) {
      values.push_back(0.1 + 0.01 * static_cast<double>(rng.NextBounded(40)));
    }
    ASSERT_TRUE(sharded.Execute(QueryRequest::Insert(values)).ok);
    oracle.Insert(values);
  }
  const ObjectId victim = 3;
  ASSERT_TRUE(sharded.Execute(QueryRequest::Delete(victim)).ok);
  oracle.Delete(victim);

  // Kill one shard: every epoch-diff answer must carry the partial flag
  // and equal the survivor-restricted oracle — both the current AND the
  // historical side exclude the lost shard's rows, so shard loss is never
  // reported as row churn.
  const size_t down_shard = 2;
  sharded.SetShardDown(down_shard, true);
  const DimMask full = FullMask(dims);
  const auto survivor = [&sharded, down_shard](ObjectId gid) {
    return sharded.topology().OwnerOf(gid) != down_shard;
  };
  for (const uint64_t since : {uint64_t{1}, oracle.epoch / 2}) {
    for (DimMask mask = 1; mask <= full; mask += 3) {
      const QueryResponse got =
          sharded.Execute(QueryRequest::EpochDiff(mask, since));
      ASSERT_TRUE(got.ok) << got.error;
      EXPECT_TRUE(got.partial) << "mask " << mask << " since " << since;
      const auto [entered, left] = oracle.Diff(mask, since, survivor);
      EXPECT_EQ(*got.ids, entered)
          << "entered, mask " << mask << " since " << since;
      EXPECT_EQ(*got.left_ids, left)
          << "left, mask " << mask << " since " << since;
    }
  }

  // Revival: full, unflagged diffs again, equal to the unrestricted oracle.
  sharded.SetShardDown(down_shard, false);
  const QueryResponse revived =
      sharded.Execute(QueryRequest::EpochDiff(full, 1));
  ASSERT_TRUE(revived.ok) << revived.error;
  EXPECT_FALSE(revived.partial);
  const auto [entered, left] = oracle.Diff(full, 1, nullptr);
  EXPECT_EQ(*revived.ids, entered);
  EXPECT_EQ(*revived.left_ids, left);

  // With every shard down the diff is an error, never a silent empty.
  for (size_t s = 0; s < 4; ++s) sharded.SetShardDown(s, true);
  const QueryResponse dead = sharded.Execute(QueryRequest::EpochDiff(full, 1));
  EXPECT_FALSE(dead.ok);
  EXPECT_EQ(dead.code, StatusCode::kUnavailable);
}

TEST(ShardedSkycubeService, DeleteRoutesToOwnerAndIsIdempotent) {
  const int dims = 3;
  SingleNode single(MakeData(120, dims, 53));
  ShardedServiceOptions options;
  options.num_shards = 3;
  ShardedSkycubeService sharded(MakeData(120, dims, 53), options);

  // Delete the same rows through both tiers: answers stay oracle-identical.
  uint64_t expect_live = 120;
  for (const ObjectId victim : {ObjectId{5}, ObjectId{40}, ObjectId{99}}) {
    const QueryResponse got = sharded.Execute(QueryRequest::Delete(victim));
    const QueryResponse want =
        single.service->Execute(QueryRequest::Delete(victim));
    ASSERT_TRUE(got.ok) << got.error;
    ASSERT_TRUE(want.ok) << want.error;
    --expect_live;
    EXPECT_EQ(got.count, expect_live) << "live count after delete " << victim;
  }
  EXPECT_EQ(sharded.topology().num_live(), 117u);
  ExpectOracleIdentical(sharded, *single.service, dims);

  // Idempotence: the epoch must not advance for an already-dead target.
  const uint64_t epoch = sharded.topology().epoch();
  const QueryResponse again = sharded.Execute(QueryRequest::Delete(5));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.insert_path, "dead");
  EXPECT_EQ(sharded.topology().epoch(), epoch);
  EXPECT_EQ(sharded.topology().num_live(), 117u);

  // A delete whose owner shard is down must fail loudly, applied nowhere.
  ObjectId target = 0;
  while (!sharded.topology().IsLive(target)) ++target;
  const size_t owner = sharded.topology().OwnerOf(target);
  sharded.SetShardDown(owner, true);
  const QueryResponse refused = sharded.Execute(QueryRequest::Delete(target));
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, StatusCode::kUnavailable);
  EXPECT_EQ(sharded.topology().epoch(), epoch);
  EXPECT_TRUE(sharded.topology().IsLive(target));
}

TEST(ShardedSkycubeService, DrainRejectsNewQueries) {
  ShardedSkycubeService sharded(MakeData(80, 3, 2), {});
  sharded.BeginDrain();
  EXPECT_TRUE(sharded.draining());
  const QueryResponse response =
      sharded.Execute(QueryRequest::SubspaceSkyline(0b1));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, StatusCode::kUnavailable);
}

}  // namespace
}  // namespace skycube::router
