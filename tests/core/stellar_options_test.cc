// Ablation-style tests: every Stellar/Skyey option combination must compute
// the identical cube; stats must be internally consistent.
#include <vector>

#include <gtest/gtest.h>

#include "core/skyey.h"
#include "core/stellar.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"

namespace skycube {
namespace {

Dataset TestData(Distribution distribution, uint64_t seed) {
  SyntheticSpec spec;
  spec.distribution = distribution;
  spec.num_objects = 400;
  spec.num_dims = 4;
  spec.truncate_decimals = 2;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

TEST(StellarOptionsTest, MatrixModesAgree) {
  const Dataset data = TestData(Distribution::kAntiCorrelated, 8);
  StellarOptions materialize;
  materialize.matrix_mode = StellarOptions::MatrixMode::kMaterialize;
  StellarOptions on_the_fly;
  on_the_fly.matrix_mode = StellarOptions::MatrixMode::kOnTheFly;
  StellarOptions auto_mode;
  auto_mode.matrix_mode = StellarOptions::MatrixMode::kAuto;
  const SkylineGroupSet a = ComputeStellar(data, materialize);
  const SkylineGroupSet b = ComputeStellar(data, on_the_fly);
  const SkylineGroupSet c = ComputeStellar(data, auto_mode);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(StellarOptionsTest, SkylineAlgorithmChoiceDoesNotMatter) {
  const Dataset data = TestData(Distribution::kIndependent, 15);
  SkylineGroupSet reference;
  bool first = true;
  for (SkylineAlgorithm algorithm : kAllSkylineAlgorithms) {
    StellarOptions options;
    options.skyline_algorithm = algorithm;
    SkylineGroupSet got = ComputeStellar(data, options);
    if (first) {
      reference = std::move(got);
      first = false;
    } else {
      EXPECT_EQ(got, reference) << SkylineAlgorithmName(algorithm);
    }
  }
}

TEST(StellarOptionsTest, BindDuplicatesToggleOnDistinctData) {
  // Without duplicates in the input the toggle must be a no-op.
  const Dataset data = TestData(Distribution::kCorrelated, 23);
  StellarOptions bound;
  bound.bind_duplicates = true;
  StellarOptions unbound;
  unbound.bind_duplicates = false;
  // The generated data may contain duplicates after truncation; filter them
  // out first to make the unbound run well-defined.
  std::vector<std::vector<double>> rows;
  std::vector<std::vector<double>> seen;
  for (ObjectId i = 0; i < data.num_objects(); ++i) {
    std::vector<double> row(data.Row(i), data.Row(i) + data.num_dims());
    if (std::find(seen.begin(), seen.end(), row) == seen.end()) {
      seen.push_back(row);
      rows.push_back(row);
    }
  }
  const Dataset distinct = Dataset::FromRows(rows).value();
  EXPECT_EQ(ComputeStellar(distinct, bound),
            ComputeStellar(distinct, unbound));
}

TEST(StellarOptionsTest, StatsAreConsistent) {
  const Dataset data = TestData(Distribution::kIndependent, 4);
  StellarStats stats;
  const SkylineGroupSet groups = ComputeStellar(data, {}, &stats);
  EXPECT_EQ(stats.num_objects, data.num_objects());
  EXPECT_LE(stats.num_unique_objects, stats.num_objects);
  EXPECT_LE(stats.num_seeds, stats.num_unique_objects);
  EXPECT_GE(stats.num_seeds, 1u);
  EXPECT_LE(stats.num_seed_skyline_groups, stats.num_maximal_cgroups);
  EXPECT_EQ(stats.num_groups, groups.size());
  // Theorem 1: every group contains at least one seed, so there are at
  // least as many groups as... actually at least one group per seed's
  // singleton (possibly extended); weak sanity: groups ≥ 1.
  EXPECT_GE(stats.num_groups, 1u);
  EXPECT_GE(stats.seconds_total, 0.0);
  EXPECT_GE(stats.seconds_total,
            stats.seconds_full_skyline + stats.seconds_matrices +
                stats.seconds_seed_groups + stats.seconds_nonseed - 1e-6);
}

TEST(StellarOptionsTest, ThreadCountDoesNotChangeResults) {
  const Dataset data = TestData(Distribution::kAntiCorrelated, 77);
  StellarOptions sequential;
  sequential.num_threads = 1;
  StellarOptions two_threads;
  two_threads.num_threads = 2;
  StellarOptions all_threads;
  all_threads.num_threads = 0;  // hardware concurrency
  const SkylineGroupSet base = ComputeStellar(data, sequential);
  EXPECT_EQ(base, ComputeStellar(data, two_threads));
  EXPECT_EQ(base, ComputeStellar(data, all_threads));
  // More threads than seed groups must also work.
  StellarOptions many;
  many.num_threads = 64;
  EXPECT_EQ(base, ComputeStellar(data, many));
}

TEST(SkyeyOptionsTest, CandidateSharingToggleAgrees) {
  const Dataset data = TestData(Distribution::kAntiCorrelated, 31);
  SkyeyOptions shared;
  shared.share_parent_candidates = true;
  SkyeyOptions fresh;
  fresh.share_parent_candidates = false;
  EXPECT_EQ(ComputeSkyey(data, shared), ComputeSkyey(data, fresh));
}

TEST(SkyeyOptionsTest, StatsCountSubspaces) {
  const Dataset data = TestData(Distribution::kIndependent, 2);
  SkyeyStats stats;
  const SkylineGroupSet groups = ComputeSkyey(data, {}, &stats);
  EXPECT_EQ(stats.num_objects, data.num_objects());
  EXPECT_EQ(stats.subspaces_searched, 15u);  // 2^4 − 1
  EXPECT_EQ(stats.num_groups, groups.size());
  EXPECT_GT(stats.total_subspace_skyline_objects, 0u);
}

// The headline compression claim on a favourable (correlated) dataset: the
// number of groups is much smaller than the number of subspace skyline
// objects.
TEST(CompressionTest, GroupsCompressSubspaceSkylines) {
  const Dataset data = TestData(Distribution::kCorrelated, 12);
  SkyeyStats stats;
  const SkylineGroupSet groups = ComputeSkyey(data, {}, &stats);
  EXPECT_LT(groups.size() * 2, stats.total_subspace_skyline_objects);
}

}  // namespace
}  // namespace skycube
