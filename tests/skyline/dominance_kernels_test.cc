// Property tests for the columnar dominance kernels: every kernel must
// match its row-major oracle (skyline/dominance.h, Dataset masks) exactly
// on random datasets across distributions, tie profiles, signed zeros and
// subspaces, and every algorithm and pipeline built on them must reproduce
// the reference skyline and reference cube exactly.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitset.h"
#include "core/reference.h"
#include "core/skyey.h"
#include "core/stellar.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "dataset/ranked_view.h"
#include "skycube/skycube.h"
#include "skyline/algorithms.h"
#include "skyline/dominance.h"
#include "skyline/dominance_kernels.h"

namespace skycube {
namespace {

// 300 rows over a tiny value pool: -0.0/+0.0 mixes (equal under IEEE ==),
// exact ties, and large-magnitude values whose coordinate sums round equal.
Dataset EdgeCaseDataset() {
  const double pool[] = {-0.0, 0.0, 1.0, 1e20, -1e20, 0.5};
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> row;
    for (int k = 0; k < 5; ++k) row.push_back(pool[(i * 7 + k * 13 + i / 3) % 6]);
    rows.push_back(std::move(row));
  }
  return Dataset::FromRows(std::move(rows)).value();
}

std::vector<Dataset> TestDatasets() {
  std::vector<Dataset> datasets;
  for (Distribution distribution :
       {Distribution::kIndependent, Distribution::kCorrelated,
        Distribution::kAntiCorrelated}) {
    SyntheticSpec spec;
    spec.distribution = distribution;
    spec.num_objects = 300;
    spec.num_dims = 5;
    spec.seed = 7;
    // 1 decimal digit forces heavy ties; 4 is the paper's setting.
    for (int decimals : {1, 4}) {
      spec.truncate_decimals = decimals;
      datasets.push_back(GenerateSynthetic(spec));
    }
  }
  datasets.push_back(EdgeCaseDataset());
  return datasets;
}

std::vector<DimMask> TestSubspaces(const Dataset& data) {
  return {DimBit(0), 0b11, 0b101, 0b1110, data.full_mask()};
}

TEST(RankedViewTest, RanksPreserveOrderAndTies) {
  // The view is a plain transpose: every column entry is the row value,
  // so column comparisons are the row comparisons.
  for (const Dataset& data : TestDatasets()) {
    const RankedView view(data);
    ASSERT_EQ(view.num_objects(), data.num_objects());
    ASSERT_EQ(view.num_dims(), data.num_dims());
    for (int dim = 0; dim < data.num_dims(); ++dim) {
      const double* col = view.column(dim);
      for (ObjectId a = 0; a < data.num_objects(); ++a) {
        EXPECT_EQ(std::signbit(col[a]), std::signbit(data.Value(a, dim)));
        for (ObjectId b = a + 1; b < data.num_objects(); ++b) {
          const double va = data.Value(a, dim);
          const double vb = data.Value(b, dim);
          EXPECT_EQ(col[a] < col[b], va < vb);
          EXPECT_EQ(col[a] == col[b], va == vb);
        }
      }
    }
  }
}

TEST(DominanceKernelsTest, PairwiseKernelsMatchScalarOracle) {
  // Every batch kernel on a one-element batch is a pairwise kernel.
  for (const Dataset& data : TestDatasets()) {
    const RankedView view(data);
    for (DimMask subspace : TestSubspaces(data)) {
      for (ObjectId a = 0; a < 64; ++a) {
        for (ObjectId b = 0; b < 64; ++b) {
          DimMask mask = 0;
          DominanceMasks(view, a, &b, 1, subspace, &mask);
          EXPECT_EQ(mask, data.DominanceMask(a, b, subspace));
          CoincidenceMasks(view, a, &b, 1, subspace, &mask);
          EXPECT_EQ(mask, data.CoincidenceMask(a, b, subspace));
          DynamicBitset dominated(1);
          DominatedBitmap(view, a, &b, 1, subspace, &dominated);
          EXPECT_EQ(dominated.Test(0),
                    RowDominates(data.Row(a), data.Row(b), subspace));
        }
      }
    }
  }
}

TEST(DominanceKernelsTest, BatchKernelsMatchScalarOracle) {
  for (const Dataset& data : TestDatasets()) {
    const RankedView view(data);
    std::vector<ObjectId> ids(data.num_objects());
    std::iota(ids.begin(), ids.end(), 0);
    for (DimMask subspace : TestSubspaces(data)) {
      std::vector<DimMask> masks(ids.size());
      for (ObjectId probe : {ObjectId{0}, ObjectId{17}, ObjectId{299}}) {
        DynamicBitset dominated(ids.size());
        DominatedBitmap(view, probe, ids.data(), ids.size(), subspace,
                        &dominated);
        CoincidenceMasks(view, probe, ids.data(), ids.size(), subspace,
                         masks.data());
        for (size_t j = 0; j < ids.size(); ++j) {
          EXPECT_EQ(dominated.Test(j),
                    RowDominates(data.Row(probe), data.Row(ids[j]), subspace));
          EXPECT_EQ(masks[j], data.CoincidenceMask(probe, ids[j], subspace));
        }
        DominanceMasks(view, probe, ids.data(), ids.size(), subspace,
                       masks.data());
        for (size_t j = 0; j < ids.size(); ++j) {
          EXPECT_EQ(masks[j], data.DominanceMask(probe, ids[j], subspace));
        }
      }
    }
  }
}

TEST(DominanceKernelsTest, BlockKernelsMatchScalarOracle) {
  for (const Dataset& data : TestDatasets()) {
    const RankedView view(data);
    std::vector<ObjectId> block_ids;
    for (ObjectId id = 0; id < data.num_objects(); id += 2) {
      block_ids.push_back(id);
    }
    for (DimMask subspace : TestSubspaces(data)) {
      const RankedBlock block = RankedBlock::Gather(view, subspace, block_ids);
      std::vector<double> probe(
          static_cast<size_t>(std::max(block.num_packed_dims(), 1)));
      std::vector<uint8_t> flags(block_ids.size());
      for (ObjectId target = 0; target < 32; ++target) {
        block.GatherProbe(data.Row(target), probe.data());
        bool any = false;
        for (ObjectId id : block_ids) {
          any = any || RowDominates(data.Row(id), data.Row(target), subspace);
        }
        EXPECT_EQ(BlockAnyDominates(block, probe.data()), any);
        BlockDominatedFlags(block, probe.data(), flags.data());
        for (size_t j = 0; j < block_ids.size(); ++j) {
          EXPECT_EQ(flags[j] != 0, RowDominates(data.Row(target),
                                                data.Row(block_ids[j]),
                                                subspace));
        }
      }
    }
  }
}

TEST(DominanceKernelsTest, PairwiseTileMatchesScalarMasks) {
  for (const Dataset& data : TestDatasets()) {
    const RankedView view(data);
    std::vector<ObjectId> ids;
    for (ObjectId id = 0; id < 100; ++id) ids.push_back(id * 3);
    const DimMask universe = data.full_mask();
    const RankedBlock block = RankedBlock::Gather(view, universe, ids);
    const size_t n = ids.size();
    std::vector<DimMask> dom(n * n, ~DimMask{0});
    // Cover tile seams: fill via two horizontal bands and two vertical ones.
    for (size_t i0 : {size_t{0}, n / 2}) {
      const size_t i1 = i0 == 0 ? n / 2 : n;
      for (size_t j0 : {size_t{0}, n / 3}) {
        const size_t j1 = j0 == 0 ? n / 3 : n;
        PairwiseDominanceTile(block, i0, i1, j0, j1, dom.data() + i0 * n + j0,
                              n);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(dom[i * n + j], data.DominanceMask(ids[i], ids[j], universe));
      }
    }
  }
}

TEST(DominanceKernelsTest, PresortOrderIsMonotoneUnderDominance) {
  for (const Dataset& data : TestDatasets()) {
    for (DimMask subspace : TestSubspaces(data)) {
      for (ObjectId a = 0; a < 80; ++a) {
        for (ObjectId b = 0; b < 80; ++b) {
          if (RowDominates(data.Row(a), data.Row(b), subspace)) {
            EXPECT_LE(SortScore(data.Row(a), subspace),
                      SortScore(data.Row(b), subspace));
            EXPECT_TRUE(PresortBefore(data, subspace,
                                      MakePresortEntry(data, subspace, a),
                                      MakePresortEntry(data, subspace, b)));
          }
        }
      }
    }
  }
}

TEST(DominanceKernelsTest, AllTiesRegression) {
  // Every object identical: nothing dominates anything, every kernel must
  // report ties, and every algorithm must keep all objects.
  const Dataset data =
      Dataset::FromRows({{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}}).value();
  const RankedView view(data);
  const DimMask full = data.full_mask();
  std::vector<ObjectId> ids(data.num_objects());
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<DimMask> masks(ids.size());
  for (ObjectId a = 0; a < data.num_objects(); ++a) {
    CoincidenceMasks(view, a, ids.data(), ids.size(), full, masks.data());
    for (DimMask mask : masks) EXPECT_EQ(mask, full);
    DominanceMasks(view, a, ids.data(), ids.size(), full, masks.data());
    for (DimMask mask : masks) EXPECT_EQ(mask, DimMask{0});
  }
  DynamicBitset dominated(ids.size());
  DominatedBitmap(view, 0, ids.data(), ids.size(), full, &dominated);
  EXPECT_FALSE(dominated.Any());
  for (SkylineAlgorithm algorithm : kAllSkylineAlgorithmsWithBitmap) {
    EXPECT_EQ(ComputeSkyline(view, full, algorithm), ids)
        << SkylineAlgorithmName(algorithm);
  }
}

TEST(RankedAlgorithmsTest, MatchScalarAlgorithmsOnAllSubspaces) {
  for (const Dataset& data : TestDatasets()) {
    const RankedView view(data);
    for (DimMask subspace : TestSubspaces(data)) {
      const std::vector<ObjectId> expected = ReferenceSkyline(data, subspace);
      for (SkylineAlgorithm algorithm : kAllSkylineAlgorithmsWithBitmap) {
        EXPECT_EQ(ComputeSkyline(view, subspace, algorithm), expected)
            << SkylineAlgorithmName(algorithm) << " subspace=" << subspace;
      }
    }
  }
}

TEST(RankedAlgorithmsTest, CandidateRestrictionMatchesScalar) {
  for (const Dataset& data : TestDatasets()) {
    const RankedView view(data);
    std::vector<ObjectId> candidates;
    for (ObjectId id = 1; id < data.num_objects(); id += 3) {
      candidates.push_back(id);
    }
    // Oracle: the reference skyline of the candidate rows on their own.
    std::vector<std::vector<double>> rows;
    for (ObjectId id : candidates) {
      rows.emplace_back(data.Row(id), data.Row(id) + data.num_dims());
    }
    const Dataset subset = Dataset::FromRows(std::move(rows)).value();
    std::vector<ObjectId> expected;
    for (ObjectId local : ReferenceSkyline(subset, subset.full_mask())) {
      expected.push_back(candidates[local]);
    }
    for (SkylineAlgorithm algorithm : kAllSkylineAlgorithmsWithBitmap) {
      EXPECT_EQ(ComputeSkylineAmong(view, data.full_mask(), candidates,
                                    algorithm),
                expected)
          << SkylineAlgorithmName(algorithm);
    }
  }
}

TEST(RankedPipelinesTest, StellarIdenticalRankedVsDouble) {
  for (const Dataset& data : TestDatasets()) {
    const SkylineGroupSet expected = ComputeReferenceCube(data);
    for (StellarOptions::MatrixMode mode :
         {StellarOptions::MatrixMode::kMaterialize,
          StellarOptions::MatrixMode::kOnTheFly}) {
      StellarOptions options;
      options.matrix_mode = mode;
      EXPECT_EQ(ComputeStellar(data, options), expected);
    }
  }
}

TEST(RankedPipelinesTest, SkyeyIdenticalRankedVsDouble) {
  SyntheticSpec spec;
  spec.num_objects = 150;
  spec.num_dims = 4;
  spec.truncate_decimals = 1;
  const Dataset data = GenerateSynthetic(spec);
  EXPECT_EQ(ComputeSkyey(data), ComputeReferenceCube(data));
}

TEST(RankedPipelinesTest, ParallelSkycubeDeterministic) {
  SyntheticSpec spec;
  spec.num_objects = 200;
  spec.num_dims = 5;
  spec.truncate_decimals = 2;
  const Dataset data = GenerateSynthetic(spec);
  // Every node's skyline is the reference skyline, and the visit order of
  // the parallel fan-out is the sequential one.
  std::vector<std::pair<DimMask, std::vector<ObjectId>>> sequential;
  for (int num_threads : {1, 0}) {
    SkycubeOptions options;
    options.num_threads = num_threads;
    std::vector<std::pair<DimMask, std::vector<ObjectId>>> visited;
    SkycubeStats stats;
    ForEachSubspaceSkyline(
        data, options,
        [&](DimMask mask, const std::vector<ObjectId>& skyline) {
          visited.emplace_back(mask, skyline);
        },
        &stats);
    for (const auto& [mask, skyline] : visited) {
      EXPECT_EQ(skyline, ReferenceSkyline(data, mask))
          << "threads=" << num_threads << " mask=" << mask;
    }
    EXPECT_EQ(stats.subspaces_visited, (1u << data.num_dims()) - 1);
    EXPECT_EQ(visited.size(), stats.subspaces_visited);
    if (num_threads == 1) {
      sequential = std::move(visited);
    } else {
      EXPECT_EQ(visited, sequential);
    }
  }
}

}  // namespace
}  // namespace skycube
