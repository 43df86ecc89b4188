#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "datagen/nba_like.h"
#include "datagen/synthetic.h"

namespace perfbench {
namespace {

using skycube::Dataset;
using skycube::DimMask;
using skycube::Distribution;
using skycube::ObjectId;
using skycube::QueryKind;

Dataset Synthetic(Distribution distribution, size_t rows, int dims,
                  uint64_t seed) {
  skycube::SyntheticSpec spec;
  spec.distribution = distribution;
  spec.num_objects = rows;
  spec.num_dims = dims;
  spec.seed = seed;
  spec.truncate_decimals = 4;
  return skycube::GenerateSynthetic(spec);
}

/// FNV-1a of `name`: a stable per-input label for StreamSeed.
uint64_t NameLabel(const std::string& name) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

uint64_t StreamSeed(uint64_t seed, uint64_t label) {
  skycube::Rng rng(seed * 0x9E3779B97F4A7C15ULL + label);
  return rng.NextUint64();
}

Dataset MakeInput(const std::string& name, uint64_t seed, int variant) {
  const uint64_t input_seed =
      StreamSeed(seed, NameLabel(name) + static_cast<uint64_t>(variant));
  if (name == "corr8") {
    return Synthetic(Distribution::kCorrelated, 20000, 8, input_seed);
  }
  if (name == "indep6" || name == "read") {
    return Synthetic(Distribution::kIndependent, kReadRows, kReadDims,
                     input_seed);
  }
  if (name == "anti4") {
    return Synthetic(Distribution::kAntiCorrelated, 20000, 4, input_seed);
  }
  if (name == "nba17") {
    return skycube::GenerateNbaLike(skycube::kNbaLikeDefaultPlayers,
                                    input_seed)
        .Negated();
  }
  if (name == "ingest") {
    return Synthetic(Distribution::kIndependent, kIngestRows, kReadDims,
                     input_seed);
  }
  std::abort();
}

/// Seed of the fixed subspace popularity order of the Q1 stream.
constexpr uint64_t kPopularityOrderSeed = 0x5C1B;

/// Shuffles `items` with `rng` (Fisher-Yates).
template <typename T>
void Shuffle(std::vector<T>* items, skycube::Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->NextUint64() % i]);
  }
}

int KindIndex(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSubspaceSkyline:
      return 0;
    case QueryKind::kMembership:
      return 1;
    case QueryKind::kSkylineCardinality:
      return 3;
    default:
      return 2;
  }
}

ReadStream::ReadStream(int num_dims, size_t num_objects, uint64_t seed)
    : rng_(seed), num_dims_(num_dims), num_objects_(num_objects) {
  const DimMask full = skycube::FullMask(num_dims);
  by_rank_.resize(full);
  std::iota(by_rank_.begin(), by_rank_.end(), DimMask{1});
  // The popularity order is the same for every seed: which subspace is
  // hottest decides much of a routed Q1's cost (its skyline's size), and
  // that should not change from one run to the next.
  skycube::Rng order(kPopularityOrderSeed);
  Shuffle(&by_rank_, &order);
  // The mix holds exactly in every block of 50 reads: a routed Q3 costs
  // about a hundred other reads, so drawing each kind independently would
  // add the noise of the Q3 count to every throughput figure.
  block_.assign(40, QueryKind::kSubspaceSkyline);
  block_.insert(block_.end(), 5, QueryKind::kSkylineCardinality);
  block_.insert(block_.end(), 4, QueryKind::kMembership);
  block_.insert(block_.end(), 1, QueryKind::kMembershipCount);
  next_ = block_.size();
  // Zipf with exponent 1.1: P(rank r) proportional to 1 / r^1.1.
  double total = 0;
  for (size_t rank = 1; rank <= by_rank_.size(); ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), 1.1);
    zipf_cdf_.push_back(total);
  }
  for (double& cdf : zipf_cdf_) cdf /= total;
}

ReadOp ReadStream::Next() {
  const DimMask full = skycube::FullMask(num_dims_);
  if (next_ == block_.size()) {
    Shuffle(&block_, &rng_);
    next_ = 0;
  }
  ReadOp op;
  op.kind = block_[next_++];
  if (op.kind == QueryKind::kSubspaceSkyline ||
      op.kind == QueryKind::kSkylineCardinality) {
    const double u = rng_.NextDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    op.subspace = by_rank_[std::min(rank, by_rank_.size() - 1)];
  } else if (op.kind == QueryKind::kMembership) {
    op.object = static_cast<ObjectId>(rng_.NextUint64() % num_objects_);
    op.subspace = 1 + static_cast<DimMask>(rng_.NextUint64() % full);
  } else {
    op.object = static_cast<ObjectId>(rng_.NextUint64() % num_objects_);
  }
  return op;
}

WriteStream::WriteStream(int num_dims, size_t initial_rows, uint64_t seed)
    : rng_(seed), num_dims_(num_dims), live_(initial_rows) {
  std::iota(live_.begin(), live_.end(), ObjectId{0});
  block_.assign(7, 1);
  block_.insert(block_.end(), 3, 0);
  next_ = block_.size();
}

WriteOp WriteStream::Next() {
  if (next_ == block_.size()) {
    Shuffle(&block_, &rng_);
    next_ = 0;
  }
  WriteOp op;
  op.insert = block_[next_++] != 0 || live_.empty();
  if (op.insert) {
    op.values.resize(static_cast<size_t>(num_dims_));
    for (double& value : op.values) {
      value = std::floor(rng_.NextDouble() * 1e4) / 1e4;
    }
  } else {
    const size_t index = rng_.NextUint64() % live_.size();
    op.object = live_[index];
    live_[index] = live_.back();
    live_.pop_back();
  }
  return op;
}

}  // namespace perfbench
