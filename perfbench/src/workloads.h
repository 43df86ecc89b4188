// Seeded inputs and operation streams. Everything the benchmark sends is a
// function of --seed: the same seed gives the same rows and the same
// request sequence on every connection.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/subspace.h"
#include "dataset/dataset.h"
#include "service/request.h"

namespace perfbench {

/// Rows of the served datasets: independent 20000x6 (read, routed).
inline constexpr size_t kReadRows = 20000;
inline constexpr int kReadDims = 6;
/// Rows of the ingest dataset: independent 4000x6.
inline constexpr size_t kIngestRows = 4000;

/// Result-cache entries of the servers: below the object count, so the
/// Zipf-hot Q1 answers fit and the 1.26M (object, subspace) Q2 keys do not.
inline constexpr int kReadCacheCapacity = 4096;
inline constexpr int kIngestCacheCapacity = 1024;

/// The build workload's inputs, in pass order.
inline const std::vector<std::string>& BuildInputNames() {
  static const std::vector<std::string> names = {"corr8", "indep6", "anti4",
                                                 "nba17"};
  return names;
}

/// Generates variant `variant` of the named input from `seed`, in algorithm
/// convention (smaller is better): "corr8", "indep6", "anti4" (20000 rows),
/// "nba17" (17265 NBA-like rows, negated), "read" (independent 20000x6) and
/// "ingest" (independent 4000x6). Values carry 4 decimals, as in the paper.
///
/// Stellar's cost moves with the draw (on independent 4000x6 rows it spans
/// about 3x between seeds), so a run measures several variants of a family
/// and reports medians; variant 0 is the one served or checked in detail.
skycube::Dataset MakeInput(const std::string& name, uint64_t seed,
                           int variant = 0);

/// Derives an independent stream seed from the run seed and a label.
uint64_t StreamSeed(uint64_t seed, uint64_t label);

/// Seeds of a serving workload segment's read connections (connection c
/// uses StreamSeed of this and c) and of the ingest writer. The traced
/// replay uses segment 0's streams.
inline uint64_t ReadStreamSeed(uint64_t seed, int segment) {
  return StreamSeed(seed, 100 + static_cast<uint64_t>(segment));
}
inline uint64_t WriteStreamSeed(uint64_t seed, int segment) {
  return StreamSeed(seed, 400 + static_cast<uint64_t>(segment));
}

/// One read request of the read mix.
struct ReadOp {
  skycube::QueryKind kind = skycube::QueryKind::kSubspaceSkyline;
  skycube::DimMask subspace = 0;
  skycube::ObjectId object = 0;
};

/// Index of a read kind in per-kind arrays: 0 = Q1, 1 = Q2, 2 = Q3,
/// 3 = skyline cardinality ("card").
int KindIndex(skycube::QueryKind kind);
inline constexpr int kKinds = 4;
inline constexpr const char* kKindNames[kKinds] = {"q1", "q2", "q3", "card"};

/// The read mix of the repository's service benchmark
/// (bench/bench_service_throughput.cc, --mix=mixed): 80% Q1 subspace
/// skylines and 10% skyline cardinalities, both Zipf(1.1) over the 2^d - 1
/// subspaces in one fixed popularity order; 8% Q2 membership (uniform
/// object x uniform subspace, so the keys do not fit the cache); 2% Q3
/// membership count (uniform object). The shares are exact in every block
/// of 50 reads, in a seeded order.
class ReadStream {
 public:
  ReadStream(int num_dims, size_t num_objects, uint64_t seed);
  ReadOp Next();

 private:
  skycube::Rng rng_;
  int num_dims_;
  size_t num_objects_;
  std::vector<skycube::DimMask> by_rank_;  // subspaces, hottest first
  std::vector<double> zipf_cdf_;
  std::vector<skycube::QueryKind> block_;  // one block's kinds, shuffled
  size_t next_ = 0;
};

/// One ingest mutation: an insert of `values` or a delete of `object`.
struct WriteOp {
  bool insert = true;
  std::vector<double> values;
  skycube::ObjectId object = 0;
};

/// The ingest writer's stream: 70% inserts of fresh independent rows (4
/// decimals, like the initial rows), 30% deletes of a uniformly chosen live
/// id: the split of the repository's streaming-ingest study
/// (results/streaming_ingest.json, --delete-ratio=30), exact in every block
/// of 10 writes. The caller reports each acknowledged insert's id.
class WriteStream {
 public:
  WriteStream(int num_dims, size_t initial_rows, uint64_t seed);
  WriteOp Next();
  /// Records the id the system assigned to the last insert.
  void Inserted(skycube::ObjectId id) { live_.push_back(id); }

 private:
  skycube::Rng rng_;
  int num_dims_;
  std::vector<skycube::ObjectId> live_;
  std::vector<uint8_t> block_;  // one block's insert flags, shuffled
  size_t next_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
