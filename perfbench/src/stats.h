// Exact latency samples and the percentile rule the benchmark reports by.
//
// Every sample is kept (no histogram buckets), so a percentile is an
// observed value and a 10% shift is visible. A percentile p of n samples
// is reported only when at least ten samples lie beyond it, i.e. when
// n * (1 - p/100) >= 10: p99 needs 1000 samples, p50 needs 20.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Minimum number of samples beyond a reported percentile.
inline constexpr size_t kSamplesBeyondFloor = 10;

/// True when `n` samples put at least kSamplesBeyondFloor beyond the p-th
/// percentile (0 < p < 100).
bool MeetsSampleFloor(size_t n, double p);

/// Smallest sample count for which the p-th percentile meets the floor.
size_t SamplesNeededFor(double p);

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the
/// ceil(p/100 * n)-th smallest sample.
double NearestRank(const std::vector<double>& sorted, double p);

/// Median of `values` (any order, non-empty); the mean of the two middle
/// values for an even count.
double Median(std::vector<double> values);

/// A growing set of exact samples of one measured quantity.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// The p-th percentile, or a negative value when the floor is not met.
  double Percentile(double p) const;
  double Mean() const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
