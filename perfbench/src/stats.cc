#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {
namespace {

/// 1-based nearest-rank position ceil(p/100 * n). p * n is formed first so
/// that e.g. p = 99, n = 1000 gives exactly 990.
size_t NearestRankPosition(size_t n, double p) {
  return static_cast<size_t>(std::ceil(p * static_cast<double>(n) / 100.0));
}

}  // namespace

bool MeetsSampleFloor(size_t n, double p) {
  const size_t rank = NearestRankPosition(n, p);
  return n >= rank && n - rank >= kSamplesBeyondFloor;
}

size_t SamplesNeededFor(double p) {
  size_t n = kSamplesBeyondFloor;
  while (!MeetsSampleFloor(n, p)) ++n;
  return n;
}

double NearestRank(const std::vector<double>& sorted, double p) {
  const size_t rank =
      std::clamp<size_t>(NearestRankPosition(sorted.size(), p), 1,
                         sorted.size());
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  if (!MeetsSampleFloor(values_.size(), p)) return -1;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return NearestRank(sorted, p);
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

}  // namespace perfbench
