#include "calibration.h"

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {
namespace {

double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) / 1e9;
}

/// A 64-bit linear congruential step (Knuth's MMIX constants).
uint64_t Next(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state;
}

}  // namespace

double TimeReferenceKernel() {
  constexpr uint32_t kTableMask = (1U << 20) - 1;
  const double start = ThreadCpuSeconds();
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  std::vector<double> values(1U << 17);
  for (double& value : values) value = static_cast<double>(Next(&state) >> 11);
  std::sort(values.begin(), values.end());
  std::vector<uint32_t> table(kTableMask + 1);
  for (uint32_t& entry : table) {
    entry = static_cast<uint32_t>(Next(&state) >> 40) & kTableMask;
  }
  uint32_t index = 0;
  for (uint32_t step = 0; step < (1U << 19); ++step) {
    index = table[index] ^ (step & kTableMask);
  }
  // Keeps the results observable, so the work is not optimized away.
  volatile double sink = values[values.size() / 2] + index;
  (void)sink;
  return ThreadCpuSeconds() - start;
}

}  // namespace perfbench
