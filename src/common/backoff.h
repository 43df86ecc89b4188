// Backoff: the jittered exponential retry schedule shared by the cube
// rebuilder's retries (service/cube_rebuilder.h) and the router's
// down-shard probes (router/probe_backoff.h).
//
// After k consecutive failures the base delay is
// initial_millis * multiplier^(k-1), capped at max_millis; each delay is
// scaled by U[1 - jitter, 1 + jitter] so that many callers sharing a
// failing dependency do not retry in lock-step, and never drops below
// 1 ms. The jitter RNG is seeded, so a schedule is deterministic.
//
// Not thread-safe: every delay advances the jitter state, so the owner
// guards its instance with its own lock.
#ifndef SKYCUBE_COMMON_BACKOFF_H_
#define SKYCUBE_COMMON_BACKOFF_H_

#include <algorithm>
#include <cstdint>

#include "common/rng.h"

namespace skycube {

struct BackoffPolicy {
  /// Base delay after the first failure.
  int64_t initial_millis = 100;
  /// Base delays grow by `multiplier` per failure up to this cap.
  int64_t max_millis = 30000;
  double multiplier = 2.0;
  /// Actual delay = base * U[1 - jitter, 1 + jitter].
  double jitter = 0.2;
  /// Seed for the jitter RNG (deterministic tests).
  uint64_t jitter_seed = 42;
};

class Backoff {
 public:
  explicit Backoff(const BackoffPolicy& policy)
      : policy_(policy), jitter_state_(policy.jitter_seed) {}

  /// The jittered delay after `failures` (>= 1) consecutive failures.
  int64_t DelayMillis(int failures) {
    double base = static_cast<double>(policy_.initial_millis);
    for (int i = 1; i < failures; ++i) {
      base *= policy_.multiplier;
      if (base >= static_cast<double>(policy_.max_millis)) break;
    }
    return Jittered(std::min(base, static_cast<double>(policy_.max_millis)));
  }

  /// `base_millis` scaled by one draw of the jitter factor, at least 1 ms.
  int64_t Jittered(double base_millis) {
    double factor = 1.0;
    if (policy_.jitter > 0.0) {
      Rng rng(jitter_state_++);
      factor = 1.0 + policy_.jitter * (2.0 * rng.NextDouble() - 1.0);
    }
    return std::max<int64_t>(static_cast<int64_t>(base_millis * factor), 1);
  }

  const BackoffPolicy& policy() const { return policy_; }

 private:
  BackoffPolicy policy_;
  uint64_t jitter_state_;
};

}  // namespace skycube

#endif  // SKYCUBE_COMMON_BACKOFF_H_
