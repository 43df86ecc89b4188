// ProbeBackoff: the down-shard probing schedule of the router backends
// (docs/SHARDING.md, "Failover").
//
// A down-marked shard used to be probed every fixed retry_after_millis; a
// long outage then costs one doomed connect per interval per backend, and
// a fleet of routers probes in lock-step. This class replaces the fixed
// interval with the jittered exponential schedule of common/backoff.h, the
// one CubeRebuilder retries on: delays start at `initial_millis`, grow by
// `multiplier` up to `max_millis`, each sleep is scaled by
// U[1 - jitter, 1 + jitter] to decorrelate probe storms, and a single
// success fully resets the schedule.
//
// Time is injected: every mutation takes the caller's `now`, so tests step
// a fake clock through the schedule deterministically (the jitter RNG is
// seeded, also deterministic). Not thread-safe — the owning backend guards
// its instance with its own mutex.
#ifndef SKYCUBE_ROUTER_PROBE_BACKOFF_H_
#define SKYCUBE_ROUTER_PROBE_BACKOFF_H_

#include <chrono>
#include <cstdint>

#include "common/backoff.h"

namespace skycube::router {

class ProbeBackoff {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  explicit ProbeBackoff(const BackoffPolicy& policy = {})
      : backoff_(policy), delay_millis_(policy.initial_millis) {}

  /// Records a failed call at `now`: grows the base delay one exponential
  /// step (capped) and schedules the next probe a jittered delay out.
  void NoteFailure(TimePoint now) {
    ++consecutive_failures_;
    delay_millis_ = backoff_.DelayMillis(consecutive_failures_);
    next_probe_ = now + std::chrono::milliseconds(delay_millis_);
  }

  /// A success fully revives the shard: the schedule resets to the initial
  /// delay and the next failure starts the ramp from scratch.
  void Reset() {
    consecutive_failures_ = 0;
    delay_millis_ = backoff_.policy().initial_millis;
    next_probe_ = TimePoint::min();
  }

  /// True when a probe is due at `now`.
  bool ProbeDue(TimePoint now) const { return now >= next_probe_; }

  /// Claims the due probe: pushes the next one out by the current delay
  /// (without growing it — growth belongs to NoteFailure) so exactly one
  /// concurrent caller lets a probe through per interval.
  void ClaimProbe(TimePoint now) {
    next_probe_ = now + std::chrono::milliseconds(backoff_.Jittered(
                            static_cast<double>(delay_millis_)));
  }

  int consecutive_failures() const { return consecutive_failures_; }
  int64_t current_delay_millis() const { return delay_millis_; }
  TimePoint next_probe() const { return next_probe_; }

 private:
  Backoff backoff_;
  int consecutive_failures_ = 0;
  int64_t delay_millis_;
  TimePoint next_probe_ = TimePoint::min();
};

}  // namespace skycube::router

#endif  // SKYCUBE_ROUTER_PROBE_BACKOFF_H_
