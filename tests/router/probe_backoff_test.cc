// ProbeBackoff (router/probe_backoff.h): the jittered exponential probe
// schedule for down-marked shards. Time is injected, so every test steps a
// fake clock through the schedule deterministically.
#include "router/probe_backoff.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>

namespace skycube::router {
namespace {

using TimePoint = ProbeBackoff::TimePoint;

TimePoint At(int64_t millis) {
  return TimePoint{} + std::chrono::milliseconds(millis);
}

BackoffPolicy NoJitter() {
  BackoffPolicy options;
  options.initial_millis = 100;
  options.max_millis = 30000;
  options.multiplier = 2.0;
  options.jitter = 0.0;  // exact delays, no RNG
  return options;
}

TEST(ProbeBackoffTest, GrowsExponentiallyWithoutJitter) {
  ProbeBackoff backoff(NoJitter());
  TimePoint now = At(0);
  int64_t expected = 100;
  for (int i = 0; i < 6; ++i) {
    backoff.NoteFailure(now);
    EXPECT_EQ(backoff.current_delay_millis(), expected) << "failure " << i;
    EXPECT_FALSE(backoff.ProbeDue(now));
    EXPECT_FALSE(backoff.ProbeDue(now + std::chrono::milliseconds(
                                            expected - 1)));
    EXPECT_TRUE(
        backoff.ProbeDue(now + std::chrono::milliseconds(expected)));
    now = now + std::chrono::milliseconds(expected);
    expected *= 2;
  }
}

TEST(ProbeBackoffTest, CapsAtMaxMillis) {
  BackoffPolicy options = NoJitter();
  options.max_millis = 500;
  ProbeBackoff backoff(options);
  for (int i = 0; i < 20; ++i) backoff.NoteFailure(At(0));
  EXPECT_EQ(backoff.current_delay_millis(), 500);
  EXPECT_EQ(backoff.consecutive_failures(), 20);
}

TEST(ProbeBackoffTest, ResetOnSuccessRestartsTheRamp) {
  ProbeBackoff backoff(NoJitter());
  backoff.NoteFailure(At(0));
  backoff.NoteFailure(At(0));
  backoff.NoteFailure(At(0));
  EXPECT_EQ(backoff.current_delay_millis(), 400);
  backoff.Reset();
  EXPECT_EQ(backoff.consecutive_failures(), 0);
  EXPECT_EQ(backoff.current_delay_millis(), 100);
  // A probe is immediately due after a reset.
  EXPECT_TRUE(backoff.ProbeDue(At(0)));
  // The next failure starts over at the initial delay, not where the ramp
  // left off.
  backoff.NoteFailure(At(1000));
  EXPECT_EQ(backoff.current_delay_millis(), 100);
}

TEST(ProbeBackoffTest, ClaimProbePushesOutWithoutGrowing) {
  ProbeBackoff backoff(NoJitter());
  backoff.NoteFailure(At(0));  // delay 100, next probe at 100
  EXPECT_TRUE(backoff.ProbeDue(At(100)));
  backoff.ClaimProbe(At(100));
  // The claim reschedules by the *current* delay — growth is NoteFailure's
  // job — so a second concurrent caller at the same instant is refused.
  EXPECT_EQ(backoff.current_delay_millis(), 100);
  EXPECT_FALSE(backoff.ProbeDue(At(100)));
  EXPECT_FALSE(backoff.ProbeDue(At(199)));
  EXPECT_TRUE(backoff.ProbeDue(At(200)));
}

TEST(ProbeBackoffTest, JitterStaysWithinBand) {
  BackoffPolicy options;
  options.initial_millis = 1000;
  options.max_millis = 1000000;
  options.multiplier = 1.0;  // isolate the jitter factor
  options.jitter = 0.2;
  options.jitter_seed = 7;
  ProbeBackoff backoff(options);
  bool moved = false;
  for (int i = 0; i < 50; ++i) {
    backoff.NoteFailure(At(0));
    const int64_t delay = backoff.current_delay_millis();
    EXPECT_GE(delay, 800) << "failure " << i;
    EXPECT_LE(delay, 1200) << "failure " << i;
    moved = moved || delay != 1000;
  }
  EXPECT_TRUE(moved) << "jitter never perturbed the delay";
}

TEST(ProbeBackoffTest, DeterministicForAFixedSeed) {
  BackoffPolicy options;
  options.jitter_seed = 123;
  ProbeBackoff a(options);
  ProbeBackoff b(options);
  for (int i = 0; i < 10; ++i) {
    a.NoteFailure(At(i));
    b.NoteFailure(At(i));
    EXPECT_EQ(a.current_delay_millis(), b.current_delay_millis());
  }
}

TEST(ProbeBackoffTest, DelayNeverBelowOneMillisecond) {
  BackoffPolicy options;
  options.initial_millis = 1;
  options.jitter = 0.9;
  ProbeBackoff backoff(options);
  for (int i = 0; i < 20; ++i) {
    backoff.Reset();
    backoff.NoteFailure(At(0));
    EXPECT_GE(backoff.current_delay_millis(), 1);
  }
}

}  // namespace
}  // namespace skycube::router
