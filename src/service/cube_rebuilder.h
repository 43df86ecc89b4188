// CubeRebuilder: resilient background execution of snapshot-refresh work.
//
// The general shape is a Job — any Status-returning unit of work (a cube
// rebuild + Reload, a window-expiry pass, ...) — run on a dedicated worker
// with coalescing triggers and exponential-backoff retries. The service
// keeps answering from its last good snapshot while a job runs off-thread.
// A job that fails (error Status or a thrown exception) is retried with
// backoff plus jitter, and a broken result is never published — the failure
// mode of a bad refresh is "stale answers", never "no answers" and never
// "corrupt answers".
//
// The original cube-builder form is a convenience constructor that wraps a
// Builder (produce the next cube) and the service Reload into one Job.
//
// Threading: one worker thread owned by the rebuilder. TriggerRebuild() is
// safe from any thread and coalesces — triggers arriving while a job is
// in progress fold into a single follow-up run (the next run always
// observes the freshest trigger, so nothing is lost by folding).
#ifndef SKYCUBE_SERVICE_CUBE_REBUILDER_H_
#define SKYCUBE_SERVICE_CUBE_REBUILDER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>

#include "common/backoff.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/cube.h"
#include "service/service.h"

namespace skycube {

/// Construction knobs for a CubeRebuilder.
struct CubeRebuilderOptions {
  /// Retry delays after failed builds (common/backoff.h): 100 ms doubling
  /// up to 30 s, each scaled by U[0.8, 1.2] to decorrelate retry storms
  /// when many replicas share a failing dependency.
  BackoffPolicy backoff;
  /// Consecutive failures before a triggered rebuild is abandoned
  /// (counted in stats().gave_up). 0 = retry until it succeeds.
  int max_attempts = 0;
};

/// Counters of a CubeRebuilder (plain data, copyable).
struct CubeRebuilderStats {
  uint64_t builds_attempted = 0;
  uint64_t builds_failed = 0;
  uint64_t builds_succeeded = 0;
  /// Triggers abandoned after max_attempts consecutive failures.
  uint64_t gave_up = 0;
  /// The delay scheduled after the most recent failure (0 after success).
  int64_t last_backoff_millis = 0;
  /// True iff no build is running or pending.
  bool idle = true;
};

class CubeRebuilder {
 public:
  /// One unit of background work, retried on failure. An error Status (or
  /// a thrown exception, converted internally) marks the run failed and
  /// schedules a backoff retry.
  using Job = std::function<Status()>;

  /// Produces the next cube snapshot. An error Status (or a thrown
  /// exception, converted internally) marks the build failed; returning a
  /// null pointer inside an OK result is also treated as a failure.
  using Builder =
      std::function<Result<std::shared_ptr<const CompressedSkylineCube>>()>;

  /// General form: runs `job` on every trigger. The worker thread starts
  /// immediately but sleeps until the first TriggerRebuild().
  explicit CubeRebuilder(Job job, CubeRebuilderOptions options = {});

  /// Cube-builder form: the job runs `builder` and, on success, swaps the
  /// produced cube into `service` (which must outlive the rebuilder).
  CubeRebuilder(SkycubeService* service, Builder builder,
                CubeRebuilderOptions options = {});

  /// Stops retrying and joins the worker. A build already in progress runs
  /// to completion (builders are not cancellable) but its retry loop ends.
  ~CubeRebuilder();

  CubeRebuilder(const CubeRebuilder&) = delete;
  CubeRebuilder& operator=(const CubeRebuilder&) = delete;

  /// Requests a rebuild. Returns immediately; coalesces with a rebuild
  /// already pending or running.
  void TriggerRebuild() EXCLUDES(mu_);

  /// Blocks until no build is running or pending, or until `timeout`.
  /// Returns true iff the rebuilder went idle in time.
  bool WaitUntilIdle(std::chrono::milliseconds timeout) EXCLUDES(mu_);

  CubeRebuilderStats stats() const EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);
  /// One job invocation with exception containment.
  Status RunJob();

  Job job_;
  CubeRebuilderOptions options_;

  mutable Mutex mu_;
  CondVar cv_;       // wakes the worker (trigger / shutdown)
  CondVar idle_cv_;  // wakes WaitUntilIdle waiters
  bool trigger_pending_ GUARDED_BY(mu_) = false;
  bool building_ GUARDED_BY(mu_) = false;
  bool shutting_down_ GUARDED_BY(mu_) = false;
  CubeRebuilderStats stats_ GUARDED_BY(mu_);
  Backoff backoff_ GUARDED_BY(mu_);  // each delay advances its jitter RNG

  std::thread worker_;
};

}  // namespace skycube

#endif  // SKYCUBE_SERVICE_CUBE_REBUILDER_H_
