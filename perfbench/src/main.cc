// skycube_perfbench — the seeded, closed-loop load generator behind
// perfbench/run.py (see perfbench/README.md for workloads and metrics).
//
//   skycube_perfbench --workload=build|read|ingest|routed --seed=N
//       --seconds=S --trace=0|1 --serve=PATH --router=PATH --work-dir=DIR
//
// --trace=0 measures the end-to-end metrics; --trace=1 measures the same
// workload untraced and traced (the difference is the tracing overhead),
// then replays the seeded stream against each layer in process and prints
// the per-layer metrics. The last stdout line is the JSON result; a failed
// check exits with status 1.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "calibration.h"
#include "children.h"
#include "common/flags.h"
#include "core/maintenance.h"
#include "core/reference.h"
#include "core/stellar.h"
#include "oracle.h"
#include "storage/durable_ingest.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using skycube::CompressedSkylineCube;
using skycube::Dataset;
using skycube::DimMask;
using skycube::ObjectId;
using skycube::SkylineGroupSet;
namespace net = skycube::net;

/// Every end-to-end metric, in report order. Each workload reports all of
/// them (see README.md for what each one measures per workload). All are
/// CPU time or memory: on the shared host, figures in wall time moved by
/// up to 3x (tail latencies by up to 30x) between runs of the same code,
/// so the load generator's wall-clock view ("client.*") is printed with
/// every run and reported by the traced run, but is not bounded. The
/// CPU-time ones are stated in reference-machine CPU seconds (see
/// calibration.h and HostSpeed).
const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> names = {
      "setup_s", "build_s", "ops_per_cpu_s", "ok_ratio", "peak_rss_mb"};
  return names;
}

/// The load generator's own view of each run, in wall time.
const std::vector<std::string>& ClientNames() {
  static const std::vector<std::string> names = {
      "client.ops_per_s", "client.op_p50_us", "client.op_p99_us"};
  return names;
}

/// CSV parses behind the build workload's setup_s (their median).
constexpr int kSetups = 5;
/// Segments of the read and routed workloads, each over its own draw.
constexpr int kReadSegments = 8;
/// Row draws built before each serving segment (its own and others of the
/// family), behind build_s on the serving workloads. Stellar's time on one
/// draw spans about 2x between draws, so build_s is the median over many.
constexpr int kDrawsPerSegment = 3;
/// Client connections (threads) of the read and routed workloads (the same
/// count, so that routed minus read is the router's cost), and the reader
/// connections beside the ingest writer. Read and routed use one: when the
/// host is busy, a request's time grows with the number of virtual CPUs
/// the load keeps busy at once (with two connections, read throughput fell
/// to a quarter in a busy stretch; with one, to about half). Ingest uses
/// one reader: with more, the readers compete with the recomputes.
constexpr int kReadConnections = 1;
constexpr int kIngestReaders = 1;
/// Server dispatch threads, one per client connection: the read server,
/// the router and each shard get one, the ingest server two (writer and
/// reader), so that a recompute does not hold up the reader's dispatch.
constexpr int kReadNetThreads = 1;
constexpr int kIngestNetThreads = 2;
/// Inserts between checkpoints on the ingest server.
constexpr int kCheckpointEvery = 50;
/// Ingest segments per run, each on its own server and rows.
constexpr int kIngestSegments = 16;
/// Batches of in-process cube reads after each Stellar pass of the build
/// workload; a batch takes kBuildBatch / 4 consecutive reads of each input.
constexpr int kBuildBatchesPerPass = 500;
constexpr size_t kBuildBatch = 64;
/// Subspaces per build input whose Q1 is checked against ReferenceSkyline.
constexpr int kReferenceSubspaces = 2;
/// Hard cap on a measurement window that waits for its sample floors.
constexpr double kMaxWindowSeconds = 120;
/// Unrecorded load before each read window, so result caches are warm.
constexpr std::chrono::milliseconds kWarmup{500};

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}


std::string Fmt(const char* format, double value) {
  char text[64];
  std::snprintf(text, sizeof(text), format, value);
  return text;
}

/// CPU time of the calling thread in nanoseconds. In-process work (Stellar,
/// cube reads) is timed in it: the work is single-threaded and CPU-bound, so
/// on an idle machine it equals wall time, and on a shared one it leaves out
/// the time another tenant held the core.
int64_t ThreadCpuNanos() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<int64_t>(now.tv_sec) * 1'000'000'000 + now.tv_nsec;
}

/// Stellar with default options (single-threaded, the paper's setting);
/// returns its CPU seconds and leaves the groups in *groups.
double TimedStellar(const Dataset& data, SkylineGroupSet* groups) {
  const int64_t start = ThreadCpuNanos();
  *groups = skycube::ComputeStellar(data);
  return static_cast<double>(ThreadCpuNanos() - start) / 1e9;
}

/// The host's CPU ticks from /proc/stat: those its CPUs wanted to run
/// (all but idle and I/O wait), and those of them the hypervisor stole.
struct CpuTicks {
  uint64_t wanted = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return ticks;
  unsigned long long fields[8] = {};
  if (std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                  &fields[0], &fields[1], &fields[2], &fields[3], &fields[4],
                  &fields[5], &fields[6], &fields[7]) == 8) {
    for (const unsigned long long field : fields) ticks.wanted += field;
    ticks.wanted -= fields[3] + fields[4];  // idle, iowait
    ticks.steal = fields[7];
  }
  std::fclose(file);
  return ticks;
}

/// Share of the CPU time wanted between two readings that was stolen, in
/// percent. Relative to the time wanted, not to all CPUs' time, so that a
/// single-threaded build pass on one of four CPUs is judged like a serving
/// segment that keeps three of them busy.
double StealPercent(const CpuTicks& begin, const CpuTicks& end) {
  const uint64_t wanted = end.wanted - begin.wanted;
  return wanted == 0 ? 0
                     : static_cast<double>(end.steal - begin.steal) /
                           static_cast<double>(wanted) * 100;
}

// --- Closed-loop wire readers --------------------------------------------

struct LoadStats {
  Samples kinds[kKinds];
  Samples all;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;

  void Merge(const LoadStats& other) {
    for (int k = 0; k < kKinds; ++k) kinds[k].Append(other.kinds[k]);
    all.Append(other.all);
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
  }
};

/// `connections` threads, each with its own connection and read stream
/// (connection c's seed is StreamSeed(seed, c)), sending the next request
/// only after the previous reply. With an oracle every answer is checked
/// against it; without one (reads racing ingest) only the status is.
class ReaderPool {
 public:
  ReaderPool(uint16_t port, int connections, const ReadOracle* oracle,
             int dims, size_t objects, uint64_t seed, bool traced)
      : port_(port), oracle_(oracle), stats_(connections),
        tracers_(connections) {
    for (int c = 0; c < connections; ++c) {
      threads_.emplace_back([this, c, dims, objects, seed, traced] {
        Loop(c, ReadStream(dims, objects, StreamSeed(seed, c)),
             traced ? &tracers_[c] : nullptr);
      });
    }
  }
  ~ReaderPool() { Join(); }

  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  /// Reads completed so far.
  uint64_t Completed() const { return completed_.load(); }
  bool AllExited() const {
    return exited_.load() == static_cast<int>(threads_.size());
  }

  /// Records from now on; reads before this only warm the caches.
  void StartMeasuring() { measuring_.store(true); }

  /// Records until `seconds` passed and `floor` reads completed (or every
  /// connection died, or the cap passed).
  void RunFor(double seconds, uint64_t floor) {
    StartMeasuring();
    const Clock::time_point start = Clock::now();
    while (!AllExited() && Since(start) < kMaxWindowSeconds &&
           (Since(start) < seconds || Completed() < floor)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    elapsed_ = Since(start);
  }

  LoadStats Finish() {
    Join();
    LoadStats total;
    for (const LoadStats& stats : stats_) total.Merge(stats);
    return total;
  }
  double elapsed() const { return elapsed_; }
  /// Client spans of a traced pool ("client.q1" ...).
  std::vector<Tracer>& tracers() { return tracers_; }

 private:
  void Join() {
    stop_.store(true);
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

  void Loop(int c, ReadStream stream, Tracer* tracer) {
    static constexpr std::string_view kSpanNames[kKinds] = {
        "client.q1", "client.q2", "client.q3", "client.card"};
    LoadStats& stats = stats_[c];
    WireConnection connection;
    bool connected = connection.Connect(port_);
    uint64_t request = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      const ReadOp op = stream.Next();
      const int kind = KindIndex(op.kind);
      ++stats.attempted;
      net::WireResponse response;
      const int64_t start = NowNanos();
      const bool transport_ok =
          connected && connection.Call(ToWire(op), &response);
      const int64_t end = NowNanos();
      if (!transport_ok) {
        // A dead server is counted as failed operations, never as missing
        // samples; stop once it cannot be reached again.
        ++stats.failed;
        connected = connection.Connect(port_);
        if (!connected) break;
        continue;
      }
      const bool good =
          oracle_ != nullptr
              ? oracle_->Check(op, response)
              : response.status == skycube::StatusCode::kOk &&
                    !response.partial;
      if (!good) {
        ++stats.failed;
        ++stats.wrong;
        continue;
      }
      if (!measuring_.load(std::memory_order_relaxed)) continue;
      const double micros = static_cast<double>(end - start) / 1e3;
      if (tracer != nullptr) {
        tracer->Record(++request, kSpanNames[kind], start, end);
      }
      stats.kinds[kind].Add(micros);
      stats.all.Add(micros);
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
    exited_.fetch_add(1);
  }

  uint16_t port_;
  const ReadOracle* oracle_;
  std::vector<LoadStats> stats_;
  std::vector<Tracer> tracers_;
  std::atomic<uint64_t> completed_{0};
  std::atomic<bool> measuring_{false};
  std::atomic<bool> stop_{false};
  std::atomic<int> exited_{0};
  double elapsed_ = 0;
  std::vector<std::thread> threads_;  // started once every member above is set
};

// --- Server topologies ----------------------------------------------------

struct Servers {
  std::vector<std::unique_ptr<Child>> children;
  uint16_t port = 0;

  /// Starts a new peak-RSS window on every child.
  void ResetPeakRss() const {
    for (const auto& child : children) child->ResetPeakRss();
  }
  double PeakRssMb() const {
    uint64_t kb = 0;
    for (const auto& child : children) kb += child->PeakRssKb();
    return static_cast<double>(kb) / 1024.0;
  }
  /// CPU seconds used by all servers so far.
  double CpuSeconds() const {
    double seconds = 0;
    for (const auto& child : children) seconds += child->CpuSeconds();
    return seconds;
  }
  bool AllAlive() {
    for (auto& child : children) {
      if (!child->Alive()) return false;
    }
    return true;
  }
  /// Graceful stop of every child; false if one did not exit cleanly.
  bool Stop() {
    bool clean = true;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      clean = (*it)->Stop() && clean;
    }
    return clean;
  }
};

/// Starts one server from argv and waits for its listening line.
bool Launch(const std::vector<std::string>& argv, const std::string& log,
            Servers* servers, uint16_t* port, std::string* error) {
  std::unique_ptr<Child> child = Child::Start(argv, log, error);
  if (child == nullptr) return false;
  *port = child->WaitForPort(120);
  servers->children.push_back(std::move(child));
  if (*port == 0) {
    *error = "no listening line from " + argv[0] + " (see " + log + ")";
    return false;
  }
  return true;
}

/// One skycube_serve over `csv`; `extra` adds its dispatch threads and, on
/// ingest, durability flags.
std::unique_ptr<Servers> StartSingle(const Config& cfg, const std::string& csv,
                                     int cache_capacity,
                                     const std::vector<std::string>& extra,
                                     const std::string& tag,
                                     std::string* error) {
  auto servers = std::make_unique<Servers>();
  std::vector<std::string> argv = {
      cfg.serve_bin, "--data=" + csv, "--port=0",
      "--cache-capacity=" + std::to_string(cache_capacity)};
  argv.insert(argv.end(), extra.begin(), extra.end());
  if (!Launch(argv, cfg.work_dir + "/" + tag + ".log", servers.get(),
              &servers->port, error)) {
    return nullptr;
  }
  return servers;
}

/// skycube_router in front of two `skycube_serve --shard-count=2` shards.
std::unique_ptr<Servers> StartRouted(const Config& cfg, const std::string& csv,
                                     const std::string& tag,
                                     std::string* error) {
  auto servers = std::make_unique<Servers>();
  std::string shards;
  for (int index = 0; index < 2; ++index) {
    uint16_t port = 0;
    const std::vector<std::string> argv = {
        cfg.serve_bin, "--data=" + csv, "--port=0", "--shard-count=2",
        "--shard-index=" + std::to_string(index),
        "--net-threads=" + std::to_string(kReadNetThreads),
        "--cache-capacity=" + std::to_string(kReadCacheCapacity)};
    if (!Launch(argv, cfg.work_dir + "/" + tag + "-shard" +
                          std::to_string(index) + ".log",
                servers.get(), &port, error)) {
      return nullptr;
    }
    shards += (index == 0 ? "" : ",") + std::string("127.0.0.1:") +
              std::to_string(port);
  }
  const std::vector<std::string> argv = {
      cfg.router_bin, "--data=" + csv, "--shards=" + shards, "--port=0",
      "--net-threads=" + std::to_string(kReadNetThreads)};
  if (!Launch(argv, cfg.work_dir + "/" + tag + "-router.log", servers.get(),
              &servers->port, error)) {
    return nullptr;
  }
  return servers;
}

/// The entry server's stats line (service or router counters).
std::string StatsLine(uint16_t port) {
  WireConnection connection;
  net::WireRequest request;
  request.op = net::Opcode::kStats;
  net::WireResponse response;
  if (!connection.Connect(port) || !connection.Call(request, &response)) {
    return "stats unavailable";
  }
  return response.text;
}

/// Starts a topology and waits for its first correct answer (a full-space
/// Q1 equal to the oracle's). Stores in *setup_s the CPU seconds the
/// servers used until then, which include their Stellar build; null on
/// failure.
std::unique_ptr<Servers> TimedStart(
    const std::function<std::unique_ptr<Servers>(std::string*)>& start,
    const ReadOracle& oracle, double* setup_s, Report* report) {
  ReadOp probe;
  probe.subspace = skycube::FullMask(oracle.cube().num_dims());
  std::string error;
  std::unique_ptr<Servers> servers = start(&error);
  bool answered = false;
  if (servers != nullptr && WaitForPing(servers->port, 60)) {
    WireConnection connection;
    net::WireResponse response;
    answered = connection.Connect(servers->port) &&
               connection.Call(ToWire(probe), &response) &&
               oracle.Check(probe, response);
  }
  if (!answered) {
    report->Fail("setup: " +
                 (error.empty() ? "no correct first answer" : error));
    return nullptr;
  }
  *setup_s = servers->CpuSeconds();
  return servers;
}

/// "q1: p50 45.1 us, p99 92.3 us (n=86792)", with the highest of p99, p95
/// and p90 that meets the sample floor.
std::string DescribeLatency(const std::string& name, const Samples& micros) {
  std::string text =
      name + ": p50 " + Fmt("%.1f", micros.Percentile(50)) + " us";
  for (const double p : {99.0, 95.0, 90.0}) {
    if (MeetsSampleFloor(micros.size(), p)) {
      text += ", p" + Fmt("%.0f", p) + " " + Fmt("%.1f", micros.Percentile(p)) +
              " us";
      break;
    }
  }
  return text + " (n=" + std::to_string(micros.size()) + ")";
}

/// "time share: q1 40.1%, q2 ...": each part's share of the summed
/// client-observed latency of all parts, i.e. of one connection's time.
std::string DescribeShares(
    const std::vector<std::pair<std::string, const Samples*>>& parts) {
  double total = 0;
  for (const auto& [name, micros] : parts) {
    total += micros->Mean() * static_cast<double>(micros->size());
  }
  std::string text = "time share:";
  for (const auto& [name, micros] : parts) {
    const double sum = micros->Mean() * static_cast<double>(micros->size());
    text += (&name == &parts.front().first ? " " : ", ") + name + " " +
            Fmt("%.1f", total == 0 ? 0 : sum / total * 100) + "%";
  }
  return text;
}

/// Counts one segment's reads in the report, with their checks.
void CountReadLoad(const LoadStats& load, Report* report) {
  report->attempted += load.attempted;
  report->failed += load.failed;
  if (load.wrong > 0) {
    report->Fail(std::to_string(load.wrong) +
                 " answers differ from the oracle");
  }
  if (load.failed > load.wrong) {
    report->Fail(std::to_string(load.failed - load.wrong) +
                 " reads failed on the wire");
  }
}

/// Prints the segments' per-kind read latencies and time shares.
void DescribeReadLoad(const LoadStats& load, double seconds, Report* report) {
  report->Note("reads over " + Fmt("%.2f", seconds) + " s, " +
               std::to_string(load.all.size()) + " recorded");
  std::vector<std::pair<std::string, const Samples*>> shares;
  for (int k = 0; k < kKinds; ++k) {
    report->Note(DescribeLatency(kKindNames[k], load.kinds[k]));
    shares.emplace_back(kKindNames[k], &load.kinds[k]);
  }
  report->Note("reads " + DescribeShares(shares));
}

std::string WriteCsv(const Config& cfg, const Dataset& data,
                     const std::string& name, Report* report) {
  const std::string path = cfg.work_dir + "/" + name + ".csv";
  if (!data.ToCsvFile(path).ok()) report->Fail("cannot write " + path);
  return path;
}

/// Loads a benchmark CSV (the rows exactly as the servers parse them).
Dataset LoadCsv(const std::string& path, Report* report) {
  auto loaded = Dataset::FromCsvFile(path);
  if (!loaded.ok()) {
    report->Fail("cannot read " + path);
    return Dataset(1);
  }
  return std::move(loaded).value();
}

/// The run's host-speed factor (see calibration.h): the median CPU time of
/// the reference kernel, timed at the start and before each serving
/// segment and build pass, over its time on the reference machine.
class HostSpeed {
 public:
  void Sample() { seconds_.push_back(TimeReferenceKernel()); }
  double Factor() const {
    return seconds_.empty() ? 1 : Median(seconds_) / kReferenceKernelSeconds;
  }
  size_t samples() const { return seconds_.size(); }

 private:
  std::vector<double> seconds_;
};

HostSpeed host_speed;

/// Runs one serving segment; stores in *steal_percent the share of the CPU
/// time the host wanted meanwhile that its hypervisor stole, printed beside
/// the segment's figures so that a slow segment can be told from a slow
/// draw.
template <typename Segment>
Segment WithSteal(const std::function<Segment()>& run, double* steal_percent) {
  const CpuTicks begin = ReadCpuTicks();
  Segment segment = run();
  *steal_percent = StealPercent(begin, ReadCpuTicks());
  return segment;
}

// --- Workloads --------------------------------------------------------------

/// One in-process read: the cube it goes to and the op.
using CubeRead = std::pair<const CompressedSkylineCube*, ReadOp>;

/// Times one batch of in-process cube reads; returns the mean CPU
/// microseconds per read. A single in-process Q2 or Q3 takes tens of
/// nanoseconds, close to the clock's own cost and to run-to-run jitter, so
/// reads are timed in batches of kBuildBatch.
double TimeCubeBatch(const std::vector<CubeRead>& batch, uint64_t* sink) {
  const int64_t begin = ThreadCpuNanos();
  for (const auto& [cube, op] : batch) *sink += DirectAnswer(*cube, op);
  return static_cast<double>(ThreadCpuNanos() - begin) / 1e3 /
         static_cast<double>(batch.size());
}

/// build: ComputeStellar in process over four inputs, each dominated by a
/// different phase, then batches of in-process cube reads of the read mix
/// on each built cube. Every pass draws fresh variants of the four inputs.
void RunBuild(const Config& cfg, bool traced, Report* report,
              std::vector<Tracer>* spans) {
  Tracer tracer;
  const std::vector<std::string>& names = BuildInputNames();
  std::vector<std::string> paths;
  for (const std::string& name : names) {
    paths.push_back(WriteCsv(cfg, MakeInput(name, cfg.seed), name, report));
  }
  // Set-up: parsing the four CSV inputs (variant 0), in CPU time like the
  // rest of the in-process work.
  std::vector<Dataset> inputs;
  std::vector<double> setups;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    const int64_t start = ThreadCpuNanos();
    inputs.clear();
    for (const std::string& path : paths) {
      inputs.push_back(LoadCsv(path, report));
    }
    setups.push_back(static_cast<double>(ThreadCpuNanos() - start) / 1e9);
  }
  report->Add("setup_s", Median(setups), "s", setups.size());
  if (!report->correct()) return;

  // Checks on variant 0: Q1 on seeded subspaces equals ReferenceSkyline,
  // and a second build gives the same groups (the first pass below).
  std::vector<SkylineGroupSet> first(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    TimedStellar(inputs[i], &first[i]);  // also the warm-up pass
    const CompressedSkylineCube cube(inputs[i].num_dims(),
                                     inputs[i].num_objects(), first[i]);
    skycube::Rng rng(StreamSeed(cfg.seed, 200 + i));
    for (int s = 0; s < kReferenceSubspaces; ++s) {
      const DimMask mask =
          1 + static_cast<DimMask>(rng.NextUint64() % inputs[i].full_mask());
      ++report->attempted;
      if (cube.SubspaceSkyline(mask) !=
          skycube::ReferenceSkyline(inputs[i], mask)) {
        ++report->failed;
        report->Fail(names[i] + ": Q1 differs from ReferenceSkyline");
      }
    }
  }

  std::vector<double> pass_seconds;
  std::vector<double> pass_rss_mb;
  Samples reads;  // mean microseconds per read, one sample per batch
  uint64_t sink = 0;  // keeps the timed read results observable
  const uint64_t floor = SamplesNeededFor(99);
  const Clock::time_point start = Clock::now();
  for (int pass = 0;; ++pass) {
    const double elapsed = Since(start);
    if (elapsed > kMaxWindowSeconds ||
        (elapsed >= cfg.seconds && pass >= 3 && reads.size() >= floor)) {
      break;
    }
    if (pass > 0) {
      for (size_t i = 0; i < inputs.size(); ++i) {
        inputs[i] = MakeInput(names[i], cfg.seed, pass);
      }
    }
    host_speed.Sample();
    double build_seconds = 0;  // CPU time of the four Stellar builds
    ResetPeakRss("self");
    std::vector<std::unique_ptr<const CompressedSkylineCube>> cubes;
    std::vector<ReadStream> streams;
    for (size_t i = 0; i < inputs.size(); ++i) {
      SkylineGroupSet groups;
      const int64_t build_start = NowNanos();
      build_seconds += TimedStellar(inputs[i], &groups);
      if (traced) {
        tracer.Record(pass, "client.stellar", build_start, NowNanos());
      }
      ++report->attempted;
      if (pass == 0 && groups != first[i]) {
        ++report->failed;
        report->Fail(names[i] + ": Stellar groups differ between builds");
      }
      cubes.push_back(std::make_unique<const CompressedSkylineCube>(
          inputs[i].num_dims(), inputs[i].num_objects(), std::move(groups)));
      streams.emplace_back(inputs[i].num_dims(), inputs[i].num_objects(),
                           StreamSeed(cfg.seed, 1000 * pass + 300 + i));
    }
    // Every batch holds the same number of reads of each input, so each
    // batch's mean covers the whole mix: percentiles over batches of one
    // input at a time would straddle the four inputs' very different
    // costs.
    for (int b = 0; b < kBuildBatchesPerPass; ++b) {
      std::vector<CubeRead> batch;
      for (size_t i = 0; i < cubes.size(); ++i) {
        for (size_t q = 0; q < kBuildBatch / cubes.size(); ++q) {
          batch.emplace_back(cubes[i].get(), streams[i].Next());
        }
      }
      const int64_t batch_start = NowNanos();
      reads.Add(TimeCubeBatch(batch, &sink));
      if (traced) {
        tracer.Record(b, "client.reads", batch_start, NowNanos());
      }
      report->attempted += batch.size();
    }
    pass_seconds.push_back(build_seconds);
    pass_rss_mb.push_back(static_cast<double>(PeakRssKb("self")) / 1024.0);
  }
  const double query_seconds =
      reads.Mean() * static_cast<double>(reads.size() * kBuildBatch) / 1e6;
  const uint64_t queries = reads.size() * kBuildBatch;
  report->Add("build_s", Median(pass_seconds), "s", pass_seconds.size());
  report->Add("ops_per_cpu_s", static_cast<double>(queries) / query_seconds,
              "1/s", queries);
  report->Add("client.ops_per_s", static_cast<double>(queries) / query_seconds,
              "1/s", queries);
  report->AddLatency("client.op", reads);
  report->Add("peak_rss_mb", Median(pass_rss_mb), "MiB", pass_rss_mb.size());
  if (spans != nullptr) spans->push_back(std::move(tracer));
  report->Note(std::to_string(pass_seconds.size()) + " passes over " +
               std::to_string(inputs.size()) + " inputs (answer checksum " +
               std::to_string(sink) + ")");
}

/// One serving segment's rows: written as CSV for the servers, parsed
/// back, and built.
struct SegmentDraw {
  std::string csv;
  Dataset rows = Dataset(1);
  SkylineGroupSet groups;
};

/// Prepares the rows of serving segment `segment` (draw `segment` of
/// `family`) and appends to *build_seconds the CPU time of one Stellar
/// build of each of kDrawsPerSegment draws: the served one, then draws no
/// segment serves. Doing this before every segment rather than all at the
/// start spreads build_s over the whole run, so that a stretch of host
/// interference moves only a few of its samples.
SegmentDraw PrepareSegment(const Config& cfg, const std::string& family,
                           int segment, int segments,
                           std::vector<double>* build_seconds,
                           Report* report) {
  SegmentDraw draw;
  draw.csv = WriteCsv(cfg, MakeInput(family, cfg.seed, segment),
                      family + "-" + std::to_string(segment), report);
  draw.rows = LoadCsv(draw.csv, report);
  if (segment == 0) TimedStellar(draw.rows, &draw.groups);  // warm-up
  build_seconds->push_back(TimedStellar(draw.rows, &draw.groups));
  if (cfg.trace) return draw;  // a traced run reports no build_s
  for (int k = 1; k < kDrawsPerSegment; ++k) {
    const int variant = segments + segment * (kDrawsPerSegment - 1) + k - 1;
    SkylineGroupSet groups;
    build_seconds->push_back(
        TimedStellar(MakeInput(family, cfg.seed, variant), &groups));
  }
  return draw;
}

/// One measured segment of the read or routed workload.
struct ReadSegment {
  LoadStats load;
  double seconds = 0;
  double cpu_seconds = 0;  // the servers', over the window
  double setup_s = 0;
  double peak_rss_mb = 0;
  std::vector<Tracer> spans;
  std::string stats;
};

/// Per-segment figures of a serving workload. The run reports the median
/// over its segments of each figure in wall time, so that a stretch of
/// host interference that spoils a few segments does not move the result,
/// and of setup_s and peak_rss_mb; ops_per_cpu_s is all segments'
/// operations over all their CPU seconds, which a busy host hardly moves,
/// so that every draw of the rows weighs in by its operations.
struct SegmentFigures {
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mb;
  std::vector<double> ops_per_s;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  size_t ops = 0;
  double cpu_seconds = 0;
  size_t latencies = 0;

  /// Adds one segment: its set-up CPU seconds and peak RSS,
  /// `segment_ops` operations in `seconds` of wall time and
  /// `segment_cpu_seconds` of the servers' CPU time, and the latency
  /// samples `micros` (which must meet the p99 sample floor when the
  /// latencies are reported per segment).
  void Add(double setup, double rss_mb, size_t segment_ops, double seconds,
           double segment_cpu_seconds, const Samples& micros) {
    setup_s.push_back(setup);
    peak_rss_mb.push_back(rss_mb);
    ops_per_s.push_back(static_cast<double>(segment_ops) / seconds);
    p50_us.push_back(micros.Percentile(50));
    p99_us.push_back(micros.Percentile(99));
    ops += segment_ops;
    cpu_seconds += segment_cpu_seconds;
    latencies += micros.size();
  }

  /// Reports setup_s, peak_rss_mb, ops_per_cpu_s, client.ops_per_s and,
  /// with `with_latency`, client.op_p50_us and client.op_p99_us. A segment
  /// below the p99 sample floor then fails the run.
  void AddTo(bool with_latency, Report* report) const {
    if (setup_s.empty()) return;
    report->Add("setup_s", Median(setup_s), "s", setup_s.size());
    report->Add("peak_rss_mb", Median(peak_rss_mb), "MiB",
                peak_rss_mb.size());
    report->Add("ops_per_cpu_s", static_cast<double>(ops) / cpu_seconds,
                "1/s", ops);
    report->Add("client.ops_per_s", Median(ops_per_s), "1/s", ops);
    if (!with_latency) return;
    if (*std::min_element(p99_us.begin(), p99_us.end()) < 0) {
      report->Fail("a segment has fewer than " +
                   std::to_string(SamplesNeededFor(99)) +
                   " latency samples, the floor of its p99");
    }
    report->Add("client.op_p50_us", Median(p50_us), "us", latencies);
    report->Add("client.op_p99_us", Median(p99_us), "us", latencies);
  }
};

/// read / routed: the read mix against one skycube_serve, or against
/// skycube_router over two shard servers, on the same rows and streams.
/// The run is kReadSegments segments, each on a fresh topology over another
/// draw of the rows, so that one draw's skyline sizes do not set the result.
void RunRead(const Config& cfg, bool routed, bool traced, Report* report,
             std::vector<Tracer>* spans) {
  std::vector<double> build_seconds;
  SegmentFigures figures;
  LoadStats total;
  double seconds = 0;
  for (int segment = 0; segment < kReadSegments; ++segment) {
    host_speed.Sample();
    SegmentDraw draw = PrepareSegment(cfg, "read", segment, kReadSegments,
                                      &build_seconds, report);
    if (!report->correct()) return;
    const Dataset& rows = draw.rows;
    const ReadOracle oracle(std::make_shared<const CompressedSkylineCube>(
        rows.num_dims(), rows.num_objects(), std::move(draw.groups)));
    const std::function<ReadSegment()> run = [&] {
      ReadSegment result;
      std::unique_ptr<Servers> servers = TimedStart(
          [&](std::string* error) {
            const std::string tag =
                cfg.workload + "-" + std::to_string(segment);
            return routed ? StartRouted(cfg, draw.csv, tag, error)
                          : StartSingle(cfg, draw.csv, kReadCacheCapacity,
                                        {"--net-threads=" +
                                         std::to_string(kReadNetThreads)},
                                        tag, error);
          },
          oracle, &result.setup_s, report);
      if (servers == nullptr) return result;
      servers->ResetPeakRss();
      ReaderPool pool(servers->port, kReadConnections, &oracle,
                      rows.num_dims(), rows.num_objects(),
                      ReadStreamSeed(cfg.seed, segment), traced);
      std::this_thread::sleep_for(kWarmup);
      const double cpu_start = servers->CpuSeconds();
      pool.RunFor(cfg.seconds / kReadSegments, SamplesNeededFor(99));
      result.load = pool.Finish();
      result.cpu_seconds = servers->CpuSeconds() - cpu_start;
      result.seconds = pool.elapsed();
      CountReadLoad(result.load, report);
      result.spans = std::move(pool.tracers());
      result.peak_rss_mb = servers->PeakRssMb();
      result.stats = StatsLine(servers->port);
      if (!servers->AllAlive()) report->Fail("a server died during the run");
      if (!servers->Stop()) report->Fail("a server did not exit cleanly");
      return result;
    };
    double steal = 0;
    ReadSegment kept = WithSteal(run, &steal);
    if (!report->correct()) return;
    figures.Add(kept.setup_s, kept.peak_rss_mb, kept.load.all.size(),
                kept.seconds, kept.cpu_seconds, kept.load.all);
    total.Merge(kept.load);
    seconds += kept.seconds;
    if (spans != nullptr) {
      for (Tracer& tracer : kept.spans) spans->push_back(std::move(tracer));
    }
    report->Note("segment " + std::to_string(segment) + ": steal " +
                 Fmt("%.1f", steal) + "%, " +
                 Fmt("%.0f", static_cast<double>(kept.load.all.size()) /
                                 kept.seconds) +
                 " ops/s, " +
                 Fmt("%.0f", static_cast<double>(kept.load.all.size()) /
                                 kept.cpu_seconds) +
                 " ops/cpu-s, " + kept.stats);
  }
  report->Add("build_s", Median(build_seconds), "s", build_seconds.size());
  figures.AddTo(true, report);
  DescribeReadLoad(total, seconds, report);
}

/// One ingest segment's outcome.
struct IngestSegment {
  Samples inserts;
  Samples deletes;
  LoadStats reads;
  double seconds = 0;
  double cpu_seconds = 0;  // the server's, over the window
  double setup_s = 0;
  double peak_rss_mb = 0;
  std::vector<Tracer> spans;
};

/// One segment of the ingest workload on draw `variant` of the ingest rows:
/// a durable skycube_serve, one writer and kIngestReaders readers until
/// `seconds` passed and `min_inserts` inserts were acknowledged, then the
/// final-state checks.
IngestSegment RunIngestSegment(const Config& cfg, int variant,
                               const std::string& csv, Dataset data,
                               const SkylineGroupSet& groups, double seconds,
                               size_t min_inserts, bool traced,
                               Report* report) {
  IngestSegment segment;
  const std::string tag = "ingest-" + std::to_string(variant);
  const ReadOracle initial(std::make_shared<const CompressedSkylineCube>(
      data.num_dims(), data.num_objects(), groups));

  const std::string data_dir = cfg.work_dir + "/" + tag + "-data";
  std::filesystem::remove_all(data_dir);
  std::unique_ptr<Servers> servers = TimedStart(
      [&](std::string* error) {
        return StartSingle(
            cfg, csv, kIngestCacheCapacity,
            {"--net-threads=" + std::to_string(kIngestNetThreads),
             "--data-dir=" + data_dir, "--fsync-policy=always",
             "--checkpoint-every=" + std::to_string(kCheckpointEvery)},
            tag, error);
      },
      initial, &segment.setup_s, report);
  if (servers == nullptr) return segment;

  servers->ResetPeakRss();
  ReaderPool readers(servers->port, kIngestReaders, nullptr, data.num_dims(),
                     data.num_objects(), ReadStreamSeed(cfg.seed, variant),
                     traced);
  WriteStream stream(data.num_dims(), data.num_objects(),
                     WriteStreamSeed(cfg.seed, variant));
  std::vector<uint8_t> live(data.num_objects(), 1);
  std::vector<std::pair<ObjectId, std::vector<double>>> inserted;
  Tracer writer_spans;
  uint64_t write_failures = 0;
  WireConnection writer;
  bool connected = writer.Connect(servers->port);
  readers.StartMeasuring();
  const double cpu_start = servers->CpuSeconds();
  const Clock::time_point start = Clock::now();
  while (connected && Since(start) < kMaxWindowSeconds &&
         (Since(start) < seconds || segment.inserts.size() < min_inserts)) {
    const WriteOp op = stream.Next();
    net::WireRequest request;
    request.op = op.insert ? net::Opcode::kInsert : net::Opcode::kDelete;
    request.values = op.values;
    request.object = op.object;
    net::WireResponse response;
    ++report->attempted;
    const int64_t begin = NowNanos();
    const bool transport_ok = writer.Call(request, &response);
    const int64_t end = NowNanos();
    if (!transport_ok || response.status != skycube::StatusCode::kOk) {
      // The stream's view of the live set no longer matches the server's.
      ++write_failures;
      break;
    }
    if (op.insert) {
      const auto id = static_cast<ObjectId>(response.count - 1);
      if (id != data.num_objects()) {
        ++write_failures;
        report->Fail("insert acked with id " + std::to_string(id) +
                     ", expected " + std::to_string(data.num_objects()));
        break;
      }
      data.AddRow(op.values);
      live.push_back(1);
      inserted.emplace_back(id, op.values);
      stream.Inserted(id);
    } else {
      live[op.object] = 0;
    }
    if (traced) {
      writer_spans.Record(segment.inserts.size() + segment.deletes.size() + 1,
                          op.insert ? "client.insert" : "client.delete",
                          begin, end);
    }
    const double micros = static_cast<double>(end - begin) / 1e3;
    (op.insert ? segment.inserts : segment.deletes).Add(micros);
  }
  segment.seconds = Since(start);
  segment.reads = readers.Finish();
  segment.cpu_seconds = servers->CpuSeconds() - cpu_start;
  CountReadLoad(segment.reads, report);
  segment.spans = std::move(readers.tracers());
  segment.spans.push_back(std::move(writer_spans));
  report->failed += write_failures;
  if (write_failures > 0) report->Fail("a write failed");

  // The final state must equal Stellar over the acknowledged live rows,
  // over the wire and after a clean restart from the data directory.
  const SkylineGroupSet expected = skycube::StellarOverLive(data, live);
  const ReadOracle final_oracle(std::make_shared<const CompressedSkylineCube>(
      data.num_dims(), data.num_objects(), expected));
  WireConnection checker;
  uint64_t mismatches = checker.Connect(servers->port) ? 0 : 1;
  std::vector<ReadOp> probes;
  for (DimMask mask = 1; mask <= data.full_mask(); ++mask) {
    probes.push_back(ReadOp{skycube::QueryKind::kSubspaceSkyline, mask, 0});
  }
  for (const auto& [id, values] : inserted) {
    probes.push_back(ReadOp{skycube::QueryKind::kMembershipCount, 0, id});
  }
  for (const ReadOp& op : probes) {
    net::WireResponse response;
    if (mismatches > 0) break;
    if (!checker.Call(ToWire(op), &response) ||
        !final_oracle.Check(op, response)) {
      ++mismatches;
    }
  }
  segment.peak_rss_mb = servers->PeakRssMb();
  if (!servers->Stop()) report->Fail("the ingest server did not drain cleanly");

  auto reopened = skycube::DurableIngest::Open(data_dir, nullptr);
  if (!reopened.ok()) {
    report->Fail("cannot reopen the data directory: " +
                 reopened.status().ToString());
  } else {
    const skycube::IncrementalCubeMaintainer& state =
        reopened.value()->maintainer();
    if (state.groups() != expected) ++mismatches;
    if (state.live() != live) ++mismatches;
    for (const auto& [id, values] : inserted) {
      const double* row = state.data().Row(id);
      if (!std::equal(values.begin(), values.end(), row)) ++mismatches;
    }
  }
  if (mismatches > 0) {
    report->failed += mismatches;
    report->Fail(tag + ": final state differs from StellarOverLive over the "
                 "acked rows");
  }
  return segment;
}

/// ingest: one writer connection streaming seeded inserts and deletes into
/// a durable skycube_serve (fsync on every ack) while reader connections
/// run the read mix on the same service. The run is split into
/// kIngestSegments segments, each on a fresh server over another variant
/// of the rows, because the maintenance cost varies ~3x between draws.
/// The operation is the acknowledged write: ops_per_cpu_s counts writes
/// per CPU second of the server (which also serves the reader). The
/// latency figures are of inserts: a segment acknowledges too few inserts
/// for a p99 of its own, so they pool all segments' inserts.
void RunIngest(const Config& cfg, bool traced, Report* report,
               std::vector<Tracer>* spans) {
  const size_t min_inserts =
      (SamplesNeededFor(99) + kIngestSegments - 1) / kIngestSegments;
  std::vector<double> build_seconds;
  SegmentFigures figures;
  Samples inserts;
  Samples deletes;
  LoadStats reads;
  double seconds = 0;
  for (int variant = 0; variant < kIngestSegments && report->correct();
       ++variant) {
    host_speed.Sample();
    const SegmentDraw draw = PrepareSegment(
        cfg, "ingest", variant, kIngestSegments, &build_seconds, report);
    if (!report->correct()) break;
    const std::function<IngestSegment()> run = [&] {
      return RunIngestSegment(cfg, variant, draw.csv, draw.rows, draw.groups,
                              cfg.seconds / kIngestSegments, min_inserts,
                              traced, report);
    };
    double steal = 0;
    IngestSegment segment = WithSteal(run, &steal);
    const size_t writes = segment.inserts.size() + segment.deletes.size();
    report->Note("segment " + std::to_string(variant) + ": steal " +
                 Fmt("%.1f", steal) + "%, " +
                 Fmt("%.1f", static_cast<double>(writes) /
                                 segment.cpu_seconds) +
                 " writes/cpu-s");
    figures.Add(segment.setup_s, segment.peak_rss_mb, writes,
                segment.seconds, segment.cpu_seconds, segment.inserts);
    if (spans != nullptr) {
      for (Tracer& tracer : segment.spans) spans->push_back(std::move(tracer));
    }
    inserts.Append(segment.inserts);
    deletes.Append(segment.deletes);
    reads.Merge(segment.reads);
    seconds += segment.seconds;
  }
  if (!report->correct()) return;
  figures.AddTo(false, report);
  report->Add("build_s", Median(build_seconds), "s", build_seconds.size());
  report->AddLatency("client.op", inserts);
  report->Note(DescribeLatency("insert", inserts));
  report->Note(DescribeLatency("delete", deletes));
  report->Note("writes " + DescribeShares({{"insert", &inserts},
                                           {"delete", &deletes}}));
  DescribeReadLoad(reads, seconds, report);
  report->Note(std::to_string(inserts.size() + deletes.size()) +
               " acknowledged writes recorded in " +
               std::to_string(kIngestSegments) + " segments");
}

void RunWorkload(const Config& cfg, bool traced, Report* report,
                 std::vector<Tracer>* spans) {
  if (cfg.workload == "build") {
    RunBuild(cfg, traced, report, spans);
  } else if (cfg.workload == "read" || cfg.workload == "routed") {
    RunRead(cfg, cfg.workload == "routed", traced, report, spans);
  } else if (cfg.workload == "ingest") {
    RunIngest(cfg, traced, report, spans);
  } else {
    report->Fail("unknown workload '" + cfg.workload + "'");
  }
  // The bounded CPU-time figures, in reference-machine CPU seconds.
  const double factor = host_speed.Factor();
  std::string raw = "host speed factor " + Fmt("%.4f", factor) + " (" +
                    std::to_string(host_speed.samples()) +
                    " reference-kernel samples); as measured:";
  for (const char* name : {"setup_s", "build_s", "ops_per_cpu_s"}) {
    const Report::Metric* metric = report->Find(name);
    if (metric != nullptr) {
      raw += " " + std::string(name) + " " + Fmt("%.6g", metric->value);
    }
  }
  report->Note(raw);
  report->Scale("setup_s", 1 / factor);
  report->Scale("build_s", 1 / factor);
  report->Scale("ops_per_cpu_s", factor);
  if (report->attempted > 0) {
    report->Add("ok_ratio",
                static_cast<double>(report->attempted - report->failed) /
                    static_cast<double>(report->attempted),
                "ratio", report->attempted);
  }
}

void PrintMetrics(const Report& report, const std::vector<std::string>& order) {
  for (const std::string& name : order) {
    const Report::Metric* metric = report.Find(name);
    if (metric == nullptr) continue;
    std::printf("  %-44s %14.4f %-6s", metric->name.c_str(), metric->value,
                metric->unit.c_str());
    if (metric->samples > 0) std::printf(" (n=%zu)", metric->samples);
    std::printf("\n");
  }
}

std::string JsonLine(const Report& report,
                     const std::vector<std::string>& order) {
  std::string json = std::string("{\"correct\": ") +
                     (report.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order) {
    const Report::Metric* metric = report.Find(name);
    if (metric == nullptr) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric->value);
    json += (first ? "" : ", ") + std::string("\"") + name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metric->unit +
            "\"}";
    first = false;
  }
  return json + "}}";
}

int Main(const skycube::FlagParser& flags) {
  Config cfg;
  cfg.workload = flags.GetString("workload", "");
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  cfg.seconds = flags.GetDouble("seconds", 10);
  cfg.trace = flags.GetInt("trace", 0) != 0;
  cfg.serve_bin = flags.GetString("serve", "");
  cfg.router_bin = flags.GetString("router", "");
  cfg.work_dir = flags.GetString("work-dir", "") + "/" + cfg.workload + "-" +
                 std::to_string(cfg.seed) + "-" + (cfg.trace ? "t1" : "t0");
  std::filesystem::remove_all(cfg.work_dir);
  std::filesystem::create_directories(cfg.work_dir);

  std::printf("workload %s seed %llu trace %d | nproc %u | build %s | "
              "compiler gcc %s | fsync always (ingest) | cache %d (read, "
              "routed) %d (ingest) | connections %d (read, routed) 1+%d "
              "(ingest)\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? 1 : 0, std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, __VERSION__, kReadCacheCapacity,
              kIngestCacheCapacity, kReadConnections, kIngestReaders);

  for (int i = 0; i < 3; ++i) host_speed.Sample();
  Report report;
  std::vector<std::string> order;
  std::vector<std::string> printed;
  if (!cfg.trace) {
    RunWorkload(cfg, false, &report, nullptr);
    order = EndToEndNames();
    for (const std::string& name : order) {
      if (report.correct() && report.Find(name) == nullptr) {
        report.Fail("metric " + name + " was not measured");
      }
    }
    printed = order;
    printed.insert(printed.end(), ClientNames().begin(), ClientNames().end());
  } else {
    // Tracing overhead: the same workload untraced and with a client span
    // around every request, in the order untraced, traced, traced,
    // untraced (a quarter of the window each), so that a drift over the
    // run cancels out of the comparison.
    Config quarter = cfg;
    quarter.seconds = cfg.seconds / 4;
    Report runs[4];
    std::vector<Tracer> client_spans;
    for (int i = 0; i < 4; ++i) {
      const bool traced = i == 1 || i == 2;
      RunWorkload(quarter, traced, &runs[i], traced ? &client_spans : nullptr);
      for (const std::string& failure : runs[i].failures()) {
        report.Fail(failure);
      }
      report.attempted += runs[i].attempted;
      report.failed += runs[i].failed;
    }
    Tracer merged;
    for (const Tracer& spans : client_spans) {
      for (const Span& span : spans.spans()) {
        merged.Record(span.request, span.layer, span.start_ns, span.end_ns);
      }
    }
    if (!merged.WriteJsonLines(cfg.work_dir + "/client_spans.jsonl")) {
      report.Fail("cannot write the client spans");
    }
    // The client's wall-clock figures of the untraced quarters, and the
    // tracing overhead, signed as a cost for all three: the share of
    // throughput lost, and the share of latency added, by tracing.
    for (const std::string& name : ClientNames()) {
      double off = 0;
      double on = 0;
      std::string unit;
      for (int i = 0; i < 4; ++i) {
        const Report::Metric* metric = runs[i].Find(name);
        const double value = metric == nullptr ? 0 : metric->value;
        if (metric != nullptr) unit = metric->unit;
        (i == 1 || i == 2 ? on : off) += value / 2;
      }
      report.Add(name, off, unit);
      const double cost = name == "client.ops_per_s" ? off - on : on - off;
      report.Add("trace.overhead_pct." + name.substr(name.find('.') + 1),
                 off == 0 ? 0 : cost / off * 100, "%");
    }
    RunLayers(cfg, &report);
    for (const Report::Metric& metric : report.metrics()) {
      order.push_back(metric.name);
    }
    printed = order;
  }
  for (const std::string& note : report.notes()) {
    std::printf("  # %s\n", note.c_str());
  }
  PrintMetrics(report, printed);
  for (const std::string& failure : report.failures()) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", JsonLine(report, order).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const skycube::FlagParser flags(argc, argv);
  return perfbench::Main(flags);
}
