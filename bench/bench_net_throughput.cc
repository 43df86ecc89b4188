// bench_net_throughput — loopback throughput/latency of the binary network
// server (src/net/, docs/NET.md) against the in-process Execute() path.
//
// Phases:
//   1  in-process baseline: cached cardinality queries straight into
//      SkycubeService::Execute on this thread — the floor the wire path is
//      compared against (the "within 2x" budget of ROADMAP item 2);
//   2  loopback sweep: a child skycube_serve (../tools/skycube_serve
//      next to this binary) serves the same rows in socket mode; this
//      process drives C concurrent connections with P-deep pipelines from a
//      single epoll client loop and measures RPS and end-to-end p50/p95/p99
//      (the second process is load-bearing: with an fd ceiling of 20000,
//      10k client sockets and 10k server sockets must live in different
//      processes);
//   3  overload: a second serve child with a tiny dispatch queue and
//      admission gate, driven past saturation — sheds must come back as
//      explicit kResourceExhausted response frames (never silent drops or
//      stalls), while admitted requests still complete.
//
// Flags: --connections=1,64,1024[,...]  sweep rows
//        --requests=N      total requests per sweep row
//        --pipeline=P      pipelined requests per connection
//        --tuples/--dims/--seed  synthetic dataset (both processes)
//        --overload=0      skip phase 3
//        --full            paper-sized sweep (adds the 10k-connection row)
//        --json[=PATH]     machine-readable record
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/cube.h"
#include "core/maintenance.h"
#include "harness/harness.h"
#include "net/protocol.h"
#include "service/request.h"
#include "service/service.h"

namespace skycube::bench {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Offsets into a kResponse payload (see EncodeResponse): the client loop
/// reads the status and cache-hit bytes directly instead of paying
/// ParseResponse per frame — this process shares one core with the server,
/// so client-side decode cost would otherwise show up in the numbers.
constexpr size_t kStatusByte = 10;
constexpr size_t kCacheHitByte = 11;

// --- Server children ------------------------------------------------------

/// Starts a real skycube_serve (the sibling of this binary's build
/// directory) on an ephemeral port over the same synthetic rows as
/// BenchData. The overload child has every layer of backpressure squeezed
/// down so saturation is cheap to reach: no cache (every query computes),
/// an admission gate of 4 with no queue wait, one dispatch worker, and a
/// near-empty dispatch queue.
Result<harness::Child> SpawnServer(const FlagParser& flags, const char* argv0,
                                   bool overload) {
  std::vector<std::string> args = {
      "--synthetic",
      "--dist=independent",
      "--tuples=" + std::to_string(flags.GetInt("tuples", 2000)),
      "--dims=" + std::to_string(flags.GetInt("dims", 6)),
      "--seed=" + std::to_string(flags.GetInt("seed", 42)),
      "--port=0",
  };
  if (overload) {
    args.insert(args.end(), {"--cache-capacity=0", "--max-in-flight=4",
                             "--queue-wait-ms=0", "--net-threads=1",
                             "--net-queue=8"});
  }
  return harness::Child::SpawnListening(harness::DefaultServePath(argv0),
                                        args);
}

// --- Epoll client driver --------------------------------------------------

struct Conn {
  int fd = -1;
  net::FrameDecoder decoder{size_t{1} << 20};
  std::string outbound;
  size_t out_off = 0;
  std::vector<double> send_times;  // per queued request; head = next unanswered
  size_t head = 0;
  uint32_t sent = 0;
  uint32_t received = 0;
  bool want_write = false;
  bool done = false;
};

struct DriveResult {
  bool failed = false;
  std::string error;
  double seconds = 0;
  uint64_t responses = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;        // kResourceExhausted
  uint64_t deadline = 0;    // kDeadlineExceeded
  uint64_t other_error = 0;
  uint64_t cache_hits = 0;
  std::vector<double> latencies;           // every response, seconds
  std::vector<double> admitted_latencies;  // kOk responses only
};

DriveResult Fail(DriveResult result, std::string error) {
  result.failed = true;
  result.error = std::move(error);
  return result;
}

/// Drives `conns` connections of `per_conn` copies of `frame`, at most
/// `pipeline` unanswered per connection, from one nonblocking epoll loop.
DriveResult DriveLoad(uint16_t port, size_t conns, uint32_t per_conn,
                      uint32_t pipeline, const std::string& frame) {
  DriveResult result;
  result.latencies.reserve(conns * per_conn);

  const int epfd = epoll_create1(0);
  if (epfd < 0) return Fail(std::move(result), "epoll_create1 failed");
  std::vector<Conn> pool(conns);
  std::vector<struct epoll_event> events(1024);

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  // Connect in waves so the listener's backlog is never outrun. SOCK_NONBLOCK
  // at socket creation; connection completion = EPOLLOUT with SO_ERROR 0.
  constexpr size_t kWave = 512;
  for (size_t base = 0; base < conns; base += kWave) {
    const size_t wave_end = std::min(conns, base + kWave);
    size_t pending = 0;
    for (size_t i = base; i < wave_end; ++i) {
      Conn& conn = pool[i];
      conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
      if (conn.fd < 0) {
        return Fail(std::move(result),
                    "socket: " + std::string(std::strerror(errno)));
      }
      int one = 1;
      (void)::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const int rc = ::connect(
          conn.fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
      if (rc != 0 && errno != EINPROGRESS) {
        return Fail(std::move(result),
                    "connect: " + std::string(std::strerror(errno)));
      }
      struct epoll_event ev = {};
      ev.events = EPOLLOUT;
      ev.data.u64 = i;
      if (epoll_ctl(epfd, EPOLL_CTL_ADD, conn.fd, &ev) != 0) {
        return Fail(std::move(result), "epoll_ctl add failed");
      }
      ++pending;
    }
    while (pending > 0) {
      const int n = epoll_wait(epfd, events.data(),
                               static_cast<int>(events.size()), 30000);
      if (n <= 0) return Fail(std::move(result), "connect wave stalled");
      for (int e = 0; e < n; ++e) {
        Conn& conn = pool[events[e].data.u64];
        int err = 0;
        socklen_t len = sizeof(err);
        (void)::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          return Fail(std::move(result),
                      "connect: " + std::string(std::strerror(err)));
        }
        // Connected; park it (no events) until the measured phase starts.
        struct epoll_event ev = {};
        ev.data.u64 = events[e].data.u64;
        if (epoll_ctl(epfd, EPOLL_CTL_MOD, conn.fd, &ev) != 0) {
          return Fail(std::move(result), "epoll_ctl mod failed");
        }
        --pending;
      }
    }
  }

  // Measured phase: prime every pipeline, then write/read until each
  // connection has its per_conn responses.
  WallTimer timer;
  for (size_t i = 0; i < conns; ++i) {
    Conn& conn = pool[i];
    conn.send_times.reserve(per_conn);
    const uint32_t prime = std::min(pipeline, per_conn);
    const double now = NowSeconds();
    for (uint32_t k = 0; k < prime; ++k) {
      conn.outbound += frame;
      conn.send_times.push_back(now);
    }
    conn.sent = prime;
    conn.want_write = true;
    struct epoll_event ev = {};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.u64 = i;
    if (epoll_ctl(epfd, EPOLL_CTL_MOD, conn.fd, &ev) != 0) {
      return Fail(std::move(result), "epoll_ctl arm failed");
    }
  }

  size_t done = 0;
  char buffer[1 << 16];
  std::string payload, error;
  while (done < conns) {
    const int n = epoll_wait(epfd, events.data(),
                             static_cast<int>(events.size()), 30000);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Fail(std::move(result),
                  "stalled: " + std::to_string(conns - done) +
                      " connections never finished");
    }
    for (int e = 0; e < n; ++e) {
      const size_t idx = events[e].data.u64;
      Conn& conn = pool[idx];
      if (conn.done) continue;
      if ((events[e].events & (EPOLLERR | EPOLLHUP)) != 0) {
        return Fail(std::move(result), "connection reset by server");
      }

      if ((events[e].events & EPOLLOUT) != 0) {
        while (conn.out_off < conn.outbound.size()) {
          const ssize_t sent =
              ::send(conn.fd, conn.outbound.data() + conn.out_off,
                     conn.outbound.size() - conn.out_off, MSG_NOSIGNAL);
          if (sent > 0) {
            conn.out_off += static_cast<size_t>(sent);
            continue;
          }
          if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          return Fail(std::move(result),
                      "send: " + std::string(std::strerror(errno)));
        }
        if (conn.out_off >= conn.outbound.size()) {
          conn.outbound.clear();
          conn.out_off = 0;
          if (conn.want_write) {
            conn.want_write = false;
            struct epoll_event ev = {};
            ev.events = EPOLLIN;
            ev.data.u64 = idx;
            (void)epoll_ctl(epfd, EPOLL_CTL_MOD, conn.fd, &ev);
          }
        }
      }

      if ((events[e].events & EPOLLIN) == 0) continue;
      bool closed = false;
      while (!conn.done) {
        const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), 0);
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got < 0) {
          return Fail(std::move(result),
                      "recv: " + std::string(std::strerror(errno)));
        }
        if (got == 0) {
          closed = true;
          break;
        }
        conn.decoder.Append(buffer, static_cast<size_t>(got));
        for (;;) {
          const auto next = conn.decoder.Take(&payload, &error);
          if (next == net::FrameDecoder::Next::kNeedMore) break;
          if (next == net::FrameDecoder::Next::kError) {
            return Fail(std::move(result), "client framing error: " + error);
          }
          if (net::PayloadOpcode(payload) == net::Opcode::kGoAway) {
            Result<net::WireGoAway> goaway = net::ParseGoAway(payload);
            return Fail(std::move(result),
                        "goaway: " + (goaway.ok() ? goaway.value().reason
                                                  : std::string("?")));
          }
          if (payload.size() <= kCacheHitByte) {
            return Fail(std::move(result), "short response frame");
          }
          const double latency =
              NowSeconds() - conn.send_times[conn.head++];
          result.latencies.push_back(latency);
          const auto status = static_cast<StatusCode>(
              static_cast<uint8_t>(payload[kStatusByte]));
          switch (status) {
            case StatusCode::kOk:
              ++result.ok;
              result.admitted_latencies.push_back(latency);
              if (payload[kCacheHitByte] != 0) ++result.cache_hits;
              break;
            case StatusCode::kResourceExhausted:
              ++result.shed;
              break;
            case StatusCode::kDeadlineExceeded:
              ++result.deadline;
              break;
            default:
              ++result.other_error;
              break;
          }
          ++result.responses;
          ++conn.received;
          if (conn.sent < per_conn) {
            conn.outbound += frame;
            conn.send_times.push_back(NowSeconds());
            ++conn.sent;
            if (!conn.want_write) {
              conn.want_write = true;
              struct epoll_event ev = {};
              ev.events = EPOLLIN | EPOLLOUT;
              ev.data.u64 = idx;
              (void)epoll_ctl(epfd, EPOLL_CTL_MOD, conn.fd, &ev);
            }
          }
          if (conn.received == per_conn) {
            ::close(conn.fd);
            conn.fd = -1;
            conn.done = true;
            ++done;
            break;
          }
        }
      }
      if (closed && !conn.done) {
        return Fail(std::move(result), "server closed mid-run");
      }
    }
  }
  result.seconds = timer.ElapsedSeconds();

  for (Conn& conn : pool) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  ::close(epfd);
  return result;
}

// --- Phases ---------------------------------------------------------------

struct InprocBaseline {
  double rps = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// Phase 1: the same cached query straight into Execute(), no wire.
InprocBaseline RunInprocBaseline(const FlagParser& flags, int iters) {
  Dataset data = BenchData(flags);
  const DimMask full = FullMask(data.num_dims());
  IncrementalCubeMaintainer maintainer(std::move(data));
  auto cube =
      std::make_shared<const CompressedSkylineCube>(maintainer.MakeCube());
  SkycubeService service(cube, SkycubeServiceOptions{});
  const QueryRequest query = QueryRequest::SkylineCardinality(full);
  (void)service.Execute(query);  // warm the cache: the steady state measured

  std::vector<double> latencies;
  latencies.reserve(iters);
  WallTimer timer;
  for (int i = 0; i < iters; ++i) {
    const double start = NowSeconds();
    (void)service.Execute(query);
    latencies.push_back(NowSeconds() - start);
  }
  InprocBaseline baseline;
  baseline.rps = iters / timer.ElapsedSeconds();
  baseline.p50_us = PercentileUs(&latencies, 0.50);
  baseline.p99_us = PercentileUs(&latencies, 0.99);
  return baseline;
}

std::vector<size_t> ParseConnections(const FlagParser& flags, bool full) {
  const std::string spec = flags.GetString(
      "connections", full ? "1,64,1024,4096,10000" : "1,64,1024");
  std::vector<size_t> out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    out.push_back(static_cast<size_t>(
        std::strtoull(spec.substr(pos, comma - pos).c_str(), nullptr, 10)));
    pos = comma + 1;
  }
  return out;
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  const bool full = flags.GetBool("full", false);
  PrintHeader("net throughput: loopback wire protocol vs in-process", full);
  BenchJson json(flags, "net_throughput");

  // Both server children start before any work, so they build their
  // cubes while nothing is measured.
  Result<harness::Child> spawned =
      SpawnServer(flags, argv[0], /*overload=*/false);
  if (!spawned.ok()) {
    std::fprintf(stderr, "FAIL %s\n", spawned.status().ToString().c_str());
    return 1;
  }
  harness::Child server = std::move(spawned).value();
  const bool overload = flags.GetBool("overload", true);
  harness::Child overload_server;
  if (overload) {
    spawned = SpawnServer(flags, argv[0], /*overload=*/true);
    if (!spawned.ok()) {
      std::fprintf(stderr, "FAIL %s\n",
                   spawned.status().ToString().c_str());
      return 1;
    }
    overload_server = std::move(spawned).value();
  }
  std::printf("server child pid %d on port %u%s\n\n", int(server.pid()),
              unsigned(server.port()), overload ? " (+overload child)" : "");

  const int dims = static_cast<int>(flags.GetInt("dims", 6));
  const DimMask full_mask = FullMask(dims);
  net::WireRequest cached;
  cached.op = net::Opcode::kCardinality;
  cached.subspace = full_mask;
  const std::string frame = net::EncodeRequest(cached);

  // Phase 1: in-process floor.
  const int inproc_iters =
      static_cast<int>(flags.GetInt("inproc-iters", full ? 500000 : 200000));
  const InprocBaseline inproc = RunInprocBaseline(flags, inproc_iters);
  std::printf("in-process cached Execute: %.0f req/s, p50 %.2f us, "
              "p99 %.2f us (%d iters)\n\n",
              inproc.rps, inproc.p50_us, inproc.p99_us, inproc_iters);
  json.AddScalar("inproc_rps", inproc.rps);
  json.AddScalar("inproc_p50_us", inproc.p50_us);
  json.AddScalar("inproc_p99_us", inproc.p99_us);

  // Phase 2: loopback sweep.
  const uint32_t pipeline =
      static_cast<uint32_t>(flags.GetInt("pipeline", 16));
  const uint64_t total_target = static_cast<uint64_t>(
      flags.GetInt("requests", full ? 200000 : 60000));
  TablePrinter sweep({"connections", "pipeline", "requests", "seconds",
                      "rps", "p50_us", "p95_us", "p99_us", "cache_hit_pct",
                      "p99_vs_inproc"});
  int failures = 0;
  for (size_t conns : ParseConnections(flags, full)) {
    if (conns == 0) continue;
    const uint32_t per_conn = static_cast<uint32_t>(
        std::max<uint64_t>(pipeline, total_target / conns));
    DriveResult run =
        DriveLoad(server.port(), conns, per_conn, pipeline, frame);
    if (run.failed) {
      std::fprintf(stderr, "FAIL sweep conns=%zu: %s\n", conns,
                   run.error.c_str());
      ++failures;
      continue;
    }
    const double rps = double(run.responses) / run.seconds;
    const double p99_us = PercentileUs(&run.latencies, 0.99);
    sweep.NewRow()
        .AddInt(int64_t(conns))
        .AddInt(int64_t(pipeline))
        .AddInt(int64_t(run.responses))
        .AddDouble(run.seconds, 3)
        .AddDouble(rps, 0)
        .AddDouble(PercentileUs(&run.latencies, 0.50), 1)
        .AddDouble(PercentileUs(&run.latencies, 0.95), 1)
        .AddDouble(p99_us, 1)
        .AddDouble(100.0 * double(run.cache_hits) /
                       double(std::max<uint64_t>(1, run.responses)),
                   1)
        .AddDouble(inproc.p99_us > 0 ? p99_us / inproc.p99_us : 0, 1);
  }
  EmitTable(sweep);
  json.AddTable("loopback_sweep", sweep);
  server.Kill(SIGTERM);  // a clean drain exits 0
  const int sweep_exit = server.Wait();
  if (sweep_exit != 0) {
    std::fprintf(stderr, "FAIL sweep server exited %d\n", sweep_exit);
    ++failures;
  }

  // Phase 3: overload — sheds must be explicit kResourceExhausted frames.
  if (overload) {
    const size_t conns =
        static_cast<size_t>(flags.GetInt("overload-connections", 64));
    const uint32_t per_conn = static_cast<uint32_t>(
        flags.GetInt("overload-per-connection", full ? 128 : 48));
    net::WireRequest hot;
    hot.op = net::Opcode::kCardinality;
    hot.subspace = full_mask;  // uncached in this child: every query computes
    DriveResult run = DriveLoad(overload_server.port(), conns, per_conn,
                                /*pipeline=*/32, net::EncodeRequest(hot));
    TablePrinter shed({"offered", "answered", "ok", "shed", "deadline",
                       "other", "shed_pct", "admitted_p50_ms",
                       "admitted_p99_ms"});
    if (run.failed) {
      std::fprintf(stderr, "FAIL overload: %s\n", run.error.c_str());
      ++failures;
    } else {
      const uint64_t offered = uint64_t(conns) * per_conn;
      if (run.responses != offered || run.shed == 0 ||
          run.other_error != 0 || run.ok == 0) {
        std::fprintf(stderr,
                     "FAIL overload contract: offered=%llu answered=%llu "
                     "ok=%llu shed=%llu other=%llu\n",
                     (unsigned long long)offered,
                     (unsigned long long)run.responses,
                     (unsigned long long)run.ok, (unsigned long long)run.shed,
                     (unsigned long long)run.other_error);
        ++failures;
      }
      shed.NewRow()
          .AddInt(int64_t(offered))
          .AddInt(int64_t(run.responses))
          .AddInt(int64_t(run.ok))
          .AddInt(int64_t(run.shed))
          .AddInt(int64_t(run.deadline))
          .AddInt(int64_t(run.other_error))
          .AddDouble(100.0 * double(run.shed) /
                         double(std::max<uint64_t>(1, run.responses)),
                     1)
          .AddDouble(PercentileUs(&run.admitted_latencies, 0.50) / 1e3, 2)
          .AddDouble(PercentileUs(&run.admitted_latencies, 0.99) / 1e3, 2);
      EmitTable(shed);
      json.AddTable("overload", shed);
    }
    overload_server.Kill(SIGTERM);
    const int overload_exit = overload_server.Wait();
    if (overload_exit != 0) {
      std::fprintf(stderr, "FAIL overload server exited %d\n", overload_exit);
      ++failures;
    }
  }

  json.AddScalar("failures", int64_t(failures));
  if (failures > 0) {
    std::fprintf(stderr, "bench_net_throughput: %d failure(s)\n", failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace skycube::bench

int main(int argc, char** argv) {
  return skycube::bench::Main(argc, argv);
}
