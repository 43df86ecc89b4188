// NetServer: the socket front end of a QueryExecutor (docs/NET.md) —
// usually a SkycubeService, but the scatter–gather router serves through
// the same class (docs/SHARDING.md).
//
// Architecture — one epoll loop thread plus a bounded dispatch pool:
//
//   accept -> Connection -> FrameDecoder -> [loop thread]
//       query frames  -> dispatch pool -> SkycubeService::Execute
//                     -> EventLoop::Post -> ordered flush  [loop thread]
//       health/stats/ping and protocol errors answered on the loop thread
//
// Backpressure is explicit at every layer; overload never accumulates
// silently in kernel buffers:
//  - per connection, at most `max_pipeline` decoded-but-unanswered requests
//    and 1 MiB of unsent response bytes; beyond either, the
//    server stops *reading* that socket (EPOLLIN withdrawn), so the
//    client's own sends eventually block — TCP pushes the pressure back;
//  - the dispatch pool queue is bounded; when full, the whole decoded
//    batch is answered immediately with kResourceExhausted frames;
//  - inside the service, the max_in_flight / queue_wait_timeout admission
//    gate sheds with kResourceExhausted exactly as for in-process callers.
//
// Graceful drain (BeginDrain, wired to SIGTERM by tools/skycube_serve):
// the listener answers new connections with a kGoAway(kUnavailable) frame
// and closes them; existing connections stop being read; every request
// already decoded ("in flight") completes and its response is flushed;
// each connection closes once idle; Run() returns when none remain. The
// caller then drains the service itself (SkycubeService::BeginDrain and,
// for durable ingest, DurableIngest::Drain).
#ifndef SKYCUBE_NET_SERVER_H_
#define SKYCUBE_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "service/executor.h"

namespace skycube::net {

struct NetServerOptions {
  /// Listen address (IPv4 dotted quad) and port; port 0 binds an ephemeral
  /// port, readable from NetServer::port() after Start().
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Worker threads executing service queries (0 = hardware concurrency).
  int dispatch_threads = 0;
  /// Bounded dispatch queue; a full queue sheds with kResourceExhausted.
  size_t dispatch_queue_capacity = 4096;

  /// Decoded-but-unanswered requests per connection before reads pause.
  size_t max_pipeline = 1024;
  /// Largest accepted frame payload.
  size_t max_frame_payload = kDefaultMaxPayload;
  /// Open connections beyond this are refused with kResourceExhausted
  /// (0 = unlimited).
  size_t max_connections = 0;

  /// Per-request deadline attached when a request is decoded (0 = none) —
  /// time queued behind a saturated pool counts against it.
  int64_t deadline_millis = 0;

  /// Text payloads of the kHealth / kStats opcodes. Defaults answer from
  /// the service's own counters; tools/skycube_serve installs the richer
  /// REPL formatters (durability and recovery counters included).
  std::function<std::string()> health_text;
  std::function<std::string()> stats_text;

  /// Handler for the replication opcodes (kReplFetch..kReplPromote,
  /// docs/REPLICATION.md). Runs on a dispatch-pool thread, never the loop
  /// thread — kReplFetch long-polls and kReplSnapshot reads checkpoint
  /// files, both banned on the loop. Each follower occupies at most one
  /// pool slot at a time (it fetches on a dedicated connection, one
  /// request in flight). Unset: replication opcodes answer kUnavailable.
  std::function<WireResponse(const WireRequest&)> repl_handler;
};

/// Point-in-time counters of a NetServer (plain data, copyable).
struct NetServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused_draining = 0;  // goaway kUnavailable
  uint64_t connections_refused_limit = 0;     // goaway kResourceExhausted
  uint64_t connections_closed = 0;
  uint64_t connections_open = 0;
  uint64_t frames_in = 0;       // parsed request frames
  uint64_t responses_out = 0;   // response frames queued for the wire
  uint64_t protocol_errors = 0;  // streams killed by goaway
  uint64_t dispatch_shed = 0;   // requests shed by the full dispatch queue
  uint64_t read_pauses = 0;     // backpressure engagements
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

class NetServer {
 public:
  /// `service` is not owned and must outlive the server. Any QueryExecutor
  /// works: a single-node SkycubeService, the in-process sharded wrapper,
  /// or the scatter–gather router (docs/SHARDING.md).
  NetServer(QueryExecutor* service, NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds and listens. After this, port() is final; Run() serves.
  Status Start();

  /// The bound port (resolves port 0 to the kernel's choice).
  uint16_t port() const { return port_; }

  /// Serves on the calling thread until the server is stopped or a drain
  /// completes. `on_tick` runs at least every `tick_millis` on the loop
  /// thread (and on EINTR) — the serve tool polls its signal flag there.
  void Run(const std::function<void()>& on_tick = nullptr,
           int tick_millis = -1);

  /// Starts a graceful drain (see file header). Thread- and
  /// signal-context-safe in the sense that it only posts to the loop;
  /// idempotent. Run() returns once every connection has flushed and
  /// closed.
  void BeginDrain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Hard stop: closes every connection immediately (pending responses are
  /// dropped) and makes Run() return. For tests and fatal teardown.
  void Stop();

  NetServerStats stats() const;

 private:
  /// One decoded query awaiting dispatch: the pipeline slot it must answer
  /// plus the service request (deadline already attached).
  struct Work {
    uint64_t seq = 0;
    uint64_t wire_id = 0;
    Opcode op = Opcode::kPing;
    QueryRequest request;
  };

  // Everything below runs on the loop thread.
  void OnListenReadable();
  void OnConnectionEvent(uint64_t conn_id, uint32_t events);
  /// Decodes and routes every completed frame the decoder holds (up to the
  /// pipeline cap), then dispatches the collected query batch.
  void ProcessFrames(Connection* conn);
  void DispatchBatch(Connection* conn, std::vector<Work> batch);
  /// Applies pool-computed responses to their pipeline slots.
  void ApplyCompletions(
      uint64_t conn_id,
      const std::vector<std::pair<uint64_t, std::string>>& completions);
  /// Flushes, updates backpressure state, re-arms epoll, closes if due.
  void FlushAndUpdate(Connection* conn);
  void UpdateEpollMask(Connection* conn);
  void SendGoAwayAndClose(Connection* conn, StatusCode status,
                          const std::string& reason);
  void CloseConnection(uint64_t conn_id);
  void EnterDrainOnLoop();
  /// Stops the loop once a drain has no connections left.
  void MaybeFinishDrain();

  std::string DefaultHealthText() const;
  std::string DefaultStatsText() const;

  QueryExecutor* service_;
  NetServerOptions options_;
  size_t max_insert_values_ = 4096;

  EventLoop loop_;
  std::unique_ptr<ThreadPool> dispatch_pool_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  /// Loop-thread-only: live connections by id (ids never recycle, so a
  /// completion for a closed connection misses cleanly).
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 1;

  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};

  // Counters (relaxed; stats are approximate by design).
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> refused_draining_{0};
  std::atomic<uint64_t> refused_limit_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> open_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> responses_out_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> dispatch_shed_{0};
  std::atomic<uint64_t> read_pauses_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
};

}  // namespace skycube::net

#endif  // SKYCUBE_NET_SERVER_H_
