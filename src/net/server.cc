#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/deadline.h"

namespace skycube::net {
namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

/// Read budget per epoll event: large enough to drain a deep pipeline in
/// few syscalls, small enough not to starve other connections.
constexpr size_t kReadBudgetBytes = 256 * 1024;

/// Pending-connection queue of the listening socket.
constexpr int kListenBacklog = 1024;

/// Unsent response bytes per connection before its reads pause.
constexpr size_t kWriteHighWater = size_t{1} << 20;

/// Closes a refused socket after its goaway was sent. The peer may already
/// have written requests (connect + send races the refusal decision); a
/// bare close() with those bytes unread — or still in flight — makes the
/// kernel answer RST, which destroys the goaway before the peer reads it.
/// FIN first, then swallow inbound bytes until the peer's own FIN (the
/// goaway reader closing) or a short quiet period. Refusals are rare, so a
/// bounded wait on the accept path is acceptable.
void CloseRefused(int fd) {
  ::shutdown(fd, SHUT_WR);
  char discard[4096];
  for (int i = 0; i < 64; ++i) {
    const ssize_t n = ::recv(fd, discard, sizeof(discard), 0);
    if (n > 0) continue;
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd waiter = {fd, POLLIN, 0};
      if (::poll(&waiter, 1, 20) > 0) continue;  // trailing bytes or FIN
    }
    break;  // peer FIN, quiet timeout, or hard error
  }
  ::close(fd);
}

}  // namespace

NetServer::NetServer(QueryExecutor* service, NetServerOptions options)
    : service_(service), options_(std::move(options)) {
  if (!options_.health_text) {
    options_.health_text = [this] { return DefaultHealthText(); };
  }
  if (!options_.stats_text) {
    options_.stats_text = [this] { return DefaultStatsText(); };
  }
}

NetServer::~NetServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status NetServer::Start() {
  if (started_.exchange(true)) {
    return Status::Internal("NetServer started twice");
  }
  max_insert_values_ = static_cast<size_t>(service_->num_dims());
  Status loop_ok = loop_.Init();
  if (!loop_ok.ok()) return loop_ok;

  ThreadPool::Options pool_options;
  pool_options.num_threads = options_.dispatch_threads;
  pool_options.queue_capacity = options_.dispatch_queue_capacity;
  dispatch_pool_ = std::make_unique<ThreadPool>(pool_options);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address '" + options_.host +
                                   "' (need an IPv4 dotted quad)");
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) return Errno("listen");
  struct sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) < 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return loop_.Add(listen_fd_, EPOLLIN,
                   [this](uint32_t) { OnListenReadable(); });
}

void NetServer::Run(const std::function<void()>& on_tick, int tick_millis) {
  loop_.Run(on_tick, tick_millis);
  // Serving is over: close the listener so late connection attempts are
  // refused by the kernel instead of rotting in the accept backlog.
  if (listen_fd_ >= 0) {
    loop_.Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void NetServer::BeginDrain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  loop_.Post([this] { EnterDrainOnLoop(); });
}

void NetServer::Stop() {
  loop_.Post([this] {
    std::vector<uint64_t> ids;
    ids.reserve(connections_.size());
    for (const auto& [id, conn] : connections_) ids.push_back(id);
    for (uint64_t id : ids) CloseConnection(id);
    loop_.Stop();
  });
}

NetServerStats NetServer::stats() const {
  NetServerStats stats;
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.connections_refused_draining =
      refused_draining_.load(std::memory_order_relaxed);
  stats.connections_refused_limit =
      refused_limit_.load(std::memory_order_relaxed);
  stats.connections_closed = closed_.load(std::memory_order_relaxed);
  stats.connections_open = open_.load(std::memory_order_relaxed);
  stats.frames_in = frames_in_.load(std::memory_order_relaxed);
  stats.responses_out = responses_out_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.dispatch_shed = dispatch_shed_.load(std::memory_order_relaxed);
  stats.read_pauses = read_pauses_.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return stats;
}

void NetServer::OnListenReadable() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: backlog drained. EMFILE/ENFILE and transient network
      // errors: give up this round; level-triggered epoll retries.
      break;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (draining_.load(std::memory_order_acquire)) {
      refused_draining_.fetch_add(1, std::memory_order_relaxed);
      const std::string frame = EncodeGoAway(
          StatusCode::kUnavailable, "server is draining for shutdown");
      (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      CloseRefused(fd);
      continue;
    }
    if (options_.max_connections > 0 &&
        connections_.size() >= options_.max_connections) {
      refused_limit_.fetch_add(1, std::memory_order_relaxed);
      const std::string frame = EncodeGoAway(
          StatusCode::kResourceExhausted, "connection limit reached");
      (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      CloseRefused(fd);
      continue;
    }
    const uint64_t id = next_conn_id_++;
    auto conn =
        std::make_unique<Connection>(id, fd, options_.max_frame_payload);
    conn->armed_events = EPOLLIN;
    Status added = loop_.Add(
        fd, EPOLLIN, [this, id](uint32_t events) {
          OnConnectionEvent(id, events);
        });
    if (!added.ok()) {
      continue;  // conn's destructor closes the socket
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_.fetch_add(1, std::memory_order_relaxed);
    connections_.emplace(id, std::move(conn));
  }
}

void NetServer::OnConnectionEvent(uint64_t conn_id, uint32_t events) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;  // stale event after a close
  Connection* conn = it->second.get();
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConnection(conn_id);
    return;
  }
  if ((events & EPOLLIN) != 0 && !conn->reads_paused) {
    size_t bytes_read = 0;
    const auto result =
        conn->ReadIntoDecoder(kReadBudgetBytes, &bytes_read);
    bytes_in_.fetch_add(bytes_read, std::memory_order_relaxed);
    if (result == Connection::IoResult::kClosed) {
      if (conn->Idle() && conn->decoder().buffered() == 0) {
        CloseConnection(conn_id);
        return;
      }
      // Peer half-closed after sending a batch: answer what was received,
      // then close once flushed.
      ProcessFrames(conn);
      conn->reads_paused = true;
      conn->close_after_flush = true;
    } else {
      ProcessFrames(conn);
    }
  }
  FlushAndUpdate(conn);
}

void NetServer::ProcessFrames(Connection* conn) {
  if (conn->close_after_flush) return;
  std::vector<Work> batch;
  std::string payload, error;
  for (;;) {
    if (conn->pending() >= options_.max_pipeline ||
        conn->outbound_bytes() >= kWriteHighWater) {
      if (!conn->reads_paused) {
        conn->reads_paused = true;
        read_pauses_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    const auto next = conn->decoder().Take(&payload, &error);
    if (next == FrameDecoder::Next::kNeedMore) break;
    if (next == FrameDecoder::Next::kError) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendGoAwayAndClose(conn, StatusCode::kInvalidArgument, error);
      return;  // the stream is dead; drop the un-dispatched batch
    }
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    Result<WireRequest> parsed = ParseRequest(payload, max_insert_values_);
    if (!parsed.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendGoAwayAndClose(conn, parsed.status().code(),
                         parsed.status().message());
      return;
    }
    const WireRequest& request = parsed.value();
    if (IsReplOpcode(request.op)) {
      const uint64_t seq = conn->AddPending();
      if (draining_.load(std::memory_order_acquire)) {
        conn->Complete(seq, EncodeResponse(ErrorWireResponse(
                                request, StatusCode::kUnavailable,
                                "server is draining for shutdown")));
        responses_out_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (!options_.repl_handler) {
        conn->Complete(seq, EncodeResponse(ErrorWireResponse(
                                request, StatusCode::kUnavailable,
                                "replication is not enabled on this "
                                "server")));
        responses_out_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const uint64_t conn_id = conn->id();
      std::function<void()> task = [this, conn_id, seq, request] {
        std::vector<std::pair<uint64_t, std::string>> done;
        done.emplace_back(seq,
                          EncodeResponse(options_.repl_handler(request)));
        loop_.Post([this, conn_id, done = std::move(done)] {
          ApplyCompletions(conn_id, done);
        });
      };
      if (!dispatch_pool_->TrySubmit(task)) {
        dispatch_shed_.fetch_add(1, std::memory_order_relaxed);
        conn->Complete(seq, EncodeResponse(ErrorWireResponse(
                                request, StatusCode::kResourceExhausted,
                                "overloaded: dispatch queue full")));
        responses_out_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (!IsQueryOpcode(request.op)) {
      // Introspection: answered on the loop thread, still in pipeline
      // order.
      WireResponse response;
      response.id = request.id;
      response.request_op = request.op;
      response.snapshot_version = service_->snapshot_version();
      if (request.op == Opcode::kHealth) {
        response.text = options_.health_text();
      } else if (request.op == Opcode::kStats) {
        response.text = options_.stats_text();
      }
      const uint64_t seq = conn->AddPending();
      conn->Complete(seq, EncodeResponse(response));
      responses_out_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const uint64_t seq = conn->AddPending();
    if (draining_.load(std::memory_order_acquire)) {
      // Frames already buffered when the drain began: refuse explicitly.
      conn->Complete(seq, EncodeResponse(ErrorWireResponse(
                              request, StatusCode::kUnavailable,
                              "server is draining for shutdown")));
      responses_out_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Work work;
    work.seq = seq;
    work.wire_id = request.id;
    work.op = request.op;
    work.request = ToQueryRequest(request);
    if (options_.deadline_millis > 0) {
      work.request.deadline = Deadline::AfterMillis(options_.deadline_millis);
    }
    batch.push_back(std::move(work));
  }
  if (!batch.empty()) DispatchBatch(conn, std::move(batch));
}

void NetServer::DispatchBatch(Connection* conn, std::vector<Work> batch) {
  const uint64_t conn_id = conn->id();
  // The batch sits behind a shared_ptr so a failed TrySubmit can still
  // reach it for the shed path (the task owns it otherwise).
  auto work = std::make_shared<std::vector<Work>>(std::move(batch));
  std::function<void()> task = [this, conn_id, work] {
    std::vector<std::pair<uint64_t, std::string>> done;
    done.reserve(work->size());
    for (Work& item : *work) {
      const QueryResponse response = service_->Execute(item.request);
      WireRequest shell;
      shell.op = item.op;
      shell.id = item.wire_id;
      done.emplace_back(item.seq,
                        EncodeResponse(FromQueryResponse(shell, response)));
    }
    loop_.Post([this, conn_id, done = std::move(done)] {
      ApplyCompletions(conn_id, done);
    });
  };
  if (dispatch_pool_->TrySubmit(task)) return;
  // Dispatch queue full: shed the whole batch explicitly on the wire.
  dispatch_shed_.fetch_add(work->size(), std::memory_order_relaxed);
  for (const Work& item : *work) {
    WireRequest shell;
    shell.op = item.op;
    shell.id = item.wire_id;
    conn->Complete(item.seq,
                   EncodeResponse(ErrorWireResponse(
                       shell, StatusCode::kResourceExhausted,
                       "overloaded: dispatch queue full")));
    responses_out_.fetch_add(1, std::memory_order_relaxed);
  }
}

void NetServer::ApplyCompletions(
    uint64_t conn_id,
    const std::vector<std::pair<uint64_t, std::string>>& completions) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;  // connection died undelivered
  Connection* conn = it->second.get();
  if (conn->close_after_flush) return;  // goaway outranks pending answers
  for (const auto& [seq, frame] : completions) {
    conn->Complete(seq, frame);
    responses_out_.fetch_add(1, std::memory_order_relaxed);
  }
  FlushAndUpdate(conn);
}

void NetServer::FlushAndUpdate(Connection* conn) {
  const uint64_t conn_id = conn->id();
  for (int round = 0; round < 2; ++round) {
    size_t bytes_written = 0;
    const auto result = conn->FlushOutbound(&bytes_written);
    bytes_out_.fetch_add(bytes_written, std::memory_order_relaxed);
    if (result == Connection::IoResult::kClosed) {
      CloseConnection(conn_id);
      return;
    }
    conn->want_writable = (result == Connection::IoResult::kBlocked);
    if (conn->close_after_flush && conn->outbound_bytes() == 0) {
      CloseConnection(conn_id);
      return;
    }
    if (draining_.load(std::memory_order_acquire)) {
      if (conn->Idle()) {
        CloseConnection(conn_id);
        return;
      }
      break;
    }
    // Backpressure released? Re-open the tap and decode the backlog; the
    // extra round flushes any inline answers it produced.
    if (conn->reads_paused && !conn->close_after_flush &&
        conn->pending() < options_.max_pipeline &&
        conn->outbound_bytes() < kWriteHighWater) {
      conn->reads_paused = false;
      ProcessFrames(conn);
      continue;
    }
    break;
  }
  UpdateEpollMask(conn);
}

void NetServer::UpdateEpollMask(Connection* conn) {
  const uint32_t desired =
      (conn->reads_paused ? 0u : uint32_t{EPOLLIN}) |
      (conn->want_writable ? uint32_t{EPOLLOUT} : 0u);
  if (desired == conn->armed_events) return;
  Status modified = loop_.Modify(conn->fd(), desired);
  if (!modified.ok()) {
    CloseConnection(conn->id());
    return;
  }
  conn->armed_events = desired;
}

void NetServer::SendGoAwayAndClose(Connection* conn, StatusCode status,
                                   const std::string& reason) {
  conn->AppendRaw(EncodeGoAway(status, reason));
  conn->close_after_flush = true;
  conn->reads_paused = true;
}

void NetServer::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  loop_.Remove(it->second->fd());
  connections_.erase(it);  // destructor closes the socket
  closed_.fetch_add(1, std::memory_order_relaxed);
  open_.fetch_sub(1, std::memory_order_relaxed);
  MaybeFinishDrain();
}

void NetServer::EnterDrainOnLoop() {
  std::vector<uint64_t> idle;
  for (auto& [id, conn] : connections_) {
    conn->reads_paused = true;
    if (conn->Idle()) {
      idle.push_back(id);
    } else {
      UpdateEpollMask(conn.get());
    }
  }
  for (uint64_t id : idle) CloseConnection(id);
  MaybeFinishDrain();
}

void NetServer::MaybeFinishDrain() {
  if (draining_.load(std::memory_order_acquire) && connections_.empty()) {
    loop_.Stop();
  }
}

std::string NetServer::DefaultHealthText() const {
  return service_->HealthLine();
}

std::string NetServer::DefaultStatsText() const {
  return service_->StatsLine();
}

}  // namespace skycube::net
