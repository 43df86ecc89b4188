// NetServer lifecycle tests over real loopback sockets: an in-process
// server on its own thread, raw TCP clients driving the wire protocol.
// Covers answer correctness per opcode, pipelined in-order delivery,
// concurrent connections, protocol-error handling (goaway + close, never a
// crash or hang), deterministic overload shedding through both the
// dispatch queue and the service admission gate, and the graceful-drain
// contract: in-flight requests complete, new connections are refused with
// kUnavailable, Run() returns.
#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cube.h"
#include "core/maintenance.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "net/protocol.h"
#include "service/ingest.h"
#include "service/service.h"

namespace skycube::net {
namespace {

Dataset MakeData(size_t objects, int dims, uint64_t seed) {
  SyntheticSpec spec;
  spec.distribution = Distribution::kIndependent;
  spec.num_dims = dims;
  spec.num_objects = objects;
  spec.seed = seed;
  spec.truncate_decimals = 2;
  return GenerateSynthetic(spec);
}

/// Insert handler whose ApplyInsert can be made to block on a gate — the
/// deterministic way to hold a dispatch worker busy (no sleeps, no races:
/// the test waits for the insert to arrive, then decides when it finishes).
class GatedInsertHandler : public InsertHandler {
 public:
  explicit GatedInsertHandler(IncrementalCubeMaintainer* maintainer)
      : inner_(maintainer) {}

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_open_ = false;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gate_open_ = true;
    }
    cv_.notify_all();
  }
  /// Blocks until an ApplyInsert is waiting at the closed gate.
  void AwaitBlockedInsert() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return waiting_ > 0; });
  }

  Result<Applied> ApplyInsert(const std::vector<double>& values,
                              uint64_t timestamp_ms = 0) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++waiting_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return gate_open_; });
      --waiting_;
    }
    return inner_.ApplyInsert(values, timestamp_ms);
  }
  Result<Applied> ApplyDelete(ObjectId id) override {
    return inner_.ApplyDelete(id);
  }
  Result<Applied> ApplyExpire(uint64_t cutoff_ms) override {
    return inner_.ApplyExpire(cutoff_ms);
  }
  int num_dims() const override { return inner_.num_dims(); }

 private:
  MaintainerInsertHandler inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool gate_open_ = true;
  int waiting_ = 0;
};

/// Blocking loopback client speaking the binary protocol (recv timeout so
/// a server bug fails the test instead of hanging it).
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    struct timeval timeout = {};
    timeout.tv_sec = 30;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                       sizeof(timeout));
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return fd_ >= 0; }

  void Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      sent += static_cast<size_t>(n);
    }
  }
  void SendRequest(const WireRequest& request) {
    Send(EncodeRequest(request));
  }

  /// Reads one verified frame payload; false on clean EOF.
  bool ReadPayload(std::string* payload) {
    std::string error;
    for (;;) {
      const FrameDecoder::Next next = decoder_.Take(payload, &error);
      if (next == FrameDecoder::Next::kFrame) return true;
      if (next == FrameDecoder::Next::kError) {
        ADD_FAILURE() << "client-side framing error: " << error;
        return false;
      }
      char buffer[1 << 16];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n == 0) return false;
      if (n < 0) {
        ADD_FAILURE() << "recv failed: " << std::strerror(errno);
        return false;
      }
      decoder_.Append(buffer, static_cast<size_t>(n));
    }
  }

  WireResponse ReadResponse() {
    std::string payload;
    if (!ReadPayload(&payload)) {
      ADD_FAILURE() << "EOF where a response frame was expected";
      return {};
    }
    if (PayloadOpcode(payload) != Opcode::kResponse) {
      ADD_FAILURE() << "expected kResponse, got opcode "
                    << OpcodeName(PayloadOpcode(payload));
      return {};
    }
    Result<WireResponse> decoded = ParseResponse(payload);
    if (!decoded.ok()) {
      ADD_FAILURE() << decoded.status().ToString();
      return {};
    }
    return std::move(decoded).value();
  }

  WireGoAway ReadGoAway() {
    std::string payload;
    if (!ReadPayload(&payload) ||
        PayloadOpcode(payload) != Opcode::kGoAway) {
      ADD_FAILURE() << "expected a goaway frame";
      return {};
    }
    Result<WireGoAway> decoded = ParseGoAway(payload);
    if (!decoded.ok()) {
      ADD_FAILURE() << decoded.status().ToString();
      return {};
    }
    return std::move(decoded).value();
  }

  /// True iff the server closed the stream (no further frames).
  bool AtEof() {
    std::string payload;
    return !ReadPayload(&payload);
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

WireRequest Skyline(uint64_t id, DimMask subspace) {
  WireRequest request;
  request.op = Opcode::kSkyline;
  request.id = id;
  request.subspace = subspace;
  return request;
}

WireRequest Simple(Opcode op, uint64_t id) {
  WireRequest request;
  request.op = op;
  request.id = id;
  return request;
}

class NetServerTest : public ::testing::Test {
 protected:
  void StartServer(NetServerOptions options = {},
                   SkycubeServiceOptions service_options = {}) {
    Dataset data = MakeData(300, 4, 7);
    maintainer_ = std::make_unique<IncrementalCubeMaintainer>(std::move(data));
    handler_ = std::make_unique<GatedInsertHandler>(maintainer_.get());
    cube_ = std::make_shared<const CompressedSkylineCube>(
        maintainer_->MakeCube());
    service_ =
        std::make_unique<SkycubeService>(cube_, service_options);
    service_->AttachInsertHandler(handler_.get());
    options.port = 0;
    server_ = std::make_unique<NetServer>(service_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    serve_thread_ = std::thread([this] { server_->Run(); });
  }

  void TearDown() override {
    if (handler_) handler_->OpenGate();  // never leave a worker stuck
    if (server_) server_->Stop();
    if (serve_thread_.joinable()) serve_thread_.join();
  }

  std::unique_ptr<IncrementalCubeMaintainer> maintainer_;
  std::unique_ptr<GatedInsertHandler> handler_;
  std::shared_ptr<const CompressedSkylineCube> cube_;
  std::unique_ptr<SkycubeService> service_;
  std::unique_ptr<NetServer> server_;
  std::thread serve_thread_;
};

TEST_F(NetServerTest, AnswersEveryOpcodeCorrectly) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  const DimMask mask = 0b101;
  client.SendRequest(Skyline(1, mask));
  WireResponse skyline = client.ReadResponse();
  EXPECT_EQ(skyline.id, 1u);
  EXPECT_EQ(skyline.status, StatusCode::kOk);
  EXPECT_EQ(skyline.ids, cube_->SubspaceSkyline(mask));
  EXPECT_EQ(skyline.snapshot_version, 1u);

  WireRequest card = Skyline(2, mask);
  card.op = Opcode::kCardinality;
  client.SendRequest(card);
  EXPECT_EQ(client.ReadResponse().count, cube_->SkylineCardinality(mask));

  WireRequest member = Skyline(3, mask);
  member.op = Opcode::kMembership;
  member.object = 0;
  client.SendRequest(member);
  EXPECT_EQ(client.ReadResponse().member,
            cube_->IsInSubspaceSkyline(0, mask));

  WireRequest count = Simple(Opcode::kMembershipCount, 4);
  count.object = 0;
  client.SendRequest(count);
  EXPECT_EQ(client.ReadResponse().count,
            cube_->CountSubspacesWhereSkyline(0));

  client.SendRequest(Simple(Opcode::kSkycubeSize, 5));
  EXPECT_EQ(client.ReadResponse().count,
            cube_->TotalSubspaceSkylineObjects());

  client.SendRequest(Simple(Opcode::kPing, 6));
  const WireResponse pong = client.ReadResponse();
  EXPECT_EQ(pong.id, 6u);
  EXPECT_EQ(pong.status, StatusCode::kOk);

  client.SendRequest(Simple(Opcode::kHealth, 7));
  EXPECT_NE(client.ReadResponse().text.find("status=ready"),
            std::string::npos);

  client.SendRequest(Simple(Opcode::kStats, 8));
  EXPECT_NE(client.ReadResponse().text.find("queries="), std::string::npos);

  // An insert through the wire swaps the snapshot: the response carries the
  // post-insert version and subsequent queries see it.
  WireRequest insert = Simple(Opcode::kInsert, 9);
  insert.values = {0.01, 0.01, 0.01, 0.01};
  client.SendRequest(insert);
  const WireResponse inserted = client.ReadResponse();
  EXPECT_EQ(inserted.status, StatusCode::kOk);
  EXPECT_EQ(inserted.snapshot_version, 2u);
  EXPECT_EQ(inserted.count, 301u);

  client.SendRequest(Skyline(10, mask));
  EXPECT_EQ(client.ReadResponse().snapshot_version, 2u);
}

TEST_F(NetServerTest, NonFiniteInsertIsRefusedAndNeverAcked) {
  // The transport carries the bit patterns; the service refuses the row
  // with kInvalidArgument on the same connection, and nothing is applied.
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  uint64_t id = 1;
  for (const std::vector<double>& values :
       {std::vector<double>{nan, 0.01, 0.01, 0.01},
        std::vector<double>{0.01, inf, 0.01, 0.01},
        std::vector<double>{0.01, 0.01, -inf, 0.01}}) {
    WireRequest insert = Simple(Opcode::kInsert, id++);
    insert.values = values;
    client.SendRequest(insert);
    const WireResponse refused = client.ReadResponse();
    EXPECT_EQ(refused.status, StatusCode::kInvalidArgument);
    EXPECT_EQ(refused.snapshot_version, 1u);
  }
  // The connection is still good and the snapshot never moved.
  client.SendRequest(Simple(Opcode::kSkycubeSize, id++));
  const WireResponse size = client.ReadResponse();
  EXPECT_EQ(size.status, StatusCode::kOk);
  EXPECT_EQ(size.snapshot_version, 1u);
  EXPECT_EQ(maintainer_->data().num_objects(), 300u);
}

TEST_F(NetServerTest, CustomHealthAndStatsProviders) {
  NetServerOptions options;
  options.health_text = [] { return std::string("custom-health-line"); };
  options.stats_text = [] { return std::string("custom-stats-line"); };
  StartServer(options);
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.SendRequest(Simple(Opcode::kHealth, 1));
  EXPECT_EQ(client.ReadResponse().text, "custom-health-line");
  client.SendRequest(Simple(Opcode::kStats, 2));
  EXPECT_EQ(client.ReadResponse().text, "custom-stats-line");
}

TEST_F(NetServerTest, PipelinedResponsesArriveInRequestOrder) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  // One write carrying 200 mixed requests; the dispatch pool may complete
  // them in any order, but the wire must deliver responses in request
  // order. Interleaved introspection (answered inline on the loop thread)
  // must hold its pipeline position too.
  constexpr uint64_t kRequests = 200;
  std::string burst;
  for (uint64_t id = 0; id < kRequests; ++id) {
    switch (id % 5) {
      case 0:
        burst += EncodeRequest(Skyline(id, 0b11));
        break;
      case 1: {
        WireRequest request = Skyline(id, 0b1001);
        request.op = Opcode::kCardinality;
        burst += EncodeRequest(request);
        break;
      }
      case 2: {
        WireRequest request = Simple(Opcode::kMembershipCount, id);
        request.object = static_cast<ObjectId>(id % 300);
        burst += EncodeRequest(request);
        break;
      }
      case 3:
        burst += EncodeRequest(Simple(Opcode::kSkycubeSize, id));
        break;
      default:
        burst += EncodeRequest(Simple(Opcode::kPing, id));
        break;
    }
  }
  client.Send(burst);
  for (uint64_t id = 0; id < kRequests; ++id) {
    const WireResponse response = client.ReadResponse();
    ASSERT_EQ(response.id, id) << "responses out of order";
    EXPECT_EQ(response.status, StatusCode::kOk);
  }
}

TEST_F(NetServerTest, ManyConcurrentConnections) {
  StartServer();
  constexpr int kClients = 50;
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<TestClient>(server_->port()));
    ASSERT_TRUE(clients.back()->connected()) << "client " << i;
  }
  // All clients write before any reads: the server must serve them
  // interleaved, not serially.
  for (int i = 0; i < kClients; ++i) {
    clients[i]->SendRequest(Skyline(static_cast<uint64_t>(i), 0b11));
  }
  const std::vector<ObjectId> expected = cube_->SubspaceSkyline(0b11);
  for (int i = 0; i < kClients; ++i) {
    const WireResponse response = clients[i]->ReadResponse();
    EXPECT_EQ(response.id, static_cast<uint64_t>(i));
    EXPECT_EQ(response.ids, expected);
  }
  EXPECT_EQ(server_->stats().connections_accepted,
            static_cast<uint64_t>(kClients));
}

TEST_F(NetServerTest, CorruptedFrameAnswersGoAwayAndCloses) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // A valid request first proves the stream worked before the corruption.
  client.SendRequest(Simple(Opcode::kPing, 1));
  EXPECT_EQ(client.ReadResponse().id, 1u);

  std::string bad = EncodeRequest(Simple(Opcode::kPing, 2));
  bad[6] = static_cast<char>(bad[6] ^ 0xFF);  // corrupt the checksum
  client.Send(bad);
  const WireGoAway goaway = client.ReadGoAway();
  EXPECT_EQ(goaway.status, StatusCode::kInvalidArgument);
  EXPECT_FALSE(goaway.reason.empty());
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(server_->stats().protocol_errors, 1u);
}

TEST_F(NetServerTest, OversizedDeclaredLengthAnswersGoAwayAndCloses) {
  NetServerOptions options;
  options.max_frame_payload = 4096;
  StartServer(options);
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  std::string header(kFrameHeaderBytes, '\0');
  const uint32_t declared = 1u << 30;
  std::memcpy(header.data(), &declared, sizeof(declared));
  client.Send(header);
  EXPECT_EQ(client.ReadGoAway().status, StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.AtEof());
}

TEST_F(NetServerTest, GarbageOpcodeAnswersGoAwayAndCloses) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // Correctly framed payload whose opcode byte is garbage: framing is
  // intact but the request is unintelligible — same fate, goaway + close.
  std::string payload(9, '\0');
  payload[0] = static_cast<char>(0xEE);
  std::string frame;
  AppendFrame(payload, &frame);
  client.Send(frame);
  EXPECT_EQ(client.ReadGoAway().status, StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.AtEof());
}

TEST_F(NetServerTest, DispatchQueueFullShedsWithResourceExhausted) {
  // One worker, a one-slot queue, and an insert blocked on the gate: the
  // worker is provably busy and the queue provably full when the third
  // client's request arrives — it must be answered kResourceExhausted
  // immediately (explicit shed), not sit in a kernel buffer.
  NetServerOptions options;
  options.dispatch_threads = 1;
  options.dispatch_queue_capacity = 1;
  StartServer(options);

  TestClient blocked(server_->port());
  TestClient queued(server_->port());
  TestClient shed(server_->port());
  ASSERT_TRUE(blocked.connected());
  ASSERT_TRUE(queued.connected());
  ASSERT_TRUE(shed.connected());

  handler_->CloseGate();
  WireRequest insert = Simple(Opcode::kInsert, 1);
  insert.values = {0.5, 0.5, 0.5, 0.5};
  blocked.SendRequest(insert);
  handler_->AwaitBlockedInsert();  // the only worker is now busy

  queued.SendRequest(Skyline(2, 0b11));  // occupies the single queue slot
  // The queued batch cannot have been picked up (the worker is blocked);
  // give the loop thread a moment to have submitted it.
  while (server_->stats().frames_in < 2) {
    std::this_thread::yield();
  }

  shed.SendRequest(Skyline(3, 0b11));
  const WireResponse refused = shed.ReadResponse();
  EXPECT_EQ(refused.id, 3u);
  EXPECT_EQ(refused.status, StatusCode::kResourceExhausted);
  EXPECT_NE(refused.text.find("overloaded"), std::string::npos);
  EXPECT_GE(server_->stats().dispatch_shed, 1u);

  // Releasing the gate completes the blocked insert and the queued query —
  // shedding one request must not corrupt the others.
  handler_->OpenGate();
  EXPECT_EQ(blocked.ReadResponse().status, StatusCode::kOk);
  EXPECT_EQ(queued.ReadResponse().status, StatusCode::kOk);
}

TEST_F(NetServerTest, ServiceAdmissionGateShedsThroughTheWire) {
  // The service's own max_in_flight gate must surface on the wire exactly
  // as it does in-process: kResourceExhausted per refused request.
  NetServerOptions options;
  options.dispatch_threads = 2;
  SkycubeServiceOptions service_options;
  service_options.max_in_flight = 1;
  service_options.queue_wait_timeout = std::chrono::milliseconds(0);
  StartServer(options, service_options);

  TestClient blocked(server_->port());
  TestClient refused(server_->port());
  ASSERT_TRUE(blocked.connected());
  ASSERT_TRUE(refused.connected());

  handler_->CloseGate();
  WireRequest insert = Simple(Opcode::kInsert, 1);
  insert.values = {0.5, 0.5, 0.5, 0.5};
  blocked.SendRequest(insert);
  handler_->AwaitBlockedInsert();  // one admission slot held inside Execute

  refused.SendRequest(Skyline(2, 0b11));
  const WireResponse response = refused.ReadResponse();
  EXPECT_EQ(response.status, StatusCode::kResourceExhausted);

  handler_->OpenGate();
  EXPECT_EQ(blocked.ReadResponse().status, StatusCode::kOk);
}

TEST_F(NetServerTest, DeadlineExpiresWhileQueuedBehindSaturatedPool) {
  // deadline_millis is attached at decode time, so time spent queued
  // behind a busy pool counts: a request held past its budget answers
  // kDeadlineExceeded, it does not run anyway.
  NetServerOptions options;
  options.dispatch_threads = 1;
  options.deadline_millis = 50;
  StartServer(options);

  TestClient blocked(server_->port());
  TestClient late(server_->port());
  ASSERT_TRUE(blocked.connected());
  ASSERT_TRUE(late.connected());

  handler_->CloseGate();
  WireRequest insert = Simple(Opcode::kInsert, 1);
  insert.values = {0.5, 0.5, 0.5, 0.5};
  blocked.SendRequest(insert);
  handler_->AwaitBlockedInsert();

  late.SendRequest(Skyline(2, 0b11));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  handler_->OpenGate();

  EXPECT_EQ(blocked.ReadResponse().status, StatusCode::kOk);
  EXPECT_EQ(late.ReadResponse().status, StatusCode::kDeadlineExceeded);
}

TEST_F(NetServerTest, ConnectionLimitRefusesWithResourceExhausted) {
  NetServerOptions options;
  options.max_connections = 2;
  StartServer(options);
  TestClient first(server_->port());
  TestClient second(server_->port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(second.connected());
  // Make sure both are registered before the third connects.
  first.SendRequest(Simple(Opcode::kPing, 1));
  second.SendRequest(Simple(Opcode::kPing, 2));
  first.ReadResponse();
  second.ReadResponse();

  TestClient third(server_->port());
  ASSERT_TRUE(third.connected());
  EXPECT_EQ(third.ReadGoAway().status, StatusCode::kResourceExhausted);
  EXPECT_TRUE(third.AtEof());
  EXPECT_EQ(server_->stats().connections_refused_limit, 1u);
}

TEST_F(NetServerTest, DrainCompletesInFlightRefusesNewAndReturns) {
  NetServerOptions options;
  options.dispatch_threads = 1;
  StartServer(options);

  TestClient inflight(server_->port());
  ASSERT_TRUE(inflight.connected());

  // Pipeline an insert (which will block on the gate) and a query behind
  // it — both are decoded and in flight when the drain begins.
  handler_->CloseGate();
  WireRequest insert = Simple(Opcode::kInsert, 1);
  insert.values = {0.5, 0.5, 0.5, 0.5};
  std::string burst = EncodeRequest(insert) + EncodeRequest(Skyline(2, 0b11));
  inflight.Send(burst);
  handler_->AwaitBlockedInsert();

  server_->BeginDrain();
  EXPECT_TRUE(server_->draining());

  // New connections are refused with an explicit kUnavailable goaway while
  // the drain holds the server open.
  TestClient refused(server_->port());
  ASSERT_TRUE(refused.connected());
  EXPECT_EQ(refused.ReadGoAway().status, StatusCode::kUnavailable);
  EXPECT_TRUE(refused.AtEof());

  // In-flight requests complete and their responses are flushed.
  handler_->OpenGate();
  const WireResponse first = inflight.ReadResponse();
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(first.status, StatusCode::kOk);
  const WireResponse second = inflight.ReadResponse();
  EXPECT_EQ(second.id, 2u);
  EXPECT_EQ(second.status, StatusCode::kOk);

  // The connection closes once idle and Run() returns.
  EXPECT_TRUE(inflight.AtEof());
  serve_thread_.join();
  EXPECT_EQ(server_->stats().connections_open, 0u);
  EXPECT_EQ(server_->stats().connections_refused_draining, 1u);
}

TEST_F(NetServerTest, DrainWithIdleConnectionsReturnsImmediately) {
  StartServer();
  TestClient idle(server_->port());
  ASSERT_TRUE(idle.connected());
  idle.SendRequest(Simple(Opcode::kPing, 1));
  idle.ReadResponse();

  server_->BeginDrain();
  EXPECT_TRUE(idle.AtEof());  // idle connections close right away
  serve_thread_.join();
}

}  // namespace
}  // namespace skycube::net
