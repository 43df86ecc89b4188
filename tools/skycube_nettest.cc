// skycube_nettest — end-to-end harness for the socket mode of
// skycube_serve (docs/NET.md). Forks a real server child, scrapes the
// "listening on HOST:PORT" line from its stderr, and drives the binary
// protocol over genuine loopback TCP:
//
//   round 1  pipeline: N mixed Q1/Q2/Q3 + insert requests in one burst;
//            every response arrives, in request order, with correct
//            version bumps across the inserts; health/stats opcodes answer
//            the serve-tool text lines over the wire;
//   round 2  malformed bytes: a corrupted frame is answered with one
//            kGoAway(kInvalidArgument) and a close — the server stays up
//            and keeps serving other connections;
//   round 3  SIGTERM drain: responses to a just-sent burst still arrive in
//            order (in-flight requests complete), a post-signal connection
//            is refused (kUnavailable goaway, or the closed listener's
//            ECONNREFUSED once the drain finished), the old connection
//            ends in clean EOF, and the child exits 0.
//
// Usage (registered as a ctest test):
//   skycube_nettest --serve=PATH [--tuples=N] [--dims=D] [--seed=S]
#include <signal.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/flags.h"
#include "harness/harness.h"
#include "net/client.h"
#include "net/protocol.h"

namespace skycube {
namespace {

int g_failures = 0;

#define CHECK_NET(cond, ...)                      \
  do {                                            \
    if (!(cond)) {                                \
      std::fprintf(stderr, "FAIL ");              \
      std::fprintf(stderr, __VA_ARGS__);          \
      std::fprintf(stderr, "\n");                 \
      ++g_failures;                               \
      return false;                               \
    }                                             \
  } while (0)

/// The harness speaks the wire through the shared src/net client. A hung
/// server fails the harness via the read deadline instead of wedging ctest.
constexpr int64_t kReadTimeoutMillis = 30000;

/// Connects to the server's loopback port; false (after logging) on refusal.
bool Connect(net::NetClient* client, uint16_t port) {
  const Status status = client->Connect("127.0.0.1", port);
  if (!status.ok()) {
    std::fprintf(stderr, "connect: %s\n", status.ToString().c_str());
  }
  return status.ok();
}

enum class Got { kPayload, kEof, kError };

/// Next raw frame payload (any opcode — the rounds inspect goaways
/// themselves). Timeouts and framing errors both report kError.
Got ReadPayload(net::NetClient* client, std::string* payload) {
  std::string error;
  switch (client->ReadFrame(payload,
                            Deadline::AfterMillis(kReadTimeoutMillis),
                            &error)) {
    case net::NetClient::Got::kFrame:
      return Got::kPayload;
    case net::NetClient::Got::kEof:
      return Got::kEof;
    case net::NetClient::Got::kTimeout:
      std::fprintf(stderr, "client read timeout\n");
      return Got::kError;
    default:
      std::fprintf(stderr, "client read error: %s\n", error.c_str());
      return Got::kError;
  }
}

net::WireRequest Request(net::Opcode op, uint64_t id) {
  net::WireRequest request;
  request.op = op;
  request.id = id;
  return request;
}

/// Builds the mixed pipeline burst: requests with ids 0..count-1 cycling
/// through every query opcode plus periodic inserts.
std::string MixedBurst(uint64_t count, int dims, uint64_t first_id = 0) {
  std::string burst;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t id = first_id + i;
    net::WireRequest request;
    switch (i % 6) {
      case 0:
        request = Request(net::Opcode::kSkyline, id);
        request.subspace = 0b11;
        break;
      case 1:
        request = Request(net::Opcode::kCardinality, id);
        request.subspace = (1u << dims) - 1;
        break;
      case 2:
        request = Request(net::Opcode::kMembership, id);
        request.subspace = 0b101;
        request.object = static_cast<ObjectId>(id % 50);
        break;
      case 3:
        request = Request(net::Opcode::kMembershipCount, id);
        request.object = static_cast<ObjectId>(id % 50);
        break;
      case 4:
        request = Request(net::Opcode::kSkycubeSize, id);
        break;
      default:
        request = Request(net::Opcode::kInsert, id);
        for (int d = 0; d < dims; ++d) {
          request.values.push_back(0.9 - 0.001 * static_cast<double>(id));
        }
        break;
    }
    burst += EncodeRequest(request);
  }
  return burst;
}

bool RunPipelineRound(uint16_t port, int dims) {
  net::NetClient client;
  CHECK_NET(Connect(&client, port), "pipeline: connect failed");

  constexpr uint64_t kRequests = 120;
  CHECK_NET(client.Send(MixedBurst(kRequests, dims)).ok(),
            "pipeline: send failed");

  uint64_t last_version = 0;
  for (uint64_t id = 0; id < kRequests; ++id) {
    std::string payload;
    CHECK_NET(ReadPayload(&client, &payload) == Got::kPayload,
              "pipeline: stream ended at response %llu",
              static_cast<unsigned long long>(id));
    CHECK_NET(net::PayloadOpcode(payload) == net::Opcode::kResponse,
              "pipeline: unexpected opcode at response %llu",
              static_cast<unsigned long long>(id));
    Result<net::WireResponse> decoded = net::ParseResponse(payload);
    CHECK_NET(decoded.ok(), "pipeline: bad response: %s",
              decoded.status().ToString().c_str());
    const net::WireResponse& response = decoded.value();
    CHECK_NET(response.id == id,
              "pipeline: out of order: got id %llu at position %llu",
              static_cast<unsigned long long>(response.id),
              static_cast<unsigned long long>(id));
    CHECK_NET(response.status == StatusCode::kOk,
              "pipeline: request %llu failed: %s",
              static_cast<unsigned long long>(id), response.text.c_str());
    // Inserts swap the snapshot: versions must be non-decreasing and grow
    // by exactly one across each insert acknowledgement.
    CHECK_NET(response.snapshot_version >= last_version,
              "pipeline: version went backwards at %llu",
              static_cast<unsigned long long>(id));
    if (response.request_op == net::Opcode::kInsert) {
      last_version = response.snapshot_version;
    }
  }
  CHECK_NET(last_version >= 2, "pipeline: inserts never bumped the version");

  // Introspection over the wire: the serve-tool health and stats lines.
  CHECK_NET(client
                .Send(EncodeRequest(Request(net::Opcode::kHealth, 1000)) +
                      EncodeRequest(Request(net::Opcode::kStats, 1001)))
                .ok(),
            "pipeline: introspection send failed");
  std::string payload;
  CHECK_NET(ReadPayload(&client, &payload) == Got::kPayload,
            "pipeline: no health response");
  Result<net::WireResponse> health = net::ParseResponse(payload);
  CHECK_NET(health.ok(), "pipeline: bad health response");
  CHECK_NET(health.value().text.find("status=ready") != std::string::npos,
            "pipeline: bad health line: '%s'", health.value().text.c_str());
  CHECK_NET(ReadPayload(&client, &payload) == Got::kPayload,
            "pipeline: no stats response");
  Result<net::WireResponse> stats = net::ParseResponse(payload);
  CHECK_NET(stats.ok(), "pipeline: bad stats response");
  CHECK_NET(stats.value().text.find("queries=") != std::string::npos,
            "pipeline: bad stats line: '%s'", stats.value().text.c_str());
  return true;
}

bool RunMalformedRound(uint16_t port) {
  net::NetClient victim;
  CHECK_NET(Connect(&victim, port), "malformed: connect failed");
  std::string bad = EncodeRequest(Request(net::Opcode::kPing, 1));
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x01);
  CHECK_NET(victim.Send(bad).ok(), "malformed: send failed");

  std::string payload;
  CHECK_NET(ReadPayload(&victim, &payload) == Got::kPayload,
            "malformed: expected a goaway frame");
  CHECK_NET(net::PayloadOpcode(payload) == net::Opcode::kGoAway,
            "malformed: expected kGoAway, got opcode %d", int(payload[0]));
  Result<net::WireGoAway> goaway = net::ParseGoAway(payload);
  CHECK_NET(goaway.ok(), "malformed: unparseable goaway");
  CHECK_NET(goaway.value().status == StatusCode::kInvalidArgument,
            "malformed: wrong goaway status");
  CHECK_NET(ReadPayload(&victim, &payload) == Got::kEof,
            "malformed: server did not close the broken stream");

  // The server survives: a fresh connection still answers.
  net::NetClient fresh;
  CHECK_NET(Connect(&fresh, port), "malformed: reconnect failed");
  CHECK_NET(fresh.Send(EncodeRequest(Request(net::Opcode::kPing, 2))).ok(),
            "malformed: ping send failed");
  CHECK_NET(ReadPayload(&fresh, &payload) == Got::kPayload,
            "malformed: server stopped answering after a protocol error");
  return true;
}

bool RunDrainRound(harness::Child* server, int dims) {
  net::NetClient inflight;
  CHECK_NET(Connect(&inflight, server->port()), "drain: connect failed");
  // A burst is on the wire (and mostly decoded) when the signal lands.
  constexpr uint64_t kRequests = 48;
  CHECK_NET(inflight.Send(MixedBurst(kRequests, dims)).ok(),
            "drain: send failed");
  CHECK_NET(server->Kill(SIGTERM), "drain: kill failed");

  // Every response that arrives must still be in order; the connection
  // must end in clean EOF (requests not yet decoded when the drain began
  // are dropped with the connection, never answered out of order).
  uint64_t next_id = 0;
  for (;;) {
    std::string payload;
    const Got got = ReadPayload(&inflight, &payload);
    if (got == Got::kEof) break;
    CHECK_NET(got == Got::kPayload, "drain: broken stream");
    if (net::PayloadOpcode(payload) == net::Opcode::kGoAway) continue;
    Result<net::WireResponse> decoded = net::ParseResponse(payload);
    CHECK_NET(decoded.ok(), "drain: bad response");
    CHECK_NET(decoded.value().id == next_id,
              "drain: out of order after SIGTERM (got %llu, want %llu)",
              static_cast<unsigned long long>(decoded.value().id),
              static_cast<unsigned long long>(next_id));
    ++next_id;
  }

  // A post-signal connection is refused: with the drain still open, an
  // explicit kUnavailable goaway; once the listener is closed,
  // ECONNREFUSED. Either way it must never be served.
  net::NetClient late;
  if (late.Connect("127.0.0.1", server->port()).ok()) {
    std::string payload;
    const Got got = ReadPayload(&late, &payload);
    if (got == Got::kPayload) {
      CHECK_NET(net::PayloadOpcode(payload) == net::Opcode::kGoAway,
                "drain: late connection was served instead of refused");
      Result<net::WireGoAway> goaway = net::ParseGoAway(payload);
      CHECK_NET(goaway.ok(), "drain: unparseable goaway");
      CHECK_NET(goaway.value().status == StatusCode::kUnavailable,
                "drain: late connection refused with the wrong status");
      CHECK_NET(ReadPayload(&late, &payload) == Got::kEof,
                "drain: refused connection not closed");
    } else {
      CHECK_NET(got == Got::kEof, "drain: broken late stream");
    }
  }

  const int exit_code = server->Wait();
  CHECK_NET(exit_code == 0, "drain: server exited %d after SIGTERM",
            exit_code);
  return true;
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  const std::string serve = flags.GetString("serve", "");
  if (serve.empty()) {
    std::fprintf(stderr, "usage: skycube_nettest --serve=PATH\n");
    return 2;
  }
  const int tuples = static_cast<int>(flags.GetInt("tuples", 400));
  const int dims = static_cast<int>(flags.GetInt("dims", 4));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 17));

  const std::vector<std::string> args = {
      "--synthetic",
      "--tuples=" + std::to_string(tuples),
      "--dims=" + std::to_string(dims),
      "--seed=" + std::to_string(seed),
      "--port=0",
  };
  Result<harness::Child> spawned =
      harness::Child::SpawnListening(serve, args);
  if (!spawned.ok()) {
    std::fprintf(stderr, "FAIL %s\n", spawned.status().ToString().c_str());
    return 1;
  }
  // Destroying the Child kills a server the drain round left running.
  harness::Child server = std::move(spawned).value();
  std::fprintf(stderr, "server pid %d on port %u\n", int(server.pid()),
               unsigned(server.port()));

  if (RunPipelineRound(server.port(), dims)) {
    std::fprintf(stderr, "PASS pipeline round\n");
  }
  if (RunMalformedRound(server.port())) {
    std::fprintf(stderr, "PASS malformed round\n");
  }
  if (RunDrainRound(&server, dims)) {
    std::fprintf(stderr, "PASS drain round\n");
  }

  if (g_failures > 0) {
    std::fprintf(stderr, "skycube_nettest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "skycube_nettest: all rounds passed\n");
  return 0;
}

}  // namespace
}  // namespace skycube

int main(int argc, char** argv) { return skycube::Main(argc, argv); }
