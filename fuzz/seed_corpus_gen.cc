// Seed-corpus generator: writes structure-valid inputs for every fuzz
// target into <out>/<target>/, built with the real encoders — so the
// fuzzer starts from deep inside the accept-state space instead of
// spending its budget rediscovering magic bytes and checksums.
//
//   skycube_fuzz_seedgen <output-root>
//
// Run automatically as a ctest fixture (the replay tests feed the seeds
// through every harness in normal builds) and by the CI fuzz-smoke job to
// prime each target's working corpus. The regression corpora under
// fuzz/regression/ are generated from these seeds plus hand-mutated
// variants (truncations, bit flips, forged-checksum wrappers) and are
// checked in — see docs/STATIC_ANALYSIS.md.
#include <stdlib.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/reference.h"
#include "core/serialization.h"
#include "fuzz_util.h"
#include "net/protocol.h"
#include "storage/checkpointer.h"
#include "storage/replication.h"
#include "storage/wal.h"

namespace skycube {
namespace {

int g_failures = 0;

void WriteSeed(const std::string& root, const std::string& target,
               const std::string& name, std::string_view bytes) {
  const std::string dir = root + "/" + target;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + name;
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "seedgen: cannot write %s\n", path.c_str());
    ++g_failures;
    return;
  }
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), file);
  std::fclose(file);
}

/// A small dataset with a non-trivial cube (two groups share projections).
Dataset SampleData() {
  Dataset data(3, {"price", "dist", "rating"});
  data.AddRow({1.0, 4.0, 2.0});
  data.AddRow({2.0, 1.0, 3.0});
  data.AddRow({1.0, 4.0, 5.0});
  data.AddRow({3.0, 3.0, 1.0});
  return data;
}

void NetSeeds(const std::string& root) {
  using namespace skycube::net;
  std::vector<WireRequest> requests;
  {
    WireRequest r;
    r.op = Opcode::kSkyline;
    r.id = 7;
    r.subspace = 0b101;
    requests.push_back(r);
    r = {};
    r.op = Opcode::kMembership;
    r.id = 8;
    r.subspace = 0b11;
    r.object = 42;
    requests.push_back(r);
    r = {};
    r.op = Opcode::kInsert;
    r.id = 9;
    r.values = {1.5, -2.25, 3.0};
    requests.push_back(r);
    r = {};
    r.op = Opcode::kEpochDiff;
    r.id = 10;
    r.subspace = 0b111;
    r.since_version = 12;
    requests.push_back(r);
    r = {};
    r.op = Opcode::kReplFetch;
    r.id = 11;
    r.ack_lsn = 100;
    r.max_records = 64;
    r.wait_millis = 250;
    requests.push_back(r);
    r = {};
    r.op = Opcode::kPing;
    r.id = 12;
    requests.push_back(r);
  }
  std::string pipelined;
  pipelined.push_back(0);  // frame-decoder mode 0: raw stream
  pipelined.push_back(16);  // chunk size
  int i = 0;
  for (const WireRequest& request : requests) {
    const std::string frame = EncodeRequest(request);
    WriteSeed(root, "wire_request", "request-" + std::to_string(i),
              std::string_view(frame).substr(kFrameHeaderBytes));
    pipelined += frame;
    ++i;
  }
  WriteSeed(root, "frame_decoder", "pipelined-requests", pipelined);

  // A structurally valid insert carrying NaN and ±inf: the transport keeps
  // the bit patterns, and the service and router refuse the row.
  WireRequest nonfinite;
  nonfinite.op = Opcode::kInsert;
  nonfinite.id = 13;
  nonfinite.values = {std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity(),
                      -std::numeric_limits<double>::infinity()};
  const std::string nonfinite_frame = EncodeRequest(nonfinite);
  WriteSeed(root, "wire_request", "insert-nonfinite",
            std::string_view(nonfinite_frame).substr(kFrameHeaderBytes));

  WireResponse ok;
  ok.id = 7;
  ok.request_op = Opcode::kSkyline;
  ok.snapshot_version = 4;
  ok.ids = {0, 2, 5};
  WireResponse diff;
  diff.id = 10;
  diff.request_op = Opcode::kEpochDiff;
  diff.ids = {1};
  diff.left_ids = {3, 4};
  WireResponse err;
  err.id = 9;
  err.request_op = Opcode::kInsert;
  err.status = StatusCode::kResourceExhausted;
  err.text = "shed: queue full";
  WireResponse repl;
  repl.id = 11;
  repl.request_op = Opcode::kReplFetch;
  repl.lsn = 104;
  repl.text = EncodeShippedRecords(
      {{101, EncodeInsertPayload({1.0, 2.0, 3.0}, 5, 1700000000000)},
       {102, EncodeDeletePayload(2, 1700000000500)}});
  i = 0;
  for (const WireResponse* response : {&ok, &diff, &err, &repl}) {
    const std::string frame = EncodeResponse(*response);
    WriteSeed(root, "wire_response", "response-" + std::to_string(i),
              std::string_view(frame).substr(kFrameHeaderBytes));
    ++i;
  }
  const std::string goaway =
      EncodeGoAway(StatusCode::kUnavailable, "draining");
  WriteSeed(root, "wire_response", "goaway",
            std::string_view(goaway).substr(kFrameHeaderBytes));

  // Frame-decoder mode 1: wrap-this-payload seed; mode 3: byte-at-a-time.
  std::string wrapped;
  wrapped.push_back(1);
  wrapped.push_back(3);
  wrapped.append(std::string_view(EncodeRequest(requests[2]))
                     .substr(kFrameHeaderBytes));
  WriteSeed(root, "frame_decoder", "wrapped-insert", wrapped);
  std::string trickle;
  trickle.push_back(3);
  trickle.push_back(0);
  trickle += EncodeResponse(ok);
  WriteSeed(root, "frame_decoder", "trickled-response", trickle);
}

void WalSeeds(const std::string& root) {
  const std::string insert =
      EncodeInsertPayload({2.5, -1.0, 7.75}, 9, 1700000001000);
  const std::string tombstone = EncodeDeletePayload(4, 1700000002000);
  const std::string legacy = EncodeRowPayload({3.0, 1.0, 2.0});
  WriteSeed(root, "wal_record", "insert-v3", insert);
  WriteSeed(root, "wal_record", "delete-v3", tombstone);
  WriteSeed(root, "wal_record", "legacy-v2", legacy);

  // Segment seeds: mode 0 carries a complete serialized segment; modes
  // 1–2 let the harness build records and use the rest as a torn tail.
  std::string blob = "SKYWAL01";
  blob += fuzz::WalRecordBytes(1, insert);
  blob += fuzz::WalRecordBytes(2, tombstone);
  blob += fuzz::WalRecordBytes(3, legacy);
  std::string raw;
  raw.push_back(0);
  raw += blob;
  WriteSeed(root, "wal_segment", "segment-raw", raw);
  std::string torn;
  torn.push_back(1);
  torn.push_back(2);  // record count selector
  torn += insert.substr(0, insert.size() / 2);
  WriteSeed(root, "wal_segment", "segment-torn-tail", torn);
  std::string split;
  split.push_back(2);
  split.push_back(1);
  split += legacy;
  WriteSeed(root, "wal_segment", "segment-split", split);

  WriteSeed(root, "shipped_records", "batch",
            EncodeShippedRecords({{11, insert}, {12, tombstone}}));
  WriteSeed(root, "shipped_records", "single",
            EncodeShippedRecords({{1, legacy}}));
}

void CheckpointSeeds(const std::string& root) {
  const Dataset data = SampleData();
  const SkylineGroupSet groups = ComputeReferenceCube(data);

  // Cube seeds straight from the serializer: mode 0 raw, mode 1 body-only
  // (the harness re-wraps it with a forged checksum).
  const std::string cube =
      SerializeCube(data.num_dims(), data.num_objects(), groups,
                    data.dim_names());
  std::string raw;
  raw.push_back(0);
  raw += cube;
  WriteSeed(root, "cube_serialization", "cube-raw", raw);
  const size_t cube_body = cube.find('\n', cube.find("checksum"));
  if (cube_body != std::string::npos) {
    std::string body;
    body.push_back(1);
    body += cube.substr(cube_body + 1);
    WriteSeed(root, "cube_serialization", "cube-body", body);
  }

  // Checkpoint seeds via the real writer (temp dir, then read the file).
  std::string tmpl = "/tmp/skycube-seedgen-XXXXXX";
  const char* made = ::mkdtemp(tmpl.data());
  if (made == nullptr) {
    std::fprintf(stderr, "seedgen: mkdtemp failed\n");
    ++g_failures;
    return;
  }
  const std::string dir = made;
  Checkpointer checkpointer(dir);
  std::vector<uint8_t> live(data.num_objects(), 1);
  live[3] = 0;
  std::vector<uint64_t> stamps(data.num_objects(), 1700000000000);
  if (Status status = checkpointer.Write(5, data, groups, live, stamps);
      !status.ok()) {
    std::fprintf(stderr, "seedgen: checkpoint write failed: %s\n",
                 status.ToString().c_str());
    ++g_failures;
    return;
  }
  std::string text;
  {
    const std::string path = dir + "/" + CheckpointFileName(5);
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file != nullptr) {
      char buffer[1 << 16];
      size_t n;
      while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
        text.append(buffer, n);
      }
      std::fclose(file);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (text.empty()) {
    std::fprintf(stderr, "seedgen: checkpoint file unreadable\n");
    ++g_failures;
    return;
  }
  std::string ckpt_raw;
  ckpt_raw.push_back(0);
  ckpt_raw += text;
  WriteSeed(root, "checkpoint", "checkpoint-raw", ckpt_raw);
  const size_t ckpt_body = text.find('\n', text.find("checksum"));
  if (ckpt_body != std::string::npos) {
    std::string body;
    body.push_back(1);
    body += text.substr(ckpt_body + 1);
    WriteSeed(root, "checkpoint", "checkpoint-body", body);
  }
}

void CsvSeeds(const std::string& root) {
  std::string with_header;
  with_header.push_back(1);  // has_header, comma
  with_header += "price,dist,rating\n1,4,2\n2,1,3\n1.5,4.25,5\n";
  WriteSeed(root, "csv", "header-comma", with_header);
  std::string bare;
  bare.push_back(0);  // no header, comma
  bare += "1,2\n3,4\n-5.5,6e3\n";
  WriteSeed(root, "csv", "bare-comma", bare);
  std::string tabbed;
  tabbed.push_back(5);  // has_header, tab
  tabbed += "a\tb\n1\t2\n";
  WriteSeed(root, "csv", "header-tab", tabbed);
}

int Run(const std::string& root) {
  NetSeeds(root);
  WalSeeds(root);
  CheckpointSeeds(root);
  CsvSeeds(root);
  if (g_failures == 0) {
    std::printf("seedgen: corpora written under %s\n", root.c_str());
  }
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace skycube

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: skycube_fuzz_seedgen <output-root>\n");
    return 2;
  }
  return skycube::Run(argv[1]);
}
