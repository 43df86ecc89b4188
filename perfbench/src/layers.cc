// The traced run's layer replay. The seeded streams of the workloads are
// replayed in process against each layer's public entry point in turn —
// CompressedSkylineCube, SkycubeService, a NetServer over the wire,
// ShardedSkycubeService, skycube's RouterExecutor behind a NetServer,
// router::MergeSkylineCandidates, IncrementalCubeMaintainer, DurableIngest
// and ComputeStellar — with a span around every call. Self times come from
// subtracting the wrapped layer's span on the same request id.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "children.h"
#include "core/maintenance.h"
#include "core/stellar.h"
#include "dataset/ranked_view.h"
#include "net/server.h"
#include "oracle.h"
#include "router/merge.h"
#include "router/partition.h"
#include "router/router.h"
#include "router/sharded_service.h"
#include "service/ingest.h"
#include "service/service.h"
#include "skyline/algorithms.h"
#include "storage/durable_ingest.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using skycube::CompressedSkylineCube;
using skycube::Dataset;
using skycube::DimMask;
using skycube::ObjectId;
using skycube::QueryRequest;
using skycube::QueryResponse;
using skycube::SkycubeService;
namespace net = skycube::net;
namespace router = skycube::router;

/// Reads replayed through the single-node layers (about 1200 Q3 at the
/// mix's 2%, so every cube p99 meets the sample floor), and the prefix of
/// them replayed through the router layers (routed Q3 costs milliseconds;
/// the prefix holds about 30).
constexpr size_t kReadOps = 60000;
constexpr size_t kRoutedOps = 1500;
/// Ingest mutations replayed through the write layers; a checkpoint is
/// taken every kCheckpointEvery of them.
constexpr size_t kWriteOps = 300;
constexpr size_t kCheckpointEvery = 75;
/// Build passes per input; phase metrics are their medians.
constexpr int kBuildPasses = 2;
/// Request-id bases keeping the replays' ids apart.
constexpr uint64_t kWriteIdBase = 1'000'000;
constexpr uint64_t kBuildIdBase = 2'000'000;

/// Span names are built at run time but must outlive the tracer.
std::string_view Intern(const std::string& name) {
  static std::set<std::string> names;
  return *names.insert(name).first;
}

std::string Kind(int k) { return kKindNames[k]; }

double MedianOf(const Samples& samples) {
  return samples.empty() ? 0 : Median(samples.values());
}

/// A NetServer over `executor`, served from its own thread until destroyed.
class LocalServer {
 public:
  LocalServer(skycube::QueryExecutor* executor, int threads)
      : server_(executor, Options(threads)) {
    started_ = server_.Start().ok();
    if (started_) thread_ = std::thread([this] { server_.Run(); });
  }
  ~LocalServer() {
    if (started_) {
      server_.Stop();
      thread_.join();
    }
  }
  LocalServer(const LocalServer&) = delete;
  LocalServer& operator=(const LocalServer&) = delete;

  bool started() const { return started_; }
  uint16_t port() const { return server_.port(); }
  net::NetServerStats stats() const { return server_.stats(); }

 private:
  static net::NetServerOptions Options(int threads) {
    net::NetServerOptions options;
    options.dispatch_threads = threads;
    return options;
  }

  net::NetServer server_;
  bool started_ = false;
  std::thread thread_;
};

skycube::SkycubeServiceOptions ServiceOptions(int cache_capacity) {
  skycube::SkycubeServiceOptions options;
  options.cache.capacity = static_cast<size_t>(cache_capacity);
  return options;
}

std::shared_ptr<const CompressedSkylineCube> CubeOf(const Dataset& data) {
  return std::make_shared<const CompressedSkylineCube>(
      data.num_dims(), data.num_objects(), skycube::ComputeStellar(data));
}

// --- build: skyline, dataset, core Stellar ----------------------------------

void BuildLayers(const Config& cfg, Tracer* tracer, Report* report) {
  uint64_t request = kBuildIdBase;
  for (const std::string& name : BuildInputNames()) {
    const Dataset data = MakeInput(name, cfg.seed);
    const std::string_view skyline_span = Intern("skyline.full." + name);
    const std::string_view view_span = Intern("dataset.ranked_view." + name);
    const std::string_view stellar_span = Intern("core.stellar." + name);
    Samples phases[4];
    skycube::StellarStats stats;
    for (int pass = 0; pass < kBuildPasses; ++pass) {
      ++request;
      tracer->Time(request, skyline_span, [&] {
        return skycube::ComputeSkyline(data, data.full_mask()).size();
      });
      tracer->Time(request, view_span, [&] {
        const skycube::RankedView view(data);
        return view.num_objects();
      });
      tracer->Time(request, stellar_span, [&] {
        return skycube::ComputeStellar(data, {}, &stats).size();
      });
      phases[0].Add(stats.seconds_full_skyline * 1e3);
      phases[1].Add(stats.seconds_matrices * 1e3);
      phases[2].Add(stats.seconds_seed_groups * 1e3);
      phases[3].Add(stats.seconds_nonseed * 1e3);
    }
    report->Add("skyline.full_ms." + name,
                MedianOf(tracer->Durations(skyline_span)) / 1e3, "ms");
    report->Add("dataset.ranked_view_ms." + name,
                MedianOf(tracer->Durations(view_span)) / 1e3, "ms");
    report->Add("core.stellar.total_ms." + name,
                MedianOf(tracer->Durations(stellar_span)) / 1e3, "ms");
    const char* phase_names[4] = {"skyline", "matrices", "seed_groups",
                                  "nonseed"};
    for (int p = 0; p < 4; ++p) {
      report->Add(std::string("core.stellar.") + phase_names[p] + "_ms." + name,
                  MedianOf(phases[p]), "ms");
    }
    report->Add("core.stellar.seeds." + name,
                static_cast<double>(stats.num_seeds), "count");
    report->Add("core.stellar.groups." + name,
                static_cast<double>(stats.num_groups), "count");
  }
}

// --- reads: core cube, service, net, router ---------------------------------

/// Per-shard services over the ring's partition plus the router's row copy:
/// the in-process stand-in for a shard wave, used to time fan-out and merge.
struct ShardSet {
  explicit ShardSet(const Dataset& data)
      : topology(data.num_dims(), 2), gids(2) {
    std::vector<Dataset> parts(2, Dataset(data.num_dims()));
    for (ObjectId gid = 0; gid < data.num_objects(); ++gid) {
      topology.AppendRow(data.Row(gid));
      const size_t owner = topology.OwnerOf(gid);
      parts[owner].AddRow(std::vector<double>(
          data.Row(gid), data.Row(gid) + data.num_dims()));
      gids[owner].push_back(gid);
    }
    for (const Dataset& part : parts) {
      services.push_back(std::make_unique<SkycubeService>(
          CubeOf(part), ServiceOptions(kReadCacheCapacity)));
    }
  }

  router::RouterTopology topology;
  std::vector<std::vector<ObjectId>> gids;  // local id -> global id
  std::vector<std::unique_ptr<SkycubeService>> services;
};

void ReadLayers(const Config& cfg, Tracer* tracer, Report* report) {
  const Dataset data = MakeInput("read", cfg.seed);
  const auto cube = CubeOf(data);
  const ReadOracle oracle(cube);
  SkycubeService service(cube, ServiceOptions(kReadCacheCapacity));
  SkycubeService wire_service(cube, ServiceOptions(kReadCacheCapacity));
  LocalServer server(&wire_service, 2);
  WireConnection wire;
  if (!server.started() || !wire.Connect(server.port())) {
    report->Fail("trace: cannot start the in-process server");
    return;
  }

  // Single-node layers over the full stream (connection 0's stream).
  uint64_t wrong = 0;
  uint64_t hits[kKinds] = {};
  uint64_t counts[kKinds] = {};
  double wire_bytes = 0;
  {
    ReadStream stream(data.num_dims(), data.num_objects(),
                      StreamSeed(ReadStreamSeed(cfg.seed, 0), 0));
    for (uint64_t r = 1; r <= kReadOps; ++r) {
      const ReadOp op = stream.Next();
      const int k = KindIndex(op.kind);
      tracer->Time(r, Intern("core.cube." + Kind(k)),
                   [&] { return DirectAnswer(*cube, op); });
      // A cache hit never reaches the cube, so hits and misses get their
      // own span names: service self time is a hit's whole span, or a
      // miss's span minus the direct cube call.
      const int64_t begin = NowNanos();
      const QueryResponse answer = service.Execute(ToQuery(op));
      const char* outcome = answer.cache_hit ? "service.hit." : "service.miss.";
      tracer->Record(r, Intern(outcome + Kind(k)), begin, NowNanos());
      net::WireResponse response;
      const net::WireRequest request = ToWire(op);
      const bool sent = tracer->Time(r, Intern("net." + Kind(k)), [&] {
        return wire.Call(request, &response);
      });
      wrong += !oracle.Check(op, answer) +
               !(sent && oracle.Check(op, response));
      wire_bytes += static_cast<double>(net::EncodeRequest(request).size() +
                                        net::EncodeResponse(response).size());
      hits[k] += answer.cache_hit;
      ++counts[k];
    }
  }
  for (int k = 0; k < kKinds; ++k) {
    const std::string kind = Kind(k);
    const Samples cube_us = tracer->Durations(Intern("core.cube." + kind));
    report->Add("core.cube." + kind + "_us.p50", cube_us.Percentile(50), "us",
                cube_us.size());
    report->Add("core.cube." + kind + "_us.p99", cube_us.Percentile(99), "us",
                cube_us.size());
    const std::string_view hit = Intern("service.hit." + kind);
    const std::string_view miss = Intern("service.miss." + kind);
    Samples execute = tracer->Durations(hit);
    execute.Append(tracer->Durations(miss));
    Samples self = tracer->Durations(hit);
    self.Append(tracer->SelfTimes(miss, {Intern("core.cube." + kind)}));
    report->Add("service.execute_us." + kind, MedianOf(execute), "us");
    report->Add("service.self_us." + kind, MedianOf(self), "us");
    report->Add("service.cache_hit_ratio." + kind,
                counts[k] == 0 ? 0 : static_cast<double>(hits[k]) / counts[k],
                "ratio");
    Samples net_self = tracer->SelfTimes(Intern("net." + kind), {hit});
    net_self.Append(tracer->SelfTimes(Intern("net." + kind), {miss}));
    report->Add("net.self_us." + kind, MedianOf(net_self), "us");
  }
  report->Add("net.bytes_per_op", wire_bytes / kReadOps, "bytes");

  // Router layers over the stream's prefix: in-process sharded service,
  // the RouterExecutor over the wire, and a hand-driven wave + merge.
  router::ShardedServiceOptions sharded_options;
  sharded_options.num_shards = 2;
  sharded_options.service = ServiceOptions(kReadCacheCapacity);
  router::ShardedSkycubeService sharded(data, sharded_options);
  ShardSet wire_shards(data);
  std::vector<std::unique_ptr<LocalServer>> shard_servers;
  std::vector<router::ShardEndpoint> endpoints;
  for (const auto& shard : wire_shards.services) {
    shard_servers.push_back(std::make_unique<LocalServer>(shard.get(), 1));
    endpoints.push_back(
        router::ShardEndpoint{"127.0.0.1", shard_servers.back()->port()});
  }
  router::RouterExecutor router_executor(data.num_dims(), endpoints);
  for (ObjectId gid = 0; gid < data.num_objects(); ++gid) {
    router_executor.BootstrapRow(data.Row(gid));
  }
  LocalServer router_server(&router_executor, 2);
  WireConnection routed;
  if (!router_server.started() || !routed.Connect(router_server.port())) {
    report->Fail("trace: cannot start the in-process router");
    return;
  }
  ShardSet wave(data);
  const DimMask full = data.full_mask();
  uint64_t shard_calls[kKinds] = {};
  uint64_t routed_counts[kKinds] = {};
  double merged_in = 0;
  double merged_out = 0;
  Samples slowest[kKinds];
  {
    ReadStream stream(data.num_dims(), data.num_objects(),
                      StreamSeed(ReadStreamSeed(cfg.seed, 0), 0));
    for (uint64_t r = 1; r <= kRoutedOps; ++r) {
      const ReadOp op = stream.Next();
      const int k = KindIndex(op.kind);
      const uint64_t calls_before = sharded.scatter_stats().shard_calls;
      const QueryResponse answer = tracer->Time(
          r, Intern("router.sharded." + Kind(k)),
          [&] { return sharded.Execute(ToQuery(op)); });
      shard_calls[k] += sharded.scatter_stats().shard_calls - calls_before;
      ++routed_counts[k];
      net::WireResponse response;
      const bool sent = tracer->Time(r, Intern("router.wire." + Kind(k)), [&] {
        return routed.Call(ToWire(op), &response);
      });
      wrong += !oracle.Check(op, answer) +
               !(sent && oracle.Check(op, response));

      // Fan-out and merge by hand: each shard answers the wave's subspace
      // skylines (one for Q1, all 2^d - 1 for Q3), the slowest shard sets
      // the wave's time, and the per-subspace candidate unions are merged.
      if (op.kind != skycube::QueryKind::kSubspaceSkyline &&
          op.kind != skycube::QueryKind::kMembershipCount) {
        continue;
      }
      std::vector<DimMask> masks;
      if (op.kind == skycube::QueryKind::kSubspaceSkyline) {
        masks.push_back(op.subspace);
      } else {
        for (DimMask mask = 1; mask <= full; ++mask) masks.push_back(mask);
      }
      double slowest_us = 0;
      std::vector<std::vector<ObjectId>> candidates(masks.size());
      for (size_t s = 0; s < wave.services.size(); ++s) {
        const int64_t begin = NowNanos();
        std::vector<QueryResponse> answers;
        for (const DimMask mask : masks) {
          answers.push_back(
              wave.services[s]->Execute(QueryRequest::SubspaceSkyline(mask)));
        }
        slowest_us = std::max(slowest_us,
                              static_cast<double>(NowNanos() - begin) / 1e3);
        for (size_t j = 0; j < masks.size(); ++j) {
          for (const ObjectId local : *answers[j].ids) {
            candidates[j].push_back(wave.gids[s][local]);
          }
        }
      }
      slowest[k].Add(slowest_us);
      const int64_t begin = NowNanos();
      for (size_t j = 0; j < masks.size(); ++j) {
        const size_t in = candidates[j].size();
        const std::vector<ObjectId> merged = router::MergeSkylineCandidates(
            wave.topology.rows(), masks[j], std::move(candidates[j]));
        merged_in += static_cast<double>(in);
        merged_out += static_cast<double>(merged.size());
        wrong += merged != oracle.Skyline(masks[j]);
      }
      tracer->Record(r, Intern("router.merge." + Kind(k)), begin, NowNanos());
    }
  }
  for (int k = 0; k < kKinds; ++k) {
    const std::string kind = Kind(k);
    const std::string_view sharded_span = Intern("router.sharded." + kind);
    Samples router_self =
        tracer->SelfTimes(sharded_span, {Intern("service.hit." + kind)});
    router_self.Append(
        tracer->SelfTimes(sharded_span, {Intern("service.miss." + kind)}));
    report->Add("router.self_us." + kind, MedianOf(router_self), "us");
    report->Add("router.hop_us." + kind,
                MedianOf(tracer->SelfTimes(Intern("router.wire." + kind),
                                           {Intern("router.sharded." + kind)})),
                "us");
    report->Add("router.shard_calls_per_op." + kind,
                routed_counts[k] == 0
                    ? 0
                    : static_cast<double>(shard_calls[k]) / routed_counts[k],
                "count");
  }
  report->Add("router.merge_us", MedianOf(tracer->Durations("router.merge.q1")),
              "us");
  report->Add("router.merge_us.q3",
              MedianOf(tracer->Durations("router.merge.q3")), "us");
  report->Add("router.merge_keep_ratio",
              merged_in == 0 ? 0 : merged_out / merged_in, "ratio");
  report->Add("router.fanout_slowest_us.q1", MedianOf(slowest[0]), "us");
  report->Add("router.fanout_slowest_us.q3", MedianOf(slowest[2]), "us");

  report->Add("service.shed",
              static_cast<double>(service.stats().shed_total +
                                  wire_service.stats().shed_total),
              "count");
  report->Add("net.dispatch_shed",
              static_cast<double>(server.stats().dispatch_shed +
                                  router_server.stats().dispatch_shed),
              "count");
  if (wrong > 0) {
    report->failed += wrong;
    report->Fail("trace: " + std::to_string(wrong) +
                 " replayed reads differ from the oracle");
  }
}

// --- writes: core maintenance, storage, service swap, net -------------------

/// A volatile insert-capable service, as skycube_serve --data runs one.
struct VolatileService {
  explicit VolatileService(const Dataset& data)
      : maintainer(data), handler(&maintainer),
        service(std::make_shared<const CompressedSkylineCube>(
                    maintainer.MakeCube()),
                ServiceOptions(kIngestCacheCapacity)) {
    service.AttachInsertHandler(&handler);
  }
  skycube::IncrementalCubeMaintainer maintainer;
  skycube::MaintainerInsertHandler handler;
  SkycubeService service;
};

void IngestLayers(const Config& cfg, Tracer* tracer, Report* report) {
  const Dataset data = MakeInput("ingest", cfg.seed);
  skycube::IncrementalCubeMaintainer maintainer(data);
  const std::string dir = cfg.work_dir + "/trace-ingest-data";
  std::filesystem::remove_all(dir);
  skycube::DurableIngestOptions durable_options;
  durable_options.wal.fsync_policy = skycube::FsyncPolicy::kEveryRecord;
  durable_options.checkpoint_every = 0;  // checkpoints are timed explicitly
  auto opened = skycube::DurableIngest::Open(dir, &data, durable_options);
  if (!opened.ok()) {
    report->Fail("trace: " + opened.status().ToString());
    return;
  }
  skycube::DurableIngest& durable = *opened.value();
  VolatileService in_process(data);
  VolatileService served(data);
  LocalServer server(&served.service, 2);
  WireConnection wire;
  if (!server.started() || !wire.Connect(server.port())) {
    report->Fail("trace: cannot start the in-process ingest server");
    return;
  }

  WriteStream stream(data.num_dims(), data.num_objects(),
                     WriteStreamSeed(cfg.seed, 0));
  std::map<std::string, Samples> insert_paths;
  std::map<std::string, Samples> delete_paths;
  const uint64_t base_wal_bytes = durable.stats().wal.bytes_appended;
  const uint64_t base_fsyncs = durable.stats().wal.fsyncs;
  double user_bytes = 0;
  uint64_t mismatched = 0;
  for (uint64_t i = 1; i <= kWriteOps; ++i) {
    const uint64_t r = kWriteIdBase + i;
    const WriteOp op = stream.Next();
    const char* verb = op.insert ? "insert" : "delete";
    std::string path;
    if (op.insert) {
      const int64_t begin = NowNanos();
      const skycube::InsertPath taken = maintainer.Insert(op.values);
      tracer->Record(r, "core.maint.insert", begin, NowNanos());
      path = skycube::InsertPathName(taken);
      insert_paths[path].Add(tracer->spans().back().micros());
      user_bytes += static_cast<double>(op.values.size() * sizeof(double));
    } else {
      const int64_t begin = NowNanos();
      const skycube::DeletePath taken = maintainer.Remove(op.object);
      tracer->Record(r, "core.maint.delete", begin, NowNanos());
      path = skycube::DeletePathName(taken);
      delete_paths[path].Add(tracer->spans().back().micros());
      user_bytes += sizeof(ObjectId);
    }
    tracer->Time(r, "core.maint.make_cube",
                 [&] { return maintainer.MakeCube().num_groups(); });
    const auto applied = tracer->Time(
        r, Intern(std::string("storage.apply.") + verb), [&] {
          return op.insert ? durable.ApplyInsert(op.values)
                           : durable.ApplyDelete(op.object);
        });
    const QueryRequest request = op.insert
                                     ? QueryRequest::Insert(op.values)
                                     : QueryRequest::Delete(op.object);
    const QueryResponse answer =
        tracer->Time(r, Intern(std::string("service.") + verb),
                     [&] { return in_process.service.Execute(request); });
    net::WireRequest wire_request;
    wire_request.op = op.insert ? net::Opcode::kInsert : net::Opcode::kDelete;
    wire_request.values = op.values;
    wire_request.object = op.object;
    net::WireResponse response;
    const bool sent = tracer->Time(r, Intern(std::string("net.") + verb), [&] {
      return wire.Call(wire_request, &response);
    });
    if (i % kCheckpointEvery == 0) {
      tracer->Time(r, "storage.checkpoint",
                   [&] { return durable.Checkpoint().ok(); });
    }
    const size_t objects = maintainer.data().num_objects();
    mismatched += !applied.ok() || !answer.ok || !sent ||
                  response.status != skycube::StatusCode::kOk ||
                  applied.value().num_objects != objects ||
                  answer.count != response.count;
    if (op.insert) stream.Inserted(static_cast<ObjectId>(objects - 1));
  }
  if (durable.maintainer().groups() != maintainer.groups() ||
      in_process.maintainer.groups() != maintainer.groups() ||
      served.maintainer.groups() != maintainer.groups()) {
    ++mismatched;
  }
  if (mismatched > 0) {
    report->failed += mismatched;
    report->Fail("trace: the write layers disagree on " +
                 std::to_string(mismatched) + " mutations");
  }

  size_t inserts = 0;
  size_t deletes = 0;
  for (const auto& [path, samples] : insert_paths) inserts += samples.size();
  for (const auto& [path, samples] : delete_paths) deletes += samples.size();
  for (const char* path : {"duplicate", "noop", "extension", "recompute"}) {
    const Samples& samples = insert_paths[path];
    report->Add(std::string("core.maint.insert_us.") + path, samples.Mean(),
                "us", samples.size());
    report->Add(std::string("core.maint.insert_share.") + path,
                inserts == 0
                    ? 0
                    : static_cast<double>(samples.size()) / inserts,
                "ratio");
  }
  for (const char* path : {"dead", "patch", "extension", "recompute"}) {
    const Samples& samples = delete_paths[path];
    report->Add(std::string("core.maint.delete_us.") + path, samples.Mean(),
                "us", samples.size());
    report->Add(std::string("core.maint.delete_share.") + path,
                deletes == 0
                    ? 0
                    : static_cast<double>(samples.size()) / deletes,
                "ratio");
  }
  report->Add("core.maint.make_cube_us",
              MedianOf(tracer->Durations("core.maint.make_cube")), "us");
  report->Add("storage.apply_self_us.insert",
              MedianOf(tracer->SelfTimes(
                  "storage.apply.insert",
                  {"core.maint.insert", "core.maint.make_cube"})),
              "us");
  report->Add("storage.apply_self_us.delete",
              MedianOf(tracer->SelfTimes(
                  "storage.apply.delete",
                  {"core.maint.delete", "core.maint.make_cube"})),
              "us");
  const skycube::DurableIngestStats stats = durable.stats();
  report->Add("storage.fsyncs_per_ack",
              static_cast<double>(stats.wal.fsyncs - base_fsyncs) / kWriteOps,
              "count");
  report->Add("storage.wal_bytes_per_user_byte",
              static_cast<double>(stats.wal.bytes_appended - base_wal_bytes) /
                  user_bytes,
              "ratio");
  const Samples checkpoints = tracer->Durations("storage.checkpoint");
  report->Add("storage.checkpoint_ms", MedianOf(checkpoints) / 1e3, "ms");
  report->Add("storage.checkpoints", static_cast<double>(checkpoints.size()),
              "count");
  report->Add("service.swap_us",
              MedianOf(tracer->SelfTimes(
                  "service.insert",
                  {"core.maint.insert", "core.maint.make_cube"})),
              "us");
  report->Add("net.self_us.insert",
              MedianOf(tracer->SelfTimes("net.insert", {"service.insert"})),
              "us");
}

}  // namespace

void RunLayers(const Config& cfg, Report* report) {
  Tracer tracer;
  BuildLayers(cfg, &tracer, report);
  ReadLayers(cfg, &tracer, report);
  IngestLayers(cfg, &tracer, report);
  const std::string path = cfg.work_dir + "/spans.jsonl";
  if (!tracer.WriteJsonLines(path)) report->Fail("cannot write " + path);
  report->Note(std::to_string(tracer.spans().size()) + " spans written to " +
               path);
}

}  // namespace perfbench
