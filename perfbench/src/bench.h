// Shared pieces of the benchmark program: run configuration and the metric
// report every workload fills.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_bin;   // tools/skycube_serve
  std::string router_bin;  // tools/skycube_router
  std::string work_dir;    // scratch space for CSVs, data dirs, logs
};

/// Named metric values of one run, in insertion order, plus the operation
/// accounting of the JSON result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  /// Adds <prefix>_p50_us and <prefix>_p99_us over all samples of the run
  /// (every segment's, pooled). A percentile whose sample floor is not met
  /// fails the run.
  void AddLatency(const std::string& prefix, const Samples& micros);
  /// Multiplies metric `name`'s value by `factor`, if it was added.
  void Scale(const std::string& name, double factor);
  /// Records a failed check; the run is then incorrect.
  void Fail(const std::string& why);
  void Note(const std::string& line) { notes_.push_back(line); }

  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    size_t samples = 0;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;
  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<std::string>& failures() const { return failures_; }
  bool correct() const { return failures_.empty(); }

  uint64_t attempted = 0;
  /// Errors, shed requests and wrong answers.
  uint64_t failed = 0;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

/// The traced run's per-layer replay (layers.cc): fills every per-layer
/// metric into `report` and writes the spans under cfg.work_dir.
void RunLayers(const Config& cfg, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
