#include "bench.h"

#include <cstdio>

namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::AddLatency(const std::string& prefix, const Samples& micros) {
  for (const double p : {50.0, 99.0}) {
    const std::string name = prefix + (p == 50.0 ? "_p50_us" : "_p99_us");
    const double value = micros.Percentile(p);
    if (value < 0) {
      char why[160];
      std::snprintf(why, sizeof(why),
                    "%s: %zu samples, %zu needed for ten beyond p%.0f",
                    name.c_str(), micros.size(), SamplesNeededFor(p), p);
      Fail(why);
    }
    Add(name, value, "us", micros.size());
  }
}

void Report::Scale(const std::string& name, double factor) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) metric.value *= factor;
  }
}

void Report::Fail(const std::string& why) { failures_.push_back(why); }

const Report::Metric* Report::Find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

}  // namespace perfbench
