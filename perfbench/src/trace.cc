#include "trace.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

std::unordered_map<uint64_t, double> DurationByRequest(
    const std::vector<Span>& spans, std::string_view layer) {
  std::unordered_map<uint64_t, double> by_request;
  for (const Span& span : spans) {
    if (span.layer == layer) by_request[span.request] += span.micros();
  }
  return by_request;
}

}  // namespace

Samples Tracer::Durations(std::string_view layer) const {
  Samples samples;
  for (const Span& span : spans_) {
    if (span.layer == layer) samples.Add(span.micros());
  }
  return samples;
}

Samples Tracer::SelfTimes(
    std::string_view layer,
    std::initializer_list<std::string_view> wrapped) const {
  std::vector<std::unordered_map<uint64_t, double>> inner;
  for (const std::string_view name : wrapped) {
    inner.push_back(DurationByRequest(spans_, name));
  }
  Samples samples;
  for (const Span& span : spans_) {
    if (span.layer != layer) continue;
    double self = span.micros();
    bool complete = true;
    for (const auto& durations : inner) {
      const auto it = durations.find(span.request);
      if (it == durations.end()) {
        complete = false;
        break;
      }
      self -= it->second;
    }
    if (complete) samples.Add(self);
  }
  return samples;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"request\": %llu, \"layer\": \"%.*s\", \"start_ns\": "
                 "%lld, \"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(span.request),
                 static_cast<int>(span.layer.size()), span.layer.data(),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
