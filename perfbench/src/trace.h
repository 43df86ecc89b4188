// Spans recorded by the benchmark around calls into each layer.
//
// The traced run replays one seeded operation stream against every layer's
// public entry point separately, so a request id names the same logical
// operation at every layer. A layer's self time on a request is its span's
// duration minus the spans of the layers it wraps on the same request id
// (e.g. service self = SkycubeService::Execute - the direct cube call).
// Spans stay in memory and are written out once, when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "stats.h"

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t request = 0;
  /// A string literal naming the layer and call, e.g. "service.q1".
  std::string_view layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double micros() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

class Tracer {
 public:
  /// Records a span. `layer` must outlive the tracer (use a literal).
  void Record(uint64_t request, std::string_view layer, int64_t start_ns,
              int64_t end_ns) {
    spans_.push_back(Span{request, layer, start_ns, end_ns});
  }

  /// Runs fn() inside a span and returns its result.
  template <typename Fn>
  auto Time(uint64_t request, std::string_view layer, Fn&& fn) {
    const int64_t start = NowNanos();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Record(request, layer, start, NowNanos());
    } else {
      auto result = fn();
      Record(request, layer, start, NowNanos());
      return result;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in microseconds of every span of `layer`.
  Samples Durations(std::string_view layer) const;

  /// Per request id carrying a `layer` span and a span of every `wrapped`
  /// layer: duration(layer) - sum of duration(wrapped), in microseconds.
  /// Requests missing any of the spans are skipped.
  Samples SelfTimes(std::string_view layer,
                    std::initializer_list<std::string_view> wrapped) const;

  /// Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
