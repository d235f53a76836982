#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// One timed call into a layer, recorded by the benchmark around the call.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;      // 0 = root
  uint64_t statement = 0;   // statement id; 0 = set-up work
  std::string layer;        // e.g. "sql.parse", "exec.session.query"
  double start_ms = 0;      // since the tracer started
  double end_ms = 0;
};

/// In-memory span recorder for the traced run. Spans nest through an
/// explicit stack (the benchmark is single-threaded on the client side);
/// they are written out as JSON lines once the run ends.
class Tracer {
 public:
  Tracer();

  uint64_t Begin(const std::string& layer, uint64_t statement);
  void End(uint64_t id);

  /// Adds a span measured elsewhere (the engine's own operator spans),
  /// placed as a child of `parent`.
  void AddChild(uint64_t parent, const std::string& layer, double start_ms,
                double duration_ms);

  const std::vector<Span>& spans() const { return spans_; }
  double NowMs() const;

  /// Self time of one span: its duration minus the part of it its direct
  /// children cover.
  double SelfTimeMs(uint64_t span_id) const;

  /// Sum of the self times of a span and all its descendants. It equals
  /// the span's duration when the layers below it account for all of it
  /// without overlap, and exceeds it where child spans double-count.
  double TreeSelfTimeMs(uint64_t span_id) const;

  hique::Status WriteJsonLines(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indexes into spans_
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& layer, uint64_t statement)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(layer, statement) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
