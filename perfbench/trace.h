// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own files, around calls into
// each layer's public functions; nothing inside src/ is instrumented. A
// span is (name, start, end, parent, request id). Spans of one query or
// append share its request id; a span that replays a request later (the
// benchmark's in-process gates) is a root of its own with that request's
// id, not a child of it. A parent is always recorded before its
// children, so its id is the lower one. Everything stays in memory until
// the run ends, when WriteTsv dumps it and SelfSeconds derives per-layer
// self times: a span's duration minus the part of it its children cover.
#ifndef YVER_PERFBENCH_TRACE_H_
#define YVER_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide epoch (the first call).
int64_t NowNs();
int64_t ToNs(Clock::time_point t);

inline constexpr int32_t kNoParent = -1;

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = kNoParent;
  uint64_t request = 0;
};

/// Thread-safe. When disabled every call is a no-op returning kNoParent,
/// so the untraced run pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (kNoParent when off).
  int32_t Record(const std::string& name, int64_t start_ns, int64_t end_ns,
                 int32_t parent = kNoParent, uint64_t request = 0);

  /// Opens a span now; Close stamps its end. For nesting on one thread.
  int32_t Open(const std::string& name, int32_t parent = kNoParent,
               uint64_t request = 0);
  void Close(int32_t id);

  /// Self time per span name, in seconds. A root span with children is
  /// an end-to-end interval; its self time is the part no layer span
  /// accounts for. A childless root (a replayed call) is all self time.
  std::map<std::string, double> SelfSeconds() const;

  /// Over the trees whose root span is named `root`: the sum of the
  /// layer spans' self time over the sum of the roots' durations, the
  /// share of that end-to-end time the layer spans explain. Only trees
  /// whose children really run inside their root count.
  double Coverage(const std::string& root) const;

  /// Writes "id name start_ns end_ns parent request" rows.
  bool WriteTsv(const std::string& path) const;

  size_t size() const;

 private:
  std::vector<double> SelfNs() const;

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span for nested, same-thread calls.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name,
             int32_t parent = kNoParent, uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Open(name, parent, request)) {}
  ~ScopedSpan() { tracer_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // YVER_PERFBENCH_TRACE_H_
