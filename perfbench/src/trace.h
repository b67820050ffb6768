// In-memory span recording for the traced run.
//
// Spans wrap calls the benchmark makes into each layer's public functions —
// nothing inside the library is instrumented. A span is {name, start, end,
// parent, op}: spans of one op share the op id, and a child span points at
// the span that caused it. Each thread records into its own SpanLog, so
// recording takes no lock; logs stay in memory and are written out once the
// run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t NowNs();

struct Span {
  const char* name = "";  ///< Static string.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< Index of the parent span in the same log; -1 = root.
  std::int64_t op = 0;
};

/// One thread's spans. A disabled log records nothing, which is how the
/// replay measures tracing overhead.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = true) : enabled_(enabled) {}

  /// Opens a span; returns its id, or -1 when the log is disabled.
  int Begin(const char* name, int parent, std::int64_t op);
  void End(int id);
  /// Appends a finished span; returns its id, or -1 when disabled.
  int Record(const Span& span);

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span on a possibly-null log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent, std::int64_t op)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Per-name totals over a set of logs.
struct SpanTotals {
  std::int64_t count = 0;
  /// Duration minus the part of it the span's children cover.
  double self_ms = 0.0;

  double mean_self_ms() const { return count > 0 ? self_ms / count : 0.0; }
};

/// Aggregates spans by name. Self time subtracts the union of each span's
/// child intervals, so overlapping children are not subtracted twice.
std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as one JSON object per line ({"name","start_ns",
/// "end_ns","parent","op","log"}); false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
