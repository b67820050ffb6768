#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::Begin(const char* name, int parent, std::int64_t op) {
  return Record(Span{name, NowNs(), 0, parent, op});
}

int SpanLog::Record(const Span& span) {
  if (!enabled_) return -1;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
}

std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans.size());
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        children[static_cast<std::size_t>(span.parent)].emplace_back(
            span.start_ns, span.end_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      std::vector<std::pair<std::int64_t, std::int64_t>>& kids = children[i];
      std::sort(kids.begin(), kids.end());
      std::int64_t covered = 0;
      std::int64_t reach = span.start_ns;
      for (const auto& [start, end] : kids) {
        const std::int64_t from = std::max(start, reach);
        const std::int64_t to = std::min(end, span.end_ns);
        if (to > from) covered += to - from;
        reach = std::max(reach, to);
      }
      const std::int64_t duration = span.end_ns - span.start_ns;
      SpanTotals& total = totals[span.name];
      ++total.count;
      total.self_ms += static_cast<double>(duration - covered) / 1e6;
    }
  }
  return totals;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (std::size_t l = 0; l < logs.size(); ++l) {
    for (const Span& span : logs[l]->spans()) {
      std::fprintf(file,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"op\":%lld,\"log\":%zu}\n",
                   span.name, static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns), span.parent,
                   static_cast<long long>(span.op), l);
    }
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
