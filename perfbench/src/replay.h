// In-process twin of bundlemined's request path, for the kinds the
// workloads send (solve, sweep, batch, update, resolve).
//
// Serve() parses a wire line, makes the same Engine / MarketRegistry /
// MarketStream calls a daemon worker makes, and renders the response with
// the same protocol builders — so its output is the reference a served
// response must equal byte for byte, and, with a SpanLog attached, it is the
// traced replay: spans wrap the parse, the registry lease, the market calls,
// the Engine call and the response encoding.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "api/engine.h"
#include "market/market_registry.h"
#include "trace.h"

namespace perfbench {

// Span names the replay records.
inline constexpr const char* kSpanParse = "serve.parse";
inline constexpr const char* kSpanEncode = "serve.encode";
inline constexpr const char* kSpanApi = "api.call";
inline constexpr const char* kSpanAcquire = "market.acquire";
inline constexpr const char* kSpanRelease = "market.release";
inline constexpr const char* kSpanApply = "market.apply";
inline constexpr const char* kSpanSnapshot = "market.snapshot";

/// The daemon's Engine configuration under the benchmark (--threads=1,
/// default cache capacities).
bundlemine::Engine::Options DaemonEngineOptions();

class InProcessServer {
 public:
  explicit InProcessServer(
      const bundlemine::Engine::Options& options = DaemonEngineOptions());

  InProcessServer(const InProcessServer&) = delete;
  InProcessServer& operator=(const InProcessServer&) = delete;

  /// Serves one request line and returns the response line. Thread-safe to
  /// the same degree as the daemon: concurrent callers share the Engine and
  /// the registry. Spans go to `log` (when non-null) under `parent`.
  std::string Serve(const std::string& line, SpanLog* log = nullptr,
                    int parent = -1, std::int64_t op = 0);

 private:
  bundlemine::Engine engine_;
  bundlemine::MarketRegistry registry_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
