// perfbench_driver — one workload of the served benchmark.
//
//   perfbench_driver --workload=sweep-fanout --seed=1 --seconds=20 --trace=0 \
//       --daemon=.bench_build/repo/bundlemined --workdir=.bench_build/run
//
// --trace=0 (end to end): spawns bundlemined (--workers=4 --threads=1
// --queue-depth=64) kSetupRepeats times to time set-up, then drives kClients
// closed-loop clients — one connection each, the next request sent only
// after the previous response — for --seconds, checks every response, and
// reports throughput, latency, set-up time and the daemon's peak RSS.
//
// --trace=1 (per layer): a shorter wire phase for the daemon's own
// counters, then the same op sequences replayed in-process with spans around
// each layer's public calls (4 concurrent callers, then one at a time, then
// with spans off), then the layer ladder (layers.h).
//
// Correctness, in both modes: every sweep, solve and batch response must be
// byte-identical to the in-process rendering of the same request (computed
// before the timed window); every update must apply all its deltas and bump
// the market version by one; after the run each market's last resolve
// artifact must equal an oracle's — a fresh MarketStream fed the same delta
// log, resolved by an Engine with the resolve cache disabled. If the daemon
// dies or a call times out, the run ends, the ops it could not run count as
// failed, and the exit status is reported.
//
// The last stdout line is one JSON object: {"correct","attempted","failed",
// "metrics":{name:{"value","unit"}}}. The exit code is 0 only for a clean,
// correct run.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "daemon.h"
#include "layers.h"
#include "market/market_stream.h"
#include "replay.h"
#include "scenario/artifact_writer.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "trace.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/strings.h"
#include "workload.h"

namespace perfbench {
namespace {

using bundlemine::JsonValue;
using bundlemine::StrFormat;

constexpr int kSetupRepeats = 5;
constexpr double kCallTimeoutSeconds = 30.0;
constexpr double kReadyTimeoutSeconds = 15.0;
constexpr double kStopTimeoutSeconds = 15.0;
/// p90 needs this many samples to have 10 beyond it.
constexpr std::size_t kMinOps = 100;
constexpr const char* kSpanOp = "replay.op";

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool StartsWith(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

// ---------------------------------------------------------------- checks ----

using References = std::map<std::string, std::string>;

/// In-process responses for every line of the workload's request universe,
/// computed on kClients threads, each with its own server.
References ComputeReferences(Workload workload) {
  const std::vector<std::string> lines = RequestUniverse(workload);
  std::vector<std::string> responses(lines.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      InProcessServer server;
      for (std::size_t i = next++; i < lines.size(); i = next++) {
        responses[i] = server.Serve(lines[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  References references;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    references.emplace(lines[i], std::move(responses[i]));
  }
  return references;
}

/// What one client has done to its market (market-stream).
struct MarketLog {
  std::vector<std::string> updates;  ///< Acknowledged delta updates, in order.
  std::uint64_t version = 0;
  std::string last_artifact;  ///< Dump(0) of the last resolve's artifact.
  std::int64_t resolves = 0;
  std::int64_t resolve_cache_hits = 0;
  std::int64_t pairs_evaluated = 0;
  std::int64_t pairs_reused = 0;
};

/// "" when `response` is the correct answer to `line`, else why not.
std::string CheckResponse(const std::string& line, const std::string& response,
                          const References& references, MarketLog* market) {
  const bool update = StartsWith(line, R"({"kind":"update")");
  const bool resolve = StartsWith(line, R"({"kind":"resolve")");
  if (!update && !resolve) {
    const auto it = references.find(line);
    if (it == references.end()) return "no reference for request";
    return it->second == response ? "" : "response differs from the reference";
  }
  std::optional<JsonValue> doc = bundlemine::JsonParse(response);
  if (!doc || doc->kind() != JsonValue::Kind::kObject) return "unparsable response";
  const JsonValue* ok = doc->FindMember("ok");
  if (ok == nullptr || ok->kind() != JsonValue::Kind::kBool || !ok->AsBool()) {
    const JsonValue* error = doc->FindMember("error");
    return "error response: " + (error != nullptr ? error->Dump(0) : response);
  }
  const JsonValue* version = doc->FindMember("version");
  if (version == nullptr || version->kind() != JsonValue::Kind::kInt) {
    return "response without a version";
  }
  const auto got = static_cast<std::uint64_t>(version->AsInt());
  if (update) {
    if (line.find(R"("load":)") != std::string::npos) {
      market->version = got;
      return "";
    }
    if (got != market->version + 1) {
      return StrFormat("update moved the version %llu -> %llu",
                       static_cast<unsigned long long>(market->version),
                       static_cast<unsigned long long>(got));
    }
    market->version = got;
    market->updates.push_back(line);
    return "";
  }
  if (got != market->version) return "resolve answered a stale version";
  const JsonValue* artifact = doc->FindMember("artifact");
  const JsonValue* incremental = doc->FindMember("incremental");
  if (artifact == nullptr || incremental == nullptr) return "resolve without artifact";
  market->last_artifact = artifact->Dump(0);
  ++market->resolves;
  if (incremental->FindMember("response_cache_hit")->AsBool()) {
    ++market->resolve_cache_hits;
  }
  market->pairs_evaluated += incremental->FindMember("pairs_evaluated")->AsInt();
  market->pairs_reused += incremental->FindMember("pairs_reused")->AsInt();
  return "";
}

/// Replays `client`'s acknowledged delta log into a fresh stream and resolves
/// it with the resolve cache disabled; "" when the artifact matches.
std::string CheckMarketOracle(int client, const MarketLog& log) {
  if (log.resolves == 0) return "";
  bundlemine::DatasetSpec spec;
  spec.profile = "tiny";
  spec.seed = MarketDatasetSeed(client);
  bundlemine::MarketStream stream(MarketId(client));
  if (!stream.Load(bundlemine::MaterializeDataset(spec)).ok()) {
    return "oracle load failed";
  }
  for (const std::string& line : log.updates) {
    bundlemine::StatusOr<bundlemine::WireRequest> request =
        bundlemine::ParseWireRequest(line);
    if (!request.ok() || !stream.Apply(request->deltas).ok()) {
      return "oracle could not apply a logged update";
    }
  }
  bundlemine::Engine::Options options = DaemonEngineOptions();
  options.resolve_cache_capacity = 0;
  bundlemine::Engine engine(options);
  bundlemine::StatusOr<bundlemine::ScenarioSpec> resolve_spec =
      bundlemine::ResolveScenarioSpec(kResolveSpec);
  if (!resolve_spec.ok()) return "bad resolve spec";
  bundlemine::ResolveRequest request;
  request.market = &stream;
  request.spec = std::move(*resolve_spec);
  bundlemine::StatusOr<bundlemine::ResolveResponse> resolved =
      engine.Resolve(request);
  if (!resolved.ok()) return "oracle resolve failed: " + resolved.status().message();
  if (resolved->market_version != log.version) return "oracle version differs";
  return bundlemine::SweepArtifact(resolved->result).Dump(0) == log.last_artifact
             ? ""
             : "last resolve artifact differs from the oracle";
}

/// Failures seen, with the first few reasons kept for the report.
class FailureLog {
 public:
  void Add(const std::string& reason) {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    if (reasons_.size() < 5) reasons_.push_back(reason);
  }
  std::int64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  void Print() const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& reason : reasons_) {
      std::fprintf(stderr, "perfbench: failure: %s\n", reason.c_str());
    }
  }

 private:
  mutable std::mutex mu_;
  std::int64_t count_ = 0;
  std::vector<std::string> reasons_;
};

// ------------------------------------------------------------ wire run ----

/// One daemon plus kClients connections, each with its op stream.
class Session {
 public:
  Session(Workload workload, std::uint64_t seed) {
    for (int c = 0; c < kClients; ++c) streams_.emplace_back(workload, seed, c);
    markets_.resize(kClients);
  }

  /// Spawn to ready, connect, load the markets and send the warm-up pass.
  /// Returns the seconds it took.
  bundlemine::StatusOr<double> SetUp(const std::string& binary,
                                     const std::string& workdir,
                                     const References& references) {
    const std::int64_t start = NowNs();
    if (bundlemine::Status started =
            daemon_.Start(binary, workdir + "/daemon.port", kReadyTimeoutSeconds);
        !started.ok()) {
      return started;
    }
    for (int c = 0; c < kClients; ++c) {
      bundlemine::StatusOr<bundlemine::WireClient> client =
          bundlemine::WireClient::Connect("127.0.0.1", daemon_.port());
      if (!client.ok()) return client.status();
      client->set_call_timeout(kCallTimeoutSeconds);
      clients_.push_back(
          std::make_unique<bundlemine::WireClient>(std::move(*client)));
    }
    for (int c = 0; c < kClients; ++c) {
      OpStream& stream = streams_[static_cast<std::size_t>(c)];
      std::vector<Op> ops = {Op{stream.setup_lines()}};
      for (Op& op : stream.Warmup()) ops.push_back(std::move(op));
      for (const Op& op : ops) {
        const std::string error = RunOp(c, op, references).error;
        if (!error.empty()) return bundlemine::Status::Unavailable("set-up: " + error);
      }
    }
    return Seconds(NowNs() - start);
  }

  struct OpOutcome {
    double latency_ms = 0.0;
    std::string error;       ///< "" = correct.
    bool transport = false;  ///< The daemon hung up or a call timed out.
  };

  /// Sends `op`'s lines in lockstep on client `c`'s connection.
  OpOutcome RunOp(int c, const Op& op, const References& references) {
    OpOutcome outcome;
    const std::int64_t start = NowNs();
    for (const std::string& line : op.lines) {
      bundlemine::StatusOr<std::string> response =
          clients_[static_cast<std::size_t>(c)]->Call(line);
      if (!response.ok()) {
        outcome.error = response.status().message();
        outcome.transport = true;
        break;
      }
      outcome.error = CheckResponse(line, *response, references,
                                    &markets_[static_cast<std::size_t>(c)]);
      if (!outcome.error.empty()) break;
    }
    outcome.latency_ms = static_cast<double>(NowNs() - start) / 1e6;
    return outcome;
  }

  struct LoopResult {
    std::vector<double> ok_latencies_ms;
    std::int64_t attempted = 0;
    std::int64_t ok = 0;
    double window_s = 0.0;
    bool aborted = false;
    std::string abort_reason;
  };

  /// The closed loop: every client sends its next op as soon as the previous
  /// one completes, until `seconds` have passed.
  LoopResult RunClosedLoop(double seconds, const References& references,
                           FailureLog* failures) {
    LoopResult result;
    std::mutex mu;
    std::atomic<bool> abort{false};
    const std::int64_t start = NowNs();
    const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t last_end = start;
    std::int64_t abort_at = 0;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        while (!abort && NowNs() < deadline) {
          const Op op = streams_[static_cast<std::size_t>(c)].Next();
          const std::int64_t sent = NowNs();
          const OpOutcome outcome = RunOp(c, op, references);
          const std::int64_t end = NowNs();
          std::lock_guard<std::mutex> lock(mu);
          ++result.attempted;
          last_end = std::max(last_end, end);
          if (outcome.error.empty()) {
            ++result.ok;
            result.ok_latencies_ms.push_back(outcome.latency_ms);
            continue;
          }
          failures->Add(StrFormat("client %d: %s", c, outcome.error.c_str()));
          if (outcome.transport && !abort) {
            // A hung daemon answers nothing from the moment this op was sent.
            abort = true;
            abort_at = sent;
            result.aborted = true;
            result.abort_reason = outcome.error;
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    result.window_s = Seconds(last_end - start);
    if (result.aborted) {
      // The ops the lost daemon could not run count as failed, at the rate
      // the run had reached, so an abort can never read as a fast run.
      const double elapsed = std::max(Seconds(abort_at - start), 1e-3);
      const double remaining = std::max(0.0, Seconds(deadline - abort_at));
      const auto lost = static_cast<std::int64_t>(std::ceil(
          static_cast<double>(result.ok) / elapsed * remaining));
      for (std::int64_t i = 0; i < lost; ++i) failures->Add("op lost with the daemon");
      result.attempted += lost;
      if (daemon_.Alive()) {
        daemon_.Kill();
        result.abort_reason += " (bundlemined hung; killed)";
      } else {
        result.abort_reason += " (bundlemined " + daemon_.ExitDescription() + ")";
      }
    }
    return result;
  }

  /// The daemon's stats document (null on failure).
  JsonValue Stats() {
    bundlemine::StatusOr<JsonValue> stats =
        clients_.front()->CallJson(R"({"kind":"stats"})");
    if (!stats.ok()) return JsonValue();
    const JsonValue* body = stats->FindMember("stats");
    return body != nullptr ? *body : JsonValue();
  }

  /// Checks every market against its oracle; adds mismatches to `failures`.
  void CheckMarkets(FailureLog* failures) const {
    for (int c = 0; c < kClients; ++c) {
      const std::string error =
          CheckMarketOracle(c, markets_[static_cast<std::size_t>(c)]);
      if (!error.empty()) failures->Add(StrFormat("market %d: %s", c, error.c_str()));
    }
  }

  const std::vector<MarketLog>& markets() const { return markets_; }
  Daemon& daemon() { return daemon_; }

  /// Closes the connections, then stops the daemon.
  bundlemine::Status Stop() {
    clients_.clear();
    return daemon_.Stop(kStopTimeoutSeconds);
  }

 private:
  Daemon daemon_;
  std::vector<std::unique_ptr<bundlemine::WireClient>> clients_;
  std::vector<OpStream> streams_;
  std::vector<MarketLog> markets_;
};

// -------------------------------------------------------------- report ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintResult(const char* workload, bool correct, std::int64_t attempted,
                 std::int64_t failed, const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("%s %s %.6g %s\n", workload, metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  JsonValue values = JsonValue::Object();
  for (const Metric& metric : metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Double(metric.value));
    entry.Set("unit", JsonValue::Str(metric.unit));
    values.Set(metric.name, std::move(entry));
  }
  JsonValue out = JsonValue::Object();
  out.Set("correct", JsonValue::Bool(correct));
  out.Set("attempted", JsonValue::Int(attempted));
  out.Set("failed", JsonValue::Int(failed));
  out.Set("metrics", std::move(values));
  std::printf("%s\n", out.Dump(0).c_str());
  std::fflush(stdout);
}

struct Args {
  Workload workload = Workload::kSweepFanout;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::string daemon;
  std::string workdir;
};

// ------------------------------------------------------ end-to-end run ----

int RunEndToEnd(const Args& args) {
  const char* name = WorkloadName(args.workload);
  const References references = ComputeReferences(args.workload);
  FailureLog failures;

  std::vector<double> setups;
  std::unique_ptr<Session> session;
  for (int r = 0; r < kSetupRepeats; ++r) {
    session = std::make_unique<Session>(args.workload, args.seed);
    bundlemine::StatusOr<double> setup =
        session->SetUp(args.daemon, args.workdir, references);
    if (!setup.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", setup.status().message().c_str());
      return 1;
    }
    setups.push_back(*setup);
    if (r + 1 < kSetupRepeats) {
      if (bundlemine::Status stopped = session->Stop(); !stopped.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", stopped.message().c_str());
        return 1;
      }
    }
  }

  Session::LoopResult loop =
      session->RunClosedLoop(args.seconds, references, &failures);
  const std::optional<double> rss = session->daemon().PeakRssMb();
  const bundlemine::Status stopped = session->Stop();
  if (!loop.aborted) {
    if (!stopped.ok()) failures.Add(stopped.message());
    session->CheckMarkets(&failures);
  }
  failures.Print();

  // A failed oracle or shutdown check is one more attempted-and-failed
  // check beside the loop's ops.
  const std::int64_t failed = failures.count();
  const std::int64_t attempted =
      std::max<std::int64_t>(1, loop.attempted + failed - (loop.attempted - loop.ok));
  std::vector<double> sorted = loop.ok_latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  std::printf(
      "%s seed %llu: %lld ops attempted, %lld failed; %d closed-loop "
      "clients, %.1f s window\n",
      name, static_cast<unsigned long long>(args.seed),
      static_cast<long long>(attempted), static_cast<long long>(failed),
      kClients, loop.window_s);
  std::printf("%s failed_ratio %.6g ratio\n", name,
              static_cast<double>(failed) / static_cast<double>(attempted));
  if (loop.aborted) {
    std::printf("%s run aborted: %s\n", name, loop.abort_reason.c_str());
    return 1;
  }
  if (sorted.size() < kMinOps) {
    std::fprintf(stderr,
                 "perfbench: %zu ok ops; p90 needs at least %zu — raise "
                 "--seconds\n",
                 sorted.size(), kMinOps);
    return 1;
  }
  if (std::optional<TailPercentile> tail = HighestSupportedPercentile(sorted)) {
    std::printf("%s latency p%g %.3f ms over %zu ops (%zu beyond)\n", name,
                tail->percentile, tail->value, tail->samples, tail->beyond);
  }
  const std::vector<Metric> metrics = {
      {"throughput_ops_s", static_cast<double>(loop.ok) / loop.window_s, "1/s"},
      {"latency_p50_ms", NearestRankPercentile(sorted, 50.0), "ms"},
      {"latency_p90_ms", NearestRankPercentile(sorted, 90.0), "ms"},
      {"setup_s", Median(setups), "s"},
      {"server_peak_rss_mb", rss.value_or(0.0), "MiB"},
  };
  const bool correct = failed == 0 && rss.has_value();
  PrintResult(name, correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------- traced run ----

struct ReplayOp {
  int client = 0;
  int index = 0;
  std::int64_t op_ns = 0;
  std::int64_t api_ns = 0;
  std::int64_t response_bytes = 0;  ///< Response lines, newlines included.
  int responses = 0;
};

struct ReplayResult {
  std::vector<ReplayOp> ops;
  std::vector<std::unique_ptr<SpanLog>> logs;
};

/// (client, op index) → a time in ns.
using OpMap = std::map<std::pair<int, int>, std::int64_t>;

/// Replays the workload's op streams in-process against one shared server:
/// on kClients threads, or — given `solo_ops` — one op at a time,
/// round-robin over the clients, limited to the (client, op) keys it holds.
ReplayResult Replay(const Args& args, double seconds, bool spans,
                    const OpMap* solo_ops, const References& references,
                    FailureLog* failures) {
  InProcessServer server;
  std::vector<OpStream> streams;
  std::vector<MarketLog> markets(kClients);
  for (int c = 0; c < kClients; ++c) {
    streams.emplace_back(args.workload, args.seed, c);
    OpStream& stream = streams.back();
    // Set-up and warm-up are not measured.
    std::vector<std::string> lines = stream.setup_lines();
    for (const Op& op : stream.Warmup()) {
      lines.insert(lines.end(), op.lines.begin(), op.lines.end());
    }
    for (const std::string& line : lines) {
      const std::string error = CheckResponse(
          line, server.Serve(line), references, &markets[static_cast<std::size_t>(c)]);
      if (!error.empty()) failures->Add("replay set-up: " + error);
    }
  }

  ReplayResult result;
  std::mutex mu;
  const auto run_op = [&](int c, int index, SpanLog* log) {
    const Op op = streams[static_cast<std::size_t>(c)].Next();
    const std::size_t first_span = log->spans().size();
    const std::int64_t op_id = (static_cast<std::int64_t>(c) << 32) | index;
    ReplayOp record{c, index};
    const std::int64_t start = NowNs();
    std::string error;
    {
      ScopedSpan root(log, kSpanOp, -1, op_id);
      for (const std::string& line : op.lines) {
        const std::string response = server.Serve(line, log, root.id(), op_id);
        record.response_bytes += static_cast<std::int64_t>(response.size()) + 1;
        ++record.responses;
        if (error.empty()) {
          error = CheckResponse(line, response, references,
                                &markets[static_cast<std::size_t>(c)]);
        }
      }
    }
    record.op_ns = NowNs() - start;
    for (std::size_t s = first_span; s < log->spans().size(); ++s) {
      const Span& span = log->spans()[s];
      if (std::strcmp(span.name, kSpanApi) == 0) {
        record.api_ns += span.end_ns - span.start_ns;
      }
    }
    if (!error.empty()) failures->Add("replay: " + error);
    std::lock_guard<std::mutex> lock(mu);
    result.ops.push_back(record);
  };

  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  if (solo_ops != nullptr) {
    result.logs.push_back(std::make_unique<SpanLog>(spans));
    int last_index = -1;
    for (const auto& [key, unused] : *solo_ops) {
      last_index = std::max(last_index, key.second);
    }
    for (int index = 0; index <= last_index && NowNs() < deadline; ++index) {
      for (int c = 0; c < kClients; ++c) {
        if (solo_ops->count({c, index}) != 0) {
          run_op(c, index, result.logs[0].get());
        }
      }
    }
  } else {
    for (int c = 0; c < kClients; ++c) {
      result.logs.push_back(std::make_unique<SpanLog>(spans));
    }
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (int index = 0; NowNs() < deadline; ++index) {
          run_op(c, index, result.logs[static_cast<std::size_t>(c)].get());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  return result;
}

/// Each replayed op's Engine time (`api`) or whole-op time, in ns.
OpMap ByOp(const ReplayResult& replay, bool api) {
  OpMap out;
  for (const ReplayOp& op : replay.ops) {
    out[{op.client, op.index}] = api ? op.api_ns : op.op_ns;
  }
  return out;
}

/// The means of `a` and of `b`, in ms, over the (client, op) keys both hold;
/// `matched` receives how many that is.
std::pair<double, double> MatchedMeansMs(const OpMap& a, const OpMap& b,
                                         std::int64_t* matched) {
  double sum_a = 0.0;
  double sum_b = 0.0;
  *matched = 0;
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    if (it == b.end()) continue;
    sum_a += static_cast<double>(value);
    sum_b += static_cast<double>(it->second);
    ++*matched;
  }
  const double n = static_cast<double>(std::max<std::int64_t>(*matched, 1));
  return {sum_a / n / 1e6, sum_b / n / 1e6};
}

double Ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

std::int64_t IntAt(const JsonValue& doc, const char* section, const char* key) {
  const JsonValue* block = doc.kind() == JsonValue::Kind::kObject
                               ? doc.FindMember(section)
                               : nullptr;
  const JsonValue* value = block != nullptr ? block->FindMember(key) : nullptr;
  return value != nullptr ? value->AsInt() : 0;
}

/// Stats counter `key` of request kind `kind` (0 when absent).
double KindCounter(const JsonValue& doc, const char* kind, const char* key) {
  const JsonValue* requests =
      doc.kind() == JsonValue::Kind::kObject ? doc.FindMember("requests") : nullptr;
  const JsonValue* counters =
      requests != nullptr ? requests->FindMember(kind) : nullptr;
  const JsonValue* value =
      counters != nullptr && counters->kind() == JsonValue::Kind::kObject
          ? counters->FindMember(key)
          : nullptr;
  return value != nullptr ? value->AsDouble() : 0.0;
}

/// The request kinds the workloads send.
constexpr const char* kOpKinds[] = {"solve", "sweep", "batch", "update", "resolve"};

int RunTraced(const Args& args) {
  const char* name = WorkloadName(args.workload);
  const References references = ComputeReferences(args.workload);
  FailureLog failures;
  const double s = args.seconds;

  // ---- wire phase: the daemon's own counters ----
  Session session(args.workload, args.seed);
  if (bundlemine::StatusOr<double> setup =
          session.SetUp(args.daemon, args.workdir, references);
      !setup.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", setup.status().message().c_str());
    return 1;
  }
  const JsonValue before = session.Stats();
  std::vector<MarketLog> markets_before = session.markets();
  Session::LoopResult loop = session.RunClosedLoop(0.3 * s, references, &failures);
  if (loop.aborted) {
    failures.Print();
    std::printf("%s run aborted: %s\n", name, loop.abort_reason.c_str());
    return 1;
  }
  const JsonValue after = session.Stats();
  std::vector<MarketLog> markets_after = session.markets();
  session.CheckMarkets(&failures);
  if (bundlemine::Status stopped = session.Stop(); !stopped.ok()) {
    failures.Add(stopped.message());
  }
  // Per-kind counters moved by the window; the metric is per op, the report
  // also breaks it down per request kind.
  double server_s = 0.0;
  double rejected = 0.0;
  for (const char* kind : kOpKinds) {
    const auto moved = [&](const char* key) {
      return KindCounter(after, kind, key) - KindCounter(before, kind, key);
    };
    server_s += moved("total_seconds");
    rejected += moved("rejected");
    if (moved("ok") > 0.0) {
      std::printf("%s serve.server_ms[%s] %.6g ms over %.0f requests\n", name,
                  kind, moved("total_seconds") * 1e3 / moved("ok"), moved("ok"));
    }
  }
  const double mean_latency_ms =
      loop.ok_latencies_ms.empty()
          ? 0.0
          : std::accumulate(loop.ok_latencies_ms.begin(),
                            loop.ok_latencies_ms.end(), 0.0) /
                static_cast<double>(loop.ok_latencies_ms.size());
  const double server_ms = Ratio(server_s * 1e3, static_cast<double>(loop.ok));
  const auto delta = [&](const char* section, const char* key) {
    return static_cast<double>(IntAt(after, section, key) -
                               IntAt(before, section, key));
  };
  MarketLog window;
  for (int c = 0; c < kClients; ++c) {
    const MarketLog& a = markets_after[static_cast<std::size_t>(c)];
    const MarketLog& b = markets_before[static_cast<std::size_t>(c)];
    window.resolves += a.resolves - b.resolves;
    window.resolve_cache_hits += a.resolve_cache_hits - b.resolve_cache_hits;
    window.pairs_evaluated += a.pairs_evaluated - b.pairs_evaluated;
    window.pairs_reused += a.pairs_reused - b.pairs_reused;
  }

  // ---- in-process replay: concurrent, solo, and with spans off ----
  ReplayResult concurrent = Replay(args, 0.25 * s, /*spans=*/true, nullptr,
                                  references, &failures);
  const OpMap concurrent_api = ByOp(concurrent, /*api=*/true);
  ReplayResult solo = Replay(args, 0.2 * s, /*spans=*/true, &concurrent_api,
                             references, &failures);
  ReplayResult untraced = Replay(args, 0.1 * s, /*spans=*/false, nullptr,
                                 references, &failures);
  std::int64_t matched_solo = 0;
  const auto [call_ms, solo_ms] =
      MatchedMeansMs(concurrent_api, ByOp(solo, /*api=*/true), &matched_solo);
  std::int64_t matched_untraced = 0;
  const auto [traced_op_ms, untraced_op_ms] = MatchedMeansMs(
      ByOp(concurrent, /*api=*/false), ByOp(untraced, /*api=*/false),
      &matched_untraced);

  // ---- layer ladder ----
  SpanLog ladder_log;
  const LadderResult ladder = RunLadder(args.workload, 0.15 * s, &ladder_log);

  std::vector<const SpanLog*> logs;
  for (const auto& log : concurrent.logs) logs.push_back(log.get());
  logs.push_back(&ladder_log);
  const std::map<std::string, SpanTotals> spans = AggregateSpans(logs);
  const auto mean_ms = [&](const std::string& span) {
    const auto it = spans.find(span);
    return it != spans.end() ? it->second.mean_self_ms() : 0.0;
  };
  const auto self_ms = [&](const std::string& span) {
    const auto it = spans.find(span);
    return it != spans.end() ? it->second.self_ms : 0.0;
  };
  const auto count = [&](const std::string& span) {
    const auto it = spans.find(span);
    return it != spans.end() ? static_cast<double>(it->second.count) : 0.0;
  };
  std::int64_t response_bytes = 0;
  std::int64_t responses = 0;
  for (const ReplayOp& op : concurrent.ops) {
    response_bytes += op.response_bytes;
    responses += op.responses;
  }
  const double dataset_lookups = delta("dataset_cache", "hits") +
                                 delta("dataset_cache", "misses");
  const double wtp_lookups = delta("wtp_cache", "hits") + delta("wtp_cache", "misses");
  const double pairs_total =
      static_cast<double>(window.pairs_evaluated + window.pairs_reused);

  std::vector<Metric> metrics = {
      {"serve.server_ms", server_ms, "ms"},
      {"serve.outside_ms", mean_latency_ms - server_ms, "ms"},
      {"serve.parse_us", mean_ms(kSpanParse) * 1e3, "us"},
      {"serve.encode_us", mean_ms(kSpanEncode) * 1e3, "us"},
      {"serve.response_bytes",
       Ratio(static_cast<double>(response_bytes), static_cast<double>(responses)),
       "bytes"},
      {"serve.rejected", rejected, "count"},
      {"api.call_ms", call_ms, "ms"},
      {"api.solo_ms", solo_ms, "ms"},
      {"api.wait_ms", call_ms - solo_ms, "ms"},
      {"api.dataset_cache_hit_ratio",
       Ratio(delta("dataset_cache", "hits"), dataset_lookups), "ratio"},
      {"api.dataset_cache_lookups", dataset_lookups, "count"},
      {"api.wtp_cache_hit_ratio", Ratio(delta("wtp_cache", "hits"), wtp_lookups),
       "ratio"},
      {"api.wtp_cache_lookups", wtp_lookups, "count"},
      {"api.resolve_cache_hit_ratio",
       Ratio(static_cast<double>(window.resolve_cache_hits),
             static_cast<double>(window.resolves)),
       "ratio"},
      {"api.resolves", static_cast<double>(window.resolves), "count"},
      {"api.pairs_reused_ratio",
       Ratio(static_cast<double>(window.pairs_reused), pairs_total), "ratio"},
      {"scenario.cells_ms", mean_ms("scenario.cells"), "ms"},
      {"scenario.artifact_us", mean_ms("scenario.artifact") * 1e3, "us"},
  };
  for (const char* method : kLadderMethods) {
    metrics.push_back({std::string("core.solve_ms.") + method,
                       mean_ms(std::string("core.solve.") + method), "ms"});
  }
  const std::vector<Metric> tail = {
      {"core.pairs_evaluated", static_cast<double>(ladder.first.pairs_evaluated),
       "count"},
      {"core.rounds", static_cast<double>(ladder.first.rounds), "count"},
      {"pricing.price_offer_us",
       Ratio(self_ms("pricing.price_offer") * 1e3,
             static_cast<double>(ladder.calls.price_offer)),
       "us"},
      {"pricing.merge_gain_us",
       Ratio(self_ms("pricing.merge_gain") * 1e3,
             static_cast<double>(ladder.calls.merge_gain)),
       "us"},
      {"pricing.merge_gain_calls",
       static_cast<double>(ladder.first.merge_gain_calls), "count"},
      {"matching.solve_ms", mean_ms("matching.solve"), "ms"},
      {"matching.edges", static_cast<double>(ladder.first.matching_edges),
       "count"},
      {"mining.txn_build_ms", mean_ms("mining.txn_build"), "ms"},
      {"mining.mine_ms", mean_ms("mining.mine"), "ms"},
      {"mining.itemsets", static_cast<double>(ladder.first.itemsets), "count"},
      {"data.materialize_ms", mean_ms("data.materialize"), "ms"},
      {"data.wtp_ms", mean_ms("data.wtp"), "ms"},
      {"market.apply_us", mean_ms(kSpanApply) * 1e3, "us"},
      {"market.snapshot_us", mean_ms(kSpanSnapshot) * 1e3, "us"},
      {"market.acquire_us",
       Ratio((self_ms(kSpanAcquire) + self_ms(kSpanRelease)) * 1e3,
             count(kSpanAcquire)),
       "us"},
      {"trace.overhead_ratio", Ratio(traced_op_ms, untraced_op_ms), "ratio"},
  };
  metrics.insert(metrics.end(), tail.begin(), tail.end());

  const std::string spans_path =
      StrFormat("%s/spans-%s-%llu.jsonl", args.workdir.c_str(), name,
                static_cast<unsigned long long>(args.seed));
  if (!WriteSpans(spans_path, logs)) failures.Add("cannot write " + spans_path);
  failures.Print();

  const std::int64_t replayed = static_cast<std::int64_t>(
      concurrent.ops.size() + solo.ops.size() + untraced.ops.size());
  const std::int64_t attempted = loop.attempted + replayed;
  const std::int64_t failed = failures.count();
  std::printf(
      "%s seed %llu traced: %lld wire ops, %lld replayed (%lld matched solo, "
      "%lld matched untraced), %d ladder problems; spans in %s\n",
      name, static_cast<unsigned long long>(args.seed),
      static_cast<long long>(loop.attempted), static_cast<long long>(replayed),
      static_cast<long long>(matched_solo),
      static_cast<long long>(matched_untraced), ladder.problems_run,
      spans_path.c_str());
  const bool correct = failed == 0;
  PrintResult(name, correct, std::max<std::int64_t>(attempted, 1), failed,
              metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  bundlemine::FlagSet flags;
  flags.Define("workload", "sweep-fanout",
               "sweep-fanout | solve-mix | market-stream");
  flags.Define("seed", "1", "workload seed (request generation only)");
  flags.Define("seconds", "20", "measured seconds");
  flags.Define("trace", "0", "1 = per-layer traced run instead of end to end");
  flags.Define("daemon", "", "path of the bundlemined binary");
  flags.Define("workdir", ".", "directory for the port handshake and spans");
  flags.Parse(argc, argv);

  Args args;
  const std::optional<Workload> workload =
      WorkloadByName(flags.GetString("workload"));
  if (!workload || flags.GetString("daemon").empty() ||
      flags.GetDouble("seconds") <= 0.0 || flags.GetInt("seed") < 0) {
    std::fprintf(stderr,
                 "perfbench: need --workload=sweep-fanout|solve-mix|"
                 "market-stream, --daemon=PATH, --seconds>0, --seed>=0\n");
    return 2;
  }
  args.workload = *workload;
  args.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  args.seconds = flags.GetDouble("seconds");
  args.daemon = flags.GetString("daemon");
  args.workdir = flags.GetString("workdir");
  return flags.GetInt("trace") != 0 ? RunTraced(args) : RunEndToEnd(args);
}
