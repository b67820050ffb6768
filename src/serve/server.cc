#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "util/strings.h"

namespace bundlemine {

/// A TCP connection: the read loop's stream plus a serialized writer shared
/// with the queue workers. Write failures are swallowed — a peer that hung
/// up forfeits its responses, nothing else.
class SocketSink : public ResponseSink {
 public:
  /// A worker's response write may block at most this long on a peer that
  /// stopped reading; after that the connection is declared dead and cut,
  /// so one misbehaving client costs the worker pool one bounded stall —
  /// never a wedge that outlives it.
  static constexpr double kWriteTimeoutSeconds = 10.0;

  explicit SocketSink(SocketStream stream) : stream_(std::move(stream)) {
    // Transport-level cap: a newline-less flood is truncated and discarded
    // as it streams in, and the delivered over-limit prefix draws the typed
    // "oversized request" rejection from ParseWireRequest.
    stream_.set_max_line_bytes(kMaxWireRequestBytes);
    stream_.set_send_timeout(kWriteTimeoutSeconds);
  }

  void WriteLine(const std::string& line) override {
    MutexLock lock(write_mu_);
    if (dead_) return;
    if (!stream_.WriteLine(line)) {
      // Peer gone or write timed out: cut the connection so its read loop
      // exits and every later response for it drops instantly.
      dead_ = true;
      stream_.Shutdown();
    }
  }

  /// The connection thread's read side (single reader; concurrent with
  /// writers by POSIX socket semantics).
  bool ReadLine(std::string* line) { return stream_.ReadLine(line); }

  /// Unblocks the read loop from another thread. Takes the write lock: the
  /// connection thread may be releasing the fd (CloseStream) concurrently,
  /// and shutdown(2) on a recycled descriptor would hit a stranger's socket.
  void Shutdown() EXCLUDES(write_mu_) {
    MutexLock lock(write_mu_);
    if (dead_) return;
    stream_.Shutdown();
  }

  /// Releases the fd once the read loop is done. Serialized against
  /// writers; responses still in flight then drop instead of touching a
  /// recycled descriptor.
  void CloseStream() {
    MutexLock lock(write_mu_);
    dead_ = true;
    stream_.Close();
  }

 private:
  SocketStream stream_;
  Mutex write_mu_;
  bool dead_ GUARDED_BY(write_mu_) = false;
};

namespace {

/// Pipe-mode sink: response lines interleave onto one ostream, each line
/// written atomically under the lock and flushed (the consumer is typically
/// a pipe reader waiting for exactly this line).
class StreamSink : public ResponseSink {
 public:
  explicit StreamSink(std::ostream& out) : out_(out) {}

  void WriteLine(const std::string& line) override {
    MutexLock lock(mu_);
    out_ << line << '\n';
    out_.flush();
  }

 private:
  std::ostream& out_;
  Mutex mu_;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Bounded line read for pipe mode, mirroring SocketStream::ReadLine's cap:
// a line longer than `cap` is truncated to cap + 1 bytes (enough to draw
// the typed "oversized request" rejection) and its tail discarded, so a
// newline-less flood on stdin never accumulates in memory.
bool ReadBoundedLine(std::istream& in, std::string* line, std::size_t cap) {
  line->clear();
  bool overflowed = false;
  for (int ch = in.get(); ch != std::istream::traits_type::eof();
       ch = in.get()) {
    if (ch == '\n') return true;
    if (overflowed) continue;
    line->push_back(static_cast<char>(ch));
    if (line->size() > cap) overflowed = true;
  }
  return !line->empty();  // Deliver a final unterminated line before EOF.
}

// One Engine cache's stats block: {"hits", "misses", "entries"}.
JsonValue CacheStatsJson(const Engine::CacheStats& stats) {
  JsonValue out = JsonValue::Object();
  out.Set("hits", JsonValue::Int(stats.hits));
  out.Set("misses", JsonValue::Int(stats.misses));
  out.Set("entries", JsonValue::Int(static_cast<std::int64_t>(stats.entries)));
  return out;
}

}  // namespace

BundleServer::BundleServer(const ServeOptions& options)
    : options_(options),
      engine_(options.engine),
      registry_(MarketRegistry::Options{std::max(1, options.max_markets)}),
      queue_(options.queue_depth) {
  // A market that leaves residency (LRU eviction or explicit drop) takes
  // its Engine cache namespace with it: a later market under the same id
  // must never inherit the old one's cached work.
  registry_.set_eviction_hook(
      [this](const std::string& id) { engine_.EvictMarketCaches(id); });
  const int workers = std::max(1, options_.workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

BundleServer::~BundleServer() {
  RequestShutdown();
  JoinThreads();
}

Status BundleServer::ListenTcp(int port) {
  StatusOr<ServerSocket> listener = ServerSocket::Listen(port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void BundleServer::AcceptLoop() {
  while (true) {
    SocketStream stream = listener_.Accept();
    if (!stream.valid()) break;  // Listener shut down: server is stopping.
    auto connection = std::make_shared<SocketSink>(std::move(stream));
    MutexLock lock(connections_mu_);
    // A connection that raced past the listener shutdown is cut immediately
    // — its thread still starts, sees EOF, and exits.
    if (connections_closed_) connection->Shutdown();
    connections_.push_back(connection);
    ++active_connections_;
    // Detached: a connection reaps itself when its peer hangs up (erasing
    // its registry entry and closing its fd), so a long-lived daemon's
    // footprint tracks *live* connections, not lifetime connections.
    // JoinThreads waits on the latch before the server is torn down.
    std::thread([this, connection] { ConnectionLoop(connection); }).detach();
  }
}

void BundleServer::ConnectionLoop(std::shared_ptr<SocketSink> connection) {
  std::string line;
  while (connection->ReadLine(&line)) {
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    HandleLine(line, connection);
  }
  connection->CloseStream();
  MutexLock lock(connections_mu_);
  connections_.erase(
      std::find(connections_.begin(), connections_.end(), connection));
  if (--active_connections_ == 0) connections_done_cv_.NotifyAll();
}

void BundleServer::ServeStream(std::istream& in, std::ostream& out) {
  auto sink = std::make_shared<StreamSink>(out);
  std::string line;
  while (!stopped() && ReadBoundedLine(in, &line, kMaxWireRequestBytes)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    HandleLine(line, sink);
  }
  // EOF is pipe-mode shutdown-without-a-response: drain what was admitted.
  RequestShutdown();
}

void BundleServer::HandleLine(const std::string& line,
                              const std::shared_ptr<ResponseSink>& sink) {
  WireEnvelope error_envelope;
  StatusOr<WireRequest> parsed = ParseWireRequest(line, &error_envelope);
  if (!parsed.ok()) {
    // A bad line never drops the connection: answer with the diagnostic —
    // echoing whatever envelope fields were parseable — and keep reading.
    metrics_.RecordParseError();
    sink->WriteLine(ErrorResponseJson(error_envelope, parsed.status()).Dump(0));
    return;
  }
  WireRequest request = std::move(*parsed);
  const WireEnvelope& envelope = request.envelope;
  switch (request.kind) {
    case WireKind::kPing: {
      WallTimer timer;
      sink->WriteLine(PingResponseJson(envelope).Dump(0));
      metrics_.RecordResult(WireKind::kPing, true, timer.Seconds(),
                            envelope.session);
      return;
    }
    case WireKind::kStats: {
      WallTimer timer;
      sink->WriteLine(StatsResponseJson(envelope, StatsJson()).Dump(0));
      metrics_.RecordResult(WireKind::kStats, true, timer.Seconds(),
                            envelope.session);
      return;
    }
    case WireKind::kUpdate: {
      // Inline on the connection thread: updates are metadata edits, and a
      // lockstep client gets read-your-writes ordering against its own
      // later resolves for free. The market lease spans exactly this
      // handler.
      WallTimer timer;
      bool ok = false;
      JsonValue response;
      if (Status denied = CheckTenant(envelope); !denied.ok()) {
        response = ErrorResponseJson(envelope, denied);
      } else if (StatusOr<MarketRegistry::Lease> lease =
                     registry_.Acquire(envelope.market, envelope.session);
                 !lease.ok()) {
        response = ErrorResponseJson(envelope, lease.status());
      } else {
        response = HandleUpdate(request, *lease->get(), &ok);
      }
      metrics_.RecordResult(WireKind::kUpdate, ok, timer.Seconds(),
                            envelope.session);
      sink->WriteLine(response.Dump(0));
      return;
    }
    case WireKind::kMarketList: {
      WallTimer timer;
      sink->WriteLine(HandleMarketList(envelope).Dump(0));
      metrics_.RecordResult(WireKind::kMarketList, true, timer.Seconds(),
                            envelope.session);
      return;
    }
    case WireKind::kMarketDrop: {
      // Inline like update: the drop drains in-flight leases on its market
      // (worker progress does not depend on this connection thread).
      WallTimer timer;
      bool ok = false;
      JsonValue response;
      if (Status denied = CheckTenant(envelope); !denied.ok()) {
        response = ErrorResponseJson(envelope, denied);
      } else {
        response = HandleMarketDrop(envelope, &ok);
      }
      metrics_.RecordResult(WireKind::kMarketDrop, ok, timer.Seconds(),
                            envelope.session);
      sink->WriteLine(response.Dump(0));
      return;
    }
    case WireKind::kShutdown:
      DrainAndStop(envelope, sink);
      return;
    case WireKind::kResolve:
    case WireKind::kBatch: {
      // Market-addressing queued kinds: the tenant gate and the market pin
      // both happen here, at admission on the connection thread — so a
      // later market-drop's drain covers queued-but-unstarted work, and a
      // denied tenant never occupies a queue slot. Batch solves reference
      // datasets rather than the market stream, so the "market" field on a
      // batch participates in auth but takes no lease.
      if (Status denied = CheckTenant(envelope); !denied.ok()) {
        metrics_.RecordResult(request.kind, false, 0.0, envelope.session,
                              /*admitted=*/false);
        sink->WriteLine(ErrorResponseJson(envelope, denied).Dump(0));
        return;
      }
      MarketRegistry::Lease lease;
      if (request.kind == WireKind::kResolve) {
        StatusOr<MarketRegistry::Lease> acquired =
            registry_.Acquire(envelope.market, envelope.session);
        if (!acquired.ok()) {
          metrics_.RecordResult(request.kind, false, 0.0, envelope.session,
                                /*admitted=*/false);
          sink->WriteLine(
              ErrorResponseJson(envelope, acquired.status()).Dump(0));
          return;
        }
        lease = std::move(*acquired);
      }
      Admit(std::move(request), sink, std::move(lease));
      return;
    }
    case WireKind::kSolve:
    case WireKind::kSweep:
      Admit(std::move(request), sink, MarketRegistry::Lease());
      return;
  }
}

JsonValue BundleServer::HandleUpdate(const WireRequest& request,
                                     MarketStream& market, bool* ok) {
  *ok = false;
  if (request.load.has_value()) {
    StatusOr<std::shared_ptr<const RatingsDataset>> dataset =
        engine_.Dataset(*request.load);
    if (!dataset.ok()) {
      return ErrorResponseJson(request.envelope, dataset.status());
    }
    if (Status loaded = market.Load(**dataset); !loaded.ok()) {
      return ErrorResponseJson(request.envelope, loaded);
    }
  }
  StatusOr<std::uint64_t> version = market.Apply(request.deltas);
  if (!version.ok()) {
    return ErrorResponseJson(request.envelope, version.status());
  }
  *ok = true;
  metrics_.RecordDeltasApplied(
      request.envelope.session,
      static_cast<std::int64_t>(request.deltas.size()));
  return UpdateResponseJson(request.envelope, *version, market.num_users(),
                            market.num_items(), request.deltas.size());
}

JsonValue BundleServer::HandleMarketList(const WireEnvelope& envelope) {
  std::vector<MarketListEntry> rows;
  for (const MarketRegistry::MarketInfo& info : registry_.List()) {
    // With the tenant map active a tenant sees exactly the markets it may
    // touch — listing is not a side channel across tenants.
    if (!options_.tenant_map.Allowed(envelope.session, info.id)) continue;
    MarketListEntry row;
    row.id = info.id;
    row.tenant = info.tenant;
    row.loaded = info.loaded;
    row.version = info.version;
    row.num_users = info.num_users;
    row.num_items = info.num_items;
    rows.push_back(std::move(row));
  }
  return MarketListResponseJson(envelope, rows);
}

JsonValue BundleServer::HandleMarketDrop(const WireEnvelope& envelope,
                                         bool* ok) {
  *ok = false;
  StatusOr<MarketRegistry::DropResult> result =
      registry_.Drop(envelope.market);
  if (!result.ok()) return ErrorResponseJson(envelope, result.status());
  *ok = true;
  return MarketDropResponseJson(envelope, envelope.market, result->drained,
                                result->final_version);
}

Status BundleServer::CheckTenant(const WireEnvelope& envelope) {
  Status status = options_.tenant_map.Check(envelope.session, envelope.market);
  if (!status.ok()) metrics_.RecordDenial(envelope.session);
  return status;
}

void BundleServer::Admit(WireRequest request,
                         const std::shared_ptr<ResponseSink>& sink,
                         MarketRegistry::Lease lease) {
  const WireKind kind = request.kind;
  const WireEnvelope envelope = request.envelope;
  bool draining = false;
  {
    MutexLock lock(state_mu_);
    draining = draining_;
    // Counted before the push so a concurrent shutdown drains this request;
    // rolled back if admission fails.
    if (!draining) ++outstanding_;
  }
  if (draining) {
    // Respond outside the lock: a peer that stopped reading must not be
    // able to stall the drain by blocking this write.
    metrics_.RecordRejected(kind, envelope.session);
    sink->WriteLine(ErrorResponseJson(
                        envelope,
                        Status::Unavailable("rejected: server draining"))
                        .Dump(0));
    return;
  }
  metrics_.RecordAdmitted(kind);
  QueuedWork work;
  work.request = std::move(request);
  work.sink = sink;
  work.admitted = std::chrono::steady_clock::now();
  work.lease = std::move(lease);  // Rejection paths below unpin on destroy.
  if (queue_.TryPush(std::move(work))) return;
  {
    MutexLock lock(state_mu_);
    if (--outstanding_ == 0) drain_cv_.NotifyAll();
  }
  metrics_.RecordAdmissionRollback(kind);
  metrics_.RecordRejected(kind, envelope.session);
  sink->WriteLine(
      ErrorResponseJson(envelope, Status::Unavailable(StrFormat(
                                      "rejected: queue full (depth %zu)",
                                      queue_.capacity())))
          .Dump(0));
}

void BundleServer::WorkerLoop() {
  while (std::optional<QueuedWork> work = queue_.Pop()) {
    ProcessQueued(std::move(*work));
    MutexLock lock(state_mu_);
    if (--outstanding_ == 0) drain_cv_.NotifyAll();
  }
}

void BundleServer::ProcessQueued(QueuedWork work) {
  const WireKind kind = work.request.kind;
  const WireEnvelope& envelope = work.request.envelope;

  // Deadline propagation: the budget is end-to-end, so queue wait comes out
  // of the Engine's share — and a request that already overstayed its budget
  // is answered without burning a solver on it. Batch entries carry their
  // own per-entry options, so the batch kind skips the shared budget.
  RequestOptions* options = nullptr;
  switch (kind) {
    case WireKind::kSolve: options = &work.request.solve.options; break;
    case WireKind::kSweep: options = &work.request.sweep_options; break;
    case WireKind::kResolve: options = &work.request.resolve_options; break;
    default: break;
  }
  const double waited = SecondsSince(work.admitted);
  if (options != nullptr && options->deadline_seconds > 0.0) {
    if (waited >= options->deadline_seconds) {
      // Record before writing: a lockstep client may issue a stats request
      // the instant it reads this response line.
      metrics_.RecordResult(kind, false, SecondsSince(work.admitted),
                            envelope.session);
      work.sink->WriteLine(
          ErrorResponseJson(
              envelope, Status::DeadlineExceeded(StrFormat(
                            "deadline of %.3fs expired after %.3fs in the "
                            "admission queue",
                            options->deadline_seconds, waited)))
              .Dump(0));
      return;
    }
    options->deadline_seconds -= waited;
  }

  JsonValue response;
  bool ok = false;
  switch (kind) {
    case WireKind::kSolve: {
      StatusOr<SolveResponse> solved = engine_.Solve(work.request.solve);
      ok = solved.ok();
      response = ok ? SolveResponseJson(envelope, *solved)
                    : ErrorResponseJson(envelope, solved.status());
      break;
    }
    case WireKind::kSweep: {
      StatusOr<ScenarioSpec> spec =
          ResolveScenarioSpec(work.request.sweep_spec);
      if (!spec.ok()) {
        response = ErrorResponseJson(envelope, spec.status());
        break;
      }
      SweepRequest sweep;
      sweep.spec = std::move(*spec);
      sweep.options = *options;
      sweep.shard_index = work.request.shard_index;
      sweep.shard_count = work.request.shard_count;
      StatusOr<SweepResponse> swept = engine_.Sweep(sweep);
      ok = swept.ok();
      response = ok ? SweepResponseJson(envelope, *swept)
                    : ErrorResponseJson(envelope, swept.status());
      break;
    }
    case WireKind::kResolve: {
      StatusOr<ScenarioSpec> spec =
          ResolveScenarioSpec(work.request.resolve_spec);
      if (!spec.ok()) {
        response = ErrorResponseJson(envelope, spec.status());
        break;
      }
      ResolveRequest resolve;
      resolve.market = work.lease.get();  // Pinned since admission.
      resolve.spec = std::move(*spec);
      resolve.options = *options;
      StatusOr<ResolveResponse> resolved = engine_.Resolve(resolve);
      ok = resolved.ok();
      if (ok) metrics_.RecordResolve(envelope.session);
      response = ok ? ResolveResponseJson(envelope, *resolved)
                    : ErrorResponseJson(envelope, resolved.status());
      break;
    }
    case WireKind::kBatch: {
      // One coalesced Engine call; per-entry failures become per-entry
      // error documents, and the batch itself still succeeds. Entries are
      // serialized with an empty envelope so each is byte-identical to the
      // same solve sent alone without an id.
      std::vector<StatusOr<SolveResponse>> solved =
          engine_.SolveBatch(work.request.batch);
      JsonValue responses = JsonValue::Array();
      const WireEnvelope entry_envelope;
      for (const StatusOr<SolveResponse>& entry : solved) {
        responses.Add(entry.ok()
                          ? SolveResponseJson(entry_envelope, *entry)
                          : ErrorResponseJson(entry_envelope, entry.status()));
      }
      ok = true;
      response = BatchResponseJson(envelope, std::move(responses));
      break;
    }
    default:
      response = ErrorResponseJson(
          envelope, Status::Internal("unqueueable kind reached a worker"));
      break;
  }
  // Record before writing (see the deadline path above for why).
  metrics_.RecordResult(kind, ok, SecondsSince(work.admitted),
                        envelope.session);
  work.sink->WriteLine(response.Dump(0));
}

void BundleServer::DrainAndStop(const WireEnvelope& envelope,
                                const std::shared_ptr<ResponseSink>& sink) {
  WallTimer timer;
  listener_.Shutdown();  // No new connections (no-op in pipe mode).
  std::int64_t drained = 0;
  {
    MutexLock lock(state_mu_);
    draining_ = true;  // New solve/sweep admissions now answer "draining".
    drained = outstanding_;
    while (outstanding_ != 0) drain_cv_.Wait(state_mu_);
  }
  queue_.Close();  // Queue is empty; workers exit their Pop loops.
  if (sink != nullptr) {
    sink->WriteLine(ShutdownResponseJson(envelope, drained).Dump(0));
    metrics_.RecordResult(WireKind::kShutdown, true, timer.Seconds(),
                          envelope.session);
  }
  {
    MutexLock lock(connections_mu_);
    connections_closed_ = true;
    for (const std::shared_ptr<SocketSink>& connection : connections_) {
      connection->Shutdown();  // Unblock every connection read loop.
    }
  }
  {
    MutexLock lock(state_mu_);
    stopped_ = true;
  }
  stopped_cv_.NotifyAll();
}

void BundleServer::RequestShutdown() { DrainAndStop(WireEnvelope(), nullptr); }

bool BundleServer::stopped() const {
  MutexLock lock(state_mu_);
  return stopped_;
}

void BundleServer::Wait() {
  {
    MutexLock lock(state_mu_);
    while (!stopped_) stopped_cv_.Wait(state_mu_);
  }
  JoinThreads();
}

void BundleServer::JoinThreads() {
  MutexLock join_lock(join_mu_);
  if (joined_) return;
  joined_ = true;
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // The accept thread has exited, so no new connections spawn; wait for the
  // detached connection threads (their sockets are already shut down) to
  // finish touching server state.
  MutexLock lock(connections_mu_);
  while (active_connections_ != 0) connections_done_cv_.Wait(connections_mu_);
}

JsonValue BundleServer::StatsJson() {
  JsonValue out = JsonValue::Object();
  out.Set("schema", JsonValue::Str("bundlemine.serve-stats"));
  // v2 added "market" (stream state), "resolve_cache", and per-session
  // request counters; v3 adds the multi-tenant view: "markets" (every
  // resident stream) and "tenants" (per-tenant ownership/denial counters).
  // "mining_cache" joined v3 later; additive, so the version stayed.
  out.Set("schema_version", JsonValue::Int(3));
  JsonValue server = JsonValue::Object();
  server.Set("queue_capacity",
             JsonValue::Int(static_cast<std::int64_t>(queue_.capacity())));
  server.Set("queue_depth",
             JsonValue::Int(static_cast<std::int64_t>(queue_.size())));
  server.Set("workers",
             JsonValue::Int(static_cast<std::int64_t>(workers_.size())));
  server.Set("engine_threads", JsonValue::Int(engine_.options().threads));
  {
    MutexLock lock(state_mu_);
    server.Set("in_flight", JsonValue::Int(outstanding_));
    server.Set("draining", JsonValue::Bool(draining_));
  }
  out.Set("server", std::move(server));
  const std::vector<MarketRegistry::MarketInfo> resident = registry_.List();
  // "market" keeps its pre-registry shape, reporting the default market
  // (zeroes when it is not resident) — the view single-tenant dashboards
  // already read; "markets" is the full registry.
  JsonValue market = JsonValue::Object();
  {
    const MarketRegistry::MarketInfo* default_market = nullptr;
    for (const MarketRegistry::MarketInfo& info : resident) {
      if (info.id == kDefaultMarketId) default_market = &info;
    }
    market.Set("loaded",
               JsonValue::Bool(default_market != nullptr &&
                               default_market->loaded));
    market.Set("version",
               JsonValue::Int(static_cast<std::int64_t>(
                   default_market != nullptr ? default_market->version : 0)));
    market.Set("num_users",
               JsonValue::Int(default_market != nullptr
                                  ? default_market->num_users
                                  : 0));
    market.Set("num_items",
               JsonValue::Int(default_market != nullptr
                                  ? default_market->num_items
                                  : 0));
  }
  out.Set("market", std::move(market));
  JsonValue markets = JsonValue::Array();
  for (const MarketRegistry::MarketInfo& info : resident) {
    JsonValue row = JsonValue::Object();
    row.Set("id", JsonValue::Str(info.id));
    if (!info.tenant.empty()) row.Set("tenant", JsonValue::Str(info.tenant));
    row.Set("loaded", JsonValue::Bool(info.loaded));
    row.Set("version",
            JsonValue::Int(static_cast<std::int64_t>(info.version)));
    row.Set("num_users", JsonValue::Int(info.num_users));
    row.Set("num_items", JsonValue::Int(info.num_items));
    row.Set("in_flight", JsonValue::Int(info.pins));
    markets.Add(std::move(row));
  }
  out.Set("markets", std::move(markets));
  // Per-tenant block: auth counters from the metrics merged with market
  // ownership from the registry. Ordered map → deterministic output.
  {
    std::map<std::string, ServeMetrics::TenantCounters> tenants =
        metrics_.TenantSnapshot();
    std::map<std::string, std::int64_t> owned;
    for (const MarketRegistry::MarketInfo& info : resident) {
      if (!info.tenant.empty()) ++owned[info.tenant];
    }
    for (const auto& [tenant, count] : owned) {
      (void)count;  // Ensure owners with zero recorded ops still appear.
      tenants.emplace(tenant, ServeMetrics::TenantCounters());
    }
    if (!tenants.empty()) {
      JsonValue block = JsonValue::Object();
      for (const auto& [tenant, counters] : tenants) {
        JsonValue row = JsonValue::Object();
        const auto owned_it = owned.find(tenant);
        row.Set("markets_owned",
                JsonValue::Int(owned_it != owned.end() ? owned_it->second
                                                       : 0));
        row.Set("deltas_applied", JsonValue::Int(counters.deltas_applied));
        row.Set("resolves", JsonValue::Int(counters.resolves));
        row.Set("denials", JsonValue::Int(counters.denials));
        block.Set(tenant, std::move(row));
      }
      out.Set("tenants", std::move(block));
    }
  }
  out.Set("requests", metrics_.ToJson());
  out.Set("dataset_cache", CacheStatsJson(engine_.dataset_cache_stats()));
  out.Set("wtp_cache", CacheStatsJson(engine_.wtp_cache_stats()));
  out.Set("mining_cache", CacheStatsJson(engine_.mining_cache_stats()));
  out.Set("resolve_cache", CacheStatsJson(engine_.resolve_cache_stats()));
  out.Set("uptime_seconds", JsonValue::Double(uptime_timer_.Seconds()));
  return out;
}

}  // namespace bundlemine
