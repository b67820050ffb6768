#include "replay.h"

#include <utility>
#include <vector>

#include "market/market_stream.h"
#include "serve/protocol.h"

namespace perfbench {

using bundlemine::ErrorResponseJson;
using bundlemine::JsonValue;
using bundlemine::MarketRegistry;
using bundlemine::Status;
using bundlemine::StatusOr;
using bundlemine::WireEnvelope;
using bundlemine::WireKind;
using bundlemine::WireRequest;

bundlemine::Engine::Options DaemonEngineOptions() {
  bundlemine::Engine::Options options;
  options.threads = 1;
  return options;
}

InProcessServer::InProcessServer(const bundlemine::Engine::Options& options)
    : engine_(options), registry_(MarketRegistry::Options{}) {
  registry_.set_eviction_hook(
      [this](const std::string& id) { engine_.EvictMarketCaches(id); });
}

std::string InProcessServer::Serve(const std::string& line, SpanLog* log,
                                   int parent, std::int64_t op) {
  WireEnvelope error_envelope;
  StatusOr<WireRequest> parsed = Status::Internal("unparsed");
  {
    ScopedSpan span(log, kSpanParse, parent, op);
    parsed = bundlemine::ParseWireRequest(line, &error_envelope);
  }
  if (!parsed.ok()) {
    return ErrorResponseJson(error_envelope, parsed.status()).Dump(0);
  }
  const WireRequest& request = *parsed;
  const WireEnvelope& envelope = request.envelope;
  const auto encode = [&](const JsonValue& response) {
    ScopedSpan span(log, kSpanEncode, parent, op);
    return response.Dump(0);
  };
  const auto release = [&](MarketRegistry::Lease& lease) {
    ScopedSpan span(log, kSpanRelease, parent, op);
    lease = MarketRegistry::Lease();
  };

  switch (request.kind) {
    case WireKind::kSolve: {
      StatusOr<bundlemine::SolveResponse> solved = Status::Internal("unsolved");
      {
        ScopedSpan span(log, kSpanApi, parent, op);
        solved = engine_.Solve(request.solve);
      }
      ScopedSpan span(log, kSpanEncode, parent, op);
      return (solved.ok() ? bundlemine::SolveResponseJson(envelope, *solved)
                          : ErrorResponseJson(envelope, solved.status()))
          .Dump(0);
    }
    case WireKind::kSweep: {
      StatusOr<bundlemine::SweepResponse> swept = Status::Internal("unswept");
      {
        ScopedSpan span(log, kSpanApi, parent, op);
        StatusOr<bundlemine::ScenarioSpec> spec =
            bundlemine::ResolveScenarioSpec(request.sweep_spec);
        if (!spec.ok()) {
          swept = spec.status();
        } else {
          bundlemine::SweepRequest sweep;
          sweep.spec = std::move(*spec);
          sweep.options = request.sweep_options;
          sweep.shard_index = request.shard_index;
          sweep.shard_count = request.shard_count;
          swept = engine_.Sweep(sweep);
        }
      }
      ScopedSpan span(log, kSpanEncode, parent, op);
      return (swept.ok() ? bundlemine::SweepResponseJson(envelope, *swept)
                         : ErrorResponseJson(envelope, swept.status()))
          .Dump(0);
    }
    case WireKind::kBatch: {
      std::vector<StatusOr<bundlemine::SolveResponse>> solved;
      {
        ScopedSpan span(log, kSpanApi, parent, op);
        solved = engine_.SolveBatch(request.batch);
      }
      ScopedSpan span(log, kSpanEncode, parent, op);
      JsonValue responses = JsonValue::Array();
      const WireEnvelope entry_envelope;
      for (const StatusOr<bundlemine::SolveResponse>& entry : solved) {
        responses.Add(entry.ok()
                          ? bundlemine::SolveResponseJson(entry_envelope, *entry)
                          : ErrorResponseJson(entry_envelope, entry.status()));
      }
      return bundlemine::BatchResponseJson(envelope, std::move(responses))
          .Dump(0);
    }
    case WireKind::kUpdate: {
      StatusOr<MarketRegistry::Lease> lease = Status::Internal("unleased");
      {
        ScopedSpan span(log, kSpanAcquire, parent, op);
        lease = registry_.Acquire(envelope.market, envelope.session);
      }
      if (!lease.ok()) return encode(ErrorResponseJson(envelope, lease.status()));
      bundlemine::MarketStream& market = *lease->get();
      if (request.load.has_value()) {
        StatusOr<std::shared_ptr<const bundlemine::RatingsDataset>> dataset =
            engine_.Dataset(*request.load);
        if (!dataset.ok()) {
          return encode(ErrorResponseJson(envelope, dataset.status()));
        }
        if (Status loaded = market.Load(**dataset); !loaded.ok()) {
          return encode(ErrorResponseJson(envelope, loaded));
        }
      }
      StatusOr<std::uint64_t> version = Status::Internal("unapplied");
      {
        ScopedSpan span(log, kSpanApply, parent, op);
        version = market.Apply(request.deltas);
      }
      JsonValue response =
          version.ok()
              ? bundlemine::UpdateResponseJson(envelope, *version,
                                               market.num_users(),
                                               market.num_items(),
                                               request.deltas.size())
              : ErrorResponseJson(envelope, version.status());
      release(*lease);
      return encode(response);
    }
    case WireKind::kResolve: {
      StatusOr<MarketRegistry::Lease> lease = Status::Internal("unleased");
      {
        ScopedSpan span(log, kSpanAcquire, parent, op);
        lease = registry_.Acquire(envelope.market, envelope.session);
      }
      if (!lease.ok()) return encode(ErrorResponseJson(envelope, lease.status()));
      if (lease->get()->loaded()) {
        // Engine::Resolve snapshots again; the stream caches the snapshot per
        // version, so this span carries the snapshot's cost.
        ScopedSpan span(log, kSpanSnapshot, parent, op);
        lease->get()->TakeSnapshot();
      }
      StatusOr<bundlemine::ResolveResponse> resolved =
          Status::Internal("unresolved");
      {
        ScopedSpan span(log, kSpanApi, parent, op);
        StatusOr<bundlemine::ScenarioSpec> spec =
            bundlemine::ResolveScenarioSpec(request.resolve_spec);
        if (!spec.ok()) {
          resolved = spec.status();
        } else {
          bundlemine::ResolveRequest resolve;
          resolve.market = lease->get();
          resolve.spec = std::move(*spec);
          resolve.options = request.resolve_options;
          resolved = engine_.Resolve(resolve);
        }
      }
      release(*lease);
      ScopedSpan span(log, kSpanEncode, parent, op);
      return (resolved.ok()
                  ? bundlemine::ResolveResponseJson(envelope, *resolved)
                  : ErrorResponseJson(envelope, resolved.status()))
          .Dump(0);
    }
    default:
      return encode(ErrorResponseJson(
          envelope, Status::InvalidArgument("kind not replayed in-process")));
  }
}

}  // namespace perfbench
