#include "serve/orchestrator.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "scenario/artifact_merge.h"
#include "scenario/artifact_reader.h"
#include "scenario/artifact_writer.h"
#include "serve/client.h"
#include "util/strings.h"
#include "util/timer.h"

namespace bundlemine {
namespace {

/// Inverse of StatusCodeName for the wire's error.code strings; a code this
/// client does not know maps to INTERNAL (the server is from the future).
StatusCode StatusCodeByName(const std::string& name) {
  if (name == "INVALID_ARGUMENT") return StatusCode::kInvalidArgument;
  if (name == "NOT_FOUND") return StatusCode::kNotFound;
  if (name == "DEADLINE_EXCEEDED") return StatusCode::kDeadlineExceeded;
  if (name == "UNAVAILABLE") return StatusCode::kUnavailable;
  return StatusCode::kInternal;
}

/// Deterministic errors fail the same way on every worker — retrying
/// elsewhere cannot help, so they terminate the run immediately.
bool IsDeterministicError(StatusCode code) {
  return code == StatusCode::kInvalidArgument || code == StatusCode::kNotFound;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

const JsonValue* FindTyped(const JsonValue* object, const std::string& key,
                           JsonValue::Kind kind) {
  if (object == nullptr || object->kind() != JsonValue::Kind::kObject) {
    return nullptr;
  }
  const JsonValue* member = object->FindMember(key);
  return (member != nullptr && member->kind() == kind) ? member : nullptr;
}

}  // namespace

FleetOrchestrator::FleetOrchestrator(std::vector<FleetWorker> workers,
                                     OrchestratorOptions options,
                                     FaultInjector* faults)
    : workers_(std::move(workers)), options_(options), faults_(faults) {}

StatusOr<OrchestrateResult> FleetOrchestrator::Run(
    const std::string& spec_argument, JsonValue* failure_report) {
  WallTimer timer;
  if (workers_.empty()) {
    return Status::InvalidArgument(
        "no fleet workers (pass host:port endpoints and/or --spawn=N)");
  }
  // Resolve and validate locally first: a bad spec is a typed error before
  // any wire traffic, and the canonical text (not a preset name or a local
  // @path) is what travels to workers, so remote fleets need no shared
  // filesystem and every worker provably runs the identical scenario.
  StatusOr<ScenarioSpec> spec = ResolveScenarioSpec(spec_argument);
  if (!spec.ok()) return spec.status();
  wire_spec_ = FormatScenarioSpec(*spec);

  const int grid = static_cast<int>(ExpandGrid(*spec).size());
  int shard_count = options_.shard_count > 0
                        ? options_.shard_count
                        : 2 * static_cast<int>(workers_.size());
  shard_count = std::max(1, std::min(shard_count, grid));

  {
    // No worker threads exist yet; the lock is for the analysis (and costs
    // nothing uncontended).
    MutexLock lock(mu_);
    const Clock::time_point now = Clock::now();
    shards_.assign(static_cast<std::size_t>(shard_count), ShardState{});
    for (ShardState& shard : shards_) {
      shard.not_before = now;
      shard.last_dispatch = now;
    }
    worker_states_.assign(workers_.size(), WorkerState{});
    completed_ = 0;
    live_workers_ = static_cast<int>(workers_.size());
    aborted_ = false;
    terminal_ = Status::Ok();
  }

  std::vector<std::thread> threads;
  threads.reserve(workers_.size());
  for (int w = 0; w < static_cast<int>(workers_.size()); ++w) {
    threads.emplace_back([this, w] { WorkerLoop(w); });
  }
  for (std::thread& thread : threads) thread.join();

  JsonValue report = BuildReport(timer.Seconds());
  std::vector<SweepResult> slices;
  {
    // Workers are joined; the lock is again for the analysis.
    MutexLock lock(mu_);
    if (aborted_) {
      if (failure_report != nullptr) *failure_report = report;
      return terminal_;
    }
    slices.reserve(shards_.size());
    for (ShardState& shard : shards_) {
      slices.push_back(std::move(*shard.result));
    }
  }
  StatusOr<SweepResult> merged = MergeSweepResults(slices);
  if (!merged.ok()) {
    // Unreachable when the scheduler is correct (every shard completed);
    // surfacing the merge diagnostic beats asserting.
    if (failure_report != nullptr) *failure_report = report;
    return Status::Internal(
        StrFormat("fleet produced unmergeable shards: %s",
                  merged.status().message().c_str()));
  }
  OrchestrateResult out;
  out.merged = std::move(*merged);
  out.report = std::move(report);
  return out;
}

void FleetOrchestrator::WorkerLoop(int worker) {
  while (std::optional<Dispatch> dispatch = AcquireShard(worker)) {
    WallTimer attempt_timer;
    AttemptOutcome outcome =
        ExecuteAttempt(worker, dispatch->shard, dispatch->attempt);
    CompleteAttempt(worker, *dispatch, std::move(outcome),
                    attempt_timer.Seconds());
  }
}

std::optional<FleetOrchestrator::Dispatch> FleetOrchestrator::AcquireShard(
    int worker) {
  MutexLock lock(mu_);
  while (true) {
    if (aborted_ || completed_ == static_cast<int>(shards_.size()) ||
        worker_states_[worker].retired) {
      return std::nullopt;
    }
    const Clock::time_point now = Clock::now();
    Clock::time_point wake = now + std::chrono::milliseconds(100);

    // Queued work first, lowest stable shard index whose backoff is ripe.
    int pending = -1;
    for (int i = 0; i < static_cast<int>(shards_.size()); ++i) {
      ShardState& shard = shards_[static_cast<std::size_t>(i)];
      if (!shard.queued) continue;
      if (shard.not_before <= now) {
        pending = i;
        break;
      }
      wake = std::min(wake, shard.not_before);
    }
    // Queue drained: steal the oldest eligible in-flight shard — one this
    // worker is not already running, with at most one straggling copy, and
    // attempt budget left for the duplicate dispatch.
    int steal = -1;
    if (pending < 0) {
      for (int i = 0; i < static_cast<int>(shards_.size()); ++i) {
        ShardState& shard = shards_[static_cast<std::size_t>(i)];
        if (shard.queued || shard.done || shard.in_flight != 1 ||
            shard.attempts >= options_.max_attempts) {
          continue;
        }
        if (std::find(shard.active_workers.begin(), shard.active_workers.end(),
                      worker) != shard.active_workers.end()) {
          continue;
        }
        const Clock::time_point ripe =
            shard.last_dispatch +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(options_.steal_after_seconds));
        if (ripe > now) {
          wake = std::min(wake, ripe);
          continue;
        }
        if (steal < 0 ||
            shard.last_dispatch <
                shards_[static_cast<std::size_t>(steal)].last_dispatch) {
          steal = i;
        }
      }
    }

    const int chosen = pending >= 0 ? pending : steal;
    if (chosen >= 0) {
      ShardState& shard = shards_[static_cast<std::size_t>(chosen)];
      Dispatch dispatch;
      dispatch.shard = chosen;
      dispatch.attempt = shard.attempts;
      dispatch.stolen = pending < 0;
      shard.queued = false;
      ++shard.attempts;
      ++shard.in_flight;
      if (dispatch.stolen) ++shard.steals;
      shard.active_workers.push_back(worker);
      shard.last_dispatch = now;
      ++worker_states_[worker].dispatched;
      return dispatch;
    }
    cv_.WaitUntil(mu_, wake);
  }
}

FleetOrchestrator::AttemptOutcome FleetOrchestrator::ExecuteAttempt(
    int worker, int shard, int attempt) {
  AttemptOutcome out;
  FaultDecision fault;
  if (faults_ != nullptr) fault = faults_->OnDispatch(shard, attempt);
  if (fault.kill_worker >= 0) {
    if (faults_->kill_handler()) {
      faults_->kill_handler()(fault.kill_worker);
    } else {
      fault.drop_connection = true;  // No processes to kill: degrade.
    }
  }
  if (fault.fail_before_send) {
    out.status = Status::Unavailable(StrFormat(
        "injected failure on attempt %d of shard %d", attempt, shard));
    out.synthetic = true;
    return out;
  }

  const FleetWorker& endpoint = workers_[static_cast<std::size_t>(worker)];
  const Clock::time_point start = Clock::now();
  StatusOr<WireClient> client = WireClient::Connect(endpoint.host, endpoint.port);
  if (!client.ok()) {
    out.status = client.status();
    return out;
  }
  client->set_call_timeout(options_.shard_timeout_seconds);

  JsonValue request = JsonValue::Object();
  request.Set("kind", JsonValue::Str("sweep"));
  request.Set("id", JsonValue::Int(shard));
  request.Set("spec", JsonValue::Str(wire_spec_));
  request.Set("shard",
              JsonValue::Str(StrFormat("%d/%zu", shard, shards_.size())));
  if (options_.request_threads > 0) {
    JsonValue request_options = JsonValue::Object();
    request_options.Set("threads", JsonValue::Int(options_.request_threads));
    request.Set("options", std::move(request_options));
  }
  if (Status sent = client->SendLine(request.Dump(0)); !sent.ok()) {
    out.status = sent;
    return out;
  }

  if (fault.drop_connection) {
    out.status =
        Status::Unavailable("injected connection drop before the reply");
    return out;  // ~WireClient closes the connection.
  }
  if (fault.delay_reply_seconds > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(fault.delay_reply_seconds));
  }
  const double remaining =
      options_.shard_timeout_seconds - SecondsSince(start);
  if (remaining <= 0.0) {
    out.status = Status::DeadlineExceeded(
        StrFormat("no reply within the %.3fs shard timeout",
                  options_.shard_timeout_seconds));
  } else {
    client->set_call_timeout(remaining);
    StatusOr<std::string> reply = client->ReadLine();
    if (!reply.ok()) {
      out.status = reply.status();
    } else {
      std::string line = *reply;
      if (fault.truncate_reply) line.resize(line.size() / 2);
      if (fault.corrupt_reply && !line.empty()) line[0] = '#';
      out.status = Status::Ok();
      std::string diagnostic;
      std::optional<JsonValue> parsed = JsonParse(line, &diagnostic);
      if (!parsed) {
        out.status = Status::Internal(
            StrFormat("unparsable reply line: %s", diagnostic.c_str()));
      } else {
        const JsonValue* ok = FindTyped(&*parsed, "ok", JsonValue::Kind::kBool);
        if (ok == nullptr) {
          out.status = Status::Internal("reply has no boolean 'ok' field");
        } else if (!ok->AsBool()) {
          const JsonValue* error =
              FindTyped(&*parsed, "error", JsonValue::Kind::kObject);
          const JsonValue* code =
              FindTyped(error, "code", JsonValue::Kind::kString);
          const JsonValue* message =
              FindTyped(error, "message", JsonValue::Kind::kString);
          out.status = Status(
              code != nullptr ? StatusCodeByName(code->AsString())
                              : StatusCode::kInternal,
              message != nullptr ? message->AsString()
                                 : "error reply without a message");
        } else {
          const JsonValue* artifact = parsed->FindMember("artifact");
          if (artifact == nullptr) {
            out.status = Status::Internal("sweep reply has no 'artifact'");
          } else {
            // Re-render exactly as bundlemine_client --artifact-out does:
            // the embedded document plus Dump(2) is byte-identical to
            // `configurator_cli --json`, so the reader's round-trip
            // contract applies verbatim.
            StatusOr<SweepResult> slice =
                ParseSweepArtifact(artifact->Dump(2) + "\n");
            if (!slice.ok()) {
              out.status = Status::Internal(
                  StrFormat("reply artifact unreadable: %s",
                            slice.status().message().c_str()));
            } else {
              out.result = std::move(*slice);
            }
          }
        }
      }
    }
  }
  if (out.status.code() == StatusCode::kDeadlineExceeded) {
    out.probe = ProbeWorker(worker);
  }
  return out;
}

std::string FleetOrchestrator::ProbeWorker(int worker) {
  const FleetWorker& endpoint = workers_[static_cast<std::size_t>(worker)];
  StatusOr<WireClient> client = WireClient::Connect(endpoint.host, endpoint.port);
  if (!client.ok()) return "unreachable";
  client->set_call_timeout(std::min(1.0, options_.shard_timeout_seconds));
  StatusOr<JsonValue> reply = client->CallJson(R"({"kind":"stats"})");
  if (!reply.ok()) return "unreachable";
  // requests.sweep.in_flight > 0 says the worker is *busy* (still chewing a
  // sweep — likely ours): a straggler worth stealing from, not a corpse.
  const JsonValue* stats = FindTyped(&*reply, "stats", JsonValue::Kind::kObject);
  const JsonValue* requests =
      FindTyped(stats, "requests", JsonValue::Kind::kObject);
  const JsonValue* sweep = FindTyped(requests, "sweep", JsonValue::Kind::kObject);
  const JsonValue* in_flight =
      FindTyped(sweep, "in_flight", JsonValue::Kind::kInt);
  if (in_flight == nullptr) return "unreachable";
  return in_flight->AsInt() > 0 ? "busy" : "idle";
}

double FleetOrchestrator::BackoffSeconds(int attempts_so_far) const {
  double backoff = options_.backoff_initial_seconds;
  for (int i = 1; i < attempts_so_far; ++i) backoff *= 2.0;
  return std::min(backoff, options_.backoff_cap_seconds);
}

void FleetOrchestrator::CompleteAttempt(int worker, const Dispatch& dispatch,
                                        AttemptOutcome outcome,
                                        double seconds) {
  MutexLock lock(mu_);
  ShardState& shard = shards_[static_cast<std::size_t>(dispatch.shard)];
  WorkerState& state = worker_states_[static_cast<std::size_t>(worker)];
  --shard.in_flight;
  shard.active_workers.erase(
      std::find(shard.active_workers.begin(), shard.active_workers.end(),
                worker));

  Assignment record;
  record.worker = worker;
  record.attempt = dispatch.attempt;
  record.stolen = dispatch.stolen;
  record.probe = std::move(outcome.probe);
  record.seconds = seconds;

  if (outcome.status.ok()) {
    ++state.ok;
    state.consecutive_transport_failures = 0;
    if (shard.done) {
      // A steal race this copy lost: the shard already completed. Cell
      // solves are deterministic, so the duplicate result is identical and
      // dropping it is purely bookkeeping.
      record.outcome = "discarded";
    } else {
      record.outcome = "ok";
      shard.done = true;
      shard.result = std::move(outcome.result);
      ++completed_;
    }
  } else {
    ++state.failed;
    record.outcome = StatusCodeName(outcome.status.code());
    record.error = outcome.status.message();
    shard.last_error = outcome.status;

    // Worker health: only real transport evidence retires a worker —
    // synthetic (injected-before-send) failures say nothing about it.
    if (!outcome.synthetic && !state.retired) {
      if (++state.consecutive_transport_failures >=
          options_.worker_dead_after) {
        state.retired = true;
        --live_workers_;
      }
    }

    if (!shard.done && !aborted_) {
      const StatusCode code = outcome.status.code();
      if (IsDeterministicError(code)) {
        aborted_ = true;
        terminal_ = Status(
            code, StrFormat("shard %d/%zu failed deterministically: %s",
                            dispatch.shard, shards_.size(),
                            outcome.status.message().c_str()));
      } else if (shard.in_flight == 0) {
        if (shard.attempts >= options_.max_attempts) {
          aborted_ = true;
          terminal_ = Status(
              code,
              StrFormat("shard %d/%zu unservable: %d attempts exhausted "
                        "across the fleet (last error: %s)",
                        dispatch.shard, shards_.size(), shard.attempts,
                        outcome.status.message().c_str()));
        } else {
          shard.queued = true;
          shard.not_before =
              Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     BackoffSeconds(shard.attempts)));
        }
      }
      // With another copy still in flight the shard's fate is undecided:
      // its completion runs this policy again.
    }
    if (live_workers_ == 0 && !aborted_ &&
        completed_ < static_cast<int>(shards_.size())) {
      aborted_ = true;
      terminal_ = Status::Unavailable(StrFormat(
          "all %zu workers retired with %d of %zu shards incomplete "
          "(last error: %s)",
          workers_.size(), static_cast<int>(shards_.size()) - completed_,
          shards_.size(), outcome.status.message().c_str()));
    }
  }
  shard.log.push_back(std::move(record));
  cv_.NotifyAll();
}

JsonValue FleetOrchestrator::BuildReport(double wall_seconds) const {
  MutexLock lock(mu_);
  JsonValue out = JsonValue::Object();
  out.Set("schema", JsonValue::Str("bundlemine.orchestrate-report"));
  out.Set("schema_version", JsonValue::Int(1));
  out.Set("spec", JsonValue::Str(wire_spec_));
  out.Set("shard_count",
          JsonValue::Int(static_cast<std::int64_t>(shards_.size())));
  out.Set("completed_shards", JsonValue::Int(completed_));
  out.Set("aborted", JsonValue::Bool(aborted_));
  if (aborted_) {
    // Same {code, message} shape as a wire error — the CI chaos gate and
    // other consumers read the code without parsing a rendered string.
    JsonValue error = JsonValue::Object();
    error.Set("code", JsonValue::Str(StatusCodeName(terminal_.code())));
    error.Set("message", JsonValue::Str(terminal_.message()));
    out.Set("terminal_error", std::move(error));
  }

  JsonValue workers = JsonValue::Array();
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const WorkerState& state = worker_states_[w];
    JsonValue entry = JsonValue::Object();
    entry.Set("endpoint", JsonValue::Str(StrFormat(
                              "%s:%d", workers_[w].host.c_str(),
                              workers_[w].port)));
    entry.Set("dispatched", JsonValue::Int(state.dispatched));
    entry.Set("ok", JsonValue::Int(state.ok));
    entry.Set("failed", JsonValue::Int(state.failed));
    entry.Set("retired", JsonValue::Bool(state.retired));
    workers.Add(std::move(entry));
  }
  out.Set("workers", std::move(workers));

  std::int64_t retries = 0;
  std::int64_t reassignments = 0;
  std::int64_t steals = 0;
  JsonValue shards = JsonValue::Array();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardState& shard = shards_[i];
    retries += std::max(0, shard.attempts - 1);
    steals += shard.steals;

    // Dispatch order for reassignment accounting: the log records
    // completions, which interleave under steals.
    std::vector<const Assignment*> by_attempt;
    by_attempt.reserve(shard.log.size());
    for (const Assignment& a : shard.log) by_attempt.push_back(&a);
    std::sort(by_attempt.begin(), by_attempt.end(),
              [](const Assignment* a, const Assignment* b) {
                return a->attempt < b->attempt;
              });
    for (std::size_t k = 1; k < by_attempt.size(); ++k) {
      if (by_attempt[k]->worker != by_attempt[k - 1]->worker) ++reassignments;
    }

    JsonValue entry = JsonValue::Object();
    entry.Set("index", JsonValue::Int(static_cast<std::int64_t>(i)));
    entry.Set("attempts", JsonValue::Int(shard.attempts));
    entry.Set("steals", JsonValue::Int(shard.steals));
    entry.Set("completed", JsonValue::Bool(shard.done));
    JsonValue assignments = JsonValue::Array();
    for (const Assignment* a : by_attempt) {
      JsonValue dispatch = JsonValue::Object();
      dispatch.Set("worker", JsonValue::Int(a->worker));
      dispatch.Set("attempt", JsonValue::Int(a->attempt));
      dispatch.Set("stolen", JsonValue::Bool(a->stolen));
      dispatch.Set("outcome", JsonValue::Str(a->outcome));
      if (!a->error.empty()) dispatch.Set("error", JsonValue::Str(a->error));
      if (!a->probe.empty()) dispatch.Set("probe", JsonValue::Str(a->probe));
      dispatch.Set("seconds", JsonValue::Double(a->seconds));
      assignments.Add(std::move(dispatch));
    }
    entry.Set("assignments", std::move(assignments));
    shards.Add(std::move(entry));
  }
  out.Set("shards", std::move(shards));

  JsonValue totals = JsonValue::Object();
  totals.Set("retries", JsonValue::Int(retries));
  totals.Set("reassignments", JsonValue::Int(reassignments));
  totals.Set("steals", JsonValue::Int(steals));
  totals.Set("faults_injected",
             JsonValue::Int(faults_ != nullptr ? faults_->TotalFired() : 0));
  out.Set("totals", std::move(totals));
  out.Set("wall_seconds", JsonValue::Double(wall_seconds));
  return out;
}

}  // namespace bundlemine
