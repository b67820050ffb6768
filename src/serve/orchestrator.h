// Fleet sweep orchestration: fan a ScenarioSpec's shard sub-sweeps out over
// a fleet of bundlemined workers, survive worker failure, and join the
// returned artifacts into a document byte-identical to the unsharded run.
//
// The coordinator is a shard scheduler plus a failure policy:
//
//   * One thread per worker pulls shards from a shared queue (lowest stable
//     shard index first) and executes them as wire sweeps over the JSON
//     protocol (serve/protocol.h), one connection per attempt.
//   * A failed attempt requeues the shard with capped exponential backoff;
//     every attempt (including steals) counts against the shard's
//     max_attempts budget.
//   * When the queue drains, an idle worker *steals* a shard that has been
//     in flight longer than steal_after — a duplicate dispatch racing the
//     straggler; the first success wins and the loser's result is
//     discarded. Cell solves are deterministic, so duplicates are free of
//     result races by construction.
//   * A worker accumulating consecutive transport failures (connect
//     refused, hangup, timeout) is retired; its thread exits and the rest
//     of the fleet absorbs the load. When every worker is retired, or a
//     shard exhausts its attempts with no copy still in flight, the run
//     aborts with a typed terminal error — never a silently partial
//     artifact.
//   * A shard answered with a *deterministic* error (INVALID_ARGUMENT,
//     NOT_FOUND — the spec would fail identically everywhere) aborts the
//     run immediately with that error.
//
// Results return as parsed SweepResults (each shard's embedded artifact is
// re-rendered and read back through scenario/artifact_reader.h, so doubles
// round-trip exactly) and join via MergeSweepResults — the merged artifact
// is cmp-identical to `configurator_cli --sweep --json` on the same spec.
// A machine-readable run report ("bundlemine.orchestrate-report" v1)
// records every dispatch: per-shard attempts, worker assignment, steal and
// reassignment counts, wall times, and straggler probes.
//
// Fault injection (serve/fault_injection.h) plugs in at this layer's wire
// client; the orchestrator cannot tell an injected fault from a real one.

#ifndef BUNDLEMINE_SERVE_ORCHESTRATOR_H_
#define BUNDLEMINE_SERVE_ORCHESTRATOR_H_

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.h"
#include "scenario/sweep_runner.h"
#include "serve/fault_injection.h"
#include "util/json.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace bundlemine {

/// One fleet endpoint speaking the bundlemined wire protocol.
struct FleetWorker {
  std::string host = "127.0.0.1";
  int port = 0;
};

struct OrchestratorOptions {
  /// Shards to split the grid into. 0 = twice the worker count (enough
  /// slack for work stealing to matter), clamped to the grid size.
  int shard_count = 0;
  /// Dispatch budget per shard across the whole fleet (first attempt,
  /// retries, and steals all count).
  int max_attempts = 4;
  /// Per-attempt wall budget: an attempt whose reply has not arrived within
  /// this window fails with DEADLINE_EXCEEDED and the shard is retried.
  double shard_timeout_seconds = 60.0;
  /// Capped exponential backoff between a shard's retries:
  /// min(cap, initial * 2^(attempt-1)).
  double backoff_initial_seconds = 0.05;
  double backoff_cap_seconds = 2.0;
  /// An idle worker (empty queue) re-dispatches a shard that has been in
  /// flight longer than this — the work-stealing window.
  double steal_after_seconds = 1.0;
  /// Consecutive transport failures (connect refused / hangup / timeout)
  /// before a worker is retired from the fleet.
  int worker_dead_after = 3;
  /// Engine threads requested per shard sweep (0 = worker default).
  int request_threads = 0;
};

/// A successful orchestration: the joined result (byte-identical to the
/// unsharded run when rendered) plus the machine-readable run report.
struct OrchestrateResult {
  SweepResult merged;
  JsonValue report;
};

/// One orchestration run over a fixed fleet. Single-use: construct, Run,
/// inspect. Not thread-safe (Run drives its own worker threads).
class FleetOrchestrator {
 public:
  /// `faults` (optional) must outlive the orchestrator.
  FleetOrchestrator(std::vector<FleetWorker> workers,
                    OrchestratorOptions options,
                    FaultInjector* faults = nullptr);

  /// Fans `spec_argument` (preset name, @path, or inline text — resolved
  /// and validated locally first) out over the fleet. On failure the typed
  /// terminal error comes back and, when `failure_report` is non-null, the
  /// run report up to the abort is still written there (the CI chaos job
  /// uploads it either way).
  StatusOr<OrchestrateResult> Run(const std::string& spec_argument,
                                  JsonValue* failure_report = nullptr);

 private:
  using Clock = std::chrono::steady_clock;

  /// Per-dispatch record for the run report.
  struct Assignment {
    int worker = -1;
    int attempt = 0;      ///< 0-based attempt number for the shard.
    bool stolen = false;  ///< Dispatched as a duplicate of an in-flight copy.
    std::string outcome;  ///< "ok", "discarded", or a StatusCode name.
    std::string error;    ///< Failure message ("" on success).
    std::string probe;    ///< Straggler probe: "busy", "idle", "unreachable".
    double seconds = 0.0;
  };

  struct ShardState {
    bool queued = true;
    bool done = false;
    int attempts = 0;
    int steals = 0;
    int in_flight = 0;
    std::vector<int> active_workers;  ///< Workers currently running a copy.
    Clock::time_point not_before;     ///< Backoff gate while queued.
    Clock::time_point last_dispatch;
    Status last_error;
    std::optional<SweepResult> result;
    std::vector<Assignment> log;
  };

  struct WorkerState {
    int dispatched = 0;
    int ok = 0;
    int failed = 0;
    int consecutive_transport_failures = 0;
    bool retired = false;
  };

  /// Outcome of one wire attempt.
  struct AttemptOutcome {
    Status status;      ///< Ok or the attempt's failure.
    SweepResult result; ///< Valid iff status.ok().
    std::string probe;  ///< Straggler probe classification ("" = none).
    /// The failure was injected before any wire traffic — it says nothing
    /// about the worker's health and must not count toward retiring it.
    bool synthetic = false;
  };

  /// One granted dispatch: which shard, its 0-based attempt number, and
  /// whether it duplicates an in-flight copy (steal).
  struct Dispatch {
    int shard = 0;
    int attempt = 0;
    bool stolen = false;
  };

  void WorkerLoop(int worker) EXCLUDES(mu_);
  /// Blocks for the next shard this worker should run; nullopt when the
  /// worker should exit (run finished, aborted, or this worker retired).
  std::optional<Dispatch> AcquireShard(int worker) EXCLUDES(mu_);
  AttemptOutcome ExecuteAttempt(int worker, int shard, int attempt);
  void CompleteAttempt(int worker, const Dispatch& dispatch,
                       AttemptOutcome outcome, double seconds) EXCLUDES(mu_);
  /// Stats-probe `worker` after every timed-out attempt: "busy" (its sweep
  /// gauge shows in-flight work — a straggler), "idle" or "unreachable"
  /// (hung or dead).
  std::string ProbeWorker(int worker);
  double BackoffSeconds(int attempts_so_far) const;
  JsonValue BuildReport(double wall_seconds) const EXCLUDES(mu_);

  std::vector<FleetWorker> workers_;
  OrchestratorOptions options_;
  FaultInjector* faults_;  // Not owned; may be null.

  std::string wire_spec_;  // Canonical spec text sent to workers.

  mutable Mutex mu_;
  CondVar cv_;
  std::vector<ShardState> shards_ GUARDED_BY(mu_);
  std::vector<WorkerState> worker_states_ GUARDED_BY(mu_);
  int completed_ GUARDED_BY(mu_) = 0;
  int live_workers_ GUARDED_BY(mu_) = 0;
  bool aborted_ GUARDED_BY(mu_) = false;
  Status terminal_ GUARDED_BY(mu_);
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_SERVE_ORCHESTRATOR_H_
