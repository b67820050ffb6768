// Per-solve runtime state shared by every bundling algorithm.
//
// A SolveContext bundles the resources a solver needs beyond the problem
// statement itself: a pool of PricingWorkspaces (one per worker thread, so
// the pricing hot path never allocates), a deterministic Rng, an optional
// wall-clock deadline, a stats sink, and an optional thread pool for
// parallel candidate evaluation, plus two optional borrowed inputs from the
// caller: incremental-resolve hints and a provider of already-mined
// itemsets. Algorithms receive the context through Bundler::Solve; the
// single-argument Solve overload constructs a default (serial, no-deadline)
// context, so casual callers never see this type.
//
// A context may be reused across sequential solves (workspace buffers stay
// warm, the Rng stream continues) but must not be shared by concurrent
// solves.

#ifndef BUNDLEMINE_CORE_SOLVE_CONTEXT_H_
#define BUNDLEMINE_CORE_SOLVE_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pricing/pricing_workspace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace bundlemine {

struct ResolveHints;  // core/resolve_hints.h
struct FrequentItemset;  // mining/transactions.h
class SolveContext;

/// A mine's maximal frequent itemsets, shared read-only by the solves that
/// reuse them.
using MinedItemsets = std::shared_ptr<const std::vector<FrequentItemset>>;

/// Runs one mine; when `complete` is non-null, sets it to whether the mine
/// ran to the end (see MineMaximalFrequent).
using ItemsetMiner = std::function<MinedItemsets(bool* complete)>;

/// Supplies the maximal frequent itemsets of the data `context.data_scope()`
/// names at `min_support_count`, calling `mine` when it holds none. The
/// context also carries the solve's deadline, past which the provider must
/// not keep the solve waiting. The contract is FreqItemsetBundler's
/// (core/freq_itemset_bundler.h).
using ItemsetProvider = std::function<MinedItemsets(
    const SolveContext& context, int min_support_count, const ItemsetMiner& mine)>;

/// Counters a solve fills in as it runs. Written only from the coordinating
/// thread (parallel sections report batch totals after joining), so plain
/// integers suffice and the counts are deterministic.
struct SolveStats {
  std::int64_t pairs_evaluated = 0;  ///< Candidate merges priced.
  /// Candidate merges answered from a prior solve's cached outcomes instead
  /// of being priced (incremental re-solve). Batch solves leave this 0;
  /// pairs_evaluated + pairs_reused is invariant across the two paths.
  std::int64_t pairs_reused = 0;
  std::int64_t merges = 0;           ///< Merges committed.
  int rounds = 0;                    ///< Matching rounds / greedy iterations.
  bool deadline_hit = false;         ///< Solve stopped early on the deadline.

  void Reset() { *this = SolveStats{}; }
};

/// Owns the runtime resources of one solve (or a sequence of solves).
class SolveContext {
 public:
  struct Options {
    /// Worker threads for candidate evaluation; <= 1 solves serially with no
    /// thread pool at all. Results are bit-identical either way.
    int num_threads = 1;
    /// Seed for the context Rng (sampled adoption, randomized baselines).
    std::uint64_t seed = 0x42ULL;
    /// Wall-clock budget in seconds; 0 disables the deadline. Algorithms
    /// checking the deadline stop refining and return the best configuration
    /// found so far (always structurally valid). The check sits at round /
    /// iteration granularity — a finer-grained mid-round abort would make
    /// the result depend on timing and break serial/parallel bit-identity —
    /// so a solve can overshoot the budget by up to one round.
    double deadline_seconds = 0.0;
  };

  SolveContext() : SolveContext(Options{}) {}
  explicit SolveContext(const Options& options);

  SolveContext(const SolveContext&) = delete;
  SolveContext& operator=(const SolveContext&) = delete;

  /// Thread pool, or nullptr when the context is serial.
  ThreadPool* pool() { return pool_.get(); }

  /// Number of per-thread workspace slots (1 when serial).
  int num_slots() const { return static_cast<int>(workspaces_.size()); }

  /// Scratch workspace for worker `slot` ∈ [0, num_slots()). Slot 0 is the
  /// coordinating thread's workspace — serial code just uses workspace().
  PricingWorkspace& workspace(int slot = 0) { return *workspaces_[static_cast<std::size_t>(slot)]; }

  Rng& rng() { return rng_; }
  SolveStats& stats() { return stats_; }
  const SolveStats& stats() const { return stats_; }
  const Options& options() const { return options_; }

  /// Seconds since construction or the last RestartDeadline().
  double ElapsedSeconds() const { return timer_.Seconds(); }

  /// True when a deadline is set and has elapsed.
  bool DeadlineExceeded() const {
    return options_.deadline_seconds > 0.0 &&
           timer_.Seconds() >= options_.deadline_seconds;
  }

  /// Restarts the deadline clock (a context reused across solves budgets
  /// each solve separately).
  void RestartDeadline() { timer_.Reset(); }

  /// Incremental re-solve hints (prior-pair-outcome cache, dirty-item mask,
  /// maintained transaction view), or nullptr for a batch solve. Borrowed —
  /// the setter (Engine::Resolve) keeps them alive through the solve.
  const ResolveHints* resolve_hints() const { return resolve_hints_; }
  void set_resolve_hints(const ResolveHints* hints) { resolve_hints_ = hints; }

  /// Where the FreqItemset bundlers get their mined itemsets (the Engine's
  /// mining cache), or nullptr to mine locally, and the name of the data
  /// the problem's WTP matrix derives from, which the provider keys on.
  /// The provider is borrowed — the setter (the sweep runner's cell loop,
  /// Engine::Solve) keeps it alive through the solve.
  const ItemsetProvider* itemset_provider() const { return itemset_provider_; }
  const std::string& data_scope() const { return data_scope_; }
  void set_itemset_provider(const ItemsetProvider* provider,
                            std::string data_scope) {
    itemset_provider_ = provider;
    data_scope_ = std::move(data_scope);
  }

 private:
  Options options_;
  const ResolveHints* resolve_hints_ = nullptr;
  const ItemsetProvider* itemset_provider_ = nullptr;
  std::string data_scope_;
  std::unique_ptr<ThreadPool> pool_;  // Null when serial.
  std::vector<std::unique_ptr<PricingWorkspace>> workspaces_;
  Rng rng_;
  SolveStats stats_;
  WallTimer timer_;
};

/// Stop-condition functor bridging the context deadline into cooperative
/// cancellation loops (WSP enumeration/packing, the maximal frequent-itemset
/// miner). Returns an empty function when no deadline is set, so hot loops
/// skip the std::function call entirely; flags stats().deadline_hit the
/// moment a loop actually observes the expired deadline. The returned
/// functor borrows `context` and must not outlive it.
std::function<bool()> DeadlineStopCondition(SolveContext& context);

}  // namespace bundlemine

#endif  // BUNDLEMINE_CORE_SOLVE_CONTEXT_H_
