// "Frequently Bought Together" bundling baseline (paper Section 6.1.3).
//
// Candidate bundles are the maximal frequent itemsets of the consumer
// transactions (items with positive WTP per consumer), mined at the paper's
// 0.1% minimum support. The configuration is built greedily: repeatedly pick
// the candidate with the highest absolute revenue gain over its components,
// drop overlapping candidates, and finally sell every uncovered item
// individually (individual items are admitted regardless of support —
// "this favors the frequent itemset approach").
//
// Pure variant: gain = standalone bundle revenue − Σ component revenues.
// Mixed variant: gain = incremental mixed-bundling gain of offering the
// itemset alongside all of its component items (MultiMergeGain).
//
// The mine is the expensive step, and it depends only on the transactions
// (which items each consumer has positive WTP for — λ-independent) and the
// absolute support count max(5, ⌈freq_min_support · users⌉); θ, γ, α, k,
// λ, the price grid and pure vs mixed do not enter it. So the bundler asks
// the context's ItemsetProvider (core/solve_context.h), when one is set, for
// the itemsets of the context's data scope at that support count, handing
// it a miner to call on a miss. The provider contract:
//   * it returns exactly what the miner would return for the solve's
//     transactions at that count — it keys on the data (never on λ) and the
//     count, and nothing else;
//   * it stores a result only when the miner reports the mine complete. A
//     mine stopped by the deadline or by MinerLimits::max_results holds only
//     frequent sets but may miss maximal ones, so an incomplete mine is never
//     stored and never served to a later solve;
//   * it never keeps a solve waiting on another solve's mine past the
//     solve's own deadline.
// Without a provider (library callers with their own problem, the perfbench
// ladder, tests) the bundler mines locally.

#ifndef BUNDLEMINE_CORE_FREQ_ITEMSET_BUNDLER_H_
#define BUNDLEMINE_CORE_FREQ_ITEMSET_BUNDLER_H_

#include "core/bundler.h"

namespace bundlemine {

/// Pure FreqItemset / Mixed FreqItemset baselines.
class FreqItemsetBundler : public Bundler {
 public:
  FreqItemsetBundler() = default;

  using Bundler::Solve;
  BundleSolution Solve(const BundleConfigProblem& problem,
                       SolveContext& context) const override;
  std::string name() const override { return "FreqItemset"; }
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_CORE_FREQ_ITEMSET_BUNDLER_H_
