// Greedy bundling heuristic (paper Algorithm 2).
//
// Instead of a global matching per round, each iteration merges the single
// pair of current bundles with the highest absolute revenue gain, then lets
// the new bundle participate immediately. Candidate gains live in a lazy
// max-heap: entries referencing absorbed offers are discarded on pop, and a
// merge only triggers gain evaluations between the new bundle and the
// surviving offers (the O(N) incremental step of the paper's complexity
// analysis). Terminates when the best remaining gain is non-positive.
//
// The offers live in the OfferSet shared with MatchingBundler: candidate
// pricing runs on the dense SoA columns when the dense-column gate is on
// (BundleConfigProblem::soa_columns), and the co-interest check after a
// merge is a word-AND over the support bitsets. Results are bit-identical
// to the sparse path.

#ifndef BUNDLEMINE_CORE_GREEDY_BUNDLER_H_
#define BUNDLEMINE_CORE_GREEDY_BUNDLER_H_

#include "core/bundler.h"

namespace bundlemine {

/// Algorithm 2. Stateless; all knobs come from the problem.
class GreedyBundler : public Bundler {
 public:
  GreedyBundler() = default;

  using Bundler::Solve;
  BundleSolution Solve(const BundleConfigProblem& problem,
                       SolveContext& context) const override;
  std::string name() const override { return "Greedy"; }
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_CORE_GREEDY_BUNDLER_H_
