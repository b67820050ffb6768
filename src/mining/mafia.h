// MAFIA-style maximal frequent itemset mining (Burdick, Calimlim & Gehrke,
// ICDM 2001) — the miner the paper uses to produce "Frequently Bought
// Together" candidate bundles (Section 6.1.3).
//
// Depth-first search over the itemset lattice with vertical bitmaps and the
// three classic prunings:
//   * PEP  (parent equivalence): a tail item whose conditional support equals
//     the head's support is moved into the head unconditionally;
//   * FHUT/HUTMFI lookahead: if head ∪ tail is frequent, the whole subtree
//     collapses into one maximal set;
//   * dynamic tail reordering by increasing support, which maximizes the
//     effectiveness of the lookahead.
// Maximality is enforced against the growing MFI list (subset subsumption).
//
// Output equals the maximal members of the full frequent-itemset family —
// cross-validated in tests against a level-wise Apriori reference — while
// exploring a small fraction of the lattice.

#ifndef BUNDLEMINE_MINING_MAFIA_H_
#define BUNDLEMINE_MINING_MAFIA_H_

#include <cstddef>
#include <functional>

#include "mining/transactions.h"

namespace bundlemine {

/// Mining limits for the maximal miner.
struct MinerLimits {
  int min_support_count = 2;     ///< Absolute support threshold (≥ 1).
  int max_itemset_size = 0;      ///< 0 = unlimited.
  /// Safety valve: the mine stops (reporting incomplete) rather than store
  /// more than this many maximal sets.
  std::size_t max_results = 200000;
  /// Optional cooperative cancellation, checked once per DFS node.
  /// Returning true ends the mine early: every itemset already emitted is
  /// genuinely frequent, but the collection is no longer maximal-complete.
  /// Callers wire this to SolveContext deadlines via DeadlineStopCondition;
  /// leave empty for the usual unbounded mine.
  std::function<bool()> should_stop;
};

/// Mines all maximal frequent itemsets of `db` at limits.min_support_count.
/// limits.max_itemset_size additionally caps itemset cardinality (0 = none),
/// in which case the result is the maximal frequent sets of size ≤ cap.
/// `complete` (optional) reports whether the mine ran to the end: false when
/// should_stop fired or max_results was reached, in which case the result
/// holds only frequent sets but may miss maximal ones.
std::vector<FrequentItemset> MineMaximalFrequent(const TransactionDb& db,
                                                 const MinerLimits& limits,
                                                 bool* complete = nullptr);

}  // namespace bundlemine

#endif  // BUNDLEMINE_MINING_MAFIA_H_
