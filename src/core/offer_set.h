// Per-offer state shared by the merge-based bundlers (Matching, Greedy).
//
// Both algorithms start from the singleton offers (= Components pricing) and
// repeatedly collapse a pair of live offers into a bundle. OfferSet holds
// those offers, prices candidate merges and emits the final configuration;
// the bundlers keep only their selection logic (matching rounds, lazy heap).
//
// Each offer keeps its sparse WTP and payment vectors, a support bitset of
// the consumers with positive WTP, and — when the dense-column gate is on —
// structure-of-arrays WTP/payment columns that feed the SIMD pricing kernels
// from contiguous memory. The dense path is bit-identical to the sparse
// sorted-merge path (see PriceMergedPairDense and StageJointAudience).

#ifndef BUNDLEMINE_CORE_OFFER_SET_H_
#define BUNDLEMINE_CORE_OFFER_SET_H_

#include <cstdint>
#include <vector>

#include "core/bundle.h"
#include "core/problem.h"
#include "core/solution.h"
#include "data/wtp_matrix.h"
#include "mining/bitset.h"
#include "pricing/mixed_pricer.h"
#include "pricing/offer_pricer.h"
#include "pricing/pricing_workspace.h"

namespace bundlemine {

/// Memory budget for the live dense columns of one solve.
inline constexpr std::int64_t kDenseColumnBudgetBytes = std::int64_t{256} << 20;

/// The dense-column gate: true when `problem.soa_columns` is set, every WTP
/// entry is positive (zeros/negatives are filtered by the sparse join but not
/// by a support union, so only then are the two paths bit-identical), and
/// the columns fit `budget_bytes`. Absorbed offers free their columns, so at
/// most num_items offers hold columns at once: one column each for pure
/// bundling, two (WTP + payments) for mixed.
bool DenseColumnsEnabled(const BundleConfigProblem& problem,
                         std::int64_t budget_bytes = kDenseColumnBudgetBytes);

/// A vertex of the bundling graph: a live or absorbed offer.
struct Offer {
  Bundle items;
  SparseWtpVector raw;
  // Mixed bundling: per-consumer expected payment within this offer's
  // subtree (bundle + retained components). Keeps multi-level incremental
  // gains consistent — see MergeSide::payments.
  SparseWtpVector payments;
  // Consumers with positive raw WTP, one bit per user. Always maintained:
  // the co-interest pruning's support join runs on word-AND popcounts
  // instead of a sorted merge.
  Bitset support;
  // Dense SoA columns mirroring `raw` / `payments` (zero where absent).
  // Maintained only in dense mode; freed when the offer is absorbed.
  std::vector<double> col;
  std::vector<double> pay_col;
  double price = 0.0;       // Market price of this offer.
  double standalone = 0.0;  // Standalone expected revenue at `price` (pure).
  double buyers = 0.0;
  double attributed = 0.0;  // Cumulative revenue of this offer's subtree.
  double increment = 0.0;   // Own contribution (singleton rev / merge gain).
  bool alive = true;
};

/// A candidate merge of offers a and b with its evaluated outcome.
struct CandidateEdge {
  int a = 0;
  int b = 0;
  double gain = 0.0;
  double price = 0.0;     // Price of the merged offer.
  double revenue = 0.0;   // Pure: standalone revenue of the merged offer.
  double buyers = 0.0;
};

/// The offers of one Matching or Greedy solve.
class OfferSet {
 public:
  /// Prices every item as a singleton offer. Offer index == item id for the
  /// singletons; merged offers are appended after them.
  OfferSet(const BundleConfigProblem& problem, PricingWorkspace* ws);

  const std::vector<Offer>& offers() const { return offers_; }
  const Offer& offer(int i) const {
    return offers_[static_cast<std::size_t>(i)];
  }
  int alive_count() const { return alive_; }

  /// Evaluates merging offers a and b; false when the merged bundle exceeds
  /// the size cap or yields no positive gain. Reads only this set plus the
  /// caller's workspace, so distinct candidates may be evaluated
  /// concurrently.
  bool EvaluatePair(int a, int b, CandidateEdge* edge,
                    PricingWorkspace* ws) const;

  /// Collapses an evaluated edge into a new offer and returns its index.
  /// The two absorbed offers stay (for mixed X′ emission) but release their
  /// support bitsets and dense columns.
  int Merge(const CandidateEdge& edge);

  /// Sum of the live offers' subtree revenues, in offer order.
  double TotalRevenue() const;

  /// Emits the configuration: the live offers, then (mixed bundling) every
  /// absorbed offer as a retained component of X′.
  BundleSolution BuildSolution(const char* method_name,
                               double total_revenue) const;

 private:
  double Scale(int size) const { return BundleScale(size, problem_->theta); }

  // The mixed pricer's view of an offer, with its dense columns in dense
  // mode.
  MergeSide SideOf(const Offer& o) const;

  // Rebuilds an offer's support bitset (and, in dense mode, its WTP and
  // payment columns) from its sparse vectors.
  void RefreshDenseViews(Offer* o) const;

  const BundleConfigProblem* problem_;
  OfferPricer pricer_;
  MixedPricer mixed_;
  std::vector<Offer> offers_;
  int num_users_;
  int max_size_;
  bool dense_;
  int alive_ = 0;
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_CORE_OFFER_SET_H_
