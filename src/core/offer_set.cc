#include "core/offer_set.h"

#include <utility>

#include "core/offer_ops.h"

namespace bundlemine {
namespace {

constexpr double kGainEpsilon = 1e-9;

}  // namespace

bool DenseColumnsEnabled(const BundleConfigProblem& problem,
                         std::int64_t budget_bytes) {
  if (!problem.soa_columns) return false;
  const WtpMatrix& wtp = *problem.wtp;
  const int columns_per_offer =
      problem.strategy == BundlingStrategy::kPure ? 1 : 2;
  const std::int64_t dense_bytes = static_cast<std::int64_t>(wtp.num_items()) *
                                   wtp.num_users() *
                                   static_cast<std::int64_t>(sizeof(double)) *
                                   columns_per_offer;
  if (dense_bytes > budget_bytes) return false;
  for (ItemId i = 0; i < wtp.num_items(); ++i) {
    for (const WtpEntry& e : wtp.ItemUsers(i)) {
      if (e.w <= 0.0) return false;
    }
  }
  return true;
}

OfferSet::OfferSet(const BundleConfigProblem& problem, PricingWorkspace* ws)
    : problem_(&problem),
      pricer_(problem.adoption, problem.price_levels),
      mixed_(problem.adoption, problem.price_levels,
             problem.mixed_composition),
      num_users_(problem.wtp->num_users()),
      max_size_(problem.EffectiveMaxSize()),
      dense_(DenseColumnsEnabled(problem)) {
  const WtpMatrix& wtp = *problem.wtp;
  // n singletons merge at most n − 1 times, so the vector never reallocates.
  offers_.reserve(static_cast<std::size_t>(wtp.num_items()) * 2);
  for (ItemId i = 0; i < wtp.num_items(); ++i) {
    Offer o;
    o.items = Bundle::Of(i);
    o.raw = wtp.ItemVector(i);
    PricedOffer priced = pricer_.PriceOffer(o.raw, 1.0, ws);
    o.price = priced.price;
    o.standalone = priced.revenue;
    o.buyers = priced.expected_buyers;
    o.attributed = priced.revenue;
    o.increment = priced.revenue;
    if (problem.strategy == BundlingStrategy::kMixed) {
      o.payments = mixed_.BuildStandalonePayments(o.raw, 1.0, o.price);
    }
    RefreshDenseViews(&o);
    offers_.push_back(std::move(o));
  }
  alive_ = wtp.num_items();
}

void OfferSet::RefreshDenseViews(Offer* o) const {
  o->support = Bitset(static_cast<std::size_t>(num_users_));
  for (const WtpEntry& e : o->raw.entries()) {
    if (e.w > 0.0) o->support.Set(static_cast<std::size_t>(e.id));
  }
  if (!dense_) return;
  o->col.assign(static_cast<std::size_t>(num_users_), 0.0);
  for (const WtpEntry& e : o->raw.entries()) {
    o->col[static_cast<std::size_t>(e.id)] = e.w;
  }
  if (problem_->strategy == BundlingStrategy::kMixed) {
    o->pay_col.assign(static_cast<std::size_t>(num_users_), 0.0);
    for (const WtpEntry& e : o->payments.entries()) {
      o->pay_col[static_cast<std::size_t>(e.id)] = e.w;
    }
  }
}

MergeSide OfferSet::SideOf(const Offer& o) const {
  MergeSide side{&o.raw, Scale(o.items.size()), o.price, &o.payments};
  if (dense_) {
    side.wtp_col = o.col.data();
    side.payments_col = o.pay_col.data();
    side.support = &o.support;
  }
  return side;
}

bool OfferSet::EvaluatePair(int ai, int bi, CandidateEdge* edge,
                            PricingWorkspace* ws) const {
  const Offer& a = offer(ai);
  const Offer& b = offer(bi);
  const int merged_size = a.items.size() + b.items.size();
  if (merged_size > max_size_) return false;
  const double merged_scale = Scale(merged_size);
  if (merged_scale <= 0.0) return false;
  edge->a = ai;
  edge->b = bi;
  if (problem_->strategy == BundlingStrategy::kPure) {
    PricedOffer priced =
        dense_ ? PriceMergedPairDense(a.col.data(), a.support, b.col.data(),
                                      b.support, merged_scale, pricer_, ws)
               : PriceMergedPair(a.raw, b.raw, merged_scale, pricer_, ws);
    double gain = priced.revenue - a.standalone - b.standalone;
    if (gain <= kGainEpsilon) return false;
    edge->gain = gain;
    edge->price = priced.price;
    edge->revenue = priced.revenue;
    edge->buyers = priced.expected_buyers;
    return true;
  }
  MergeGainResult r = mixed_.MergeGain(SideOf(a), SideOf(b), merged_scale, ws);
  if (!r.feasible || r.gain <= kGainEpsilon) return false;
  edge->gain = r.gain;
  edge->price = r.bundle_price;
  edge->revenue = 0.0;
  edge->buyers = r.expected_adopters;
  return true;
}

int OfferSet::Merge(const CandidateEdge& edge) {
  Offer& a = offers_[static_cast<std::size_t>(edge.a)];
  Offer& b = offers_[static_cast<std::size_t>(edge.b)];
  Offer merged;
  merged.items = Bundle::Union(a.items, b.items);
  merged.raw = SparseWtpVector::Merge(a.raw, b.raw);
  merged.price = edge.price;
  merged.buyers = edge.buyers;
  merged.increment = edge.gain;
  if (problem_->strategy == BundlingStrategy::kPure) {
    merged.standalone = edge.revenue;
    merged.attributed = edge.revenue;
  } else {
    merged.attributed = a.attributed + b.attributed + edge.gain;
    merged.payments = mixed_.BuildMergedPayments(
        SideOf(a), SideOf(b), Scale(merged.items.size()), edge.price);
  }
  RefreshDenseViews(&merged);
  // Absorbed offers are never evaluated again; release their dense state
  // so live column memory stays bounded by the singleton count.
  for (Offer* absorbed : {&a, &b}) {
    absorbed->alive = false;
    absorbed->support = Bitset();
    std::vector<double>().swap(absorbed->col);
    std::vector<double>().swap(absorbed->pay_col);
  }
  --alive_;
  offers_.push_back(std::move(merged));
  return static_cast<int>(offers_.size()) - 1;
}

double OfferSet::TotalRevenue() const {
  double total = 0.0;
  for (const Offer& o : offers_) {
    if (o.alive) total += o.attributed;
  }
  return total;
}

BundleSolution OfferSet::BuildSolution(const char* method_name,
                                       double total_revenue) const {
  const bool mixed = problem_->strategy == BundlingStrategy::kMixed;
  BundleSolution solution;
  solution.method = method_name;
  // Live offers first. Under mixed bundling every absorbed offer is a
  // descendant of a live root and is retained in X′ after them.
  for (bool component : {false, true}) {
    if (component && !mixed) break;
    for (const Offer& o : offers_) {
      if (o.alive == component) continue;
      PricedBundle pb;
      pb.items = o.items;
      pb.price = o.price;
      pb.revenue = mixed ? o.increment : o.standalone;
      pb.expected_buyers = o.buyers;
      pb.is_component_offer = component;
      solution.offers.push_back(std::move(pb));
    }
  }
  solution.total_revenue = total_revenue;
  return solution;
}

}  // namespace bundlemine
