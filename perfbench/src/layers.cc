#include "layers.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <utility>

#include "core/bundler_registry.h"
#include "core/problem.h"
#include "core/solve_context.h"
#include "data/wtp_matrix.h"
#include "market/market_registry.h"
#include "market/market_stream.h"
#include "matching/max_weight_matching.h"
#include "mining/mafia.h"
#include "mining/transactions.h"
#include "pricing/mixed_pricer.h"
#include "pricing/offer_pricer.h"
#include "replay.h"
#include "scenario/artifact_writer.h"
#include "scenario/scenario_spec.h"
#include "scenario/sweep_runner.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {
namespace {

using bundlemine::StrFormat;

constexpr const char* kSolveSpanNames[] = {
    "core.solve.components",  "core.solve.pure-matching",
    "core.solve.mixed-matching", "core.solve.pure-greedy",
    "core.solve.mixed-greedy",   "core.solve.pure-freq"};
static_assert(std::size(kSolveSpanNames) == std::size(kLadderMethods));

struct Problem {
  std::uint64_t dataset_seed = 0;
  const char* theta = "0";
  /// Spec the scenario rung runs serially (scale/seed/theta filled in).
  std::string sweep_spec;
};

// The datasets and θ values each workload sends, and the sweep whose cells
// it runs on them.
std::vector<Problem> Problems(Workload workload) {
  std::vector<Problem> problems;
  switch (workload) {
    case Workload::kSweepFanout:
      for (const char* theta : kThetas) {
        problems.push_back(Problem{
            kSweepDatasetSeed, theta,
            StrFormat("name=ladder;scale=tiny;seed=%llu;theta=%s;methods="
                      "components,pure-matching,mixed-matching,pure-freq;"
                      "axis:freq-support=%g",
                      static_cast<unsigned long long>(kSweepDatasetSeed),
                      theta, kFreqSupport)});
      }
      break;
    case Workload::kSolveMix:
      for (int i = 0; i < kSolveDatasets; ++i) {
        const std::uint64_t seed =
            kSolveDatasetSeedBase + static_cast<std::uint64_t>(i);
        const char* theta = kThetas[i % 3];
        problems.push_back(Problem{
            seed, theta,
            StrFormat("name=ladder;scale=tiny;seed=%llu;methods=mixed-greedy,"
                      "pure-greedy,mixed-matching,components;axis:theta=%s",
                      static_cast<unsigned long long>(seed), theta)});
      }
      break;
    case Workload::kMarketStream:
      for (int client = 0; client < kClients; ++client) {
        const char* theta = client % 2 == 0 ? "0" : "0.05";
        const std::uint64_t seed = MarketDatasetSeed(client);
        problems.push_back(Problem{
            seed, theta,
            StrFormat("name=ladder;scale=tiny;seed=%llu;methods=components,"
                      "pure-matching,mixed-matching;axis:theta=%s",
                      static_cast<unsigned long long>(seed), theta)});
      }
      break;
  }
  return problems;
}

// One pass of every rung over one problem.
void RunProblem(const Problem& problem, SpanLog* log, LadderCounts* counts,
                LadderCalls* calls) {
  const double theta = std::stod(problem.theta);
  bundlemine::DatasetSpec spec;
  spec.profile = "tiny";
  spec.seed = problem.dataset_seed;

  // ---- data ----
  std::unique_ptr<bundlemine::RatingsDataset> dataset;
  {
    ScopedSpan span(log, "data.materialize", -1, 0);
    dataset = std::make_unique<bundlemine::RatingsDataset>(
        bundlemine::MaterializeDataset(spec));
  }
  std::unique_ptr<bundlemine::WtpMatrix> wtp;
  {
    ScopedSpan span(log, "data.wtp", -1, 0);
    wtp = std::make_unique<bundlemine::WtpMatrix>(
        bundlemine::WtpMatrix::FromRatings(*dataset, spec.lambda));
  }

  // ---- mining ----
  std::unique_ptr<bundlemine::TransactionDb> db;
  {
    ScopedSpan span(log, "mining.txn_build", -1, 0);
    db = std::make_unique<bundlemine::TransactionDb>(
        bundlemine::TransactionDb::FromWtp(*wtp));
  }
  bundlemine::MinerLimits limits;
  limits.min_support_count = std::max(
      5, static_cast<int>(std::ceil(kFreqSupport * wtp->num_users())));
  std::size_t itemsets = 0;
  {
    ScopedSpan span(log, "mining.mine", -1, 0);
    itemsets = bundlemine::MineMaximalFrequent(*db, limits).size();
  }
  counts->itemsets = static_cast<std::int64_t>(itemsets);

  // ---- pricing ----
  const bundlemine::OfferPricer pricer(bundlemine::AdoptionModel::Step());
  const bundlemine::MixedPricer mixed(bundlemine::AdoptionModel::Step());
  bundlemine::PricingWorkspace ws;
  const int items = wtp->num_items();
  std::vector<bundlemine::SparseWtpVector> vectors;
  vectors.reserve(static_cast<std::size_t>(items));
  for (int item = 0; item < items; ++item) vectors.push_back(wtp->ItemVector(item));
  std::vector<double> prices(static_cast<std::size_t>(items), 0.0);
  {
    ScopedSpan span(log, "pricing.price_offer", -1, 0);
    for (int item = 0; item < items; ++item) {
      prices[static_cast<std::size_t>(item)] =
          pricer.PriceOffer(vectors[static_cast<std::size_t>(item)], 1.0, &ws)
              .price;
    }
  }
  calls->price_offer += items;

  std::vector<bundlemine::SparseWtpVector> payments;
  payments.reserve(vectors.size());
  for (int item = 0; item < items; ++item) {
    payments.push_back(mixed.BuildStandalonePayments(
        vectors[static_cast<std::size_t>(item)], 1.0,
        prices[static_cast<std::size_t>(item)]));
  }
  const auto side = [&](int item) {
    const auto at = static_cast<std::size_t>(item);
    return bundlemine::MergeSide{&vectors[at], 1.0, prices[at], &payments[at]};
  };
  const std::vector<std::pair<bundlemine::ItemId, bundlemine::ItemId>> pairs =
      wtp->CoInterestedPairs();
  std::vector<bundlemine::MergeGainResult> gains(pairs.size());
  {
    ScopedSpan span(log, "pricing.merge_gain", -1, 0);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      gains[p] = mixed.MergeGain(side(pairs[p].first), side(pairs[p].second),
                                 1.0 + theta, &ws);
    }
  }
  counts->merge_gain_calls = static_cast<std::int64_t>(pairs.size());
  calls->merge_gain += static_cast<std::int64_t>(pairs.size());

  // ---- matching: the round-1 graph over positive merge gains ----
  std::vector<int> vertex(static_cast<std::size_t>(items), -1);
  int vertices = 0;
  std::vector<std::size_t> edges;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (!gains[p].feasible || gains[p].gain <= 0.0) continue;
    edges.push_back(p);
    for (int item : {pairs[p].first, pairs[p].second}) {
      if (vertex[static_cast<std::size_t>(item)] < 0) {
        vertex[static_cast<std::size_t>(item)] = vertices++;
      }
    }
  }
  bundlemine::MaxWeightMatcher matcher(std::max(vertices, 1));
  for (std::size_t p : edges) {
    matcher.AddEdge(vertex[static_cast<std::size_t>(pairs[p].first)],
                    vertex[static_cast<std::size_t>(pairs[p].second)],
                    gains[p].gain);
  }
  {
    ScopedSpan span(log, "matching.solve", -1, 0);
    matcher.Solve();
  }
  counts->matching_edges = static_cast<std::int64_t>(edges.size());

  // ---- core: each registry method on the problem ----
  counts->pairs_evaluated = 0;
  counts->rounds = 0;
  for (std::size_t m = 0; m < std::size(kLadderMethods); ++m) {
    bundlemine::BundleConfigProblem config;
    config.wtp = wtp.get();
    config.theta = theta;
    config.freq_min_support = kFreqSupport;
    bundlemine::SolveContext context;
    {
      ScopedSpan span(log, kSolveSpanNames[m], -1, 0);
      bundlemine::SolveMethod(kLadderMethods[m], config, context);
    }
    counts->pairs_evaluated += context.stats().pairs_evaluated;
    counts->rounds += context.stats().rounds;
  }

  // ---- scenario: the workload's sweep cells on a private serial pool ----
  std::optional<bundlemine::ScenarioSpec> sweep =
      bundlemine::ParseScenarioSpec(problem.sweep_spec);
  BM_CHECK(sweep.has_value());
  bundlemine::SweepResult result;
  {
    ScopedSpan span(log, "scenario.cells", -1, 0);
    result = bundlemine::RunSweepCells(*sweep, bundlemine::ExpandGrid(*sweep),
                                       *dataset);
  }
  {
    ScopedSpan span(log, "scenario.artifact", -1, 0);
    const std::string artifact = bundlemine::SweepArtifact(result).Dump(0);
    BM_CHECK(!artifact.empty());
  }

  // ---- market: lease, a batch of valid deltas, a snapshot ----
  bundlemine::MarketRegistry registry;
  std::optional<bundlemine::MarketRegistry::Lease> lease;
  {
    ScopedSpan span(log, kSpanAcquire, -1, 0);
    bundlemine::StatusOr<bundlemine::MarketRegistry::Lease> acquired =
        registry.Acquire("ladder", "");
    BM_CHECK(acquired.ok());
    lease.emplace(std::move(*acquired));
  }
  bundlemine::MarketStream& market = *lease->get();
  BM_CHECK(market.Load(*dataset).ok());
  RatingMirror mirror(dataset->num_users(), dataset->num_items());
  for (const bundlemine::Rating& rating : dataset->ratings()) {
    mirror.Add(rating.user, rating.item);
  }
  bundlemine::Rng rng(problem.dataset_seed, /*stream=*/7);
  std::vector<bundlemine::MarketDelta> deltas(4);
  for (bundlemine::MarketDelta& delta : deltas) {
    const auto [user, item] = mirror.PickPresent(rng);
    delta.op = bundlemine::MarketDeltaOp::kUpdateRating;
    delta.user = user;
    delta.item = item;
    delta.stars = rng.UniformInt(1, 5);
  }
  {
    ScopedSpan span(log, kSpanApply, -1, 0);
    BM_CHECK(market.Apply(deltas).ok());
  }
  {
    ScopedSpan span(log, kSpanSnapshot, -1, 0);
    market.TakeSnapshot();
  }
  {
    ScopedSpan span(log, kSpanRelease, -1, 0);
    lease.reset();
  }
}

}  // namespace

LadderResult RunLadder(Workload workload, double seconds, SpanLog* log) {
  const std::vector<Problem> problems = Problems(workload);
  LadderResult result;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    const Problem& problem =
        problems[static_cast<std::size_t>(result.problems_run) % problems.size()];
    LadderCounts counts;
    RunProblem(problem, log, &counts, &result.calls);
    if (result.problems_run == 0) result.first = counts;
    ++result.problems_run;
  } while (NowNs() < deadline);
  return result;
}

}  // namespace perfbench
