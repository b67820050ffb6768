// Scalar-vs-SIMD bit-identity coverage for the vectorized pricing kernels
// (every dispatch width compiled into this binary), plus semantic checks of
// the kernels against straightforward reference loops, and the shared
// exp/logistic primitives against libm.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy_bundler.h"
#include "core/matching_bundler.h"
#include "core/offer_set.h"
#include "core/solve_context.h"
#include "data/generator.h"
#include "mining/bitset.h"
#include "pricing/price_grid.h"
#include "pricing/pricing_kernels.h"
#include "util/simd.h"

namespace bundlemine {
namespace {

using kernels::ExactStepResult;
using kernels::MixedSigmoidResult;

// Sorted-merge oracle for the bitset support join: true when the two
// audiences share at least one consumer with positive WTP on both sides.
bool SupportsIntersect(const SparseWtpVector& a, const SparseWtpVector& b) {
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  std::size_t i = 0, j = 0;
  while (i < ea.size() && j < eb.size()) {
    if (ea[i].id == eb[j].id) {
      if (ea[i].w > 0.0 && eb[j].w > 0.0) return true;
      ++i;
      ++j;
    } else if (ea[i].id < eb[j].id) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

// Random audience values: mostly positive with some zero/negative entries,
// spanning several magnitudes so grid boundaries and below-grid paths hit.
std::vector<double> RandomValues(std::mt19937_64& rng, std::size_t n,
                                 bool allow_nonpositive) {
  std::uniform_real_distribution<double> mag(0.01, 40.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) {
    x = mag(rng);
    if (allow_nonpositive && coin(rng) < 0.12) {
      x = coin(rng) < 0.5 ? 0.0 : -x;
    }
  }
  return v;
}

TEST(SimdExpTest, MatchesLibmClosely) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-700.0, 700.0);
  for (int i = 0; i < 20000; ++i) {
    const double x = dist(rng);
    const double got = simd::ExpScalar(x);
    const double want = std::exp(x);
    EXPECT_NEAR(got, want, std::abs(want) * 5e-14) << "x=" << x;
  }
}

TEST(SimdExpTest, ExactAnchors) {
  EXPECT_EQ(simd::ExpScalar(0.0), 1.0);
  EXPECT_EQ(simd::ExpScalar(-0.0), 1.0);
  EXPECT_EQ(simd::ExpScalar(-800.0), 0.0);
  EXPECT_EQ(simd::ExpScalar(-1e18), 0.0);
  EXPECT_EQ(simd::ExpScalar(800.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(simd::ExpScalar(1e18), std::numeric_limits<double>::infinity());
}

TEST(SimdLogisticTest, ExactLimitsAndMidpoint) {
  EXPECT_EQ(simd::LogisticScalar(0.0), 0.5);
  EXPECT_EQ(simd::LogisticScalar(1e12), 1.0);
  EXPECT_EQ(simd::LogisticScalar(-1e12), 0.0);
  // Symmetry within rounding: σ(x) + σ(-x) = 1.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(-40.0, 40.0);
  for (int i = 0; i < 2000; ++i) {
    const double x = dist(rng);
    EXPECT_NEAR(simd::LogisticScalar(x) + simd::LogisticScalar(-x), 1.0,
                1e-15);
  }
}

// Reference: the historical scalar exact-step scan.
ExactStepResult ReferenceExactStep(const std::vector<double>& sorted_desc) {
  ExactStepResult best;
  for (std::size_t j = 0; j < sorted_desc.size(); ++j) {
    const double v = sorted_desc[j];
    if (v <= 0.0) break;
    const double revenue = v * static_cast<double>(j + 1);
    if (revenue > best.revenue) {
      best.revenue = revenue;
      best.price = v;
      best.buyers = static_cast<double>(j + 1);
    }
  }
  return best;
}

TEST(KernelBitIdentityTest, ExactStepBest) {
  std::mt19937_64 rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial % 70);
    std::vector<double> v = RandomValues(rng, n, /*allow_nonpositive=*/true);
    std::sort(v.begin(), v.end(), std::greater<double>());
    // Inject ties so the first-index tie-break is exercised.
    if (n > 4) v[2] = v[1];
    std::sort(v.begin(), v.end(), std::greater<double>());

    const ExactStepResult ref = ReferenceExactStep(v);
    const ExactStepResult sc = kernels::scalar::ExactStepBest(v.data(), n);
    EXPECT_EQ(sc.revenue, ref.revenue);
    EXPECT_EQ(sc.price, ref.price);
    EXPECT_EQ(sc.buyers, ref.buyers);
    if (kernels::WideAvailable()) {
      const ExactStepResult wd = kernels::wide::ExactStepBest(v.data(), n);
      EXPECT_EQ(wd.revenue, sc.revenue);
      EXPECT_EQ(wd.price, sc.price);
      EXPECT_EQ(wd.buyers, sc.buyers);
    }
  }
}

TEST(KernelBitIdentityTest, MaxValue) {
  std::mt19937_64 rng(202);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial % 97);
    const std::vector<double> v =
        RandomValues(rng, n, /*allow_nonpositive=*/true);
    double ref = 0.0;
    for (double x : v) ref = std::max(ref, x);
    EXPECT_EQ(kernels::scalar::MaxValue(v.data(), n), ref);
    if (kernels::WideAvailable()) {
      EXPECT_EQ(kernels::wide::MaxValue(v.data(), n), ref);
    }
  }
}

TEST(KernelBitIdentityTest, ComputeBucketsMatchesUniformPriceView) {
  std::mt19937_64 rng(303);
  std::uniform_real_distribution<double> alpha_dist(0.5, 1.6);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(20 + trial % 200);
    std::vector<double> v = RandomValues(rng, n, /*allow_nonpositive=*/true);
    const double alpha = alpha_dist(rng);
    const double max_w = kernels::scalar::MaxValue(v.data(), n) * alpha;
    const int levels = 1 + trial % 120;
    UniformPriceView grid(max_w, levels);
    if (grid.empty()) continue;
    // Nudge a few values onto exact grid levels to stress the tolerance.
    for (std::size_t i = 0; i + 7 < n; i += 7) {
      v[i] = grid.level(static_cast<int>(i) % grid.size()) / alpha;
    }
    const double step = max_w / levels;
    std::vector<std::int32_t> sc(n), wd(n);
    kernels::scalar::ComputeBuckets(v.data(), n, alpha, max_w, grid.size(),
                                    step, sc.data());
    for (std::size_t i = 0; i < n; ++i) {
      if (v[i] <= 0.0) {
        EXPECT_EQ(sc[i], -2);
      } else {
        EXPECT_EQ(sc[i], grid.BucketFor(alpha * v[i]))
            << "i=" << i << " v=" << v[i] << " alpha=" << alpha;
      }
    }
    if (kernels::WideAvailable()) {
      kernels::wide::ComputeBuckets(v.data(), n, alpha, max_w, grid.size(),
                                    step, wd.data());
      EXPECT_EQ(sc, wd);
    }
  }
}

TEST(KernelBitIdentityTest, SigmoidAdoptionSum) {
  std::mt19937_64 rng(404);
  std::uniform_real_distribution<double> gamma_dist(0.05, 50.0);
  std::uniform_real_distribution<double> price_dist(0.1, 30.0);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial % 133);
    const std::vector<double> v =
        RandomValues(rng, n, /*allow_nonpositive=*/false);
    const std::vector<double> wt =
        RandomValues(rng, n, /*allow_nonpositive=*/false);
    const double gamma = gamma_dist(rng);
    const double p = price_dist(rng);
    const double alpha = 0.9;
    const double eps = 1e-6;
    for (const double* weights : {static_cast<const double*>(nullptr),
                                  wt.data()}) {
      const double sc = kernels::scalar::SigmoidAdoptionSum(
          v.data(), weights, n, gamma, alpha, eps, p);
      // Tolerance check against a naive ordering.
      double naive = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double pr =
            simd::LogisticScalar(gamma * ((alpha * v[i] - p) + eps));
        naive += (weights != nullptr ? weights[i] : 1.0) * pr;
      }
      EXPECT_NEAR(sc, naive, 1e-9 * (1.0 + std::abs(naive)));
      if (kernels::WideAvailable()) {
        const double wd = kernels::wide::SigmoidAdoptionSum(
            v.data(), weights, n, gamma, alpha, eps, p);
        EXPECT_EQ(sc, wd) << "n=" << n;
      }
    }
  }
}

TEST(KernelBitIdentityTest, MixedThresholds) {
  std::mt19937_64 rng(505);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial % 111);
    const std::vector<double> r1 =
        RandomValues(rng, n, /*allow_nonpositive=*/true);
    const std::vector<double> r2 =
        RandomValues(rng, n, /*allow_nonpositive=*/true);
    const double a1 = 0.95, a2 = 1.05, ab = 1.2, p1 = 3.0, p2 = 5.0;
    std::vector<double> sc(n), wd(n);
    kernels::scalar::MixedThresholds(r1.data(), r2.data(), n, a1, a2, ab, p1,
                                     p2, sc.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double want = std::min(
          ab * (r1[i] + r2[i]),
          std::min(p1 + a2 * r2[i], p2 + a1 * r1[i]));
      EXPECT_EQ(sc[i], want);
    }
    if (kernels::WideAvailable()) {
      kernels::wide::MixedThresholds(r1.data(), r2.data(), n, a1, a2, ab, p1,
                                     p2, wd.data());
      EXPECT_EQ(sc, wd);
    }
  }
}

TEST(KernelBitIdentityTest, MixedEffectiveColumnsAndSigmoidEval) {
  std::mt19937_64 rng(606);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial % 90);
    const std::vector<double> r1 =
        RandomValues(rng, n, /*allow_nonpositive=*/true);
    const std::vector<double> r2 =
        RandomValues(rng, n, /*allow_nonpositive=*/true);
    const std::vector<double> base =
        RandomValues(rng, n, /*allow_nonpositive=*/false);
    const double a1 = 1.0, a2 = 0.8, ab = 1.3, p1 = 4.0, p2 = 6.0;
    std::vector<double> aw1s(n), aw2s(n), awbs(n);
    std::vector<double> aw1w(n), aw2w(n), awbw(n);
    kernels::scalar::MixedEffectiveColumns(r1.data(), r2.data(), n, a1, a2,
                                           ab, aw1s.data(), aw2s.data(),
                                           awbs.data());
    if (kernels::WideAvailable()) {
      kernels::wide::MixedEffectiveColumns(r1.data(), r2.data(), n, a1, a2,
                                           ab, aw1w.data(), aw2w.data(),
                                           awbw.data());
      EXPECT_EQ(aw1s, aw1w);
      EXPECT_EQ(aw2s, aw2w);
      EXPECT_EQ(awbs, awbw);
    }
    for (bool product : {false, true}) {
      const double p = 7.3;
      const MixedSigmoidResult sc = kernels::scalar::MixedSigmoidEval(
          aw1s.data(), aw2s.data(), awbs.data(), base.data(), n, p, p1, p2,
          /*gamma=*/2.5, /*eps=*/1e-6, product);
      if (kernels::WideAvailable()) {
        const MixedSigmoidResult wd = kernels::wide::MixedSigmoidEval(
            aw1s.data(), aw2s.data(), awbs.data(), base.data(), n, p, p1, p2,
            /*gamma=*/2.5, /*eps=*/1e-6, product);
        EXPECT_EQ(sc.gain, wd.gain) << "n=" << n << " product=" << product;
        EXPECT_EQ(sc.adopters, wd.adopters);
      }
    }
  }
}

// Bitset support join must agree with the sorted-merge SupportsIntersect on
// random sparse vectors (including zero/negative entries, which do not count
// as support).
TEST(SupportJoinTest, BitsetMatchesSortedMerge) {
  std::mt19937_64 rng(808);
  std::uniform_real_distribution<double> mag(0.01, 10.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const std::size_t num_users = 200;
  auto random_vec = [&](double density) {
    std::vector<WtpEntry> entries;
    for (std::size_t u = 0; u < num_users; ++u) {
      if (coin(rng) < density) {
        double w = mag(rng);
        if (coin(rng) < 0.15) w = coin(rng) < 0.5 ? 0.0 : -w;
        entries.push_back(WtpEntry{static_cast<std::int32_t>(u), w});
      }
    }
    return SparseWtpVector(std::move(entries));
  };
  auto support_of = [&](const SparseWtpVector& v) {
    Bitset s(num_users);
    for (const WtpEntry& e : v.entries()) {
      if (e.w > 0.0) s.Set(static_cast<std::size_t>(e.id));
    }
    return s;
  };
  int intersecting = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const double density = trial % 3 == 0 ? 0.01 : 0.1;
    const SparseWtpVector a = random_vec(density);
    const SparseWtpVector b = random_vec(density);
    const bool sparse = SupportsIntersect(a, b);
    const bool bits = support_of(a).Intersects(support_of(b));
    EXPECT_EQ(sparse, bits);
    intersecting += sparse ? 1 : 0;
  }
  // Both outcomes must actually occur for the parity check to mean anything.
  EXPECT_GT(intersecting, 0);
  EXPECT_LT(intersecting, 300);
}

// Solves `problem` with the dense columns allowed and forbidden and expects
// identical solutions (same offers, same prices, bit-equal revenues) and
// identical work counters, for both merge-based bundlers. Returns the merges
// the two bundlers committed, so callers can insist the cases merge at all.
std::int64_t ExpectDenseMatchesSparse(BundleConfigProblem problem,
                                      const std::string& label) {
  std::int64_t merges = 0;
  const MatchingBundler matching;
  const GreedyBundler greedy;
  for (const Bundler* bundler : {static_cast<const Bundler*>(&matching),
                                 static_cast<const Bundler*>(&greedy)}) {
    SCOPED_TRACE(label + " bundler=" + bundler->name());
    problem.soa_columns = true;
    SolveContext dense_ctx{SolveContext::Options{}};
    const BundleSolution dense = bundler->Solve(problem, dense_ctx);
    problem.soa_columns = false;
    SolveContext sparse_ctx{SolveContext::Options{}};
    const BundleSolution sparse = bundler->Solve(problem, sparse_ctx);

    EXPECT_EQ(dense.total_revenue, sparse.total_revenue);
    EXPECT_EQ(dense_ctx.stats().pairs_evaluated,
              sparse_ctx.stats().pairs_evaluated);
    EXPECT_EQ(dense_ctx.stats().merges, sparse_ctx.stats().merges);
    merges += dense_ctx.stats().merges;
    EXPECT_EQ(dense.offers.size(), sparse.offers.size());
    if (dense.offers.size() != sparse.offers.size()) continue;
    for (std::size_t i = 0; i < dense.offers.size(); ++i) {
      EXPECT_TRUE(dense.offers[i].items == sparse.offers[i].items);
      EXPECT_EQ(dense.offers[i].price, sparse.offers[i].price);
      EXPECT_EQ(dense.offers[i].revenue, sparse.offers[i].revenue);
      EXPECT_EQ(dense.offers[i].expected_buyers,
                sparse.offers[i].expected_buyers);
      EXPECT_EQ(dense.offers[i].is_component_offer,
                sparse.offers[i].is_component_offer);
    }
  }
  return merges;
}

BundleConfigProblem TinyProblem(const WtpMatrix& wtp,
                                BundlingStrategy strategy, bool sigmoid,
                                double theta) {
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.theta = theta;
  problem.strategy = strategy;
  problem.adoption = sigmoid ? AdoptionModel::Sigmoid(8.0, 1.0, 1e-6)
                             : AdoptionModel::Step();
  problem.price_levels = 50;
  return problem;
}

// The dense SoA column path and the sparse sorted-merge path must produce
// identical solutions for every strategy/model combination, with and
// without the co-interest pruning and under a bundle-size cap. Pure
// bundling merges nothing on this data at θ = −0.1, so every case also runs
// at θ = 0.1.
TEST(DenseColumnsTest, SolutionIdenticalToSparsePath) {
  RatingsDataset data = GenerateAmazonLike(TinyProfile(2024));
  const WtpMatrix wtp = WtpMatrix::FromRatings(data, 1.25);
  for (BundlingStrategy strategy :
       {BundlingStrategy::kPure, BundlingStrategy::kMixed}) {
    for (bool sigmoid : {false, true}) {
      std::int64_t merges = 0;
      for (double theta : {-0.1, 0.1}) {
        merges += ExpectDenseMatchesSparse(
            TinyProblem(wtp, strategy, sigmoid, theta),
            "strategy=" + std::to_string(static_cast<int>(strategy)) +
                " sigmoid=" + std::to_string(sigmoid) +
                " theta=" + std::to_string(theta));
      }
      EXPECT_GT(merges, 0);
    }
  }
  BundleConfigProblem unpruned =
      TinyProblem(wtp, BundlingStrategy::kMixed, /*sigmoid=*/false, -0.1);
  unpruned.prune_co_interest = false;
  EXPECT_GT(ExpectDenseMatchesSparse(unpruned, "prune_co_interest=false"), 0);
  BundleConfigProblem capped =
      TinyProblem(wtp, BundlingStrategy::kPure, /*sigmoid=*/false, 0.1);
  capped.max_bundle_size = 3;
  EXPECT_GT(ExpectDenseMatchesSparse(capped, "max_bundle_size=3"), 0);
}

// The dense-column gate: on for all-positive WTP within the budget, off
// when the switch is off, when any WTP entry is zero, or when the columns
// (one per offer for pure bundling, two for mixed) exceed the budget.
TEST(DenseColumnsTest, GateRequiresSwitchPositiveWtpAndBudget) {
  const int users = 40;
  const int items = 6;
  std::vector<std::tuple<UserId, ItemId, double>> triplets;
  for (int u = 0; u < users; ++u) {
    for (int i = 0; i < items; ++i) {
      if ((u + i) % 3 != 0) triplets.emplace_back(u, i, 1.0 + (u * 7 + i) % 5);
    }
  }
  const WtpMatrix positive = WtpMatrix::FromTriplets(users, items, triplets);
  BundleConfigProblem problem;
  problem.wtp = &positive;
  EXPECT_TRUE(DenseColumnsEnabled(problem));

  problem.soa_columns = false;
  EXPECT_FALSE(DenseColumnsEnabled(problem));
  problem.soa_columns = true;

  const std::int64_t pure_bytes =
      std::int64_t{users} * items * static_cast<std::int64_t>(sizeof(double));
  EXPECT_TRUE(DenseColumnsEnabled(problem, pure_bytes));
  EXPECT_FALSE(DenseColumnsEnabled(problem, pure_bytes - 1));
  problem.strategy = BundlingStrategy::kMixed;
  EXPECT_TRUE(DenseColumnsEnabled(problem, 2 * pure_bytes));
  EXPECT_FALSE(DenseColumnsEnabled(problem, pure_bytes));

  triplets.emplace_back(0, 0, 0.0);  // (0, 0) is otherwise absent.
  const WtpMatrix with_zero = WtpMatrix::FromTriplets(users, items, triplets);
  problem.wtp = &with_zero;
  EXPECT_FALSE(DenseColumnsEnabled(problem));
}

// With the gate off because of zero WTP entries, both bundlers must take the
// sparse path even when the switch allows dense columns: a support bitset
// skips the zero-WTP consumers that the sparse joins still see.
TEST(DenseColumnsTest, ZeroWtpFallsBackToSparsePath) {
  RatingsDataset data = GenerateAmazonLike(TinyProfile(2024));
  const WtpMatrix rated = WtpMatrix::FromRatings(data, 1.25);
  std::vector<std::tuple<UserId, ItemId, double>> triplets;
  for (ItemId i = 0; i < rated.num_items(); ++i) {
    for (const WtpEntry& e : rated.ItemUsers(i)) {
      triplets.emplace_back(e.id, i, e.w);
    }
    // Every item gains zero-WTP entries for a few consumers it lacks.
    for (UserId u = i % 7; u < rated.num_users(); u += 29) {
      if (rated.Value(u, i) == 0.0) triplets.emplace_back(u, i, 0.0);
    }
  }
  const WtpMatrix wtp =
      WtpMatrix::FromTriplets(rated.num_users(), rated.num_items(), triplets);
  for (BundlingStrategy strategy :
       {BundlingStrategy::kPure, BundlingStrategy::kMixed}) {
    for (bool sigmoid : {false, true}) {
      const BundleConfigProblem problem =
          TinyProblem(wtp, strategy, sigmoid, /*theta=*/0.1);
      ASSERT_FALSE(DenseColumnsEnabled(problem));
      EXPECT_GT(ExpectDenseMatchesSparse(
                    problem, "zero-wtp strategy=" +
                                 std::to_string(static_cast<int>(strategy)) +
                                 " sigmoid=" + std::to_string(sigmoid)),
                0);
    }
  }
}

TEST(KernelDispatchTest, ForceScalarRoutesToScalar) {
  std::mt19937_64 rng(707);
  std::vector<double> v = RandomValues(rng, 37, /*allow_nonpositive=*/false);
  std::sort(v.begin(), v.end(), std::greater<double>());
  simd::ForceScalarKernels(true);
  EXPECT_FALSE(simd::UseWideKernels());
  const ExactStepResult forced = kernels::ExactStepBest(v.data(), v.size());
  simd::ForceScalarKernels(false);
  const ExactStepResult sc = kernels::scalar::ExactStepBest(v.data(), v.size());
  EXPECT_EQ(forced.revenue, sc.revenue);
  EXPECT_EQ(forced.price, sc.price);
  EXPECT_EQ(forced.buyers, sc.buyers);
  if (kernels::WideAvailable()) {
    EXPECT_TRUE(simd::UseWideKernels());
    const ExactStepResult dd = kernels::ExactStepBest(v.data(), v.size());
    const ExactStepResult wd = kernels::wide::ExactStepBest(v.data(), v.size());
    EXPECT_EQ(dd.revenue, wd.revenue);
    // Wide and scalar agree bitwise anyway; the routing check is about
    // exercising both entry points, the identity checks above do the rest.
    EXPECT_EQ(wd.revenue, sc.revenue);
  }
}

}  // namespace
}  // namespace bundlemine
