// Unit tests for the pricing layer: adoption model, price grid, single-offer
// pricer (including the paper's Table 1 worked example), and mixed pricer.

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "data/wtp_matrix.h"
#include "gtest/gtest.h"
#include "mining/bitset.h"
#include "pricing/adoption_model.h"
#include "pricing/mixed_pricer.h"
#include "pricing/offer_pricer.h"
#include "pricing/price_grid.h"
#include "util/rng.h"

namespace bundlemine {
namespace {

// The paper's Table 1 instance: willingness to pay for items A and B.
//   u1: A=12, B=4;  u2: A=8, B=2;  u3: A=5, B=11;  θ = −0.05.
SparseWtpVector ItemA() { return SparseWtpVector({{0, 12.0}, {1, 8.0}, {2, 5.0}}); }
SparseWtpVector ItemB() { return SparseWtpVector({{0, 4.0}, {1, 2.0}, {2, 11.0}}); }
constexpr double kTheta = -0.05;

// A singleton merge side with its standalone payment vector.
struct SideFixture {
  SparseWtpVector raw;
  SparseWtpVector payments;

  SideFixture(SparseWtpVector r, double price, const AdoptionModel& model)
      : raw(std::move(r)) {
    payments =
        MixedPricer(model, 100).BuildStandalonePayments(raw, 1.0, price);
    price_ = price;
  }

  MergeSide Side() const { return MergeSide{&raw, 1.0, price_, &payments}; }

 private:
  double price_;
};

TEST(AdoptionModel, StepSemantics) {
  AdoptionModel m = AdoptionModel::Step();
  EXPECT_DOUBLE_EQ(m.Probability(10.0, 9.0), 1.0);
  EXPECT_DOUBLE_EQ(m.Probability(10.0, 10.0), 1.0);  // Ties adopt.
  EXPECT_DOUBLE_EQ(m.Probability(10.0, 10.1), 0.0);
}

TEST(AdoptionModel, StepWithBiasShiftsThreshold) {
  AdoptionModel m = AdoptionModel::StepWithBias(1.25);
  EXPECT_DOUBLE_EQ(m.Probability(10.0, 12.5), 1.0);  // α·w = 12.5 ≥ p.
  EXPECT_DOUBLE_EQ(m.Probability(10.0, 12.6), 0.0);
}

TEST(AdoptionModel, SigmoidMidpointAndMonotonicity) {
  AdoptionModel m = AdoptionModel::Sigmoid(/*gamma=*/1.0, /*alpha=*/1.0,
                                           /*epsilon=*/0.0);
  EXPECT_NEAR(m.Probability(10.0, 10.0), 0.5, 1e-12);
  EXPECT_GT(m.Probability(10.0, 9.0), m.Probability(10.0, 10.0));
  EXPECT_GT(m.Probability(10.0, 10.0), m.Probability(10.0, 11.0));
  EXPECT_GT(m.Probability(11.0, 10.0), m.Probability(10.5, 10.0));
}

TEST(AdoptionModel, HigherGammaIsSteeper) {
  AdoptionModel soft = AdoptionModel::Sigmoid(0.1);
  AdoptionModel hard = AdoptionModel::Sigmoid(10.0);
  // One dollar below the price: the hard model rejects far more strongly.
  EXPECT_GT(soft.Probability(9.0, 10.0), hard.Probability(9.0, 10.0));
  // One dollar above: the hard model accepts far more strongly.
  EXPECT_LT(soft.Probability(11.0, 10.0), hard.Probability(11.0, 10.0));
}

TEST(AdoptionModel, HugeGammaApproachesStep) {
  AdoptionModel m = AdoptionModel::Sigmoid(1e6, 1.0, 1e-6);
  EXPECT_GT(m.Probability(10.0, 9.99), 0.999);
  EXPECT_LT(m.Probability(10.0, 10.01), 0.001);
}

TEST(AdoptionModel, AlphaBiasRaisesProbability) {
  AdoptionModel neutral = AdoptionModel::Sigmoid(1.0, 1.0);
  AdoptionModel eager = AdoptionModel::Sigmoid(1.0, 1.25);
  EXPECT_GT(eager.Probability(10.0, 10.0), neutral.Probability(10.0, 10.0));
}

TEST(AdoptionModel, SigmoidExtremesAreStable) {
  AdoptionModel m = AdoptionModel::Sigmoid(1e6);
  EXPECT_DOUBLE_EQ(m.Probability(1000.0, 0.01), 1.0);
  EXPECT_DOUBLE_EQ(m.Probability(0.0, 1000.0), 0.0);
}

// ---------------------------------------------------------------------------

TEST(PriceGrid, UniformLevels) {
  PriceGrid g = PriceGrid::Uniform(10.0, 5);
  ASSERT_EQ(g.size(), 5);
  EXPECT_DOUBLE_EQ(g.level(0), 2.0);
  EXPECT_DOUBLE_EQ(g.level(4), 10.0);
}

TEST(PriceGrid, BucketForBoundaries) {
  PriceGrid g = PriceGrid::Uniform(10.0, 5);
  EXPECT_EQ(g.BucketFor(1.99), -1);   // Below the lowest level.
  EXPECT_EQ(g.BucketFor(2.0), 0);     // Exactly on a level.
  EXPECT_EQ(g.BucketFor(3.99), 0);
  EXPECT_EQ(g.BucketFor(4.0), 1);
  EXPECT_EQ(g.BucketFor(10.0), 4);
  EXPECT_EQ(g.BucketFor(50.0), 4);    // Clamped to the top.
}

TEST(PriceGrid, ExplicitLevelsBinarySearch) {
  PriceGrid g = PriceGrid::Explicit({1.0, 5.0, 7.5});
  EXPECT_EQ(g.BucketFor(0.5), -1);
  EXPECT_EQ(g.BucketFor(1.0), 0);
  EXPECT_EQ(g.BucketFor(6.0), 1);
  EXPECT_EQ(g.BucketFor(7.5), 2);
}

TEST(PriceGrid, EmptyWhenMaxNonPositive) {
  EXPECT_TRUE(PriceGrid::Uniform(0.0, 100).empty());
  EXPECT_TRUE(PriceGrid::Uniform(-5.0, 100).empty());
}

// ---------------------------------------------------------------------------
// Single-offer pricing: Table 1 numbers with exact pricing (levels = 0).
// ---------------------------------------------------------------------------

TEST(OfferPricer, Table1ComponentA) {
  OfferPricer pricer(AdoptionModel::Step(), /*num_levels=*/0);
  PricedOffer r = pricer.PriceOffer(ItemA(), 1.0);
  EXPECT_DOUBLE_EQ(r.price, 8.0);
  EXPECT_DOUBLE_EQ(r.revenue, 16.0);
  EXPECT_DOUBLE_EQ(r.expected_buyers, 2.0);
}

TEST(OfferPricer, Table1ComponentB) {
  OfferPricer pricer(AdoptionModel::Step(), 0);
  PricedOffer r = pricer.PriceOffer(ItemB(), 1.0);
  EXPECT_DOUBLE_EQ(r.price, 11.0);
  EXPECT_DOUBLE_EQ(r.revenue, 11.0);
  EXPECT_DOUBLE_EQ(r.expected_buyers, 1.0);
}

TEST(OfferPricer, Table1PureBundle) {
  // Bundle WTPs at θ=−0.05: u1 = u3 = 15.20, u2 = 9.50 → price 15.20,
  // two buyers, revenue 30.40 (the paper's pure-bundling column).
  OfferPricer pricer(AdoptionModel::Step(), 0);
  SparseWtpVector merged = SparseWtpVector::Merge(ItemA(), ItemB());
  PricedOffer r = pricer.PriceOffer(merged, 1.0 + kTheta);
  EXPECT_NEAR(r.price, 15.20, 1e-9);
  EXPECT_NEAR(r.revenue, 30.40, 1e-9);
  EXPECT_DOUBLE_EQ(r.expected_buyers, 2.0);
}

TEST(OfferPricer, GridPricingApproachesExact) {
  Rng rng(31);
  OfferPricer exact(AdoptionModel::Step(), 0);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<WtpEntry> entries;
    int n = rng.UniformInt(1, 60);
    for (int u = 0; u < n; ++u) {
      entries.push_back(WtpEntry{u, rng.UniformDouble(0.5, 30.0)});
    }
    SparseWtpVector vec(entries);
    double r_exact = exact.PriceOffer(vec, 1.0).revenue;
    double prev = 0.0;
    for (int levels : {10, 100, 2000}) {
      OfferPricer grid(AdoptionModel::Step(), levels);
      double r = grid.PriceOffer(vec, 1.0).revenue;
      EXPECT_LE(r, r_exact + 1e-9);
      EXPECT_GE(r, prev - 1e-9);  // Finer grids never lose revenue here.
      prev = r;
    }
    OfferPricer grid(AdoptionModel::Step(), 2000);
    EXPECT_NEAR(grid.PriceOffer(vec, 1.0).revenue, r_exact, r_exact * 0.01);
  }
}

TEST(OfferPricer, GridPriceIsOnGridAndRevenueConsistent) {
  OfferPricer pricer(AdoptionModel::Step(), 100);
  PricedOffer r = pricer.PriceOffer(ItemA(), 1.0);
  EXPECT_GT(r.revenue, 0.0);
  EXPECT_NEAR(r.revenue, r.price * r.expected_buyers, 1e-9);
  // Revenue at the reported price must reproduce the reported revenue.
  EXPECT_NEAR(pricer.RevenueAt(ItemA(), 1.0, r.price), r.revenue, 1e-9);
}

TEST(OfferPricer, EmptyOfferHasZeroRevenue) {
  OfferPricer pricer(AdoptionModel::Step(), 100);
  SparseWtpVector empty;
  PricedOffer r = pricer.PriceOffer(empty, 1.0);
  EXPECT_DOUBLE_EQ(r.revenue, 0.0);
  EXPECT_DOUBLE_EQ(r.price, 0.0);
}

TEST(OfferPricer, NonPositiveScaleYieldsNothing) {
  OfferPricer pricer(AdoptionModel::Step(), 100);
  PricedOffer r = pricer.PriceOffer(ItemA(), 0.0);
  EXPECT_DOUBLE_EQ(r.revenue, 0.0);
}

TEST(OfferPricer, SigmoidRevenueIncreasesWithGamma) {
  // Figure 3(a): revenue coverage grows with γ (less uncertainty → the
  // seller can hold price). Verify on the Table 1 item A audience for
  // γ ≥ 0.5; at extremely low γ the near-flat demand curve lets the seller
  // gamble on noise, so the curve is not globally monotone (see the Fig. 3
  // bench notes in EXPERIMENTS.md).
  double prev = 0.0;
  for (double gamma : {0.5, 1.0, 10.0, 1e6}) {
    OfferPricer pricer(AdoptionModel::Sigmoid(gamma), 200);
    double r = pricer.PriceOffer(ItemA(), 1.0).revenue;
    EXPECT_GE(r, prev - 1e-6) << "gamma=" << gamma;
    prev = r;
  }
  // And the γ→∞ limit approaches the step optimum (16).
  OfferPricer step_like(AdoptionModel::Sigmoid(1e6), 2000);
  EXPECT_NEAR(step_like.PriceOffer(ItemA(), 1.0).revenue, 16.0, 0.2);
}

TEST(OfferPricer, SigmoidRevenueIncreasesWithAlpha) {
  // Figure 4(a): higher adoption bias α lifts revenue roughly linearly.
  double prev = 0.0;
  for (double alpha : {0.75, 0.9, 1.0, 1.1, 1.25}) {
    OfferPricer pricer(AdoptionModel::Sigmoid(1.0, alpha), 200);
    double r = pricer.PriceOffer(ItemA(), 1.0).revenue;
    EXPECT_GT(r, prev) << "alpha=" << alpha;
    prev = r;
  }
}

TEST(OfferPricer, StepBiasScalesOptimalPrice) {
  OfferPricer pricer(AdoptionModel::StepWithBias(1.25), 0);
  PricedOffer r = pricer.PriceOffer(ItemA(), 1.0);
  // All thresholds scale by 1.25: optimal price 10, two buyers, revenue 20.
  EXPECT_NEAR(r.price, 10.0, 1e-9);
  EXPECT_NEAR(r.revenue, 20.0, 1e-9);
}

TEST(OfferPricer, SampleRevenueMatchesExpectationOnAverage) {
  OfferPricer pricer(AdoptionModel::Sigmoid(1.0), 100);
  Rng rng(77);
  double price = 8.0;
  double expected = pricer.RevenueAt(ItemA(), 1.0, price);
  double sum = 0.0;
  const int runs = 4000;
  for (int i = 0; i < runs; ++i) {
    sum += pricer.SampleRevenueAt(ItemA(), 1.0, price, &rng);
  }
  EXPECT_NEAR(sum / runs, expected, expected * 0.05);
}

TEST(OfferPricer, ExactStepHelperAgreesWithLevelsZero) {
  OfferPricer pricer(AdoptionModel::Step(), 100);
  OfferPricer exact(AdoptionModel::Step(), 0);
  PricedOffer a = pricer.PriceOfferExactStep(ItemA(), 1.0);
  PricedOffer b = exact.PriceOffer(ItemA(), 1.0);
  EXPECT_DOUBLE_EQ(a.revenue, b.revenue);
  EXPECT_DOUBLE_EQ(a.price, b.price);
}

// ---------------------------------------------------------------------------
// Mixed pricing: Section 4.2 semantics on the Table 1 instance.
// ---------------------------------------------------------------------------

TEST(MixedPricer, Table1IncrementalMergeGain) {
  // Components priced first: pA=8, pB=11. Upgrade thresholds:
  //   u1: min(15.2, 8+4, 11+12) = 12, owns A → base 8
  //   u2: min(9.5, 8+2, 11+8) = 9.5, owns A → base 8
  //   u3: min(15.2, 8+11, 11+5) = 15.2, owns B → base 11
  // Window (11, 19). Best: p = 12 with adopters {u1, u3}:
  //   gain = 12·2 − (8 + 11) = 5.
  MixedPricer pricer(AdoptionModel::Step(), /*num_levels=*/0);
  SideFixture a(ItemA(), 8.0, AdoptionModel::Step());
  SideFixture b(ItemB(), 11.0, AdoptionModel::Step());
  MergeGainResult r = pricer.MergeGain(a.Side(), b.Side(), 1.0 + kTheta);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.bundle_price, 12.0, 1e-9);
  EXPECT_NEAR(r.gain, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.expected_adopters, 2.0);
}

TEST(MixedPricer, GridApproachesExactGain) {
  SideFixture a(ItemA(), 8.0, AdoptionModel::Step());
  SideFixture b(ItemB(), 11.0, AdoptionModel::Step());
  MixedPricer exact(AdoptionModel::Step(), 0);
  double g_exact = exact.MergeGain(a.Side(), b.Side(), 1.0 + kTheta).gain;
  MixedPricer fine(AdoptionModel::Step(), 5000);
  double g_fine = fine.MergeGain(a.Side(), b.Side(), 1.0 + kTheta).gain;
  EXPECT_LE(g_fine, g_exact + 1e-9);
  EXPECT_NEAR(g_fine, g_exact, g_exact * 0.02);
}

TEST(MixedPricer, BundlePriceRespectsConstraints) {
  MixedPricer pricer(AdoptionModel::Step(), 100);
  SideFixture a(ItemA(), 8.0, AdoptionModel::Step());
  SideFixture b(ItemB(), 11.0, AdoptionModel::Step());
  MergeGainResult r = pricer.MergeGain(a.Side(), b.Side(), 1.0 + kTheta);
  if (r.feasible) {
    EXPECT_GT(r.bundle_price, 11.0);  // > max component price.
    EXPECT_LT(r.bundle_price, 19.0);  // < sum of component prices.
  }
}

TEST(MixedPricer, InfeasibleWhenComponentsUnpriced) {
  MixedPricer pricer(AdoptionModel::Step(), 100);
  SideFixture a(ItemA(), 0.0, AdoptionModel::Step());  // Unsellable component.
  SideFixture b(ItemB(), 11.0, AdoptionModel::Step());
  EXPECT_FALSE(pricer.MergeGain(a.Side(), b.Side(), 1.0).feasible);
}

TEST(MixedPricer, NoGainWhenBundleCannibalisesDoubleBuyers) {
  // Both consumers happily buy both items; any admissible bundle price is
  // below p1+p2, so the bundle only loses revenue → infeasible.
  SideFixture a(SparseWtpVector({{0, 10.0}, {1, 10.0}}), 10.0,
                AdoptionModel::Step());
  SideFixture b(SparseWtpVector({{0, 10.0}, {1, 10.0}}), 10.0,
                AdoptionModel::Step());
  MixedPricer pricer(AdoptionModel::Step(), 0);
  MergeGainResult r = pricer.MergeGain(a.Side(), b.Side(), 1.0);
  EXPECT_FALSE(r.feasible);
}

TEST(MixedPricer, CapturesBuyerPricedOutOfComponents) {
  // u0 wants both items a bit but can afford neither alone at the optimal
  // component prices; the bundle recovers them (Table 6's "Add. buyers").
  SideFixture a(SparseWtpVector({{0, 6.0}, {1, 10.0}}), 10.0,
                AdoptionModel::Step());
  SideFixture b(SparseWtpVector({{0, 6.0}, {2, 10.0}}), 10.0,
                AdoptionModel::Step());
  MixedPricer pricer(AdoptionModel::Step(), 0);
  MergeGainResult r = pricer.MergeGain(a.Side(), b.Side(), 1.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.bundle_price, 12.0, 1e-9);  // u0's combined WTP.
  EXPECT_NEAR(r.gain, 12.0, 1e-9);          // A brand-new buyer.
}

TEST(MixedPricer, MultiMergeGainMatchesPairOnTwoSides) {
  SideFixture a(ItemA(), 8.0, AdoptionModel::Step());
  SideFixture b(ItemB(), 11.0, AdoptionModel::Step());
  for (int levels : {0, 100, 1000}) {
    MixedPricer pricer(AdoptionModel::Step(), levels);
    MergeGainResult pair = pricer.MergeGain(a.Side(), b.Side(), 1.0 + kTheta);
    MergeGainResult multi =
        pricer.MultiMergeGain({a.Side(), b.Side()}, 1.0 + kTheta);
    EXPECT_EQ(pair.feasible, multi.feasible) << "levels=" << levels;
    EXPECT_NEAR(pair.gain, multi.gain, 1e-9) << "levels=" << levels;
    EXPECT_NEAR(pair.bundle_price, multi.bundle_price, 1e-9);
  }
}

TEST(MixedPricer, SigmoidCompositionsAgreeInStepLimit) {
  // Component prices sit strictly below any WTP value so no consumer is at
  // an exact tie (γ·ε puts ties at probability σ(1) ≈ 0.73 by design).
  AdoptionModel sharp = AdoptionModel::Sigmoid(1e6);
  SideFixture a_sig(ItemA(), 7.9, sharp);
  SideFixture b_sig(ItemB(), 10.9, sharp);
  SideFixture a_step(ItemA(), 7.9, AdoptionModel::Step());
  SideFixture b_step(ItemB(), 10.9, AdoptionModel::Step());
  MixedPricer min_slack(sharp, 2000, MixedComposition::kMinSlack);
  MixedPricer product(sharp, 2000, MixedComposition::kProduct);
  MixedPricer step(AdoptionModel::Step(), 2000);
  double g_min = min_slack.MergeGain(a_sig.Side(), b_sig.Side(), 1.0 + kTheta).gain;
  double g_prod = product.MergeGain(a_sig.Side(), b_sig.Side(), 1.0 + kTheta).gain;
  double g_step = step.MergeGain(a_step.Side(), b_step.Side(), 1.0 + kTheta).gain;
  EXPECT_NEAR(g_min, g_step, 0.15);
  EXPECT_NEAR(g_prod, g_step, 0.15);
}

// BuildMergedPayments reads the joint audience from the dense columns when
// both sides carry them; the entries must be bitwise those of the sparse
// sorted-merge path, for every adoption model and composition.
TEST(MixedPricer, MergedPaymentsDenseViewMatchesSparseBitwise) {
  constexpr int kUsers = 150;  // Spans three bitset words, the last partial.
  // A random side: positive raw WTP on about half the consumers, payments on
  // a subset of those, and the dense mirror of both.
  struct RandomSide {
    SparseWtpVector raw, payments;
    std::vector<double> col, pay_col;
    Bitset support{kUsers};
    double scale = 1.0, price = 0.0;

    MergeSide Sparse() const { return MergeSide{&raw, scale, price, &payments}; }
    MergeSide Dense() const {
      MergeSide side = Sparse();
      side.wtp_col = col.data();
      side.payments_col = pay_col.data();
      side.support = &support;
      return side;
    }
  };
  const auto make_side = [](Rng* rng) {
    RandomSide side;
    side.col.assign(kUsers, 0.0);
    side.pay_col.assign(kUsers, 0.0);
    std::vector<WtpEntry> raw, pay;
    for (int u = 0; u < kUsers; ++u) {
      if (rng->UniformDouble() >= 0.5) continue;
      const double w = rng->UniformDouble(0.5, 20.0);
      raw.push_back(WtpEntry{u, w});
      side.col[static_cast<std::size_t>(u)] = w;
      side.support.Set(static_cast<std::size_t>(u));
      if (rng->UniformDouble() < 0.6) {
        const double paid = rng->UniformDouble(0.1, 15.0);
        pay.push_back(WtpEntry{u, paid});
        side.pay_col[static_cast<std::size_t>(u)] = paid;
      }
    }
    side.raw = SparseWtpVector(std::move(raw));
    side.payments = SparseWtpVector(std::move(pay));
    side.scale = rng->UniformDouble() < 0.5 ? 1.0 : 0.95;
    side.price = rng->UniformDouble(2.0, 15.0);
    return side;
  };
  const AdoptionModel models[] = {AdoptionModel::Step(),
                                  AdoptionModel::Sigmoid(0.5),
                                  AdoptionModel::Sigmoid(4.0, 1.3)};
  Rng rng(4242);
  int compared = 0;
  for (const AdoptionModel& model : models) {
    for (MixedComposition composition :
         {MixedComposition::kMinSlack, MixedComposition::kProduct}) {
      const MixedPricer pricer(model, 100, composition);
      for (int trial = 0; trial < 20; ++trial) {
        const RandomSide a = make_side(&rng);
        const RandomSide b = make_side(&rng);
        const double merged_scale = rng.UniformDouble(0.9, 1.1);
        // Prices inside the viability window and outside it.
        for (double price :
             {rng.UniformDouble(std::max(a.price, b.price), a.price + b.price),
              rng.UniformDouble(0.5, 40.0)}) {
          const SparseWtpVector sparse = pricer.BuildMergedPayments(
              a.Sparse(), b.Sparse(), merged_scale, price);
          const SparseWtpVector dense = pricer.BuildMergedPayments(
              a.Dense(), b.Dense(), merged_scale, price);
          ASSERT_EQ(dense.nnz(), sparse.nnz()) << "trial " << trial;
          for (std::size_t i = 0; i < sparse.nnz(); ++i) {
            EXPECT_EQ(dense.entries()[i].id, sparse.entries()[i].id);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(dense.entries()[i].w),
                      std::bit_cast<std::uint64_t>(sparse.entries()[i].w))
                << "trial " << trial << " entry " << i;
          }
          compared += static_cast<int>(sparse.nnz());
        }
      }
    }
  }
  EXPECT_GT(compared, 0);
}

// Property sweep: on random instances the mixed gain is never negative and
// the bundle price always sits inside the admissible window.
struct MixedCase {
  int num_users;
  int levels;
};

class MixedPricerPropertyTest : public ::testing::TestWithParam<MixedCase> {};

TEST_P(MixedPricerPropertyTest, GainNonNegativePriceInWindow) {
  const MixedCase& param = GetParam();
  Rng rng(1000u + static_cast<std::uint64_t>(param.num_users * 17 + param.levels));
  OfferPricer item_pricer(AdoptionModel::Step(), param.levels);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<WtpEntry> ea, eb;
    for (int u = 0; u < param.num_users; ++u) {
      if (rng.UniformDouble() < 0.7) ea.push_back(WtpEntry{u, rng.UniformDouble(1, 20)});
      if (rng.UniformDouble() < 0.7) eb.push_back(WtpEntry{u, rng.UniformDouble(1, 20)});
    }
    if (ea.empty() || eb.empty()) continue;
    SparseWtpVector a(ea), b(eb);
    double pa = item_pricer.PriceOffer(a, 1.0).price;
    double pb = item_pricer.PriceOffer(b, 1.0).price;
    if (pa <= 0.0 || pb <= 0.0) continue;
    MixedPricer pricer(AdoptionModel::Step(), param.levels);
    SparseWtpVector pay_a = pricer.BuildStandalonePayments(a, 1.0, pa);
    SparseWtpVector pay_b = pricer.BuildStandalonePayments(b, 1.0, pb);
    MergeSide sa{&a, 1.0, pa, &pay_a};
    MergeSide sb{&b, 1.0, pb, &pay_b};
    MergeGainResult r = pricer.MergeGain(sa, sb, 1.0);
    if (r.feasible) {
      EXPECT_GT(r.gain, 0.0);
      EXPECT_GT(r.bundle_price, std::max(pa, pb));
      EXPECT_LT(r.bundle_price, pa + pb);
    } else {
      EXPECT_DOUBLE_EQ(r.gain, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomAudiences, MixedPricerPropertyTest,
                         ::testing::Values(MixedCase{5, 0}, MixedCase{5, 100},
                                           MixedCase{20, 0}, MixedCase{20, 100},
                                           MixedCase{60, 0}, MixedCase{60, 200}));

}  // namespace
}  // namespace bundlemine
