// Unit tests for the mining substrate: bitsets, transaction DB, and the
// MAFIA-style maximal miner — cross-validated against a level-wise Apriori
// reference (Agrawal & Srikant, VLDB 1994) that lives only in this file.

#include <algorithm>

#include "data/wtp_matrix.h"
#include "gtest/gtest.h"
#include "mining/bitset.h"
#include "mining/mafia.h"
#include "mining/transactions.h"
#include "util/rng.h"

namespace bundlemine {
namespace {

// True if every (k-1)-subset of `candidate` appears in `prev_level`
// (which holds the frequent (k-1)-itemsets, sorted lexicographically).
bool AllSubsetsFrequent(const std::vector<int>& candidate,
                        const std::vector<std::vector<int>>& prev_level) {
  std::vector<int> sub(candidate.size() - 1);
  for (std::size_t skip = 0; skip < candidate.size(); ++skip) {
    std::size_t t = 0;
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      if (i != skip) sub[t++] = candidate[i];
    }
    if (!std::binary_search(prev_level.begin(), prev_level.end(), sub)) {
      return false;
    }
  }
  return true;
}

// Reference miner: every frequent itemset at limits.min_support_count (size
// capped by limits.max_itemset_size, 0 = none), smallest first. Level-wise
// prefix join + subset pruning with bitmap-intersection support counting —
// an implementation independent of MAFIA's depth-first search.
std::vector<FrequentItemset> MineFrequentApriori(const TransactionDb& db,
                                                 const MinerLimits& limits) {
  std::vector<FrequentItemset> result;

  // Level 1.
  std::vector<std::vector<int>> level;  // Sorted list of frequent itemsets.
  std::vector<Bitset> level_bitmaps;
  for (int i = 0; i < db.num_items(); ++i) {
    int sup = db.ItemSupport(i);
    if (sup >= limits.min_support_count) {
      result.push_back(FrequentItemset{{i}, sup});
      level.push_back({i});
      level_bitmaps.push_back(db.Column(i));
    }
  }

  int k = 2;
  while (!level.empty() &&
         (limits.max_itemset_size == 0 || k <= limits.max_itemset_size)) {
    std::vector<std::vector<int>> next_level;
    std::vector<Bitset> next_bitmaps;
    // Prefix join: two frequent (k-1)-itemsets sharing the first k-2 items.
    for (std::size_t a = 0; a < level.size(); ++a) {
      for (std::size_t b = a + 1; b < level.size(); ++b) {
        if (!std::equal(level[a].begin(), level[a].end() - 1, level[b].begin(),
                        level[b].end() - 1)) {
          break;  // Lexicographic order ⇒ no later b shares the prefix.
        }
        std::vector<int> candidate = level[a];
        candidate.push_back(level[b].back());
        if (k > 2 && !AllSubsetsFrequent(candidate, level)) continue;
        std::size_t sup = level_bitmaps[a].AndCount(db.Column(candidate.back()));
        if (static_cast<int>(sup) >= limits.min_support_count) {
          result.push_back(FrequentItemset{candidate, static_cast<int>(sup)});
          next_level.push_back(candidate);
          Bitset bm(level_bitmaps[a].size());
          Bitset::And(level_bitmaps[a], db.Column(candidate.back()), &bm);
          next_bitmaps.push_back(std::move(bm));
        }
      }
    }
    level = std::move(next_level);
    level_bitmaps = std::move(next_bitmaps);
    ++k;
  }
  return result;
}

// The maximal members of a frequent-itemset collection (no strict superset
// in the collection), sorted by items like MineMaximalFrequent's output.
std::vector<FrequentItemset> FilterMaximal(std::vector<FrequentItemset> itemsets) {
  // Sort by size descending; an itemset is maximal iff no kept set contains it.
  std::sort(itemsets.begin(), itemsets.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.items.size() != b.items.size()) return a.items.size() > b.items.size();
              return a.items < b.items;
            });
  std::vector<FrequentItemset> maximal;
  for (const FrequentItemset& c : itemsets) {
    bool subsumed = false;
    for (const FrequentItemset& m : maximal) {
      if (m.items.size() <= c.items.size()) break;  // Sorted by size desc.
      if (std::includes(m.items.begin(), m.items.end(), c.items.begin(),
                        c.items.end())) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) maximal.push_back(c);
  }
  std::sort(maximal.begin(), maximal.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              return a.items < b.items;
            });
  return maximal;
}

TEST(Bitset, SetTestCount) {
  Bitset b(130);
  EXPECT_EQ(b.Count(), 0u);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(Bitset, AndOperations) {
  Bitset a(100), b(100);
  for (std::size_t i = 0; i < 100; i += 2) a.Set(i);
  for (std::size_t i = 0; i < 100; i += 3) b.Set(i);
  EXPECT_EQ(a.AndCount(b), 17u);  // Multiples of 6 in [0,100): 0,6,...,96.
  Bitset out(100);
  Bitset::And(a, b, &out);
  EXPECT_EQ(out.Count(), 17u);
  a.AndWith(b);
  EXPECT_TRUE(a == out);
}

TEST(TransactionDb, SupportCounts) {
  // Classic 5-transaction market-basket example.
  TransactionDb db = TransactionDb::FromTransactions(
      5, {{0, 1, 4}, {1, 3}, {1, 2}, {0, 1, 3}, {0, 2}});
  EXPECT_EQ(db.num_transactions(), 5);
  EXPECT_EQ(db.ItemSupport(0), 3);
  EXPECT_EQ(db.ItemSupport(1), 4);
  EXPECT_EQ(db.Support({0, 1}), 2);
  EXPECT_EQ(db.Support({1, 3}), 2);
  EXPECT_EQ(db.Support({0, 1, 4}), 1);
  EXPECT_EQ(db.Support({2, 3}), 0);
}

TEST(TransactionDb, FromWtpUsesPositiveEntries) {
  std::vector<std::tuple<UserId, ItemId, double>> triplets = {
      {0, 0, 5.0}, {0, 1, 3.0}, {1, 0, 2.0}};
  WtpMatrix wtp = WtpMatrix::FromTriplets(2, 2, triplets);
  TransactionDb db = TransactionDb::FromWtp(wtp);
  EXPECT_EQ(db.ItemSupport(0), 2);
  EXPECT_EQ(db.ItemSupport(1), 1);
  EXPECT_EQ(db.Support({0, 1}), 1);
}

TEST(Apriori, TextbookExample) {
  TransactionDb db = TransactionDb::FromTransactions(
      5, {{0, 1, 4}, {1, 3}, {1, 2}, {0, 1, 3}, {0, 2}});
  MinerLimits limits;
  limits.min_support_count = 2;
  auto frequent = MineFrequentApriori(db, limits);
  // Frequent: {0}:3 {1}:4 {2}:2 {3}:2 {0,1}:2 {1,3}:2 — and nothing else.
  ASSERT_EQ(frequent.size(), 6u);
  auto find = [&](std::vector<int> items) -> int {
    for (const auto& f : frequent) {
      if (f.items == items) return f.support;
    }
    return -1;
  };
  EXPECT_EQ(find({0}), 3);
  EXPECT_EQ(find({1}), 4);
  EXPECT_EQ(find({2}), 2);
  EXPECT_EQ(find({3}), 2);
  EXPECT_EQ(find({0, 1}), 2);
  EXPECT_EQ(find({1, 3}), 2);
  EXPECT_EQ(find({0, 4}), -1);
}

TEST(Apriori, MaxSizeCap) {
  TransactionDb db = TransactionDb::FromTransactions(
      4, {{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {3}});
  MinerLimits limits;
  limits.min_support_count = 2;
  limits.max_itemset_size = 2;
  auto frequent = MineFrequentApriori(db, limits);
  for (const auto& f : frequent) {
    EXPECT_LE(f.items.size(), 2u);
  }
}

TEST(FilterMaximal, KeepsOnlyMaximalSets) {
  std::vector<FrequentItemset> sets = {
      {{0}, 5}, {{1}, 4}, {{0, 1}, 3}, {{2}, 2}, {{0, 1, 3}, 2}};
  auto maximal = FilterMaximal(sets);
  ASSERT_EQ(maximal.size(), 2u);
  EXPECT_EQ(maximal[0].items, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(maximal[1].items, (std::vector<int>{2}));
}

TEST(MaximalMiner, TextbookExample) {
  TransactionDb db = TransactionDb::FromTransactions(
      5, {{0, 1, 4}, {1, 3}, {1, 2}, {0, 1, 3}, {0, 2}});
  MinerLimits limits;
  limits.min_support_count = 2;
  auto maximal = MineMaximalFrequent(db, limits);
  // Maximal frequent at support 2: {0,1}, {1,3}, {2}.
  ASSERT_EQ(maximal.size(), 3u);
  EXPECT_EQ(maximal[0].items, (std::vector<int>{0, 1}));
  EXPECT_EQ(maximal[0].support, 2);
  EXPECT_EQ(maximal[1].items, (std::vector<int>{1, 3}));
  EXPECT_EQ(maximal[2].items, (std::vector<int>{2}));
}

TEST(MaximalMiner, SingleFullTransaction) {
  TransactionDb db = TransactionDb::FromTransactions(3, {{0, 1, 2}, {0, 1, 2}});
  MinerLimits limits;
  limits.min_support_count = 2;
  auto maximal = MineMaximalFrequent(db, limits);
  ASSERT_EQ(maximal.size(), 1u);
  EXPECT_EQ(maximal[0].items, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(maximal[0].support, 2);
}

TEST(MaximalMiner, EmptyWhenNothingFrequent) {
  TransactionDb db = TransactionDb::FromTransactions(3, {{0}, {1}, {2}});
  MinerLimits limits;
  limits.min_support_count = 2;
  EXPECT_TRUE(MineMaximalFrequent(db, limits).empty());
}

// ---------------------------------------------------------------------------
// Cross-validation: MAFIA output == maximal(Apriori output) on random DBs.
// ---------------------------------------------------------------------------

struct MiningCase {
  int num_items;
  int num_transactions;
  double density;
  int min_support;
};

class MinerCrossValidationTest : public ::testing::TestWithParam<MiningCase> {};

TEST_P(MinerCrossValidationTest, MafiaEqualsMaximalApriori) {
  const MiningCase& param = GetParam();
  Rng rng(52000u + static_cast<std::uint64_t>(param.num_items * 1000 +
                                              param.num_transactions));
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<std::vector<int>> txns;
    for (int t = 0; t < param.num_transactions; ++t) {
      std::vector<int> txn;
      for (int i = 0; i < param.num_items; ++i) {
        if (rng.UniformDouble() < param.density) txn.push_back(i);
      }
      txns.push_back(std::move(txn));
    }
    TransactionDb db = TransactionDb::FromTransactions(param.num_items, txns);
    MinerLimits limits;
    limits.min_support_count = param.min_support;

    bool complete = false;
    auto mafia = MineMaximalFrequent(db, limits, &complete);
    EXPECT_TRUE(complete) << "trial " << trial;
    auto apriori_maximal = FilterMaximal(MineFrequentApriori(db, limits));

    ASSERT_EQ(mafia.size(), apriori_maximal.size()) << "trial " << trial;
    for (std::size_t s = 0; s < mafia.size(); ++s) {
      EXPECT_EQ(mafia[s].items, apriori_maximal[s].items) << "trial " << trial;
      EXPECT_EQ(mafia[s].support, apriori_maximal[s].support);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDatabases, MinerCrossValidationTest,
    ::testing::Values(MiningCase{6, 20, 0.4, 2}, MiningCase{8, 30, 0.3, 2},
                      MiningCase{8, 30, 0.5, 3}, MiningCase{10, 40, 0.25, 2},
                      MiningCase{10, 25, 0.5, 4}, MiningCase{12, 50, 0.2, 3}));

TEST(MaximalMiner, SizeCapProducesCappedMaximalSets) {
  Rng rng(999);
  std::vector<std::vector<int>> txns;
  for (int t = 0; t < 30; ++t) {
    std::vector<int> txn;
    for (int i = 0; i < 8; ++i) {
      if (rng.UniformDouble() < 0.5) txn.push_back(i);
    }
    txns.push_back(std::move(txn));
  }
  TransactionDb db = TransactionDb::FromTransactions(8, txns);
  MinerLimits capped;
  capped.min_support_count = 2;
  capped.max_itemset_size = 2;
  auto maximal = MineMaximalFrequent(db, capped);
  auto expected = FilterMaximal(MineFrequentApriori(db, capped));
  ASSERT_EQ(maximal.size(), expected.size());
  for (std::size_t s = 0; s < maximal.size(); ++s) {
    EXPECT_LE(maximal[s].items.size(), 2u);
    EXPECT_EQ(maximal[s].items, expected[s].items);
  }
}

// max_results is a flagged stop, not an abort: the capped mine keeps at
// most that many sets, every one of them frequent, and reports incomplete.
TEST(MaximalMiner, ResultCapStopsTheMineAndReportsIncomplete) {
  Rng rng(4242);
  std::vector<std::vector<int>> txns;
  for (int t = 0; t < 30; ++t) {
    std::vector<int> txn;
    for (int i = 0; i < 8; ++i) {
      if (rng.UniformDouble() < 0.5) txn.push_back(i);
    }
    txns.push_back(std::move(txn));
  }
  TransactionDb db = TransactionDb::FromTransactions(8, txns);
  MinerLimits limits;
  limits.min_support_count = 3;
  bool complete = false;
  const auto full = MineMaximalFrequent(db, limits, &complete);
  EXPECT_TRUE(complete);
  ASSERT_GT(full.size(), 2u);

  limits.max_results = 2;
  complete = true;
  const auto capped = MineMaximalFrequent(db, limits, &complete);
  EXPECT_FALSE(complete);
  EXPECT_LE(capped.size(), 2u);
  for (const FrequentItemset& set : capped) {
    EXPECT_GE(set.support, limits.min_support_count);
    EXPECT_EQ(db.Support(set.items), set.support);
  }
}

}  // namespace
}  // namespace bundlemine
