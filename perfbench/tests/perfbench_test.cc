// Tests of the benchmark's own helpers: the percentile ladder every latency
// figure goes through, span self time, and the determinism and validity of
// the request generator.

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "market/market_stream.h"
#include "scenario/sweep_runner.h"
#include "serve/protocol.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> samples;
  for (int i = n; i >= 1; --i) samples.push_back(i);  // Unsorted on purpose.
  return samples;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(NearestRankPercentile(sorted, 50.0), 5.0);
  EXPECT_EQ(NearestRankPercentile(sorted, 90.0), 9.0);
  EXPECT_EQ(NearestRankPercentile(sorted, 99.0), 10.0);
  EXPECT_EQ(NearestRankPercentile({42.0}, 50.0), 42.0);
}

TEST(PercentileTest, SamplesBeyondUsesExactRanks) {
  // 0.9 · 100 is not exact in binary; the rank must still be 90.
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90.0), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);
}

TEST(PercentileTest, HighestSupportedNeedsTenBeyond) {
  EXPECT_FALSE(HighestSupportedPercentile(Ramp(19)).has_value());

  std::optional<TailPercentile> p50 = HighestSupportedPercentile(Ramp(99));
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->percentile, 50.0);
  EXPECT_EQ(p50->value, 50.0);
  EXPECT_EQ(p50->samples, 99u);
  EXPECT_EQ(p50->beyond, 49u);

  std::optional<TailPercentile> p90 = HighestSupportedPercentile(Ramp(100));
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(p90->percentile, 90.0);
  EXPECT_EQ(p90->value, 90.0);
  EXPECT_EQ(p90->samples, 100u);
  EXPECT_EQ(p90->beyond, 10u);

  std::optional<TailPercentile> p99 = HighestSupportedPercentile(Ramp(1000));
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->percentile, 99.0);
  EXPECT_EQ(p99->value, 990.0);
  EXPECT_EQ(p99->samples, 1000u);
  EXPECT_EQ(p99->beyond, 10u);

  std::optional<TailPercentile> p999 = HighestSupportedPercentile(Ramp(10000));
  ASSERT_TRUE(p999.has_value());
  EXPECT_EQ(p999->percentile, 99.9);
  EXPECT_EQ(p999->beyond, 10u);
}

TEST(TraceTest, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog log;
  const int root = log.Record(Span{"op", 0, 100'000'000, -1, 7});
  log.Record(Span{"child", 10'000'000, 30'000'000, root, 7});
  log.Record(Span{"child", 20'000'000, 50'000'000, root, 7});  // Overlaps.
  log.Record(Span{"child", 60'000'000, 70'000'000, root, 7});
  SpanLog other;
  other.Record(Span{"op", 0, 10'000'000, -1, 8});
  SpanLog disabled(/*enabled=*/false);
  EXPECT_EQ(disabled.Record(Span{"op", 0, 1, -1, 9}), -1);

  const std::map<std::string, SpanTotals> totals =
      AggregateSpans({&log, &other, &disabled});
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals.at("op").count, 2);
  // 100 ms minus the 50 ms its children cover, plus the childless 10 ms.
  EXPECT_DOUBLE_EQ(totals.at("op").self_ms, 60.0);
  EXPECT_DOUBLE_EQ(totals.at("op").mean_self_ms(), 30.0);
  EXPECT_EQ(totals.at("child").count, 3);
  EXPECT_DOUBLE_EQ(totals.at("child").self_ms, 60.0);
}

std::vector<std::string> Sequence(Workload workload, std::uint64_t seed,
                                  int client, int ops) {
  OpStream stream(workload, seed, client);
  std::vector<std::string> lines = stream.setup_lines();
  for (int i = 0; i < ops; ++i) {
    for (const std::string& line : stream.Next().lines) lines.push_back(line);
  }
  return lines;
}

TEST(GeneratorTest, SameSeedSameOps) {
  for (Workload workload : kAllWorkloads) {
    SCOPED_TRACE(WorkloadName(workload));
    for (int client = 0; client < kClients; ++client) {
      EXPECT_EQ(Sequence(workload, 5, client, 200),
                Sequence(workload, 5, client, 200));
    }
    EXPECT_NE(Sequence(workload, 5, 0, 50), Sequence(workload, 6, 0, 50));
    EXPECT_NE(Sequence(workload, 5, 0, 50), Sequence(workload, 5, 1, 50));
  }
}

TEST(GeneratorTest, RequestsParseAndStayInTheUniverse) {
  for (Workload workload : kAllWorkloads) {
    SCOPED_TRACE(WorkloadName(workload));
    const std::vector<std::string> universe = RequestUniverse(workload);
    const std::set<std::string> known(universe.begin(), universe.end());
    for (const std::string& line : Sequence(workload, 9, 2, 300)) {
      EXPECT_TRUE(bundlemine::ParseWireRequest(line).ok()) << line;
      const bool market_op = line.rfind(R"({"kind":"update")", 0) == 0 ||
                             line.rfind(R"({"kind":"resolve")", 0) == 0;
      EXPECT_EQ(market_op, workload == Workload::kMarketStream) << line;
      if (!market_op) EXPECT_EQ(known.count(line), 1u) << line;
    }
  }
}

TEST(GeneratorTest, MarketDeltasStayValid) {
  // The generator's mirror must agree with the market: add_rating only on
  // absent pairs, update/remove only on present ones. A refused batch would
  // leave the version unchanged and turn the next resolve into a cache hit.
  OpStream stream(Workload::kMarketStream, 3, 1);
  bundlemine::StatusOr<bundlemine::WireRequest> load =
      bundlemine::ParseWireRequest(stream.setup_lines().front());
  ASSERT_TRUE(load.ok());
  bundlemine::MarketStream market("m1");
  ASSERT_TRUE(market.Load(bundlemine::MaterializeDataset(*load->load)).ok());
  for (int cycle = 0; cycle < 500; ++cycle) {
    const Op op = stream.Next();
    ASSERT_EQ(op.lines.size(), 2u);
    bundlemine::StatusOr<bundlemine::WireRequest> update =
        bundlemine::ParseWireRequest(op.lines[0]);
    ASSERT_TRUE(update.ok());
    ASSERT_EQ(update->deltas.size(), 4u);
    ASSERT_TRUE(market.Apply(update->deltas).ok()) << "cycle " << cycle;
  }
}

}  // namespace
}  // namespace perfbench
