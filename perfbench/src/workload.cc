#include "workload.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "data/ratings.h"
#include "scenario/scenario_spec.h"
#include "scenario/sweep_runner.h"
#include "util/check.h"
#include "util/strings.h"

namespace perfbench {
namespace {

using bundlemine::Rng;
using bundlemine::StrFormat;

// sweep-fanout: three op types on one dataset.
std::string ThetaSweep() {
  return StrFormat(
      R"({"kind":"sweep","spec":"name=theta-grid;scale=tiny;seed=%llu;)"
      R"(methods=components,pure-matching,mixed-matching;)"
      R"(axis:theta=%s,%s,%s"})",
      static_cast<unsigned long long>(kSweepDatasetSeed), kThetas[0],
      kThetas[1], kThetas[2]);
}

std::string FreqSweep() {
  return StrFormat(
      R"({"kind":"sweep","spec":"name=freq;scale=tiny;seed=%llu;)"
      R"(methods=pure-freq;axis:freq-support=%g"})",
      static_cast<unsigned long long>(kSweepDatasetSeed), kFreqSupport);
}

std::string SolveFields(const char* method, std::uint64_t dataset_seed,
                        const char* theta) {
  return StrFormat(
      R"("method":"%s","dataset":{"profile":"tiny","seed":%llu},"theta":%s)",
      method, static_cast<unsigned long long>(dataset_seed), theta);
}

std::string MatchingBatch() {
  std::string entries;
  for (const char* method : {"pure-matching", "mixed-matching"}) {
    for (const char* theta : kThetas) {
      if (!entries.empty()) entries += ",";
      entries += "{" + SolveFields(method, kSweepDatasetSeed, theta) + "}";
    }
  }
  return R"({"kind":"batch","requests":[)" + entries + "]}";
}

// solve-mix: greedy methods carry most of the service time.
constexpr const char* kSolveMethods[] = {"mixed-greedy", "pure-greedy",
                                         "mixed-matching", "components"};
// Indices into kSolveMethods, weighted 3:3:3:1.
const std::vector<int> kSolveMethodBlock = {0, 0, 0, 1, 1, 1, 2, 2, 2, 3};

std::string SolveLine(const char* method, std::uint64_t dataset_seed,
                      const char* theta) {
  return R"({"kind":"solve",)" + SolveFields(method, dataset_seed, theta) + "}";
}

// market-stream delta mix: adds and removes balance so the market keeps its
// size over a long run.
constexpr int kDeltasPerUpdate = 4;
constexpr double kAddShare = 0.3;
constexpr double kUpdateShare = 0.4;

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kSweepFanout: return "sweep-fanout";
    case Workload::kSolveMix: return "solve-mix";
    case Workload::kMarketStream: return "market-stream";
  }
  return "?";
}

std::optional<Workload> WorkloadByName(std::string_view name) {
  for (Workload workload : kAllWorkloads) {
    if (name == WorkloadName(workload)) return workload;
  }
  return std::nullopt;
}

std::uint64_t MarketDatasetSeed(int client) {
  return 11 + static_cast<std::uint64_t>(client);
}

std::string MarketId(int client) { return StrFormat("m%d", client); }

bool RatingMirror::Has(int user, int item) const {
  return index_.count({user, item}) != 0;
}

void RatingMirror::Add(int user, int item) {
  BM_CHECK(index_.emplace(std::make_pair(user, item), present_.size()).second);
  present_.emplace_back(user, item);
}

void RatingMirror::Remove(int user, int item) {
  auto it = index_.find({user, item});
  BM_CHECK(it != index_.end());
  const std::size_t slot = it->second;
  index_.erase(it);
  // Swap-pop keeps removal O(log n); draw order stays a pure function of
  // the operation history.
  if (slot + 1 != present_.size()) {
    present_[slot] = present_.back();
    index_[present_[slot]] = slot;
  }
  present_.pop_back();
}

std::pair<int, int> RatingMirror::PickPresent(Rng& rng) const {
  BM_CHECK(!present_.empty());
  return present_[rng.UniformU32(static_cast<std::uint32_t>(present_.size()))];
}

std::pair<int, int> RatingMirror::PickAbsent(Rng& rng) const {
  BM_CHECK_LT(present_.size(),
              static_cast<std::size_t>(users_) * static_cast<std::size_t>(items_));
  while (true) {
    const int user = rng.UniformInt(0, users_ - 1);
    const int item = rng.UniformInt(0, items_ - 1);
    if (!Has(user, item)) return {user, item};
  }
}

OpStream::OpStream(Workload workload, std::uint64_t seed, int client)
    : workload_(workload),
      client_(client),
      rng_(seed, /*stream=*/static_cast<std::uint64_t>(workload) * 64 +
                     static_cast<std::uint64_t>(client) + 1) {
  if (workload_ != Workload::kMarketStream) return;
  setup_.push_back(StrFormat(
      R"({"kind":"update","market":"%s","load":{"profile":"tiny","seed":%llu}})",
      MarketId(client_).c_str(),
      static_cast<unsigned long long>(MarketDatasetSeed(client_))));
  // The daemon materializes the same dataset for the load, so this mirror
  // starts equal to the market's rating set.
  bundlemine::DatasetSpec spec;
  spec.profile = "tiny";
  spec.seed = MarketDatasetSeed(client_);
  const bundlemine::RatingsDataset dataset = bundlemine::MaterializeDataset(spec);
  mirror_ = RatingMirror(dataset.num_users(), dataset.num_items());
  for (const bundlemine::Rating& rating : dataset.ratings()) {
    mirror_.Add(rating.user, rating.item);
  }
}

int OpStream::NextInBlock(const std::vector<int>& block) {
  if (pending_.empty()) {
    pending_ = block;
    for (std::size_t i = pending_.size(); i > 1; --i) {
      std::swap(pending_[i - 1],
                pending_[rng_.UniformU32(static_cast<std::uint32_t>(i))]);
    }
  }
  const int type = pending_.back();
  pending_.pop_back();
  return type;
}

std::vector<Op> OpStream::Warmup() {
  std::vector<Op> ops;
  switch (workload_) {
    case Workload::kSweepFanout: {
      // Every op type once, spread over the clients.
      const std::vector<std::string> universe = RequestUniverse(workload_);
      for (std::size_t i = static_cast<std::size_t>(client_); i < universe.size();
           i += kClients) {
        ops.push_back(Op{{universe[i]}});
      }
      break;
    }
    case Workload::kSolveMix:
      // One solve per method, on the first dataset.
      ops.push_back(Op{{SolveLine(
          kSolveMethods[static_cast<std::size_t>(client_) % std::size(kSolveMethods)],
          kSolveDatasetSeedBase, "0")}});
      break;
    case Workload::kMarketStream:
      ops.push_back(Next());
      break;
  }
  return ops;
}

Op OpStream::Next() {
  switch (workload_) {
    case Workload::kSweepFanout:
      // Half θ-grid sweeps, a quarter pure-freq sweeps, a quarter batches.
      switch (NextInBlock({0, 0, 1, 2})) {
        case 0: return Op{{ThetaSweep()}};
        case 1: return Op{{FreqSweep()}};
        default: return Op{{MatchingBatch()}};
      }
    case Workload::kSolveMix: {
      const int method = NextInBlock(kSolveMethodBlock);
      const char* theta = kThetas[rng_.UniformInt(0, 2)];
      const std::uint64_t dataset_seed =
          kSolveDatasetSeedBase +
          static_cast<std::uint64_t>(rng_.UniformInt(0, kSolveDatasets - 1));
      return Op{{SolveLine(kSolveMethods[method], dataset_seed, theta)}};
    }
    case Workload::kMarketStream:
      return NextMarketCycle();
  }
  return Op{};
}

Op OpStream::NextMarketCycle() {
  std::string deltas;
  for (int i = 0; i < kDeltasPerUpdate; ++i) {
    const double draw = rng_.UniformDouble();
    if (!deltas.empty()) deltas += ",";
    if (draw < kAddShare) {
      const auto [user, item] = mirror_.PickAbsent(rng_);
      mirror_.Add(user, item);
      deltas += StrFormat(
          R"({"op":"add_rating","user":%d,"item":%d,"stars":%d})", user, item,
          rng_.UniformInt(1, 5));
    } else if (draw < kAddShare + kUpdateShare) {
      const auto [user, item] = mirror_.PickPresent(rng_);
      deltas += StrFormat(
          R"({"op":"update_rating","user":%d,"item":%d,"stars":%d})", user,
          item, rng_.UniformInt(1, 5));
    } else {
      const auto [user, item] = mirror_.PickPresent(rng_);
      mirror_.Remove(user, item);
      deltas += StrFormat(R"({"op":"remove_rating","user":%d,"item":%d})",
                          user, item);
    }
  }
  const std::string market = MarketId(client_);
  return Op{{StrFormat(R"({"kind":"update","market":"%s","deltas":[%s]})",
                       market.c_str(), deltas.c_str()),
             StrFormat(R"({"kind":"resolve","market":"%s","spec":"%s"})",
                       market.c_str(), kResolveSpec)}};
}

std::vector<std::string> RequestUniverse(Workload workload) {
  std::vector<std::string> lines;
  switch (workload) {
    case Workload::kSweepFanout:
      lines = {ThetaSweep(), FreqSweep(), MatchingBatch()};
      break;
    case Workload::kSolveMix:
      for (const char* method : kSolveMethods) {
        for (const char* theta : kThetas) {
          for (int d = 0; d < kSolveDatasets; ++d) {
            lines.push_back(SolveLine(
                method, kSolveDatasetSeedBase + static_cast<std::uint64_t>(d),
                theta));
          }
        }
      }
      break;
    case Workload::kMarketStream:
      break;
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

namespace {

// ceil(p/100 · n) in integer arithmetic on tenths of a percent, so p90 of
// 100 samples is rank 90 exactly (0.9 · 100 is not exact in binary).
std::size_t NearestRank(std::size_t samples, double p) {
  const auto permille = static_cast<std::size_t>(std::llround(p * 10.0));
  return (permille * samples + 999) / 1000;
}

}  // namespace

double NearestRankPercentile(const std::vector<double>& sorted, double p) {
  BM_CHECK(!sorted.empty());
  const std::size_t rank = std::max<std::size_t>(1, NearestRank(sorted.size(), p));
  return sorted[std::min(rank, sorted.size()) - 1];
}

std::size_t SamplesBeyond(std::size_t samples, double p) {
  return samples - std::min(samples, NearestRank(samples, p));
}

std::optional<TailPercentile> HighestSupportedPercentile(
    std::vector<double> samples, std::size_t min_beyond) {
  std::sort(samples.begin(), samples.end());
  std::optional<TailPercentile> best;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const std::size_t beyond = SamplesBeyond(samples.size(), p);
    if (beyond < min_beyond) break;
    best = TailPercentile{p, NearestRankPercentile(samples, p), samples.size(),
                          beyond};
  }
  return best;
}

}  // namespace perfbench
