// Seeded request generation for the served benchmark, plus the percentile
// helper every latency figure goes through.
//
// A workload is a fixed traffic mix sent by kClients closed-loop clients.
// Each client owns one OpStream: the i-th op it yields is a pure function of
// (workload, seed, client, i), so the wire run, the in-process replay and a
// re-run with the same seed all see exactly the same requests. The daemon
// never sees the seed, only the request lines.
//
//   sweep-fanout   50% θ-grid sweeps, 25% pure-freq sweeps, 25% batches of
//                  six matching solves, all on scale=tiny;seed=7. Every op
//                  takes the Engine pool lock; the dataset/WTP caches
//                  always hit.
//   solve-mix      single solves (mixed-greedy, pure-greedy, mixed-matching,
//                  components weighted 3:3:3:1) over 12 tiny datasets —
//                  more than the 8-entry dataset/WTP caches hold. Solves
//                  bypass the pool lock.
//   market-stream  one op = an update of 4 valid rating deltas followed by a
//                  resolve, each client on its own market. Writes beside
//                  reads, incremental resolve, versioned WTP keys.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace perfbench {

enum class Workload { kSweepFanout, kSolveMix, kMarketStream };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kSweepFanout, Workload::kSolveMix, Workload::kMarketStream};

const char* WorkloadName(Workload workload);
std::optional<Workload> WorkloadByName(std::string_view name);

/// Closed-loop clients per workload, one connection each (the 4-core load
/// shape; the daemon runs --workers=4 --threads=1).
inline constexpr int kClients = 4;

/// Dataset seed of every sweep-fanout request (scale=tiny).
inline constexpr std::uint64_t kSweepDatasetSeed = 7;
/// Minimum support of sweep-fanout's pure-freq sweeps: mining stays a share
/// of the mix rather than all of it (the default support costs ~8x more).
inline constexpr double kFreqSupport = 0.04;
/// solve-mix draws its dataset from kSolveDatasets tiny seeds starting at
/// kSolveDatasetSeedBase — more than the Engine's 8-entry dataset/WTP caches
/// hold, so the data layer misses part of the time.
inline constexpr int kSolveDatasets = 12;
inline constexpr std::uint64_t kSolveDatasetSeedBase = 101;
/// θ values the sweep-fanout batches and solve-mix solves draw from.
inline constexpr const char* kThetas[] = {"-0.05", "0", "0.05"};

/// The resolve spec market-stream sends after every update.
inline constexpr const char* kResolveSpec =
    "name=live;scale=tiny;methods=components,pure-matching,mixed-matching;"
    "axis:theta=0,0.05";

/// Dataset seed of client `client`'s market (market-stream).
std::uint64_t MarketDatasetSeed(int client);
/// Market id client `client` owns (market-stream).
std::string MarketId(int client);

/// One op: request lines sent in lockstep; the op completes with the last
/// response line.
struct Op {
  std::vector<std::string> lines;
};

/// The set of (user, item) pairs a market holds, mirrored on the client so
/// every generated delta is valid: add_rating only targets absent pairs,
/// update_rating and remove_rating only present ones.
class RatingMirror {
 public:
  RatingMirror() = default;
  RatingMirror(int num_users, int num_items) : users_(num_users), items_(num_items) {}

  bool Has(int user, int item) const;
  void Add(int user, int item);
  void Remove(int user, int item);
  /// Uniformly drawn present pair; the mirror must be non-empty.
  std::pair<int, int> PickPresent(bundlemine::Rng& rng) const;
  /// Uniformly drawn absent pair; the mirror must not be full.
  std::pair<int, int> PickAbsent(bundlemine::Rng& rng) const;

 private:
  int users_ = 0;
  int items_ = 0;
  std::vector<std::pair<int, int>> present_;
  std::map<std::pair<int, int>, std::size_t> index_;  // Pair → slot in present_.
};

/// Client `client`'s deterministic op sequence for `workload` under `seed`.
class OpStream {
 public:
  OpStream(Workload workload, std::uint64_t seed, int client);

  /// Lines sent once per connection before any op (market-stream's load).
  const std::vector<std::string>& setup_lines() const { return setup_; }

  /// The warm-up pass, sent after the set-up lines and before the measured
  /// ops. It is the same under every seed, so set-up time does not depend
  /// on which op a seed happens to draw first — except on market-stream,
  /// where it is the first update/resolve cycle of the stream.
  std::vector<Op> Warmup();

  /// The next op of the sequence.
  Op Next();

 private:
  Op NextMarketCycle();
  /// Draws the next op type. Types come in shuffled blocks that hold each
  /// type in its exact share, so a run's mix — and with it its cost — does
  /// not drift with the seed; the seed decides the order.
  int NextInBlock(const std::vector<int>& block);

  Workload workload_;
  int client_;
  bundlemine::Rng rng_;
  std::vector<int> pending_;  ///< Op types left in the current block.
  std::vector<std::string> setup_;
  RatingMirror mirror_;
};

/// Every distinct request line an OpStream of `workload` can yield, sorted —
/// the set whose responses are checked against in-process references. Empty
/// for market-stream, whose responses depend on market state and are checked
/// by replaying the delta log instead.
std::vector<std::string> RequestUniverse(Workload workload);

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`, which
/// must be non-empty.
double NearestRankPercentile(const std::vector<double>& sorted, double p);

/// Samples strictly above the nearest-rank position of percentile `p`.
std::size_t SamplesBeyond(std::size_t samples, double p);

/// A percentile together with the sample count that supports it.
struct TailPercentile {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< Samples strictly beyond the percentile's rank.
};

/// The highest of p50, p90, p99, p99.9 that has at least `min_beyond`
/// samples beyond it; nullopt when even p50 lacks them.
std::optional<TailPercentile> HighestSupportedPercentile(
    std::vector<double> samples, std::size_t min_beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
