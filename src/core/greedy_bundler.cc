#include "core/greedy_bundler.h"

#include <queue>
#include <utility>
#include <vector>

#include "core/offer_set.h"
#include "util/check.h"
#include "util/timer.h"

namespace bundlemine {
namespace {

// Heap order over candidate merges (by stable offer index): max-heap by
// gain, ties popping the smallest (a, b) first.
struct ByGain {
  bool operator()(const CandidateEdge& x, const CandidateEdge& y) const {
    if (x.gain != y.gain) return x.gain < y.gain;
    if (x.a != y.a) return x.a > y.a;
    return x.b > y.b;
  }
};

}  // namespace

BundleSolution GreedyBundler::Solve(const BundleConfigProblem& problem,
                                    SolveContext& context) const {
  BM_CHECK(problem.wtp != nullptr);
  const WtpMatrix& wtp = *problem.wtp;
  WallTimer timer;
  const int k = problem.EffectiveMaxSize();
  const char* method_name = problem.strategy == BundlingStrategy::kPure
                                ? "Pure Greedy"
                                : "Mixed Greedy";
  PricingWorkspace& ws = context.workspace();
  OfferSet st(problem, &ws);
  double total = st.TotalRevenue();
  std::vector<IterationStat> trace{
      {0, total, timer.Seconds(), st.alive_count()}};

  // Holds only positive-gain merges: EvaluatePair rejects the rest.
  std::priority_queue<CandidateEdge, std::vector<CandidateEdge>, ByGain> heap;
  CandidateEdge edge;
  auto consider = [&](int a, int b) {
    ++context.stats().pairs_evaluated;
    if (st.EvaluatePair(a, b, &edge, &ws)) heap.push(edge);
  };

  // Seed the heap with co-interested item pairs (or all pairs when the
  // pruning is disabled).
  if (k >= 2) {
    if (problem.prune_co_interest) {
      for (const auto& [i, j] : wtp.CoInterestedPairs()) consider(i, j);
    } else {
      for (int i = 0; i < wtp.num_items(); ++i) {
        for (int j = i + 1; j < wtp.num_items(); ++j) consider(i, j);
      }
    }
  }

  int iteration = 0;
  while (!heap.empty()) {
    if (context.DeadlineExceeded()) {
      context.stats().deadline_hit = true;
      break;
    }
    const CandidateEdge top = heap.top();
    heap.pop();
    if (!st.offer(top.a).alive || !st.offer(top.b).alive) {
      continue;  // Lazy deletion: a participant was absorbed meanwhile.
    }

    ++iteration;
    context.stats().rounds = iteration;
    ++context.stats().merges;
    const int new_id = st.Merge(top);
    total += top.gain;

    // Evaluate the new bundle against all surviving offers.
    for (int other = 0; other < new_id; ++other) {
      const Offer& o = st.offer(other);
      if (!o.alive) continue;
      if (problem.prune_co_interest &&
          !st.offer(new_id).support.Intersects(o.support)) {
        continue;
      }
      consider(other, new_id);
    }
    trace.push_back(
        IterationStat{iteration, total, timer.Seconds(), st.alive_count()});
  }

  BundleSolution solution = st.BuildSolution(method_name, total);
  solution.trace = std::move(trace);
  solution.solve_seconds = timer.Seconds();
  return solution;
}

}  // namespace bundlemine
