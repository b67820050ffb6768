#include "core/matching_bundler.h"

#include <utility>

#include "core/offer_set.h"
#include "core/resolve_hints.h"
#include "matching/max_weight_matching.h"
#include "matching/simple_matchers.h"
#include "util/check.h"
#include "util/timer.h"

namespace bundlemine {

BundleSolution MatchingBundler::Solve(const BundleConfigProblem& problem,
                                      SolveContext& context) const {
  BM_CHECK(problem.wtp != nullptr);
  const WtpMatrix& wtp = *problem.wtp;
  WallTimer timer;
  const int k = problem.EffectiveMaxSize();
  const char* method_name = problem.strategy == BundlingStrategy::kPure
                                ? "Pure Matching"
                                : "Mixed Matching";
  OfferSet st(problem, &context.workspace());

  // Incremental re-solve hints. Round-1 reuse is sound because singleton
  // offer index == item id and EvaluatePair is a pure function of the two
  // offers' WTP columns plus cell-fixed configuration (scale, pricer,
  // strategy): a prior outcome for a pair of untouched items is exact. User
  // additions/removals only add or drop zero-WTP entries for untouched
  // items, which never change the priced scalars.
  const ResolveHints* hints = context.resolve_hints();
  const bool reuse_enabled =
      hints != nullptr && hints->prior != nullptr &&
      hints->dirty_items != nullptr &&
      hints->dirty_items->size() == static_cast<std::size_t>(wtp.num_items());
  const MatchingPairCache* prior = reuse_enabled ? hints->prior : nullptr;
  const std::vector<char>* dirty = reuse_enabled ? hints->dirty_items : nullptr;
  MatchingPairCache* fill = hints != nullptr ? hints->fill : nullptr;

  int iteration = 0;
  std::vector<IterationStat> trace{
      {0, st.TotalRevenue(), timer.Seconds(), st.alive_count()}};
  // Offers at or past this index were formed in the previous round.
  std::size_t first_new = 0;

  // Candidates are evaluated in fixed-size blocks: generation appends into
  // `pairs` and FlushBlock fans the block out across the pool, keeping only
  // the positive-gain edges. Blocks are processed in generation order and
  // gathered in index order, so the edge list — and hence the whole solve —
  // stays bit-identical to a serial run while candidate memory stays bounded
  // at the block size instead of the full O(n²) candidate set.
  constexpr std::size_t kCandidateBlock = 8192;
  std::vector<std::pair<int, int>> pairs;
  std::vector<CandidateEdge> results;
  std::vector<char> has_gain;
  std::vector<char> reused;
  std::vector<CandidateEdge> edges;
  pairs.reserve(kCandidateBlock);

  auto flush_block = [&] {
    if (pairs.empty()) return;
    results.resize(pairs.size());
    has_gain.assign(pairs.size(), 0);
    reused.assign(pairs.size(), 0);
    std::int64_t reused_count = 0;
    if (iteration == 1 && reuse_enabled) {
      for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
        const int a = pairs[idx].first;
        const int b = pairs[idx].second;
        if ((*dirty)[static_cast<std::size_t>(a)] ||
            (*dirty)[static_cast<std::size_t>(b)]) {
          continue;
        }
        const MatchingPairCache::Outcome* out = prior->Find(a, b);
        if (out == nullptr) continue;
        reused[idx] = 1;
        ++reused_count;
        has_gain[idx] = out->has_gain ? 1 : 0;
        CandidateEdge& e = results[idx];
        e.a = a;
        e.b = b;
        e.gain = out->gain;
        e.price = out->price;
        e.revenue = out->revenue;
        e.buyers = out->buyers;
      }
    }
    auto evaluate = [&](std::size_t idx, int slot) {
      if (reused[idx]) return;
      has_gain[idx] = st.EvaluatePair(pairs[idx].first, pairs[idx].second,
                                      &results[idx], &context.workspace(slot))
                          ? 1
                          : 0;
    };
    if (context.pool() != nullptr) {
      context.pool()->ParallelFor(pairs.size(), evaluate);
    } else {
      for (std::size_t idx = 0; idx < pairs.size(); ++idx) evaluate(idx, 0);
    }
    context.stats().pairs_evaluated +=
        static_cast<std::int64_t>(pairs.size()) - reused_count;
    context.stats().pairs_reused += reused_count;
    if (iteration == 1 && fill != nullptr) {
      // Record every round-1 outcome (gain or not) for the next resolve;
      // keys are item-id pairs, valid across solves.
      for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
        MatchingPairCache::Outcome out;
        out.has_gain = has_gain[idx] != 0;
        if (out.has_gain) {
          out.gain = results[idx].gain;
          out.price = results[idx].price;
          out.revenue = results[idx].revenue;
          out.buyers = results[idx].buyers;
        }
        fill->Record(pairs[idx].first, pairs[idx].second, out);
      }
    }
    for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
      if (has_gain[idx]) edges.push_back(results[idx]);
    }
    pairs.clear();
  };
  auto add_candidate = [&](int a, int b) {
    pairs.emplace_back(a, b);
    if (pairs.size() >= kCandidateBlock) flush_block();
  };

  while (k >= 2) {
    if (context.DeadlineExceeded()) {
      context.stats().deadline_hit = true;
      break;
    }
    ++iteration;
    context.stats().rounds = iteration;

    // ---- Candidate pair generation with the paper's prunings. ----
    edges.clear();
    if (iteration == 1) {
      if (problem.prune_co_interest) {
        for (const auto& [i, j] : wtp.CoInterestedPairs()) add_candidate(i, j);
      } else {
        for (int i = 0; i < wtp.num_items(); ++i) {
          for (int j = i + 1; j < wtp.num_items(); ++j) add_candidate(i, j);
        }
      }
    } else {
      // Later rounds: only edges touching a newly-formed vertex (unless the
      // pruning is disabled), subject to the size cap and co-interest.
      std::vector<int> alive_ids;
      for (std::size_t idx = 0; idx < st.offers().size(); ++idx) {
        if (st.offers()[idx].alive) alive_ids.push_back(static_cast<int>(idx));
      }
      for (std::size_t x = 0; x < alive_ids.size(); ++x) {
        for (std::size_t y = x + 1; y < alive_ids.size(); ++y) {
          const Offer& a = st.offer(alive_ids[x]);
          const Offer& b = st.offer(alive_ids[y]);
          // alive_ids ascends, so the pair is stale iff its later id is.
          if (problem.prune_stale_edges &&
              static_cast<std::size_t>(alive_ids[y]) < first_new) {
            continue;
          }
          if (a.items.size() + b.items.size() > k) continue;
          // Popcount-driven support join on the per-offer bitsets: word-AND
          // with early exit instead of a sorted merge over sparse entries.
          if (problem.prune_co_interest && !a.support.Intersects(b.support)) {
            continue;
          }
          add_candidate(alive_ids[x], alive_ids[y]);
        }
      }
    }
    flush_block();
    first_new = st.offers().size();
    if (edges.empty()) break;

    // ---- Maximum-weight matching over positive-gain edges. ----
    // Compact vertex ids for offers incident to at least one edge.
    std::vector<int> vertex_of_offer(st.offers().size(), -1);
    std::vector<int> offer_of_vertex;
    for (const CandidateEdge& e : edges) {
      for (int o : {e.a, e.b}) {
        if (vertex_of_offer[static_cast<std::size_t>(o)] == -1) {
          vertex_of_offer[static_cast<std::size_t>(o)] =
              static_cast<int>(offer_of_vertex.size());
          offer_of_vertex.push_back(o);
        }
      }
    }
    int num_vertices = static_cast<int>(offer_of_vertex.size());

    std::vector<int> mate;
    bool use_exact = problem.exact_matching_limit > 0 &&
                     num_vertices <= problem.exact_matching_limit;
    if (use_exact) {
      MaxWeightMatcher matcher(num_vertices);
      for (const CandidateEdge& e : edges) {
        matcher.AddEdge(vertex_of_offer[static_cast<std::size_t>(e.a)],
                        vertex_of_offer[static_cast<std::size_t>(e.b)], e.gain);
      }
      mate = matcher.Solve().mate;
    } else {
      std::vector<WeightedEdge> wedges;
      wedges.reserve(edges.size());
      for (const CandidateEdge& e : edges) {
        wedges.push_back(
            WeightedEdge{vertex_of_offer[static_cast<std::size_t>(e.a)],
                         vertex_of_offer[static_cast<std::size_t>(e.b)], e.gain});
      }
      mate = GreedyMaxWeightMatching(num_vertices, wedges).mate;
    }

    // ---- Collapse selected edges. ----
    // Candidate pairs are unique, so each matched pair maps back to exactly
    // one evaluated edge.
    int merges = 0;
    for (const CandidateEdge& e : edges) {
      int va = vertex_of_offer[static_cast<std::size_t>(e.a)];
      int vb = vertex_of_offer[static_cast<std::size_t>(e.b)];
      if (mate[static_cast<std::size_t>(va)] == vb) {
        st.Merge(e);
        ++merges;
      }
    }
    if (merges == 0) break;
    context.stats().merges += merges;
    trace.push_back(IterationStat{iteration, st.TotalRevenue(),
                                  timer.Seconds(), st.alive_count()});
  }

  BundleSolution solution = st.BuildSolution(method_name, st.TotalRevenue());
  solution.trace = std::move(trace);
  if (solution.trace.empty() ||
      solution.trace.back().total_revenue != solution.total_revenue) {
    solution.trace.push_back(IterationStat{iteration, solution.total_revenue,
                                           timer.Seconds(), st.alive_count()});
  }
  solution.solve_seconds = timer.Seconds();
  return solution;
}

}  // namespace bundlemine
