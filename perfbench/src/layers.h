// The layer ladder of the traced run: direct calls into each layer's public
// functions on a workload's own problems, each wrapped in a span.
//
// The Engine calls these functions internally, where the benchmark cannot
// put spans without instrumenting the library; the ladder makes the same
// calls from outside on the same datasets and θ values the workload sends,
// so every layer gets a busy time per call and an exact work count.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace perfbench {

/// The six bundling methods the ladder solves with (core.solve_ms.<method>).
inline constexpr const char* kLadderMethods[] = {
    "components",  "pure-matching", "mixed-matching",
    "pure-greedy", "mixed-greedy",  "pure-freq"};

/// Work done on the ladder's first problem — exact, run to run.
struct LadderCounts {
  std::int64_t merge_gain_calls = 0;  ///< Co-interested pairs priced.
  std::int64_t matching_edges = 0;    ///< Positive-gain round-1 edges.
  std::int64_t itemsets = 0;          ///< Maximal frequent itemsets mined.
  std::int64_t pairs_evaluated = 0;   ///< Summed over the six methods.
  std::int64_t rounds = 0;            ///< Summed over the six methods.
};

/// Per-call work of every rung, summed over the problems the ladder ran;
/// divides the loop spans (pricing) into per-call times.
struct LadderCalls {
  std::int64_t price_offer = 0;
  std::int64_t merge_gain = 0;
};

struct LadderResult {
  LadderCounts first;
  LadderCalls calls;
  int problems_run = 0;
};

/// Runs the ladder over `workload`'s problems in order, cycling, until
/// `seconds` have passed — always at least one problem. Spans go to `log`.
LadderResult RunLadder(Workload workload, double seconds, SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
