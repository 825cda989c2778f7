// Offline profiling (paper §5.4): picks N, the number of co-resident deltas, by
// replaying a short trace prefix for each candidate and choosing the lowest mean
// time-per-token.
#ifndef SRC_SERVING_PROFILER_H_
#define SRC_SERVING_PROFILER_H_

#include <vector>

#include "src/serving/engine.h"

namespace dz {

// Outcome of the N-profiling sweep (paper §5.4 / Fig. 10).
struct NProfileResult {
  int best_n = 0;  // candidate N with the lowest mean time per token
  // (candidate N, mean time per token in simulated seconds) in candidate order.
  std::vector<std::pair<int, double>> samples;
};

// Runs the first `profile_seconds` (simulated seconds) of `trace` under each
// candidate N and returns the winner. The short-trace profile transfers to the
// full workload (paper Fig. 10).
NProfileResult ProfileConcurrentDeltas(const EngineConfig& config, const Trace& trace,
                                       const std::vector<int>& candidates,
                                       double profile_seconds);

}  // namespace dz

#endif  // SRC_SERVING_PROFILER_H_
