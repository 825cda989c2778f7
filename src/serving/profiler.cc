#include "src/serving/profiler.h"

#include <algorithm>
#include <limits>

#include "src/util/check.h"

namespace dz {

NProfileResult ProfileConcurrentDeltas(const EngineConfig& config, const Trace& trace,
                                       const std::vector<int>& candidates,
                                       double profile_seconds) {
  DZ_CHECK(!candidates.empty());
  DZ_CHECK_GT(profile_seconds, 0.0);

  Trace prefix;
  prefix.n_models = trace.n_models;
  prefix.duration_s = std::min(trace.duration_s, profile_seconds);
  for (const auto& r : trace.requests) {
    if (r.arrival_s < profile_seconds) {
      prefix.requests.push_back(r);
    }
  }
  DZ_CHECK(!prefix.requests.empty());

  NProfileResult result;
  double best = std::numeric_limits<double>::infinity();
  for (int n : candidates) {
    EngineConfig cfg = config;
    cfg.max_concurrent_deltas = n;
    const ServeReport report = MakeDeltaZipEngine(cfg)->Serve(prefix);
    const double tpt = report.MeanTimePerToken();
    result.samples.emplace_back(n, tpt);
    if (tpt < best) {
      best = tpt;
      result.best_n = n;
    }
  }
  return result;
}

}  // namespace dz
