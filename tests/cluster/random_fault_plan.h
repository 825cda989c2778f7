// Test-local fault schedules: a seeded random FaultPlan for the chaos suites
// (fault_injection_test, registry_cluster_test, random_elastic_digest_test)
// and the spec printer's round trip (parse_test).
#ifndef TESTS_CLUSTER_RANDOM_FAULT_PLAN_H_
#define TESTS_CLUSTER_RANDOM_FAULT_PLAN_H_

#include <algorithm>
#include <cstdint>

#include "src/cluster/fault_model.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace dz {

// A seeded random schedule of `n_events` faults over [0, duration_s) against
// workers [0, n_workers): a mix of crash (with a later recover for some),
// slow, and partition windows, sorted by time. Deterministic per seed.
inline FaultPlan RandomFaultPlan(uint64_t seed, int n_workers, double duration_s,
                                 int n_events) {
  DZ_CHECK_GT(n_workers, 0);
  DZ_CHECK_GT(duration_s, 0.0);
  Rng rng(seed);
  FaultPlan plan;
  for (int i = 0; i < n_events; ++i) {
    FaultEvent ev;
    ev.worker = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(n_workers)));
    // Leave the tail of the run fault-free so late faults cannot strand work
    // past the last arrival forever (recoveries land within the duration too).
    ev.t_s = rng.Uniform(0.05, 0.7) * duration_s;
    const double kind = rng.NextDouble();
    if (kind < 0.4) {
      ev.type = FaultType::kCrash;
      plan.events.push_back(ev);
      if (rng.NextDouble() < 0.5) {
        FaultEvent rec = ev;
        rec.type = FaultType::kRecover;
        rec.t_s = ev.t_s + rng.Uniform(0.05, 0.2) * duration_s;
        plan.events.push_back(rec);
      }
    } else if (kind < 0.7) {
      ev.type = FaultType::kSlowStart;
      ev.multiplier = rng.Uniform(0.25, 0.75);
      plan.events.push_back(ev);
      FaultEvent end = ev;
      end.type = FaultType::kSlowEnd;
      end.multiplier = 1.0;
      end.t_s = ev.t_s + rng.Uniform(0.05, 0.25) * duration_s;
      plan.events.push_back(end);
    } else {
      ev.type = FaultType::kPartitionStart;
      plan.events.push_back(ev);
      FaultEvent end = ev;
      end.type = FaultType::kPartitionEnd;
      end.t_s = ev.t_s + rng.Uniform(0.02, 0.15) * duration_s;
      plan.events.push_back(end);
    }
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.t_s < b.t_s;
                   });
  return plan;
}

}  // namespace dz

#endif  // TESTS_CLUSTER_RANDOM_FAULT_PLAN_H_
