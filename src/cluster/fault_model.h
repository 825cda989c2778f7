// Typed fault injection for the cluster layer: a FaultPlan schedules worker
// crashes, recoveries, degraded-throughput (slow-node) windows, and transient
// disk/PCIe partitions on the simulated clock. The elastic serving loop
// (src/cluster/elastic.cc) consumes the plan as step boundaries: a crash
// kills a worker mid-run (its in-flight requests are lost and re-routed after
// the router's detection delay), a slow window stretches every iteration by
// the multiplier, and a partition blacks out the worker's transfer channels
// without killing it. An empty plan (the default) adds no boundary, so
// Cluster::Serve stays bit-identical to the pre-fault cluster
// (golden-enforced).
#ifndef SRC_CLUSTER_FAULT_MODEL_H_
#define SRC_CLUSTER_FAULT_MODEL_H_

#include <string>
#include <vector>

namespace dz {

enum class FaultType {
  kCrash,           // worker dies at t_s; serving stops, backlog strands
  kRecover,         // crashed worker rejoins at t_s (fresh engine, cold store)
  kSlowStart,       // iteration times divided by `multiplier` from t_s...
  kSlowEnd,         // ...until the matching end event
  kPartitionStart,  // disk+PCIe channel blackout on the worker from t_s...
  kPartitionEnd,    // ...until the matching end event
};

struct FaultEvent {
  double t_s = 0.0;
  FaultType type = FaultType::kCrash;
  int worker = 0;           // global worker id the fault targets
  double multiplier = 1.0;  // kSlowStart only: throughput factor in (0, 1]
};

// A schedule of fault events plus the router's failure-handling knobs.
struct FaultPlan {
  std::vector<FaultEvent> events;  // sorted by t_s (ParseFaultPlan sorts)
  // Seconds between a crash and the router noticing (health-check period): the
  // dead worker keeps receiving arrivals until detection, and those requests
  // join the re-routed backlog.
  double detection_delay_s = 0.5;
  // When true (default) a detected-dead worker's backlog is re-enqueued across
  // the survivors and the placement ring is rebuilt without it. When false the
  // dead worker keeps its ring arcs and its backlog waits for a recover event;
  // requests stranded on a never-recovered worker count as failed.
  bool reroute = true;

  bool Enabled() const { return !events.empty(); }
};

// Parses a comma-separated fault spec (the `dzip_cli cluster --faults` value):
//   crash@T:wK        — worker K dies at T seconds
//   recover@T:wK      — worker K rejoins at T
//   slow@T1-T2:wKxM   — worker K runs at throughput factor M in [T1, T2)
//   part@T1-T2:wK     — worker K's disk+PCIe channels black out in [T1, T2)
//   detect=X          — set detection_delay_s
//   reroute=0|1       — set reroute
// Window specs expand to the matching start/end event pair. Events are sorted
// by time. Returns false (leaving `out` untouched) on malformed specs.
bool ParseFaultPlan(const std::string& spec, FaultPlan& out);

// Serializes a plan back to the spec grammar above, pairing each slow/part
// start event with its matching end into the window form. The round trip
// ParseFaultPlan(FaultPlanToSpec(plan)) reproduces `plan` exactly for any plan
// ParseFaultPlan or the chaos tests' random schedules can produce
// (test-enforced, up to 1e-9 timestamp formatting). Elastic runs stamp this into their report so the
// active schedule survives into logs and flight-recorder dumps.
std::string FaultPlanToSpec(const FaultPlan& plan);

}  // namespace dz

#endif  // SRC_CLUSTER_FAULT_MODEL_H_
