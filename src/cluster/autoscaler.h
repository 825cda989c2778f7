// Reactive cluster autoscaler: watches windowed load statistics (backlog per
// active worker, interactive TTFT p99) on the simulated clock and grows or
// shrinks the worker set between min_workers and max_workers. Scale-down is
// graceful: the victim stops receiving new requests, drains its in-flight
// work, and only then retires (drain-before-remove, property-tested). The
// decision rule itself is a pure function (Decide) so tests can drive it with
// arbitrary load envelopes; the elastic serving loop (src/cluster/elastic.cc)
// owns the clock, the stats, and the drain protocol.
#ifndef SRC_CLUSTER_AUTOSCALER_H_
#define SRC_CLUSTER_AUTOSCALER_H_

namespace dz {

struct AutoscalerConfig {
  // Off by default: no decision points, so Cluster::Serve stays
  // bit-identical to the pre-autoscaler cluster (golden-enforced).
  bool enabled = false;
  int min_workers = 1;
  int max_workers = 8;
  // Seconds between decisions, and the minimum quiet period after any action
  // (booting a worker / completing a drain is not free; the cooldown stops
  // decision flapping on a load edge).
  double decision_interval_s = 15.0;
  double cooldown_s = 30.0;
  // Scale up when the interactive TTFT p99 of the last window exceeds this...
  double target_ttft_p99_s = 5.0;
  // ...or when outstanding requests per active worker exceed this.
  double scale_up_backlog_per_worker = 8.0;
  // Scale down only when backlog per worker is below this AND p99 is under
  // half the target (comfortably healthy, not merely borderline).
  double scale_down_backlog_per_worker = 2.0;

  bool Enabled() const { return enabled; }
};

// One decision window's inputs, as the elastic loop measures them at time t.
struct AutoscalerStats {
  double t = 0.0;
  int active_workers = 1;
  // Outstanding (arrived, not finished) requests per active worker at t.
  double backlog_per_worker = 0.0;
  // p99 TTFT over interactive requests that finished in the last window
  // (0 when none finished — treated as healthy, backlog still speaks).
  double interactive_ttft_p99_s = 0.0;
};

enum class ScaleDecision { kHold, kUp, kDown };

class ClusterAutoscaler {
 public:
  explicit ClusterAutoscaler(const AutoscalerConfig& config)
      : config_(config) {}

  // The reactive rule. Pure in the stats; the only internal state is the
  // cooldown clock (last action time), advanced when a decision fires.
  ScaleDecision Decide(const AutoscalerStats& stats);

  // Time of the last non-hold decision (-inf before any).
  double last_action_t() const { return last_action_t_; }

 private:
  AutoscalerConfig config_;
  double last_action_t_ = -1e300;
};

}  // namespace dz

#endif  // SRC_CLUSTER_AUTOSCALER_H_
