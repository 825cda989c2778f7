// Property suite for the cluster autoscaler: the pure decision rule under
// random load envelopes (bounds + cooldown), and the end-to-end elastic loop's
// drain-before-remove protocol enforced through the scale.* trace-event order.
#include "src/cluster/autoscaler.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/router.h"
#include "src/util/rng.h"

namespace dz {
namespace {

TEST(AutoscalerDecideTest, RandomEnvelopesNeverBreachBoundsOrCooldown) {
  for (uint64_t seed : {3ULL, 11ULL, 42ULL}) {
    Rng rng(seed);
    AutoscalerConfig cfg;
    cfg.enabled = true;
    cfg.min_workers = 2;
    cfg.max_workers = 6;
    cfg.decision_interval_s = 5.0;
    cfg.cooldown_s = 20.0;
    cfg.target_ttft_p99_s = 2.0;
    cfg.scale_up_backlog_per_worker = 4.0;
    cfg.scale_down_backlog_per_worker = 1.0;
    ClusterAutoscaler scaler(cfg);

    double last_action = -1e300;
    int active = 4;
    for (int step = 0; step < 2000; ++step) {
      AutoscalerStats stats;
      stats.t = step * cfg.decision_interval_s;
      stats.active_workers = active;
      // Random envelope: calm, loaded, and absurd regions all visited.
      stats.backlog_per_worker = rng.Uniform(0.0, 20.0);
      stats.interactive_ttft_p99_s = rng.Uniform(0.0, 10.0);
      const ScaleDecision d = scaler.Decide(stats);
      if (d == ScaleDecision::kHold) {
        continue;
      }
      // Bounds: never grow past max, never shrink past min.
      if (d == ScaleDecision::kUp) {
        EXPECT_LT(active, cfg.max_workers) << "step " << step;
        ++active;
      } else {
        EXPECT_GT(active, cfg.min_workers) << "step " << step;
        --active;
      }
      // Cooldown: actions are at least cooldown_s apart.
      EXPECT_GE(stats.t - last_action, cfg.cooldown_s) << "step " << step;
      last_action = stats.t;
      EXPECT_DOUBLE_EQ(scaler.last_action_t(), stats.t);
    }
    EXPECT_GT(last_action, 0.0);  // the envelope actually triggered actions
  }
}

TEST(AutoscalerDecideTest, DisabledHoldsForever) {
  AutoscalerConfig cfg;  // enabled = false
  ClusterAutoscaler scaler(cfg);
  AutoscalerStats stats;
  stats.t = 100.0;
  stats.active_workers = 1;
  stats.backlog_per_worker = 1e9;
  stats.interactive_ttft_p99_s = 1e9;
  EXPECT_EQ(scaler.Decide(stats), ScaleDecision::kHold);
}

TEST(AutoscalerDecideTest, ScaleDownRequiresComfortablyHealthyWindow) {
  AutoscalerConfig cfg;
  cfg.enabled = true;
  cfg.min_workers = 1;
  cfg.max_workers = 8;
  cfg.target_ttft_p99_s = 4.0;
  cfg.scale_down_backlog_per_worker = 2.0;
  ClusterAutoscaler scaler(cfg);
  AutoscalerStats stats;
  stats.t = 1000.0;
  stats.active_workers = 4;
  stats.backlog_per_worker = 1.0;
  stats.interactive_ttft_p99_s = 3.0;  // under target, but not under half
  EXPECT_EQ(scaler.Decide(stats), ScaleDecision::kHold);
  stats.interactive_ttft_p99_s = 1.0;  // comfortably healthy
  EXPECT_EQ(scaler.Decide(stats), ScaleDecision::kDown);
}

// --- end-to-end elastic-loop properties -----------------------------------

EngineConfig WorkerConfig() {
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  cfg.max_batch = 32;
  cfg.max_concurrent_deltas = 8;
  return cfg;
}

// Overload a small cluster so the scaler must grow, then let the tail drain so
// it must shrink back to min.
TraceConfig BurstTraceConfig() {
  TraceConfig cfg;
  cfg.n_models = 16;
  cfg.arrival_rate = 8.0;
  cfg.duration_s = 60.0;
  cfg.dist = PopularityDist::kZipf;
  cfg.output_mean_tokens = 60.0;
  cfg.output_max_tokens = 200;
  cfg.seed = 515;
  cfg.tenants.n_tenants = 2;
  cfg.tenants.interactive_frac = 0.3;
  return cfg;
}

AutoscalerConfig ActiveScalerConfig() {
  AutoscalerConfig cfg;
  cfg.enabled = true;
  cfg.min_workers = 2;
  cfg.max_workers = 5;
  cfg.decision_interval_s = 5.0;
  cfg.cooldown_s = 10.0;
  cfg.target_ttft_p99_s = 2.0;
  cfg.scale_up_backlog_per_worker = 2.0;
  cfg.scale_down_backlog_per_worker = 1.0;
  return cfg;
}

TEST(ElasticAutoscaleTest, BurstCycleScalesUpThenDrainsBackLosingNothing) {
  const Trace trace = GenerateTrace(BurstTraceConfig());

  ClusterConfig cfg;
  cfg.placer.n_gpus = 2;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = WorkerConfig();
  cfg.engine.tracing.enabled = true;
  cfg.autoscale = ActiveScalerConfig();

  const ClusterReport report = Cluster(cfg).Serve(trace);

  // Conservation: elasticity never loses a request (no crashes here).
  EXPECT_TRUE(report.elastic.active);
  EXPECT_EQ(report.elastic.failed, 0);
  EXPECT_EQ(report.elastic.completed + report.elastic.shed,
            static_cast<long long>(trace.requests.size()));

  // The cycle actually cycled: grew under the burst, shrank back to min after
  // the drain (trailing decisions chain down to min_workers).
  EXPECT_GT(report.elastic.scale_ups, 0);
  EXPECT_GT(report.elastic.scale_downs, 0);
  EXPECT_LE(report.elastic.peak_workers, cfg.autoscale.max_workers);
  EXPECT_GT(report.elastic.peak_workers, 2);
  EXPECT_EQ(report.elastic.final_workers, cfg.autoscale.min_workers);

  // Every membership change stays inside [min, max]: the aux of each scale
  // event is the active count right after the action.
  for (const TraceEvent& ev : report.router_events) {
    if (ev.type == TraceEventType::kScaleUp) {
      EXPECT_LE(ev.aux, cfg.autoscale.max_workers);
      EXPECT_GT(ev.aux, cfg.autoscale.min_workers);
    } else if (ev.type == TraceEventType::kScaleDown) {
      EXPECT_GE(ev.aux, cfg.autoscale.min_workers);
      EXPECT_LT(ev.aux, cfg.autoscale.max_workers);
    }
  }
}

TEST(ElasticAutoscaleTest, DrainBeforeRemoveEventOrderHolds) {
  const Trace trace = GenerateTrace(BurstTraceConfig());

  ClusterConfig cfg;
  cfg.placer.n_gpus = 2;
  cfg.placer.policy = PlacementPolicy::kLeastOutstanding;
  cfg.engine = WorkerConfig();
  cfg.engine.tracing.enabled = true;
  cfg.autoscale = ActiveScalerConfig();

  const ClusterReport report = Cluster(cfg).Serve(trace);
  ASSERT_GT(report.elastic.scale_downs, 0);

  // Per worker, the drain protocol's event order must hold for every
  // scale-down episode:
  //   scale.down == drain.start <= drain.done == remove
  // and nothing may run on the worker between drain-done and a later scale-up.
  std::map<int, std::vector<TraceEvent>> by_worker;
  for (const TraceEvent& ev : report.router_events) {
    switch (ev.type) {
      case TraceEventType::kScaleUp:
      case TraceEventType::kScaleDown:
      case TraceEventType::kScaleDrainStart:
      case TraceEventType::kScaleDrainDone:
      case TraceEventType::kScaleRemove:
        by_worker[ev.gpu].push_back(ev);
        break;
      default:
        break;
    }
  }
  int episodes = 0;
  for (const auto& entry : by_worker) {
    const std::vector<TraceEvent>& evs = entry.second;
    for (size_t i = 0; i < evs.size(); ++i) {
      if (evs[i].type != TraceEventType::kScaleDown) {
        continue;
      }
      // The three protocol events follow, in order, before any other scale
      // event of this worker.
      ASSERT_LT(i + 3, evs.size() + 1) << "worker " << entry.first
                                       << ": truncated drain episode";
      ASSERT_EQ(evs[i + 1].type, TraceEventType::kScaleDrainStart);
      EXPECT_DOUBLE_EQ(evs[i + 1].ts_s, evs[i].ts_s);
      ASSERT_EQ(evs[i + 2].type, TraceEventType::kScaleDrainDone);
      EXPECT_GE(evs[i + 2].ts_s, evs[i + 1].ts_s);
      ASSERT_EQ(evs[i + 3].type, TraceEventType::kScaleRemove);
      EXPECT_GE(evs[i + 3].ts_s, evs[i + 2].ts_s);
      // Removal happened only after the worker's in-flight work completed: no
      // record on this worker finishes after drain-done unless a later
      // scale-up reactivated it.
      double reactivated_at = -1.0;
      for (size_t j = i + 4; j < evs.size(); ++j) {
        if (evs[j].type == TraceEventType::kScaleUp) {
          reactivated_at = evs[j].ts_s;
          break;
        }
      }
      const double done_t = evs[i + 2].ts_s;
      for (const RequestRecord& rec :
           report.per_gpu[static_cast<size_t>(entry.first)].records) {
        if (reactivated_at >= 0.0 && rec.finish_s > reactivated_at) {
          continue;  // served after legitimate reactivation
        }
        EXPECT_LE(rec.finish_s, done_t + 1e-9)
            << "worker " << entry.first
            << " finished a request after its drain completed";
      }
      ++episodes;
      i += 3;
    }
  }
  EXPECT_EQ(episodes, report.elastic.scale_downs);
}

TEST(ElasticAutoscaleTest, HoldOnlyRunMatchesStaticClusterBitIdentically) {
  TraceConfig tcfg = BurstTraceConfig();
  tcfg.arrival_rate = 2.0;
  const Trace trace = GenerateTrace(tcfg);

  ClusterConfig static_cfg;
  static_cfg.placer.n_gpus = 3;
  static_cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  static_cfg.engine = WorkerConfig();
  const ClusterReport baseline = Cluster(static_cfg).Serve(trace);

  // Autoscale enabled but parameterized to never act: the elastic loop runs
  // one epoch over the same placer and engines, so the records must match the
  // static path exactly.
  ClusterConfig elastic_cfg = static_cfg;
  elastic_cfg.autoscale.enabled = true;
  elastic_cfg.autoscale.min_workers = 3;
  elastic_cfg.autoscale.max_workers = 3;
  elastic_cfg.autoscale.scale_up_backlog_per_worker = 1e18;
  elastic_cfg.autoscale.target_ttft_p99_s = 1e18;
  elastic_cfg.autoscale.scale_down_backlog_per_worker = -1.0;
  const ClusterReport elastic = Cluster(elastic_cfg).Serve(trace);

  EXPECT_TRUE(elastic.elastic.active);
  EXPECT_EQ(elastic.elastic.scale_ups, 0);
  EXPECT_EQ(elastic.elastic.scale_downs, 0);
  ASSERT_EQ(elastic.merged.records.size(), baseline.merged.records.size());
  for (size_t i = 0; i < baseline.merged.records.size(); ++i) {
    const RequestRecord& a = baseline.merged.records[i];
    const RequestRecord& b = elastic.merged.records[i];
    EXPECT_EQ(a.id, b.id) << i;
    EXPECT_DOUBLE_EQ(a.arrival_s, b.arrival_s) << i;
    EXPECT_DOUBLE_EQ(a.start_s, b.start_s) << i;
    EXPECT_DOUBLE_EQ(a.first_token_s, b.first_token_s) << i;
    EXPECT_DOUBLE_EQ(a.finish_s, b.finish_s) << i;
  }
  EXPECT_DOUBLE_EQ(elastic.makespan_s(), baseline.makespan_s());
  EXPECT_EQ(elastic.merged.TotalLoads(), baseline.merged.TotalLoads());
}

}  // namespace
}  // namespace dz
