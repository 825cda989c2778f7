#include "src/serving/observer.h"

namespace dz {

void Observer::RegisterServe(bool can_preempt) {
  for (int c = 0; c < kNumSloClasses; ++c) {
    const MetricLabels by_class = {{"class", SloClassName(static_cast<SloClass>(c))}};
    shed_[c] = metrics_.GetCounter(metric::kShed, by_class);
    completed_[c] = metrics_.GetCounter("engine.requests.completed", by_class);
    e2e_[c] = metrics_.GetHistogram("latency.e2e_s", by_class);
    ttft_[c] = metrics_.GetHistogram("latency.ttft_s", by_class);
  }
  queue_ = metrics_.GetHistogram("latency.queue_s");
  load_ = metrics_.GetHistogram("latency.load_s");
  tokens_output_ = metrics_.GetCounter("engine.tokens.output");
  tokens_prompt_ = metrics_.GetCounter("engine.tokens.prompt");
  if (can_preempt) {
    CountOf(TraceEventType::kKvPreempt) = metrics_.GetCounter("engine.preemptions");
  }
}

void Observer::RegisterStore(bool registry) {
  const int disk = static_cast<int>(TraceChannel::kDisk);
  const int pcie = static_cast<int>(TraceChannel::kPcie);
  const int net = static_cast<int>(TraceChannel::kNet);
  busy_s_[disk] = metrics_.GetCounter(metric::kChannelBusyS, {{"channel", "disk"}});
  busy_s_[pcie] = metrics_.GetCounter(metric::kChannelBusyS, {{"channel", "pcie"}});
  // Every transfer crosses PCIe once, so PCIe segments count all loads; a disk
  // segment before one makes it a disk load.
  segments_[disk] = metrics_.GetCounter(metric::kLoadsDisk);
  segments_[pcie] = metrics_.GetCounter(metric::kLoadsTotal);
  prefetch_issued_ = metrics_.GetCounter(metric::kPrefetchIssued);
  if (registry) {
    busy_s_[net] = metrics_.GetCounter(metric::kNetBusyS);
    segments_[net] = metrics_.GetCounter("registry.reads.remote");
    reads_local_ = metrics_.GetCounter("registry.reads.local");
    reads_degraded_ = metrics_.GetCounter("registry.reads.degraded");
    net_bytes_ = metrics_.GetCounter("registry.net.bytes");
  }
}

void Observer::RegisterCluster(bool registry) {
  CountOf(TraceEventType::kFaultCrash) = metrics_.GetCounter("cluster.crashes");
  CountOf(TraceEventType::kFaultRecover) = metrics_.GetCounter("cluster.recoveries");
  CountOf(TraceEventType::kScaleUp) = metrics_.GetCounter("cluster.scale_ups");
  CountOf(TraceEventType::kScaleDown) = metrics_.GetCounter("cluster.scale_downs");
  CountOf(TraceEventType::kRouterReroute) = metrics_.GetCounter("cluster.retried");
  if (registry) {
    CountOf(TraceEventType::kRepair) = metrics_.GetCounter("registry.repair.jobs");
  }
}

void Observer::On(const RequestRecord& r) {
  ++events_;
  const int cls = static_cast<int>(r.slo);
  completed_[cls]->Inc();
  e2e_[cls]->Record(r.E2eLatency());
  ttft_[cls]->Record(r.Ttft());
  queue_->Record(r.QueueingTime());
  load_->Record(r.LoadingTime());
  tokens_output_->Inc(static_cast<double>(r.output_tokens));
  tokens_prompt_->Inc(static_cast<double>(r.prompt_tokens));
  recorder_.Emit({TraceEventType::kRequestDone, r.finish_s, /*dur_s=*/0.0, r.id,
                  r.model_id, r.tenant_id, r.slo, /*gpu=*/-1, TraceChannel::kNone,
                  /*bytes=*/0.0, /*aux=*/0});
}

}  // namespace dz
