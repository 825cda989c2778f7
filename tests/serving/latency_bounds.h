// Test-local per-request lower bounds on TTFT and E2E from the cost model
// alone. For a request of P prompt and O output tokens on a worker whose
// engine and ExecModel are given:
//   TTFT >= PrefillTime(P) + variant prefill, where the variant prefill is
//           ArtifactPrefillTime(P) on DeltaZip (delta or LoRA) and 0 on vLLM-SCB;
//   E2E  >= that bound + sum over j = 1 .. O-1 of DecodeIterTime(1, P + j).
// The formula is spelled out here from ExecModel's public calls; it shares no
// code with the serve loop's own optimistic estimate (ServeLoop::MinServiceS).
//
// Why the bounds hold:
//   * A request's first token ends the round that prefills its whole prompt
//     (prompts are never split), and that round starts at or after its
//     arrival. The round prices PrefillTime and the variant prefill of all
//     the prompt tokens it prefills (on vLLM-SCB, of each model's share), and
//     both prices only grow with the tokens, so the round costs at least the
//     bound's prefill terms.
//   * Each later token costs one more round. In the round that emits token
//     j + 1 the request holds P + j context tokens, and its batch prices
//     DecodeIterTime(b, C / b) for b >= 1 requests holding C >= P + j tokens,
//     which only grows with b and C, so it is at least
//     DecodeIterTime(1, P + j). Overheads, swaps and variant decode terms
//     only add to it.
//   * Rounds on one worker never overlap: the clock moves by each round's
//     price. A preempted request keeps its decoded tokens, and a request
//     re-routed after a crash starts over on its new worker, so neither
//     skips a round the bound counts.
//   * A slow-node window divides each round's price by a factor of at most 1
//     (FaultEvent::multiplier is in (0, 1]), which only lengthens it. A test
//     that sets a faster speed directly (ServeLoop::SetSpeed above 1) passes
//     the largest one as `max_speed`, and the bounds shrink by it.
// The slack is 1e-9 relative, for the rounding of the simulated clock.
#ifndef TESTS_SERVING_LATENCY_BOUNDS_H_
#define TESTS_SERVING_LATENCY_BOUNDS_H_

#include <string>

#include <gtest/gtest.h>

#include "src/serving/engine.h"
#include "src/serving/report.h"
#include "src/simgpu/exec_model.h"

namespace dz {

// Adds one failure, naming `run`, for the first record of `report` that
// finishes its first token or its last one sooner than the bounds allow, on a
// worker of `config` (the vLLM-SCB engine when `vllm_baseline`).
inline void ExpectLatencyLowerBounds(const ServeReport& report, const EngineConfig& config,
                                     bool vllm_baseline, const std::string& run,
                                     double max_speed = 1.0) {
  const ExecModel exec(config.exec);
  for (const RequestRecord& r : report.records) {
    const long long prompt = r.prompt_tokens;
    double ttft_bound = exec.PrefillTime(prompt);
    if (!vllm_baseline) {
      ttft_bound += exec.ArtifactPrefillTime(prompt);
    }
    double e2e_bound = ttft_bound;
    for (int j = 1; j < r.output_tokens; ++j) {
      e2e_bound += exec.DecodeIterTime(1, static_cast<double>(prompt + j));
    }
    const double ttft = r.first_token_s - r.arrival_s;
    const double e2e = r.finish_s - r.arrival_s;
    const double slack = 1.0 - 1e-9;
    if (!(ttft >= ttft_bound / max_speed * slack)) {  // a NaN fails too
      ADD_FAILURE() << run << ": request " << r.id << " has TTFT " << ttft
                    << " below the cost-model bound " << ttft_bound / max_speed;
      return;
    }
    if (!(e2e >= e2e_bound / max_speed * slack)) {
      ADD_FAILURE() << run << ": request " << r.id << " has E2E " << e2e
                    << " below the cost-model bound " << e2e_bound / max_speed;
      return;
    }
  }
}

}  // namespace dz

#endif  // TESTS_SERVING_LATENCY_BOUNDS_H_
