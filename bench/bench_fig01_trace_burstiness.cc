// Regenerates the view of paper Fig. 1 (motivation): invocation counts per time window
// for many model variants under the azure-like bursty trace generator. Expected shape:
// a few dense, persistently popular variants and a long tail of sporadic ones, with
// idle (zero-count) windows even for popular variants. Exits 1 unless the head is
// heavy (the busiest variant has >= 10x the median variant's requests) and the
// tail sporadic (the median variant is idle in >= 1/3 of its windows).
#include "bench/bench_common.h"

namespace dz {
namespace {

// Trend bounds, checked on seed 101 and seven other seeds (head ratio 28-84x,
// median variant idle in 9-15 of 20 windows).
constexpr double kMinHeadOverMedian = 10.0;
constexpr double kMinMedianIdleFrac = 1.0 / 3.0;

bool Run() {
  const uint64_t seed = 101;
  Banner("Figure 1 — invocation burstiness per variant", "Fig. 1", seed);

  TraceConfig tc;
  tc.n_models = 20;
  tc.arrival_rate = 4.0;
  tc.duration_s = 600.0;
  tc.dist = PopularityDist::kAzure;
  tc.seed = seed;
  const Trace trace = GenerateTrace(tc);
  const auto matrix = InvocationMatrix(trace, 30.0);

  std::printf("requests per 30 s window (columns = time; '.'=0, digits clipped at 9):\n\n");
  // Order models by total volume so the heavy head prints first.
  std::vector<std::pair<int, int>> order;  // (total, model)
  for (int m = 0; m < trace.n_models; ++m) {
    int total = 0;
    for (int c : matrix[static_cast<size_t>(m)]) {
      total += c;
    }
    order.emplace_back(total, m);
  }
  std::sort(order.rbegin(), order.rend());
  std::vector<int> idle_of(static_cast<size_t>(trace.n_models), 0);
  for (const auto& [total, m] : order) {
    std::printf("model-%02d |", m);
    int idle = 0;
    for (int c : matrix[static_cast<size_t>(m)]) {
      if (c == 0) {
        std::printf(".");
        ++idle;
      } else {
        std::printf("%d", std::min(c, 9));
      }
    }
    std::printf("| total=%4d idle-windows=%d\n", total, idle);
    idle_of[static_cast<size_t>(m)] = idle;
  }
  std::printf("\nExpected shape (paper Fig. 1): mixed dense and sporadic variants; the\n"
              "yellow idle stretches are the wasted capacity motivating DeltaZip.\n");

  // The median variant is the middle row of the table.
  const auto& [head_total, head_model] = order.front();
  const auto& [median_total, median_model] = order[order.size() / 2];
  const int windows = static_cast<int>(matrix.front().size());
  const int median_idle = idle_of[static_cast<size_t>(median_model)];
  bool ok = true;
  if (head_total < kMinHeadOverMedian * median_total) {
    std::fprintf(stderr,
                 "FAIL: heavy head: model-%02d has %d requests, under %.0fx the "
                 "median variant's %d\n",
                 head_model, head_total, kMinHeadOverMedian, median_total);
    ok = false;
  }
  if (median_idle < kMinMedianIdleFrac * windows) {
    std::fprintf(stderr,
                 "FAIL: sporadic tail: median variant model-%02d is idle in %d of "
                 "%d windows, under 1/3\n",
                 median_model, median_idle, windows);
    ok = false;
  }
  return ok;
}

}  // namespace
}  // namespace dz

int main() { return dz::Run() ? 0 : 1; }
