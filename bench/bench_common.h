// Shared helpers for the paper-reproduction bench binaries. Every bench prints a
// banner with its experiment id and fixed seed, regenerates one table or figure of the
// paper, and emits aligned ASCII tables (plus CSV-ready rows) on stdout.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/deltazip.h"
#include "src/tensor/backend.h"
#include "src/train/finetune.h"
#include "src/util/json.h"
#include "src/util/parse.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace dz {

inline void Banner(const std::string& experiment, const std::string& paper_ref,
                   uint64_t seed) {
  std::printf("==========================================================\n");
  std::printf("DeltaZip repro | %s  (paper %s)\n", experiment.c_str(), paper_ref.c_str());
  std::printf("seed=%llu\n", static_cast<unsigned long long>(seed));
  std::printf("==========================================================\n");
}

// A multi-task fine-tuning "instruction mix", used when a single variant must be
// evaluated on several downstream tasks (paper Table 1 setup).
class TaskMix : public Task {
 public:
  // Optional per-task sampling weights (uniform when empty). Harder tasks typically get
  // more weight, like oversampling hard splits in a real instruction mix.
  explicit TaskMix(std::vector<const Task*> tasks, std::vector<double> weights = {})
      : tasks_(std::move(tasks)), weights_(std::move(weights)) {}

  Example Sample(Rng& rng) const override {
    if (!weights_.empty()) {
      return tasks_[static_cast<size_t>(rng.Categorical(weights_))]->Sample(rng);
    }
    return tasks_[rng.NextBelow(tasks_.size())]->Sample(rng);
  }
  std::vector<int> label_tokens() const override {
    std::vector<int> all;
    for (const Task* t : tasks_) {
      for (int l : t->label_tokens()) {
        all.push_back(l);
      }
    }
    return all;
  }
  std::string name() const override { return "task-mix"; }

 private:
  std::vector<const Task*> tasks_;
  std::vector<double> weights_;
};

// One trained model family: pretrained base + one FMT variant fine-tuned on a task mix.
struct TrainedFamily {
  std::string name;
  ModelConfig config;
  std::unique_ptr<Transformer> base;
  std::unique_ptr<Transformer> finetuned;
  std::vector<std::unique_ptr<Task>> tasks;
  std::vector<std::vector<int>> calibration;
};

inline TrainedFamily BuildFamily(const std::string& name, const ModelConfig& config,
                                 const std::vector<TaskKind>& task_kinds,
                                 int pretrain_steps, int finetune_steps, uint64_t seed,
                                 int calib_samples = 12, bool freeze_embeddings = false,
                                 std::vector<double> task_weights = {}) {
  TrainedFamily family;
  family.name = name;
  family.config = config;
  Rng rng(seed);
  family.base = std::make_unique<Transformer>(ModelWeights::RandomInit(config, rng));
  PretrainConfig pre;
  pre.steps = pretrain_steps;
  pre.batch = 8;
  pre.seq_len = 20;
  Pretrain(*family.base, pre, rng);

  for (TaskKind kind : task_kinds) {
    family.tasks.push_back(MakeTask(kind, config, seed ^ (0x1000u + static_cast<uint64_t>(kind))));
  }
  std::vector<const Task*> raw;
  for (const auto& t : family.tasks) {
    raw.push_back(t.get());
  }
  const TaskMix mix(raw, std::move(task_weights));

  family.finetuned = std::make_unique<Transformer>(family.base->weights());
  FineTuneConfig ft;
  ft.steps = finetune_steps;
  ft.batch = 8;
  ft.lr = 2e-3f;
  ft.freeze_embeddings = freeze_embeddings;
  Rng ft_rng = rng.Fork();
  FineTuneFmt(*family.finetuned, mix, ft, ft_rng);

  Rng calib_rng = rng.Fork();
  for (int i = 0; i < calib_samples; ++i) {
    family.calibration.push_back(mix.Sample(calib_rng).tokens);
  }
  return family;
}

// "gemma-2-sim": same vocabulary but a narrower trunk, so the (uncompressed) embedding
// deltas form a larger share of the artifact — reproducing the paper's observation that
// Gemma-2 compression ratios are lower (§6.2).
inline ModelConfig GemmaSimConfig() {
  ModelConfig c;
  c.vocab_size = 128;
  c.d_model = 48;
  c.n_layers = 2;
  c.n_heads = 4;
  c.d_ff = 128;
  c.max_seq = 64;
  return c;
}

inline std::string Pct(double frac) { return Table::Num(frac * 100.0, 2); }

// Parses the shared `--quick` smoke-mode flag: bare `--quick` (or `--quick`
// followed by another flag) means on; an explicit value ("--quick 0|1")
// overrides, and any other value exits 2. Unrelated arguments are ignored.
inline bool ParseQuickFlag(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") != 0) {
      continue;
    }
    quick = true;
    if (i + 1 < argc && argv[i + 1][0] != '-' &&
        !ParseNumber(argv[i + 1], {0, 1}, quick)) {
      std::fprintf(stderr, "error: --quick needs 0 or 1, got '%s'\n", argv[i + 1]);
      std::exit(2);
    }
  }
  return quick;
}

// Returns the value following `flag` (e.g. ParseStringFlag(..., "--json") for
// "--json out.json"), or nullptr when the flag is absent or has no value.
inline const char* ParseStringFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0 && argv[i + 1][0] != '-') {
      return argv[i + 1];
    }
  }
  return nullptr;
}

// The one wall-clock source for every bench measurement: monotonic
// (steady_clock), so NTP steps or suspend/resume can never produce negative or
// wildly wrong durations mid-measurement. Benches must not touch
// std::chrono::*_clock directly — construct (or Reset) a SteadyTimer and read
// Seconds().
class SteadyTimer {
 public:
  SteadyTimer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Median-free single timing helper for the measured-kernel bench sections:
// runs fn() `reps` times and returns seconds per rep.
template <typename Fn>
double TimeSecsPerRep(int reps, Fn&& fn) {
  const SteadyTimer timer;
  for (int r = 0; r < reps; ++r) {
    fn();
  }
  return timer.Seconds() / std::max(reps, 1);
}

// Self-calibrating variant: doubles the rep count until the measurement window
// reaches `min_secs`, so microsecond-scale kernels still get a stable number
// (the CI regression gate depends on these being reproducible).
template <typename Fn>
double TimeSecsStable(Fn&& fn, double min_secs = 0.05) {
  constexpr int kMaxReps = 10000000;
  int reps = 1;
  for (;;) {
    const double per_rep = TimeSecsPerRep(reps, fn);
    // A capped-rep window is accepted as-is: near-no-op bodies can never fill
    // min_secs, and re-measuring the same window would loop forever.
    if (per_rep * reps >= min_secs || per_rep * reps >= 2.0 || reps >= kMaxReps) {
      return per_rep;
    }
    const double target = min_secs / std::max(per_rep, 1e-9);
    reps = static_cast<int>(std::min(target * 1.3 + 1.0, double{kMaxReps}));
  }
}

// Machine-readable bench output behind the shared `--json <path>` flag.
// Schema (one object per bench binary, merged by tools/bench_json.sh into a
// dz-bench-v2 trajectory file):
//   {"bench": "<name>", "isa": "<backend at write time>", "threads": N,
//    "metrics": [{"name","value","unit","higher_is_better"[,"isa"]}]}
// The top-level isa/threads record what the process ran with; a metric measured
// under a forced backend (fig06 sweeps every supported one) carries its own
// per-metric "isa" so the regression gate can skip backends the gating machine
// cannot execute. Dimensionless "x" metrics are the ones the CI gate compares,
// and each must be one kernel's speedup over its own kernels::ref reference
// (never one kernel against another) — they are stable across machines,
// unlike absolute GFLOP/s.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  void Add(const std::string& name, double value, const std::string& unit,
           bool higher_is_better = true, const std::string& isa = "") {
    items_.push_back({name, value, unit, higher_is_better, isa});
  }

  // Writes the JSON file; returns false (with a message on stderr) on failure.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchJson: cannot open %s\n", path.c_str());
      return false;
    }
    // Strings go through JsonEscape and values through JsonNum (non-finite
    // values become 0), so every file parses as JSON.
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"isa\": \"%s\",\n"
                 "  \"threads\": %zu,\n  \"metrics\": [\n",
                 JsonEscape(bench_).c_str(), JsonEscape(kernels::ActiveBackend().name).c_str(),
                 ThreadPool::Global().thread_count());
    for (size_t i = 0; i < items_.size(); ++i) {
      const Item& it = items_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\", "
                   "\"higher_is_better\": %s",
                   JsonEscape(it.name).c_str(), JsonNum(it.value).c_str(),
                   JsonEscape(it.unit).c_str(), it.higher_is_better ? "true" : "false");
      if (!it.isa.empty()) {
        std::fprintf(f, ", \"isa\": \"%s\"", JsonEscape(it.isa).c_str());
      }
      std::fprintf(f, "}%s\n", i + 1 < items_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
    bool higher_is_better;
    std::string isa;
  };
  std::string bench_;
  std::vector<Item> items_;
};

}  // namespace dz

#endif  // BENCH_BENCH_COMMON_H_
