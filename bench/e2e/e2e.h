// Shared pieces of dz_e2e, the end-to-end benchmark (bench/e2e/README.md):
// run options, the result every workload returns, the wall-clock span log the
// traced pass records around calls into each layer, and small statistics helpers.
#ifndef BENCH_E2E_E2E_H_
#define BENCH_E2E_E2E_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dz {
namespace e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // measured-phase budget (wall)
  bool traced = false;    // per-layer pass instead of the end-to-end pass
  bool smoke = false;     // tiny sizes: checks and metric presence only
  bool digest_only = false;  // set up, run one pass, print its digest, exit
  std::string trace_out;     // Chrome trace of the spans (traced pass only)
};

// What one run reports: correctness, operation counts, and named metrics.
struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> failures;  // one line per failed check
  std::vector<std::string> notes;     // sample counts and context for stderr
  uint64_t digest = 0;                // deterministic outputs of pass 1

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Note(const std::string& line) { notes.push_back(line); }
};

// Declared metrics, in print order. Each per-layer row names the end-to-end
// metric and workload it should move. BENCHMARK.json repeats name, unit and
// direction; run.py refuses a run whose metrics or units disagree with it.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* moves;  // per-layer only: "<end-to-end metric> @ <workload>"
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

RunResult RunServe(const RunOptions& opts);     // serve-burst, serve-elastic, serve-swap
RunResult RunDeltaZoo(const RunOptions& opts);  // delta-zoo

// ---- wall-clock spans ------------------------------------------------------
// Spans are kept in memory, one record per call the benchmark makes into a layer,
// and written as Chrome trace_event "complete" events at exit. Recording is off
// unless SpanLog::Enable() ran, so the end-to-end pass pays one branch per call.
struct SpanRecord {
  std::string name;
  std::string layer;
  double start_s = 0.0;  // since SpanLog::Enable()
  double end_s = -1.0;
  int id = -1;
  int parent = -1;  // enclosing span, -1 for roots
  int tid = 0;
};

class SpanLog {
 public:
  static void Enable();
  static bool enabled();
  // Opens a span under `parent` (kCurrent: the innermost open span of this
  // thread) and returns its id, or -1 when recording is off.
  static constexpr int kCurrent = -2;
  static int Begin(const std::string& layer, const std::string& name, int parent);
  static void End(int id);
  static std::vector<SpanRecord> Records();
  // Summed duration of every closed span with this layer and name.
  static double TotalSeconds(const std::string& layer, const std::string& name);
  static int Count(const std::string& layer, const std::string& name);
  // Self time per layer: each span's duration minus the part of it that its
  // child spans cover (union of the child intervals).
  static std::map<std::string, double> SelfSecondsByLayer();
  static bool WriteChromeTrace(const std::string& path);
};

// RAII span; a no-op when recording is off.
class Span {
 public:
  Span(const std::string& layer, const std::string& name,
       int parent = SpanLog::kCurrent)
      : id_(SpanLog::enabled() ? SpanLog::Begin(layer, name, parent) : -1) {}
  ~Span() {
    if (id_ >= 0) {
      SpanLog::End(id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

// ---- machine speed -------------------------------------------------------------
// A shared machine slows by 15-50% for minutes at a time, most for memory-bound
// work, so the same work measured minutes apart differs by more than any useful
// bound. Wall-clock end-to-end metrics are therefore scaled to the speed of the
// calibration machine: a fixed reference kernel of the workload's character,
// owned by this benchmark (changes to src/ cannot move it), is timed several
// times during the run, and
//   reported time = measured time x nominal / median reference time
//   reported rate = measured rate x median reference time / nominal.
// Simulated metrics, memory and per-layer metrics are reported as measured.
enum class Reference {
  kMemory,   // std::map churn: the serving simulator's allocation and pointer chasing
  kCompute,  // dependent float multiply-adds: delta-zoo's dense arithmetic
};

class MachineSpeed {
 public:
  explicit MachineSpeed(Reference ref) : ref_(ref) {}
  void Sample();  // times the reference kernel once (~20 ms)
  // Nominal / median reference time: below 1 when this run's machine is slower.
  double Factor() const;
  double ScaleTime(double seconds) const { return seconds * Factor(); }
  double ScaleRate(double per_second) const { return per_second / Factor(); }
  std::string Describe() const;

 private:
  Reference ref_;
  std::vector<double> samples_;
};

// ---- statistics --------------------------------------------------------------
// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// Samples strictly above the nearest-rank q-percentile of n samples.
long long SamplesBeyond(size_t n, double q);
inline double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double WallSeconds();  // steady clock, arbitrary origin
std::string Num(double v);  // "%g" for report notes
double RssPeakMb();    // VmHWM of this process, 0 when unavailable

// FNV-1a over raw bytes, chained through `h`.
uint64_t HashBytes(uint64_t h, const void* data, size_t n);
inline uint64_t HashDouble(uint64_t h, double v) { return HashBytes(h, &v, sizeof v); }
inline uint64_t HashString(uint64_t h, const std::string& s) {
  return HashBytes(h, s.data(), s.size());
}
constexpr uint64_t kHashSeed = 1469598103934665603ull;

// Independent per-window / per-request seeds from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t index);

}  // namespace e2e
}  // namespace dz

#endif  // BENCH_E2E_E2E_H_
