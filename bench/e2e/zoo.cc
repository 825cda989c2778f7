// delta-zoo: the artifact path with real arithmetic, served on the CPU.
//
// Set-up pretrains one base model, fine-tunes three variants on different task
// mixes, and registers each one: ΔCompress (4-bit, 2:4), EncodeDelta, then
// GdeflateCompress gives the stored artifact. The measured phase serves a seeded
// request trace over the three variants from those stored bytes, closed loop
// with one client: a variant that is not resident (two overlay slots, LRU)
// cold-starts (GdeflateDecompress, DecodeDelta, host weights, MakeOverlay),
// then the prompt is prefilled and the answer decoded greedily through the
// base+Δ overlay. TTFT is cold start + prefill to the first token.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/e2e/e2e.h"
#include "src/compress/calibration.h"
#include "src/compress/serialize.h"
#include "src/util/check.h"

namespace dz {
namespace e2e {
namespace {

constexpr int kSetupReps = 3;
constexpr int kResidentSlots = 2;  // of three variants: misses are routine
constexpr double kTailQ = 0.99;    // >= 10 samples beyond it in >= 1000 requests
// Wall-clock deadlines of this CPU deployment (a few times the typical request).
constexpr double kTtftDeadlineS = 0.04;
constexpr double kE2eDeadlineS = 0.1;

struct ZooSizes {
  int pretrain_steps = 40;
  int finetune_steps = 40;
  int calibration = 12;
  int requests = 500;  // per pass
  int min_passes = 2;  // >= 1000 requests behind the p99 tail
};

struct Variant {
  std::vector<std::unique_ptr<Task>> tasks;
  std::unique_ptr<TaskMix> mix;
  std::unique_ptr<Transformer> finetuned;
  CompressedDelta delta;  // in memory, as DeltaCompress returned it
  ByteBuffer encoded;     // EncodeDelta
  ByteBuffer stored;      // GdeflateCompress(encoded): the artifact at rest
};

struct Zoo {
  std::unique_ptr<Transformer> base;
  std::vector<Variant> variants;
  Trace trace;  // model ids and output lengths of the requests
  std::vector<std::vector<int>> prompts;
};

std::vector<TaskKind> VariantTasks(int v) {
  switch (v) {
    case 0:
      return {TaskKind::kSentiment, TaskKind::kArithmetic};
    case 1:
      return {TaskKind::kNli, TaskKind::kPalindrome};
    default:
      return {TaskKind::kTeacher};
  }
}

Zoo Setup(const ZooSizes& sizes, uint64_t seed, RunResult& result) {
  const ModelConfig config = ModelConfig::Small();
  Zoo zoo;
  Rng rng(SubSeed(seed, 0));
  zoo.base = std::make_unique<Transformer>(ModelWeights::RandomInit(config, rng));
  {
    const Span span("train", "Pretrain");
    PretrainConfig pre;
    pre.steps = sizes.pretrain_steps;
    pre.batch = 8;
    pre.seq_len = 20;
    Pretrain(*zoo.base, pre, rng);
  }
  DeltaCompressConfig compress;  // 4-bit, 2:4, OBS
  for (int v = 0; v < 3; ++v) {
    Variant var;
    std::vector<const Task*> raw;
    for (TaskKind kind : VariantTasks(v)) {
      var.tasks.push_back(MakeTask(kind, config, SubSeed(seed, 100 + static_cast<int>(kind))));
      raw.push_back(var.tasks.back().get());
    }
    var.mix = std::make_unique<TaskMix>(raw);
    var.finetuned = std::make_unique<Transformer>(zoo.base->weights());
    Rng ft_rng(SubSeed(seed, 200 + static_cast<uint64_t>(v)));
    {
      const Span span("train", "FineTuneFmt");
      FineTuneConfig ft;
      ft.steps = sizes.finetune_steps;
      ft.batch = 8;
      ft.lr = 2e-3f;
      ft.freeze_embeddings = true;
      FineTuneFmt(*var.finetuned, *var.mix, ft, ft_rng);
    }
    std::vector<std::vector<int>> calibration;
    for (int i = 0; i < sizes.calibration; ++i) {
      calibration.push_back(var.mix->Sample(ft_rng).tokens);
    }
    {
      const Span span("compress", "DeltaCompress");
      var.delta = DeltaCompress(zoo.base->weights(), var.finetuned->weights(), calibration,
                                compress);
    }
    {
      const Span span("serialize", "EncodeDelta");
      var.encoded = EncodeDelta(var.delta);
    }
    {
      const Span span("codec", "GdeflateCompress");
      var.stored = GdeflateCompress(var.encoded);
    }
    // The stored bytes must give back the artifact exactly, through both
    // decoders.
    const ByteBuffer back = GdeflateDecompress(var.stored);
    result.Check(back == internal::GdeflateDecompressReference(var.stored),
                 "variant " + std::to_string(v) +
                     ": GdeflateDecompress differs from the reference decoder");
    CompressedDelta decoded;
    result.Check(back == var.encoded && DecodeDelta(back, decoded) &&
                     EncodeDelta(decoded) == var.encoded,
                 "variant " + std::to_string(v) +
                     ": Encode-Gdeflate-Decompress-Decode-Encode round trip not byte-identical");
    zoo.variants.push_back(std::move(var));
  }

  TraceConfig tc;
  tc.n_models = 3;
  tc.dist = PopularityDist::kZipf;
  tc.zipf_alpha = 1.0;
  tc.arrival_rate = 1.0;
  tc.duration_s = 1.25 * sizes.requests;  // then cut to exactly `requests`
  // Prompt + output stay within ModelConfig::max_seq (64).
  tc.prompt_mean_tokens = 16.0;
  tc.prompt_sigma = 0.4;
  tc.prompt_max_tokens = 32;
  tc.output_mean_tokens = 10.0;
  tc.output_sigma = 0.5;
  tc.output_max_tokens = 24;
  tc.seed = SubSeed(seed, 300);
  {
    const Span span("workload", "GenerateTrace");
    zoo.trace = GenerateTrace(tc);
  }
  zoo.trace.requests.resize(
      std::min(zoo.trace.requests.size(), static_cast<size_t>(sizes.requests)));
  // Prompt lengths come from the trace, so every variant sees the same length
  // distribution; the text is the variant's own task examples, and the prompt
  // ends on an example's query token.
  Rng prompt_rng(SubSeed(seed, 400));
  for (const TraceRequest& req : zoo.trace.requests) {
    const TaskMix& mix = *zoo.variants[static_cast<size_t>(req.model_id)].mix;
    const size_t len = static_cast<size_t>(std::max(4, req.prompt_tokens));
    std::vector<int> text;
    while (text.size() < len) {
      const std::vector<int> example = mix.Sample(prompt_rng).tokens;
      text.insert(text.end(), example.begin(), example.end());
    }
    zoo.prompts.emplace_back(text.end() - static_cast<std::ptrdiff_t>(len), text.end());
  }
  return zoo;
}

uint64_t HashZoo(const Zoo& zoo) {
  uint64_t h = kHashSeed;
  for (const Variant& v : zoo.variants) {
    h = HashBytes(h, v.stored.data(), v.stored.size());
  }
  for (size_t i = 0; i < zoo.prompts.size(); ++i) {
    h = HashBytes(h, zoo.prompts[i].data(), zoo.prompts[i].size() * sizeof(int));
    const int fields[] = {zoo.trace.requests[i].model_id, zoo.trace.requests[i].output_tokens};
    h = HashBytes(h, fields, sizeof fields);
  }
  return h;
}

// A variant made servable: its delta, the host model carrying the fine-tuned
// non-linear parameters, and the overlay that runs every linear layer as the
// shared base GEMM plus the compressed delta. The overlay points into `delta`
// and the base, so both outlive it.
struct Resident {
  int variant = -1;
  std::unique_ptr<CompressedDelta> delta;
  std::unique_ptr<Transformer> host;
  LinearOverlay overlay;
};

Resident MakeResident(int variant, std::unique_ptr<CompressedDelta> delta,
                      const Transformer& base) {
  Resident r;
  r.variant = variant;
  r.delta = std::move(delta);
  const Span span("compress", "ApplyTo+MakeOverlay");
  r.host = std::make_unique<Transformer>(r.delta->ApplyTo(base.weights()));
  r.overlay = r.delta->MakeOverlay(base.weights());
  return r;
}

// Cold starts of one pass: how many, the bytes decoded, and where the time went.
struct ColdStarts {
  int count = 0;
  double encoded_bytes = 0.0;
  double decompress_s = 0.0;
  double decode_s = 0.0;
  double make_overlay_s = 0.0;
  double total_s = 0.0;
};

// Stored bytes -> ready overlay; false when the artifact does not decode.
bool ColdStart(const Zoo& zoo, int variant, Resident& out, ColdStarts& stats) {
  const Span span("bench", "coldstart");
  const double t0 = WallSeconds();
  ByteBuffer encoded;
  {
    const Span s("codec", "GdeflateDecompress");
    encoded = GdeflateDecompress(zoo.variants[static_cast<size_t>(variant)].stored);
  }
  const double t1 = WallSeconds();
  auto delta = std::make_unique<CompressedDelta>();
  {
    const Span s("serialize", "DecodeDelta");
    if (!DecodeDelta(encoded, *delta)) {
      return false;
    }
  }
  const double t2 = WallSeconds();
  out = MakeResident(variant, std::move(delta), *zoo.base);
  const double t3 = WallSeconds();
  ++stats.count;
  stats.encoded_bytes += static_cast<double>(encoded.size());
  stats.decompress_s += t1 - t0;
  stats.decode_s += t2 - t1;
  stats.make_overlay_s += t3 - t2;
  stats.total_s += t3 - t0;
  return true;
}

int Argmax(const Matrix& logits) {
  const float* row = logits.row(0);
  int best = 0;
  for (int j = 1; j < logits.cols(); ++j) {
    if (row[j] > row[best]) {
      best = j;
    }
  }
  return best;
}

struct Timing {
  double prefill_s = 0.0;  // prompt through the first token
  double decode_s = 0.0;   // the remaining tokens
};

// Greedy generation split into prefill (to the first token) and decode, as
// Transformer::GenerateGreedy does it.
std::vector<int> Generate(const Transformer& host, const LinearOverlay* overlay,
                          const std::vector<int>& prompt, int max_new, Timing& t) {
  double t0 = WallSeconds();
  KVCache kv = host.MakeKVCache();
  Matrix logits;
  std::vector<int> out;
  {
    const Span span("nn", "prefill");
    for (int token : prompt) {
      logits = host.DecodeStep(token, kv, overlay);
    }
    out.push_back(Argmax(logits));
  }
  double t1 = WallSeconds();
  t.prefill_s = t1 - t0;
  {
    const Span span("nn", "decode");
    const int max_seq = host.config().max_seq;
    while (static_cast<int>(out.size()) < max_new && kv.len < max_seq) {
      logits = host.DecodeStep(out.back(), kv, overlay);
      out.push_back(Argmax(logits));
    }
  }
  t.decode_s = WallSeconds() - t1;
  return out;
}

struct RequestSample {
  double ttft_s = 0.0;
  double e2e_s = 0.0;
  double coldstart_s = 0.0;
  double prefill_s = 0.0;
  double decode_s = 0.0;
  int prompt_tokens = 0;
  int output_tokens = 0;
};

// One pass over the request trace with a cold overlay cache. Returns the
// generated tokens per request. The machine-speed reference is sampled between
// requests, outside every measured interval.
std::vector<std::vector<int>> ServePass(const Zoo& zoo, std::vector<RequestSample>& samples,
                                        ColdStarts& cold, MachineSpeed& speed,
                                        RunResult& result) {
  std::list<Resident> cache;  // front = most recently used
  std::vector<std::vector<int>> outputs;
  for (size_t i = 0; i < zoo.trace.requests.size(); ++i) {
    if (i % 100 == 99) {
      speed.Sample();
    }
    const TraceRequest& req = zoo.trace.requests[i];
    RequestSample s;
    const double t0 = WallSeconds();
    auto it = std::find_if(cache.begin(), cache.end(),
                           [&](const Resident& r) { return r.variant == req.model_id; });
    if (it == cache.end()) {
      Resident r;
      if (!ColdStart(zoo, req.model_id, r, cold)) {
        result.Check(false, "stored artifact of variant " + std::to_string(req.model_id) +
                                " does not decode");
        ++result.failed;
        outputs.emplace_back();
        continue;
      }
      cache.push_front(std::move(r));
      if (static_cast<int>(cache.size()) > kResidentSlots) {
        cache.pop_back();
      }
    } else {
      cache.splice(cache.begin(), cache, it);
    }
    s.coldstart_s = WallSeconds() - t0;
    Timing t;
    const Resident& r = cache.front();
    outputs.push_back(Generate(*r.host, &r.overlay, zoo.prompts[i],
                               std::max(1, req.output_tokens), t));
    s.prefill_s = t.prefill_s;
    s.decode_s = t.decode_s;
    s.ttft_s = s.coldstart_s + s.prefill_s;
    s.e2e_s = s.ttft_s + s.decode_s;
    s.prompt_tokens = static_cast<int>(zoo.prompts[i].size());
    s.output_tokens = static_cast<int>(outputs.back().size());
    samples.push_back(s);
  }
  return outputs;
}

uint64_t HashOutputs(uint64_t h, const std::vector<std::vector<int>>& outputs) {
  for (const std::vector<int>& out : outputs) {
    const int n = static_cast<int>(out.size());
    h = HashBytes(h, &n, sizeof n);
    h = HashBytes(h, out.data(), out.size() * sizeof(int));
  }
  return h;
}

// The overlay served from stored bytes must compute exactly what the in-memory
// artifact computes: bit-identical logits on a probe prompt, identical tokens
// on each variant's first request.
void CheckAgainstInMemory(const Zoo& zoo, const std::vector<std::vector<int>>& outputs,
                          RunResult& result) {
  for (int v = 0; v < static_cast<int>(zoo.variants.size()); ++v) {
    Resident decoded;
    ColdStarts unused;
    if (!ColdStart(zoo, v, decoded, unused)) {
      continue;  // already reported by the pass
    }
    const Resident in_memory = MakeResident(
        v, std::make_unique<CompressedDelta>(zoo.variants[static_cast<size_t>(v)].delta),
        *zoo.base);
    const std::vector<int>& probe = zoo.prompts.front();
    const Matrix a = decoded.host->Forward(probe, nullptr, &decoded.overlay);
    const Matrix b = in_memory.host->Forward(probe, nullptr, &in_memory.overlay);
    result.Check(a.rows() == b.rows() && a.cols() == b.cols() &&
                     std::memcmp(a.row(0), b.row(0),
                                 sizeof(float) * static_cast<size_t>(a.rows()) *
                                     static_cast<size_t>(a.cols())) == 0,
                 "variant " + std::to_string(v) +
                     ": overlay from stored bytes gives different logits than the "
                     "in-memory artifact");
    for (size_t i = 0; i < zoo.trace.requests.size(); ++i) {
      const TraceRequest& req = zoo.trace.requests[i];
      if (req.model_id != v) {
        continue;
      }
      Timing t;
      const std::vector<int> expect = Generate(*in_memory.host, &in_memory.overlay,
                                               zoo.prompts[i], std::max(1, req.output_tokens), t);
      result.Check(expect == outputs[i], "variant " + std::to_string(v) +
                                             ": served tokens differ from the in-memory "
                                             "artifact's");
      break;
    }
  }
}

const Matrix& LinearWeight(const ModelWeights& weights, const std::string& name) {
  for (const NamedLayerConst& l : weights.LinearLayers()) {
    if (l.name == name) {
      return *l.weight;
    }
  }
  DZ_CHECK(false);
  return weights.embedding;
}

// Calls that take microseconds, repeated until `min_s` of wall has passed.
template <typename Fn>
double SecondsPerCall(Fn&& fn, double min_s = 0.05) {
  long long calls = 0;
  const double t0 = WallSeconds();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = WallSeconds() - t0;
  } while (elapsed < min_s);
  return elapsed / static_cast<double>(calls);
}

// Per-layer measurements beyond the spans of set-up and serving.
void MeasureLayers(const ZooSizes& sizes, const Zoo& zoo,
                   const std::vector<RequestSample>& samples, const ColdStarts& cold,
                   const std::vector<std::vector<int>>& outputs, RunResult& result) {
  // compress: DeltaCompress on one thread, then the same stages replayed one
  // call at a time: calibration capture per group, OBS and packing per layer.
  const Variant& v0 = zoo.variants.front();
  ThreadPool serial(1);
  std::vector<std::vector<int>> calibration;
  Rng calib_rng(7);
  for (int i = 0; i < sizes.calibration; ++i) {
    calibration.push_back(v0.mix->Sample(calib_rng).tokens);
  }
  const DeltaCompressConfig config;
  double serial_compress_s = 0.0;
  {
    const Span span("compress", "DeltaCompress[1 thread]");
    const double t0 = WallSeconds();
    DeltaCompress(zoo.base->weights(), v0.finetuned->weights(), calibration, config, &serial);
    serial_compress_s = WallSeconds() - t0;
  }
  ObsConfig obs;
  obs.bits = config.bits;
  obs.group_size = config.group_size;
  obs.prune24 = config.sparse24;
  obs.damp_ratio = config.damp_ratio;
  // Alg. 1's groups: members of a group share one calibration input.
  const std::vector<std::vector<const char*>> groups = {
      {"wq", "wk", "wv"}, {"wo"}, {"w_gate", "w_up"}, {"w_down"}};
  double calibrate_s = 0.0;
  double obs_s = 0.0;
  double pack_s = 0.0;
  const ModelWeights& base = zoo.base->weights();
  const ModelWeights& ft = v0.finetuned->weights();
  for (int layer = 0; layer < base.config.n_layers; ++layer) {
    for (const std::vector<const char*>& group : groups) {
      double t0 = WallSeconds();
      Matrix x;
      {
        const Span span("compress", "CaptureLayerInput");
        x = CaptureLayerInput(*v0.finetuned, calibration,
                              LinearLayerName(layer, group.front()), &serial);
      }
      calibrate_s += WallSeconds() - t0;
      for (const char* member : group) {
        const std::string name = LinearLayerName(layer, member);
        const Matrix delta = Sub(LinearWeight(ft, name), LinearWeight(base, name));
        t0 = WallSeconds();
        Matrix compressed;
        {
          const Span span("compress", "ObsCompress");
          compressed = ObsCompress(delta, x, obs);
        }
        const double t1 = WallSeconds();
        {
          const Span span("compress", "Sparse24Matrix::Pack");
          Sparse24Matrix::Pack(compressed, config.bits, config.group_size);
        }
        obs_s += t1 - t0;
        pack_s += WallSeconds() - t1;
      }
    }
  }
  result.Set("compress.variants_per_s",
             Ratio(SpanLog::Count("compress", "DeltaCompress"),
                   SpanLog::TotalSeconds("compress", "DeltaCompress")));
  result.Set("compress.calibrate_frac", Ratio(calibrate_s, serial_compress_s));
  result.Set("compress.obs_frac", Ratio(obs_s, serial_compress_s));
  result.Set("compress.pack_frac", Ratio(pack_s, serial_compress_s));
  result.Set("compress.replay_coverage",
             Ratio(calibrate_s + obs_s + pack_s, serial_compress_s));

  // Sizes: fp16 fine-tuned model vs stored bytes, and what the codec adds.
  double log_ratio = 0.0;
  double encoded = 0.0;
  double stored = 0.0;
  for (const Variant& v : zoo.variants) {
    log_ratio += std::log(Ratio(static_cast<double>(v.finetuned->weights().Fp16ByteSize()),
                                static_cast<double>(v.stored.size())));
    encoded += static_cast<double>(v.encoded.size());
    stored += static_cast<double>(v.stored.size());
  }
  result.Set("compress.ratio", std::exp(log_ratio / static_cast<double>(zoo.variants.size())));
  result.Set("codec.ratio", Ratio(encoded, stored));
  result.Set("codec.compress_mb_per_s",
             Ratio(encoded / 1e6, SpanLog::TotalSeconds("codec", "GdeflateCompress")));
  result.Set("serialize.encode_mb_per_s",
             Ratio(encoded / 1e6, SpanLog::TotalSeconds("serialize", "EncodeDelta")));
  result.Set("codec.decompress_mb_per_s", Ratio(cold.encoded_bytes / 1e6, cold.decompress_s));
  result.Set("serialize.decode_mb_per_s", Ratio(cold.encoded_bytes / 1e6, cold.decode_s));
  result.Set("artifact.coldstart_per_s", Ratio(cold.count, cold.total_s));
  result.Set("artifact.make_overlay_per_s", Ratio(cold.count, cold.make_overlay_s));
  result.Note(std::to_string(cold.count) + " cold starts decoded " +
              std::to_string(static_cast<long long>(cold.encoded_bytes)) + " bytes");

  // nn: prefill and decode through the overlay (from the pass), and decode
  // through the merged model (base + all deltas, no overlay) on the same requests.
  double prompt_tokens = 0.0;
  double prefill_s = 0.0;
  double decode_tokens = 0.0;
  double decode_s = 0.0;
  double cold_s = 0.0;
  double ttft_s = 0.0;
  for (const RequestSample& s : samples) {
    prompt_tokens += s.prompt_tokens;
    prefill_s += s.prefill_s;
    decode_tokens += s.output_tokens - 1;
    decode_s += s.decode_s;
    cold_s += s.coldstart_s;
    ttft_s += s.ttft_s;
  }
  result.Set("path.ttft_load_frac", Ratio(cold_s, ttft_s));
  result.Set("path.ttft_compute_frac", Ratio(prefill_s, ttft_s));
  const double path_sum = Ratio(cold_s, ttft_s) + Ratio(prefill_s, ttft_s);
  result.Check(std::fabs(path_sum - 1.0) <= 1e-9,
               "TTFT shares (cold start + prefill) sum to " + Num(path_sum));
  result.Set("nn.prefill_tok_per_s", Ratio(prompt_tokens, prefill_s));
  const double overlay_tok_per_s = Ratio(decode_tokens, decode_s);
  result.Set("nn.decode_tok_per_s", overlay_tok_per_s);

  std::vector<std::unique_ptr<Transformer>> merged;
  for (const Variant& v : zoo.variants) {
    merged.push_back(std::make_unique<Transformer>(v.delta.ApplyTo(base)));
  }
  double merged_tokens = 0.0;
  double merged_s = 0.0;
  double match = 0.0;
  double compared = 0.0;
  for (size_t i = 0; i < zoo.trace.requests.size() && i < 64; ++i) {
    const TraceRequest& req = zoo.trace.requests[i];
    Timing t;
    const std::vector<int> tokens =
        Generate(*merged[static_cast<size_t>(req.model_id)], nullptr, zoo.prompts[i],
                 std::max(1, req.output_tokens), t);
    merged_tokens += static_cast<double>(tokens.size()) - 1.0;
    merged_s += t.decode_s;
    for (size_t k = 0; k < tokens.size() && k < outputs[i].size(); ++k) {
      match += tokens[k] == outputs[i][k] ? 1.0 : 0.0;
    }
    compared += static_cast<double>(std::max(tokens.size(), outputs[i].size()));
  }
  const double merged_tok_per_s = Ratio(merged_tokens, merged_s);
  result.Set("nn.merged_decode_tok_per_s", merged_tok_per_s);
  result.Set("nn.overlay_overhead", Ratio(merged_tok_per_s, overlay_tok_per_s));
  result.Set("nn.token_match", Ratio(match, compared));
  result.Note("token match: " + std::to_string(static_cast<long long>(match)) + " of " +
              std::to_string(static_cast<long long>(compared)) +
              " greedy tokens equal between overlay and merged model");

  // tensor: one compressed delta layer and its dense base GEMM at decode (m=1)
  // and prompt width. Operations count the stored 2:4 slots (half the dense
  // multiply-adds), so GFLOP/s is computed from stored nonzeros.
  const std::string w_up_name = LinearLayerName(0, "w_up");
  const CompressedDeltaLayer* layer = nullptr;
  for (const CompressedDeltaLayer& l : v0.delta.layers) {
    layer = l.name == w_up_name ? &l : layer;
  }
  const Matrix& w_up = LinearWeight(base, w_up_name);
  if (layer != nullptr) {
    Rng xr(11);
    const int m_prompt = static_cast<int>(zoo.prompts.front().size());
    const Matrix x1 = Matrix::Random(1, w_up.cols(), xr, 1.0f);
    const Matrix xp = Matrix::Random(m_prompt, w_up.cols(), xr, 1.0f);
    const double stored_ops = static_cast<double>(w_up.rows()) * w_up.cols();  // 2 x n*k/2
    const double dense_ops = 2.0 * w_up.rows() * w_up.cols();
    const Span span("tensor", "kernel probes");
    result.Set("tensor.delta_matmul_gflops_m1",
               stored_ops / SecondsPerCall([&] { layer->MatmulNT(x1); }) / 1e9);
    result.Set("tensor.delta_matmul_gflops_mprompt",
               stored_ops * m_prompt / SecondsPerCall([&] { layer->MatmulNT(xp); }) / 1e9);
    result.Set("tensor.dense_gemm_gflops_m1",
               dense_ops / SecondsPerCall([&] { MatmulNT(x1, w_up); }) / 1e9);
  }

  result.Set("workload.gen_req_per_s",
             Ratio(static_cast<double>(zoo.trace.requests.size()),
                   SpanLog::TotalSeconds("workload", "GenerateTrace")));
  result.Set("train.pretrain_steps_per_s",
             Ratio(sizes.pretrain_steps, SpanLog::TotalSeconds("train", "Pretrain")));
  result.Set("train.finetune_steps_per_s",
             Ratio(static_cast<double>(sizes.finetune_steps) * zoo.variants.size(),
                   SpanLog::TotalSeconds("train", "FineTuneFmt")));
}

}  // namespace

RunResult RunDeltaZoo(const RunOptions& opts) {
  RunResult result;
  ZooSizes sizes;
  if (opts.smoke) {
    sizes.pretrain_steps = 8;
    sizes.finetune_steps = 8;
    sizes.requests = 40;
    sizes.min_passes = 1;
  }

  MachineSpeed speed(Reference::kCompute);
  speed.Sample();
  std::vector<double> setup_s;
  Zoo zoo;
  const int reps = opts.smoke || opts.traced || opts.digest_only ? 1 : kSetupReps;
  uint64_t zoo_digest = 0;
  for (int rep = 0; rep < reps; ++rep) {
    zoo = Zoo();  // free the previous repetition first: RSS holds one zoo
    const double t0 = WallSeconds();
    zoo = Setup(sizes, opts.seed, result);
    setup_s.push_back(WallSeconds() - t0);
    const uint64_t h = HashZoo(zoo);
    result.Check(rep == 0 || h == zoo_digest, "set-up is not deterministic");
    zoo_digest = h;
  }

  speed.Sample();
  std::vector<RequestSample> samples;
  std::vector<double> pass_rps;
  double serve_s = 0.0;  // summed request service time
  double tokens = 0.0;
  std::vector<std::vector<int>> first_outputs;
  ColdStarts cold;
  const double start = WallSeconds();
  for (int pass = 0;; ++pass) {
    const size_t before = samples.size();
    const double t0 = WallSeconds();
    const std::vector<std::vector<int>> outputs =
        ServePass(zoo, samples, cold, speed, result);
    const double wall = WallSeconds() - t0;
    double pass_s = 0.0;
    for (size_t i = before; i < samples.size(); ++i) {
      pass_s += samples[i].e2e_s;
      tokens += samples[i].output_tokens;
    }
    serve_s += pass_s;
    pass_rps.push_back(static_cast<double>(samples.size() - before) / pass_s);
    result.attempted += static_cast<long long>(zoo.trace.requests.size());
    if (pass == 0) {
      first_outputs = outputs;
      result.digest = HashOutputs(zoo_digest, outputs);
    } else {
      for (size_t i = 0; i < outputs.size(); ++i) {
        result.failed += outputs[i] == first_outputs[i] ? 0 : 1;
      }
      result.Check(outputs == first_outputs,
                   "pass " + std::to_string(pass + 1) + " generated other tokens than pass 1");
    }
    const double now = WallSeconds();
    const bool budget_left = pass + 1 < sizes.min_passes || now + wall <= start + opts.seconds;
    if (opts.digest_only || opts.traced || opts.smoke || !budget_left) {
      break;
    }
  }
  CheckAgainstInMemory(zoo, first_outputs, result);

  if (opts.traced) {
    MeasureLayers(sizes, zoo, samples, cold, first_outputs, result);
    return result;
  }

  std::vector<double> ttft;
  std::vector<double> e2e;
  double met = 0.0;
  for (const RequestSample& s : samples) {
    ttft.push_back(speed.ScaleTime(s.ttft_s));
    e2e.push_back(speed.ScaleTime(s.e2e_s));
    met += ttft.back() <= kTtftDeadlineS && e2e.back() <= kE2eDeadlineS ? 1.0 : 0.0;
  }
  result.Set("setup_s", speed.ScaleTime(Median(setup_s)));
  result.Set("req_per_s", speed.ScaleRate(Median(pass_rps)));
  result.Set("ttft_p50_s", Percentile(ttft, 0.5));
  result.Set("ttft_tail_s", Percentile(ttft, kTailQ));
  result.Set("e2e_tail_s", Percentile(e2e, kTailQ));
  result.Set("slo_attainment", Ratio(met, static_cast<double>(result.attempted)));
  result.Set("tok_per_s", speed.ScaleRate(Ratio(tokens, serve_s)));

  result.Note("closed loop, 1 client, " + std::to_string(pass_rps.size()) + " passes x " +
              std::to_string(zoo.trace.requests.size()) + " requests over 3 variants, " +
              std::to_string(kResidentSlots) + " resident overlay slots");
  result.Note("tail = p" + Num(kTailQ * 100.0) + " over " +
              std::to_string(samples.size()) + " requests, " +
              std::to_string(SamplesBeyond(samples.size(), kTailQ)) + " beyond it");
  result.Note("measured req_per_s over passes: q1 " + Num(Percentile(pass_rps, 0.25)) +
              ", median " + Num(Median(pass_rps)) + ", q3 " +
              Num(Percentile(pass_rps, 0.75)) + "; measured setup_s " + Num(Median(setup_s)));
  result.Note(speed.Describe());
  result.Note("deadlines: TTFT <= " + Num(kTtftDeadlineS) + " s, E2E <= " +
              Num(kE2eDeadlineS) + " s (wall)");
  return result;
}

}  // namespace e2e
}  // namespace dz
