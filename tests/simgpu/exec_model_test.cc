#include "src/simgpu/exec_model.h"

#include <array>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace dz {
namespace {

ExecModel Make13B(int tp = 4, int lora_rank = 0) {
  ExecModelConfig cfg;
  cfg.shape = ModelShape::Llama13B();
  cfg.gpu = GpuSpec::A800();
  cfg.tp = tp;
  cfg.lora_rank = lora_rank;
  return ExecModel(cfg);
}

TEST(ExecModelTest, DecodeIterScalesSubLinearlyWithBatch) {
  // Weight reads dominate decode: doubling the batch must NOT double iteration time.
  const ExecModel em = Make13B();
  const double t1 = em.DecodeIterTime(1, 256);
  const double t16 = em.DecodeIterTime(16, 256);
  EXPECT_LT(t16, t1 * 4.0);
  EXPECT_GT(t16, t1);
}

TEST(ExecModelTest, DeltaIterMuchCheaperThanFullModelIter) {
  // The core serving win: a delta pass reads ~8x fewer weight bytes.
  const ExecModel em = Make13B();
  const double base_iter = em.DecodeIterTime(8, 256);
  const double delta_iter = em.ArtifactDecodeIterTime(8, 1);
  EXPECT_LT(delta_iter, base_iter);
}

TEST(ExecModelTest, DeltaIterGrowsWithActiveDeltas) {
  const ExecModel em = Make13B();
  const double one = em.ArtifactDecodeIterTime(8, 1);
  const double four = em.ArtifactDecodeIterTime(8, 4);
  EXPECT_GT(four, one);  // same total requests, more weight streams + launches
}

TEST(ExecModelTest, PrefillScalesWithTokens) {
  const ExecModel em = Make13B();
  const double t128 = em.PrefillTime(128);
  const double t1024 = em.PrefillTime(1024);
  EXPECT_GT(t1024, t128 * 2.0);
  EXPECT_EQ(em.PrefillTime(0), 0.0);
}

TEST(ExecModelTest, TensorParallelismReducesIterTime) {
  const ExecModel tp1 = Make13B(1);
  const ExecModel tp4 = Make13B(4);
  EXPECT_LT(tp4.DecodeIterTime(8, 256), tp1.DecodeIterTime(8, 256));
  // But adds all-reduce overhead, so the speedup is < 4x.
  EXPECT_GT(tp4.DecodeIterTime(8, 256) * 4.0, tp1.DecodeIterTime(8, 256));
}

TEST(ExecModelTest, SlowInterconnectHurtsTensorParallelism) {
  // Fig. 18's observation: scaling helps more on A800 (NVLink) than RTX 3090 (PCIe).
  ExecModelConfig a800;
  a800.shape = ModelShape::Llama7B();
  a800.gpu = GpuSpec::A800();
  a800.tp = 2;
  ExecModelConfig r3090 = a800;
  r3090.gpu = GpuSpec::Rtx3090();
  ExecModelConfig a800_tp1 = a800;
  a800_tp1.tp = 1;
  ExecModelConfig r3090_tp1 = r3090;
  r3090_tp1.tp = 1;
  const double speedup_a800 = ExecModel(a800_tp1).DecodeIterTime(8, 256) /
                              ExecModel(a800).DecodeIterTime(8, 256);
  const double speedup_3090 = ExecModel(r3090_tp1).DecodeIterTime(8, 256) /
                              ExecModel(r3090).DecodeIterTime(8, 256);
  EXPECT_GT(speedup_a800, speedup_3090);
}

TEST(ExecModelTest, LoraCheaperThanDelta) {
  const ExecModel delta = Make13B();
  const ExecModel lora = Make13B(4, 16);
  EXPECT_LT(lora.ArtifactDecodeIterTime(8, 1), delta.ArtifactDecodeIterTime(8, 1));
  EXPECT_LT(lora.ArtifactBytesPerGpu(), delta.ArtifactBytesPerGpu());
}

// The artifact is the one lora_rank names, sized and loaded from its shape's bytes:
// the whole artifact from disk, one TP shard of it over PCIe.
TEST(ExecModelTest, ArtifactIsTheConfiguredOne) {
  const ModelShape s = ModelShape::Llama13B();
  const KernelModel a800(GpuSpec::A800());
  for (const int rank : {0, 16, 64}) {
    const ExecModel em = Make13B(4, rank);
    const size_t bytes = rank > 0 ? s.LoraBytes(rank) : s.DeltaBytes(4);
    EXPECT_EQ(em.ArtifactBytesPerGpu(), bytes / 4) << "rank " << rank;
    EXPECT_EQ(em.LoadArtifactFromDisk(), a800.DiskReadTime(bytes)) << "rank " << rank;
    EXPECT_EQ(em.LoadArtifactFromHost(), a800.H2DTime(bytes / 4)) << "rank " << rank;
  }
}

TEST(ExecModelTest, LoadTimesOrdering) {
  const ExecModel em = Make13B();
  // Full-model swap must dwarf delta swap (the paper's 5–10x loading reduction).
  EXPECT_GT(em.LoadFullModelFromHost() / em.LoadArtifactFromHost(), 4.0);
  EXPECT_GT(em.LoadFullModelFromDisk(), em.LoadFullModelFromHost());
  EXPECT_GT(Make13B(4, 64).LoadArtifactFromHost(), Make13B(4, 16).LoadArtifactFromHost() / 8.0);
}

TEST(ExecModelTest, KvSwapScalesWithContext) {
  const ExecModel em = Make13B();
  EXPECT_GT(em.KvSwapTime(2048), em.KvSwapTime(128));
}

TEST(ExecModelTest, MemoryAccountingDividesByTp) {
  const ExecModel tp1 = Make13B(1);
  const ExecModel tp4 = Make13B(4);
  EXPECT_EQ(tp1.BaseWeightBytesPerGpu(), tp4.BaseWeightBytesPerGpu() * 4);
  EXPECT_EQ(tp1.ArtifactBytesPerGpu(), tp4.ArtifactBytesPerGpu() * 4);
}

}  // namespace
}  // namespace dz

namespace dz {
namespace {

TEST(ExecModelTest, DecoupledPathCostsMoreThanDedicatedModel) {
  // Paper §8 limitation: with one variant fully resident, decoupled base+delta
  // inference is slower than serving the merged FMT model directly — DeltaZip's win
  // comes from multiplexing, not single-model latency.
  ExecModelConfig cfg;
  cfg.shape = ModelShape::Llama13B();
  cfg.gpu = GpuSpec::A800();
  cfg.tp = 1;
  const ExecModel em(cfg);
  const double dedicated = em.DecodeIterTime(4, 256);
  const double decoupled = em.DecodeIterTime(4, 256) + em.ArtifactDecodeIterTime(4, 1);
  EXPECT_GT(decoupled, dedicated);
}

TEST(ExecModelTest, DeltaFormatAffectsFootprintAndLoad) {
  ExecModelConfig cfg4;
  cfg4.shape = ModelShape::Llama13B();
  cfg4.gpu = GpuSpec::A800();
  cfg4.delta_format = WeightFormat::kSparseInt4;
  ExecModelConfig cfg2 = cfg4;
  cfg2.delta_format = WeightFormat::kSparseInt2;
  const ExecModel em4(cfg4);
  const ExecModel em2(cfg2);
  EXPECT_LT(em2.ArtifactBytesPerGpu(), em4.ArtifactBytesPerGpu());
  EXPECT_LT(em2.LoadArtifactFromDisk(), em4.LoadArtifactFromDisk());
  EXPECT_LT(em2.LoadArtifactFromHost(), em4.LoadArtifactFromHost());
}

}  // namespace
}  // namespace dz

namespace dz {
namespace {

// Every cost entry point over a spread of batch and context sizes, in a fixed
// order: the golden tables below list them in the same order. The artifact rows
// price the compressed delta of `cfg`, then LoRA adapters of rank 16 and 64.
std::vector<double> CostOutputs(const ExecModelConfig& cfg) {
  const ExecModel em(cfg);
  std::vector<double> out;
  for (long long tokens : {1LL, 128LL, 1000LL, 4096LL}) {
    out.push_back(em.PrefillTime(tokens));
  }
  const std::pair<int, double> decode[] = {{1, 64.0}, {8, 300.5}, {32, 1500.25}, {96, 777.0}};
  for (const auto& [batch, ctx] : decode) {
    out.push_back(em.DecodeIterTime(batch, ctx));
  }
  // (total requests, active deltas) of the spreads {8}, {2,2,2,2}, {1,0,5,0,0,3}, {0,0}.
  const std::pair<int, int> spreads[] = {{8, 1}, {8, 4}, {9, 3}, {0, 0}};
  for (const auto& [total, active] : spreads) {
    out.push_back(em.ArtifactDecodeIterTime(total, active));
  }
  for (long long tokens : {1LL, 512LL, 3000LL}) {
    out.push_back(em.ArtifactPrefillTime(tokens));
  }
  for (const auto& [rank, active] : {std::pair{16, 1}, std::pair{64, 4}}) {
    ExecModelConfig lora = cfg;
    lora.lora_rank = rank;
    out.push_back(ExecModel(lora).ArtifactDecodeIterTime(8, active));
  }
  for (long long ctx : {1LL, 2048LL, 70000LL}) {
    out.push_back(em.KvSwapTime(ctx));
  }
  return out;
}

// The cost model's outputs, bit for bit: every serving golden rests on them,
// so a refactor of the formulas (hoisting shape constants, reordering terms)
// must reproduce each value exactly, not approximately.
struct CostGolden {
  const char* shape;
  int tp;
  std::vector<double> outputs;  // CostOutputs order
};

TEST(ExecModelTest, CostOutputsStayGolden) {
  const CostGolden goldens[] = {
    {"Llama13B", 1,
     {0.01294752735499805, 0.013278369673057433, 0.083144676923076921,
      0.35566075716923079, 0.012973239038744483, 0.01393042040215792,
      0.032310994409024033, 0.043147415399705735, 0.0031763748896517898,
      0.01060549955860716, 0.00812912466895537, 0,
      0.0023358901422265818, 0.028289341360089187, 0.16575785953177258,
      0.00076138977930358012, 0.001682236468857283, 4.2768000000000001e-05,
      0.067118864, 2.2937699999999999}},
    {"Llama13B", 2,
     {0.0073678621885338458, 0.008053794248985802, 0.04455949046153846,
      0.18081753058461539, 0.0073807180304070619, 0.0078879982893575295,
      0.017176649557626291, 0.022857164759195685, 0.0019731874448258948,
      0.0057927497793035798, 0.0045195623344776855, 0,
      0.0011679475821481117, 0.014144670680044593, 0.082878929765886289,
      0.00073069488965179011, 0.0011911182344286416, 2.6384e-05,
      0.033564432000000005, 1.14689}},
    {"Llama13B", 4,
     {0.0042580296053017445, 0.0051215065369499884, 0.024946897230769229,
      0.0930759172923077, 0.0042644575262383525, 0.0045467872329573323,
      0.0092894771319274143, 0.012392039438940659, 0.0013715937224129475,
      0.0033863748896517899, 0.0027147811672388429, 0,
      0.00058397630210887692, 0.0070723353400222967, 0.041439464882943144,
      0.00071534744482589505, 0.00094555911721432072, 1.8191999999999998e-05,
      0.016787216000000001, 0.5734499999999999}},
    {"Llama70B", 1,
     {0.068149984889598475, 0.06926072501950227, 0.44398975179487182,
      1.8687601369271793, 0.068160265887199617, 0.068593746832761163,
      0.076119490950465912, 0.080916764719960774, 0.014522491966650319,
      0.053889967866601274, 0.040767475899950958, 0,
      0.012597287172143208, 0.1526221656187291, 0.89427050167224076,
      0.0016031326728788622, 0.0046501227660617952, 2.3107200000000001e-05,
      0.026853545600000001, 0.91751399999999994}},
    {"Llama70B", 2,
     {0.035868103662454943, 0.038088598369682473, 0.23048576229743592,
      0.94287095486358974, 0.035873244161255514, 0.036181763157626286,
      0.04025930444021579, 0.043497059254928888, 0.0080312459833251602,
      0.027924983933300639, 0.021293737949975477, 0,
      0.0062986476037273174, 0.07631108280936455, 0.44713525083612038,
      0.0015015663364394312, 0.0030250613830308977, 1.65536e-05,
      0.0134317728, 0.458762}},
    {"Llama70B", 4,
     {0.01908716304888319, 0.021862535044772577, 0.12309376754871795,
      0.47928636383179485, 0.019089733298283475, 0.019335771320058856,
      0.021689211185090731, 0.024147206522412951, 0.00478562299166258,
      0.014942491966650319, 0.01155686897498774, 0,
      0.0031493278195193724, 0.038155541404682275, 0.22356762541806019,
      0.0014507831682197155, 0.0022125306915154489, 1.32768e-05,
      0.0067208863999999998, 0.22938600000000001}},
  };
  for (const CostGolden& g : goldens) {
    ExecModelConfig cfg;
    cfg.shape = std::string(g.shape) == "Llama13B" ? ModelShape::Llama13B()
                                                   : ModelShape::Llama70B();
    cfg.gpu = GpuSpec::A800();
    cfg.tp = g.tp;
    const std::vector<double> got = CostOutputs(cfg);
    ASSERT_EQ(got.size(), g.outputs.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], g.outputs[i]) << g.shape << " tp" << g.tp << " output " << i;
    }
  }
}

// DecodeIterTime on both sides of the largest tabulated batch (64): the table
// and the direct computation above it must give the same bits.
TEST(ExecModelTest, DecodeIterTimeAtTheBatchTableEdgeStaysGolden) {
  struct EdgeGolden {
    const char* shape;
    int tp;
    double at63, at64, at65;
  };
  const EdgeGolden goldens[] = {
      {"Llama13B", 1, 0.033657587052476706, 0.033986356841589016, 0.034315126630701326},
      {"Llama13B", 4, 0.0098167060559097609, 0.0099050462697400695, 0.0099933864835703781},
      {"Llama70B", 2, 0.041047132173810695, 0.041129612235017161, 0.041212092296223642},
  };
  for (const EdgeGolden& g : goldens) {
    ExecModelConfig cfg;
    cfg.shape = std::string(g.shape) == "Llama13B" ? ModelShape::Llama13B()
                                                   : ModelShape::Llama70B();
    cfg.gpu = GpuSpec::A800();
    cfg.tp = g.tp;
    const ExecModel em(cfg);
    EXPECT_EQ(em.DecodeIterTime(63, 812.25), g.at63) << g.shape << " tp" << g.tp;
    EXPECT_EQ(em.DecodeIterTime(64, 812.25), g.at64) << g.shape << " tp" << g.tp;
    EXPECT_EQ(em.DecodeIterTime(65, 812.25), g.at65) << g.shape << " tp" << g.tp;
  }
}

// The batched form is the per-round one, bit for bit: round j of `rounds`
// prices the batch with j more tokens per request, and adds to what `out`
// already holds, leaving the entries past `rounds` alone. Batches on both
// sides of the 64-batch table, both shapes, and contexts up to just below the
// 2^53 bound. Batch and tp each run through powers of two (a product with the
// exact reciprocal) and other values (a division), in every pairing.
TEST(ExecModelTest, AddDecodeIterTimesMatchesPerRoundDecodeIterTime) {
  Rng rng(2020);
  for (const bool big : {false, true}) {
    for (int tp : {1, 2, 3, 4, 8}) {
      ExecModelConfig cfg;
      cfg.shape = big ? ModelShape::Llama70B() : ModelShape::Llama13B();
      cfg.gpu = GpuSpec::A800();
      cfg.tp = tp;
      const ExecModel em(cfg);
      for (int batch = 1; batch <= 70; ++batch) {
        const long long contexts[] = {batch, 200LL * batch + 17,
                                      static_cast<long long>(rng.NextBelow(1ull << 30)),
                                      (1LL << 40) - batch,
                                      (1LL << 53) - 64LL * batch - 1};
        for (const long long ctx0 : contexts) {
          for (int rounds = 1; rounds <= 64; ++rounds) {
            std::array<double, 65> out;
            for (size_t j = 0; j < out.size(); ++j) {
              out[j] = 1e-3 * static_cast<double>(j + 1);
            }
            em.AddDecodeIterTimes(batch, ctx0, rounds, out.data());
            for (int j = 0; j <= rounds; ++j) {
              double want = 1e-3 * static_cast<double>(j + 1);
              if (j < rounds) {
                want += em.DecodeIterTime(
                    batch, static_cast<double>(ctx0 + static_cast<long long>(j) * batch) / batch);
              }
              ASSERT_EQ(out[static_cast<size_t>(j)], want)
                  << (big ? "Llama70B" : "Llama13B") << " tp" << tp << " batch " << batch
                  << " ctx0 " << ctx0 << " rounds " << rounds << " round " << j;
            }
          }
        }
      }
    }
  }
}

TEST(ExecModelTest, AddDecodeIterTimesRejectsContextsPastTwoToThe53) {
  ExecModelConfig cfg;
  cfg.shape = ModelShape::Llama13B();
  cfg.gpu = GpuSpec::A800();
  const ExecModel em(cfg);
  std::array<double, 4> out{};
  em.AddDecodeIterTimes(3, (1LL << 53) - 13, 4, out.data());  // last context 2^53 - 4
  EXPECT_DEATH(em.AddDecodeIterTimes(3, (1LL << 53) - 12, 4, out.data()), "DZ_CHECK");
}

}  // namespace
}  // namespace dz
