// Ablation of pipeline step 4 (paper §4.1): optional lossless compression of the
// packed delta artifact, as its EncodeDelta bytes. Reports artifact sizes, codec
// ratio, and the disk-read break-even: lossless pays off when disk bandwidth (e.g.
// NFS) is the bottleneck, and is neutral-to-negative on fast NVMe — exactly the
// paper's guidance.
#include "bench/bench_common.h"
#include "src/compress/lossless.h"
#include "src/compress/serialize.h"
#include "src/simgpu/kernel_model.h"

namespace dz {
namespace {

void Run() {
  const uint64_t seed = 404;
  Banner("Ablation — lossless compression (pipeline step 4)", "§4.1 step 4", seed);

  TrainedFamily family = BuildFamily("llama-sim", ModelConfig::Medium(),
                                     {TaskKind::kSentiment, TaskKind::kNli}, 150, 200,
                                     seed);

  Table table({"bits", "packed (B)", "after gdeflate (B)", "codec ratio", "after rle (B)"});
  double measured_ratio = 1.0;
  for (int bits : {4, 2}) {
    DeltaCompressConfig cfg;
    cfg.bits = bits;
    const CompressedDelta delta = DeltaCompress(
        family.base->weights(), family.finetuned->weights(), family.calibration, cfg);
    const ByteBuffer raw = EncodeDelta(delta);
    const SteadyTimer timer;
    const ByteBuffer gz = GdeflateCompress(raw);
    const double secs = timer.Seconds();
    DZ_CHECK(GdeflateDecompress(gz) == raw);
    const ByteBuffer rle = RleCompress(raw);
    DZ_CHECK(RleDecompress(rle) == raw);
    measured_ratio = CompressionRatio(raw.size(), gz.size());
    table.AddRow({std::to_string(bits), std::to_string(raw.size()),
                  std::to_string(gz.size()),
                  Table::Num(CompressionRatio(raw.size(), gz.size()), 3),
                  std::to_string(rle.size())});
    std::printf("  [bits=%d] gdeflate throughput %.1f MB/s (host-side; the paper uses "
                "GPU decompression engines)\n",
                bits, raw.size() / 1e6 / std::max(secs, 1e-9));
  }
  std::printf("\n%s\n", table.ToAscii().c_str());

  // Break-even analysis at paper scale: when does the smaller on-disk artifact beat
  // the added decompression step?
  const ModelShape shape = ModelShape::Llama13B();
  const size_t packed = shape.DeltaBytes(2);
  Table be({"storage", "bandwidth (GB/s)", "load packed (s)", "load lossless (s)",
            "lossless wins?"});
  for (const auto& [name, gbps] :
       std::vector<std::pair<const char*, double>>{{"NFS", 0.3}, {"NVMe", 3.0},
                                                   {"parallel-FS", 10.0}}) {
    const double codec_ratio = measured_ratio;  // measured above on real artifacts
    const double gpu_decomp_gbps = 50.0;        // nvcomp-class GDeflate on A100
    const double t_packed = packed / (gbps * 1e9);
    const double t_lossless =
        packed / codec_ratio / (gbps * 1e9) + packed / (gpu_decomp_gbps * 1e9);
    be.AddRow({name, Table::Num(gbps, 1), Table::Num(t_packed, 3),
               Table::Num(t_lossless, 3), t_lossless < t_packed ? "yes" : "no"});
  }
  std::printf("disk-read break-even at 13B scale (2-bit delta = %zu MB):\n\n%s\n",
              packed / 1000000, be.ToAscii().c_str());
  std::printf("Expected shape (paper §4.1): opt in to lossless when disk I/O is the\n"
              "bottleneck (NFS); skip it on fast local storage.\n");
}

}  // namespace
}  // namespace dz

int main() {
  dz::Run();
  return 0;
}
