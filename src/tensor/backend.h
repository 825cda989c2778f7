// Runtime-dispatched SIMD kernel backends (ISSUE 10).
//
// The kernel layer compiles one translation unit per ISA (scalar always, the
// portable path on every target; AVX2/AVX-512 on x86-64) with that ISA's -m
// flags, each instantiating the same blocked drivers from kernels_generic.h
// around its micro-kernels: ScalarOps for scalar, and for the vector ISAs one
// generic-vector VecOps<W> (kernels_vector.h) at W = 8 and 16. At first use
// the dispatcher probes the CPU (__builtin_cpu_supports on x86) and selects
// the widest compiled-and-supported backend. The GEMM and span entry points
// in matrix.h and the packed, panel and tile types' MatmulNT call through the
// selected table, so no call site names an ISA.
//
// Selection order (first hit wins):
//   1. ForceBackend(name)       — programmatic, used by tests/benches/CLI --isa
//   2. DZ_ISA=<name> env var    — unknown/unsupported values warn and fall through
//   3. CPU probe, widest first  — avx512 > avx2 > scalar
//
// Bit-identity contract: every backend's micro-kernels vectorize ONLY across
// independent output elements (one accumulator chain per output column); each
// element's k-terms accumulate in exactly the naive kernels::ref order, and the
// per-ISA TUs compile with -ffp-contract=off so no mul+add pair is fused into
// an FMA. Switching backends therefore never changes a single output bit —
// enforced bitwise by tests/tensor/kernel_parity_test.cc for every compiled
// backend. The GEMMs split their output into tiles on
// ThreadPool::ParallelFor2D; output elements are independent, so the
// partition never shows in a result.
#ifndef SRC_TENSOR_BACKEND_H_
#define SRC_TENSOR_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dz {

class LaneTiles;
class Matrix;
class PackedQuantMatrix;
class PanelMatrix;
class Sparse24Matrix;

namespace kernels {

// One ISA's kernel implementations as a flat dispatch table. Instances are
// immutable statics owned by their translation unit; callers hold `const
// Backend&` from ActiveBackend() and never copy or mutate.
struct Backend {
  const char* name;  // dispatch key: "scalar" | "avx2" | "avx512"
  const char* isa;   // human-readable ISA description for report headers
  int vector_width;  // fp32 lanes per vector register (1 for scalar)

  // Dense GEMM family: C = A·B, A·Bᵀ and Aᵀ·B (Matmul, MatmulNT, MatmulTN).
  Matrix (*gemm_nn)(const Matrix&, const Matrix&);
  Matrix (*gemm_nt)(const Matrix&, const Matrix&);
  Matrix (*gemm_tn)(const Matrix&, const Matrix&);

  // A dense weight stored in the NT micro-kernel's panel layout
  // (panel_matrix.h): pack_panels writes w's panels into storage sized by
  // PanelMatrix, panel_gemm_nt is x * w^T read from them.
  void (*pack_panels)(const Matrix& w, float* panels);
  Matrix (*panel_gemm_nt)(const Matrix&, const PanelMatrix&);

  // Compressed-format GEMMs, and either format stored in the decoder's register
  // layout (lane_tiles.h), read from the tiles.
  Matrix (*quant_gemm_nt)(const Matrix&, const PackedQuantMatrix&);
  Matrix (*sparse24_gemm_nt)(const Matrix&, const Sparse24Matrix&);
  Matrix (*tile_gemm_nt)(const Matrix&, const LaneTiles&);

  Matrix (*transpose)(const Matrix&);

  // Elementwise spans (independent elements; trivially order-preserving).
  void (*add_span)(float*, const float*, size_t);
  void (*sub_span)(float*, const float*, size_t);
  void (*scale_span)(float*, float, size_t);
  void (*axpy_span)(float, const float*, float*, size_t);

  // Byte spans for the lossless codec. match_len returns the length of the
  // common prefix of a and b (both valid for `max` bytes). copy_match performs
  // the LZ77 overlapped copy dst[i] = dst[i - dist] for i in [0, len) with
  // byte-sequential semantics (dist < width replicates, exactly like the
  // byte-at-a-time loop).
  size_t (*match_len)(const uint8_t* a, const uint8_t* b, size_t max);
  void (*copy_match)(uint8_t* dst, size_t dist, size_t len);
};

// The currently selected backend. First call performs the probe (cheap,
// lock-free afterwards). Thread-safe to call concurrently.
const Backend& ActiveBackend();

// Selects a backend by name. Returns false (selection unchanged) when the name
// is not compiled in or the CPU does not support it. Not meant to be raced
// against in-flight kernel calls — flip it at startup or between phases, as the
// tests/benches/CLI do.
bool ForceBackend(const std::string& name);

// Drops any ForceBackend choice and re-runs the DZ_ISA/probe selection.
void ResetBackend();

// Names of every backend compiled into this binary, probe order (widest
// first, "scalar" always last). Independent of what the CPU supports.
std::vector<std::string> CompiledBackends();

// True when `name` is compiled in AND the running CPU supports it.
bool BackendSupported(const std::string& name);

// Pure selection logic, exposed so the dispatch unit test can exercise it
// without patching the process environment: `compiled` is the probe-ordered
// candidate list with per-CPU support flags, `env_override` mirrors DZ_ISA
// (nullptr/empty = unset). Returns the chosen name: the override when it names
// a compiled-and-supported candidate, otherwise the first supported one.
struct BackendChoice {
  std::string name;
  bool supported;
};
std::string SelectBackendName(const std::vector<BackendChoice>& compiled,
                              const char* env_override);

}  // namespace kernels
}  // namespace dz

#endif  // SRC_TENSOR_BACKEND_H_
