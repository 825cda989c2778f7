// Scalar (portable C++) kernel backend — always compiled, last in probe
// order, and the reference point for the bit-identity contract: every other
// backend must produce byte-identical results to this one (which in turn
// matches kernels::ref by the parity tests).
//
// Built WITHOUT any -m flags so the binary runs on any CPU the toolchain
// targets. Inner loops are the ScalarOps defaults from kernels_generic.h:
// plain loops with multi-accumulator interleaving, and GCC/Clang generic
// vectors for the NT micro-kernel and the decode lanes (independent lanes,
// no reordering of any per-element reduction chain).
#include "src/tensor/kernels_generic.h"

namespace dz {
namespace kernels {

const Backend* GetScalarBackend() {
  return MakeBackendTable<ScalarOps>("scalar", "portable C++ (no SIMD)");
}

}  // namespace kernels
}  // namespace dz
