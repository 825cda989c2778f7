// AVX-512 kernel backend: VecOps<16> from kernels_vector.h. Compiled only on
// x86-64, with `-mavx512f -ffp-contract=off`; entered only after a runtime
// __builtin_cpu_supports("avx512f") probe. GCC's -mavx512f implies -mavx2, so
// the 8x8 transposes and byte helpers run on 256-bit registers.
#include "src/tensor/kernels_vector.h"

#if !defined(__AVX512F__)
#error "kernels_avx512.cc must be compiled with -mavx512f"
#endif

namespace dz {
namespace kernels {

const Backend* GetAvx512Backend() {
  return MakeBackendTable<VecOps<16>>("avx512", "AVX-512F (16-wide fp32)");
}

}  // namespace kernels
}  // namespace dz
