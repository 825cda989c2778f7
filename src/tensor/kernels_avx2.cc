// AVX2 kernel backend: VecOps<8> from kernels_vector.h. Compiled only on
// x86-64, with `-mavx2 -ffp-contract=off` (see src/tensor/CMakeLists.txt);
// entered only after a runtime __builtin_cpu_supports("avx2") probe, so no AVX
// instruction can fault on an older CPU.
#include "src/tensor/kernels_vector.h"

#if !defined(__AVX2__)
#error "kernels_avx2.cc must be compiled with -mavx2"
#endif

namespace dz {
namespace kernels {

const Backend* GetAvx2Backend() {
  return MakeBackendTable<VecOps<8>>("avx2", "AVX2 (8-wide fp32)");
}

}  // namespace kernels
}  // namespace dz
