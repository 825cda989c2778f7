// Backend dispatch selection (ISSUE 10): the pure SelectBackendName logic
// (DZ_ISA override wins only when compiled AND CPU-supported, otherwise the
// probe order falls through widest-first), plus the process-level API
// invariants — ForceBackend rejects unknown names, CompiledBackends always
// ends in "scalar", and the active table carries the current ABI version.
#include "src/tensor/backend.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dz {
namespace kernels {
namespace {

std::vector<BackendChoice> X86AllSupported() {
  return {{"avx512", true}, {"avx2", true}, {"scalar", true}};
}

TEST(SelectBackendNameTest, NoOverridePicksFirstSupported) {
  EXPECT_EQ(SelectBackendName(X86AllSupported(), nullptr), "avx512");
  EXPECT_EQ(SelectBackendName(X86AllSupported(), ""), "avx512");
}

TEST(SelectBackendNameTest, ProbeOrderSkipsUnsupported) {
  // Binary carries AVX-512 code but the CPU only has AVX2: fall through to
  // the widest supported entry, not all the way to scalar.
  const std::vector<BackendChoice> avx2_cpu = {
      {"avx512", false}, {"avx2", true}, {"scalar", true}};
  EXPECT_EQ(SelectBackendName(avx2_cpu, nullptr), "avx2");

  const std::vector<BackendChoice> plain_cpu = {
      {"avx512", false}, {"avx2", false}, {"scalar", true}};
  EXPECT_EQ(SelectBackendName(plain_cpu, nullptr), "scalar");
}

TEST(SelectBackendNameTest, OverrideWinsWhenCompiledAndSupported) {
  EXPECT_EQ(SelectBackendName(X86AllSupported(), "scalar"), "scalar");
  EXPECT_EQ(SelectBackendName(X86AllSupported(), "avx2"), "avx2");
}

TEST(SelectBackendNameTest, UnknownOverrideFallsThroughToProbe) {
  EXPECT_EQ(SelectBackendName(X86AllSupported(), "bogus"), "avx512");
}

TEST(SelectBackendNameTest, UnsupportedOverrideFallsThroughToProbe) {
  // DZ_ISA names a backend that is compiled in but the CPU can't run it: the
  // override must NOT win (executing it would SIGILL), probe order decides.
  const std::vector<BackendChoice> avx2_cpu = {
      {"avx512", false}, {"avx2", true}, {"scalar", true}};
  EXPECT_EQ(SelectBackendName(avx2_cpu, "avx512"), "avx2");
}

TEST(SelectBackendNameTest, EmptyCandidateListFallsBackToScalar) {
  EXPECT_EQ(SelectBackendName({}, nullptr), "scalar");
  const std::vector<BackendChoice> none_supported = {{"avx512", false}};
  EXPECT_EQ(SelectBackendName(none_supported, nullptr), "scalar");
}

TEST(BackendDispatchTest, CompiledBackendsEndWithScalar) {
  const std::vector<std::string> compiled = CompiledBackends();
  ASSERT_FALSE(compiled.empty());
  EXPECT_EQ(compiled.back(), "scalar");
  // Probe order is widest-first, so scalar appears exactly once, at the end.
  for (size_t i = 0; i + 1 < compiled.size(); ++i) {
    EXPECT_NE(compiled[i], "scalar");
  }
}

TEST(BackendDispatchTest, ForceBackendRejectsUnknownName) {
  const std::string before = ActiveBackend().name;
  EXPECT_FALSE(ForceBackend("bogus"));
  EXPECT_FALSE(ForceBackend(""));
  // A failed force leaves the selection untouched.
  EXPECT_EQ(std::string(ActiveBackend().name), before);
}

TEST(BackendDispatchTest, ForceAndResetRoundTrip) {
  ASSERT_TRUE(ForceBackend("scalar"));
  EXPECT_STREQ(ActiveBackend().name, "scalar");
  EXPECT_EQ(ActiveBackend().vector_width, 1);
  ResetBackend();
  // After reset the probe reselects; whatever it picks must be supported.
  EXPECT_TRUE(BackendSupported(ActiveBackend().name));
}

TEST(BackendDispatchTest, ActiveTableIsWellFormed) {
  const Backend& b = ActiveBackend();
  EXPECT_GE(b.vector_width, 1);
  EXPECT_NE(b.isa, nullptr);
  // Every slot must be populated — a null entry would crash at first use.
  EXPECT_NE(b.gemm_nn, nullptr);
  EXPECT_NE(b.gemm_nt, nullptr);
  EXPECT_NE(b.gemm_tn, nullptr);
  EXPECT_NE(b.quant_gemm_nt, nullptr);
  EXPECT_NE(b.sparse24_gemm_nt, nullptr);
  EXPECT_NE(b.transpose, nullptr);
  EXPECT_NE(b.add_span, nullptr);
  EXPECT_NE(b.sub_span, nullptr);
  EXPECT_NE(b.scale_span, nullptr);
  EXPECT_NE(b.axpy_span, nullptr);
  EXPECT_NE(b.match_len, nullptr);
  EXPECT_NE(b.copy_match, nullptr);
}

TEST(BackendDispatchTest, EverySupportedBackendIsForceable) {
  const std::string before = ActiveBackend().name;
  for (const std::string& name : CompiledBackends()) {
    if (!BackendSupported(name)) {
      EXPECT_FALSE(ForceBackend(name))
          << "'" << name << "' is unsupported on this CPU yet force succeeded";
      continue;
    }
    EXPECT_TRUE(ForceBackend(name));
    EXPECT_EQ(std::string(ActiveBackend().name), name);
  }
  ResetBackend();
  EXPECT_TRUE(BackendSupported(before));
}

}  // namespace
}  // namespace kernels
}  // namespace dz
