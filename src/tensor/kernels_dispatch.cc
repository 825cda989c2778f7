// Backend registry + runtime selection (see backend.h for the contract).
//
// Which Get*Backend() factories exist is decided at configure time: CMake
// defines DZ_KERNELS_HAVE_AVX2/AVX512 only when the toolchain can build
// the matching TU for the target architecture. Whether a compiled backend is
// *entered* is decided here at runtime via CPU probes, so a binary carrying
// AVX-512 code still runs (on the next-widest backend) on a CPU without it.
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "src/tensor/backend.h"
#include "src/util/check.h"

namespace dz {
namespace kernels {

// Per-ISA factories, each defined in its own translation unit.
const Backend* GetScalarBackend();
#if defined(DZ_KERNELS_HAVE_AVX2)
const Backend* GetAvx2Backend();
#endif
#if defined(DZ_KERNELS_HAVE_AVX512)
const Backend* GetAvx512Backend();
#endif

namespace {

#if defined(DZ_KERNELS_HAVE_AVX2) || defined(DZ_KERNELS_HAVE_AVX512)
bool CpuSupports(const char* feature) {
  __builtin_cpu_init();
  if (__builtin_strcmp(feature, "avx2") == 0) {
    return __builtin_cpu_supports("avx2");
  }
  return __builtin_cpu_supports("avx512f");
}
#endif

struct Entry {
  const char* name;
  const Backend* (*get)();
  bool supported;  // probed once at first touch; CPU features don't change
};

const std::vector<Entry>& Registry() {
  // Probe order: widest first, scalar always last (and always supported).
  static const std::vector<Entry> entries = [] {
    std::vector<Entry> e;
#if defined(DZ_KERNELS_HAVE_AVX512)
    e.push_back({"avx512", &GetAvx512Backend, CpuSupports("avx512f")});
#endif
#if defined(DZ_KERNELS_HAVE_AVX2)
    e.push_back({"avx2", &GetAvx2Backend, CpuSupports("avx2")});
#endif
    e.push_back({"scalar", &GetScalarBackend, true});
    return e;
  }();
  return entries;
}

// Runs the DZ_ISA / probe selection. Warns (once) on stderr when DZ_ISA names
// a backend that is not compiled in or not supported by this CPU.
const Backend* ProbeSelect() {
  std::vector<BackendChoice> choices;
  choices.reserve(Registry().size());
  for (const Entry& e : Registry()) {
    choices.push_back({e.name, e.supported});
  }
  const char* env = std::getenv("DZ_ISA");
  const std::string chosen = SelectBackendName(choices, env);
  if (env != nullptr && *env != '\0' && chosen != env) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "dz: DZ_ISA=%s is not compiled in or not supported by this "
                   "CPU; falling back to '%s'\n",
                   env, chosen.c_str());
    }
  }
  for (const Entry& e : Registry()) {
    if (chosen == e.name) {
      return e.get();
    }
  }
  DZ_CHECK(false);  // SelectBackendName only returns names from the list
  return nullptr;
}

std::atomic<const Backend*> g_active{nullptr};

}  // namespace

std::string SelectBackendName(const std::vector<BackendChoice>& compiled,
                              const char* env_override) {
  if (env_override != nullptr && *env_override != '\0') {
    for (const BackendChoice& c : compiled) {
      if (c.supported && c.name == env_override) {
        return c.name;
      }
    }
  }
  for (const BackendChoice& c : compiled) {
    if (c.supported) {
      return c.name;
    }
  }
  return "scalar";  // unreachable with a well-formed list; safe default
}

const Backend& ActiveBackend() {
  const Backend* b = g_active.load(std::memory_order_acquire);
  if (b == nullptr) {
    const Backend* fresh = ProbeSelect();
    const Backend* expected = nullptr;
    if (!g_active.compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel)) {
      fresh = expected;  // another thread won the race; both are valid
    }
    b = fresh;
  }
  return *b;
}

bool ForceBackend(const std::string& name) {
  for (const Entry& e : Registry()) {
    if (name == e.name && e.supported) {
      g_active.store(e.get(), std::memory_order_release);
      return true;
    }
  }
  return false;
}

void ResetBackend() {
  g_active.store(ProbeSelect(), std::memory_order_release);
}

std::vector<std::string> CompiledBackends() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const Entry& e : Registry()) {
    names.emplace_back(e.name);
  }
  return names;
}

bool BackendSupported(const std::string& name) {
  for (const Entry& e : Registry()) {
    if (name == e.name) {
      return e.supported;
    }
  }
  return false;
}

}  // namespace kernels
}  // namespace dz
