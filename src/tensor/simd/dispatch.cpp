// Runtime kernel dispatch: compile-time gate (DCN_SIMD) AND CPUID AND the
// DCN_SIMD environment variable decide the startup path; force_path() lets
// tests and benches pin it.
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/simd/gemm_impl.hpp"
#include "tensor/simd/simd.hpp"

namespace dcn::simd {

namespace {

constexpr GemmKernels kGenericKernels{&detail::gemm_f32_generic,
                                      &detail::gemm_f64acc_generic,
                                      &detail::gemm_f64acc_bt_generic};

#if defined(DCN_SIMD_AVX2_COMPILED)
constexpr GemmKernels kAvx2Kernels{&detail::gemm_f32_avx2,
                                   &detail::gemm_f64acc_avx2,
                                   &detail::gemm_f64acc_bt_avx2};
#endif

/// True when DCN_SIMD in the environment asks for the generic path.
bool env_disables_simd() {
  const char* raw = std::getenv("DCN_SIMD");
  if (raw == nullptr) return false;
  const std::string v(raw);
  return v == "off" || v == "OFF" || v == "0" || v == "generic";
}

GemmPath initial_path() {
  if (avx2_compiled() && avx2_runtime_supported() && !env_disables_simd()) {
    return GemmPath::kAvx2;
  }
  return GemmPath::kGeneric;
}

std::atomic<GemmPath>& current_path() {
  static std::atomic<GemmPath> path{initial_path()};
  return path;
}

bool path_available(GemmPath path) {
  if (path == GemmPath::kGeneric) return true;
  return avx2_compiled() && avx2_runtime_supported();
}

}  // namespace

bool avx2_compiled() {
#if defined(DCN_SIMD_AVX2_COMPILED)
  return true;
#else
  return false;
#endif
}

bool avx2_runtime_supported() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

GemmPath active_path() {
  return current_path().load(std::memory_order_relaxed);
}

const char* path_name(GemmPath path) {
  switch (path) {
    case GemmPath::kAvx2:
      return "avx2";
    case GemmPath::kGeneric:
      break;
  }
  return "generic";
}

const char* active_path_name() { return path_name(active_path()); }

std::vector<GemmPath> available_paths() {
  std::vector<GemmPath> paths{GemmPath::kGeneric};
  if (path_available(GemmPath::kAvx2)) paths.push_back(GemmPath::kAvx2);
  return paths;
}

const GemmKernels& kernels_for(GemmPath path) {
  if (!path_available(path)) {
    throw std::invalid_argument(
        std::string("simd path not available on this build/CPU: ") +
        path_name(path));
  }
#if defined(DCN_SIMD_AVX2_COMPILED)
  if (path == GemmPath::kAvx2) return kAvx2Kernels;
#endif
  return kGenericKernels;
}

const GemmKernels& kernels() { return kernels_for(active_path()); }

GemmPath force_path(GemmPath path) {
  if (!path_available(path)) {
    throw std::invalid_argument(
        std::string("simd path not available on this build/CPU: ") +
        path_name(path));
  }
  return current_path().exchange(path, std::memory_order_relaxed);
}

}  // namespace dcn::simd
