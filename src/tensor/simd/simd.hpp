// SIMD GEMM microkernels behind runtime dispatch.
//
// Three kernel entries, each with a portable generic implementation and an
// AVX2+FMA one selected by CPUID at startup:
//
//   gemm_f32     C[i, 0..n) += sum_p A[i, p] * B[p, 0..n)   (matmul contract)
//                float accumulation directly into C, one rounded multiply and
//                one rounded add per term, p strictly ascending per element,
//                and terms with A[i, p] == 0.0f skipped. matmul, matmul_at_b
//                and the convolution backward run on it; there A is often a
//                ReLU / max-pool gradient or activation, mostly zeros, so
//                the AVX2 entry skips zero terms branch-free when A has any.
//   gemm_f64acc  C[i, 0..n) = (float) sum_p (double)A[i, p] * (double)B[p, j]
//                (matmul_a_bt / conv contract) — double accumulation with p
//                strictly ascending per element, rounded once on the final
//                narrowing store.
//   gemm_f64acc_bt
//                C[i, j] = (float) sum_p (double)A[i, p] * (double)B[j, p]
//                (matmul_a_bt with B untransposed) — the gemm_f64acc
//                contract read straight from B's rows. Its own entry because
//                served Dense calls are 1–2 rows: a one-off transpose of B
//                costs as much as the product there, so the kernel
//                transposes 4x4 tiles of B in registers instead.
//
// Determinism contract (why the AVX2 kernels are bit-identical, not merely
// close): SIMD lanes are only ever distinct OUTPUT elements — a lane never
// splits one element's reduction, so the per-element operation sequence is
// exactly the scalar reference's. For the f64acc entries the kernels use
// real FMA (vfmadd*pd): a product of two float-promoted doubles is exact
// (24+24 mantissa bits < 53), so FMA's single rounding and mul-then-add's
// rounding land on the same bits — FMA is provably free here. For gemm_f32 the
// contract is float mul-then-add with two roundings, so the AVX2 kernel uses
// mul_ps + add_ps and the TU is compiled with -ffp-contract=off; contracting
// to FMA would drop the multiply's rounding and drift from the scalar path.
//
// Dispatch: the path is chosen once — compile-time availability (the CMake
// DCN_SIMD switch gates the AVX2 TU) AND runtime CPUID AND the DCN_SIMD
// environment variable ("off"/"0"/"generic" forces the fallback). Tests and
// benches may pin a path with force_path(); like set_thread_count, that is
// not safe while a parallel_for is in flight. The active path is exported
// through runtime::kernel_stats and the obs metrics registry
// (dcn_kernel_simd_dispatch).
//
// tests/kernel_diff.hpp is the fence: every kernel change must keep the
// exhaustive tail/edge shape sweep bit-exact against the scalar reference on
// every available path.
#pragma once

#include <cstddef>
#include <vector>

namespace dcn::simd {

enum class GemmPath {
  kGeneric = 0,  // portable scalar kernels (the contract reference)
  kAvx2 = 1,     // 8x8-register-tiled AVX2(+FMA) microkernels
};

/// The dispatchable kernel set. Every function pointer is always non-null.
struct GemmKernels {
  /// Rows [i0, i1): C[i*ldc + j] += sum_p A[i*lda + p] * B[p*ldb + j] for
  /// j in [0, n), float accumulation, p ascending, A == 0 terms skipped.
  void (*gemm_f32)(const float* a, std::size_t lda, const float* b,
                   std::size_t ldb, float* c, std::size_t ldc, std::size_t i0,
                   std::size_t i1, std::size_t n, std::size_t k);
  /// Rows [i0, i1): C[i*ldc + j] = (float) sum_p (double)A[i*lda + p] *
  /// (double)B[p*ldb + j] for j in [0, n), double accumulation, p ascending.
  void (*gemm_f64acc)(const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t i0, std::size_t i1, std::size_t n,
                      std::size_t k);
  /// Rows [i0, i1): C[i*ldc + j] = (float) sum_p (double)A[i*lda + p] *
  /// (double)B[j*ldb + p] for j in [0, n), double accumulation, p ascending.
  /// B holds one row per output column (the Dense weight layout).
  void (*gemm_f64acc_bt)(const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         std::size_t i0, std::size_t i1, std::size_t n,
                         std::size_t k);
};

/// True when the AVX2 TU was compiled in (CMake -DDCN_SIMD=ON on x86-64).
bool avx2_compiled();

/// True when the running CPU reports AVX2 and FMA.
bool avx2_runtime_supported();

/// The path chosen at startup: AVX2 when compiled in, supported by the CPU,
/// and not disabled via the DCN_SIMD environment variable; generic otherwise.
GemmPath active_path();

/// Stable lowercase name for a path ("generic" / "avx2").
const char* path_name(GemmPath path);

/// path_name(active_path()) — the value the metrics registry exports.
const char* active_path_name();

/// Every path runnable on this build/CPU (always contains kGeneric).
std::vector<GemmPath> available_paths();

/// Kernels for an explicit path. Throws std::invalid_argument when the path
/// is not available (AVX2 not compiled in or not supported by the CPU).
const GemmKernels& kernels_for(GemmPath path);

/// Kernels for the active path.
const GemmKernels& kernels();

/// Pin the dispatch decision (tests / benches / the differential harness).
/// Returns the previous path. Throws when `path` is unavailable. Not safe
/// while a parallel_for is in flight.
GemmPath force_path(GemmPath path);

}  // namespace dcn::simd
