// Internal declarations shared by the dispatch table and the kernel TUs.
// Callers use simd.hpp; nothing outside src/tensor/simd/ includes this.
#pragma once

#include <cstddef>

namespace dcn::simd::detail {

// Portable scalar kernels (gemm_generic.cpp) — always compiled.
void gemm_f32_generic(const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t i0, std::size_t i1, std::size_t n,
                      std::size_t k);
void gemm_f64acc_generic(const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         std::size_t i0, std::size_t i1, std::size_t n,
                         std::size_t k);
void gemm_f64acc_bt_generic(const float* a, std::size_t lda, const float* b,
                            std::size_t ldb, float* c, std::size_t ldc,
                            std::size_t i0, std::size_t i1, std::size_t n,
                            std::size_t k);

#if defined(DCN_SIMD_AVX2_COMPILED)
// AVX2+FMA microkernels (gemm_avx2.cpp, built with -mavx2 -mfma
// -ffp-contract=off). Only callable after a runtime CPUID check.
void gemm_f32_avx2(const float* a, std::size_t lda, const float* b,
                   std::size_t ldb, float* c, std::size_t ldc, std::size_t i0,
                   std::size_t i1, std::size_t n, std::size_t k);
void gemm_f64acc_avx2(const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t i0, std::size_t i1, std::size_t n,
                      std::size_t k);
void gemm_f64acc_bt_avx2(const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         std::size_t i0, std::size_t i1, std::size_t n,
                         std::size_t k);
#endif

}  // namespace dcn::simd::detail
