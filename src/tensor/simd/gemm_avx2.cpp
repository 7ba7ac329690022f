// AVX2+FMA GEMM microkernels, 8x8 register tiles.
//
// This is the only translation unit in the tree allowed to use raw SIMD
// intrinsics (dcn-lint rule `simd`). It is compiled with
// -mavx2 -mfma -ffp-contract=off and must only run after dispatch.cpp's
// CPUID check passes.
//
// Bit-exactness by construction (tests/kernel_diff.hpp is the fence):
//
//   * Lanes are distinct output elements. A ymm register holds 8 (float) or
//     4 (double) different C columns; no element's reduction is ever split
//     across lanes, so per element the operation sequence is exactly the
//     scalar reference's: p strictly ascending.
//   * gemm_f64acc and gemm_f64acc_bt use real FMA. The products are doubles
//     promoted from float (24-bit mantissas), so every product fits exactly
//     in a double's 53-bit mantissa: FMA's fused rounding and mul-then-add's
//     two roundings produce identical bits, and vfmadd231pd is free
//     determinism-wise.
//   * gemm_f32 must NOT use FMA. Its contract is float mul-then-add with a
//     rounding after each, so the tile uses mul_ps + add_ps; -ffp-contract
//     =off keeps the compiler from fusing the scalar tail loops either.
//   * Tails (n % 8, rows % band) fall back to scalar loops with the same
//     per-element order, compiled under the same contraction ban.
//
// The 8x8 C tile is register-resident: 8 ymm float accumulators for
// gemm_f32 (one 8-wide register per row), and for gemm_f64acc two 4-row
// bands of 8 ymm double accumulators each (doubles halve the lane width, so
// an 8x8 double tile is walked as two register-blocked 4x8 halves).
// gemm_f64acc_bt reads B untransposed, so it has no packed panel: it walks
// C in tiles of up to 4 rows x 8 columns and transposes 4x4 tiles of B in
// registers, which keeps lanes = output columns without a pass over B.
#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "tensor/simd/gemm_impl.hpp"

namespace dcn::simd::detail {

namespace {

/// One 8-row x 8-column float tile: C[r][j..j+8) += sum_p A[r][p] * B[p].
/// The zero-skip mirrors the scalar kernel: a zero A term contributes
/// nothing and is skipped per (row, p), identically on both paths.
inline void f32_tile_8x8(const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         std::size_t i, std::size_t j, std::size_t k) {
  const float* a0 = a + (i + 0) * lda;
  const float* a1 = a + (i + 1) * lda;
  const float* a2 = a + (i + 2) * lda;
  const float* a3 = a + (i + 3) * lda;
  const float* a4 = a + (i + 4) * lda;
  const float* a5 = a + (i + 5) * lda;
  const float* a6 = a + (i + 6) * lda;
  const float* a7 = a + (i + 7) * lda;
  __m256 c0 = _mm256_loadu_ps(c + (i + 0) * ldc + j);
  __m256 c1 = _mm256_loadu_ps(c + (i + 1) * ldc + j);
  __m256 c2 = _mm256_loadu_ps(c + (i + 2) * ldc + j);
  __m256 c3 = _mm256_loadu_ps(c + (i + 3) * ldc + j);
  __m256 c4 = _mm256_loadu_ps(c + (i + 4) * ldc + j);
  __m256 c5 = _mm256_loadu_ps(c + (i + 5) * ldc + j);
  __m256 c6 = _mm256_loadu_ps(c + (i + 6) * ldc + j);
  __m256 c7 = _mm256_loadu_ps(c + (i + 7) * ldc + j);
  for (std::size_t p = 0; p < k; ++p) {
    const __m256 bv = _mm256_loadu_ps(b + p * ldb + j);
    // mul_ps + add_ps, NOT fmadd: the float contract rounds the product.
    if (a0[p] != 0.0F) {
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(a0[p]), bv));
    }
    if (a1[p] != 0.0F) {
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(a1[p]), bv));
    }
    if (a2[p] != 0.0F) {
      c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(a2[p]), bv));
    }
    if (a3[p] != 0.0F) {
      c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(a3[p]), bv));
    }
    if (a4[p] != 0.0F) {
      c4 = _mm256_add_ps(c4, _mm256_mul_ps(_mm256_set1_ps(a4[p]), bv));
    }
    if (a5[p] != 0.0F) {
      c5 = _mm256_add_ps(c5, _mm256_mul_ps(_mm256_set1_ps(a5[p]), bv));
    }
    if (a6[p] != 0.0F) {
      c6 = _mm256_add_ps(c6, _mm256_mul_ps(_mm256_set1_ps(a6[p]), bv));
    }
    if (a7[p] != 0.0F) {
      c7 = _mm256_add_ps(c7, _mm256_mul_ps(_mm256_set1_ps(a7[p]), bv));
    }
  }
  _mm256_storeu_ps(c + (i + 0) * ldc + j, c0);
  _mm256_storeu_ps(c + (i + 1) * ldc + j, c1);
  _mm256_storeu_ps(c + (i + 2) * ldc + j, c2);
  _mm256_storeu_ps(c + (i + 3) * ldc + j, c3);
  _mm256_storeu_ps(c + (i + 4) * ldc + j, c4);
  _mm256_storeu_ps(c + (i + 5) * ldc + j, c5);
  _mm256_storeu_ps(c + (i + 6) * ldc + j, c6);
  _mm256_storeu_ps(c + (i + 7) * ldc + j, c7);
}

/// Single-row float tile for the m-tail.
inline void f32_tile_1x8(const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         std::size_t i, std::size_t j, std::size_t k) {
  const float* arow = a + i * lda;
  __m256 acc = _mm256_loadu_ps(c + i * ldc + j);
  for (std::size_t p = 0; p < k; ++p) {
    const float av = arow[p];
    if (av == 0.0F) continue;
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_set1_ps(av), _mm256_loadu_ps(b + p * ldb + j)));
  }
  _mm256_storeu_ps(c + i * ldc + j, acc);
}

/// One 4-row x 8-column double-accumulator band over a packed B panel
/// (bp[8 * p + 0..7] = (double)B[p][j..j+8)). Overwrites C with the
/// narrowed sums, like the scalar reference.
inline void f64_band_4x8(const float* a, std::size_t lda, const double* bp,
                         float* c, std::size_t ldc, std::size_t i,
                         std::size_t j, std::size_t k) {
  const float* a0 = a + (i + 0) * lda;
  const float* a1 = a + (i + 1) * lda;
  const float* a2 = a + (i + 2) * lda;
  const float* a3 = a + (i + 3) * lda;
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < k; ++p) {
    const __m256d b0 = _mm256_loadu_pd(bp + 8 * p);
    const __m256d b1 = _mm256_loadu_pd(bp + 8 * p + 4);
    const __m256d v0 = _mm256_set1_pd(static_cast<double>(a0[p]));
    c00 = _mm256_fmadd_pd(v0, b0, c00);
    c01 = _mm256_fmadd_pd(v0, b1, c01);
    const __m256d v1 = _mm256_set1_pd(static_cast<double>(a1[p]));
    c10 = _mm256_fmadd_pd(v1, b0, c10);
    c11 = _mm256_fmadd_pd(v1, b1, c11);
    const __m256d v2 = _mm256_set1_pd(static_cast<double>(a2[p]));
    c20 = _mm256_fmadd_pd(v2, b0, c20);
    c21 = _mm256_fmadd_pd(v2, b1, c21);
    const __m256d v3 = _mm256_set1_pd(static_cast<double>(a3[p]));
    c30 = _mm256_fmadd_pd(v3, b0, c30);
    c31 = _mm256_fmadd_pd(v3, b1, c31);
  }
  const auto store = [&](std::size_t r, __m256d lo, __m256d hi) {
    float* crow = c + (i + r) * ldc + j;
    _mm_storeu_ps(crow, _mm256_cvtpd_ps(lo));
    _mm_storeu_ps(crow + 4, _mm256_cvtpd_ps(hi));
  };
  store(0, c00, c01);
  store(1, c10, c11);
  store(2, c20, c21);
  store(3, c30, c31);
}

/// Single-row double-accumulator band for the m-tail.
inline void f64_band_1x8(const float* a, std::size_t lda, const double* bp,
                         float* c, std::size_t ldc, std::size_t i,
                         std::size_t j, std::size_t k) {
  const float* arow = a + i * lda;
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < k; ++p) {
    const __m256d av = _mm256_set1_pd(static_cast<double>(arow[p]));
    acc0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(bp + 8 * p), acc0);
    acc1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(bp + 8 * p + 4), acc1);
  }
  float* crow = c + i * ldc + j;
  _mm_storeu_ps(crow, _mm256_cvtpd_ps(acc0));
  _mm_storeu_ps(crow + 4, _mm256_cvtpd_ps(acc1));
}

/// Rows [i, i + R) x columns [j, j + 4G) of C = A * B^T with B row-major
/// [n, k] (one row per output column). `ad` holds those R rows of A promoted
/// to double, row stride k. Lane l of column group g is output column
/// j + 4g + l: every four p-steps, the group's 4x4 tile of B is promoted and
/// transposed in registers, so each lane still accumulates its own column
/// in strictly ascending p.
template <std::size_t R, std::size_t G>
inline void f64bt_tile(const double* ad, std::size_t k, const float* b,
                       std::size_t ldb, float* c, std::size_t ldc,
                       std::size_t i, std::size_t j) {
  __m256d acc[R][G];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) acc[r][g] = _mm256_setzero_pd();
  }
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      const float* bg = b + (j + 4 * g) * ldb + p;
      // rN = column (j + 4g + N)'s B[., p..p+3].
      const __m256d r0 = _mm256_cvtps_pd(_mm_loadu_ps(bg));
      const __m256d r1 = _mm256_cvtps_pd(_mm_loadu_ps(bg + ldb));
      const __m256d r2 = _mm256_cvtps_pd(_mm_loadu_ps(bg + 2 * ldb));
      const __m256d r3 = _mm256_cvtps_pd(_mm_loadu_ps(bg + 3 * ldb));
      const __m256d lo01 = _mm256_unpacklo_pd(r0, r1);
      const __m256d hi01 = _mm256_unpackhi_pd(r0, r1);
      const __m256d lo23 = _mm256_unpacklo_pd(r2, r3);
      const __m256d hi23 = _mm256_unpackhi_pd(r2, r3);
      // tQ = the four columns' B[., p + Q].
      const __m256d t0 = _mm256_permute2f128_pd(lo01, lo23, 0x20);
      const __m256d t1 = _mm256_permute2f128_pd(hi01, hi23, 0x20);
      const __m256d t2 = _mm256_permute2f128_pd(lo01, lo23, 0x31);
      const __m256d t3 = _mm256_permute2f128_pd(hi01, hi23, 0x31);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const double* ar = ad + r * k + p;
        __m256d v = acc[r][g];
        v = _mm256_fmadd_pd(_mm256_broadcast_sd(ar), t0, v);
        v = _mm256_fmadd_pd(_mm256_broadcast_sd(ar + 1), t1, v);
        v = _mm256_fmadd_pd(_mm256_broadcast_sd(ar + 2), t2, v);
        acc[r][g] = _mm256_fmadd_pd(_mm256_broadcast_sd(ar + 3), t3, v);
      }
    }
  }
  for (; p < k; ++p) {
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      const float* bg = b + (j + 4 * g) * ldb + p;
      const __m256d t =
          _mm256_set_pd(bg[3 * ldb], bg[2 * ldb], bg[ldb], bg[0]);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        acc[r][g] =
            _mm256_fmadd_pd(_mm256_broadcast_sd(ad + r * k + p), t, acc[r][g]);
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      _mm_storeu_ps(c + (i + r) * ldc + j + 4 * g, _mm256_cvtpd_ps(acc[r][g]));
    }
  }
}

/// f64bt_tile for a band of `rows` (1..4) rows.
template <std::size_t G>
inline void f64bt_band(std::size_t rows, const double* ad, std::size_t k,
                       const float* b, std::size_t ldb, float* c,
                       std::size_t ldc, std::size_t i, std::size_t j) {
  switch (rows) {
    case 1:
      f64bt_tile<1, G>(ad, k, b, ldb, c, ldc, i, j);
      break;
    case 2:
      f64bt_tile<2, G>(ad, k, b, ldb, c, ldc, i, j);
      break;
    case 3:
      f64bt_tile<3, G>(ad, k, b, ldb, c, ldc, i, j);
      break;
    default:
      f64bt_tile<4, G>(ad, k, b, ldb, c, ldc, i, j);
      break;
  }
}

}  // namespace

void gemm_f32_avx2(const float* a, std::size_t lda, const float* b,
                   std::size_t ldb, float* c, std::size_t ldc, std::size_t i0,
                   std::size_t i1, std::size_t n, std::size_t k) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    std::size_t i = i0;
    for (; i + 8 <= i1; i += 8) f32_tile_8x8(a, lda, b, ldb, c, ldc, i, j, k);
    for (; i < i1; ++i) f32_tile_1x8(a, lda, b, ldb, c, ldc, i, j, k);
  }
  if (j < n) {
    // n-tail: scalar, same ops and order as the generic kernel
    // (-ffp-contract=off keeps mul-then-add unfused).
    for (std::size_t i = i0; i < i1; ++i) {
      const float* arow = a + i * lda;
      float* crow = c + i * ldc;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0F) continue;
        const float* brow = b + p * ldb;
        for (std::size_t jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
      }
    }
  }
}

void gemm_f64acc_avx2(const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t i0, std::size_t i1, std::size_t n,
                      std::size_t k) {
  // B panel promoted to double once per 8-column tile and reused by every
  // row band in this chunk. Promotion is exact, so packing cannot change any
  // bit of the result.
  std::vector<double> bpack(8 * k);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    for (std::size_t p = 0; p < k; ++p) {
      const float* brow = b + p * ldb + j;
      _mm256_storeu_pd(bpack.data() + 8 * p,
                       _mm256_cvtps_pd(_mm_loadu_ps(brow)));
      _mm256_storeu_pd(bpack.data() + 8 * p + 4,
                       _mm256_cvtps_pd(_mm_loadu_ps(brow + 4)));
    }
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      f64_band_4x8(a, lda, bpack.data(), c, ldc, i, j, k);
    }
    for (; i < i1; ++i) f64_band_1x8(a, lda, bpack.data(), c, ldc, i, j, k);
  }
  if (j < n) {
    // n-tail: scalar double accumulation, p ascending — identical sequence
    // to the generic kernel (and FMA-contraction of exact products could not
    // change the bits anyway).
    for (std::size_t i = i0; i < i1; ++i) {
      const float* arow = a + i * lda;
      float* crow = c + i * ldc;
      for (std::size_t jj = j; jj < n; ++jj) {
        double acc = 0.0;
        for (std::size_t p = 0; p < k; ++p) {
          acc += static_cast<double>(arow[p]) *
                 static_cast<double>(b[p * ldb + jj]);
        }
        crow[jj] = static_cast<float>(acc);
      }
    }
  }
}

void gemm_f64acc_bt_avx2(const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         std::size_t i0, std::size_t i1, std::size_t n,
                         std::size_t k) {
  // The chunk's A rows, promoted to double once (exactly) and read back
  // through memory-operand broadcasts by every column tile.
  std::vector<double> ad((i1 - i0) * k);
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = a + i * lda;
    double* drow = ad.data() + (i - i0) * k;
    for (std::size_t p = 0; p < k; ++p) drow[p] = static_cast<double>(arow[p]);
  }
  for (std::size_t i = i0; i < i1; i += 4) {
    const std::size_t rows = std::min<std::size_t>(4, i1 - i);
    const double* band = ad.data() + (i - i0) * k;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      f64bt_band<2>(rows, band, k, b, ldb, c, ldc, i, j);
    }
    if (j + 4 <= n) {
      f64bt_band<1>(rows, band, k, b, ldb, c, ldc, i, j);
      j += 4;
    }
    // n-tail: scalar double dots, p ascending — the generic kernel's
    // sequence.
    for (; j < n; ++j) {
      const float* brow = b + j * ldb;
      for (std::size_t r = 0; r < rows; ++r) {
        const double* arow = band + r * k;
        double acc = 0.0;
        for (std::size_t p = 0; p < k; ++p) {
          acc += arow[p] * static_cast<double>(brow[p]);
        }
        c[(i + r) * ldc + j] = static_cast<float>(acc);
      }
    }
  }
}

}  // namespace dcn::simd::detail
