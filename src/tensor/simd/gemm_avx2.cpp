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
//   * gemm_f32 runs its n-tail as masked 8-lane tiles (maskload and
//     maskstore touch only the columns below n) and its last rows as one
//     1-7-row tile. The f64acc tails (n % 8, n % 4) fall back to scalar
//     loops with the same per-element order, compiled under the same
//     contraction ban.
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

/// The 8 columns [j, j + 8) of a float tile; `kMasked` tiles keep only the
/// lanes `mask` selects (the n-tail), whose loads and stores never touch
/// the columns past n.
template <bool kMasked>
inline __m256 load_cols(const float* p, __m256i mask) {
  if constexpr (kMasked) {
    return _mm256_maskload_ps(p, mask);
  } else {
    return _mm256_loadu_ps(p);
  }
}

template <bool kMasked>
inline void store_cols(float* p, __m256i mask, __m256 v) {
  if constexpr (kMasked) {
    _mm256_maskstore_ps(p, mask, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

/// The n-tail lanes [0, n % 8) of an 8-column tile.
inline __m256i tail_mask(std::size_t lanes) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// R rows x 8 columns of C += A * B in float, one register per row. With
/// `kSkip`, a zero A term is skipped without a branch: its lane adds -0.0f,
/// which leaves every value (+0 and -0 included) bit for bit unchanged, so
/// the result is the scalar kernel's `if (av == 0) continue` — and 0 * inf
/// never reaches the sum. Without `kSkip` (A holds no zero) every term is
/// added as is.
template <std::size_t R, bool kMasked, bool kSkip>
inline void f32_tile(const float* a, std::size_t lda, const float* b,
                     std::size_t ldb, float* c, std::size_t ldc,
                     std::size_t i, std::size_t j, std::size_t k,
                     __m256i mask) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 neg_zero = _mm256_set1_ps(-0.0F);
  __m256 acc[R];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    acc[r] = load_cols<kMasked>(c + (i + r) * ldc + j, mask);
  }
  for (std::size_t p = 0; p < k; ++p) {
    const __m256 bv = load_cols<kMasked>(b + p * ldb + j, mask);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + (i + r) * lda + p);
      // mul_ps + add_ps, NOT fmadd: the float contract rounds the product.
      __m256 term = _mm256_mul_ps(av, bv);
      if constexpr (kSkip) {
        term = _mm256_blendv_ps(neg_zero, term,
                                _mm256_cmp_ps(av, zero, _CMP_NEQ_UQ));
      }
      acc[r] = _mm256_add_ps(acc[r], term);
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    store_cols<kMasked>(c + (i + r) * ldc + j, mask, acc[r]);
  }
}

/// The rows [i0, i1) of one column tile: 8-row tiles, then one tile of the
/// 1-7 rows left, so even a short band keeps several independent
/// accumulator chains in flight.
template <bool kMasked, bool kSkip>
inline void f32_column_tile(const float* a, std::size_t lda, const float* b,
                            std::size_t ldb, float* c, std::size_t ldc,
                            std::size_t i0, std::size_t i1, std::size_t j,
                            std::size_t k, __m256i mask) {
  std::size_t i = i0;
  for (; i + 8 <= i1; i += 8) {
    f32_tile<8, kMasked, kSkip>(a, lda, b, ldb, c, ldc, i, j, k, mask);
  }
  switch (i1 - i) {
    case 0:
      break;
    case 1:
      f32_tile<1, kMasked, kSkip>(a, lda, b, ldb, c, ldc, i, j, k, mask);
      break;
    case 2:
      f32_tile<2, kMasked, kSkip>(a, lda, b, ldb, c, ldc, i, j, k, mask);
      break;
    case 3:
      f32_tile<3, kMasked, kSkip>(a, lda, b, ldb, c, ldc, i, j, k, mask);
      break;
    case 4:
      f32_tile<4, kMasked, kSkip>(a, lda, b, ldb, c, ldc, i, j, k, mask);
      break;
    case 5:
      f32_tile<5, kMasked, kSkip>(a, lda, b, ldb, c, ldc, i, j, k, mask);
      break;
    case 6:
      f32_tile<6, kMasked, kSkip>(a, lda, b, ldb, c, ldc, i, j, k, mask);
      break;
    default:
      f32_tile<7, kMasked, kSkip>(a, lda, b, ldb, c, ldc, i, j, k, mask);
      break;
  }
}

/// gemm_f32 over rows [i0, i1) in register tiles: full 8-column tiles,
/// then the n-tail as the same tiles on its first n % 8 lanes.
template <bool kSkip>
inline void f32_tiles(const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t i0, std::size_t i1, std::size_t n,
                      std::size_t k) {
  const std::size_t full = n - n % 8;
  for (std::size_t j = 0; j < full; j += 8) {
    f32_column_tile<false, kSkip>(a, lda, b, ldb, c, ldc, i0, i1, j, k,
                                  _mm256_set1_epi32(-1));
  }
  if (full < n) {
    f32_column_tile<true, kSkip>(a, lda, b, ldb, c, ldc, i0, i1, full, k,
                                 tail_mask(n % 8));
  }
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
  // One pass over the chunk's A rows picks the tiles. An A without zeros
  // (weights, dense operands) runs them with nothing to skip. An A with
  // zeros — training gradients and activations after ReLU and max-pool,
  // mostly zeros — skips by blending: a per-term branch, tested once per
  // 8-column tile, would mispredict on them.
  std::size_t zeros = 0;
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = a + i * lda;
    for (std::size_t p = 0; p < k; ++p) zeros += arow[p] == 0.0F ? 1 : 0;
  }
  if (zeros == 0) {
    f32_tiles<false>(a, lda, b, ldb, c, ldc, i0, i1, n, k);
  } else {
    f32_tiles<true>(a, lda, b, ldb, c, ldc, i0, i1, n, k);
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
