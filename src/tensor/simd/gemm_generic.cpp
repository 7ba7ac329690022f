// Portable generic GEMM kernels — the contract-defining implementations.
//
// These are the seed's scalar loops (blocked for cache, autovectorizable),
// hoisted out of ops.cpp/conv.cpp so the AVX2 microkernels have a reference
// to be bit-identical against. The cache blocking here never changes the
// per-element accumulation order: for every output element the p loop runs
// strictly ascending, in float for gemm_f32 and in double for gemm_f64acc
// and gemm_f64acc_bt.
#include <algorithm>
#include <cstddef>
#include <vector>

#include "tensor/simd/simd.hpp"

namespace dcn::simd::detail {

namespace {

// Cache-block sizes shared by the generic kernels. kKc panels of the shared
// dimension stay resident in L1/L2 while a row block streams through; kJc
// keeps the C row segment and B panel columns together. Fixed constants
// (never derived from the thread count) so blocking cannot perturb the
// accumulation order between runs at different DCN_THREADS values.
constexpr std::size_t kKc = 256;
constexpr std::size_t kJc = 1024;

}  // namespace

void gemm_f32_generic(const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t i0, std::size_t i1, std::size_t n,
                      std::size_t k) {
  // Blocked ikj: per element the accumulation order is p ascending within
  // each k-panel, panels ascending — i.e. p strictly ascending overall.
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t j0 = 0; j0 < n; j0 += kJc) {
      const std::size_t j1 = std::min(n, j0 + kJc);
      for (std::size_t i = i0; i < i1; ++i) {
        const float* arow = a + i * lda;
        float* crow = c + i * ldc;
        for (std::size_t p = p0; p < p1; ++p) {
          const float av = arow[p];
          if (av == 0.0F) continue;
          const float* brow = b + p * ldb;
          for (std::size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

void gemm_f64acc_generic(const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         std::size_t i0, std::size_t i1, std::size_t n,
                         std::size_t k) {
  // Rank-1 updates on a double scratch row: both operands stream
  // contiguously and the inner loop vectorizes, while each output element
  // still accumulates over p in ascending order in double.
  std::vector<double> acc(std::min(n, kJc));
  for (std::size_t j0 = 0; j0 < n; j0 += kJc) {
    const std::size_t j1 = std::min(n, j0 + kJc);
    const std::size_t len = j1 - j0;
    for (std::size_t i = i0; i < i1; ++i) {
      std::fill(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(len),
                0.0);
      const float* arow = a + i * lda;
      for (std::size_t p = 0; p < k; ++p) {
        const double av = arow[p];
        const float* brow = b + p * ldb + j0;
        for (std::size_t jj = 0; jj < len; ++jj) {
          acc[jj] += av * static_cast<double>(brow[jj]);
        }
      }
      float* crow = c + i * ldc + j0;
      for (std::size_t jj = 0; jj < len; ++jj) {
        crow[jj] = static_cast<float>(acc[jj]);
      }
    }
  }
}

void gemm_f64acc_bt_generic(const float* a, std::size_t lda, const float* b,
                            std::size_t ldb, float* c, std::size_t ldc,
                            std::size_t i0, std::size_t i1, std::size_t n,
                            std::size_t k) {
  // One double dot per output element: both operands are traversed
  // contiguously (row i of A with row j of B), and blocking j keeps a panel
  // of B rows hot while arow streams from L1.
  for (std::size_t j0 = 0; j0 < n; j0 += kJc) {
    const std::size_t j1 = std::min(n, j0 + kJc);
    for (std::size_t i = i0; i < i1; ++i) {
      const float* arow = a + i * lda;
      for (std::size_t j = j0; j < j1; ++j) {
        const float* brow = b + j * ldb;
        double acc = 0.0;
        for (std::size_t p = 0; p < k; ++p) {
          acc += static_cast<double>(arow[p]) * static_cast<double>(brow[p]);
        }
        c[i * ldc + j] = static_cast<float>(acc);
      }
    }
  }
}

}  // namespace dcn::simd::detail
