// Differential tests for the SIMD GEMM microkernels (tests/kernel_diff.hpp
// is the shared harness). Three fences, all bitwise:
//
//   1. Kernel sweeps: every dispatch path vs the naive scalar references
//      over an exhaustive tail/edge shape grid, plus seeded randomized
//      property tests with injected (signed) zeros. Each test covers every
//      entry of simd::GemmKernels.
//   2. Op-level sweeps: ops::matmul / ops::matmul_a_bt /
//      conv::conv2d_forward_batch pinned to each path vs the references.
//   3. Golden seed-compatibility fixtures: logits, detector margins, and
//      corrector votes of a seeded convnet must reproduce the checked-in
//      bit patterns on every path (regenerate with DCN_REGEN_FIXTURES=1).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/corrector.hpp"
#include "core/detector.hpp"
#include "kernel_diff.hpp"
#include "models/model_zoo.hpp"
#include "nn/sequential.hpp"
#include "tensor/conv.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tensor/simd/simd.hpp"
#include "tensor/tensor.hpp"

namespace {

using dcn::Rng;
using dcn::Shape;
using dcn::Tensor;
using dcn::testing::describe;
using dcn::testing::diff;
using dcn::testing::DiffStats;
namespace simd = dcn::simd;

/// RAII pin of the dispatch path, restoring the previous one on exit.
class PathGuard {
 public:
  explicit PathGuard(simd::GemmPath path) : prev_(simd::force_path(path)) {}
  ~PathGuard() { simd::force_path(prev_); }
  PathGuard(const PathGuard&) = delete;
  PathGuard& operator=(const PathGuard&) = delete;

 private:
  simd::GemmPath prev_;
};

/// Random operand with ~20% exact zeros (and some negative zeros) injected,
/// so the zero-skip and signed-zero semantics are exercised everywhere.
std::vector<float> random_operand(std::size_t count, Rng& rng,
                                  bool inject_zeros) {
  std::vector<float> v(count);
  for (auto& x : v) {
    if (inject_zeros) {
      const double roll = rng.uniform();
      if (roll < 0.15) {
        x = 0.0F;
        continue;
      }
      if (roll < 0.20) {
        x = -0.0F;
        continue;
      }
    }
    x = static_cast<float>(rng.uniform(-1.5, 1.5));
  }
  return v;
}

/// B^T ([n, k], the matmul_a_bt operand) of a row-major [k, n] B, with each
/// row padded to `ldb` >= k floats. The padding holds NaN, so a kernel that
/// reads past k in a row fails the bitwise comparison.
std::vector<float> transposed(const std::vector<float>& b, std::size_t n,
                              std::size_t k, std::size_t ldb) {
  std::vector<float> bt(n * ldb, std::nanf(""));
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) bt[j * ldb + p] = b[p * n + j];
  }
  return bt;
}

/// All (m, n, k) triples of the tail/edge sweep.
std::vector<std::array<std::size_t, 3>> sweep_shapes() {
  const auto dims = dcn::testing::tail_sweep_dims();
  std::vector<std::array<std::size_t, 3>> shapes;
  shapes.reserve(dims.size() * dims.size() * dims.size());
  for (const auto m : dims) {
    for (const auto n : dims) {
      for (const auto k : dims) shapes.push_back({m, n, k});
    }
  }
  return shapes;
}

std::string shape_tag(std::size_t m, std::size_t n, std::size_t k,
                      simd::GemmPath path) {
  std::ostringstream os;
  os << "m=" << m << " n=" << n << " k=" << k << " path="
     << simd::path_name(path);
  return os.str();
}

TEST(UlpDistance, CountsRepresentableSteps) {
  EXPECT_EQ(dcn::testing::ulp_distance(1.0F, 1.0F), 0U);
  EXPECT_EQ(dcn::testing::ulp_distance(1.0F, std::nextafterf(1.0F, 2.0F)), 1U);
  EXPECT_EQ(dcn::testing::ulp_distance(0.0F, -0.0F), 1U);
  EXPECT_EQ(dcn::testing::ulp_distance(-1.0F, 1.0F),
            2U * dcn::testing::ulp_distance(0.0F, 1.0F) + 1U);
  const float nan = std::nanf("");
  EXPECT_EQ(dcn::testing::ulp_distance(nan, 1.0F), UINT64_MAX);
  EXPECT_EQ(dcn::testing::ulp_distance(nan, nan), 0U);  // same bit pattern
}

TEST(UlpDistance, DoubleVariant) {
  EXPECT_EQ(dcn::testing::ulp_distance_d(1.0, 1.0), 0U);
  EXPECT_EQ(dcn::testing::ulp_distance_d(1.0, std::nextafter(1.0, 2.0)), 1U);
  EXPECT_EQ(dcn::testing::ulp_distance_d(0.0, -0.0), 1U);
}

// ---------------------------------------------------------------------------
// 1. Direct kernel sweeps.
// ---------------------------------------------------------------------------

TEST(KernelSweep, F32MatchesReferenceOnEveryPath) {
  Rng rng(0xD1FF01);
  // One shared operand pool sliced per shape keeps the sweep cheap; the
  // max dimension of the sweep bounds the slice.
  const std::size_t dmax = dcn::testing::tail_sweep_dims().back();
  const auto apool = random_operand(dmax * dmax, rng, /*inject_zeros=*/true);
  const auto bpool = random_operand(dmax * dmax, rng, /*inject_zeros=*/false);
  for (const auto path : simd::available_paths()) {
    const simd::GemmKernels& kern = simd::kernels_for(path);
    for (const auto& [m, n, k] : sweep_shapes()) {
      std::vector<float> a(apool.begin(), apool.begin() + m * k);
      std::vector<float> b(bpool.begin(), bpool.begin() + k * n);
      std::vector<float> c(m * n, 0.0F);
      kern.gemm_f32(a.data(), k, b.data(), n, c.data(), n, 0, m, n, k);
      const auto expected = dcn::testing::ref_matmul(a, b, m, n, k);
      const DiffStats stats = diff(expected, c);
      ASSERT_TRUE(stats.bit_identical())
          << describe(stats, "gemm_f32 " + shape_tag(m, n, k, path));
    }
  }
}

TEST(KernelSweep, F32AccumulatesIntoExistingC) {
  Rng rng(0xD1FF02);
  for (const auto path : simd::available_paths()) {
    const simd::GemmKernels& kern = simd::kernels_for(path);
    for (const std::size_t d : {3UL, 8UL, 9UL, 65UL}) {
      const std::size_t m = d, n = d, k = d;
      const auto a = random_operand(m * k, rng, true);
      const auto b = random_operand(k * n, rng, false);
      auto c = random_operand(m * n, rng, false);
      std::vector<float> expected = c;
      kern.gemm_f32(a.data(), k, b.data(), n, c.data(), n, 0, m, n, k);
      dcn::testing::ref_matmul_into(expected, a, b, m, n, k);
      DiffStats stats = diff(expected, c);
      ASSERT_TRUE(stats.bit_identical())
          << describe(stats, "gemm_f32 accumulate " + shape_tag(m, n, k, path));
      // The f64acc entries overwrite instead: whatever C held is ignored.
      const std::vector<float> bt = transposed(b, n, k, k);
      c = random_operand(m * n, rng, false);
      kern.gemm_f64acc_bt(a.data(), k, bt.data(), k, c.data(), n, 0, m, n, k);
      stats = diff(dcn::testing::ref_matmul_a_bt(a, bt, m, n, k), c);
      ASSERT_TRUE(stats.bit_identical()) << describe(
          stats, "gemm_f64acc_bt overwrite " + shape_tag(m, n, k, path));
    }
  }
}

TEST(KernelSweep, F32ZeroSkipKeepsSignedZerosAndInfinities) {
  // gemm_f32 skips zero A terms: a -0 already in C must survive, and a zero
  // A term must not meet an infinite B value (0 * inf = NaN). C is seeded
  // with -0 and +0; every even p pairs A == +/-0 with B == +/-inf, and A's
  // first row is all zeros, so its row of C must come back as seeded. Then
  // the same C seeding under an A without zeros, which takes the AVX2
  // kernel's no-skip tiles. The n values cover full tiles, the masked tail
  // and rows of several tiles.
  Rng rng(0xD1FF05);
  for (const auto path : simd::available_paths()) {
    const simd::GemmKernels& kern = simd::kernels_for(path);
    for (const auto& [m, n, k] : std::vector<std::array<std::size_t, 3>>{
             {3, 5, 4}, {9, 13, 9}, {12, 54, 121}, {17, 8, 6}}) {
      for (const bool sparse : {true, false}) {
        std::vector<float> a(m * k), b(k * n), c(m * n);
        for (std::size_t i = 0; i < m * k; ++i) {
          const float v = static_cast<float>(rng.uniform(0.5, 1.5));
          const bool zero = sparse && ((i % k) % 2 == 0 || i < k);
          a[i] = zero                  ? ((i / k) % 2 ? -0.0F : 0.0F)
                 : rng.uniform() < 0.5 ? -v
                                       : v;
        }
        for (std::size_t i = 0; i < k * n; ++i) {
          const float inf = (i % 3 == 0) ? -INFINITY : INFINITY;
          b[i] = sparse && (i / n) % 2 == 0
                     ? inf
                     : static_cast<float>(rng.uniform(-1.5, 1.5));
        }
        for (std::size_t i = 0; i < m * n; ++i) {
          c[i] = i % 2 == 0 ? -0.0F : 0.0F;
        }
        if (!sparse) {
          // Exact cancellation back to zero: a +0 that must not turn -0.
          c[0] = 1.0F;
        }
        std::vector<float> expected = c;
        dcn::testing::ref_matmul_into(expected, a, b, m, n, k);
        kern.gemm_f32(a.data(), k, b.data(), n, c.data(), n, 0, m, n, k);
        const DiffStats stats = diff(expected, c);
        ASSERT_TRUE(stats.bit_identical()) << describe(
            stats, std::string(sparse ? "sparse" : "dense") +
                       " gemm_f32 " + shape_tag(m, n, k, path));
      }
    }
  }
}

TEST(KernelSweep, F64AccMatchesReferenceOnEveryPath) {
  Rng rng(0xD1FF03);
  const std::size_t dmax = dcn::testing::tail_sweep_dims().back();
  const auto apool = random_operand(dmax * dmax, rng, /*inject_zeros=*/true);
  const auto bpool = random_operand(dmax * dmax, rng, /*inject_zeros=*/false);
  for (const auto path : simd::available_paths()) {
    const simd::GemmKernels& kern = simd::kernels_for(path);
    for (const auto& [m, n, k] : sweep_shapes()) {
      std::vector<float> a(apool.begin(), apool.begin() + m * k);
      std::vector<float> b(bpool.begin(), bpool.begin() + k * n);  // [k, n]
      // Reference takes B transposed ([n, k]); building it here also pins
      // the layout convention.
      const std::vector<float> bt = transposed(b, n, k, k);
      std::vector<float> c(m * n, -777.0F);  // overwrite semantics
      kern.gemm_f64acc(a.data(), k, b.data(), n, c.data(), n, 0, m, n, k);
      const auto expected = dcn::testing::ref_matmul_a_bt(a, bt, m, n, k);
      DiffStats stats = diff(expected, c);
      ASSERT_TRUE(stats.bit_identical())
          << describe(stats, "gemm_f64acc " + shape_tag(m, n, k, path));
      // gemm_f64acc_bt reads B^T in place, here with padded rows (ldb > k).
      const std::vector<float> bt_padded = transposed(b, n, k, k + 3);
      std::fill(c.begin(), c.end(), -777.0F);
      kern.gemm_f64acc_bt(a.data(), k, bt_padded.data(), k + 3, c.data(), n,
                          0, m, n, k);
      stats = diff(expected, c);
      ASSERT_TRUE(stats.bit_identical())
          << describe(stats, "gemm_f64acc_bt " + shape_tag(m, n, k, path));
    }
  }
}

/// Operands whose double sums depend on the order of every term. At
/// positions shared by all rows, A holds +-2^40 pairs that open and later
/// cancel, with B = 1 there; elsewhere both are small. A small term added
/// while a pair is open is rounded to 2^-12, one added outside it is not,
/// so any reordering of the p loop shows up in the narrowed float — which
/// random operands alone cannot show, since double accumulation absorbs
/// most reorderings before the final rounding.
struct CancellingOperands {
  std::vector<float> a;   // [m, k]
  std::vector<float> b;   // [k, n]
  std::vector<float> bt;  // [n, k]
};

CancellingOperands cancelling_operands(std::size_t m, std::size_t n,
                                       std::size_t k, Rng& rng) {
  constexpr float kBig = 0x1p40F;
  // big[p]: +1 opens a pair, -1 closes it, 0 is a small term.
  std::vector<int> big(k, 0);
  bool open = false;
  for (std::size_t p = 0; p < k; ++p) {
    const bool last = p + 1 == k;
    if (open && (last || rng.uniform() < 0.3)) {
      big[p] = -1;
      open = false;
    } else if (!open && !last && rng.uniform() < 0.3) {
      big[p] = 1;
      open = true;
    }
  }
  CancellingOperands ops{std::vector<float>(m * k),
                         std::vector<float>(k * n),
                         std::vector<float>(n * k)};
  for (std::size_t i = 0; i < m; ++i) {
    const float sign = rng.uniform() < 0.5 ? -1.0F : 1.0F;
    for (std::size_t p = 0; p < k; ++p) {
      ops.a[i * k + p] = big[p] != 0 ? sign * static_cast<float>(big[p]) * kBig
                                     : static_cast<float>(rng.uniform(-1, 1));
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      const float v =
          big[p] != 0 ? 1.0F : static_cast<float>(rng.uniform(-1, 1));
      ops.b[p * n + j] = v;
      ops.bt[j * k + p] = v;
    }
  }
  return ops;
}

TEST(KernelSweep, F64AccSummationOrderIsExact) {
  Rng rng(0xD1FF06);
  for (const auto path : simd::available_paths()) {
    const simd::GemmKernels& kern = simd::kernels_for(path);
    for (const auto& [m, n, k] : sweep_shapes()) {
      const CancellingOperands ops = cancelling_operands(m, n, k, rng);
      const auto expected =
          dcn::testing::ref_matmul_a_bt(ops.a, ops.bt, m, n, k);
      std::vector<float> c(m * n);
      kern.gemm_f64acc(ops.a.data(), k, ops.b.data(), n, c.data(), n, 0, m, n,
                       k);
      DiffStats stats = diff(expected, c);
      ASSERT_TRUE(stats.bit_identical()) << describe(
          stats, "cancelling gemm_f64acc " + shape_tag(m, n, k, path));
      kern.gemm_f64acc_bt(ops.a.data(), k, ops.bt.data(), k, c.data(), n, 0, m,
                          n, k);
      stats = diff(expected, c);
      ASSERT_TRUE(stats.bit_identical()) << describe(
          stats, "cancelling gemm_f64acc_bt " + shape_tag(m, n, k, path));
    }
  }
}

TEST(KernelSweep, RowRangesComposeLikeFullCalls) {
  // Chunked invocation (how parallel_for drives the kernels) must equal one
  // full-range call bit for bit, on every path.
  Rng rng(0xD1FF04);
  const std::size_t m = 37, n = 41, k = 29;
  const auto a = random_operand(m * k, rng, true);
  const auto b = random_operand(k * n, rng, false);
  for (const auto path : simd::available_paths()) {
    const simd::GemmKernels& kern = simd::kernels_for(path);
    std::vector<float> whole(m * n, 0.0F), chunked(m * n, 0.0F);
    kern.gemm_f32(a.data(), k, b.data(), n, whole.data(), n, 0, m, n, k);
    for (std::size_t i0 = 0; i0 < m; i0 += 5) {
      kern.gemm_f32(a.data(), k, b.data(), n, chunked.data(), n, i0,
                    std::min(m, i0 + 5), n, k);
    }
    DiffStats stats = diff(whole, chunked);
    ASSERT_TRUE(stats.bit_identical())
        << describe(stats, std::string("gemm_f32 chunked path=") +
                               simd::path_name(path));
    std::vector<float> whole64(m * n), chunked64(m * n);
    kern.gemm_f64acc(a.data(), k, b.data(), n, whole64.data(), n, 0, m, n, k);
    for (std::size_t i0 = 0; i0 < m; i0 += 3) {
      kern.gemm_f64acc(a.data(), k, b.data(), n, chunked64.data(), n, i0,
                       std::min(m, i0 + 3), n, k);
    }
    stats = diff(whole64, chunked64);
    ASSERT_TRUE(stats.bit_identical())
        << describe(stats, std::string("gemm_f64acc chunked path=") +
                               simd::path_name(path));
    // Chunks of 3 rows split the AVX2 4-row bands unevenly.
    const std::vector<float> bt = transposed(b, n, k, k);
    std::vector<float> whole_bt(m * n), chunked_bt(m * n);
    kern.gemm_f64acc_bt(a.data(), k, bt.data(), k, whole_bt.data(), n, 0, m, n,
                        k);
    for (std::size_t i0 = 0; i0 < m; i0 += 3) {
      kern.gemm_f64acc_bt(a.data(), k, bt.data(), k, chunked_bt.data(), n, i0,
                          std::min(m, i0 + 3), n, k);
    }
    stats = diff(whole_bt, chunked_bt);
    ASSERT_TRUE(stats.bit_identical())
        << describe(stats, std::string("gemm_f64acc_bt chunked path=") +
                               simd::path_name(path));
  }
}

TEST(KernelSweep, PathsBitIdenticalToEachOther) {
  const auto paths = simd::available_paths();
  if (paths.size() < 2) {
    GTEST_SKIP() << "only one dispatch path available on this build/CPU";
  }
  Rng rng(0xD1FF05);
  const std::size_t dmax = dcn::testing::tail_sweep_dims().back();
  const auto apool = random_operand(dmax * dmax, rng, true);
  const auto bpool = random_operand(dmax * dmax, rng, false);
  const simd::GemmKernels& base = simd::kernels_for(paths[0]);
  for (std::size_t pi = 1; pi < paths.size(); ++pi) {
    const simd::GemmKernels& other = simd::kernels_for(paths[pi]);
    for (const auto& [m, n, k] : sweep_shapes()) {
      std::vector<float> a(apool.begin(), apool.begin() + m * k);
      std::vector<float> b(bpool.begin(), bpool.begin() + k * n);
      std::vector<float> c0(m * n, 0.0F), c1(m * n, 0.0F);
      base.gemm_f32(a.data(), k, b.data(), n, c0.data(), n, 0, m, n, k);
      other.gemm_f32(a.data(), k, b.data(), n, c1.data(), n, 0, m, n, k);
      DiffStats stats = diff(c0, c1);
      ASSERT_TRUE(stats.bit_identical())
          << describe(stats, "cross-path gemm_f32 " +
                                 shape_tag(m, n, k, paths[pi]));
      base.gemm_f64acc(a.data(), k, b.data(), n, c0.data(), n, 0, m, n, k);
      other.gemm_f64acc(a.data(), k, b.data(), n, c1.data(), n, 0, m, n, k);
      stats = diff(c0, c1);
      ASSERT_TRUE(stats.bit_identical())
          << describe(stats, "cross-path gemm_f64acc " +
                                 shape_tag(m, n, k, paths[pi]));
      const std::vector<float> bt = transposed(b, n, k, k + 1);
      base.gemm_f64acc_bt(a.data(), k, bt.data(), k + 1, c0.data(), n, 0, m,
                          n, k);
      other.gemm_f64acc_bt(a.data(), k, bt.data(), k + 1, c1.data(), n, 0, m,
                           n, k);
      stats = diff(c0, c1);
      ASSERT_TRUE(stats.bit_identical())
          << describe(stats, "cross-path gemm_f64acc_bt " +
                                 shape_tag(m, n, k, paths[pi]));
    }
  }
}

TEST(KernelSweep, SeededRandomizedShapes) {
  // Property sweep over random shapes beyond the grid, same seed every run.
  Rng rng(20260805);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t m = 1 + rng.uniform_index(96);
    const std::size_t n = 1 + rng.uniform_index(96);
    const std::size_t k = 1 + rng.uniform_index(96);
    const auto a = random_operand(m * k, rng, true);
    const auto b = random_operand(k * n, rng, false);
    const std::vector<float> bt = transposed(b, n, k, k);
    const std::size_t ldb = k + rng.uniform_index(5);  // sometimes padded
    const std::vector<float> bt_ld = transposed(b, n, k, ldb);
    const auto expected32 = dcn::testing::ref_matmul(a, b, m, n, k);
    const auto expected64 = dcn::testing::ref_matmul_a_bt(a, bt, m, n, k);
    for (const auto path : simd::available_paths()) {
      const simd::GemmKernels& kern = simd::kernels_for(path);
      std::vector<float> c(m * n, 0.0F);
      kern.gemm_f32(a.data(), k, b.data(), n, c.data(), n, 0, m, n, k);
      DiffStats stats = diff(expected32, c);
      ASSERT_TRUE(stats.bit_identical())
          << describe(stats, "random gemm_f32 " + shape_tag(m, n, k, path));
      kern.gemm_f64acc(a.data(), k, b.data(), n, c.data(), n, 0, m, n, k);
      stats = diff(expected64, c);
      ASSERT_TRUE(stats.bit_identical())
          << describe(stats, "random gemm_f64acc " + shape_tag(m, n, k, path));
      kern.gemm_f64acc_bt(a.data(), k, bt_ld.data(), ldb, c.data(), n, 0, m, n,
                          k);
      stats = diff(expected64, c);
      ASSERT_TRUE(stats.bit_identical()) << describe(
          stats, "random gemm_f64acc_bt " + shape_tag(m, n, k, path) +
                     " ldb=" + std::to_string(ldb));
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Op-level sweeps: the production entry points pinned to each path.
// ---------------------------------------------------------------------------

Tensor tensor_from(const std::vector<float>& v, Shape shape) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < v.size(); ++i) t[i] = v[i];
  return t;
}

TEST(OpsDiff, MatmulMatchesReferenceOnEveryPath) {
  Rng rng(0x0D5D1F);
  for (const auto path : simd::available_paths()) {
    const PathGuard guard(path);
    // The last shape carries more than runtime::kMinChunkWork, so with a
    // multi-thread pool its rows are split across chunks.
    for (const auto& [m, n, k] : std::vector<std::array<std::size_t, 3>>{
             {1, 1, 1}, {7, 9, 5}, {8, 8, 8}, {9, 17, 33}, {64, 65, 63},
             {33, 129, 40}, {96, 160, 128}}) {
      const auto av = random_operand(m * k, rng, true);
      const auto bv = random_operand(k * n, rng, false);
      const Tensor c = dcn::ops::matmul(tensor_from(av, Shape{m, k}),
                                        tensor_from(bv, Shape{k, n}));
      const auto expected = dcn::testing::ref_matmul(av, bv, m, n, k);
      const DiffStats stats =
          diff(expected.data(), c.data().data(), expected.size());
      ASSERT_TRUE(stats.bit_identical())
          << describe(stats, "ops::matmul " + shape_tag(m, n, k, path));
    }
  }
}

TEST(OpsDiff, MatmulAtBMatchesReferenceOnEveryPath) {
  Rng rng(0x0D5D4F);
  for (const auto path : simd::available_paths()) {
    const PathGuard guard(path);
    // A is stored [k, m]; ops::matmul_at_b lays out A^T once and runs
    // gemm_f32, so the reference is ref_matmul on the transposed operand.
    // {32, 64, 300} is Dense 300->64's weight gradient at the training
    // batch; the last shape carries more than runtime::kMinChunkWork.
    for (const auto& [m, n, k] : std::vector<std::array<std::size_t, 3>>{
             {1, 1, 1}, {7, 9, 5}, {9, 17, 33}, {64, 300, 32}, {10, 64, 32},
             {96, 160, 128}}) {
      const auto av = random_operand(k * m, rng, true);
      const auto bv = random_operand(k * n, rng, false);
      std::vector<float> at(m * k);
      for (std::size_t p = 0; p < k; ++p) {
        for (std::size_t i = 0; i < m; ++i) at[i * k + p] = av[p * m + i];
      }
      const Tensor c = dcn::ops::matmul_at_b(tensor_from(av, Shape{k, m}),
                                             tensor_from(bv, Shape{k, n}));
      const auto expected = dcn::testing::ref_matmul(at, bv, m, n, k);
      const DiffStats stats =
          diff(expected.data(), c.data().data(), expected.size());
      ASSERT_TRUE(stats.bit_identical())
          << describe(stats, "ops::matmul_at_b " + shape_tag(m, n, k, path));
    }
  }
}

TEST(OpsDiff, MatmulABtMatchesReferenceOnEveryPath) {
  Rng rng(0x0D5D2F);
  for (const auto path : simd::available_paths()) {
    const PathGuard guard(path);
    // Wide shapes (m >= 64, n > 1) transpose B for gemm_f64acc; narrow ones
    // take gemm_f64acc_bt — the reference must match both bitwise. The
    // mnist_convnet Dense shapes at the served 1, 2 and 7 rows fill the AVX2
    // 8-column tiles, at 32 rows (the training batch) and at 63/64 rows sit
    // on either side of the cut-over; {96, 160, 128} carries more than
    // runtime::kMinChunkWork.
    for (const auto& [m, n, k] : std::vector<std::array<std::size_t, 3>>{
             {2, 3, 7}, {8, 2, 5}, {17, 9, 65}, {64, 33, 12}, {9, 1, 8},
             {96, 160, 128}, {1, 64, 300}, {2, 64, 300}, {7, 64, 300},
             {1, 10, 64}, {2, 10, 64}, {32, 64, 300}, {63, 64, 300},
             {64, 64, 300}, {32, 10, 64}, {63, 10, 64}, {64, 10, 64},
             {63, 33, 12}, {65, 1, 8}}) {
      const auto av = random_operand(m * k, rng, true);
      const auto btv = random_operand(n * k, rng, false);  // B is [n, k]
      const Tensor c = dcn::ops::matmul_a_bt(tensor_from(av, Shape{m, k}),
                                             tensor_from(btv, Shape{n, k}));
      const auto expected = dcn::testing::ref_matmul_a_bt(av, btv, m, n, k);
      const DiffStats stats =
          diff(expected.data(), c.data().data(), expected.size());
      ASSERT_TRUE(stats.bit_identical())
          << describe(stats, "ops::matmul_a_bt " + shape_tag(m, n, k, path));
    }
  }
}

TEST(OpsDiff, ConvBatchMatchesReferenceOnEveryPath) {
  Rng rng(0x0D5D3F);
  struct Case {
    std::size_t images, in_c, hw, out_c, kernel, stride, padding;
  };
  // The last case's GEMM carries more than runtime::kMinChunkWork.
  const std::vector<Case> cases = {
      {1, 1, 9, 3, 3, 1, 0},  {3, 2, 11, 8, 3, 1, 1}, {2, 3, 12, 9, 5, 2, 2},
      {1, 1, 28, 16, 5, 1, 2}, {4, 2, 8, 7, 3, 2, 0}, {3, 8, 28, 8, 3, 1, 1}};
  for (const auto path : simd::available_paths()) {
    const PathGuard guard(path);
    for (const auto& cs : cases) {
      const dcn::conv::Conv2DSpec spec{cs.in_c, cs.hw,     cs.hw,
                                       cs.kernel, cs.stride, cs.padding};
      const std::size_t patch = cs.in_c * cs.kernel * cs.kernel;
      const Tensor batch = tensor_from(
          random_operand(cs.images * cs.in_c * cs.hw * cs.hw, rng, true),
          Shape{cs.images, cs.in_c, cs.hw, cs.hw});
      const Tensor weights =
          tensor_from(random_operand(cs.out_c * patch, rng, true),
                      Shape{cs.out_c, patch});
      const Tensor bias =
          tensor_from(random_operand(cs.out_c, rng, false), Shape{cs.out_c});
      const Tensor out =
          dcn::conv::conv2d_forward_batch(batch, weights, bias, spec);
      const Tensor expected =
          dcn::testing::ref_conv2d_batch(batch, weights, bias, spec);
      const DiffStats stats =
          diff(expected.data().data(), out.data().data(), expected.size());
      ASSERT_TRUE(stats.bit_identical()) << describe(
          stats, "conv2d_forward_batch images=" + std::to_string(cs.images) +
                     " path=" + simd::path_name(path));
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Golden seed-compatibility fixtures.
// ---------------------------------------------------------------------------

struct Golden {
  std::vector<std::uint32_t> logits;    // float bit patterns, row-major [4,10]
  std::vector<std::uint64_t> margins;   // double bit patterns, one per image
  std::vector<std::size_t> votes;       // corrector vote histogram, image 0
};

/// Deterministically derive the fixture quantities: an untrained seeded
/// convnet's logits over a seeded uniform batch, the untrained detector's
/// margins on those logits, and the corrector's vote histogram on image 0.
/// Everything downstream of the GEMM dispatch — so a single checked-in file
/// fences every path AND the model/detector/corrector plumbing above it.
Golden compute_golden() {
  Rng model_rng(20260805);
  dcn::nn::Sequential net = dcn::models::mnist_convnet(model_rng);
  Rng data_rng(777001);
  const Tensor batch = Tensor::uniform(Shape{4, 1, 28, 28}, data_rng);
  const Tensor logits = net.logits_batch(batch);  // [4, 10]
  Golden g;
  g.logits.reserve(logits.size());
  for (std::size_t i = 0; i < logits.size(); ++i) {
    g.logits.push_back(dcn::testing::float_bits(logits[i]));
  }
  dcn::core::Detector detector(10);
  for (std::size_t b = 0; b < 4; ++b) {
    Tensor row(Shape{10});
    for (std::size_t j = 0; j < 10; ++j) row[j] = logits(b, j);
    g.margins.push_back(dcn::testing::double_bits(detector.margin(row)));
  }
  dcn::core::Corrector corrector(net);  // paper defaults, seed 4242
  Tensor x0(Shape{1, 28, 28});
  for (std::size_t i = 0; i < x0.size(); ++i) x0[i] = batch[i];
  g.votes = corrector.vote_histogram(x0);
  return g;
}

std::string fixture_path() {
  return std::string(DCN_FIXTURE_DIR) + "/golden_mnist_convnet.txt";
}

void write_golden(const Golden& g) {
  std::ofstream out(fixture_path());
  ASSERT_TRUE(out.good()) << "cannot write " << fixture_path();
  out << "dcn-golden-fixture v1\n";
  out << "logits " << g.logits.size() << "\n" << std::hex;
  for (const auto bits : g.logits) out << bits << "\n";
  out << std::dec << "margins " << g.margins.size() << "\n" << std::hex;
  for (const auto bits : g.margins) out << bits << "\n";
  out << std::dec << "votes " << g.votes.size() << "\n";
  for (const auto v : g.votes) out << v << "\n";
}

bool read_golden(Golden& g) {
  std::ifstream in(fixture_path());
  if (!in.good()) return false;
  std::string header, tag;
  std::getline(in, header);
  if (header != "dcn-golden-fixture v1") return false;
  std::size_t count = 0;
  in >> tag >> count;
  if (tag != "logits") return false;
  g.logits.resize(count);
  in >> std::hex;
  for (auto& bits : g.logits) in >> bits;
  in >> std::dec >> tag >> count;
  if (tag != "margins") return false;
  g.margins.resize(count);
  in >> std::hex;
  for (auto& bits : g.margins) in >> bits;
  in >> std::dec >> tag >> count;
  if (tag != "votes") return false;
  g.votes.resize(count);
  for (auto& v : g.votes) in >> v;
  return in.good();
}

TEST(GoldenFixture, SeedCompatibilityOnEveryPath) {
  if (std::getenv("DCN_REGEN_FIXTURES") != nullptr) {
    // Regeneration runs on the generic path: the contract says every path
    // produces these bits, and the sibling assertions below hold it to that.
    const PathGuard guard(simd::GemmPath::kGeneric);
    write_golden(compute_golden());
    GTEST_SKIP() << "fixture regenerated at " << fixture_path();
  }
  Golden expected;
  ASSERT_TRUE(read_golden(expected))
      << "missing or malformed fixture " << fixture_path()
      << " — regenerate with DCN_REGEN_FIXTURES=1";
  for (const auto path : simd::available_paths()) {
    const PathGuard guard(path);
    const Golden actual = compute_golden();
    ASSERT_EQ(actual.logits.size(), expected.logits.size());
    for (std::size_t i = 0; i < expected.logits.size(); ++i) {
      const float want = dcn::testing::float_from_bits(expected.logits[i]);
      const float got = dcn::testing::float_from_bits(actual.logits[i]);
      ASSERT_EQ(actual.logits[i], expected.logits[i])
          << "logit [" << i << "] drifted on path " << simd::path_name(path)
          << ": expected " << want << " (0x" << std::hex << expected.logits[i]
          << ") got " << got << " (0x" << actual.logits[i] << std::dec << "), "
          << dcn::testing::ulp_distance(want, got) << " ulp";
    }
    ASSERT_EQ(actual.margins.size(), expected.margins.size());
    for (std::size_t i = 0; i < expected.margins.size(); ++i) {
      const double want = dcn::testing::double_from_bits(expected.margins[i]);
      const double got = dcn::testing::double_from_bits(actual.margins[i]);
      ASSERT_EQ(actual.margins[i], expected.margins[i])
          << "detector margin [" << i << "] drifted on path "
          << simd::path_name(path) << ": expected " << want << " (0x"
          << std::hex << expected.margins[i] << ") got " << got << " (0x"
          << actual.margins[i] << std::dec << "), "
          << dcn::testing::ulp_distance_d(want, got) << " ulp";
    }
    ASSERT_EQ(actual.votes, expected.votes)
        << "corrector vote histogram drifted on path "
        << simd::path_name(path);
  }
}

}  // namespace
