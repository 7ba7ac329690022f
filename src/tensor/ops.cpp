#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "runtime/kernel_stats.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/simd/simd.hpp"

namespace dcn::ops {

namespace {

void require_rank2(const Tensor& t, const char* who) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string(who) + ": expected rank-2, got " +
                                t.shape().to_string());
  }
}

// GEMM accounting for the dcn_kernel_* metric families: 2mnk flops and the
// A+B+C float32 footprint. Observation only — never touches the data path.
void count_gemm(std::size_t m, std::size_t n, std::size_t k, std::uint64_t ns,
                bool simd) {
  const auto flops = static_cast<std::uint64_t>(2) * m * n * k;
  const auto bytes =
      static_cast<std::uint64_t>(sizeof(float)) * (m * k + k * n + m * n);
  runtime::kernel_stats().on_gemm(flops, bytes, ns, simd);
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul(a)");
  require_rank2(b, "matmul(b)");
  const std::size_t m = a.dim(0), k = a.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("matmul: inner dimension mismatch " +
                                a.shape().to_string() + " * " +
                                b.shape().to_string());
  }
  const std::size_t n = b.dim(1);
  Tensor c(Shape{m, n});
  const runtime::KernelTimer timer;
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  // Row-parallel dispatch: each chunk owns a disjoint slice of C rows, so
  // threads never share an output element, and every kernel behind
  // simd::kernels() keeps the per-element accumulation order (p strictly
  // ascending, float accumulate, zero A terms skipped) identical at any
  // thread count and on every dispatch path.
  const simd::GemmKernels& kern = simd::kernels();
  runtime::parallel_for(0, m, 2 * k * n, [&](std::size_t i0, std::size_t i1) {
    kern.gemm_f32(pa, k, pb, n, pc, n, i0, i1, n, k);
  });
  count_gemm(m, n, k, timer.ns(),
             simd::active_path() != simd::GemmPath::kGeneric);
  return c;
}

Tensor matmul_at_b(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_at_b(a)");
  require_rank2(b, "matmul_at_b(b)");
  const std::size_t k = a.dim(0), m = a.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("matmul_at_b: leading dimension mismatch");
  }
  const std::size_t n = b.dim(1);
  Tensor c(Shape{m, n});
  const runtime::KernelTimer timer;
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  // The dispatched A * B kernel reads A by output row, so A^T is laid out
  // once (m * k floats, small beside the 2mnk product). gemm_f32 keeps
  // this function's per-element contract: float multiply-then-add, p
  // ascending, terms with a[p, i] == 0 skipped.
  std::vector<float> at(m * k);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t i = 0; i < m; ++i) at[i * k + p] = pa[p * m + i];
  }
  const simd::GemmKernels& kern = simd::kernels();
  runtime::parallel_for(0, m, 2 * k * n, [&](std::size_t i0, std::size_t i1) {
    kern.gemm_f32(at.data(), k, pb, n, pc, n, i0, i1, n, k);
  });
  count_gemm(m, n, k, timer.ns(),
             simd::active_path() != simd::GemmPath::kGeneric);
  return c;
}

Tensor matmul_a_bt(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_a_bt(a)");
  require_rank2(b, "matmul_a_bt(b)");
  const std::size_t m = a.dim(0), k = a.dim(1);
  if (b.dim(1) != k) {
    throw std::invalid_argument("matmul_a_bt: inner dimension mismatch");
  }
  const std::size_t n = b.dim(0);
  Tensor c(Shape{m, n});
  const runtime::KernelTimer timer;
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  // Below 64 rows the dispatched A * B^T kernel reads B's rows in place
  // (the AVX2 entry transposes 4x4 tiles of B in registers); from 64 rows a
  // one-off transpose of B pays for itself and the job is a plain
  // gemm_f64acc. One thread of a 4-vCPU Xeon VM, in place vs transposed, at
  // 8/14/32/64/256 rows: Dense 300->64 17/32/72/142/575 vs
  // 36/52/88/151/544 us, Dense 64->10 1.8/3.0/6.4/13.9/52.8 vs
  // 2.2/3.3/6.3/12.2/44.8 us. Both kernels accumulate each element over p
  // in ascending order in double, so the two paths give identical bits.
  const simd::GemmKernels& kern = simd::kernels();
  if (m < 64 || n == 1) {
    runtime::parallel_for(
        0, m, 2 * k * n, [&](std::size_t i0, std::size_t i1) {
          kern.gemm_f64acc_bt(pa, k, pb, k, pc, n, i0, i1, n, k);
        });
  } else {
    std::vector<float> bt(k * n);
    runtime::parallel_for(0, k, n, [&](std::size_t p0, std::size_t p1) {
      for (std::size_t p = p0; p < p1; ++p) {
        for (std::size_t j = 0; j < n; ++j) bt[p * n + j] = pb[j * k + p];
      }
    });
    runtime::parallel_for(
        0, m, 2 * k * n, [&](std::size_t i0, std::size_t i1) {
          kern.gemm_f64acc(pa, k, bt.data(), n, pc, n, i0, i1, n, k);
        });
  }
  count_gemm(m, n, k, timer.ns(),
             simd::active_path() != simd::GemmPath::kGeneric);
  return c;
}

Tensor transpose(const Tensor& a) {
  require_rank2(a, "transpose");
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor t(Shape{n, m});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) t(j, i) = a(i, j);
  }
  return t;
}

namespace {

// Shared row-wise stable softmax core; `log_form` selects log-softmax.
Tensor softmax_impl(const Tensor& logits, float temperature, bool log_form) {
  if (temperature <= 0.0F) {
    throw std::invalid_argument("softmax: temperature must be positive");
  }
  const bool vector_input = logits.rank() == 1;
  const std::size_t rows = vector_input ? 1 : logits.dim(0);
  const std::size_t cols = vector_input ? logits.dim(0) : logits.dim(1);
  Tensor out = logits;
  float* p = out.data().data();
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = p + r * cols;
    float mx = row[0];
    for (std::size_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      denom += std::exp((row[j] - mx) / temperature);
    }
    const double log_denom = std::log(denom);
    for (std::size_t j = 0; j < cols; ++j) {
      const double z = (row[j] - mx) / temperature;
      row[j] = log_form ? static_cast<float>(z - log_denom)
                        : static_cast<float>(std::exp(z - log_denom));
    }
  }
  return out;
}

}  // namespace

Tensor softmax(const Tensor& logits, float temperature) {
  return softmax_impl(logits, temperature, /*log_form=*/false);
}

Tensor log_softmax(const Tensor& logits, float temperature) {
  return softmax_impl(logits, temperature, /*log_form=*/true);
}

double dot(const Tensor& a, const Tensor& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dot: size mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return acc;
}

Tensor axpy(const Tensor& a, float scale, const Tensor& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("axpy: size mismatch");
  }
  Tensor out = a;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += scale * b[i];
  return out;
}

std::vector<std::size_t> argmax_rows(const Tensor& m) {
  require_rank2(m, "argmax_rows");
  const std::size_t rows = m.dim(0), cols = m.dim(1);
  std::vector<std::size_t> out(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t best = 0;
    for (std::size_t j = 1; j < cols; ++j) {
      if (m(r, j) > m(r, best)) best = j;
    }
    out[r] = best;
  }
  return out;
}

}  // namespace dcn::ops
