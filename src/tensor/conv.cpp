#include "tensor/conv.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "runtime/kernel_stats.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd/simd.hpp"

namespace dcn::conv {

namespace {

void require_chw(const Tensor& image, const Conv2DSpec& spec,
                 const char* who) {
  if (image.rank() != 3 || image.dim(0) != spec.in_channels ||
      image.dim(1) != spec.in_height || image.dim(2) != spec.in_width) {
    throw std::invalid_argument(
        std::string(who) + ": image shape " + image.shape().to_string() +
        " does not match spec [" + std::to_string(spec.in_channels) + ", " +
        std::to_string(spec.in_height) + ", " + std::to_string(spec.in_width) +
        "]");
  }
}

}  // namespace

Tensor im2col(const Tensor& image, const Conv2DSpec& spec) {
  require_chw(image, spec, "im2col");
  const std::size_t oh = spec.out_height(), ow = spec.out_width();
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  Tensor cols(Shape{oh * ow, patch});
  const runtime::KernelTimer timer;
  const float* src = image.data().data();
  float* dst = cols.data().data();
  const std::size_t hw = spec.in_height * spec.in_width;
  // Each output row oy owns a disjoint [ow, patch] slice of `cols`, so the
  // gather parallelizes over rows with no shared writes.
  runtime::parallel_for(0, oh, ow * patch, [&](std::size_t oy0,
                                                 std::size_t oy1) {
  for (std::size_t oy = oy0; oy < oy1; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      float* prow = dst + (oy * ow + ox) * patch;
      std::size_t idx = 0;
      for (std::size_t c = 0; c < spec.in_channels; ++c) {
        for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
              static_cast<std::ptrdiff_t>(spec.padding);
          for (std::size_t kx = 0; kx < spec.kernel; ++kx, ++idx) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                static_cast<std::ptrdiff_t>(spec.padding);
            if (iy < 0 || ix < 0 ||
                iy >= static_cast<std::ptrdiff_t>(spec.in_height) ||
                ix >= static_cast<std::ptrdiff_t>(spec.in_width)) {
              prow[idx] = 0.0F;
            } else {
              prow[idx] = src[c * hw + static_cast<std::size_t>(iy) *
                                           spec.in_width +
                              static_cast<std::size_t>(ix)];
            }
          }
        }
      }
    }
  }
  });
  // Image read + patch matrix written, float32.
  runtime::kernel_stats().on_im2col(
      static_cast<std::uint64_t>(sizeof(float)) * (image.size() + cols.size()),
      timer.ns());
  return cols;
}

Tensor col2im(const Tensor& cols, const Conv2DSpec& spec) {
  const std::size_t oh = spec.out_height(), ow = spec.out_width();
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  if (cols.rank() != 2 || cols.dim(0) != oh * ow || cols.dim(1) != patch) {
    throw std::invalid_argument("col2im: cols shape mismatch " +
                                cols.shape().to_string());
  }
  Tensor image(Shape{spec.in_channels, spec.in_height, spec.in_width});
  float* dst = image.data().data();
  const float* src = cols.data().data();
  const std::size_t hw = spec.in_height * spec.in_width;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      const float* prow = src + (oy * ow + ox) * patch;
      std::size_t idx = 0;
      for (std::size_t c = 0; c < spec.in_channels; ++c) {
        for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
              static_cast<std::ptrdiff_t>(spec.padding);
          for (std::size_t kx = 0; kx < spec.kernel; ++kx, ++idx) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                static_cast<std::ptrdiff_t>(spec.padding);
            if (iy < 0 || ix < 0 ||
                iy >= static_cast<std::ptrdiff_t>(spec.in_height) ||
                ix >= static_cast<std::ptrdiff_t>(spec.in_width)) {
              continue;
            }
            dst[c * hw + static_cast<std::size_t>(iy) * spec.in_width +
                static_cast<std::size_t>(ix)] += prow[idx];
          }
        }
      }
    }
  }
  return image;
}

Tensor conv2d_forward(const Tensor& image, const Tensor& weights,
                      const Tensor& bias, const Conv2DSpec& spec) {
  require_chw(image, spec, "conv2d_forward");
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  if (weights.rank() != 2 || weights.dim(1) != patch) {
    throw std::invalid_argument("conv2d_forward: weights shape mismatch " +
                                weights.shape().to_string());
  }
  const std::size_t out_c = weights.dim(0);
  if (bias.size() != out_c) {
    throw std::invalid_argument("conv2d_forward: bias size mismatch");
  }
  const std::size_t oh = spec.out_height(), ow = spec.out_width();
  const Tensor cols = im2col(image, spec);        // [oh*ow, patch]
  Tensor prod = ops::matmul_a_bt(cols, weights);  // [oh*ow, out_c]
  Tensor out(Shape{out_c, oh, ow});
  for (std::size_t p = 0; p < oh * ow; ++p) {
    for (std::size_t c = 0; c < out_c; ++c) {
      out[c * oh * ow + p] = prod(p, c) + bias[c];
    }
  }
  return out;
}

Tensor conv2d_forward_batch(const Tensor& batch, const Tensor& weights,
                            const Tensor& bias, const Conv2DSpec& spec,
                            Tensor* patches) {
  if (batch.rank() != 4 || batch.dim(1) != spec.in_channels ||
      batch.dim(2) != spec.in_height || batch.dim(3) != spec.in_width) {
    throw std::invalid_argument("conv2d_forward_batch: batch shape " +
                                batch.shape().to_string() +
                                " does not match spec [" +
                                std::to_string(spec.in_channels) + ", " +
                                std::to_string(spec.in_height) + ", " +
                                std::to_string(spec.in_width) + "]");
  }
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  if (weights.rank() != 2 || weights.dim(1) != patch) {
    throw std::invalid_argument(
        "conv2d_forward_batch: weights shape mismatch " +
        weights.shape().to_string());
  }
  const std::size_t out_c = weights.dim(0);
  if (bias.size() != out_c) {
    throw std::invalid_argument("conv2d_forward_batch: bias size mismatch");
  }
  const std::size_t n = batch.dim(0);
  const std::size_t oh = spec.out_height(), ow = spec.out_width();
  const std::size_t np = n * oh * ow;
  Tensor out(Shape{n, out_c, oh, ow});
  // Transposed patch matrix: row r = (c, ky, kx), column (b * oh + oy) * ow
  // + ox. Row-major columns make the GEMM inner loop one long contiguous
  // stream, and for stride 1 each (b, oy) segment is a straight copy of an
  // input row with the clipped padding edges zero-filled. Patch rows are
  // disjoint, so they parallelize with no shared writes. Training builds it
  // in the caller's `patches`, where the backward reads it.
  std::optional<Tensor> local_cols_t;
  if (patches == nullptr) {
    local_cols_t.emplace(Shape{patch, np});
  } else if (patches->shape() != Shape{patch, np}) {
    *patches = Tensor(Shape{patch, np});
  }
  Tensor& cols_t = patches != nullptr ? *patches : *local_cols_t;
  if (np == 0) return out;
  const runtime::KernelTimer lower_timer;
  const float* src = batch.data().data();
  float* dst = cols_t.data().data();
  const std::size_t hw = spec.in_height * spec.in_width;
  const std::size_t chw = spec.in_channels * hw;
  runtime::parallel_for(0, patch, np, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t c = r / (spec.kernel * spec.kernel);
      const std::size_t ky = (r / spec.kernel) % spec.kernel;
      const std::size_t kx = r % spec.kernel;
      float* row = dst + r * np;
      for (std::size_t b = 0; b < n; ++b) {
        const float* plane = src + b * chw + c * hw;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          float* seg = row + (b * oh + oy) * ow;
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
              static_cast<std::ptrdiff_t>(spec.padding);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(spec.in_height)) {
            std::fill(seg, seg + ow, 0.0F);
            continue;
          }
          const float* irow =
              plane + static_cast<std::size_t>(iy) * spec.in_width;
          if (spec.stride == 1) {
            // ix = ox + kx - padding must land in [0, in_width).
            const std::ptrdiff_t shift =
                static_cast<std::ptrdiff_t>(kx) -
                static_cast<std::ptrdiff_t>(spec.padding);
            const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, -shift);
            const std::ptrdiff_t hi = std::clamp<std::ptrdiff_t>(
                static_cast<std::ptrdiff_t>(spec.in_width) - shift, lo,
                static_cast<std::ptrdiff_t>(ow));
            std::fill(seg, seg + lo, 0.0F);
            std::copy(irow + lo + shift, irow + hi + shift, seg + lo);
            std::fill(seg + hi, seg + ow, 0.0F);
          } else {
            for (std::size_t ox = 0; ox < ow; ++ox) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                  static_cast<std::ptrdiff_t>(spec.padding);
              seg[ox] =
                  (ix < 0 || ix >= static_cast<std::ptrdiff_t>(spec.in_width))
                      ? 0.0F
                      : irow[ix];
            }
          }
        }
      }
    }
  });
  runtime::kernel_stats().on_im2col(
      static_cast<std::uint64_t>(sizeof(float)) *
          (batch.size() + cols_t.size()),
      lower_timer.ns());

  // GEMM: out[b, oc, :] = W[oc] . patches(b) + bias, dispatched through the
  // simd kernel table per image. A = weights [out_c, patch], B = image b's
  // column slice of cols_t (ldb = np keeps the full-batch stride), C = the
  // image's [out_c, ohw] output block. Every kernel behind simd::kernels()
  // accumulates each output element over p in ascending order in double —
  // the same operation sequence as matmul_a_bt's dot products — so the
  // batched path stays bit-identical to the per-example one on every
  // dispatch path. Tasks own disjoint (image, channel) output rows and each
  // element is computed entirely inside one task, so neither the
  // partitioning nor the thread count can change any accumulation order.
  const runtime::KernelTimer gemm_timer;
  const float* w = weights.data().data();
  float* po = out.data().data();
  const std::size_t ohw = oh * ow;
  const simd::GemmKernels& kern = simd::kernels();
  const std::size_t task_work = (2 * patch + 1) * ohw;  // GEMM row + bias
  runtime::parallel_for(
      0, n * out_c, task_work, [&](std::size_t t0, std::size_t t1) {
        // Chunks are contiguous (image, channel) row ranges; run the kernel
        // once per image segment so it sees multi-row blocks.
        std::size_t t = t0;
        while (t < t1) {
          const std::size_t b = t / out_c;
          const std::size_t r0 = t % out_c;
          const std::size_t r1 = std::min(t1 - b * out_c, out_c);
          kern.gemm_f64acc(w, patch, dst + b * ohw, np,
                           po + b * out_c * ohw, ohw, r0, r1, ohw, patch);
          t = b * out_c + r1;
        }
        // Bias after the narrowing store: float(acc) + bias in float, the
        // same op sequence as the fused write-back this replaces.
        for (std::size_t tt = t0; tt < t1; ++tt) {
          const float bv = bias[tt % out_c];
          float* orow = po + tt * ohw;
          for (std::size_t q = 0; q < ohw; ++q) orow[q] += bv;
        }
      });
  runtime::kernel_stats().on_conv(
      static_cast<std::uint64_t>(2) * np * out_c * patch, gemm_timer.ns(),
      simd::active_path() != simd::GemmPath::kGeneric);
  return out;
}

namespace {

/// Adds a transposed patch-gradient matrix (`dcols_t` is [patch, oh * ow],
/// row r = (c, ky, kx)) into a [C, H, W] image gradient. Every input pixel
/// receives its terms in col2im's order, output pixel (oy, ox) ascending:
/// oy runs outermost, and for one oy a pixel is reached by one (c, ky) and
/// by each kx once, at ox = (ix + padding - kx) / stride, so running kx
/// downwards visits its terms with ox ascending.
void col2im_t_add(const float* dcols_t, const Conv2DSpec& spec, float* image) {
  const std::size_t oh = spec.out_height(), ow = spec.out_width();
  const std::size_t k = spec.kernel, s = spec.stride;
  const std::size_t hw = spec.in_height * spec.in_width;
  const auto pad = static_cast<std::ptrdiff_t>(spec.padding);
  const auto width = static_cast<std::ptrdiff_t>(spec.in_width);
  const auto stride = static_cast<std::ptrdiff_t>(s);
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t c = 0; c < spec.in_channels; ++c) {
      for (std::size_t ky = 0; ky < k; ++ky) {
        const std::ptrdiff_t iy =
            static_cast<std::ptrdiff_t>(oy * s + ky) - pad;
        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(spec.in_height)) {
          continue;
        }
        float* irow = image + c * hw + static_cast<std::size_t>(iy) *
                                            spec.in_width;
        for (std::size_t kx = k; kx-- > 0;) {
          const float* src = dcols_t + ((c * k + ky) * k + kx) * oh * ow +
                             oy * ow;
          // ix = ox * stride + shift must land in [0, in_width).
          const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(kx) - pad;
          const std::ptrdiff_t lo =
              shift >= 0 ? 0 : (stride - 1 - shift) / stride;
          const std::ptrdiff_t hi = std::clamp<std::ptrdiff_t>(
              (width - shift + stride - 1) / stride, lo,
              static_cast<std::ptrdiff_t>(ow));
          for (std::ptrdiff_t ox = lo; ox < hi; ++ox) {
            irow[ox * stride + shift] += src[ox];
          }
        }
      }
    }
  }
}

}  // namespace

Tensor conv2d_backward_batch(const Tensor& grad_output, const Tensor& patches,
                             const Tensor& weights, const Conv2DSpec& spec,
                             Tensor& grad_weights, Tensor& grad_bias) {
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  const std::size_t oh = spec.out_height(), ow = spec.out_width();
  const std::size_t ohw = oh * ow;
  if (weights.rank() != 2 || weights.dim(1) != patch ||
      grad_weights.shape() != weights.shape() ||
      grad_bias.size() != weights.dim(0)) {
    throw std::invalid_argument(
        "conv2d_backward_batch: weights/gradient shape mismatch " +
        weights.shape().to_string());
  }
  if (grad_output.rank() != 4 || grad_output.dim(1) != weights.dim(0) ||
      grad_output.dim(2) != oh || grad_output.dim(3) != ow ||
      patches.shape() != Shape{patch, grad_output.dim(0) * ohw}) {
    throw std::invalid_argument(
        "conv2d_backward_batch: grad " + grad_output.shape().to_string() +
        " does not match patches " + patches.shape().to_string());
  }
  const std::size_t n = grad_output.dim(0);
  const std::size_t np = n * ohw;
  const std::size_t out_c = weights.dim(0);
  const std::size_t chw = spec.in_channels * spec.in_height * spec.in_width;
  Tensor grad_in(
      Shape{n, spec.in_channels, spec.in_height, spec.in_width});
  const float* g = grad_output.data().data();
  // W^T [patch, out_c]: the A operand of the input-gradient GEMM.
  std::vector<float> wt(patch * out_c);
  for (std::size_t c = 0; c < out_c; ++c) {
    for (std::size_t r = 0; r < patch; ++r) wt[r * out_c + c] = weights(c, r);
  }
  // Every image's dW^T [patch, out_c] starts from zero in its own block and
  // is added to grad_weights in image order below: the per-image
  // reference's `grad_weights += matmul_at_b(g, cols)` sequence.
  std::vector<float> dwt(n * patch * out_c, 0.0F);
  const simd::GemmKernels& kern = simd::kernels();
  const runtime::KernelTimer timer;
  const std::size_t image_work = 4 * out_c * patch * ohw + patch * ohw;
  runtime::parallel_for(0, n, image_work, [&](std::size_t b0, std::size_t b1) {
    std::vector<float> gt(ohw * out_c);
    std::vector<float> dcols_t(patch * ohw);
    for (std::size_t b = b0; b < b1; ++b) {
      // The image's [out_c, ohw] gradient block g and its transpose g^T.
      // dW^T[r, c] = sum_q cols^T[r, q] * g^T[q, c], q ascending, reads the
      // image's slice of the forward's transposed patches in place: the
      // products and order of matmul_at_b(g, cols). dcols^T[r, q] = sum_c
      // W[c, r] * g[c, q], c ascending: those of matmul(g, W). Each GEMM
      // skips the terms whose A operand (patch, weight) is zero, where the
      // reference skipped zero gradients; on finite operands either skipped
      // term is a signed zero added to a sum that starts at +0 and so never
      // holds -0, which changes no bit.
      const float* gb = g + b * out_c * ohw;
      for (std::size_t c = 0; c < out_c; ++c) {
        for (std::size_t q = 0; q < ohw; ++q) {
          gt[q * out_c + c] = gb[c * ohw + q];
        }
      }
      kern.gemm_f32(patches.data().data() + b * ohw, np, gt.data(), out_c,
                    dwt.data() + b * patch * out_c, out_c, 0, patch, out_c,
                    ohw);
      std::fill(dcols_t.begin(), dcols_t.end(), 0.0F);
      kern.gemm_f32(wt.data(), out_c, gb, ohw, dcols_t.data(), ohw, 0, patch,
                    ohw, out_c);
      col2im_t_add(dcols_t.data(), spec, grad_in.data().data() + b * chw);
    }
  });
  float* pgw = grad_weights.data().data();
  for (std::size_t b = 0; b < n; ++b) {
    const float* gb = g + b * out_c * ohw;
    const float* dwb = dwt.data() + b * patch * out_c;
    for (std::size_t c = 0; c < out_c; ++c) {
      double bias_acc = 0.0;
      for (std::size_t q = 0; q < ohw; ++q) bias_acc += gb[c * ohw + q];
      grad_bias[c] += static_cast<float>(bias_acc);
      for (std::size_t r = 0; r < patch; ++r) {
        pgw[c * patch + r] += dwb[r * out_c + c];
      }
    }
  }
  runtime::kernel_stats().on_conv(
      static_cast<std::uint64_t>(4) * n * ohw * out_c * patch, timer.ns(),
      simd::active_path() != simd::GemmPath::kGeneric);
  return grad_in;
}

PoolResult maxpool2d_forward(const Tensor& image, std::size_t window) {
  if (image.rank() != 3) {
    throw std::invalid_argument("maxpool2d_forward: expected [C,H,W]");
  }
  if (window == 0) {
    throw std::invalid_argument("maxpool2d_forward: window must be > 0");
  }
  const std::size_t c = image.dim(0), h = image.dim(1), w = image.dim(2);
  const std::size_t oh = h / window, ow = w / window;
  PoolResult result{Tensor(Shape{c, oh, ow}),
                    std::vector<std::size_t>(c * oh * ow, 0)};
  const float* src = image.data().data();
  for (std::size_t ch = 0; ch < c; ++ch) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t ky = 0; ky < window; ++ky) {
          for (std::size_t kx = 0; kx < window; ++kx) {
            const std::size_t iy = oy * window + ky;
            const std::size_t ix = ox * window + kx;
            const std::size_t idx = (ch * h + iy) * w + ix;
            if (src[idx] > best) {
              best = src[idx];
              best_idx = idx;
            }
          }
        }
        const std::size_t out_idx = (ch * oh + oy) * ow + ox;
        result.output[out_idx] = best;
        result.argmax[out_idx] = best_idx;
      }
    }
  }
  return result;
}

Tensor maxpool2d_backward(const Tensor& grad_out,
                          const std::vector<std::size_t>& argmax,
                          const Shape& input_shape) {
  if (grad_out.size() != argmax.size()) {
    throw std::invalid_argument("maxpool2d_backward: argmax size mismatch");
  }
  Tensor grad_in(input_shape);
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    grad_in[argmax[i]] += grad_out[i];
  }
  return grad_in;
}

}  // namespace dcn::conv
