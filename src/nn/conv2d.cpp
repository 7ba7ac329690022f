#include "nn/conv2d.hpp"

#include <cmath>
#include <stdexcept>

#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace dcn::nn {

Conv2D::Conv2D(conv::Conv2DSpec spec, std::size_t out_channels, Rng& rng)
    : spec_(spec),
      out_channels_(out_channels),
      weights_(Shape{out_channels, spec.in_channels * spec.kernel * spec.kernel}),
      bias_(Shape{out_channels}),
      grad_weights_(weights_.shape()),
      grad_bias_(bias_.shape()) {
  if (out_channels == 0) {
    throw std::invalid_argument("Conv2D: out_channels must be > 0");
  }
  const std::size_t fan_in = spec.in_channels * spec.kernel * spec.kernel;
  const float bound = std::sqrt(6.0F / static_cast<float>(fan_in));
  weights_ = Tensor::uniform(weights_.shape(), rng, -bound, bound);
}

Tensor Conv2D::forward(const Tensor& input, bool train) {
  if (input.rank() != 4 || input.dim(1) != spec_.in_channels ||
      input.dim(2) != spec_.in_height || input.dim(3) != spec_.in_width) {
    throw std::invalid_argument("Conv2D::forward: input shape mismatch " +
                                input.shape().to_string());
  }
  // Inference takes the whole batch through one transposed-im2col + GEMM
  // pass (bit-identical to the per-example path, far cheaper per image).
  // Training keeps the per-example loop because backward needs each image's
  // [oh*ow, patch] column matrix cached.
  if (!train) return conv::conv2d_forward_batch(input, weights_, bias_, spec_);
  const std::size_t n = input.dim(0);
  const std::size_t oh = spec_.out_height(), ow = spec_.out_width();
  Tensor out(Shape{n, out_channels_, oh, ow});
  cached_cols_.assign(n, Tensor{});
  // Batch images are independent and each writes its own output row and its
  // own cache slot, so the batch loop parallelizes cleanly; the kernels
  // inside run inline on the workers.
  const std::size_t image_work = forward_work(
      Shape{1, spec_.in_channels, spec_.in_height, spec_.in_width});
  runtime::parallel_for(0, n, image_work, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      Tensor cols = conv::im2col(input.row(b), spec_);  // [oh*ow, patch]
      Tensor prod = ops::matmul_a_bt(cols, weights_);   // [oh*ow, out_c]
      Tensor img(Shape{out_channels_, oh, ow});
      for (std::size_t p = 0; p < oh * ow; ++p) {
        for (std::size_t c = 0; c < out_channels_; ++c) {
          img[c * oh * ow + p] = prod(p, c) + bias_[c];
        }
      }
      out.set_row(b, img);
      cached_cols_[b] = std::move(cols);
    }
  });
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  const std::size_t n = cached_cols_.size();
  if (n == 0) {
    throw std::logic_error("Conv2D::backward without a training forward");
  }
  const std::size_t oh = spec_.out_height(), ow = spec_.out_width();
  if (grad_output.rank() != 4 || grad_output.dim(0) != n ||
      grad_output.dim(1) != out_channels_ || grad_output.dim(2) != oh ||
      grad_output.dim(3) != ow) {
    throw std::invalid_argument("Conv2D::backward: grad shape mismatch " +
                                grad_output.shape().to_string());
  }
  Tensor grad_in(
      Shape{n, spec_.in_channels, spec_.in_height, spec_.in_width});
  for (std::size_t b = 0; b < n; ++b) {
    // Rearrange dL/dy for this image into [oh*ow, out_c].
    const Tensor gy = grad_output.row(b);  // [out_c, oh, ow]
    Tensor g(Shape{oh * ow, out_channels_});
    for (std::size_t c = 0; c < out_channels_; ++c) {
      double bias_acc = 0.0;
      for (std::size_t p = 0; p < oh * ow; ++p) {
        const float v = gy[c * oh * ow + p];
        g(p, c) = v;
        bias_acc += v;
      }
      grad_bias_[c] += static_cast<float>(bias_acc);
    }
    // dW += g^T cols ; dcols = g W ; dx = col2im(dcols)
    grad_weights_ += ops::matmul_at_b(g, cached_cols_[b]);
    Tensor dcols = ops::matmul(g, weights_);  // [oh*ow, patch]
    grad_in.set_row(b, conv::col2im(dcols, spec_));
  }
  return grad_in;
}

std::vector<Param> Conv2D::params() {
  return {{&weights_, &grad_weights_, "weights"},
          {&bias_, &grad_bias_, "bias"}};
}

std::size_t Conv2D::forward_work(const Shape& input_shape) const {
  // Per image: the im2col gather, the GEMM and the bias pass.
  const std::size_t patch = weights_.dim(1);
  return input_shape.dim(0) * spec_.out_height() * spec_.out_width() *
         (patch * (2 * out_channels_ + 1) + out_channels_);
}

Shape Conv2D::output_shape(const Shape& input_shape) const {
  return Shape{input_shape.dim(0), out_channels_, spec_.out_height(),
               spec_.out_width()};
}

}  // namespace dcn::nn
