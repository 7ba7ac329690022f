#include "nn/conv2d.hpp"

#include <cmath>
#include <stdexcept>

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
  // Both modes run the batched transposed-im2col + GEMM pass; training also
  // keeps the transposed patch matrix, which the weight gradient reads.
  return conv::conv2d_forward_batch(input, weights_, bias_, spec_,
                                    train ? &cached_patches_ : nullptr);
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  if (cached_patches_.rank() != 2) {
    throw std::logic_error("Conv2D::backward without a training forward");
  }
  return conv::conv2d_backward_batch(grad_output, cached_patches_, weights_,
                                     spec_, grad_weights_, grad_bias_);
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
