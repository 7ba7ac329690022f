#include "nn/dense.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace dcn::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weights_(Shape{out_features, in_features}),
      bias_(Shape{out_features}),
      grad_weights_(Shape{out_features, in_features}),
      grad_bias_(Shape{out_features}) {
  if (in_features == 0 || out_features == 0) {
    throw std::invalid_argument("Dense: zero-sized layer");
  }
  const float bound =
      std::sqrt(6.0F / static_cast<float>(in_features));  // He-uniform
  weights_ = Tensor::uniform(Shape{out_features, in_features}, rng, -bound,
                             bound);
}

Tensor Dense::forward(const Tensor& input, bool train) {
  if (input.rank() != 2 || input.dim(1) != in_features_) {
    throw std::invalid_argument("Dense::forward: expected [N, " +
                                std::to_string(in_features_) + "], got " +
                                input.shape().to_string());
  }
  if (train) cached_input_ = input;
  Tensor out = ops::matmul_a_bt(input, weights_);  // [N, out]
  const std::size_t n = out.dim(0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out_features_; ++j) out(i, j) += bias_[j];
  }
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  if (cached_input_.rank() != 2) {
    throw std::logic_error("Dense::backward without a training forward");
  }
  if (grad_output.rank() != 2 || grad_output.dim(1) != out_features_ ||
      grad_output.dim(0) != cached_input_.dim(0)) {
    throw std::invalid_argument("Dense::backward: grad shape mismatch " +
                                grad_output.shape().to_string());
  }
  // dW += g^T x ; db += sum_rows g ; dx = g W
  grad_weights_ += ops::matmul_at_b(grad_output, cached_input_);
  const std::size_t n = grad_output.dim(0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out_features_; ++j) {
      grad_bias_[j] += grad_output(i, j);
    }
  }
  return ops::matmul(grad_output, weights_);
}

std::vector<Param> Dense::params() {
  return {{&weights_, &grad_weights_, "weights"},
          {&bias_, &grad_bias_, "bias"}};
}

Shape Dense::output_shape(const Shape& input_shape) const {
  return Shape{input_shape.dim(0), out_features_};
}

std::size_t Dense::forward_work(const Shape& input_shape) const {
  // GEMM plus the bias pass, per row.
  return input_shape.dim(0) * (2 * in_features_ + 1) * out_features_;
}

}  // namespace dcn::nn
