// 2-D convolution layer over [N, C, H, W] batches: one batched
// transposed-im2col + GEMM forward in both modes, and a backward on the same
// kernel table (conv::conv2d_forward_batch / conv2d_backward_batch).
#pragma once

#include "nn/layer.hpp"
#include "tensor/conv.hpp"

namespace dcn::nn {

class Conv2D final : public Layer {
 public:
  /// `spec` fixes the input geometry; `out_channels` filters of size
  /// spec.kernel x spec.kernel are learned. He-uniform init.
  Conv2D(conv::Conv2DSpec spec, std::size_t out_channels, Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  [[nodiscard]] std::string name() const override { return "Conv2D"; }
  [[nodiscard]] Shape output_shape(const Shape& input_shape) const override;
  [[nodiscard]] std::size_t forward_work(
      const Shape& input_shape) const override;

  [[nodiscard]] const conv::Conv2DSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t out_channels() const { return out_channels_; }

 private:
  conv::Conv2DSpec spec_;
  std::size_t out_channels_;
  Tensor weights_;       // [out_c, in_c * k * k]
  Tensor bias_;          // [out_c]
  Tensor grad_weights_;
  Tensor grad_bias_;
  // The last training forward's transposed patch matrix, [patch,
  // N * out_h * out_w], which the forward's GEMM read and the weight
  // gradient reads again.
  Tensor cached_patches_;
};

}  // namespace dcn::nn
