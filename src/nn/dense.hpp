// Fully connected layer: y = x W^T + b.
#pragma once

#include "nn/layer.hpp"

namespace dcn::nn {

class Dense final : public Layer {
 public:
  /// He-uniform initialization scaled for `in_features`.
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  [[nodiscard]] std::string name() const override { return "Dense"; }
  [[nodiscard]] Shape output_shape(const Shape& input_shape) const override;
  [[nodiscard]] std::size_t forward_work(
      const Shape& input_shape) const override;

  [[nodiscard]] std::size_t in_features() const { return in_features_; }
  [[nodiscard]] std::size_t out_features() const { return out_features_; }
  [[nodiscard]] Tensor& weights() { return weights_; }
  [[nodiscard]] Tensor& bias() { return bias_; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  Tensor weights_;       // [out, in]
  Tensor bias_;          // [out]
  Tensor grad_weights_;  // [out, in]
  Tensor grad_bias_;     // [out]
  Tensor cached_input_;  // [N, in]
};

}  // namespace dcn::nn
