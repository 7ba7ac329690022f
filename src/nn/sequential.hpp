// Sequential model container — the "DNN" of the paper.
//
// A Sequential maps an input batch to logits through an ordered list of
// layers. It exposes both batch-level training primitives (forward/backward/
// params) and the single-example inference helpers the defenses use
// (logits(x), classify(x)).
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace dcn::nn {

class Sequential {
 public:
  Sequential() = default;

  /// Append a layer (construct in place).
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }

  /// Batch forward pass; `train` enables caching and stochastic layers.
  Tensor forward(const Tensor& input, bool train = false);

  /// Backprop dL/d(logits) through all layers; returns dL/d(input).
  /// Requires a preceding forward(..., /*train=*/true).
  Tensor backward(const Tensor& grad_logits);

  /// All trainable parameters in layer order.
  std::vector<Param> params();

  /// Reset accumulated gradients to zero.
  void zero_grad();

  /// Count of scalar trainable parameters.
  [[nodiscard]] std::size_t parameter_count();

  /// Output shape for a given input shape (batch axis included), derived
  /// from layer metadata without running a forward pass.
  [[nodiscard]] Shape output_shape(const Shape& input_shape) const;

  /// Summed Layer::forward_work of an inference forward over `input_shape`.
  [[nodiscard]] std::size_t forward_work(const Shape& input_shape) const;

  // ---- Single-example inference helpers ------------------------------------
  /// Logits for one example (input without the batch axis).
  Tensor logits(const Tensor& example);

  /// Predicted class label for one example.
  std::size_t classify(const Tensor& example);

  /// Softmax probabilities for one example (optionally at temperature T).
  Tensor probabilities(const Tensor& example, float temperature = 1.0F);

  // ---- Batched inference ---------------------------------------------------
  // Inference-mode layers are pure with respect to layer state (no caching,
  // no running-stat updates), so the batch is partitioned into contiguous
  // sub-batches that flow through the network concurrently on the runtime
  // thread pool, sized by each row's forward_work; a batch whose forward is
  // too small to pay for a handoff runs as one pass on the caller.
  // Per-example results are independent of the partition, so output is
  // identical at any DCN_THREADS value.

  /// Logits for a [N, d...] batch -> [N, k]. N must be > 0.
  Tensor logits_batch(const Tensor& batch);

  /// Predicted class labels for a [N, d...] batch.
  std::vector<std::size_t> classify_batch(const Tensor& batch);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace dcn::nn
