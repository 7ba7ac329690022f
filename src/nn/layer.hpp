// Layer abstraction: forward caches what backward needs; backward returns the
// gradient with respect to the layer input and accumulates parameter
// gradients. Backprop-to-input is a first-class operation because every
// gradient-based evasion attack consumes it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace dcn::nn {

/// A trainable parameter: the value and its accumulated gradient, both owned
/// by the layer and exposed by pointer for the optimizer.
struct Param {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute the layer output for a batch input. When `train` is true the
  /// layer may behave stochastically (dropout) and must cache activations
  /// for a following backward() call; inference-only calls may skip caching.
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Given dL/d(output) for the batch of the most recent training forward,
  /// accumulate dL/d(params) into the parameter gradients and return
  /// dL/d(input).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param> params() { return {}; }

  /// Stable identifier used in serialization and diagnostics.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Output shape for a given input shape (excluding the batch dimension is
  /// the caller's concern; shapes here include the batch axis).
  [[nodiscard]] virtual Shape output_shape(const Shape& input_shape) const = 0;

  /// Cost of an inference forward over `input_shape`, in the runtime's work
  /// units (one FLOP or one float moved; see runtime::kMinChunkWork). Read
  /// from shapes only, never timed. The default counts the floats read and
  /// written; layers built on a GEMM count its FLOPs.
  [[nodiscard]] virtual std::size_t forward_work(
      const Shape& input_shape) const {
    return input_shape.numel() + output_shape(input_shape).numel();
  }

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
};

}  // namespace dcn::nn
