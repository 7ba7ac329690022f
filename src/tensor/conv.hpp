// im2col-based convolution and pooling primitives.
//
// These are the compute kernels behind nn::Conv2D and nn::MaxPool2D. Keeping
// them free functions makes them independently testable against naive
// reference implementations.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace dcn::conv {

/// Geometry of a 2-D convolution / pooling window over a [C, H, W] image.
struct Conv2DSpec {
  std::size_t in_channels = 1;
  std::size_t in_height = 1;
  std::size_t in_width = 1;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t padding = 0;

  [[nodiscard]] std::size_t out_height() const {
    return (in_height + 2 * padding - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t out_width() const {
    return (in_width + 2 * padding - kernel) / stride + 1;
  }
};

/// Unfold one [C, H, W] image into a matrix of patches:
/// rows = out_h * out_w, cols = C * kernel * kernel.
/// Padding reads as 0.
Tensor im2col(const Tensor& image, const Conv2DSpec& spec);

/// Fold a patch-gradient matrix (the shape im2col produces) back into a
/// [C, H, W] image gradient, accumulating overlaps.
Tensor col2im(const Tensor& cols, const Conv2DSpec& spec);

/// Forward conv for one image. `weights` is [out_c, in_c * k * k], `bias` is
/// [out_c]. Returns [out_c, out_h, out_w].
Tensor conv2d_forward(const Tensor& image, const Tensor& weights,
                      const Tensor& bias, const Conv2DSpec& spec);

/// Forward conv for a whole [N, C, H, W] batch in one transposed-im2col +
/// GEMM pass. Returns [N, out_c, out_h, out_w]. Every output element
/// accumulates its patch dot product over the patch index in ascending order
/// in double, so the result is bit-identical to calling conv2d_forward per
/// image — and to itself at any DCN_THREADS value. A non-null `patches`
/// keeps the transposed patch matrix the GEMM reads, [C * k * k,
/// N * out_h * out_w] (column block b is the transpose of what im2col
/// returns for image b), for conv2d_backward_batch; a tensor of that shape
/// is reused in place.
Tensor conv2d_forward_batch(const Tensor& batch, const Tensor& weights,
                            const Tensor& bias, const Conv2DSpec& spec,
                            Tensor* patches = nullptr);

/// Backward of conv2d_forward_batch for one [N, out_c, out_h, out_w] output
/// gradient, given the transposed patch matrix that forward kept. Adds each
/// image's bias and weight gradients to `grad_bias` / `grad_weights` in
/// image order and returns the [N, C, H, W] input gradient. Per element the
/// operations are the per-image reference's — dW = matmul_at_b(g, im2col),
/// the bias as a double sum over pixels, dx = col2im(matmul(g, W)) with g
/// the image's [out_h * out_w, out_c] gradient — so on finite operands the
/// result is bit-identical to it, at any DCN_THREADS value. The reference
/// skips a term where the gradient is zero; this skips it where the patch
/// value (dW) or the weight (dx) is zero. So on non-finite operands NaN
/// propagates differently: an inf gradient times a zero patch value or
/// weight adds NaN in the reference and nothing here, and an inf patch
/// value or weight times a zero gradient adds NaN here and nothing there.
Tensor conv2d_backward_batch(const Tensor& grad_output, const Tensor& patches,
                             const Tensor& weights, const Conv2DSpec& spec,
                             Tensor& grad_weights, Tensor& grad_bias);

/// Max-pool window geometry result for one [C, H, W] image.
struct PoolResult {
  Tensor output;                     // [C, out_h, out_w]
  std::vector<std::size_t> argmax;   // flat input index per output element
};

/// 2-D max pooling with square window `window` and stride == window.
PoolResult maxpool2d_forward(const Tensor& image, std::size_t window);

/// Scatter pooled gradients back through recorded argmax positions.
Tensor maxpool2d_backward(const Tensor& grad_out,
                          const std::vector<std::size_t>& argmax,
                          const Shape& input_shape);

}  // namespace dcn::conv
