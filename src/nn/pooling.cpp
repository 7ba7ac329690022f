#include "nn/pooling.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/thread_pool.hpp"

namespace dcn::nn {

MaxPool2D::MaxPool2D(std::size_t window) : window_(window) {
  if (window == 0) {
    throw std::invalid_argument("MaxPool2D: window must be > 0");
  }
}

Tensor MaxPool2D::forward(const Tensor& input, bool train) {
  if (input.rank() != 4) {
    throw std::invalid_argument("MaxPool2D::forward: expected [N,C,H,W]");
  }
  const std::size_t n = input.dim(0);
  const std::size_t c = input.dim(1);
  const std::size_t oh = input.dim(2) / window_;
  const std::size_t ow = input.dim(3) / window_;
  Tensor out(Shape{n, c, oh, ow});
  if (!train) {
    // Inference skips the argmax bookkeeping and the per-image row copies.
    // std::max lowers to a branchless maxss and keeps the first operand on
    // ties, so the pooled values match the training path's strict-greater
    // scan exactly. Planes are disjoint, so the loop parallelizes cleanly.
    const float* src = input.data().data();
    float* dst = out.data().data();
    const std::size_t h = input.dim(2), w = input.dim(3);
    runtime::parallel_for(0, n * c, h * w, [&](std::size_t lo,
                                               std::size_t hi) {
      for (std::size_t pc = lo; pc < hi; ++pc) {
        const float* plane = src + pc * h * w;
        float* oplane = dst + pc * oh * ow;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          float* orow = oplane + oy * ow;
          if (window_ == 2) {
            // Both served pools are 2x2. Same operands in the same order as
            // the generic body below (whose first compare is the seed with
            // itself, a no-op on every bit pattern), without its
            // runtime-length inner loops: the first mnist_convnet pool at
            // one row went from ~5 to under 2 us (one thread, 4-vCPU Xeon
            // VM).
            const float* r0 = plane + 2 * oy * w;
            const float* r1 = r0 + w;
            for (std::size_t ox = 0; ox < ow; ++ox) {
              float best = r0[2 * ox];
              best = std::max(best, r0[2 * ox + 1]);
              best = std::max(best, r1[2 * ox]);
              orow[ox] = std::max(best, r1[2 * ox + 1]);
            }
            continue;
          }
          for (std::size_t ox = 0; ox < ow; ++ox) {
            float best = plane[oy * window_ * w + ox * window_];
            for (std::size_t ky = 0; ky < window_; ++ky) {
              const float* irow = plane + (oy * window_ + ky) * w +
                                  ox * window_;
              for (std::size_t kx = 0; kx < window_; ++kx) {
                best = std::max(best, irow[kx]);
              }
            }
            orow[ox] = best;
          }
        }
      }
    });
    return out;
  }
  cached_input_shape_ = Shape{input.dim(1), input.dim(2), input.dim(3)};
  cached_argmax_.assign(n, {});
  for (std::size_t b = 0; b < n; ++b) {
    conv::PoolResult r = conv::maxpool2d_forward(input.row(b), window_);
    out.set_row(b, r.output);
    cached_argmax_[b] = std::move(r.argmax);
  }
  return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  const std::size_t n = cached_argmax_.size();
  if (n == 0) {
    throw std::logic_error("MaxPool2D::backward without a training forward");
  }
  Tensor grad_in(Shape{n, cached_input_shape_.dim(0),
                       cached_input_shape_.dim(1), cached_input_shape_.dim(2)});
  for (std::size_t b = 0; b < n; ++b) {
    grad_in.set_row(b, conv::maxpool2d_backward(grad_output.row(b),
                                                cached_argmax_[b],
                                                cached_input_shape_));
  }
  return grad_in;
}

Shape MaxPool2D::output_shape(const Shape& input_shape) const {
  return Shape{input_shape.dim(0), input_shape.dim(1),
               input_shape.dim(2) / window_, input_shape.dim(3) / window_};
}

}  // namespace dcn::nn
