#include "nn/sequential.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

// Per-layer span tracing only (DCN_TRACE=OFF compiles it out); forward
// numerics never read obs state.
// dcn-lint: allow(include-layering)
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace dcn::nn {

Tensor Sequential::forward(const Tensor& input, bool train) {
  Tensor x = input;
  for (auto& layer : layers_) {
    // Per-layer span; the name string is only materialized when a trace is
    // actually being recorded (rename copies it into the span's own buffer).
    obs::Span span("layer", "nn");
    if (span.active()) span.rename(layer->name());
    x = layer->forward(x, train);
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_logits) {
  Tensor g = grad_logits;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Param> Sequential::params() {
  std::vector<Param> all;
  for (auto& layer : layers_) {
    for (auto& p : layer->params()) all.push_back(p);
  }
  return all;
}

void Sequential::zero_grad() {
  for (auto& p : params()) p.grad->fill(0.0F);
}

std::size_t Sequential::parameter_count() {
  std::size_t n = 0;
  for (auto& p : params()) n += p.value->size();
  return n;
}

namespace {

// Lift a single example to a batch of one: [d...] -> [1, d...].
Tensor unsqueeze(const Tensor& example) {
  std::vector<std::size_t> dims;
  dims.push_back(1);
  for (std::size_t d : example.shape().dims()) dims.push_back(d);
  return example.reshape(Shape(dims));
}

}  // namespace

Tensor Sequential::logits(const Tensor& example) {
  Tensor out = forward(unsqueeze(example), /*train=*/false);
  if (out.rank() != 2 || out.dim(0) != 1) {
    throw std::logic_error("Sequential::logits: model output is not [1, k]");
  }
  return out.row(0);
}

std::size_t Sequential::classify(const Tensor& example) {
  return logits(example).argmax();
}

Tensor Sequential::probabilities(const Tensor& example, float temperature) {
  return ops::softmax(logits(example), temperature);
}

Shape Sequential::output_shape(const Shape& input_shape) const {
  Shape s = input_shape;
  for (const auto& layer : layers_) s = layer->output_shape(s);
  return s;
}

std::size_t Sequential::forward_work(const Shape& input_shape) const {
  std::size_t work = 0;
  Shape s = input_shape;
  for (const auto& layer : layers_) {
    work += layer->forward_work(s);
    s = layer->output_shape(s);
  }
  return work;
}

Tensor Sequential::logits_batch(const Tensor& batch) {
  if (batch.rank() < 2 || batch.dim(0) == 0) {
    throw std::invalid_argument("Sequential::logits_batch: expected a "
                                "non-empty [N, d...] batch, got " +
                                batch.shape().to_string());
  }
  const std::size_t n = batch.dim(0);
  std::vector<std::size_t> row_dims = batch.shape().dims();
  row_dims[0] = 1;
  const std::size_t row_work = forward_work(Shape(row_dims));
  const Shape out_shape = output_shape(batch.shape());
  if (out_shape.rank() != 2) {
    throw std::logic_error(
        "Sequential::logits_batch: model output is not [N, k]");
  }
  const std::size_t row_elems = batch.size() / n;
  const std::size_t k = out_shape.dim(1);
  Tensor out(out_shape);
  // Each sub-batch writes its own rows of `out`, at an offset taken from
  // `lo`, so the split needs no knowledge of how the pool cut the range.
  runtime::parallel_for(0, n, row_work, [&](std::size_t lo, std::size_t hi) {
    Tensor part;
    if (hi - lo == n) {
      part = forward(batch, /*train=*/false);
    } else {
      std::vector<std::size_t> dims = row_dims;
      dims[0] = hi - lo;
      Tensor sub{Shape(dims)};
      std::copy(
          batch.data().begin() + static_cast<std::ptrdiff_t>(lo * row_elems),
          batch.data().begin() + static_cast<std::ptrdiff_t>(hi * row_elems),
          sub.data().begin());
      part = forward(sub, /*train=*/false);
    }
    if (part.shape() != Shape{hi - lo, k}) {
      throw std::logic_error(
          "Sequential::logits_batch: model output is not [N, k]");
    }
    std::copy(part.data().begin(), part.data().end(),
              out.data().begin() + static_cast<std::ptrdiff_t>(lo * k));
  });
  return out;
}

std::vector<std::size_t> Sequential::classify_batch(const Tensor& batch) {
  return ops::argmax_rows(logits_batch(batch));
}

}  // namespace dcn::nn
