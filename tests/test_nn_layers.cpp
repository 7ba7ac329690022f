// Gradient checks and behavioural tests for every nn layer.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "gradcheck.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/conv.hpp"
#include "tensor/simd/simd.hpp"

namespace dcn {
namespace {

constexpr double kTol = 2e-2;  // float32 central differences

TEST(DenseLayer, ForwardShape) {
  Rng rng(1);
  nn::Dense dense(4, 3, rng);
  const Tensor x = Tensor::normal(Shape{2, 4}, rng);
  const Tensor y = dense.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({2, 3}));
}

TEST(DenseLayer, RejectsWrongInput) {
  Rng rng(1);
  nn::Dense dense(4, 3, rng);
  EXPECT_THROW((void)dense.forward(Tensor(Shape{2, 5}), false),
               std::invalid_argument);
  EXPECT_THROW((void)dense.backward(Tensor(Shape{2, 3})), std::logic_error);
}

TEST(DenseLayer, InputGradientMatchesNumeric) {
  Rng rng(2);
  nn::Sequential model;
  model.emplace<nn::Dense>(5, 4, rng);
  const Tensor x = Tensor::normal(Shape{3, 5}, rng);
  const Tensor grad = testing::sq_loss_input_grad(model, x);
  const double err = testing::max_grad_error(
      [&](const Tensor& z) { return testing::sq_loss(model, z); }, x, grad);
  EXPECT_LT(err, kTol);
}

TEST(DenseLayer, ParamGradientMatchesNumeric) {
  Rng rng(3);
  nn::Sequential model;
  model.emplace<nn::Dense>(4, 3, rng);
  const Tensor x = Tensor::normal(Shape{2, 4}, rng);
  EXPECT_LT(testing::max_param_grad_error(model, x), kTol);
}

TEST(ReLULayer, ZeroesNegativeAndGradients) {
  nn::ReLU relu;
  const Tensor x =
      Tensor::from_vector({-1.0F, 2.0F}).reshape(Shape{1, 2});
  const Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0F);
  EXPECT_FLOAT_EQ(y[1], 2.0F);
  const Tensor g = relu.backward(Tensor::ones(Shape{1, 2}));
  EXPECT_FLOAT_EQ(g[0], 0.0F);
  EXPECT_FLOAT_EQ(g[1], 1.0F);
}

TEST(SigmoidLayer, GradientMatchesNumeric) {
  Rng rng(4);
  nn::Sequential model;
  model.emplace<nn::Dense>(3, 3, rng);
  model.emplace<nn::Sigmoid>();
  const Tensor x = Tensor::normal(Shape{2, 3}, rng);
  const Tensor grad = testing::sq_loss_input_grad(model, x);
  EXPECT_LT(testing::max_grad_error(
                [&](const Tensor& z) { return testing::sq_loss(model, z); },
                x, grad),
            kTol);
}

TEST(TanhLayer, GradientMatchesNumeric) {
  Rng rng(5);
  nn::Sequential model;
  model.emplace<nn::Dense>(3, 3, rng);
  model.emplace<nn::Tanh>();
  const Tensor x = Tensor::normal(Shape{2, 3}, rng);
  const Tensor grad = testing::sq_loss_input_grad(model, x);
  EXPECT_LT(testing::max_grad_error(
                [&](const Tensor& z) { return testing::sq_loss(model, z); },
                x, grad),
            kTol);
}

TEST(Conv2DLayer, InputGradientMatchesNumeric) {
  Rng rng(6);
  nn::Sequential model;
  conv::Conv2DSpec spec{.in_channels = 2,
                        .in_height = 5,
                        .in_width = 5,
                        .kernel = 3,
                        .stride = 1,
                        .padding = 1};
  model.emplace<nn::Conv2D>(spec, 3, rng);
  const Tensor x = Tensor::normal(Shape{2, 2, 5, 5}, rng);
  const Tensor grad = testing::sq_loss_input_grad(model, x);
  EXPECT_LT(testing::max_grad_error(
                [&](const Tensor& z) { return testing::sq_loss(model, z); },
                x, grad),
            kTol);
}

TEST(Conv2DLayer, ParamGradientMatchesNumeric) {
  Rng rng(7);
  nn::Sequential model;
  conv::Conv2DSpec spec{.in_channels = 1,
                        .in_height = 4,
                        .in_width = 4,
                        .kernel = 3,
                        .stride = 1,
                        .padding = 0};
  model.emplace<nn::Conv2D>(spec, 2, rng);
  const Tensor x = Tensor::normal(Shape{2, 1, 4, 4}, rng);
  EXPECT_LT(testing::max_param_grad_error(model, x), kTol);
}

// One training step of a Conv2D layer computed the naive way, element by
// element, in the per-image order the layer is held to: the forward as
// im2col rows dotted with each filter in double (p ascending) plus the bias
// in float; per image, the bias gradient as a double sum over pixels, dW as
// float multiply-then-add over pixels ascending with zero gradient terms
// skipped, added to the running dW in image order; dx as col2im of
// dcols = g * W (float, channel ascending, zero gradient terms skipped),
// each input pixel summing its terms in (oy, ox) order.
struct ConvStep {
  std::vector<float> out, grad_w, grad_b, grad_in;
};

ConvStep reference_conv_step(const conv::Conv2DSpec& spec, const Tensor& w,
                             const Tensor& bias, const Tensor& x,
                             const Tensor& gy) {
  const std::size_t n = x.dim(0), out_c = w.dim(0), patch = w.dim(1);
  const std::size_t oh = spec.out_height(), ow = spec.out_width();
  const std::size_t ohw = oh * ow;
  const std::size_t hw = spec.in_height * spec.in_width;
  const std::size_t chw = spec.in_channels * hw;
  ConvStep r{std::vector<float>(n * out_c * ohw),
             std::vector<float>(out_c * patch, 0.0F),
             std::vector<float>(out_c, 0.0F), std::vector<float>(n * chw, 0.0F)};
  for (std::size_t b = 0; b < n; ++b) {
    // cols[p * patch + q]: padding reads as zero.
    std::vector<float> cols(ohw * patch, 0.0F);
    for (std::size_t p = 0; p < ohw; ++p) {
      for (std::size_t q = 0; q < patch; ++q) {
        const std::size_t c = q / (spec.kernel * spec.kernel);
        const std::size_t ky = (q / spec.kernel) % spec.kernel;
        const std::size_t kx = q % spec.kernel;
        const long iy = static_cast<long>((p / ow) * spec.stride + ky) -
                        static_cast<long>(spec.padding);
        const long ix = static_cast<long>((p % ow) * spec.stride + kx) -
                        static_cast<long>(spec.padding);
        if (iy >= 0 && ix >= 0 && iy < static_cast<long>(spec.in_height) &&
            ix < static_cast<long>(spec.in_width)) {
          cols[p * patch + q] =
              x[b * chw + c * hw + static_cast<std::size_t>(iy) *
                                       spec.in_width +
                static_cast<std::size_t>(ix)];
        }
      }
    }
    const float* g = gy.data().data() + b * out_c * ohw;
    std::vector<float> dw(out_c * patch, 0.0F);
    std::vector<float> dcols(ohw * patch, 0.0F);
    for (std::size_t c = 0; c < out_c; ++c) {
      double bias_acc = 0.0;
      for (std::size_t p = 0; p < ohw; ++p) {
        double acc = 0.0;
        for (std::size_t q = 0; q < patch; ++q) {
          acc += static_cast<double>(cols[p * patch + q]) *
                 static_cast<double>(w(c, q));
        }
        r.out[(b * out_c + c) * ohw + p] = static_cast<float>(acc) + bias[c];
        bias_acc += g[c * ohw + p];
      }
      r.grad_b[c] += static_cast<float>(bias_acc);
    }
    for (std::size_t p = 0; p < ohw; ++p) {
      for (std::size_t c = 0; c < out_c; ++c) {
        const float gv = g[c * ohw + p];
        if (gv == 0.0F) continue;
        for (std::size_t q = 0; q < patch; ++q) {
          dw[c * patch + q] += gv * cols[p * patch + q];
          dcols[p * patch + q] += gv * w(c, q);
        }
      }
    }
    for (std::size_t e = 0; e < out_c * patch; ++e) r.grad_w[e] += dw[e];
    for (std::size_t p = 0; p < ohw; ++p) {
      for (std::size_t q = 0; q < patch; ++q) {
        const std::size_t c = q / (spec.kernel * spec.kernel);
        const std::size_t ky = (q / spec.kernel) % spec.kernel;
        const std::size_t kx = q % spec.kernel;
        const long iy = static_cast<long>((p / ow) * spec.stride + ky) -
                        static_cast<long>(spec.padding);
        const long ix = static_cast<long>((p % ow) * spec.stride + kx) -
                        static_cast<long>(spec.padding);
        if (iy >= 0 && ix >= 0 && iy < static_cast<long>(spec.in_height) &&
            ix < static_cast<long>(spec.in_width)) {
          r.grad_in[b * chw + c * hw +
                    static_cast<std::size_t>(iy) * spec.in_width +
                    static_cast<std::size_t>(ix)] += dcols[p * patch + q];
        }
      }
    }
  }
  return r;
}

void expect_same_bits(const std::vector<float>& expected, const Tensor& got,
                      const std::string& what) {
  ASSERT_EQ(expected.size(), got.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(expected[i]),
              std::bit_cast<std::uint32_t>(got[i]))
        << what << " element " << i << ": expected " << expected[i]
        << " got " << got[i];
  }
}

TEST(Conv2DLayer, TrainStepMatchesReferenceBitForBit) {
  // Both mnist_convnet convolutions, a padded stride-1 one and a padded
  // stride-2 one.
  struct Case {
    conv::Conv2DSpec spec;
    std::size_t out_c;
  };
  const std::vector<Case> cases = {
      {{.in_channels = 1, .in_height = 28, .in_width = 28, .kernel = 3}, 6},
      {{.in_channels = 6, .in_height = 13, .in_width = 13, .kernel = 3}, 12},
      {{.in_channels = 3,
        .in_height = 7,
        .in_width = 8,
        .kernel = 3,
        .stride = 1,
        .padding = 1},
       4},
      {{.in_channels = 2,
        .in_height = 10,
        .in_width = 9,
        .kernel = 3,
        .stride = 2,
        .padding = 1},
       5}};
  // Restores the pool size and dispatch path however the test exits.
  struct Restore {
    std::size_t threads = runtime::thread_count();
    simd::GemmPath path = simd::active_path();
    ~Restore() {
      runtime::set_thread_count(threads);
      simd::force_path(path);
    }
  } restore;
  Rng rng(41);
  for (const Case& cs : cases) {
    const conv::Conv2DSpec& spec = cs.spec;
    const std::size_t chw = spec.in_channels * spec.in_height * spec.in_width;
    const std::size_t ohw = spec.out_height() * spec.out_width();
    for (const std::size_t n : {1UL, 3UL}) {
      // With three images, image 1 is image 0 negated under the same output
      // gradient, so its dW is exactly minus image 0's; image 0 is scaled
      // up so that adding the images' dW in any other order than 0, 1, 2
      // rounds image 2's share away.
      Tensor x = Tensor::normal(Shape{n, spec.in_channels, spec.in_height,
                                      spec.in_width},
                                rng);
      Tensor gy(Shape{n, cs.out_c, spec.out_height(), spec.out_width()});
      for (std::size_t i = 0; i < gy.size(); ++i) {
        const double u = rng.uniform();
        gy[i] = u < 0.15   ? 0.0F
                : u < 0.3  ? -0.0F
                           : static_cast<float>(rng.normal());
      }
      // Exact cancellations: every third pair of neighbouring pixels carries
      // g and -g, so bias sums and dW partial sums cancel to zero.
      for (std::size_t i = 0; i + 1 < gy.size(); i += 6) gy[i + 1] = -gy[i];
      if (n == 3) {
        for (std::size_t i = 0; i < chw; ++i) {
          x[i] *= 4096.0F;
          x[chw + i] = -x[i];
        }
        const std::size_t block = cs.out_c * ohw;
        for (std::size_t i = 0; i < block; ++i) gy[block + i] = gy[i];
      }
      Rng init(7);
      nn::Conv2D probe(spec, cs.out_c, init);
      Tensor bias = Tensor::normal(Shape{cs.out_c}, rng);
      const ConvStep ref =
          reference_conv_step(spec, *probe.params()[0].value, bias, x, gy);
      for (const auto path : simd::available_paths()) {
        simd::force_path(path);
        for (const std::size_t threads : {1UL, 4UL}) {
          runtime::set_thread_count(threads);
          Rng same(7);
          nn::Conv2D layer(spec, cs.out_c, same);
          *layer.params()[1].value = bias;
          const std::string tag =
              "in_c " + std::to_string(spec.in_channels) + " stride " +
              std::to_string(spec.stride) + " n " + std::to_string(n) + " " +
              simd::path_name(path) + " t" + std::to_string(threads);
          const Tensor out = layer.forward(x, /*train=*/true);
          const Tensor grad_in = layer.backward(gy);
          expect_same_bits(ref.out, out, tag + " output");
          expect_same_bits(ref.grad_w, *layer.params()[0].grad,
                           tag + " grad_weights");
          expect_same_bits(ref.grad_b, *layer.params()[1].grad,
                           tag + " grad_bias");
          expect_same_bits(ref.grad_in, grad_in, tag + " input gradient");
        }
      }
    }
  }
}

TEST(MaxPoolLayer, GradientMatchesNumeric) {
  Rng rng(8);
  nn::Sequential model;
  conv::Conv2DSpec spec{.in_channels = 1,
                        .in_height = 4,
                        .in_width = 4,
                        .kernel = 3,
                        .stride = 1,
                        .padding = 1};
  model.emplace<nn::Conv2D>(spec, 2, rng);
  model.emplace<nn::MaxPool2D>(2);
  // Distinct values avoid argmax ties that would break central differences.
  const Tensor x = Tensor::normal(Shape{1, 1, 4, 4}, rng);
  const Tensor grad = testing::sq_loss_input_grad(model, x);
  EXPECT_LT(testing::max_grad_error(
                [&](const Tensor& z) { return testing::sq_loss(model, z); },
                x, grad, 1e-4F),
            kTol);
}

TEST(MaxPoolLayer, InferenceMatchesTrainingBitForBit) {
  // The inference path (a fast body for window 2, a generic one otherwise)
  // must reproduce the training path's strict-greater argmax scan bit for
  // bit on finite inputs: ties keep the first element, so a window of mixed
  // signed zeros pools to whichever zero comes first. Odd sizes drop the
  // last row/column.
  Rng rng(31);
  const std::array<float, 4> discrete{-0.0F, 0.0F, 0.5F, -0.5F};
  for (const std::size_t window : {2UL, 3UL}) {
    for (const auto& [h, w] : std::vector<std::pair<std::size_t, std::size_t>>{
             {11, 11}, {13, 13}, {5, 7}}) {
      Tensor x(Shape{2, 3, h, w});
      for (std::size_t i = 0; i < x.size(); ++i) {
        // ~40% from a small set, so ties and +/-0 windows are common.
        x[i] = rng.uniform() < 0.4
                   ? discrete[rng.uniform_index(discrete.size())]
                   : static_cast<float>(rng.normal());
      }
      // Plant the first two windows of every plane: all zeros, -0 first
      // then +0 first.
      for (std::size_t plane = 0; plane < 6; ++plane) {
        float* base = x.data().data() + plane * h * w;
        for (std::size_t ky = 0; ky < window; ++ky) {
          for (std::size_t kx = 0; kx < window; ++kx) {
            const bool odd = ((ky * window + kx) % 2) == 1;
            base[ky * w + kx] = odd ? 0.0F : -0.0F;
            base[ky * w + window + kx] = odd ? -0.0F : 0.0F;
          }
        }
      }
      nn::MaxPool2D pool(window);
      const Tensor inference = pool.forward(x, /*train=*/false);
      const Tensor training = pool.forward(x, /*train=*/true);
      ASSERT_EQ(inference.shape(), training.shape());
      ASSERT_EQ(inference.shape(), Shape({2, 3, h / window, w / window}));
      for (std::size_t i = 0; i < inference.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(inference[i]),
                  std::bit_cast<std::uint32_t>(training[i]))
            << "window " << window << " " << h << "x" << w << " output " << i
            << ": inference " << inference[i] << " training " << training[i];
      }
      const std::size_t ohw = (h / window) * (w / window);
      for (std::size_t plane = 0; plane < 6; ++plane) {
        EXPECT_TRUE(std::signbit(inference[plane * ohw]));
        EXPECT_FALSE(std::signbit(inference[plane * ohw + 1]));
        EXPECT_EQ(inference[plane * ohw], 0.0F);
      }
    }
  }
}

TEST(FlattenLayer, RoundTripsShape) {
  nn::Flatten flatten;
  Rng rng(9);
  const Tensor x = Tensor::normal(Shape{2, 3, 4, 4}, rng);
  const Tensor y = flatten.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 48}));
  const Tensor g = flatten.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(DropoutLayer, InferenceIsIdentity) {
  Rng rng(10);
  nn::Dropout dropout(0.5F, rng);
  const Tensor x = Tensor::normal(Shape{4, 8}, rng);
  const Tensor y = dropout.forward(x, /*train=*/false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(DropoutLayer, TrainingZeroesAboutRate) {
  Rng rng(11);
  nn::Dropout dropout(0.5F, rng);
  const Tensor x = Tensor::ones(Shape{1, 4000});
  const Tensor y = dropout.forward(x, /*train=*/true);
  const std::size_t kept = y.l0_count();
  EXPECT_NEAR(static_cast<double>(kept) / 4000.0, 0.5, 0.05);
  // Inverted scaling keeps the expectation.
  EXPECT_NEAR(y.mean(), 1.0F, 0.1F);
}

TEST(DropoutLayer, BackwardUsesSameMask) {
  Rng rng(12);
  nn::Dropout dropout(0.3F, rng);
  const Tensor x = Tensor::ones(Shape{1, 100});
  const Tensor y = dropout.forward(x, /*train=*/true);
  const Tensor g = dropout.backward(Tensor::ones(Shape{1, 100}));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(g[i], y[i]);  // mask and scale identical
  }
}

TEST(DropoutLayer, RejectsBadRate) {
  Rng rng(13);
  EXPECT_THROW(nn::Dropout(1.0F, rng), std::invalid_argument);
  EXPECT_THROW(nn::Dropout(-0.1F, rng), std::invalid_argument);
}

TEST(Sequential, DeepCompositeGradient) {
  Rng rng(14);
  nn::Sequential model;
  conv::Conv2DSpec spec{.in_channels = 1,
                        .in_height = 6,
                        .in_width = 6,
                        .kernel = 3,
                        .stride = 1,
                        .padding = 0};
  // Tanh instead of ReLU here: central differences in float32 cannot resolve
  // ReLU kink crossings, and the ReLU path is already covered above.
  model.emplace<nn::Conv2D>(spec, 2, rng);
  model.emplace<nn::Tanh>();
  model.emplace<nn::MaxPool2D>(2);
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(8, 5, rng);
  model.emplace<nn::Tanh>();
  model.emplace<nn::Dense>(5, 3, rng);
  const Tensor x = Tensor::normal(Shape{2, 1, 6, 6}, rng);
  const Tensor grad = testing::sq_loss_input_grad(model, x);
  EXPECT_LT(testing::max_grad_error(
                [&](const Tensor& z) { return testing::sq_loss(model, z); },
                x, grad, 1e-3F),
            kTol);
  EXPECT_LT(testing::max_param_grad_error(model, x, 8, 1e-3F), 0.05);
}

TEST(Sequential, SingleExampleHelpers) {
  Rng rng(15);
  nn::Sequential model;
  model.emplace<nn::Dense>(4, 3, rng);
  const Tensor x = Tensor::normal(Shape{4}, rng);
  const Tensor logits = model.logits(x);
  EXPECT_EQ(logits.shape(), Shape({3}));
  EXPECT_EQ(model.classify(x), logits.argmax());
  const Tensor p = model.probabilities(x);
  EXPECT_NEAR(p.sum(), 1.0F, 1e-5F);
}

TEST(Sequential, ParameterCount) {
  Rng rng(16);
  nn::Sequential model;
  model.emplace<nn::Dense>(10, 5, rng);  // 50 + 5
  model.emplace<nn::Dense>(5, 2, rng);   // 10 + 2
  EXPECT_EQ(model.parameter_count(), 67U);
}

TEST(Sequential, ZeroGradClearsAccumulation) {
  Rng rng(17);
  nn::Sequential model;
  model.emplace<nn::Dense>(3, 2, rng);
  const Tensor x = Tensor::normal(Shape{1, 3}, rng);
  const Tensor out = model.forward(x, true);
  model.backward(out);
  model.zero_grad();
  for (auto& p : model.params()) {
    for (std::size_t i = 0; i < p.grad->size(); ++i) {
      EXPECT_FLOAT_EQ((*p.grad)[i], 0.0F);
    }
  }
}

}  // namespace
}  // namespace dcn
