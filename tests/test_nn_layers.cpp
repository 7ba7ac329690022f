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
#include "tensor/conv.hpp"

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
