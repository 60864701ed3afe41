#include "tensor/conv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "tensor/ops.h"

namespace fedms::tensor {
namespace {

TEST(ConvOutSize, Formulas) {
  EXPECT_EQ(conv_out_size(8, 3, 1, 1), 8u);   // "same" conv
  EXPECT_EQ(conv_out_size(8, 3, 2, 1), 4u);   // stride 2 halves
  EXPECT_EQ(conv_out_size(5, 3, 1, 0), 3u);   // valid conv
  EXPECT_EQ(conv_out_size(4, 1, 1, 0), 4u);   // 1x1
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  core::Rng rng(1);
  const Tensor input = Tensor::randn({1, 1, 4, 4}, rng);
  // 1x1 kernel of weight 1 = identity.
  const Tensor weight({1, 1, 1, 1}, std::vector<float>{1.0f});
  const Tensor out =
      conv2d_forward(input, weight, Tensor(), Conv2dSpec{1, 0});
  ASSERT_TRUE(out.same_shape(input));
  for (std::size_t i = 0; i < out.numel(); ++i)
    EXPECT_FLOAT_EQ(out[i], input[i]);
}

TEST(Conv2d, HandChecked3x3SumKernel) {
  // All-ones 3x3 kernel with padding 1 computes neighbourhood sums.
  Tensor input({1, 1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) input[i] = float(i + 1);  // 1..9
  const Tensor weight = Tensor::ones({1, 1, 3, 3});
  const Tensor out =
      conv2d_forward(input, weight, Tensor(), Conv2dSpec{1, 1});
  // Center output = sum of all = 45; corner (0,0) = 1+2+4+5 = 12.
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1), 45.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 12.0f);
}

TEST(Conv2d, BiasIsAdded) {
  const Tensor input = Tensor::ones({1, 1, 2, 2});
  const Tensor weight({1, 1, 1, 1}, std::vector<float>{2.0f});
  const Tensor bias = Tensor::from_list({0.5f});
  const Tensor out = conv2d_forward(input, weight, bias, Conv2dSpec{1, 0});
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 2.5f);
}

TEST(Conv2d, StrideSkipsPositions) {
  Tensor input({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) input[i] = float(i);
  const Tensor weight({1, 1, 1, 1}, std::vector<float>{1.0f});
  const Tensor out =
      conv2d_forward(input, weight, Tensor(), Conv2dSpec{2, 0});
  ASSERT_EQ(out.dim(2), 2u);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 1), 2.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 0), 8.0f);
}

TEST(Depthwise, ChannelsStayIndependent) {
  core::Rng rng(2);
  Tensor input = Tensor::randn({1, 2, 3, 3}, rng);
  // Channel 0 kernel = 0 -> output 0; channel 1 kernel = identity (center 1).
  Tensor weight({2, 1, 3, 3});
  weight.at(1, 0, 1, 1) = 1.0f;
  const Tensor out =
      depthwise_conv2d_forward(input, weight, Tensor(), Conv2dSpec{1, 1});
  for (std::size_t h = 0; h < 3; ++h)
    for (std::size_t w = 0; w < 3; ++w) {
      EXPECT_FLOAT_EQ(out.at(0, 0, h, w), 0.0f);
      EXPECT_FLOAT_EQ(out.at(0, 1, h, w), input.at(0, 1, h, w));
    }
}

TEST(GlobalAvgPool, ComputesSpatialMean) {
  Tensor input({1, 2, 2, 2});
  for (std::size_t i = 0; i < 8; ++i) input[i] = float(i);
  const Tensor out = global_avg_pool_forward(input);
  ASSERT_EQ(out.dim(0), 1u);
  ASSERT_EQ(out.dim(1), 2u);
  EXPECT_FLOAT_EQ(out.at(0, 0), (0 + 1 + 2 + 3) / 4.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), (4 + 5 + 6 + 7) / 4.0f);
}

TEST(GlobalAvgPool, BackwardSpreadsUniformly) {
  const Tensor grad({1, 1}, std::vector<float>{8.0f});
  const Tensor g = global_avg_pool_backward(grad, {1, 1, 2, 2});
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(g[i], 2.0f);
}

// ---- finite-difference gradient checks ----

// Scalar objective: sum of conv output. Perturbs each input/weight entry.
double conv_loss(const Tensor& input, const Tensor& weight,
                 const Tensor& bias, const Conv2dSpec& spec, bool depthwise) {
  const Tensor out = depthwise
                         ? depthwise_conv2d_forward(input, weight, bias, spec)
                         : conv2d_forward(input, weight, bias, spec);
  return sum(out);
}

struct ConvGradCase {
  bool depthwise;
  std::size_t stride;
  std::size_t padding;
};

// Without a printer gtest names each case by its raw bytes, padding
// included, so the test names would change from run to run.
void PrintTo(const ConvGradCase& c, std::ostream* os) {
  *os << (c.depthwise ? "depthwise" : "dense") << " stride=" << c.stride
      << " padding=" << c.padding;
}

class ConvGradCheck : public ::testing::TestWithParam<ConvGradCase> {};

TEST_P(ConvGradCheck, MatchesFiniteDifferences) {
  const ConvGradCase param = GetParam();
  core::Rng rng(7);
  const std::size_t channels = 2;
  Tensor input = Tensor::randn({2, channels, 4, 4}, rng);
  Tensor weight = param.depthwise
                      ? Tensor::randn({channels, 1, 3, 3}, rng)
                      : Tensor::randn({3, channels, 3, 3}, rng);
  Tensor bias = Tensor::randn({weight.dim(0)}, rng);
  const Conv2dSpec spec{param.stride, param.padding};

  // Analytic gradients with dLoss/dOut = all ones.
  const Tensor out = param.depthwise
                         ? depthwise_conv2d_forward(input, weight, bias, spec)
                         : conv2d_forward(input, weight, bias, spec);
  const Tensor ones_grad = Tensor::ones(out.shape());
  const Conv2dGrads grads =
      param.depthwise
          ? depthwise_conv2d_backward(input, weight, ones_grad, spec)
          : conv2d_backward(input, weight, ones_grad, spec);

  const float eps = 1e-2f;
  auto check = [&](Tensor& param_tensor, const Tensor& grad_tensor,
                   const char* label) {
    for (std::size_t i = 0; i < param_tensor.numel(); i += 3) {
      const float saved = param_tensor[i];
      param_tensor[i] = saved + eps;
      const double up =
          conv_loss(input, weight, bias, spec, param.depthwise);
      param_tensor[i] = saved - eps;
      const double down =
          conv_loss(input, weight, bias, spec, param.depthwise);
      param_tensor[i] = saved;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(grad_tensor[i], numeric, 2e-2)
          << label << " index " << i;
    }
  };
  check(input, grads.grad_input, "input");
  check(weight, grads.grad_weight, "weight");
  check(bias, grads.grad_bias, "bias");
}

INSTANTIATE_TEST_SUITE_P(
    AllConvConfigs, ConvGradCheck,
    ::testing::Values(ConvGradCase{false, 1, 1}, ConvGradCase{false, 2, 1},
                      ConvGradCase{false, 1, 0}, ConvGradCase{true, 1, 1},
                      ConvGradCase{true, 2, 1}));

TEST(ConvDeath, MismatchedChannelsAbort) {
  const Tensor input({1, 3, 4, 4});
  const Tensor weight({2, 4, 3, 3});
  EXPECT_DEATH(
      (void)conv2d_forward(input, weight, Tensor(), Conv2dSpec{1, 1}),
      "Precondition");
}

}  // namespace
}  // namespace fedms::tensor
