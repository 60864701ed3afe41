#include "tensor/conv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>

#include "core/rounding.h"
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

// ---- depthwise kernels vs the direct reference loops, bit for bit ----

struct DepthwiseCase {
  std::size_t height;
  std::size_t width;
  std::size_t kernel;
  std::size_t stride;
  std::size_t padding;
  bool bias;
};

void PrintTo(const DepthwiseCase& c, std::ostream* os) {
  *os << c.height << "x" << c.width << " k=" << c.kernel
      << " stride=" << c.stride << " padding=" << c.padding
      << (c.bias ? " bias" : " no-bias");
}

// Which special values a case plants in its random tensors.
enum class Plant {
  kNone,
  kSignedZeroGrads,
  kNonFiniteInputs,
  kBoth,
  // Every value becomes ±1 or ±2^35, so products are ±1, ±2^35 or ±2^70:
  // terms of 2^70 cancel exactly and swallow a 1 or not depending on the
  // order, which makes even the forward's double sums order-sensitive at
  // float precision (with random values they practically never are).
  kCancellingMagnitudes,
};

void make_cancelling(Tensor& t) {
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = std::copysign(std::abs(t[i]) > 0.67f ? std::ldexp(1.0f, 35) : 1.0f,
                         t[i]);
}

// Bitwise equality, except that any NaN equals any NaN: IEEE 754 leaves
// open which NaN operand an add propagates, and the compiler may commute
// an add's operands, so NaN payloads are not part of the contract.
// Signed zeros and infinities are compared exactly.
::testing::AssertionResult BitsEqual(const Tensor& kernel,
                                     const Tensor& reference) {
  if (!kernel.same_shape(reference))
    return ::testing::AssertionFailure()
           << "shape " << shape_to_string(kernel.shape()) << " vs "
           << shape_to_string(reference.shape());
  for (std::size_t i = 0; i < kernel.numel(); ++i) {
    const float a = kernel[i], b = reference[i];
    if (std::isnan(a) && std::isnan(b)) continue;
    std::uint32_t bits_a = 0, bits_b = 0;
    std::memcpy(&bits_a, &a, sizeof a);
    std::memcpy(&bits_b, &b, sizeof b);
    if (bits_a != bits_b)
      return ::testing::AssertionFailure()
             << "index " << i << ": kernel " << a << " (0x" << std::hex
             << bits_a << ") vs reference " << b << " (0x" << bits_b
             << ")" << std::dec;
  }
  return ::testing::AssertionSuccess();
}

class DepthwiseKernel : public ::testing::TestWithParam<DepthwiseCase> {};

TEST_P(DepthwiseKernel, BitIdenticalToReferenceUnderEveryRoundingMode) {
  const DepthwiseCase param = GetParam();
  const std::size_t N = 2, C = 3;
  const Conv2dSpec spec{param.stride, param.padding};
  const std::size_t Hout =
      conv_out_size(param.height, param.kernel, spec.stride, spec.padding);
  const std::size_t Wout =
      conv_out_size(param.width, param.kernel, spec.stride, spec.padding);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const Plant plant :
       {Plant::kNone, Plant::kSignedZeroGrads, Plant::kNonFiniteInputs,
        Plant::kBoth, Plant::kCancellingMagnitudes}) {
    core::Rng rng(11);
    Tensor input = Tensor::randn({N, C, param.height, param.width}, rng);
    Tensor weight = Tensor::randn({C, 1, param.kernel, param.kernel}, rng);
    const Tensor bias = param.bias ? Tensor::randn({C}, rng) : Tensor();
    Tensor grad = Tensor::randn({N, C, Hout, Wout}, rng);
    if (plant == Plant::kSignedZeroGrads || plant == Plant::kBoth) {
      // Plane (0, 1) gets one +0 and one -0; plane (1, 2) is all zeros.
      // Plane (0, 0) stays zero-free, so both backward paths run.
      const std::size_t plane = Hout * Wout;
      grad[plane] = 0.0f;
      grad[plane + plane - 1] = -0.0f;
      for (std::size_t i = 0; i < plane; ++i)
        grad[5 * plane + i] = (i % 2 == 0) ? 0.0f : -0.0f;
    }
    if (plant == Plant::kNonFiniteInputs || plant == Plant::kBoth) {
      const std::size_t plane = param.height * param.width;
      // Plane (0, 1)'s corner meets its +0 gradient: a skipped 0 × -inf.
      input[plane] = -inf;
      input[plane + plane / 2] = inf;
      input[0] = inf;
      input[4 * plane + 1] = nan;
      // Channel 2's last tap meets the all-zero plane (1, 2).
      weight[weight.numel() - 1] = inf;
    }
    if (plant == Plant::kCancellingMagnitudes) {
      make_cancelling(input);
      make_cancelling(weight);
      make_cancelling(grad);
    }
    for (std::size_t m = 0; m < core::kRoundingModeCount; ++m) {
      const int mode = core::all_rounding_modes()[m];
      SCOPED_TRACE(::testing::Message()
                   << core::rounding_mode_name(mode) << " plant "
                   << static_cast<int>(plant));
      core::ScopedRoundingMode rounding(mode);
      EXPECT_TRUE(BitsEqual(
          depthwise_conv2d_forward(input, weight, bias, spec),
          depthwise_conv2d_forward_reference(input, weight, bias, spec)));
      const Conv2dGrads kernel =
          depthwise_conv2d_backward(input, weight, grad, spec);
      const Conv2dGrads reference =
          depthwise_conv2d_backward_reference(input, weight, grad, spec);
      EXPECT_TRUE(BitsEqual(kernel.grad_input, reference.grad_input))
          << "grad_input";
      EXPECT_TRUE(BitsEqual(kernel.grad_weight, reference.grad_weight))
          << "grad_weight";
      EXPECT_TRUE(BitsEqual(kernel.grad_bias, reference.grad_bias))
          << "grad_bias";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DepthwiseKernel,
    ::testing::Values(
        DepthwiseCase{8, 8, 3, 1, 1, false},  // MobileNet stride 1
        DepthwiseCase{8, 8, 3, 2, 1, true},   // MobileNet stride 2
        DepthwiseCase{4, 4, 3, 1, 1, true},
        DepthwiseCase{5, 7, 1, 1, 0, true},   // 1x1, H != W
        DepthwiseCase{7, 9, 5, 2, 2, false},  // odd sizes, k=5
        DepthwiseCase{6, 4, 5, 1, 2, true},
        DepthwiseCase{6, 3, 3, 1, 0, true},   // Wout == 1
        DepthwiseCase{5, 2, 3, 2, 1, false},  // Wout == 1, stride 2
        DepthwiseCase{3, 3, 3, 1, 2, true},   // taps wholly in the padding
        DepthwiseCase{1, 9, 5, 1, 2, false},  // one input row
        DepthwiseCase{9, 7, 3, 2, 0, true},
        DepthwiseCase{7, 8, 3, 3, 1, true}));  // generic (runtime) stride

TEST(DepthwiseKernel, AccumulatingBackwardAddsIntoBuffers) {
  core::Rng rng(12);
  const Tensor input = Tensor::randn({2, 3, 5, 5}, rng);
  const Tensor weight = Tensor::randn({3, 1, 3, 3}, rng);
  const Conv2dSpec spec{1, 1};
  const Tensor grad = Tensor::randn({2, 3, 5, 5}, rng);
  const Conv2dGrads fresh =
      depthwise_conv2d_backward(input, weight, grad, spec);
  Tensor grad_weight = Tensor::ones(weight.shape());
  Tensor no_bias;
  const Tensor grad_input = depthwise_conv2d_backward_acc(
      input, weight, grad, spec, grad_weight, no_bias);
  EXPECT_TRUE(BitsEqual(grad_input, fresh.grad_input));
  for (std::size_t i = 0; i < grad_weight.numel(); ++i)
    EXPECT_NEAR(grad_weight[i], 1.0f + fresh.grad_weight[i], 1e-5f);
}

TEST(DepthwiseDeath, MismatchedGradOutputAborts) {
  const Tensor input({1, 2, 4, 4});
  const Tensor weight({2, 1, 3, 3});
  const Tensor grad({1, 2, 3, 4});  // stride 1, padding 1 gives 4x4
  EXPECT_DEATH((void)depthwise_conv2d_backward(input, weight, grad,
                                               Conv2dSpec{1, 1}),
               "Precondition");
}

TEST(ConvDeath, MismatchedChannelsAbort) {
  const Tensor input({1, 3, 4, 4});
  const Tensor weight({2, 4, 3, 3});
  EXPECT_DEATH(
      (void)conv2d_forward(input, weight, Tensor(), Conv2dSpec{1, 1}),
      "Precondition");
}

}  // namespace
}  // namespace fedms::tensor
