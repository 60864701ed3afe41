#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/rounding.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv_layers.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "tensor/ops.h"

namespace fedms::nn {
namespace {

using tensor::Tensor;

TEST(Linear, ComputesAffineMap) {
  core::Rng rng(1);
  Linear layer(2, 3, rng);
  // Overwrite with known weights: y = x W^T + b.
  layer.weight() = Tensor({3, 2}, std::vector<float>{1, 0, 0, 1, 1, 1});
  layer.bias() = Tensor::from_list({0.5f, -0.5f, 0.0f});
  const Tensor x({1, 2}, std::vector<float>{2.0f, 3.0f});
  const Tensor y = layer.forward(x, true);
  ASSERT_EQ(y.dim(1), 3u);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 5.0f);
}

TEST(Linear, ExposesTwoParams) {
  core::Rng rng(2);
  Linear layer(4, 2, rng);
  std::vector<ParamRef> refs;
  layer.collect_params(refs);
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].value->numel(), 8u);
  EXPECT_EQ(refs[1].value->numel(), 2u);
}

TEST(Linear, ZeroGradsClearsAccumulators) {
  core::Rng rng(3);
  Linear layer(2, 2, rng);
  const Tensor x = Tensor::ones({3, 2});
  layer.forward(x, true);
  layer.backward(Tensor::ones({3, 2}));
  std::vector<ParamRef> refs;
  layer.collect_params(refs);
  EXPECT_NE((*refs[0].grad)[0], 0.0f);
  layer.zero_grads();
  for (const auto& ref : refs)
    for (std::size_t i = 0; i < ref.grad->numel(); ++i)
      EXPECT_EQ((*ref.grad)[i], 0.0f);
}

TEST(Linear, GradientsAccumulateAcrossBackwards) {
  core::Rng rng(4);
  Linear layer(2, 2, rng);
  const Tensor x = Tensor::ones({1, 2});
  layer.forward(x, true);
  layer.backward(Tensor::ones({1, 2}));
  std::vector<ParamRef> refs;
  layer.collect_params(refs);
  const float after_one = (*refs[0].grad)[0];
  layer.forward(x, true);
  layer.backward(Tensor::ones({1, 2}));
  EXPECT_FLOAT_EQ((*refs[0].grad)[0], 2.0f * after_one);
}

TEST(ReLUs, ForwardClamping) {
  ReLU relu;
  const Tensor y =
      relu.forward(Tensor::from_list({-1.0f, 0.0f, 2.0f, 7.0f}), true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  EXPECT_EQ(y[3], 7.0f);

  ReLU6 relu6;
  const Tensor y6 =
      relu6.forward(Tensor::from_list({-1.0f, 3.0f, 9.0f}), true);
  EXPECT_EQ(y6[0], 0.0f);
  EXPECT_EQ(y6[1], 3.0f);
  EXPECT_EQ(y6[2], 6.0f);
}

TEST(ReLUs, BackwardMasks) {
  ReLU relu;
  relu.forward(Tensor::from_list({-1.0f, 2.0f}), true);
  const Tensor g = relu.backward(Tensor::from_list({5.0f, 5.0f}));
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[1], 5.0f);

  ReLU6 relu6;
  relu6.forward(Tensor::from_list({-1.0f, 3.0f, 9.0f}), true);
  const Tensor g6 = relu6.backward(Tensor::from_list({1.0f, 1.0f, 1.0f}));
  EXPECT_EQ(g6[0], 0.0f);  // below 0
  EXPECT_EQ(g6[1], 1.0f);  // in the linear region
  EXPECT_EQ(g6[2], 0.0f);  // above 6
}

// The ReLU6 backward mask before it became a select: the oracle the
// branch-free loop must match bit for bit.
Tensor branchy_relu6_backward(const Tensor& input, const Tensor& grad) {
  Tensor g = grad;
  for (std::size_t i = 0; i < g.numel(); ++i)
    if (input[i] <= 0.0f || input[i] >= 6.0f) g[i] = 0.0f;
  return g;
}

Tensor branchy_relu_backward(const Tensor& input, const Tensor& grad) {
  Tensor g = grad;
  for (std::size_t i = 0; i < g.numel(); ++i)
    if (input[i] <= 0.0f) g[i] = 0.0f;
  return g;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(ReLUs, BackwardZeroesAtTheEdgesAndPassesNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float below_six = std::nextafter(6.0f, 0.0f);
  const Tensor x = Tensor::from_list(
      {-0.0f, 0.0f, 6.0f, nan, below_six, 1e-30f, -inf, inf});
  const Tensor grad = Tensor::from_list(
      {2.0f, 2.0f, 2.0f, 2.0f, 2.0f, 2.0f, 2.0f, 2.0f});

  ReLU relu;
  relu.forward(x, true);
  const Tensor g = relu.backward(grad);
  EXPECT_EQ(g[0], 0.0f);  // -0
  EXPECT_EQ(g[1], 0.0f);  // +0
  EXPECT_EQ(g[2], 2.0f);
  EXPECT_EQ(g[3], 2.0f);  // NaN input keeps its gradient
  EXPECT_EQ(g[5], 2.0f);
  EXPECT_EQ(g[6], 0.0f);
  EXPECT_EQ(g[7], 2.0f);

  ReLU6 relu6;
  relu6.forward(x, true);
  const Tensor g6 = relu6.backward(grad);
  EXPECT_EQ(g6[0], 0.0f);  // -0
  EXPECT_EQ(g6[1], 0.0f);  // +0
  EXPECT_EQ(g6[2], 0.0f);  // exactly 6
  EXPECT_EQ(g6[3], 2.0f);  // NaN input keeps its gradient
  EXPECT_EQ(g6[4], 2.0f);  // just below 6
  EXPECT_EQ(g6[5], 2.0f);
  EXPECT_EQ(g6[6], 0.0f);
  EXPECT_EQ(g6[7], 0.0f);
}

TEST(ReLUs, BackwardBitIdenticalToTheBranchyLoop) {
  core::Rng rng(21);
  Tensor x = Tensor::rand_uniform({4, 3, 5, 7}, rng, -3.0f, 9.0f);
  Tensor grad = Tensor::randn(x.shape(), rng);
  const float specials[] = {0.0f, -0.0f, 6.0f, -6.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()};
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (i % 7 == 0) x[i] = specials[(i / 7) % 6];
    if (i % 7 == 3) grad[i] = specials[(i / 7) % 6];
  }
  ReLU relu;
  relu.forward(x, true);
  EXPECT_TRUE(same_bits(relu.backward(grad), branchy_relu_backward(x, grad)));
  ReLU6 relu6;
  relu6.forward(x, true);
  EXPECT_TRUE(
      same_bits(relu6.backward(grad), branchy_relu6_backward(x, grad)));
}

// nn::DepthwiseConv2d accumulates its parameter gradients straight into
// the buffers zero_grads left at +0; that must equal the reference
// gradients added onto +0, bit for bit, under every rounding mode.
TEST(DepthwiseConv2dLayer, BackwardBitIdenticalToReferencePlusAdd) {
  for (const std::size_t stride : {1u, 2u}) {
    core::Rng rng(22);
    DepthwiseConv2d layer(4, 3, stride, 1, rng, /*with_bias=*/true);
    const Tensor x = Tensor::randn({3, 4, 6, 6}, rng);
    std::vector<ParamRef> refs;
    layer.collect_params(refs);
    ASSERT_EQ(refs.size(), 2u);
    (*refs[1].value) = Tensor::randn({4}, rng);
    const Tensor y = layer.forward(x, true);
    const Tensor grad = Tensor::randn(y.shape(), rng);
    for (std::size_t m = 0; m < core::kRoundingModeCount; ++m) {
      const int mode = core::all_rounding_modes()[m];
      SCOPED_TRACE(core::rounding_mode_name(mode));
      core::ScopedRoundingMode rounding(mode);
      layer.zero_grads();
      const Tensor grad_input = layer.backward(grad);
      const tensor::Conv2dGrads ref =
          tensor::depthwise_conv2d_backward_reference(
              x, *refs[0].value, grad, tensor::Conv2dSpec{stride, 1});
      Tensor grad_weight(refs[0].value->shape());
      Tensor grad_bias({4});
      tensor::add_inplace(grad_weight, ref.grad_weight);
      tensor::add_inplace(grad_bias, ref.grad_bias);
      EXPECT_TRUE(same_bits(grad_input, ref.grad_input));
      EXPECT_TRUE(same_bits(*refs[0].grad, grad_weight));
      EXPECT_TRUE(same_bits(*refs[1].grad, grad_bias));
    }
  }
}

TEST(TanhLayer, MatchesStdTanh) {
  Tanh layer;
  const Tensor y = layer.forward(Tensor::from_list({0.5f, -1.0f}), true);
  EXPECT_NEAR(y[0], std::tanh(0.5f), 1e-6);
  EXPECT_NEAR(y[1], std::tanh(-1.0f), 1e-6);
}

TEST(FlattenLayer, RoundTripsShape) {
  Flatten flatten;
  core::Rng rng(5);
  const Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  const Tensor y = flatten.forward(x, true);
  ASSERT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 48u);
  const Tensor g = flatten.backward(y);
  EXPECT_TRUE(g.same_shape(x));
}

TEST(Sequential, ComposesLayers) {
  core::Rng rng(6);
  Sequential net;
  net.emplace<Linear>(2, 2, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(2, 1, rng);
  EXPECT_EQ(net.size(), 3u);
  const Tensor x = Tensor::ones({4, 2});
  const Tensor y = net.forward(x, true);
  EXPECT_EQ(y.dim(0), 4u);
  EXPECT_EQ(y.dim(1), 1u);
  // Backward shape round-trips.
  const Tensor g = net.backward(Tensor::ones({4, 1}));
  EXPECT_TRUE(g.same_shape(x));
}

TEST(Sequential, CollectsParamsInOrder) {
  core::Rng rng(7);
  Sequential net;
  net.emplace<Linear>(3, 2, rng);
  net.emplace<Linear>(2, 1, rng);
  std::vector<ParamRef> refs;
  net.collect_params(refs);
  ASSERT_EQ(refs.size(), 4u);
  EXPECT_EQ(refs[0].value->numel(), 6u);  // first layer weight
  EXPECT_EQ(refs[2].value->numel(), 2u);  // second layer weight
}

TEST(ResidualLayer, AddsIdentity) {
  // Inner layer is a Linear initialized to zero => Residual == identity.
  core::Rng rng(8);
  auto inner = std::make_unique<Linear>(3, 3, rng);
  inner->weight().fill(0.0f);
  inner->bias().fill(0.0f);
  Residual residual(std::move(inner));
  const Tensor x({1, 3}, std::vector<float>{1, 2, 3});
  const Tensor y = residual.forward(x, true);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
  // Backward adds the skip path: dX = inner_backward(g) + g = g here.
  const Tensor g = residual.backward(Tensor::ones({1, 3}));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(g[i], 1.0f);
}

TEST(BatchNorm, NormalizesTrainingBatch) {
  BatchNorm2d bn(2);
  core::Rng rng(9);
  const Tensor x = Tensor::randn({4, 2, 3, 3}, rng, 5.0f, 2.0f);
  const Tensor y = bn.forward(x, /*training=*/true);
  // Per channel, output should have ~0 mean and ~1 variance.
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    std::size_t n = 0;
    for (std::size_t b = 0; b < 4; ++b)
      for (std::size_t h = 0; h < 3; ++h)
        for (std::size_t w = 0; w < 3; ++w) {
          const double v = y.at(b, c, h, w);
          sum += v;
          sq += v * v;
          ++n;
        }
    const double mean = sum / double(n);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sq / double(n) - mean * mean, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsMoveTowardBatchStats) {
  BatchNorm2d bn(1, 1e-5f, 0.5f);
  const Tensor x = Tensor::full({2, 1, 2, 2}, 10.0f);
  bn.forward(x, true);
  // Batch mean 10, var 0: running = 0.5*old + 0.5*batch.
  EXPECT_NEAR(bn.running_mean()[0], 5.0f, 1e-5);
  EXPECT_NEAR(bn.running_var()[0], 0.5f, 1e-5);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm2d bn(1, 1e-5f, 1.0f);  // momentum 1: running = batch stats
  core::Rng rng(10);
  const Tensor x = Tensor::randn({8, 1, 4, 4}, rng, 3.0f, 2.0f);
  bn.forward(x, true);
  const Tensor y = bn.forward(x, /*training=*/false);
  // Eval with running == batch stats normalizes the same batch to ~N(0,1).
  double sum = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) sum += y[i];
  EXPECT_NEAR(sum / double(y.numel()), 0.0, 0.05);
}

TEST(BatchNorm, ExposesParamsAndBuffers) {
  BatchNorm2d bn(4);
  std::vector<ParamRef> refs;
  bn.collect_params(refs);
  ASSERT_EQ(refs.size(), 2u);  // gamma, beta
  std::vector<Tensor*> buffers;
  bn.collect_buffers(buffers);
  ASSERT_EQ(buffers.size(), 2u);  // running mean, running var
  EXPECT_EQ(buffers[0]->numel(), 4u);
}

TEST(LayersDeath, LinearRejectsWrongWidth) {
  core::Rng rng(11);
  Linear layer(3, 2, rng);
  EXPECT_DEATH((void)layer.forward(Tensor::ones({1, 4}), true),
               "Precondition");
}

TEST(LayersDeath, ResidualRejectsShapeChange) {
  core::Rng rng(12);
  Residual residual(std::make_unique<Linear>(3, 2, rng));
  EXPECT_DEATH((void)residual.forward(Tensor::ones({1, 3}), true),
               "Precondition");
}

}  // namespace
}  // namespace fedms::nn
