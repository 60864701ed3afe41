// Adam — a substrate extra beyond the paper's SGD setting.

#include <gtest/gtest.h>

#include <cmath>

#include "nn/classifier.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace fedms::nn {
namespace {

using tensor::Tensor;

struct OneParam {
  Tensor value = Tensor::from_list({1.0f});
  Tensor grad = Tensor::from_list({0.5f});
  std::vector<ParamRef> refs() { return {{&value, &grad, "w"}}; }
};

TEST(Adam, FirstStepMovesByLearningRate) {
  // With bias correction, the very first Adam step is ≈ lr * sign(grad).
  OneParam p;
  Adam adam(std::make_unique<ConstantSchedule>(0.1));
  adam.step(p.refs());
  EXPECT_NEAR(p.value[0], 1.0f - 0.1f, 1e-4f);
}

TEST(Adam, StepSizeInvariantToGradientScale) {
  // Adam normalizes by the gradient's magnitude: scaling grad by 100
  // barely changes the step.
  OneParam small;
  small.grad = Tensor::from_list({0.01f});
  OneParam large;
  large.grad = Tensor::from_list({1.0f});
  Adam adam_a(std::make_unique<ConstantSchedule>(0.1));
  Adam adam_b(std::make_unique<ConstantSchedule>(0.1));
  adam_a.step(small.refs());
  adam_b.step(large.refs());
  EXPECT_NEAR(small.value[0], large.value[0], 1e-3f);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize f(w) = (w-3)^2 by feeding grad = 2(w-3).
  OneParam p;
  p.value = Tensor::from_list({-5.0f});
  Adam adam(std::make_unique<ConstantSchedule>(0.2));
  for (int i = 0; i < 400; ++i) {
    p.grad = Tensor::from_list({2.0f * (p.value[0] - 3.0f)});
    adam.step(p.refs());
  }
  EXPECT_NEAR(p.value[0], 3.0f, 0.05f);
}

TEST(Adam, WeightDecayShrinksParameters) {
  OneParam p;
  p.grad.fill(0.0f);
  Adam adam(std::make_unique<ConstantSchedule>(0.1),
            AdamOptions{0.9, 0.999, 1e-8, 0.5});
  for (int i = 0; i < 50; ++i) adam.step(p.refs());
  EXPECT_LT(p.value[0], 0.5f);
  EXPECT_GT(p.value[0], -0.1f);
}

TEST(Adam, TrainsAClassifierFasterThanTinyLrSgd) {
  core::Rng rng(1);
  Classifier classifier(make_mlp(6, {8}, 3, rng));
  Adam adam(std::make_unique<ConstantSchedule>(0.02));
  const auto params = classifier.params();
  const Tensor inputs = Tensor::randn({24, 6}, rng);
  std::vector<std::size_t> labels(24);
  for (std::size_t i = 0; i < 24; ++i) labels[i] = i % 3;
  const double first = classifier.compute_gradients(inputs, labels);
  adam.step(params);
  double last = first;
  for (int i = 0; i < 40; ++i) {
    last = classifier.compute_gradients(inputs, labels);
    adam.step(params);
  }
  EXPECT_LT(last, first * 0.5);
}

TEST(AdamDeath, RejectsBadOptions) {
  EXPECT_DEATH(Adam(std::make_unique<ConstantSchedule>(0.1),
                    AdamOptions{1.0, 0.999, 1e-8, 0.0}),
               "Precondition");
  EXPECT_DEATH(Adam(nullptr), "Precondition");
}

}  // namespace
}  // namespace fedms::nn
