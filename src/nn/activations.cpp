#include "nn/activations.h"

#include <algorithm>
#include <cmath>

namespace fedms::nn {

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out = input;
  float* p = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i) p[i] = std::max(0.0f, p[i]);
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  FEDMS_EXPECTS(grad_output.same_shape(cached_input_));
  Tensor g = grad_output;
  float* pg = g.data();
  const float* px = cached_input_.data();
  // A select, not a branch, so the loop vectorizes; NaN inputs pass.
  for (std::size_t i = 0; i < g.numel(); ++i)
    pg[i] = px[i] <= 0.0f ? 0.0f : pg[i];
  return g;
}

Tensor ReLU6::forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out = input;
  float* p = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i)
    p[i] = std::clamp(p[i], 0.0f, 6.0f);
  return out;
}

Tensor ReLU6::backward(const Tensor& grad_output) {
  FEDMS_EXPECTS(grad_output.same_shape(cached_input_));
  Tensor g = grad_output;
  float* pg = g.data();
  const float* px = cached_input_.data();
  for (std::size_t i = 0; i < g.numel(); ++i) {
    const bool pass = !(px[i] <= 0.0f) & !(px[i] >= 6.0f);
    pg[i] = pass ? pg[i] : 0.0f;
  }
  return g;
}

Tensor Tanh::forward(const Tensor& input, bool /*training*/) {
  Tensor out = input;
  float* p = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i) p[i] = std::tanh(p[i]);
  cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  FEDMS_EXPECTS(grad_output.same_shape(cached_output_));
  Tensor g = grad_output;
  float* pg = g.data();
  const float* py = cached_output_.data();
  for (std::size_t i = 0; i < g.numel(); ++i) pg[i] *= 1.0f - py[i] * py[i];
  return g;
}

}  // namespace fedms::nn
