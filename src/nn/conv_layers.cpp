#include "nn/conv_layers.h"

#include <cmath>

namespace fedms::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               core::Rng& rng, bool with_bias)
    : spec_{stride, padding},
      with_bias_(with_bias),
      weight_(Tensor::randn(
          {out_channels, in_channels, kernel, kernel}, rng, 0.0f,
          std::sqrt(2.0f / float(in_channels * kernel * kernel)))),
      bias_(with_bias ? Tensor({out_channels}) : Tensor()),
      grad_weight_({out_channels, in_channels, kernel, kernel}),
      grad_bias_(with_bias ? Tensor({out_channels}) : Tensor()) {
  FEDMS_EXPECTS(in_channels > 0 && out_channels > 0 && kernel > 0);
}

Tensor Conv2d::forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  return tensor::conv2d_forward_im2col(input, weight_, bias_, spec_);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  FEDMS_EXPECTS(cached_input_.numel() > 0);
  // dW/db accumulate directly into the layer's gradient buffers — no
  // temporary gradient tensors on the hot path.
  return tensor::conv2d_backward_im2col_acc(cached_input_, weight_,
                                            grad_output, spec_, grad_weight_,
                                            grad_bias_);
}

void Conv2d::collect_params(std::vector<ParamRef>& out) {
  out.push_back({&weight_, &grad_weight_, "conv2d.weight"});
  if (with_bias_) out.push_back({&bias_, &grad_bias_, "conv2d.bias"});
}

DepthwiseConv2d::DepthwiseConv2d(std::size_t channels, std::size_t kernel,
                                 std::size_t stride, std::size_t padding,
                                 core::Rng& rng, bool with_bias)
    : spec_{stride, padding},
      with_bias_(with_bias),
      weight_(Tensor::randn({channels, 1, kernel, kernel}, rng, 0.0f,
                            std::sqrt(2.0f / float(kernel * kernel)))),
      bias_(with_bias ? Tensor({channels}) : Tensor()),
      grad_weight_({channels, 1, kernel, kernel}),
      grad_bias_(with_bias ? Tensor({channels}) : Tensor()) {
  FEDMS_EXPECTS(channels > 0 && kernel > 0);
}

Tensor DepthwiseConv2d::forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  return tensor::depthwise_conv2d_forward(input, weight_, bias_, spec_);
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_output) {
  FEDMS_EXPECTS(cached_input_.numel() > 0);
  // Accumulating into the +0 buffers zero_grads leaves is bit-identical to
  // adding fresh gradient tensors, without allocating them.
  return tensor::depthwise_conv2d_backward_acc(cached_input_, weight_,
                                               grad_output, spec_,
                                               grad_weight_, grad_bias_);
}

void DepthwiseConv2d::collect_params(std::vector<ParamRef>& out) {
  out.push_back({&weight_, &grad_weight_, "dwconv.weight"});
  if (with_bias_) out.push_back({&bias_, &grad_bias_, "dwconv.bias"});
}

Tensor GlobalAvgPool::forward(const Tensor& input, bool /*training*/) {
  cached_input_shape_ = input.shape();
  return tensor::global_avg_pool_forward(input);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  FEDMS_EXPECTS(!cached_input_shape_.empty());
  return tensor::global_avg_pool_backward(grad_output, cached_input_shape_);
}

Tensor Flatten::forward(const Tensor& input, bool /*training*/) {
  FEDMS_EXPECTS(input.rank() >= 2);
  cached_input_shape_ = input.shape();
  return input.reshaped({input.dim(0), input.numel() / input.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  FEDMS_EXPECTS(!cached_input_shape_.empty());
  return grad_output.reshaped(cached_input_shape_);
}

}  // namespace fedms::nn
