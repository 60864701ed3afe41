// Convolutional building blocks: Conv2d, DepthwiseConv2d, GlobalAvgPool,
// Flatten. Activations are NCHW.
#pragma once

#include "core/rng.h"
#include "nn/layer.h"
#include "tensor/conv.h"
#include "tensor/conv_im2col.h"

namespace fedms::nn {

// Lowers onto the GEMM via im2col; the direct tensor::conv2d_* loops stay
// as the reference the equivalence and gradcheck tests compare against.
class Conv2d final : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t padding,
         core::Rng& rng, bool with_bias = true);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<ParamRef>& out) override;
  std::string name() const override { return "Conv2d"; }

 private:
  tensor::Conv2dSpec spec_;
  bool with_bias_;
  Tensor weight_;  // (out, in, k, k)
  Tensor bias_;    // (out) or empty
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_input_;
};

class DepthwiseConv2d final : public Layer {
 public:
  DepthwiseConv2d(std::size_t channels, std::size_t kernel,
                  std::size_t stride, std::size_t padding, core::Rng& rng,
                  bool with_bias = true);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<ParamRef>& out) override;
  std::string name() const override { return "DepthwiseConv2d"; }

 private:
  tensor::Conv2dSpec spec_;
  bool with_bias_;
  Tensor weight_;  // (c, 1, k, k)
  Tensor bias_;
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_input_;
};

// (N, C, H, W) -> (N, C) spatial mean.
class GlobalAvgPool final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  tensor::Shape cached_input_shape_;
};

// (N, C, H, W) -> (N, C*H*W).
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  tensor::Shape cached_input_shape_;
};

}  // namespace fedms::nn
