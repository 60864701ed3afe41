// 2-D convolution kernels (NCHW activations, OIHW weights) with explicit
// backward passes, plus depthwise convolution and global average pooling —
// the building blocks of the MobileNet-V2-style model in `src/nn`.
//
// The dense conv2d_* functions are direct loops; they are the reference
// that the im2col/GEMM path in tensor/conv_im2col.h (what nn::Conv2d runs)
// is tested against. The depthwise functions are the kernels nn's
// DepthwiseConv2d runs: they walk each (n, c) plane through raw row
// pointers, loop over the in-bounds tap ranges instead of bounds-checking
// every tap, and vectorize only across independent outputs. Each output
// keeps the direct loop's reduction order, so they are bit-identical to the
// *_reference loops (kept for the tests only) under every rounding mode.
#pragma once

#include "tensor/tensor.h"

namespace fedms::tensor {

struct Conv2dSpec {
  std::size_t stride = 1;
  std::size_t padding = 0;
};

// Output spatial size for one axis.
std::size_t conv_out_size(std::size_t in, std::size_t kernel,
                          std::size_t stride, std::size_t padding);

// input:  (N, Cin, H, W), weight: (Cout, Cin, KH, KW), bias: (Cout) or empty.
// Returns (N, Cout, Hout, Wout).
Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const Conv2dSpec& spec);

// Gradients of conv2d. grad_output: (N, Cout, Hout, Wout).
struct Conv2dGrads {
  Tensor grad_input;
  Tensor grad_weight;
  Tensor grad_bias;
};
Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, const Conv2dSpec& spec);

// Depthwise conv: weight (C, 1, KH, KW); each channel convolved separately.
// Forward: one double accumulator per output, seeded with the bias, taps
// added in (kh, kw) order. Backward: grad_weight and grad_bias are float
// sums in (n, ho, wo) order, each grad_input pixel sums its terms in
// (ho, wo) order, and a zero grad_output entry contributes nothing (not
// even 0 × inf).
Tensor depthwise_conv2d_forward(const Tensor& input, const Tensor& weight,
                                const Tensor& bias, const Conv2dSpec& spec);
Conv2dGrads depthwise_conv2d_backward(const Tensor& input,
                                      const Tensor& weight,
                                      const Tensor& grad_output,
                                      const Conv2dSpec& spec);
// Accumulating backward used by nn::DepthwiseConv2d: adds dW into
// `grad_weight_acc` and db into `grad_bias_acc` (shapes of weight / bias;
// bias may be empty) and returns dX. Into +0-filled buffers the result is
// bit-identical to depthwise_conv2d_backward's.
Tensor depthwise_conv2d_backward_acc(const Tensor& input, const Tensor& weight,
                                     const Tensor& grad_output,
                                     const Conv2dSpec& spec,
                                     Tensor& grad_weight_acc,
                                     Tensor& grad_bias_acc);

// The direct per-element loops the depthwise kernels must match bit for
// bit; only tests call them.
Tensor depthwise_conv2d_forward_reference(const Tensor& input,
                                          const Tensor& weight,
                                          const Tensor& bias,
                                          const Conv2dSpec& spec);
Conv2dGrads depthwise_conv2d_backward_reference(const Tensor& input,
                                                const Tensor& weight,
                                                const Tensor& grad_output,
                                                const Conv2dSpec& spec);

// (N, C, H, W) -> (N, C): mean over the spatial extent.
Tensor global_avg_pool_forward(const Tensor& input);
// Spreads grad (N, C) back uniformly over (N, C, H, W).
Tensor global_avg_pool_backward(const Tensor& grad_output, const Shape& input_shape);

}  // namespace fedms::tensor
