#include "tensor/conv.h"

#include <algorithm>
#include <new>
#include <type_traits>

#include "tensor/workspace.h"

namespace fedms::tensor {

std::size_t conv_out_size(std::size_t in, std::size_t kernel,
                          std::size_t stride, std::size_t padding) {
  FEDMS_EXPECTS(stride > 0);
  FEDMS_EXPECTS(in + 2 * padding >= kernel);
  return (in + 2 * padding - kernel) / stride + 1;
}

namespace {

// Shared bounds checking for the conv entry points.
void check_conv_args(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, bool depthwise) {
  FEDMS_EXPECTS(input.rank() == 4 && weight.rank() == 4);
  if (depthwise) {
    FEDMS_EXPECTS(weight.dim(1) == 1);
    FEDMS_EXPECTS(weight.dim(0) == input.dim(1));
  } else {
    FEDMS_EXPECTS(weight.dim(1) == input.dim(1));
  }
  if (bias.numel() > 0)
    FEDMS_EXPECTS(bias.rank() == 1 && bias.dim(0) == weight.dim(0));
}

}  // namespace

Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const Conv2dSpec& spec) {
  check_conv_args(input, weight, bias, /*depthwise=*/false);
  const std::size_t N = input.dim(0), Cin = input.dim(1), H = input.dim(2),
                    W = input.dim(3);
  const std::size_t Cout = weight.dim(0), KH = weight.dim(2),
                    KW = weight.dim(3);
  const std::size_t Hout = conv_out_size(H, KH, spec.stride, spec.padding);
  const std::size_t Wout = conv_out_size(W, KW, spec.stride, spec.padding);
  Tensor out({N, Cout, Hout, Wout});
  const bool has_bias = bias.numel() > 0;
  for (std::size_t n = 0; n < N; ++n)
    for (std::size_t co = 0; co < Cout; ++co)
      for (std::size_t ho = 0; ho < Hout; ++ho)
        for (std::size_t wo = 0; wo < Wout; ++wo) {
          double acc = has_bias ? bias[co] : 0.0;
          for (std::size_t ci = 0; ci < Cin; ++ci)
            for (std::size_t kh = 0; kh < KH; ++kh) {
              const std::ptrdiff_t hi =
                  std::ptrdiff_t(ho * spec.stride + kh) -
                  std::ptrdiff_t(spec.padding);
              if (hi < 0 || hi >= std::ptrdiff_t(H)) continue;
              for (std::size_t kw = 0; kw < KW; ++kw) {
                const std::ptrdiff_t wi =
                    std::ptrdiff_t(wo * spec.stride + kw) -
                    std::ptrdiff_t(spec.padding);
                if (wi < 0 || wi >= std::ptrdiff_t(W)) continue;
                acc += double(input.at(n, ci, std::size_t(hi),
                                       std::size_t(wi))) *
                       weight.at(co, ci, kh, kw);
              }
            }
          out.at(n, co, ho, wo) = static_cast<float>(acc);
        }
  return out;
}

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output,
                            const Conv2dSpec& spec) {
  FEDMS_EXPECTS(grad_output.rank() == 4);
  const std::size_t N = input.dim(0), Cin = input.dim(1), H = input.dim(2),
                    W = input.dim(3);
  const std::size_t Cout = weight.dim(0), KH = weight.dim(2),
                    KW = weight.dim(3);
  const std::size_t Hout = grad_output.dim(2), Wout = grad_output.dim(3);
  FEDMS_EXPECTS(grad_output.dim(0) == N && grad_output.dim(1) == Cout);

  Conv2dGrads g{Tensor(input.shape()), Tensor(weight.shape()),
                Tensor({Cout})};
  for (std::size_t n = 0; n < N; ++n)
    for (std::size_t co = 0; co < Cout; ++co)
      for (std::size_t ho = 0; ho < Hout; ++ho)
        for (std::size_t wo = 0; wo < Wout; ++wo) {
          const float go = grad_output.at(n, co, ho, wo);
          if (go == 0.0f) continue;
          g.grad_bias[co] += go;
          for (std::size_t ci = 0; ci < Cin; ++ci)
            for (std::size_t kh = 0; kh < KH; ++kh) {
              const std::ptrdiff_t hi =
                  std::ptrdiff_t(ho * spec.stride + kh) -
                  std::ptrdiff_t(spec.padding);
              if (hi < 0 || hi >= std::ptrdiff_t(H)) continue;
              for (std::size_t kw = 0; kw < KW; ++kw) {
                const std::ptrdiff_t wi =
                    std::ptrdiff_t(wo * spec.stride + kw) -
                    std::ptrdiff_t(spec.padding);
                if (wi < 0 || wi >= std::ptrdiff_t(W)) continue;
                const std::size_t h = std::size_t(hi), w = std::size_t(wi);
                g.grad_weight.at(co, ci, kh, kw) += go * input.at(n, ci, h, w);
                g.grad_input.at(n, ci, h, w) += go * weight.at(co, ci, kh, kw);
              }
            }
        }
  return g;
}

namespace {

// Indices i with begin <= i < end.
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
};

// One axis of a depthwise plane. A tap at offset k reads input index
// o * stride + k - padding, so the outputs that see tap k in bounds, and
// the taps that output o sees in bounds, are each one contiguous range. The
// kernels loop over exactly those ranges: no tap is ever bounds-checked.
struct Axis {
  std::size_t in;
  std::size_t out;
  std::size_t kernel;
  std::size_t padding;

  Axis(std::size_t in_size, std::size_t kernel_size, const Conv2dSpec& spec)
      : in(in_size),
        out(conv_out_size(in_size, kernel_size, spec.stride, spec.padding)),
        kernel(kernel_size),
        padding(spec.padding) {}

  Range outputs_seeing(std::size_t tap, std::size_t stride) const {
    if (tap >= in + padding) return {};
    const std::size_t begin =
        padding > tap ? (padding - tap + stride - 1) / stride : 0;
    const std::size_t end =
        std::min(out, (in + padding - 1 - tap) / stride + 1);
    return {std::min(begin, end), end};
  }
  // The outputs that see every tap in bounds.
  Range interior(std::size_t stride) const {
    const Range first = outputs_seeing(0, stride);
    const Range last = outputs_seeing(kernel - 1, stride);
    return {std::min(first.begin, last.end), last.end};
  }
  Range taps_seen_by(std::size_t o, std::size_t stride) const {
    const std::size_t first = o * stride;  // input index of tap `padding`
    if (first >= in + padding) return {};
    return {padding > first ? padding - first : 0,
            std::min(kernel, in + padding - first)};
  }
};

// One (n, c) plane of the forward pass: x is H×W, w is KH×KW, out is
// Hout×Wout, acc is Wout doubles of scratch. Each output keeps the direct
// loop's sum exactly: a double seeded with the bias, plus its in-bounds
// taps in (kh, kw) order. Interior outputs, which see all KW taps of a
// row, run one loop whose body (unrolled when KW is a compile-time
// constant) adds the row's taps, so it vectorizes across the independent
// outputs without reordering any sum; the few border outputs add the taps
// their own range allows.
template <typename Stride, typename KernelWidth>
void depthwise_forward_plane(Stride stride_value, KernelWidth kw_value,
                             const Axis& rows, const Axis& cols,
                             const float* x, const float* w, double bias,
                             double* acc, float* out) {
  const std::size_t stride = stride_value, KW = kw_value;
  const std::size_t W = cols.in, Wout = cols.out;
  const Range interior = cols.interior(stride);
  for (std::size_t ho = 0; ho < rows.out; ++ho) {
    for (std::size_t wo = 0; wo < Wout; ++wo) acc[wo] = bias;
    const Range kh_range = rows.taps_seen_by(ho, stride);
    for (std::size_t kh = kh_range.begin; kh < kh_range.end; ++kh) {
      const float* x_row = x + (ho * stride + kh - rows.padding) * W;
      const float* w_row = w + kh * KW;
      const auto add_border_taps = [&](std::size_t wo) {
        const Range kw_range = cols.taps_seen_by(wo, stride);
        double sum = acc[wo];
        for (std::size_t kw = kw_range.begin; kw < kw_range.end; ++kw)
          sum += double(x_row[wo * stride + kw - cols.padding]) * w_row[kw];
        acc[wo] = sum;
      };
      for (std::size_t wo = 0; wo < interior.begin; ++wo) add_border_taps(wo);
      for (std::size_t wo = interior.begin; wo < interior.end; ++wo) {
        const float* taps = x_row + wo * stride - cols.padding;
        double sum = acc[wo];
        for (std::size_t kw = 0; kw < KW; ++kw)
          sum += double(taps[kw]) * w_row[kw];
        acc[wo] = sum;
      }
      for (std::size_t wo = interior.end; wo < Wout; ++wo) add_border_taps(wo);
    }
    float* out_row = out + ho * Wout;
    for (std::size_t wo = 0; wo < Wout; ++wo)
      out_row[wo] = static_cast<float>(acc[wo]);
  }
}

// One (n, c) plane of the backward pass, for a grad_output plane `go` that
// holds no zero. Every sum keeps the direct loop's order: grad_bias and
// each grad_weight tap are float sums in (ho, wo) order (and the caller
// visits planes in (n, c) order), and each grad_input pixel receives its
// terms in ascending (ho, wo) — ho is the outer loop, and within one row
// kw runs descending, so a pixel's terms arrive in ascending wo. Within
// one kw the outputs of a row hit distinct pixels, so the scatter
// vectorizes across them.
template <typename Stride>
void depthwise_backward_plane(Stride stride_value, const Axis& rows,
                              const Axis& cols, const float* x,
                              const float* w, const float* go, float* gi,
                              float* gw, float* gb) {
  const std::size_t stride = stride_value;
  const std::size_t W = cols.in, Wout = cols.out, KW = cols.kernel;
  if (gb != nullptr) {
    float sum = *gb;
    for (std::size_t i = 0; i < rows.out * Wout; ++i) sum += go[i];
    *gb = sum;
  }
  for (std::size_t ho = 0; ho < rows.out; ++ho) {
    const float* go_row = go + ho * Wout;
    const Range kh_range = rows.taps_seen_by(ho, stride);
    for (std::size_t kh = kh_range.begin; kh < kh_range.end; ++kh) {
      const std::size_t hi = ho * stride + kh - rows.padding;
      const float* x_row = x + hi * W;
      float* gi_row = gi + hi * W;
      for (std::size_t kw = KW; kw-- > 0;) {
        const Range wo_range = cols.outputs_seeing(kw, stride);
        if (wo_range.begin == wo_range.end) continue;
        const std::size_t count = wo_range.end - wo_range.begin;
        const std::size_t first = wo_range.begin * stride + kw - cols.padding;
        const float* go_seg = go_row + wo_range.begin;
        const float* src = x_row + first;
        float sum = gw[kh * KW + kw];
        for (std::size_t j = 0; j < count; ++j)
          sum += go_seg[j] * src[j * stride];
        gw[kh * KW + kw] = sum;
        const float tap = w[kh * KW + kw];
        float* dst = gi_row + first;
        for (std::size_t j = 0; j < count; ++j)
          dst[j * stride] += go_seg[j] * tap;
      }
    }
  }
}

// The same plane in the direct loop's exact order, for a grad_output plane
// that holds a zero: the direct loop skips go == 0 (so 0 × inf never makes
// a NaN, and a ±0 term never flips a zero sum's sign), and only this
// output-by-output order can skip the same terms.
template <typename Stride>
void depthwise_backward_plane_skipping_zeros(Stride stride_value,
                                             const Axis& rows,
                                             const Axis& cols, const float* x,
                                             const float* w, const float* go,
                                             float* gi, float* gw,
                                             float* gb) {
  const std::size_t stride = stride_value;
  const std::size_t W = cols.in, KW = cols.kernel;
  for (std::size_t ho = 0; ho < rows.out; ++ho) {
    const Range kh_range = rows.taps_seen_by(ho, stride);
    for (std::size_t wo = 0; wo < cols.out; ++wo) {
      const float g = go[ho * cols.out + wo];
      if (g == 0.0f) continue;
      if (gb != nullptr) *gb += g;
      const Range kw_range = cols.taps_seen_by(wo, stride);
      for (std::size_t kh = kh_range.begin; kh < kh_range.end; ++kh) {
        const std::size_t row = (ho * stride + kh - rows.padding) * W;
        for (std::size_t kw = kw_range.begin; kw < kw_range.end; ++kw) {
          const std::size_t i = row + wo * stride + kw - cols.padding;
          gw[kh * KW + kw] += g * x[i];
          gi[i] += g * w[kh * KW + kw];
        }
      }
    }
  }
}

// Calls body(value), passing `value` as a std::integral_constant when it is
// one of kFast..., so the plane kernels get a copy specialized for the
// common shapes (MobileNet's strides 1 and 2 and 3×3 kernels); any other
// value runs the same kernels with it as a runtime number.
template <std::size_t... kFast, typename Body>
void with_constant(std::size_t value, Body&& body) {
  const bool matched =
      ((value == kFast &&
        (body(std::integral_constant<std::size_t, kFast>{}), true)) ||
       ...);
  if (!matched) body(value);
}

}  // namespace

Tensor depthwise_conv2d_forward(const Tensor& input, const Tensor& weight,
                                const Tensor& bias, const Conv2dSpec& spec) {
  check_conv_args(input, weight, bias, /*depthwise=*/true);
  const std::size_t N = input.dim(0), C = input.dim(1), H = input.dim(2),
                    W = input.dim(3);
  const std::size_t KH = weight.dim(2), KW = weight.dim(3);
  const Axis rows(H, KH, spec), cols(W, KW, spec);
  Tensor out({N, C, rows.out, cols.out});
  Workspace::Scope scope;
  // One row of double accumulators; placement new starts their lifetime
  // in the float arena.
  double* acc = ::new (scope.alloc(2 * cols.out)) double[cols.out];
  const bool has_bias = bias.numel() > 0;
  with_constant<1, 2>(spec.stride, [&](auto stride) {
    with_constant<3>(KW, [&](auto kernel_width) {
      for (std::size_t n = 0; n < N; ++n)
        for (std::size_t c = 0; c < C; ++c) {
          const std::size_t plane = n * C + c;
          depthwise_forward_plane(
              stride, kernel_width, rows, cols, input.data() + plane * H * W,
              weight.data() + c * KH * KW, has_bias ? double(bias[c]) : 0.0,
              acc, out.data() + plane * rows.out * cols.out);
        }
    });
  });
  return out;
}

Tensor depthwise_conv2d_backward_acc(const Tensor& input, const Tensor& weight,
                                     const Tensor& grad_output,
                                     const Conv2dSpec& spec,
                                     Tensor& grad_weight_acc,
                                     Tensor& grad_bias_acc) {
  check_conv_args(input, weight, grad_bias_acc, /*depthwise=*/true);
  FEDMS_EXPECTS(grad_output.rank() == 4 && grad_weight_acc.same_shape(weight));
  const std::size_t N = input.dim(0), C = input.dim(1), H = input.dim(2),
                    W = input.dim(3);
  const std::size_t KH = weight.dim(2), KW = weight.dim(3);
  const Axis rows(H, KH, spec), cols(W, KW, spec);
  FEDMS_EXPECTS(grad_output.dim(0) == N && grad_output.dim(1) == C &&
                grad_output.dim(2) == rows.out &&
                grad_output.dim(3) == cols.out);
  const std::size_t plane_out = rows.out * cols.out;
  Tensor grad_input(input.shape());
  const bool has_bias = grad_bias_acc.numel() > 0;
  with_constant<1, 2>(spec.stride, [&](auto stride) {
    for (std::size_t n = 0; n < N; ++n)
      for (std::size_t c = 0; c < C; ++c) {
        const std::size_t plane = n * C + c;
        const float* go = grad_output.data() + plane * plane_out;
        bool has_zero = false;
        for (std::size_t i = 0; i < plane_out; ++i) has_zero |= go[i] == 0.0f;
        const auto kernel = has_zero
                                ? depthwise_backward_plane_skipping_zeros<
                                      decltype(stride)>
                                : depthwise_backward_plane<decltype(stride)>;
        kernel(stride, rows, cols, input.data() + plane * H * W,
               weight.data() + c * KH * KW, go,
               grad_input.data() + plane * H * W,
               grad_weight_acc.data() + c * KH * KW,
               has_bias ? grad_bias_acc.data() + c : nullptr);
      }
  });
  return grad_input;
}

Conv2dGrads depthwise_conv2d_backward(const Tensor& input,
                                      const Tensor& weight,
                                      const Tensor& grad_output,
                                      const Conv2dSpec& spec) {
  Conv2dGrads g{Tensor(), Tensor(weight.shape()), Tensor({weight.dim(0)})};
  g.grad_input = depthwise_conv2d_backward_acc(input, weight, grad_output,
                                               spec, g.grad_weight,
                                               g.grad_bias);
  return g;
}

Tensor depthwise_conv2d_forward_reference(const Tensor& input,
                                          const Tensor& weight,
                                          const Tensor& bias,
                                          const Conv2dSpec& spec) {
  check_conv_args(input, weight, bias, /*depthwise=*/true);
  const std::size_t N = input.dim(0), C = input.dim(1), H = input.dim(2),
                    W = input.dim(3);
  const std::size_t KH = weight.dim(2), KW = weight.dim(3);
  const std::size_t Hout = conv_out_size(H, KH, spec.stride, spec.padding);
  const std::size_t Wout = conv_out_size(W, KW, spec.stride, spec.padding);
  Tensor out({N, C, Hout, Wout});
  const bool has_bias = bias.numel() > 0;
  for (std::size_t n = 0; n < N; ++n)
    for (std::size_t c = 0; c < C; ++c)
      for (std::size_t ho = 0; ho < Hout; ++ho)
        for (std::size_t wo = 0; wo < Wout; ++wo) {
          double acc = has_bias ? bias[c] : 0.0;
          for (std::size_t kh = 0; kh < KH; ++kh) {
            const std::ptrdiff_t hi = std::ptrdiff_t(ho * spec.stride + kh) -
                                      std::ptrdiff_t(spec.padding);
            if (hi < 0 || hi >= std::ptrdiff_t(H)) continue;
            for (std::size_t kw = 0; kw < KW; ++kw) {
              const std::ptrdiff_t wi = std::ptrdiff_t(wo * spec.stride + kw) -
                                        std::ptrdiff_t(spec.padding);
              if (wi < 0 || wi >= std::ptrdiff_t(W)) continue;
              acc += double(input.at(n, c, std::size_t(hi), std::size_t(wi))) *
                     weight.at(c, 0, kh, kw);
            }
          }
          out.at(n, c, ho, wo) = static_cast<float>(acc);
        }
  return out;
}

Conv2dGrads depthwise_conv2d_backward_reference(const Tensor& input,
                                                const Tensor& weight,
                                                const Tensor& grad_output,
                                                const Conv2dSpec& spec) {
  FEDMS_EXPECTS(grad_output.rank() == 4);
  const std::size_t N = input.dim(0), C = input.dim(1), H = input.dim(2),
                    W = input.dim(3);
  const std::size_t KH = weight.dim(2), KW = weight.dim(3);
  const std::size_t Hout = grad_output.dim(2), Wout = grad_output.dim(3);
  FEDMS_EXPECTS(grad_output.dim(0) == N && grad_output.dim(1) == C);

  Conv2dGrads g{Tensor(input.shape()), Tensor(weight.shape()), Tensor({C})};
  for (std::size_t n = 0; n < N; ++n)
    for (std::size_t c = 0; c < C; ++c)
      for (std::size_t ho = 0; ho < Hout; ++ho)
        for (std::size_t wo = 0; wo < Wout; ++wo) {
          const float go = grad_output.at(n, c, ho, wo);
          if (go == 0.0f) continue;
          g.grad_bias[c] += go;
          for (std::size_t kh = 0; kh < KH; ++kh) {
            const std::ptrdiff_t hi = std::ptrdiff_t(ho * spec.stride + kh) -
                                      std::ptrdiff_t(spec.padding);
            if (hi < 0 || hi >= std::ptrdiff_t(H)) continue;
            for (std::size_t kw = 0; kw < KW; ++kw) {
              const std::ptrdiff_t wi = std::ptrdiff_t(wo * spec.stride + kw) -
                                        std::ptrdiff_t(spec.padding);
              if (wi < 0 || wi >= std::ptrdiff_t(W)) continue;
              const std::size_t h = std::size_t(hi), w = std::size_t(wi);
              g.grad_weight.at(c, 0, kh, kw) += go * input.at(n, c, h, w);
              g.grad_input.at(n, c, h, w) += go * weight.at(c, 0, kh, kw);
            }
          }
        }
  return g;
}

Tensor global_avg_pool_forward(const Tensor& input) {
  FEDMS_EXPECTS(input.rank() == 4);
  const std::size_t N = input.dim(0), C = input.dim(1), H = input.dim(2),
                    W = input.dim(3);
  FEDMS_EXPECTS(H > 0 && W > 0);
  Tensor out({N, C});
  const double inv = 1.0 / double(H * W);
  for (std::size_t n = 0; n < N; ++n)
    for (std::size_t c = 0; c < C; ++c) {
      double acc = 0.0;
      for (std::size_t h = 0; h < H; ++h)
        for (std::size_t w = 0; w < W; ++w) acc += input.at(n, c, h, w);
      out.at(n, c) = static_cast<float>(acc * inv);
    }
  return out;
}

Tensor global_avg_pool_backward(const Tensor& grad_output,
                                const Shape& input_shape) {
  FEDMS_EXPECTS(grad_output.rank() == 2 && input_shape.size() == 4);
  const std::size_t N = input_shape[0], C = input_shape[1], H = input_shape[2],
                    W = input_shape[3];
  FEDMS_EXPECTS(grad_output.dim(0) == N && grad_output.dim(1) == C);
  Tensor g(input_shape);
  const float inv = 1.0f / float(H * W);
  for (std::size_t n = 0; n < N; ++n)
    for (std::size_t c = 0; c < C; ++c) {
      const float v = grad_output.at(n, c) * inv;
      for (std::size_t h = 0; h < H; ++h)
        for (std::size_t w = 0; w < W; ++w) g.at(n, c, h, w) = v;
    }
  return g;
}

}  // namespace fedms::tensor
