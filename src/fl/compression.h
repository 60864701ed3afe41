// Lossy payload codecs: the stateless bases of the negotiated wire
// encodings (fl/wire_encoding.h).
//
// The paper's sparse uploading keeps the *number* of uploads at K; codecs
// here additionally shrink each payload's bytes. Encoding is real (byte
// buffers, not simulated sizes): the traffic numbers the simulated network
// reports are the size of the actual encoded payload, and the receiver
// sees the actual decoded (lossy) values.
//
//   none : float32 passthrough            (4 bytes/coordinate)
//   fp16 : IEEE-754 binary16 round-trip   (2 bytes/coordinate)
//   int8 : per-block max-abs linear quantization
//          (1 byte/coordinate + one float scale per block)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace fedms::fl {

class PayloadCodec {
 public:
  virtual ~PayloadCodec() = default;

  virtual std::vector<std::uint8_t> encode(
      const std::vector<float>& values) const = 0;
  // Throws std::runtime_error on malformed buffers.
  virtual std::vector<float> decode(
      const std::vector<std::uint8_t>& bytes) const = 0;

  virtual std::string name() const = 0;

  // Convenience: the lossy round-trip the receiver observes.
  std::vector<float> roundtrip(const std::vector<float>& values) const;
};

using PayloadCodecPtr = std::unique_ptr<PayloadCodec>;

class IdentityCodec final : public PayloadCodec {
 public:
  std::vector<std::uint8_t> encode(
      const std::vector<float>& values) const override;
  std::vector<float> decode(
      const std::vector<std::uint8_t>& bytes) const override;
  std::string name() const override { return "none"; }
};

class Fp16Codec final : public PayloadCodec {
 public:
  std::vector<std::uint8_t> encode(
      const std::vector<float>& values) const override;
  std::vector<float> decode(
      const std::vector<std::uint8_t>& bytes) const override;
  std::string name() const override { return "fp16"; }
};

class Int8Codec final : public PayloadCodec {
 public:
  // Values are quantized in blocks of `block_size` with a per-block scale.
  explicit Int8Codec(std::size_t block_size = 256);
  std::vector<std::uint8_t> encode(
      const std::vector<float>& values) const override;
  std::vector<float> decode(
      const std::vector<std::uint8_t>& bytes) const override;
  std::string name() const override { return "int8"; }
  std::size_t block_size() const { return block_size_; }

 private:
  std::size_t block_size_;
};

// IEEE-754 binary16 conversions (round-to-nearest-even; overflow saturates
// to ±inf, subnormals handled).
std::uint16_t float_to_half(float value);
float half_to_float(std::uint16_t half);

}  // namespace fedms::fl
