#include "testing/oracles.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <tuple>

#include "core/contracts.h"
#include "fl/wire_encoding.h"
#include "net/message.h"
#include "obs/trace_merge.h"
#include "transport/frame.h"

namespace fedms::testing {

namespace {

OracleViolation violation(const char* oracle, const std::string& detail) {
  return OracleViolation{oracle, detail};
}

std::string format(const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof buffer, fmt, args);
  va_end(args);
  return buffer;
}

}  // namespace

OracleResult check_filter_event(const runtime::FilterEvent& event,
                                const std::vector<bool>& is_byzantine,
                                bool attack_nonfinite) {
  std::size_t byzantine_candidates = 0;
  for (const std::size_t s : event.servers)
    if (is_byzantine[s]) ++byzantine_candidates;

  const bool trimming = event.trim != fl::kNoTrim;
  // The guarantees only hold when the trim budget covers the Byzantine
  // candidates (or, for non-trimming rules, when the attack cannot emit
  // non-finite values — vanilla mean under NaN poisoning is expected to
  // break; that failure is the paper's motivation, not a bug).
  const bool guarded =
      trimming ? event.trim >= byzantine_candidates : !attack_nonfinite;
  if (!guarded) return std::nullopt;

  const std::size_t bad =
      fl::first_nonfinite_coordinate(event.filtered);
  if (bad < event.filtered.size())
    return violation(
        "finite",
        format("r%llu client %zu: filtered model non-finite at coordinate "
               "%zu with trim %zu covering %zu byzantine candidates",
               static_cast<unsigned long long>(event.round), event.client,
               bad, trimming ? event.trim : std::size_t(0),
               byzantine_candidates));

  if (!trimming) return std::nullopt;

  std::vector<fl::ModelVector> honest;
  for (std::size_t i = 0; i < event.servers.size(); ++i)
    if (!is_byzantine[event.servers[i]])
      honest.push_back(event.candidates[i]);
  if (honest.empty()) return std::nullopt;
  for (std::size_t i = 0, h = 0; i < event.servers.size(); ++i) {
    if (is_byzantine[event.servers[i]]) continue;
    const std::size_t j = fl::first_nonfinite_coordinate(honest[h++]);
    if (j < event.filtered.size())
      return violation(
          "finite",
          format("r%llu client %zu: honest candidate from server %zu is "
                 "non-finite at coordinate %zu (upstream corruption)",
                 static_cast<unsigned long long>(event.round), event.client,
                 event.servers[i], j));
  }

  std::size_t coordinate = 0;
  if (!fl::within_coordinate_envelope(event.filtered, honest, 1e-4,
                                      &coordinate)) {
    double lo = honest[0][coordinate], hi = honest[0][coordinate];
    for (const fl::ModelVector& h : honest) {
      lo = std::min(lo, double(h[coordinate]));
      hi = std::max(hi, double(h[coordinate]));
    }
    return violation(
        "envelope",
        format("r%llu client %zu: filtered[%zu]=%.9g outside honest "
               "envelope [%.9g, %.9g] (P'=%zu, trim=%zu, byzantine "
               "candidates=%zu)",
               static_cast<unsigned long long>(event.round), event.client,
               coordinate, double(event.filtered[coordinate]), lo, hi,
               event.candidates.size(), event.trim, byzantine_candidates));
  }
  return std::nullopt;
}

OracleResult check_trace_causality(
    const std::vector<std::string>& trace, std::size_t clients,
    std::uint64_t rounds, const runtime::FaultPlan* plan,
    const std::vector<std::vector<bool>>* participants) {
  // Non-participants by (round, trace node name): they filter untrained.
  std::set<std::pair<std::uint64_t, std::string>> idle;
  if (participants != nullptr) {
    FEDMS_EXPECTS(participants->size() >= rounds);
    for (std::uint64_t r = 0; r < rounds; ++r)
      for (std::size_t k = 0; k < clients; ++k)
        if (!(*participants)[r][k])
          idle.emplace(r, "client#" + std::to_string(k));
  }
  std::map<std::pair<std::uint64_t, std::string>, int> trained;
  std::map<std::pair<std::uint64_t, std::string>, int> finished;
  std::map<std::tuple<std::uint64_t, std::string, std::string>, long> sent;
  std::uint64_t last_round = 0;
  double last_time = -1.0;
  for (const std::string& line : trace) {
    unsigned long long round = 0;
    double time = 0.0;
    char event[64] = {0};
    char link[128] = {0};
    if (std::sscanf(line.c_str(), "r%llu t=%lf %63s %127s", &round, &time,
                    event, link) != 4)
      return violation("trace", "unparseable trace line: " + line);
    if (round < last_round)
      return violation("trace",
                       format("round went backwards at: %s", line.c_str()));
    if (round > last_round) last_time = -1.0;
    last_round = round;
    if (time < last_time)
      return violation(
          "trace", format("virtual time went backwards at: %s", line.c_str()));
    last_time = time;
    const std::string link_text(link);
    const auto arrow = link_text.find("->");
    if (arrow == std::string::npos)
      return violation("trace", "missing arrow in trace line: " + line);
    const std::string from = link_text.substr(0, arrow);
    const std::string to = link_text.substr(arrow + 2);
    const std::string name(event);
    if (name == "trained") {
      ++trained[{round, from}];
    } else if (name == "filter" || name == "fallback") {
      if (trained[{round, from}] == 0 && idle.count({round, from}) == 0)
        return violation(
            "trace", format("client filtered before training: %s",
                            line.c_str()));
      ++finished[{round, from}];
    } else if (name == "send" || name == "send-dup") {
      ++sent[{round, from, to}];
    } else if (name == "deliver") {
      if (--sent[{round, from, to}] < 0)
        return violation(
            "trace",
            format("delivery without a matching send: %s", line.c_str()));
    }
  }
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (std::size_t k = 0; k < clients; ++k) {
      const int expected =
          (plan != nullptr && !plan->client_active(k, r)) ? 0 : 1;
      const std::string node = "client#" + std::to_string(k);
      const int expected_training = idle.count({r, node}) ? 0 : expected;
      if (trained[{r, node}] != expected_training)
        return violation(
            "trace", format("r%llu %s trained %d times (expected %d)",
                            static_cast<unsigned long long>(r), node.c_str(),
                            trained[{r, node}], expected_training));
      if (finished[{r, node}] != expected)
        return violation(
            "trace",
            format("r%llu %s filtered/fell back %d times (expected %d)",
                   static_cast<unsigned long long>(r), node.c_str(),
                   finished[{r, node}], expected));
    }
  }
  return std::nullopt;
}

OracleResult check_canonical_stage_order(
    const std::vector<obs::SpanRecord>& spans, const char* category) {
  const std::vector<std::string>& canonical = obs::canonical_stages();
  // round -> stage -> earliest start.
  std::map<std::uint64_t, std::map<std::string, std::uint64_t>> starts;
  for (const obs::SpanRecord& span : spans) {
    if (std::strcmp(span.category, category) != 0) continue;
    if (span.round == obs::kNoRound) continue;
    auto& stage_starts = starts[span.round];
    const auto [it, inserted] =
        stage_starts.emplace(span.name, span.start_ns);
    if (!inserted && span.start_ns < it->second) it->second = span.start_ns;
  }
  for (const auto& [round, stage_starts] : starts) {
    std::uint64_t previous_start = 0;
    const std::string* previous_stage = nullptr;
    for (const std::string& stage : canonical) {
      const auto it = stage_starts.find(stage);
      if (it == stage_starts.end()) continue;
      if (previous_stage != nullptr && it->second < previous_start)
        return violation(
            "stage-order",
            format("r%llu: stage %s first-starts before %s",
                   static_cast<unsigned long long>(round),
                   it->first.c_str(), previous_stage->c_str()));
      previous_start = it->second;
      previous_stage = &it->first;
    }
  }
  return std::nullopt;
}

namespace {

// Acceptable fp16 round-trip of `target`: NaN stays NaN, values beyond the
// binary16 range may saturate to inf, finite values stay within half a
// binary16 ulp (checked as the generous |target|/1024 + 1e-6).
bool half_roundtrip_ok(float target, double received) {
  if (std::isnan(target)) return std::isnan(received);
  if (std::isinf(target) || std::abs(target) > 65000.0f)
    return !std::isfinite(received) || std::abs(received) > 65000.0;
  return std::abs(received - double(target)) <=
         std::abs(double(target)) / 1024.0 + 1e-6;
}

// Per-coordinate error bound for the wire int8 quantizer over `target`:
// each kWireInt8Block-sized block is scaled by its finite max-abs / 127,
// so the rounding error is at most half that step (doubled here for
// slack). Non-finite coordinates are checked separately (NaN sentinel).
std::vector<double> int8_error_bounds(const std::vector<float>& target) {
  std::vector<double> bounds(target.size(), 0.0);
  for (std::size_t begin = 0; begin < target.size();
       begin += fl::kWireInt8Block) {
    const std::size_t end =
        std::min(begin + fl::kWireInt8Block, target.size());
    double max_abs = 0.0;
    for (std::size_t j = begin; j < end; ++j)
      if (std::isfinite(target[j]))
        max_abs = std::max(max_abs, std::abs(double(target[j])));
    const double bound = max_abs / 127.0 + 1e-7;
    for (std::size_t j = begin; j < end; ++j) bounds[j] = bound;
  }
  return bounds;
}

// Every wire encoding the negotiation can produce, exercised on the same
// model stream the fuzz schedule generated.
constexpr const char* kWireOracleEncodings[] = {
    "f32",       "fp16",       "int8",      "topk:0.25",
    "delta+f32", "delta+fp16", "delta+int8"};

// Rejection probes: corrupted scale/index metadata must come back as a
// one-line error (no newline, non-empty), never as decoded floats.
OracleResult check_wire_rejections(const fl::ModelVector& model) {
  const transport::FrameCodec codec;
  const auto one_line = [](const std::string& text) {
    return !text.empty() && text.find('\n') == std::string::npos;
  };

  // Top-k: flipping one index-bitmap bit breaks popcount(bitmap) == k.
  fl::WireEncodingSpec topk_spec;
  FEDMS_EXPECTS(fl::parse_wire_encoding("topk:0.5", &topk_spec).empty());
  fl::WireChannel topk_sender(topk_spec);
  (void)topk_sender.encode(model);  // keyframe (k = dim)
  const fl::WireEncodeResult second = topk_sender.encode(model);
  std::vector<std::uint8_t> bad_bitmap = second.bytes;
  // Stateful header: flags byte + u32 reference CRC, then u32 count,
  // u32 k, and the index bitmap.
  const std::size_t bitmap_offset = 5 + 8;
  FEDMS_EXPECTS(bad_bitmap.size() > bitmap_offset);
  bad_bitmap[bitmap_offset] ^= 0x01;
  const std::string bitmap_error = fl::check_wire_payload(
      fl::kWireFormatTopK, bad_bitmap.data(), bad_bitmap.size());
  if (!one_line(bitmap_error))
    return violation("wire",
                     "corrupted top-k index bitmap not rejected with a "
                     "one-line error by structural validation");
  net::Message tampered;
  tampered.from = net::server_id(0);
  tampered.to = net::client_id(0);
  tampered.kind = net::MessageKind::kModelBroadcast;
  tampered.round = 1;
  tampered.payload = second.decoded;
  tampered.encoded = bad_bitmap;
  tampered.encoded_bytes = bad_bitmap.size();
  tampered.wire_format = fl::kWireFormatTopK;
  const transport::FrameCodec::DecodeResult frame_result =
      codec.decode(codec.encode(tampered));
  if (frame_result.error != transport::FrameError::kBadPayload)
    return violation(
        "wire",
        format("frame codec returned %s for a corrupted top-k bitmap "
               "(expected bad-payload)",
               transport::to_string(frame_result.error)));

  // Truncation inside the half-value section.
  std::vector<std::uint8_t> truncated = second.bytes;
  truncated.resize(truncated.size() - 1);
  if (!one_line(fl::check_wire_payload(
          fl::kWireFormatTopK, truncated.data(), truncated.size())))
    return violation("wire",
                     "truncated top-k payload not rejected with a one-line "
                     "error");

  // Delta+int8: zeroing the embedded block-size scale metadata.
  fl::WireEncodingSpec delta_spec;
  FEDMS_EXPECTS(fl::parse_wire_encoding("delta+int8", &delta_spec).empty());
  fl::WireChannel delta_sender(delta_spec);
  const fl::WireEncodeResult keyframe = delta_sender.encode(model);
  std::vector<std::uint8_t> bad_scale = keyframe.bytes;
  // Int8 buffer header behind the stateful prefix: u32 count, u32 block.
  const std::size_t block_offset = 5 + 4;
  FEDMS_EXPECTS(bad_scale.size() >= block_offset + 4);
  for (std::size_t b = 0; b < 4; ++b) bad_scale[block_offset + b] = 0;
  if (!one_line(fl::check_wire_payload(
          fl::kWireFormatDeltaInt8, bad_scale.data(), bad_scale.size())))
    return violation("wire",
                     "zeroed int8 block-size metadata not rejected with a "
                     "one-line error");

  // Reference-CRC flip on a live stream: the receiving channel must report
  // desynchronization instead of adding the delta to the wrong reference.
  fl::WireChannel delta_receiver(delta_spec);
  (void)delta_receiver.decode(fl::kWireFormatDeltaInt8, keyframe.bytes);
  fl::WireEncodeResult delta_frame = delta_sender.encode(model);
  delta_frame.bytes[1] ^= 0xff;
  try {
    (void)delta_receiver.decode(fl::kWireFormatDeltaInt8,
                                delta_frame.bytes);
    return violation("wire",
                     "corrupted reference CRC decoded instead of raising a "
                     "desynchronization error");
  } catch (const std::exception& error) {
    if (!one_line(error.what()))
      return violation("wire",
                       "reference-CRC rejection is not a one-line error");
  }
  return std::nullopt;
}

}  // namespace

OracleResult check_wire_roundtrip(
    const std::vector<fl::ModelVector>& models) {
  const transport::FrameCodec codec;
  for (const char* encoding : kWireOracleEncodings) {
    fl::WireEncodingSpec spec;
    const std::string parse_error =
        fl::parse_wire_encoding(encoding, &spec);
    if (!parse_error.empty())
      return violation("wire", format("built-in spec %s rejected: %s",
                                      encoding, parse_error.c_str()));
    fl::WireChannel sender(spec);
    fl::WireChannel receiver(spec);
    std::vector<float> reference;  // receiver-visible model before frame i
    for (std::size_t i = 0; i < models.size(); ++i) {
      const fl::ModelVector& model = models[i];
      net::Message message;
      message.from = net::server_id(0);
      message.to = net::client_id(0);
      message.kind = net::MessageKind::kModelBroadcast;
      message.round = i;
      fl::WireEncodeResult wire;
      if (spec.is_f32() || model.empty()) {
        // The frame layer refuses zero-length compressed payloads, so an
        // empty model always ships raw; the wire channels stay untouched
        // and their references carry over to the next non-empty frame.
        message.payload = model;
      } else {
        wire = sender.encode(model);
        message.payload = wire.decoded;
        message.encoded = wire.bytes;
        message.encoded_bytes = wire.bytes.size();
        message.wire_format = spec.format_tag();
      }
      const std::vector<std::uint8_t> frame = codec.encode(message);
      const transport::FrameCodec::DecodeResult decoded =
          codec.decode(frame);
      if (!decoded.ok())
        return violation(
            "wire", format("%s model %zu failed to decode: %s", encoding, i,
                           transport::to_string(decoded.error)));
      std::vector<float> received;
      if (decoded.message.payload.empty() &&
          decoded.message.encoded_bytes > 0) {
        // Stateful frame: the codec validated the structure and left the
        // bytes for the receiver's per-stream channel.
        try {
          received = receiver.decode(decoded.message.wire_format,
                                     decoded.message.encoded);
        } catch (const std::exception& error) {
          return violation(
              "wire", format("%s model %zu: receiver rejected its own "
                             "stream: %s",
                             encoding, i, error.what()));
        }
      } else {
        received = std::move(decoded.message.payload);
      }

      // Receiver reconstruction == sender round-trip, bit for bit, for
      // EVERY encoding — the invariant behind `fedms_node --verify` and
      // the simulator's exact accounting under lossy wire paths.
      const std::vector<float>& expect =
          (spec.is_f32() || model.empty()) ? model : wire.decoded;
      if (received.size() != expect.size())
        return violation(
            "wire", format("%s model %zu changed size across the wire: "
                           "%zu -> %zu",
                           encoding, i, expect.size(), received.size()));
      if (!expect.empty() &&
          std::memcmp(received.data(), expect.data(),
                      expect.size() * sizeof(float)) != 0)
        return violation(
            "wire", format("%s model %zu: receiver decode diverged from "
                           "the sender round-trip",
                           encoding, i));

      // Independent per-encoding error bound against the original model.
      const bool keyframe = reference.size() != model.size();
      if (spec.is_f32() || spec.base == "f32") {
        // Lossless bases: f32 bit-for-bit; delta+f32 exact up to one
        // float add/subtract rounding (checked below via slack only).
        if (spec.is_f32() && !model.empty() &&
            std::memcmp(received.data(), model.data(),
                        model.size() * sizeof(float)) != 0)
          return violation(
              "wire",
              format("f32 model %zu payload not bit-identical after "
                     "round-trip",
                     i));
      }
      if (!spec.is_f32()) {
        std::vector<float> target;  // what the lossy base codec quantized
        if (spec.delta) {
          target.resize(model.size());
          for (std::size_t j = 0; j < model.size(); ++j)
            target[j] =
                keyframe ? model[j] : model[j] - reference[j];
        } else if (spec.topk == 0.0) {
          target = model;
        }
        std::vector<double> bounds;
        if (spec.topk == 0.0 && spec.base == "int8")
          bounds = int8_error_bounds(target);
        for (std::size_t j = 0; j < model.size(); ++j) {
          const double ref_j =
              (spec.stateful() && !keyframe) ? double(reference[j]) : 0.0;
          const double got = double(received[j]);
          if (spec.topk > 0.0) {
            // Every coordinate is either exactly the reference (not
            // selected this round) or within fp16 of the sender's value.
            if (!keyframe &&
                std::memcmp(&received[j], &reference[j], sizeof(float)) ==
                    0)
              continue;
            if (!half_roundtrip_ok(model[j], got))
              return violation(
                  "wire",
                  format("%s model %zu coordinate %zu: shipped top-k "
                         "value %.9g not an fp16 image of %.9g",
                         encoding, i, j, got, double(model[j])));
            continue;
          }
          if (!std::isfinite(model[j]) ||
              (spec.delta && !keyframe && !std::isfinite(reference[j]))) {
            // Non-finite inputs must stay visibly non-finite (fp16 keeps
            // NaN/inf, int8 ships the -128 sentinel).
            if (std::isfinite(got))
              return violation(
                  "wire",
                  format("%s model %zu coordinate %zu: non-finite input "
                         "decoded to finite %.9g",
                         encoding, i, j, got));
            continue;
          }
          const double quantized = got - ref_j;  // delta shipped this round
          const double slack =
              (std::abs(double(model[j])) + std::abs(ref_j)) * 1e-5 + 1e-6;
          bool ok = true;
          if (!std::isfinite(target[j])) {
            // Finite-minus-finite can still overflow to inf; the shipped
            // delta must stay non-finite rather than collapse silently.
            ok = !std::isfinite(quantized);
          } else if (spec.base == "f32") {
            ok = std::abs(quantized - double(target[j])) <= slack;
          } else if (spec.base == "fp16") {
            ok = half_roundtrip_ok(target[j], quantized) ||
                 std::abs(quantized - double(target[j])) <= slack;
          } else {  // int8
            ok = !std::isfinite(quantized) ||
                 std::abs(quantized - double(target[j])) <=
                     bounds[j] + slack;
          }
          if (!ok)
            return violation(
                "wire",
                format("%s model %zu coordinate %zu: decoded %.9g "
                       "violates the encoding's error bound around %.9g",
                       encoding, i, j, got, double(model[j])));
        }
      }
      if (spec.stateful() && !model.empty()) reference = wire.decoded;
    }
  }
  if (!models.empty() && models.front().size() >= 8)
    return check_wire_rejections(models.front());
  return std::nullopt;
}

}  // namespace fedms::testing
