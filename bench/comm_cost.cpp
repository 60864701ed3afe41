// Validates the paper's §IV communication claim: with the sparse uploading
// strategy, Fed-MS's model-aggregation stage costs K model-uploads per
// round — identical to classical single-PS FL — versus K×P for the trivial
// upload-to-all strategy. Measured on the simulated network with real
// serialized payload sizes and the per-link latency model.
//
// The wire-encoding section reports *measured* frame bytes — each upload
// of a drifting model stream is actually serialized by the CRC32C frame
// codec (64-byte overhead, scale blocks, and top-k index bitmaps
// included) — next to the simulator's wire_size accounting, and aborts if
// the two ever disagree (exact for every encoding; for lossless f32 the
// closed form 64 + 8 + 4·dim is additionally pinned).

#include "common.h"

#include <algorithm>
#include <cmath>

#include "core/contracts.h"
#include "fl/wire_encoding.h"
#include "transport/frame.h"

int main(int argc, char** argv) {
  using namespace fedms;
  core::CliFlags flags(
      "comm_cost: per-round communication of sparse vs full vs m-of-P "
      "uploading (paper SIV sparse-upload claim) and measured frame bytes "
      "per wire encoding");
  benchcommon::add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 1;

  fl::FedMsConfig base = benchcommon::fed_from_flags(flags);
  base.rounds = std::min<std::size_t>(base.rounds, 5);
  base.eval_every = base.rounds;
  base.byzantine = 2;
  base.attack = "noise";
  fl::WorkloadConfig workload = benchcommon::workload_from_flags(flags);

  std::printf("# Communication cost per round — %s\n",
              base.to_string().c_str());
  metrics::Table table({"upload", "uplink msgs/round", "uplink MB/round",
                        "downlink msgs/round", "downlink MB/round",
                        "upload stage (ms)", "broadcast stage (ms)"});
  const char* strategies[] = {"sparse", "full", "multi:3"};
  for (const char* strategy : strategies) {
    fl::FedMsConfig fed = base;
    fed.upload = strategy;
    const fl::RunResult result = fl::run_experiment(workload, fed);
    const double rounds = double(result.rounds.size());
    double up_msgs = 0, up_bytes = 0, down_msgs = 0, down_bytes = 0,
           up_ms = 0, down_ms = 0;
    for (const auto& r : result.rounds) {
      up_msgs += double(r.uplink_messages);
      up_bytes += double(r.uplink_bytes);
      down_msgs += double(r.downlink_messages);
      down_bytes += double(r.downlink_bytes);
      up_ms += r.upload_seconds * 1e3;
      down_ms += r.broadcast_seconds * 1e3;
    }
    table.add_row({strategy, metrics::Table::fmt(up_msgs / rounds, 0),
                   metrics::Table::fmt(up_bytes / rounds / 1e6, 3),
                   metrics::Table::fmt(down_msgs / rounds, 0),
                   metrics::Table::fmt(down_bytes / rounds / 1e6, 3),
                   metrics::Table::fmt(up_ms / rounds, 2),
                   metrics::Table::fmt(down_ms / rounds, 2)});
  }
  table.print(std::cout);
  std::printf(
      "\n# Expected: sparse uploads K=%zu msgs/round (same as single-PS "
      "FedAvg);\n# full uploads K*P=%zu msgs/round, i.e. P=%zu times more "
      "bytes and a P-times longer upload stage per client link.\n",
      base.clients, base.clients * base.servers, base.servers);

  // ---- Wire encodings: measured frame bytes vs the wire_size accounting.
  // One client->PS upload stream of a slowly drifting model, every frame
  // serialized by the real codec so headers, per-block scales, and index
  // bitmaps are counted, not estimated.
  const std::vector<float> w0 = fl::initial_model(workload, base);
  const std::size_t dim = w0.size();
  const std::size_t stream_rounds = base.rounds;
  std::printf("\n# Wire encodings — one upload stream, dim %zu, %zu "
              "rounds, measured by transport::FrameCodec\n",
              dim, stream_rounds);
  metrics::Table wire_table(
      {"encoding", "measured B/round", "accounted B/round", "vs f32",
       "max |err|"});
  const transport::FrameCodec codec;
  double f32_bytes_per_round = 0.0;
  const char* encodings[] = {"f32",       "fp16",      "int8",
                             "topk:0.25", "delta+int8"};
  for (const char* encoding : encodings) {
    fl::WireEncodingSpec spec;
    FEDMS_EXPECTS(fl::parse_wire_encoding(encoding, &spec).empty());
    fl::WireChannel channel(spec);
    std::uint64_t measured = 0, accounted = 0;
    double max_error = 0.0;
    std::vector<float> model = w0;
    for (std::size_t r = 0; r < stream_rounds; ++r) {
      // Drift ~1% of coordinates strongly, the rest a little — the regime
      // delta and top-k encodings are built for.
      for (std::size_t j = 0; j < dim; ++j)
        model[j] += (j % 97 == r % 97) ? 0.05f : 1e-4f;
      net::Message m;
      m.from = net::client_id(0);
      m.to = net::server_id(0);
      m.kind = net::MessageKind::kModelUpload;
      m.round = r;
      if (spec.is_f32()) {
        m.payload = model;
      } else {
        fl::WireEncodeResult wire = channel.encode(model);
        m.payload = std::move(wire.decoded);
        m.encoded = std::move(wire.bytes);
        m.encoded_bytes = m.encoded.size();
        m.wire_format = spec.format_tag();
      }
      for (std::size_t j = 0; j < dim; ++j)
        max_error = std::max(
            max_error, double(std::abs(m.payload[j] - model[j])));
      const std::vector<std::uint8_t> frame = codec.encode(m);
      measured += frame.size();
      accounted += net::wire_size(m);
    }
    // The accounting the simulator bills and the bytes the codec actually
    // produces must never drift apart — for any encoding.
    FEDMS_EXPECTS(measured == accounted);
    if (spec.is_f32()) {
      // Lossless default: closed-form frame size and exact payloads.
      FEDMS_EXPECTS(measured ==
                    stream_rounds * (net::kMessageHeaderBytes + 8 + 4 * dim));
      FEDMS_EXPECTS(max_error == 0.0);
      f32_bytes_per_round = double(measured) / double(stream_rounds);
    }
    const double per_round = double(measured) / double(stream_rounds);
    wire_table.add_row(
        {encoding, metrics::Table::fmt(per_round, 0),
         metrics::Table::fmt(double(accounted) / double(stream_rounds), 0),
         metrics::Table::fmt(f32_bytes_per_round / per_round, 2) + "x",
         metrics::Table::fmt(max_error, 6)});
  }
  wire_table.print(std::cout);
  std::printf("# measured == accounted held for every encoding "
              "(FEDMS_EXPECTS-checked); f32 matched 64 + 8 + 4*dim "
              "exactly.\n");
  return 0;
}
