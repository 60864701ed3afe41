// Micro-benchmarks (google-benchmark): the communication substrate —
// message routing through SimNetwork and the payload codecs. These bound
// the simulation overhead attributable to the network layer itself.

#include <benchmark/benchmark.h>

#include "core/rng.h"
#include "fl/compression.h"
#include "net/sim_network.h"

namespace {

using namespace fedms;

std::vector<float> payload_of(std::size_t d) {
  core::Rng rng(1);
  std::vector<float> payload(d);
  for (auto& v : payload) v = float(rng.normal());
  return payload;
}

void BM_NetworkSendDrain(benchmark::State& state) {
  const std::size_t clients = std::size_t(state.range(0));
  const std::size_t dim = std::size_t(state.range(1));
  const std::vector<float> payload = payload_of(dim);
  for (auto _ : state) {
    net::SimNetwork network;
    for (std::size_t k = 0; k < clients; ++k) {
      net::Message m;
      m.from = net::client_id(k);
      m.to = net::server_id(k % 10);
      m.payload = payload;
      network.send(std::move(m));
    }
    std::size_t received = 0;
    for (std::size_t s = 0; s < 10; ++s)
      received += network.drain_inbox(net::server_id(s)).size();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(clients));
}

void bm_codec(benchmark::State& state, const fl::PayloadCodec& codec) {
  const std::vector<float> payload =
      payload_of(std::size_t(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(codec.decode(codec.encode(payload)));
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(payload.size()) * 4);
}

void BM_CodecIdentity(benchmark::State& state) {
  bm_codec(state, fl::IdentityCodec());
}
void BM_CodecFp16(benchmark::State& state) {
  bm_codec(state, fl::Fp16Codec());
}
void BM_CodecInt8(benchmark::State& state) {
  bm_codec(state, fl::Int8Codec());
}

}  // namespace

BENCHMARK(BM_NetworkSendDrain)->Args({50, 2410})->Args({500, 2410});
BENCHMARK(BM_CodecIdentity)->Arg(2410)->Arg(100000);
BENCHMARK(BM_CodecFp16)->Arg(2410)->Arg(100000);
BENCHMARK(BM_CodecInt8)->Arg(2410)->Arg(100000);

BENCHMARK_MAIN();
