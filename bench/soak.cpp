// soak — heavy-traffic soak of the event-loop server runtime: one PS
// process absorbing >= 10k simulated clients per round through the real
// protocol engine (run_server_node, unchanged) over in-process unix
// sockets.
//
// Topology: the parent runs EventLoopServer + run_server_node; a forked
// child drives N protocol-faithful clients (hello, per-round upload +
// round-sync, then broadcast + sync readback) over blocking sockets. Two
// processes because RLIMIT_NOFILE commonly caps well below 2 fds per
// client — each side holds N descriptors, not 2N in one table.
//
// The client side is a traffic generator, not N trainers: payloads are
// deterministic functions of (client, round, coordinate), which keeps the
// bench measuring the runtime (accept churn, frame decode, aggregation,
// broadcast fan-out) instead of SGD. Bit-for-bit protocol equality is
// pinned elsewhere (fedms_node --runtime eventloop --verify); this bench
// is about throughput.
//
// Prints one JSON object to stdout: rounds/s, p99 per-stage latencies
// derived from the existing obs span instrumentation fed through obs
// histograms, bytes/s in each direction and the server's degraded-path
// counters. Human-readable progress goes to stderr. Every swarm client
// drains its broadcasts, so a slow-consumer eviction is a server fault:
// the bench exits 1 when `evicted_slow` is nonzero.
//
//   ulimit -n 16384   # or more; the bench raises the soft limit itself
//                     # when the hard limit allows
//   ./build/bench/soak --clients 10000 --dim 1024 --rounds 3

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.h"
#include "core/thread_pool.h"
#include "eventloop/server.h"
#include "fl/aggregators.h"
#include "fl/config.h"
#include "fl/wire_encoding.h"
#include "obs/obs.h"
#include "transport/frame.h"
#include "transport/node_runner.h"
#include "transport/socket_transport.h"

namespace {

using namespace fedms;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Deterministic upload payload: f(client, round, coordinate). Cheap to
// generate, different per client so the aggregation is not degenerate.
float payload_value(std::size_t k, std::uint64_t round, std::size_t j) {
  return float((k * 31 + round * 17 + j * 7) % 97) / 97.0f;
}

void write_full(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n > 0) {
      written += std::size_t(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error("swarm write failed");
  }
}

// Blocking-read exactly one frame from `fd` (buffering partial bytes in
// rx across calls).
net::Message read_message(int fd, std::vector<std::uint8_t>& rx,
                          const transport::FrameCodec& codec) {
  for (;;) {
    transport::FrameError error = transport::FrameError::kNone;
    const auto size =
        transport::FrameCodec::frame_size(rx.data(), rx.size(), &error);
    if (error != transport::FrameError::kNone)
      throw std::runtime_error("swarm: desynchronized stream");
    if (size.has_value() && rx.size() >= *size) {
      const auto decoded = codec.decode(rx.data(), *size);
      if (!decoded.ok()) throw std::runtime_error("swarm: bad frame");
      rx.erase(rx.begin(), rx.begin() + std::ptrdiff_t(*size));
      return decoded.message;
    }
    std::uint8_t chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      rx.insert(rx.end(), chunk, chunk + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error("swarm: server hung up");
  }
}

// The forked client swarm: N protocol-faithful clients on blocking fds.
// Returns a process exit code.
int run_swarm(const transport::SocketAddress& address, std::size_t clients,
              std::size_t dim, std::uint64_t rounds,
              const fl::WireEncodingSpec& wire_spec) {
  if (const std::string e = eventloop::ensure_fd_budget(clients + 64);
      !e.empty()) {
    std::fprintf(stderr, "soak swarm: %s\n", e.c_str());
    return 1;
  }
  const bool wired = !wire_spec.is_f32();
  const transport::FrameCodec codec;
  const net::NodeId server = net::server_id(0);
  // Per-client wire streams, one each way (upload encode / broadcast
  // decode), mirroring the per-connection channels of the real client.
  std::vector<fl::WireChannel> upload_channels;
  std::vector<fl::WireChannel> broadcast_channels;
  if (wired) {
    upload_channels.reserve(clients);
    broadcast_channels.reserve(clients);
    for (std::size_t k = 0; k < clients; ++k) {
      upload_channels.emplace_back(wire_spec);
      broadcast_channels.emplace_back(wire_spec);
    }
  }
  // Generous backoff: the parent's listener may still be coming up, and
  // early connects can momentarily fill the backlog.
  const runtime::Backoff backoff{0.05, 2.0, 14};

  std::vector<int> fds(clients, -1);
  std::vector<std::vector<std::uint8_t>> rx(clients);
  for (std::size_t k = 0; k < clients; ++k) {
    fds[k] = transport::connect_with_retry(address, backoff);
    net::Message hello;
    hello.from = net::client_id(k);
    hello.to = server;
    hello.kind = net::MessageKind::kHello;
    if (wired) hello.hello_encoding = wire_spec.to_string();
    const auto frame = codec.encode(hello);
    write_full(fds[k], frame.data(), frame.size());
  }
  std::fprintf(stderr, "soak swarm: %zu clients connected\n", clients);

  std::vector<std::uint8_t> frame;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (std::size_t k = 0; k < clients; ++k) {
      net::Message upload;
      upload.from = net::client_id(k);
      upload.to = server;
      upload.kind = net::MessageKind::kModelUpload;
      upload.round = round;
      upload.payload.resize(dim);
      for (std::size_t j = 0; j < dim; ++j)
        upload.payload[j] = payload_value(k, round, j);
      if (wired) {
        fl::WireEncodeResult wire =
            upload_channels[k].encode(upload.payload);
        upload.payload = std::move(wire.decoded);
        upload.encoded = std::move(wire.bytes);
        upload.encoded_bytes = upload.encoded.size();
        upload.wire_format = wire_spec.format_tag();
      }
      frame.clear();  // encode_to appends
      codec.encode_to(upload, frame);
      write_full(fds[k], frame.data(), frame.size());

      net::Message sync;
      sync.from = upload.from;
      sync.to = server;
      sync.kind = net::MessageKind::kRoundSync;
      sync.round = round;
      frame.clear();
      codec.encode_to(sync, frame);
      write_full(fds[k], frame.data(), frame.size());
    }
    // Broadcast + sync back for every client. The server disseminates in
    // ascending client order, so reading in order stays roughly aligned
    // with the producer.
    for (std::size_t k = 0; k < clients; ++k) {
      bool got_broadcast = false, got_sync = false;
      while (!(got_broadcast && got_sync)) {
        net::Message m = read_message(fds[k], rx[k], codec);
        if (m.round != round)
          throw std::runtime_error("swarm: round mismatch");
        if (m.kind == net::MessageKind::kModelBroadcast) {
          if (wired && m.payload.empty() && m.encoded_bytes > 0)
            m.payload = broadcast_channels[k].decode(m.wire_format,
                                                     m.encoded);
          if (m.payload.size() != dim)
            throw std::runtime_error("swarm: broadcast dim mismatch");
          got_broadcast = true;
        } else if (m.kind == net::MessageKind::kRoundSync) {
          got_sync = true;
        } else {
          throw std::runtime_error("swarm: unexpected frame kind");
        }
      }
    }
    std::fprintf(stderr, "soak swarm: round %llu complete\n",
                 static_cast<unsigned long long>(round));
  }
  for (const int fd : fds) ::close(fd);
  return 0;
}

// p99 from an obs histogram: the smallest upper bound whose cumulative
// count covers 99% of samples (the overflow bucket reports the last
// bound — by then the buckets were chosen too small anyway).
double histogram_p99(const obs::Histogram& histogram) {
  const auto buckets = histogram.bucket_counts();
  const std::uint64_t total = histogram.count();
  if (total == 0) return 0.0;
  const std::uint64_t target =
      std::uint64_t(double(total) * 0.99 + 0.5) == 0
          ? 1
          : std::uint64_t(double(total) * 0.99 + 0.5);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= target)
      return i < histogram.bounds().size() ? histogram.bounds()[i]
                                           : histogram.bounds().back();
  }
  return histogram.bounds().back();
}

}  // namespace

int main(int argc, char** argv) {
  core::CliFlags flags(
      "soak: >=10k-client event-loop soak bench (rounds/s, p99 stage "
      "latencies, bytes/s) — JSON to stdout");
  flags.add_int("clients", 10000, "simulated clients driven by the swarm");
  flags.add_int("dim", 1024, "upload payload dimension (floats)");
  flags.add_int("rounds", 3, "full protocol rounds");
  flags.add_int("threads", 0,
                "shard PS aggregation across this many pool threads");
  flags.add_string("backend", "default", "reactor backend: default | "
                   "epoll | poll");
  flags.add_string("aggregator", "trmean:0.1",
                   "PS aggregation rule over the swarm uploads");
  flags.add_string("wire-encoding", "f32",
                   "negotiated wire encoding: f32 | fp16 | int8 | "
                   "delta+<base> | topk:<frac>");
  flags.add_double("timeout", 600.0, "per-stage protocol timeout");
  flags.add_string("socket-dir", "",
                   "unix socket directory (default: fresh /tmp/fedmsXXXXXX)");
  flags.add_bool("quick", false,
                 "CI smoke: 64 clients, dim 256, 2 rounds");
  if (!flags.parse(argc, argv)) return 1;

  std::size_t clients = std::size_t(flags.get_int("clients"));
  std::size_t dim = std::size_t(flags.get_int("dim"));
  std::uint64_t rounds = std::uint64_t(flags.get_int("rounds"));
  if (flags.get_bool("quick")) {
    clients = 64;
    dim = 256;
    rounds = 2;
  }
  const std::size_t threads = std::size_t(flags.get_int("threads"));
  const std::string backend_name = flags.get_string("backend");
  const std::string aggregator = flags.get_string("aggregator");
  const double timeout = flags.get_double("timeout");

  try {
    if (const std::string e = fl::check_aggregator_spec(aggregator);
        !e.empty())
      throw std::runtime_error("--aggregator: " + e);
    fl::WireEncodingSpec wire_spec;
    if (const std::string e = fl::parse_wire_encoding(
            flags.get_string("wire-encoding"), &wire_spec);
        !e.empty())
      throw std::runtime_error("--wire-encoding: " + e);
    eventloop::EventLoopOptions options;
    if (backend_name == "epoll")
      options.backend = eventloop::Reactor::Backend::kEpoll;
    else if (backend_name == "poll")
      options.backend = eventloop::Reactor::Backend::kPoll;
    else if (backend_name != "default")
      throw std::runtime_error("--backend must be default, epoll, or poll");

    std::string socket_dir = flags.get_string("socket-dir");
    if (socket_dir.empty()) {
      char scratch[] = "/tmp/fedmsXXXXXX";
      if (::mkdtemp(scratch) == nullptr)
        throw std::runtime_error("mkdtemp failed");
      socket_dir = scratch;
    }
    const auto address =
        transport::SocketAddress::unix_path(socket_dir + "/soak.sock");

    const pid_t swarm = ::fork();
    if (swarm < 0) throw std::runtime_error("fork failed");
    if (swarm == 0)
      ::_exit(run_swarm(address, clients, dim, rounds, wire_spec));

    if (const std::string e = eventloop::ensure_fd_budget(clients + 64);
        !e.empty())
      throw std::runtime_error(e);

    // The protocol engine needs a config; the swarm replaces training, so
    // only the topology/round fields matter (the upload dim is whatever
    // the clients send — the PS cross-checks uploads against each other,
    // not against the model zoo).
    fl::FedMsConfig fed;
    fed.clients = clients;
    fed.servers = 1;
    fed.byzantine = 0;
    fed.rounds = rounds;
    fed.server_aggregator = aggregator;
    fed.wire_encoding = wire_spec.to_string();
    fl::WorkloadConfig workload;

    std::unique_ptr<core::ThreadPool> pool;
    if (threads > 0) {
      pool = std::make_unique<core::ThreadPool>(threads);
      fl::set_aggregation_pool(pool.get());
    }

    obs::set_process_identity("server", 0);
    obs::set_enabled(true);

    auto server = eventloop::EventLoopServer::listen(net::server_id(0),
                                                     address, options);
    const double t0 = now_seconds();
    const transport::NodeReport report = transport::run_server_node(
        *server, workload, fed, 0, timeout);
    server->flush(timeout);
    const double total_seconds = now_seconds() - t0;
    obs::set_enabled(false);
    fl::set_aggregation_pool(nullptr);

    int status = 0;
    if (::waitpid(swarm, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
      throw std::runtime_error("client swarm failed (status " +
                               std::to_string(status) + ")");

    // Stage latencies: the engine's own spans, folded through obs
    // histograms (log-spaced ms buckets) to a p99 per stage.
    static obs::Histogram aggregation_ms(
        "soak_aggregation_ms",
        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
         20000, 50000, 100000});
    static obs::Histogram dissemination_ms(
        "soak_dissemination_ms",
        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
         20000, 50000, 100000});
    obs::set_enabled(true);  // histogram record() is gated like spans
    double active_seconds = 0.0;
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
        round_window;
    for (const obs::SpanRecord& span : obs::snapshot_spans()) {
      if (std::strcmp(span.category, "node") != 0) continue;
      const double ms = double(span.end_ns - span.start_ns) * 1e-6;
      if (std::strcmp(span.name, "aggregation") == 0)
        aggregation_ms.record(ms);
      else if (std::strcmp(span.name, "dissemination") == 0)
        dissemination_ms.record(ms);
      else
        continue;
      auto [it, fresh] = round_window.try_emplace(
          span.round, std::make_pair(span.start_ns, span.end_ns));
      if (!fresh) {
        it->second.first = std::min(it->second.first, span.start_ns);
        it->second.second = std::max(it->second.second, span.end_ns);
      }
    }
    obs::set_enabled(false);
    for (const auto& [round, window] : round_window)
      active_seconds += double(window.second - window.first) * 1e-9;

    const transport::LinkStats received = report.stats.total_received();
    const transport::LinkStats sent = report.stats.total_sent();
    const std::uint64_t uplink_bytes =
        received.bytes + received.control_bytes;
    const std::uint64_t downlink_bytes = sent.bytes + sent.control_bytes;
    const double denominator =
        active_seconds > 0.0 ? active_seconds : total_seconds;

    std::printf("{\n  \"soak\": {\n");
    std::printf("    \"clients\": %zu,\n", clients);
    std::printf("    \"dim\": %zu,\n", dim);
    std::printf("    \"rounds\": %llu,\n",
                static_cast<unsigned long long>(rounds));
    std::printf("    \"backend\": \"%s\",\n",
                eventloop::Reactor::to_string(server->backend()));
    std::printf("    \"filter_threads\": %zu,\n", threads);
    std::printf("    \"aggregator\": \"%s\",\n", aggregator.c_str());
    std::printf("    \"wire_encoding\": \"%s\",\n",
                wire_spec.to_string().c_str());
    std::printf("    \"data_bytes_per_round\": %.0f,\n",
                double(received.bytes + sent.bytes) / double(rounds));
    std::printf("    \"total_seconds\": %.4f,\n", total_seconds);
    std::printf("    \"active_seconds\": %.4f,\n", active_seconds);
    std::printf("    \"rounds_per_second\": %.4f,\n",
                double(rounds) / denominator);
    std::printf("    \"uplink_bytes\": %llu,\n",
                static_cast<unsigned long long>(uplink_bytes));
    std::printf("    \"downlink_bytes\": %llu,\n",
                static_cast<unsigned long long>(downlink_bytes));
    std::printf("    \"bytes_per_second\": %.0f,\n",
                double(uplink_bytes + downlink_bytes) / denominator);
    std::printf("    \"p99_ms\": {\"aggregation\": %.0f, "
                "\"dissemination\": %.0f},\n",
                histogram_p99(aggregation_ms),
                histogram_p99(dissemination_ms));
    std::printf("    \"rejoins\": %llu,\n",
                static_cast<unsigned long long>(server->rejoins()));
    std::printf("    \"evicted_slow\": %llu,\n",
                static_cast<unsigned long long>(server->evicted_slow()));
    std::printf("    \"dropped_sends\": %llu\n",
                static_cast<unsigned long long>(server->dropped_sends()));
    std::printf("  }\n}\n");

    std::fprintf(stderr,
                 "soak: %zu clients, %llu rounds in %.2fs (%.3f rounds/s "
                 "active)\n",
                 clients, static_cast<unsigned long long>(rounds),
                 total_seconds, double(rounds) / denominator);
    if (server->evicted_slow() > 0) {
      std::fprintf(stderr,
                   "soak: the server evicted %llu healthy client(s) as "
                   "slow consumers\n",
                   static_cast<unsigned long long>(server->evicted_slow()));
      return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "soak: %s\n", error.what());
    return 1;
  }
}
