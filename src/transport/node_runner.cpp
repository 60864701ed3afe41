#include "transport/node_runner.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "byz/attack.h"
#include "core/contracts.h"
#include "core/rng.h"
#include "fl/aggregators.h"
#include "fl/server.h"
#include "fl/upload.h"
#include "fl/wire_encoding.h"
#include "obs/obs.h"
#include "transport/frame.h"

namespace fedms::transport {

namespace {

[[noreturn]] void protocol_error(const net::NodeId& self,
                                 const std::string& what) {
  throw std::runtime_error(net::to_string(self) + ": " + what);
}

// Format doubles as C99 hexfloats: exact round-trip through text.
std::string exact_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

const char* kind_name(net::NodeKind kind) {
  return kind == net::NodeKind::kClient ? "client" : "server";
}

void write_links(std::ostringstream& out, const char* tag,
                 const std::map<net::NodeId, LinkStats>& links) {
  for (const auto& [peer, link] : links)
    out << "stat " << tag << ' ' << kind_name(peer.kind) << ' '
        << peer.index << ' ' << link.messages << ' ' << link.bytes << ' '
        << link.control_messages << ' ' << link.control_bytes << ' '
        << link.corrupt_frames << '\n';
}

}  // namespace

bool client_participates(const fl::FedMsConfig& fed, core::Rng& rng,
                         std::size_t k) {
  const std::size_t active = std::max<std::size_t>(
      1, static_cast<std::size_t>(fed.participation * double(fed.clients) +
                                  0.5));
  for (const std::size_t drawn :
       rng.sample_without_replacement(fed.clients, active))
    if (drawn == k) return true;
  return false;
}

void check_transport_supported(const fl::FedMsConfig& fed) {
  const auto reject = [](bool bad, const char* what) {
    if (bad)
      throw std::runtime_error(
          std::string("transport engine does not support ") + what);
  };
  reject(fed.byzantine_clients > 0, "byzantine_clients");
  reject(fed.dp_clip_norm > 0.0, "differential privacy");
  // Uniform partial participation is derivable per node (every process
  // replays the shared "participation" seed stream); power-of-choice is
  // not — it ranks clients by losses only the simulator sees globally.
  reject(fed.participation < 1.0 && fed.participation_strategy == "highloss",
         "participation_strategy=highloss (loss-based selection needs "
         "global loss state; rerun with --participation-strategy uniform)");
  reject(fed.network_loss_rate > 0.0,
         "simulated link loss (use transport corruption injection)");
  reject(fed.eval_clients != 0, "eval_clients subsets");
}

std::string to_report_text(const NodeReport& report) {
  std::ostringstream out;
  out << "fedms-node-report v1\n";
  out << "role " << kind_name(report.self.kind) << '\n';
  out << "index " << report.self.index << '\n';
  out << "rounds " << report.rounds << '\n';
  out << "final_accuracy " << exact_double(report.final_accuracy) << '\n';
  out << "final_eval_loss " << exact_double(report.final_eval_loss) << '\n';
  out << "model_crc " << report.model_crc << '\n';
  write_links(out, "sent", report.stats.sent);
  write_links(out, "recv", report.stats.received);
  out << "end\n";
  return out.str();
}

NodeReport parse_report_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  const auto fail = [](const std::string& why) -> void {
    throw std::runtime_error("bad node report: " + why);
  };
  if (!std::getline(in, line) || line != "fedms-node-report v1")
    fail("missing header");

  NodeReport report;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "end") {
      saw_end = true;
      break;
    } else if (key == "role") {
      std::string role;
      fields >> role;
      if (role == "client")
        report.self.kind = net::NodeKind::kClient;
      else if (role == "server")
        report.self.kind = net::NodeKind::kServer;
      else
        fail("unknown role " + role);
    } else if (key == "index") {
      fields >> report.self.index;
    } else if (key == "rounds") {
      fields >> report.rounds;
    } else if (key == "final_accuracy" || key == "final_eval_loss") {
      std::string value;
      fields >> value;
      const double parsed = std::strtod(value.c_str(), nullptr);
      (key == "final_accuracy" ? report.final_accuracy
                               : report.final_eval_loss) = parsed;
    } else if (key == "model_crc") {
      fields >> report.model_crc;
    } else if (key == "stat") {
      std::string tag, peer_kind;
      std::size_t peer_index = 0;
      LinkStats link;
      fields >> tag >> peer_kind >> peer_index >> link.messages >>
          link.bytes >> link.control_messages >> link.control_bytes >>
          link.corrupt_frames;
      if (fields.fail()) fail("malformed stat line: " + line);
      net::NodeId peer;
      if (peer_kind == "client")
        peer.kind = net::NodeKind::kClient;
      else if (peer_kind == "server")
        peer.kind = net::NodeKind::kServer;
      else
        fail("unknown peer kind " + peer_kind);
      peer.index = peer_index;
      if (tag == "sent")
        report.stats.sent[peer] = link;
      else if (tag == "recv")
        report.stats.received[peer] = link;
      else
        fail("unknown stat tag " + tag);
    } else {
      fail("unknown key " + key);
    }
    if (fields.fail()) fail("malformed line: " + line);
  }
  if (!saw_end) fail("missing end marker");
  return report;
}

NodeReport run_client_node(Transport& transport, const fl::Workload& data,
                           const fl::WorkloadConfig& workload,
                           const fl::FedMsConfig& fed, std::size_t k,
                           double timeout_seconds) {
  fed.validate();
  check_transport_supported(fed);
  FEDMS_EXPECTS(k < fed.clients);
  FEDMS_EXPECTS(transport.self() == net::client_id(k));

  const core::SeedSequence seeds(fed.seed);
  fl::LearnerPtr learner = fl::make_nn_learner(data, workload, fed, k);
  const fl::AggregatorPtr filter = fl::make_aggregator(fed.client_filter);
  // Same root batch, scorer model, and eval path as the simulator, so the
  // fedgreed selection — and hence --verify — is bit-identical per client.
  fl::install_fedgreed_scorer(*filter, data, workload, fed);
  const fl::UploadStrategyPtr upload = fl::make_upload_strategy(fed.upload);
  core::Rng ps_choice = seeds.make_rng("ps-choice", k);
  core::Rng participation_rng = seeds.make_rng("participation");

  // Negotiated wire encoding: uploads are encoded per-target (one stream
  // per PS link, so delta/top-k references track what that PS decoded);
  // broadcasts arrive in the encoding our hello announced and stateful
  // payloads are materialized per-source stream. f32 skips all of it.
  fl::WireEncodingSpec wire_spec;
  FEDMS_EXPECTS(fl::parse_wire_encoding(fed.wire_encoding, &wire_spec).empty());
  const bool wired = !wire_spec.is_f32();
  fl::WireChannelBook upload_channels(wire_spec);     // keyed by target PS
  fl::WireChannelBook broadcast_channels(wire_spec);  // keyed by source PS

  obs::set_thread_label("client" + std::to_string(k));

  NodeReport report;
  report.self = net::client_id(k);
  report.rounds = fed.rounds;

  for (std::uint64_t round = 0; round < fed.rounds; ++round) {
    // Partial participation: replay the simulator's shared draw. A
    // sitting-out client skips training and upload (its ps-choice stream
    // stays untouched, as in the simulator) but still round-syncs so the
    // PSs' barriers close, and still collects + filters broadcasts.
    const bool participates =
        fed.participation >= 1.0 ||
        client_participates(fed, participation_rng, k);

    // ---- Stage 1: local training ----
    if (participates) {
      obs::Span span("node", "local_training", round, "client",
                     static_cast<std::int64_t>(k));
      learner->local_training(fed.local_iterations);
    }

    // ---- Stage 2: upload to the selected PS set, then round-sync all ----
    {
      obs::Span span("node", "upload", round, "client",
                     static_cast<std::int64_t>(k));
      if (participates) {
        const auto targets =
            upload->select_servers(k, round, fed.servers, ps_choice);
        FEDMS_ASSERT(!targets.empty());
        std::vector<float> payload = learner->parameters();
        for (std::size_t i = 0; i < targets.size(); ++i) {
          net::Message m;
          m.from = report.self;
          m.to = net::server_id(targets[i]);
          m.kind = net::MessageKind::kModelUpload;
          m.round = round;
          if (wired) {
            // Sender-side round-trip: the payload we carry is exactly what
            // the PS will decode, so simulator and transport stay
            // bit-for-bit equal under every encoding.
            fl::WireEncodeResult wire =
                upload_channels.channel(m.to).encode(payload);
            m.payload = std::move(wire.decoded);
            m.encoded = std::move(wire.bytes);
            m.encoded_bytes = m.encoded.size();
            m.wire_format = wire_spec.format_tag();
          } else {
            m.payload =
                (i + 1 == targets.size()) ? std::move(payload) : payload;
          }
          transport.send(std::move(m));
        }
      }
      for (std::size_t p = 0; p < fed.servers; ++p) {
        net::Message sync;
        sync.from = report.self;
        sync.to = net::server_id(p);
        sync.kind = net::MessageKind::kRoundSync;
        sync.round = round;
        transport.send(std::move(sync));
      }
    }

    // ---- Stage 3: collect broadcasts until every PS round-synced ----
    std::map<std::size_t, fl::ModelVector> candidates;
    {
      obs::Span span("node", "dissemination", round, "client",
                     static_cast<std::int64_t>(k));
      std::size_t syncs = 0;
      while (syncs < fed.servers) {
        auto m = transport.receive(timeout_seconds);
        if (!m.has_value())
          protocol_error(report.self,
                         "timeout waiting for round " +
                             std::to_string(round) + " broadcasts");
        if (m->round != round)
          protocol_error(report.self, "message from round " +
                                          std::to_string(m->round) +
                                          " during round " +
                                          std::to_string(round));
        if (m->kind == net::MessageKind::kRoundSync) {
          ++syncs;
        } else if (m->kind == net::MessageKind::kModelBroadcast) {
          if (wired) fl::finish_wire_payload(*m, broadcast_channels);
          candidates.emplace(m->from.index, std::move(m->payload));
        } else {
          protocol_error(report.self,
                         std::string("unexpected ") + net::to_string(m->kind) + " frame");
        }
      }
    }

    // Def() over candidates in ascending server order (the simulator's
    // drain order); an empty set means every PS went silent/corrupt and
    // the client continues from its local model.
    if (!candidates.empty()) {
      obs::Span span("node", "filter", round, "client",
                     static_cast<std::int64_t>(k));
      std::vector<fl::ModelVector> received;
      received.reserve(candidates.size());
      for (auto& [server, model] : candidates)
        received.push_back(std::move(model));
      learner->set_parameters(fl::apply_client_filter(
          *filter, received, fed.servers, fed.byzantine));
    }

    if ((round + 1) % fed.eval_every == 0 || round + 1 == fed.rounds) {
      const fl::LearnerEval eval = learner->evaluate();
      report.final_accuracy = eval.accuracy;
      report.final_eval_loss = eval.loss;
    }
  }

  report.model_crc = crc32c_floats(learner->parameters());
  report.stats = transport.stats();
  return report;
}

NodeReport run_server_node(Transport& transport,
                           const fl::WorkloadConfig& workload,
                           const fl::FedMsConfig& fed, std::size_t p,
                           double timeout_seconds) {
  fed.validate();
  check_transport_supported(fed);
  FEDMS_EXPECTS(p < fed.servers);
  FEDMS_EXPECTS(transport.self() == net::server_id(p));

  // Re-derive this PS's identity and streams exactly as FedMsRun does;
  // "byz-placement" is consumed identically in every process.
  const core::SeedSequence seeds(fed.seed);
  std::vector<bool> is_byzantine(fed.servers, false);
  if (fed.byzantine_placement == "first") {
    for (std::size_t i = 0; i < fed.byzantine; ++i) is_byzantine[i] = true;
  } else {
    core::Rng placement_rng = seeds.make_rng("byz-placement");
    for (const std::size_t i : placement_rng.sample_without_replacement(
             fed.servers, fed.byzantine))
      is_byzantine[i] = true;
  }
  byz::AttackPtr attack;
  if (is_byzantine[p]) attack = byz::make_attack(fed.attack);
  fl::ParameterServer server(p, std::move(attack),
                             seeds.make_rng("attack", p));
  if (fed.server_aggregator != "mean")
    server.set_aggregator(std::shared_ptr<const fl::Aggregator>(
        fl::make_aggregator(fed.server_aggregator)));
  server.set_initial_model(fl::initial_model(workload, fed));

  // Upload decode is self-describing per frame; one stream per client so
  // stateful references track each sender. Broadcast encode uses whatever
  // encoding each client's hello announced (queried per round — by the
  // dissemination stage every client has identified itself).
  fl::WireEncodingSpec wire_spec;
  FEDMS_EXPECTS(fl::parse_wire_encoding(fed.wire_encoding, &wire_spec).empty());
  fl::WireChannelBook upload_channels(wire_spec);     // keyed by client
  fl::WireChannelBook broadcast_channels(wire_spec);  // keyed by client

  obs::set_thread_label("server" + std::to_string(p));

  NodeReport report;
  report.self = net::server_id(p);
  report.rounds = fed.rounds;

  for (std::uint64_t round = 0; round < fed.rounds; ++round) {
    // ---- Aggregation stage: uploads until every client round-synced ----
    {
      obs::Span span("node", "aggregation", round, "server",
                     static_cast<std::int64_t>(p));
      std::map<std::size_t, fl::ModelVector> uploads;
      std::size_t syncs = 0;
      while (syncs < fed.clients) {
        auto m = transport.receive(timeout_seconds);
        if (!m.has_value())
          protocol_error(report.self, "timeout waiting for round " +
                                          std::to_string(round) + " uploads");
        if (m->round != round)
          protocol_error(report.self, "message from round " +
                                          std::to_string(m->round) +
                                          " during round " +
                                          std::to_string(round));
        if (m->kind == net::MessageKind::kRoundSync) {
          ++syncs;
        } else if (m->kind == net::MessageKind::kModelUpload) {
          fl::finish_wire_payload(*m, upload_channels);
          uploads.emplace(m->from.index, std::move(m->payload));
        } else {
          protocol_error(report.self,
                         std::string("unexpected ") + net::to_string(m->kind) + " frame");
        }
      }

      // Mean in ascending client order — float sums are order-dependent
      // and this is the simulator's inbox order.
      std::vector<fl::ModelVector> received;
      received.reserve(uploads.size());
      for (auto& [client, model] : uploads)
        received.push_back(std::move(model));
      server.aggregate_round(round, received);
    }

    // ---- Dissemination stage. disseminate() is called for every client
    // in ascending order even when nothing is sent (the attack's RNG
    // stream advances per call in the simulator). ----
    obs::Span span("node", "dissemination", round, "server",
                   static_cast<std::int64_t>(p));
    for (std::size_t k = 0; k < fed.clients; ++k) {
      net::Message m;
      m.from = report.self;
      m.to = net::client_id(k);
      m.kind = net::MessageKind::kModelBroadcast;
      m.round = round;
      m.payload = server.disseminate(round, k);
      // Empty payload = crashed/silent PS: nothing goes on the wire (the
      // client's wire stream does not advance either — keyframes are
      // per-frame flags, so a gap desynchronizes nothing).
      if (m.payload.empty()) continue;
      const std::string announced = transport.peer_encoding(m.to);
      fl::WireEncodingSpec spec;
      if (!fl::parse_wire_encoding(announced, &spec).empty())
        spec = fl::WireEncodingSpec{};  // unintelligible announce -> f32
      if (!spec.is_f32()) {
        // Encoded after any Byzantine tampering: the wire carries what the
        // attack produced, quantized the way this client asked for.
        fl::WireEncodeResult wire =
            broadcast_channels.channel(m.to, spec).encode(m.payload);
        m.payload = std::move(wire.decoded);
        m.encoded = std::move(wire.bytes);
        m.encoded_bytes = m.encoded.size();
        m.wire_format = spec.format_tag();
      }
      transport.send(std::move(m));
    }
    for (std::size_t k = 0; k < fed.clients; ++k) {
      net::Message sync;
      sync.from = report.self;
      sync.to = net::client_id(k);
      sync.kind = net::MessageKind::kRoundSync;
      sync.round = round;
      transport.send(std::move(sync));
    }
  }

  report.model_crc = crc32c_floats(server.honest_aggregate());
  report.stats = transport.stats();
  return report;
}

double TransportRunSummary::mean_accuracy() const {
  FEDMS_EXPECTS(!clients.empty());
  double sum = 0.0;
  for (const NodeReport& client : clients) sum += client.final_accuracy;
  return sum / double(clients.size());
}

double TransportRunSummary::mean_eval_loss() const {
  FEDMS_EXPECTS(!clients.empty());
  double sum = 0.0;
  for (const NodeReport& client : clients) sum += client.final_eval_loss;
  return sum / double(clients.size());
}

TransportRunSummary::DataTotals TransportRunSummary::data_totals() const {
  DataTotals totals;
  for (const NodeReport& client : clients) {
    const LinkStats sent = client.stats.total_sent();
    totals.uplink_messages += sent.messages;
    totals.uplink_bytes += sent.bytes;
  }
  for (const NodeReport& server : servers) {
    const LinkStats sent = server.stats.total_sent();
    totals.downlink_messages += sent.messages;
    totals.downlink_bytes += sent.bytes;
  }
  return totals;
}

std::uint64_t TransportRunSummary::corrupt_frames() const {
  std::uint64_t total = 0;
  for (const NodeReport& node : clients)
    total += node.stats.total_received().corrupt_frames;
  for (const NodeReport& node : servers)
    total += node.stats.total_received().corrupt_frames;
  return total;
}

TransportRunSummary run_transport_experiment(
    const fl::WorkloadConfig& workload, const fl::FedMsConfig& fed,
    InMemoryHub& hub, double timeout_seconds) {
  fed.validate();
  check_transport_supported(fed);
  const fl::Workload data = fl::make_workload(workload, fed);

  // All endpoints registered before any node thread starts, so no send
  // can race an unregistered receiver.
  std::vector<std::unique_ptr<InMemoryTransport>> client_endpoints;
  std::vector<std::unique_ptr<InMemoryTransport>> server_endpoints;
  for (std::size_t k = 0; k < fed.clients; ++k)
    client_endpoints.push_back(
        hub.make_endpoint(net::client_id(k), fed.wire_encoding));
  for (std::size_t p = 0; p < fed.servers; ++p)
    server_endpoints.push_back(
        hub.make_endpoint(net::server_id(p), fed.wire_encoding));

  TransportRunSummary summary;
  summary.clients.resize(fed.clients);
  summary.servers.resize(fed.servers);
  std::vector<std::exception_ptr> errors(fed.clients + fed.servers);

  std::vector<std::thread> threads;
  threads.reserve(fed.clients + fed.servers);
  for (std::size_t k = 0; k < fed.clients; ++k) {
    threads.emplace_back([&, k] {
      try {
        summary.clients[k] =
            run_client_node(*client_endpoints[k], data, workload, fed, k,
                            timeout_seconds);
      } catch (...) {
        errors[k] = std::current_exception();
      }
    });
  }
  for (std::size_t p = 0; p < fed.servers; ++p) {
    threads.emplace_back([&, p] {
      try {
        summary.servers[p] = run_server_node(*server_endpoints[p], workload,
                                             fed, p, timeout_seconds);
      } catch (...) {
        errors[fed.clients + p] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  return summary;
}

}  // namespace fedms::transport
