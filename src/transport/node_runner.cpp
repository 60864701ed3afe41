#include "transport/node_runner.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/contracts.h"
#include "core/json_min.h"
#include "core/rng.h"
#include "fl/aggregators.h"
#include "fl/client_step.h"
#include "fl/server.h"
#include "fl/wire_encoding.h"
#include "obs/obs.h"
#include "transport/frame.h"

namespace fedms::transport {

namespace {

[[noreturn]] void protocol_error(const net::NodeId& self,
                                 const std::string& what) {
  throw std::runtime_error(net::to_string(self) + ": " + what);
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

// Receives round `round`'s frames until `syncs` round-sync frames have
// arrived, handing each `expected` model frame to `on_model`. Anything
// else — a timeout, another round, another kind — is a protocol error.
template <typename OnModel>
void collect_round(Transport& transport, std::uint64_t round,
                   std::size_t syncs, net::MessageKind expected,
                   double timeout_seconds, OnModel&& on_model) {
  const net::NodeId self = transport.self();
  for (std::size_t seen = 0; seen < syncs;) {
    auto m = transport.receive(timeout_seconds);
    if (!m.has_value())
      protocol_error(self, "timeout waiting for round " +
                               std::to_string(round) + " " +
                               net::to_string(expected) + " frames");
    if (m->round != round)
      protocol_error(self, "message from round " + std::to_string(m->round) +
                               " during round " + std::to_string(round));
    if (m->kind == net::MessageKind::kRoundSync) {
      ++seen;
    } else if (m->kind == expected) {
      on_model(std::move(*m));
    } else {
      protocol_error(self, std::string("unexpected ") +
                               net::to_string(m->kind) + " frame");
    }
  }
}

// Mean of `field` over the evaluating clients — the first eval_clients,
// all when 0 — in ascending order, as fl::evaluate_round sums.
double mean_over_evaluated(const TransportRunSummary& summary,
                           double NodeReport::*field) {
  FEDMS_EXPECTS(!summary.clients.empty());
  const std::size_t all = summary.clients.size();
  const std::size_t count =
      summary.eval_clients == 0 ? all : std::min(summary.eval_clients, all);
  double sum = 0.0;
  for (std::size_t k = 0; k < count; ++k) sum += summary.clients[k].*field;
  return sum / double(count);
}

}  // namespace

std::string to_report_text(const NodeReport& report) {
  std::ostringstream out;
  out << "fedms-node-report v1\n";
  out << "role " << kind_name(report.self.kind) << '\n';
  out << "index " << report.self.index << '\n';
  out << "rounds " << report.rounds << '\n';
  out << "final_accuracy " << core::exact_double(report.final_accuracy) << '\n';
  out << "final_eval_loss " << core::exact_double(report.final_eval_loss) << '\n';
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
  FEDMS_EXPECTS(k < fed.clients);
  FEDMS_EXPECTS(transport.self() == net::client_id(k));

  fl::LearnerPtr learner = fl::make_nn_learner(data, workload, fed, k);
  const fl::AggregatorPtr filter = fl::make_aggregator(fed.client_filter);
  // Same root batch, scorer model, and eval path as the simulator, so the
  // fedgreed selection — and hence --verify — is bit-identical per client.
  fl::install_fedgreed_scorer(*filter, data, workload, fed);
  fl::ClientStep step(fed, k, *learner, *filter);
  core::Rng participation_rng =
      core::SeedSequence(fed.seed).make_rng("participation");

  // Broadcasts arrive in the encoding our hello announced; stateful
  // payloads are materialized per source PS stream. (Uploads are encoded
  // per target PS stream by the step.)
  fl::WireChannelBook broadcast_channels(
      fl::wire_encoding_spec(fed.wire_encoding));  // keyed by source PS

  obs::set_thread_label("client" + std::to_string(k));

  NodeReport report;
  report.self = net::client_id(k);
  report.rounds = fed.rounds;

  for (std::uint64_t round = 0; round < fed.rounds; ++round) {
    // Partial participation: replay the simulator's shared draw. A
    // sitting-out client skips training and upload (its streams stay
    // untouched, as in the simulator) but still round-syncs so the PSs'
    // barriers close, and still collects + filters broadcasts.
    const bool participates =
        fl::draw_participants(fed, participation_rng)[k];

    // ---- Stage 1: local training ----
    if (participates) {
      obs::Span span("node", "local_training", round, "client",
                     static_cast<std::int64_t>(k));
      step.train();
    }

    // ---- Stage 2: upload to the selected PS set, then round-sync all ----
    {
      obs::Span span("node", "upload", round, "client",
                     static_cast<std::int64_t>(k));
      // Encoded uploads keep their bytes: the payload we carry is exactly
      // what the PS will decode, so simulator and transport stay
      // bit-for-bit equal under every encoding.
      if (participates)
        for (net::Message& m : step.uploads(round, /*keep_encoded=*/true))
          transport.send(std::move(m));
      for (std::size_t p = 0; p < fed.servers; ++p)
        transport.send(net::Message{.from = report.self,
                                    .to = net::server_id(p),
                                    .kind = net::MessageKind::kRoundSync,
                                    .round = round});
    }

    // ---- Stage 3: collect broadcasts until every PS round-synced ----
    std::map<std::size_t, fl::ModelVector> candidates;
    {
      obs::Span span("node", "dissemination", round, "client",
                     static_cast<std::int64_t>(k));
      collect_round(transport, round, fed.servers,
                    net::MessageKind::kModelBroadcast, timeout_seconds,
                    [&](net::Message m) {
                      fl::finish_wire_payload(m, broadcast_channels);
                      candidates.emplace(m.from.index, std::move(m.payload));
                    });
    }

    // Def() over candidates in ascending server order (the simulator's
    // drain order); an empty set means every PS went silent/corrupt and
    // the client continues from its local model.
    if (!candidates.empty()) {
      obs::Span span("node", "filter", round, "client",
                     static_cast<std::int64_t>(k));
      step.install(step.filter(fl::ascending_models(candidates)));
    }

    // Only the first eval_clients clients evaluate, as in evaluate_round.
    if (fl::eval_due(fed, round) &&
        (fed.eval_clients == 0 || k < fed.eval_clients)) {
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
  FEDMS_EXPECTS(p < fed.servers);
  FEDMS_EXPECTS(transport.self() == net::server_id(p));

  // Built exactly as every engine builds its PSs: "byz-placement" and
  // this PS's "attack" stream are re-derived identically in every process.
  fl::ParameterServer server =
      fl::make_parameter_server(fed, p, fl::initial_model(workload, fed));

  obs::set_thread_label("server" + std::to_string(p));

  NodeReport report;
  report.self = net::server_id(p);
  report.rounds = fed.rounds;

  for (std::uint64_t round = 0; round < fed.rounds; ++round) {
    // ---- Aggregation stage: uploads until every client round-synced ----
    {
      obs::Span span("node", "aggregation", round, "server",
                     static_cast<std::int64_t>(p));
      collect_round(transport, round, fed.clients,
                    net::MessageKind::kModelUpload, timeout_seconds,
                    [&](net::Message m) { server.accept(std::move(m)); });
      server.aggregate(round);
    }
    // Broadcasts go out in the encoding each client's hello announced (f32
    // when unintelligible); every client has identified itself once its
    // round-0 sync arrived.
    for (std::size_t k = 0; round == 0 && k < fed.clients; ++k) {
      fl::WireEncodingSpec spec;
      const std::string announced = transport.peer_encoding(net::client_id(k));
      if (!fl::parse_wire_encoding(announced, &spec).empty()) spec = {};
      server.set_client_encoding(k, spec);
    }

    // ---- Dissemination stage. broadcast() runs for every client in
    // ascending order even when nothing is sent (the attack's RNG stream
    // advances per call in the simulator). ----
    obs::Span span("node", "dissemination", round, "server",
                   static_cast<std::int64_t>(p));
    for (std::size_t k = 0; k < fed.clients; ++k)
      if (auto m = server.broadcast(round, k, /*keep_encoded=*/true))
        transport.send(std::move(*m));
    for (std::size_t k = 0; k < fed.clients; ++k)
      transport.send(net::Message{.from = report.self,
                                  .to = net::client_id(k),
                                  .kind = net::MessageKind::kRoundSync,
                                  .round = round});
  }

  report.model_crc = crc32c_floats(server.honest_aggregate());
  report.stats = transport.stats();
  return report;
}

double TransportRunSummary::mean_accuracy() const {
  return mean_over_evaluated(*this, &NodeReport::final_accuracy);
}

double TransportRunSummary::mean_eval_loss() const {
  return mean_over_evaluated(*this, &NodeReport::final_eval_loss);
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
  const fl::Workload data = fl::make_workload(workload, fed);

  // All endpoints registered before any node thread starts, so no send
  // can race an unregistered receiver. Node i < K is client i; the rest
  // are the PSs.
  const std::size_t nodes = fed.clients + fed.servers;
  std::vector<std::unique_ptr<InMemoryTransport>> endpoints;
  for (std::size_t i = 0; i < nodes; ++i)
    endpoints.push_back(hub.make_endpoint(
        i < fed.clients ? net::client_id(i) : net::server_id(i - fed.clients),
        fed.wire_encoding));

  TransportRunSummary summary;
  summary.clients.resize(fed.clients);
  summary.servers.resize(fed.servers);
  summary.eval_clients = fed.eval_clients;
  std::vector<std::exception_ptr> errors(nodes);
  std::vector<std::thread> threads;
  threads.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    threads.emplace_back([&, i] {
      try {
        if (i < fed.clients)
          summary.clients[i] = run_client_node(*endpoints[i], data, workload,
                                               fed, i, timeout_seconds);
        else
          summary.servers[i - fed.clients] =
              run_server_node(*endpoints[i], workload, fed, i - fed.clients,
                              timeout_seconds);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  return summary;
}

}  // namespace fedms::transport
