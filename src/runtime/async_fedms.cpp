#include "runtime/async_fedms.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "core/contracts.h"
#include "fl/experiment.h"
#include "net/message.h"
#include "obs/obs.h"

namespace fedms::runtime {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

fl::RunResult AsyncRunResult::as_run_result() const {
  fl::RunResult result;
  result.rounds.reserve(rounds.size());
  for (const AsyncRoundRecord& record : rounds)
    result.rounds.push_back(record.base);
  result.uplink_total = uplink_total;
  result.downlink_total = downlink_total;
  result.simulated_comm_seconds = virtual_seconds;
  return result;
}

const AsyncRoundRecord& AsyncRunResult::final_eval() const {
  for (auto it = rounds.rbegin(); it != rounds.rend(); ++it)
    if (it->base.eval_accuracy.has_value()) return *it;
  FEDMS_EXPECTS(!"async run never evaluated");
  return rounds.back();
}

AsyncFedMsRun::AsyncFedMsRun(fl::FedMsConfig config, RuntimeOptions options,
                             std::vector<fl::LearnerPtr> learners)
    : config_(std::move(config)),
      options_(std::move(options)),
      learners_(std::move(learners)),
      seeds_(config_.seed) {
  config_.validate();
  options_.validate();
  FEDMS_EXPECTS(learners_.size() == config_.clients);
  for (const auto& learner : learners_) FEDMS_EXPECTS(learner != nullptr);
  // worker_threads is ignored — handlers run inline in deterministic
  // event order. Only stateless wire encodings (f32, fp16, int8): delta
  // and top-k would need per-link channel state threaded through the
  // event queue's retry/crash paths. CLI layers reject them with a
  // one-line error before this fires.
  FEDMS_EXPECTS(!fl::wire_encoding_spec(config_.wire_encoding).stateful());
  for (const ServerCrash& crash : options_.faults.crashes)
    FEDMS_EXPECTS(crash.server < config_.servers);
  // Recovery/churn events must name in-range nodes, every recovery must
  // follow a crash, and no (client, round) pair may churn twice. Round
  // bounds are the scenario layer's concern (a crash past the horizon is
  // a legal no-op here), so they are exempted with an unbounded horizon.
  {
    const std::string topo = options_.faults.check_topology(
        config_.clients, config_.servers,
        std::numeric_limits<std::uint64_t>::max());
    if (!topo.empty())
      core::contract_failure("Precondition", topo.c_str(), __FILE__,
                             __LINE__);
  }
  // A round in which every client has left would deadlock the protocol;
  // reject it up front (churn plans are small, so the scan is cheap).
  if (!options_.faults.churn.empty())
    for (std::uint64_t r = 0; r < config_.rounds; ++r)
      FEDMS_EXPECTS(
          options_.faults.active_client_count(config_.clients, r) > 0);

  const std::vector<float> w0 = learners_.front()->parameters();
  FEDMS_EXPECTS(w0.size() == learners_.front()->dimension());
  servers_.reserve(config_.servers);
  for (std::size_t i = 0; i < config_.servers; ++i)
    servers_.push_back(fl::make_parameter_server(config_, i, w0));

  filter_ = fl::make_aggregator(config_.client_filter);
  steps_.reserve(config_.clients);
  for (std::size_t k = 0; k < config_.clients; ++k)
    steps_.emplace_back(config_, k, *learners_[k], *filter_);
  quorum_ = options_.quorum(config_.byzantine, config_.client_filter);
  faults_ = FaultInjector(options_.faults, seeds_.make_rng("fault-injector"));
  participation_rng_ = seeds_.make_rng("participation");

  clients_.resize(config_.clients);
  for (ClientState& client : clients_) client.last_feasible = w0;
  round_losses_.assign(config_.clients, 0.0);
  client_active_.assign(config_.clients, 1);
  ps_crashed_.assign(config_.servers, 0);
  ps_snapshots_.resize(config_.servers);
}

void AsyncFedMsRun::trace(std::uint64_t round, const std::string& event,
                          const net::NodeId& from, const net::NodeId& to) {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, "r%llu t=%.9f %s %s->%s",
                static_cast<unsigned long long>(round), queue_.now(),
                event.c_str(), net::to_string(from).c_str(),
                net::to_string(to).c_str());
  result_->trace_hash = fnv1a(result_->trace_hash, buffer);
  if (options_.record_trace) result_->trace.emplace_back(buffer);
}

void AsyncFedMsRun::trace_node(std::uint64_t round, const std::string& event,
                               const net::NodeId& node) {
  trace(round, event, node, node);
}

void AsyncFedMsRun::send(net::Message message, std::uint64_t round,
                         std::function<void(net::Message)> deliver) {
  const net::NodeId from = message.from;
  const net::NodeId to = message.to;
  net::TrafficStats& direction =
      net::SimNetwork::direction_for(from, uplink_, downlink_);
  // A scripted fate (fuzz harness) replaces the injector's draws entirely
  // for this message, so scripted schedules consume no fault randomness.
  std::optional<FaultInjector::LinkFate> scripted;
  if (message_hook_)
    scripted = message_hook_(MessageEvent{round, from, to, message.kind});
  if (!scripted && faults_.omits(from)) {
    ++record_->omissions;
    trace(round, "omit", from, to);
    return;
  }
  const FaultInjector::LinkFate fate =
      scripted ? *scripted : faults_.message_fate(from, to);
  if (fate.dropped) {
    ++record_->messages_dropped;
    ++direction.dropped_messages;
    trace(round, "drop", from, to);
    return;
  }
  const std::size_t bytes = net::wire_size(message);
  // Per-message latency: the sender's link (straggler-scaled), plus any
  // fault-injected extra delay. Copies ship back to back on the link.
  const double unit =
      latency_.transfer_seconds(bytes, from) * faults_.straggler_factor(from);
  for (std::size_t copy = 0; copy < fate.copies; ++copy) {
    direction.messages += 1;
    direction.bytes += bytes;
    const double arrival =
        unit * double(copy + 1) + fate.extra_delay;
    trace(round, copy == 0 ? "send" : "send-dup", from, to);
    net::Message shipped =
        copy + 1 == fate.copies ? std::move(message) : message;
    queue_.schedule_after(
        arrival, [this, round, shipped = std::move(shipped), from, to,
                  deliver]() mutable {
          trace(round, "deliver", from, to);
          deliver(std::move(shipped));
        });
  }
}

void AsyncFedMsRun::client_filter_deadline(std::size_t k,
                                           std::uint64_t round) {
  ClientState& client = clients_[k];
  if (client.done) return;
  const std::size_t received = client.candidates.size();
  if (received >= quorum_ || client.retries_used >= options_.max_retries) {
    finish_client(k, round);
    return;
  }
  // Short of quorum with retry budget left: re-request the missing PSs'
  // models, back off, and recheck.
  trace_node(round, "retry", net::client_id(k));
  for (std::size_t s = 0; s < config_.servers; ++s) {
    if (client.candidates.count(s)) continue;
    net::Message request{.from = net::client_id(k),
                         .to = net::server_id(s),
                         .kind = net::MessageKind::kRetryRequest,
                         .round = round};
    ++record_->retry_requests;
    send(std::move(request), round, [this, round, k, s](net::Message) {
      if (ps_crashed_[s] || !ps_aggregated_[s]) {
        trace_node(round, "retry-unanswered", net::server_id(s));
        return;
      }
      // Byzantine PSs tamper retries too (fresh attack randomness); a
      // crash-attack PS stays silent.
      std::optional<net::Message> response = servers_[s].broadcast(round, k);
      if (!response) return;
      send(std::move(*response), round, [this, round, k, s](net::Message m) {
        ClientState& c = clients_[k];
        if (c.done) {
          ++record_->messages_late;
          return;
        }
        if (!c.candidates.emplace(s, std::move(m.payload)).second)
          ++record_->messages_duplicated;
      });
    });
  }
  const Backoff schedule{options_.retry_backoff_seconds,
                         options_.backoff_multiplier, options_.max_retries};
  const double backoff = schedule.delay_seconds(client.retries_used);
  ++client.retries_used;
  queue_.schedule_after(backoff,
                        [this, k, round] { client_filter_deadline(k, round); });
}

void AsyncFedMsRun::finish_client(std::size_t k, std::uint64_t round) {
  ClientState& client = clients_[k];
  obs::Span span("async", "filter", round, "client",
                 static_cast<std::int64_t>(k));
  const std::size_t received = client.candidates.size();
  if (received >= quorum_) {
    // Degraded-quorum filter: the trim count is re-derived from the
    // integer B over the P' candidates at hand — min(B, ⌊(P'−1)/2⌋),
    // never fewer than B while P' > 2B. Map order fixes the input order.
    std::vector<std::size_t> origins;
    const std::vector<fl::ModelVector> models =
        fl::ascending_models(client.candidates, &origins);
    std::size_t trim = fl::kNoTrim;
    fl::ModelVector filtered = steps_[k].filter(models, &trim);
    if (filter_hook_)
      filter_hook_(FilterEvent{round, k, origins, models, trim, filtered});
    steps_[k].install(filtered);
    client.last_feasible = filtered;
    trace_node(round, "filter", net::client_id(k));
  } else {
    // P' <= 2B (or below the configured quorum): the trimmed mean can no
    // longer out-vote the Byzantine minority — reuse the last model that
    // passed a feasible filter instead of ingesting a corruptible set.
    ++record_->fallbacks;
    steps_[k].install(client.last_feasible);
    trace_node(round, "fallback", net::client_id(k));
  }
  record_->min_candidates = clients_done_ == 0
                                ? received
                                : std::min(record_->min_candidates, received);
  record_->max_candidates = std::max(record_->max_candidates, received);
  record_->mean_candidates += double(received);
  client.done = true;
  ++clients_done_;
}

void AsyncFedMsRun::execute_round(std::uint64_t round,
                                  AsyncRunResult& result) {
  AsyncRoundRecord record;
  record.base.round = round;
  record.start_seconds = queue_.now();
  record_ = &record;
  const net::TrafficStats up_before = uplink_;
  const net::TrafficStats down_before = downlink_;

  // Reset per-round state (last_feasible persists across rounds).
  for (ClientState& client : clients_) {
    client.candidates.clear();
    client.retries_used = 0;
    client.done = false;
  }
  ps_aggregated_.assign(config_.servers, 0);
  for (std::size_t s = 0; s < config_.servers; ++s) {
    const bool crashed = faults_.server_crashed(s, round);
    if (crashed) ++record.crashed_servers;
    // Crash/recovery state handoff: going down snapshots the PS and wipes
    // its live state back to w₀ (what a fresh replacement would hold);
    // coming back restores the snapshot verbatim — uploads it aggregated
    // before crashing are neither lost nor double-counted.
    if (crashed && !ps_crashed_[s]) {
      ps_snapshots_[s] = servers_[s].snapshot();
      servers_[s].reset_state();
    } else if (!crashed && ps_crashed_[s]) {
      servers_[s].restore(ps_snapshots_[s]);
      ps_snapshots_[s] = fl::ParameterServer::Snapshot{};
      trace_node(round, "recovered", net::server_id(s));
    }
    ps_crashed_[s] = crashed ? 1 : 0;
  }
  // Membership for this round; inactive clients neither train nor filter.
  active_count_ = 0;
  for (std::size_t k = 0; k < config_.clients; ++k) {
    const bool active = faults_.plan().client_active(k, round);
    client_active_[k] = active ? 1 : 0;
    if (active) {
      ++active_count_;
    } else {
      clients_[k].done = true;  // never scheduled, never counted
      trace_node(round, "absent", net::client_id(k));
    }
  }
  FEDMS_ASSERT(active_count_ > 0);
  // Partial participation: drawn over all K clients every round, as in the
  // synchronous loop, so membership cannot shift the stream.
  participates_ = fl::draw_participants(config_, participation_rng_);
  // Round-keyed streams: client k's draws for this round (PS choice,
  // forgery, DP noise) are a pure function of (root seed, round, k), so a
  // client joining at round t draws exactly the streams it would own had
  // it been present from round 0, and membership history cannot shift
  // sibling streams.
  if (options_.round_keyed_streams) {
    const core::SeedSequence round_seeds(
        seeds_.derive("round-streams", round));
    for (fl::ClientStep& step : steps_) step.rekey(round_seeds);
  }
  if (round_start_hook_) round_start_hook_(round);
  clients_done_ = 0;

  const double t0 = queue_.now();
  const double t_aggregate = t0 + options_.upload_window_seconds;
  const double t_filter = t_aggregate + options_.broadcast_timeout_seconds;

  // Local training completes per participant after straggler-scaled
  // compute time; the handler uploads and arms that client's filter
  // deadline. A non-participant only filters, at the shared deadline.
  for (std::size_t k = 0; k < config_.clients; ++k) {
    if (!client_active_[k]) continue;
    if (!participates_[k]) {
      queue_.schedule_at(t_filter,
                         [this, k, round] { client_filter_deadline(k, round); });
      continue;
    }
    const double done =
        t0 + options_.compute_seconds *
                 faults_.straggler_factor(net::client_id(k));
    queue_.schedule_at(done, [this, k, round, t_filter] {
      {
        obs::Span span("async", "local_training", round, "client",
                       static_cast<std::int64_t>(k));
        round_losses_[k] = steps_[k].train();
      }
      trace_node(round, "trained", net::client_id(k));
      obs::Span upload_span("async", "upload", round, "client",
                            static_cast<std::int64_t>(k));
      for (net::Message& m : steps_[k].uploads(round)) {
        const std::size_t s = m.to.index;
        send(std::move(m), round, [this, round, k, s](net::Message msg) {
          if (ps_crashed_[s]) return;  // wasted upload
          if (ps_aggregated_[s]) {
            ++record_->messages_late;
            trace(round, "late-upload", net::client_id(k),
                  net::server_id(s));
            return;
          }
          if (!servers_[s].accept(std::move(msg)))
            ++record_->messages_duplicated;
        });
      }
      // A straggler that finishes training after the shared deadline still
      // filters — on its own timeline, never before it trained.
      queue_.schedule_at(std::max(queue_.now(), t_filter), [this, k, round] {
        client_filter_deadline(k, round);
      });
    });
  }

  // PS aggregation deadline: live PSs aggregate whatever arrived in the
  // window and disseminate to every client.
  for (std::size_t s = 0; s < config_.servers; ++s) {
    queue_.schedule_at(t_aggregate, [this, s, round] {
      if (ps_crashed_[s]) {
        trace_node(round, "crashed", net::server_id(s));
        return;
      }
      {
        obs::Span span("async", "aggregation", round, "server",
                       static_cast<std::int64_t>(s));
        servers_[s].aggregate(round);
        ps_aggregated_[s] = 1;
      }
      obs::Span span("async", "dissemination", round, "server",
                     static_cast<std::int64_t>(s));
      for (std::size_t k = 0; k < config_.clients; ++k) {
        if (!client_active_[k]) continue;  // absent clients get nothing
        std::optional<net::Message> m = servers_[s].broadcast(round, k);
        if (!m) continue;  // crash-attack PS stays silent
        send(std::move(*m), round, [this, round, k, s](net::Message msg) {
          ClientState& client = clients_[k];
          if (client.done) {
            ++record_->messages_late;
            trace(round, "late-broadcast", net::server_id(s),
                  net::client_id(k));
            return;
          }
          if (!client.candidates.emplace(s, std::move(msg.payload)).second)
            ++record_->messages_duplicated;
        });
      }
    });
  }

  queue_.drain();
  FEDMS_ASSERT(clients_done_ == active_count_);
  record.end_seconds = queue_.now();
  if (round_callback_) round_callback_(round, learners_);

  // ---- Telemetry ---- (the loss mean is over the clients that trained,
  // in ascending order as the synchronous loop sums it, and 0 when none
  // did; the candidate mean is over active clients)
  double loss_sum = 0.0;
  std::size_t trained = 0;
  for (std::size_t k = 0; k < config_.clients; ++k) {
    if (!client_active_[k] || !participates_[k]) continue;
    loss_sum += round_losses_[k];
    ++trained;
  }
  record.base.train_loss = trained == 0 ? 0.0 : loss_sum / double(trained);
  record.mean_candidates /= double(active_count_);
  record.base.upload_seconds = t_aggregate - t0;
  record.base.broadcast_seconds = record.end_seconds - t_aggregate;
  fl::evaluate_round(config_, round, learners_, record.base);
  record.base.uplink_bytes = uplink_.bytes - up_before.bytes;
  record.base.downlink_bytes = downlink_.bytes - down_before.bytes;
  record.base.uplink_messages = uplink_.messages - up_before.messages;
  record.base.downlink_messages = downlink_.messages - down_before.messages;
  result.rounds.push_back(std::move(record));
  record_ = nullptr;
}

AsyncRunResult AsyncFedMsRun::run() {
  AsyncRunResult result;
  result.trace_hash = kFnvOffset;
  result.rounds.reserve(config_.rounds);
  result_ = &result;
  for (std::uint64_t t = 0; t < config_.rounds; ++t)
    execute_round(t, result);
  result.virtual_seconds = queue_.now();
  result.uplink_total = uplink_;
  result.downlink_total = downlink_;
  result_ = nullptr;
  return result;
}

AsyncRunResult run_async_experiment(const fl::WorkloadConfig& workload,
                                    const fl::FedMsConfig& fed,
                                    const RuntimeOptions& options) {
  const fl::Workload data = fl::make_workload(workload, fed);
  auto learners = fl::make_nn_learners(data, workload, fed);
  AsyncFedMsRun run(fed, options, std::move(learners));
  fl::install_fedgreed_scorer(run.client_filter(), data, workload, fed);
  return run.run();
}

}  // namespace fedms::runtime
