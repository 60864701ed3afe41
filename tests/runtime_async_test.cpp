// Acceptance tests for the event-driven runtime (ISSUE 1):
//   1. same seed + fault plan => bit-identical event trace and final model;
//   2. under B crashed benign PSs plus message loss, Fed-MS with
//      timeout-adaptive trimming converges on the convex workload while
//      the undefended mean diverges under the same plan;
//   3. crashing more than P-2B servers triggers the last-feasible-model
//      fallback instead of an exception.
//   4. without faults, the stateless wire encodings (fp16, int8) keep the
//      engine bit-identical to the synchronous loop;
//   5. a dropped message is billed to its sender's direction only;
//   6. partial participation: a non-participant only filters, at t_filter.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "data/convex.h"
#include "fl/fedms.h"
#include "fl/quadratic_learner.h"
#include "runtime/async_fedms.h"
#include "transport/frame.h"

namespace fedms::runtime {
namespace {

data::QuadraticProblem make_problem(std::size_t clients, std::uint64_t seed,
                                    double heterogeneity = 0.5) {
  data::QuadraticProblemConfig config;
  config.clients = clients;
  config.dimension = 16;
  config.heterogeneity = heterogeneity;
  config.gradient_noise = 0.5;
  core::Rng rng(seed);
  return data::QuadraticProblem(config, rng);
}

std::vector<fl::LearnerPtr> make_learners(
    const data::QuadraticProblem& problem, const fl::FedMsConfig& fed) {
  const core::SeedSequence seeds(fed.seed);
  std::vector<fl::LearnerPtr> learners;
  learners.reserve(problem.clients());
  for (std::size_t k = 0; k < problem.clients(); ++k)
    learners.push_back(std::make_unique<fl::QuadraticLearner>(
        problem, k, fed.local_iterations, seeds.make_rng("grad-noise", k),
        /*initial_value=*/3.0f));
  return learners;
}

fl::FedMsConfig base_config(std::uint64_t seed = 1) {
  fl::FedMsConfig fed;
  fed.clients = 20;
  fed.servers = 10;
  fed.byzantine = 2;
  fed.rounds = 15;
  fed.local_iterations = 3;
  fed.attack = "random";
  fed.client_filter = "trmean:0.35";
  fed.eval_every = 1;
  fed.seed = seed;
  return fed;
}

// Optimality gap of the client-average model: F(w̄) − F*.
double final_gap(const data::QuadraticProblem& problem,
                 const AsyncFedMsRun& run) {
  std::vector<double> mean(problem.dimension(), 0.0);
  for (const auto& learner : run.learners()) {
    const auto w = learner->parameters();
    for (std::size_t j = 0; j < w.size(); ++j) mean[j] += w[j];
  }
  std::vector<float> wbar(problem.dimension());
  for (std::size_t j = 0; j < wbar.size(); ++j)
    wbar[j] =
        static_cast<float>(mean[j] / double(run.learners().size()));
  return problem.global_value(wbar) - problem.optimal_value();
}

TEST(AsyncFedMs, SameSeedAndPlanReplaysBitIdentically) {
  RuntimeOptions options;
  options.record_trace = true;
  options.faults = FaultPlan::parse(
      "crash=9@4;drop=0.15;dup=0.05;delay=0.3:0.2;straggler=0:3");

  auto run_once = [&](std::uint64_t seed) {
    fl::FedMsConfig fed = base_config(seed);
    const data::QuadraticProblem problem = make_problem(fed.clients, 42);
    AsyncFedMsRun run(fed, options, make_learners(problem, fed));
    const AsyncRunResult result = run.run();
    std::vector<std::vector<float>> params;
    for (const auto& learner : run.learners())
      params.push_back(learner->parameters());
    return std::make_pair(result, params);
  };

  const auto [first, first_params] = run_once(1);
  const auto [second, second_params] = run_once(1);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  ASSERT_EQ(first.trace.size(), second.trace.size());
  for (std::size_t i = 0; i < first.trace.size(); ++i)
    ASSERT_EQ(first.trace[i], second.trace[i]) << "trace diverges at " << i;
  // Bit-identical final models on every client.
  ASSERT_EQ(first_params.size(), second_params.size());
  for (std::size_t k = 0; k < first_params.size(); ++k)
    EXPECT_EQ(first_params[k], second_params[k]);
  // Telemetry replays too.
  ASSERT_EQ(first.rounds.size(), second.rounds.size());
  for (std::size_t r = 0; r < first.rounds.size(); ++r) {
    EXPECT_EQ(first.rounds[r].messages_dropped,
              second.rounds[r].messages_dropped);
    EXPECT_EQ(first.rounds[r].fallbacks, second.rounds[r].fallbacks);
    EXPECT_DOUBLE_EQ(first.rounds[r].end_seconds,
                     second.rounds[r].end_seconds);
  }
  EXPECT_DOUBLE_EQ(first.virtual_seconds, second.virtual_seconds);

  // A different seed must not replay the same schedule (fault draws and
  // upload choices move).
  const auto [other, other_params] = run_once(2);
  EXPECT_NE(first.trace_hash, other.trace_hash);
}

TEST(AsyncFedMs, TrimmedMeanSurvivesCrashesAndLossWhereMeanDiverges) {
  // 2 Byzantine PSs (0, 1) mount the safeguard attack (calibrated
  // to pin an undefended client near w0); 2 benign PSs (8, 9) crash at
  // round 3; every link drops 15% of messages. trmean over the P'
  // survivors must keep converging toward w* while the undefended mean
  // stays stuck near the starting gap.
  RuntimeOptions options;
  options.faults = FaultPlan::parse("crash=8@3,9@3;drop=0.15");

  fl::FedMsConfig fed = base_config(7);
  fed.attack = "safeguard";
  fed.rounds = 25;
  const data::QuadraticProblem problem = make_problem(fed.clients, 42);
  const double initial_gap = [&] {
    std::vector<float> w0(problem.dimension(), 3.0f);
    return problem.global_value(w0) - problem.optimal_value();
  }();

  AsyncFedMsRun defended(fed, options, make_learners(problem, fed));
  const AsyncRunResult defended_result = defended.run();
  const double defended_gap = final_gap(problem, defended);

  fl::FedMsConfig undefended = fed;
  undefended.client_filter = "mean";
  AsyncFedMsRun mean_run(undefended, options,
                         make_learners(problem, undefended));
  mean_run.run();
  const double mean_gap = final_gap(problem, mean_run);

  // The defense converges: well below the starting gap.
  EXPECT_LT(defended_gap, 0.2 * initial_gap);
  // The undefended mean does not: the Byzantine payloads keep the average
  // far from the optimum.
  EXPECT_GT(mean_gap, 5.0 * defended_gap);
  EXPECT_GT(mean_gap, 0.5 * initial_gap);

  // The plan actually bit: drops and crashes show up in telemetry.
  std::uint64_t dropped = 0;
  for (const auto& r : defended_result.rounds) dropped += r.messages_dropped;
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(defended_result.rounds.back().crashed_servers, 2u);
  // Every client still filtered from an incomplete candidate set.
  EXPECT_LT(defended_result.rounds.back().max_candidates, fed.servers);
}

TEST(AsyncFedMs, MassCrashTriggersLastFeasibleFallback) {
  // Crash 8 of P=10 servers (> P-2B = 6) from round 0: every client's
  // candidate set is at most 2 <= 2B, so the filter is never feasible and
  // clients must fall back to the last feasible model (w0) — no throw.
  RuntimeOptions options;
  options.faults = FaultPlan::parse(
      "crash=2@0,3@0,4@0,5@0,6@0,7@0,8@0,9@0");

  fl::FedMsConfig fed = base_config(3);
  fed.rounds = 3;
  const data::QuadraticProblem problem = make_problem(fed.clients, 42);
  AsyncFedMsRun run(fed, options, make_learners(problem, fed));
  const AsyncRunResult result = run.run();

  // Every client fell back every round...
  for (const auto& record : result.rounds) {
    EXPECT_EQ(record.fallbacks, fed.clients);
    EXPECT_LE(record.max_candidates, 2u);
    EXPECT_GT(record.retry_requests, 0u);  // it did try to re-request
  }
  // ...so every client ends exactly at w0.
  const std::vector<float> w0(problem.dimension(), 3.0f);
  for (const auto& learner : run.learners())
    EXPECT_EQ(learner->parameters(), w0);
}

TEST(AsyncFedMs, FaultFreeRunHasCleanTelemetry) {
  RuntimeOptions options;
  fl::FedMsConfig fed = base_config(5);
  fed.rounds = 4;
  const data::QuadraticProblem problem = make_problem(fed.clients, 42);
  AsyncFedMsRun run(fed, options, make_learners(problem, fed));
  const AsyncRunResult result = run.run();
  for (const auto& record : result.rounds) {
    EXPECT_EQ(record.messages_dropped, 0u);
    EXPECT_EQ(record.messages_late, 0u);
    EXPECT_EQ(record.fallbacks, 0u);
    EXPECT_EQ(record.retry_requests, 0u);
    // Sparse upload: every PS broadcasts to every client.
    EXPECT_EQ(record.min_candidates, fed.servers);
    EXPECT_EQ(record.max_candidates, fed.servers);
  }
  // Virtual time advances monotonically across rounds.
  double last_end = 0.0;
  for (const auto& record : result.rounds) {
    EXPECT_GE(record.start_seconds, last_end);
    EXPECT_GT(record.end_seconds, record.start_seconds);
    last_end = record.end_seconds;
  }
  EXPECT_DOUBLE_EQ(result.virtual_seconds,
                   result.rounds.back().end_seconds);
}

// Per-round, per-client model CRCs of a run, via its round callback.
using RoundCrcs = std::vector<std::vector<std::uint32_t>>;
template <typename Run>
void capture_crcs(Run& run, RoundCrcs& crcs) {
  run.set_round_callback(
      [&crcs](std::uint64_t, const std::vector<fl::LearnerPtr>& learners) {
        crcs.emplace_back();
        for (const auto& learner : learners)
          crcs.back().push_back(
              transport::crc32c_floats(learner->parameters()));
      });
}

TEST(AsyncFedMs, StatelessWireEncodingsMatchTheSyncLoop) {
  // Without faults the event-driven engine replays the synchronous loop
  // bit for bit; a stateless wire encoding must keep it that way — same
  // lossy round-trips on uploads and per-recipient broadcasts, same
  // encoded bytes billed.
  for (const char* encoding : {"fp16", "int8"}) {
    SCOPED_TRACE(encoding);
    fl::FedMsConfig fed = base_config(3);
    fed.rounds = 4;
    fed.wire_encoding = encoding;
    const data::QuadraticProblem problem = make_problem(fed.clients, 42);

    RoundCrcs sync_crcs;
    fl::FedMsRun sync(fed, make_learners(problem, fed));
    capture_crcs(sync, sync_crcs);
    const fl::RunResult sync_result = sync.run();

    RoundCrcs async_crcs;
    AsyncFedMsRun async(fed, RuntimeOptions{}, make_learners(problem, fed));
    capture_crcs(async, async_crcs);
    const AsyncRunResult async_result = async.run();

    EXPECT_EQ(async_crcs, sync_crcs);
    ASSERT_EQ(async_result.rounds.size(), sync_result.rounds.size());
    for (std::size_t r = 0; r < sync_result.rounds.size(); ++r) {
      EXPECT_EQ(async_result.rounds[r].base.uplink_bytes,
                sync_result.rounds[r].uplink_bytes);
      EXPECT_EQ(async_result.rounds[r].base.downlink_bytes,
                sync_result.rounds[r].downlink_bytes);
    }
    EXPECT_EQ(async_result.uplink_total.bytes, sync_result.uplink_total.bytes);
    EXPECT_EQ(async_result.downlink_total.bytes,
              sync_result.downlink_total.bytes);

    // The encoding is really applied: fewer bytes than the f32 run.
    fl::FedMsConfig plain = fed;
    plain.wire_encoding = "f32";
    AsyncFedMsRun f32(plain, RuntimeOptions{}, make_learners(problem, plain));
    EXPECT_LT(async_result.uplink_total.bytes, f32.run().uplink_total.bytes);
  }
}

TEST(AsyncFedMsDeath, RejectsStatefulWireEncodings) {
  fl::FedMsConfig fed = base_config(1);
  fed.wire_encoding = "delta+int8";
  const data::QuadraticProblem problem = make_problem(fed.clients, 42);
  EXPECT_DEATH(
      AsyncFedMsRun(fed, RuntimeOptions{}, make_learners(problem, fed)),
      "Precondition");
}

TEST(AsyncFedMs, DropsAreBilledToTheSendersDirection) {
  // The attribution contract shared with net::SimNetwork::direction_for: a
  // lost message is billed to the *sender's* direction, and contributes to
  // neither delivered messages nor bytes.
  fl::FedMsConfig fed = base_config(3);
  fed.rounds = 4;
  fed.attack = "noise";  // every PS sends to every client
  RuntimeOptions options;
  options.max_retries = 0;  // only uploads and broadcasts on the wire
  options.faults = FaultPlan::parse("drop=0.3");
  const data::QuadraticProblem problem = make_problem(fed.clients, 42);
  AsyncFedMsRun run(fed, options, make_learners(problem, fed));
  const AsyncRunResult result = run.run();

  // Sparse upload: K uploads and P·K broadcasts attempted per round.
  const std::uint64_t rounds = fed.rounds;
  const net::TrafficStats& up = result.uplink_total;
  const net::TrafficStats& down = result.downlink_total;
  EXPECT_EQ(up.messages + up.dropped_messages, fed.clients * rounds);
  EXPECT_EQ(down.messages + down.dropped_messages,
            fed.servers * fed.clients * rounds);
  EXPECT_GT(up.dropped_messages, 0u);
  EXPECT_GT(down.dropped_messages, 0u);
  std::uint64_t dropped = 0;
  for (const AsyncRoundRecord& record : result.rounds)
    dropped += record.messages_dropped;
  EXPECT_EQ(dropped, up.dropped_messages + down.dropped_messages);
  // Dropped messages were never billed as bytes.
  net::Message model;
  model.payload.assign(problem.dimension(), 0.0f);
  const std::size_t each = net::wire_size(model);
  EXPECT_EQ(up.bytes, up.messages * each);
  EXPECT_EQ(down.bytes, down.messages * each);
}

TEST(AsyncFedMs, NonParticipantsFilterAtTheSharedDeadline) {
  // Partial participation keeps the synchronous loop's semantics: a client
  // outside the round's draw neither trains nor uploads, but still
  // receives every broadcast and filters, at t0 + upload window + timeout.
  fl::FedMsConfig fed = base_config(9);
  fed.rounds = 3;
  fed.participation = 0.5;
  RuntimeOptions options;
  options.record_trace = true;
  const data::QuadraticProblem problem = make_problem(fed.clients, 42);
  AsyncFedMsRun run(fed, options, make_learners(problem, fed));
  const AsyncRunResult result = run.run();

  core::Rng rng = core::SeedSequence(fed.seed).make_rng("participation");
  for (std::uint64_t r = 0; r < fed.rounds; ++r) {
    const std::vector<bool> participates = fl::draw_participants(fed, rng);
    const AsyncRoundRecord& record = result.rounds[r];
    EXPECT_EQ(record.base.uplink_messages, fl::participant_count(fed));
    EXPECT_EQ(record.min_candidates, fed.servers);
    const double t_filter = record.start_seconds +
                            options.upload_window_seconds +
                            options.broadcast_timeout_seconds;
    for (std::size_t k = 0; k < fed.clients; ++k) {
      SCOPED_TRACE("round " + std::to_string(r) + " client " +
                   std::to_string(k));
      const std::string node = net::to_string(net::client_id(k));
      int trained = 0, filtered = 0;
      double filter_time = -1.0;
      for (const std::string& line : result.trace) {
        unsigned long long round = 0;
        double time = 0.0;
        char event[64] = {0}, link[128] = {0};
        ASSERT_EQ(std::sscanf(line.c_str(), "r%llu t=%lf %63s %127s", &round,
                              &time, event, link),
                  4);
        if (round != r || std::string(link) != node + "->" + node) continue;
        if (std::string(event) == "trained") ++trained;
        if (std::string(event) == "filter") {
          ++filtered;
          filter_time = time;
        }
      }
      EXPECT_EQ(trained, participates[k] ? 1 : 0);
      EXPECT_EQ(filtered, 1);
      if (!participates[k]) {
        EXPECT_NEAR(filter_time, t_filter, 1e-8);
      }
    }
  }
}

}  // namespace
}  // namespace fedms::runtime
