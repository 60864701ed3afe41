// End-to-end integration tests of the full Fed-MS stack (Algorithm 1 over
// the simulated network), at reduced scale for CI speed.

#include <gtest/gtest.h>

#include <cmath>

#include "fl/experiment.h"
#include "nn/params.h"

namespace fedms::fl {
namespace {

WorkloadConfig small_workload() {
  WorkloadConfig workload;
  workload.samples = 800;
  workload.feature_dimension = 16;
  workload.classes = 4;
  workload.class_separation = 4.0f;
  workload.dirichlet_alpha = 10.0;
  workload.model = "mlp";
  workload.mlp_hidden = {12};
  workload.eval_sample_cap = 200;
  return workload;
}

FedMsConfig small_fed() {
  FedMsConfig fed;
  fed.clients = 12;
  fed.servers = 5;
  fed.byzantine = 1;
  fed.local_iterations = 2;
  fed.rounds = 8;
  fed.attack = "benign";
  fed.client_filter = "trmean:0.2";
  fed.eval_every = 8;
  fed.seed = 5;
  return fed;
}

TEST(FedMs, BenignRunLearns) {
  FedMsConfig fed = small_fed();
  fed.byzantine = 0;
  fed.rounds = 12;
  fed.eval_every = 12;
  const RunResult result = run_experiment(small_workload(), fed);
  EXPECT_GT(*result.final_eval().eval_accuracy, 0.6);
}

TEST(FedMs, TrimmedMeanSurvivesRandomAttackVanillaDoesNot) {
  const WorkloadConfig workload = small_workload();
  FedMsConfig fed = small_fed();
  fed.byzantine = 1;
  fed.attack = "random";
  fed.rounds = 12;
  fed.eval_every = 12;
  const RunResult defended = run_experiment(workload, fed);
  fed.client_filter = "mean";
  const RunResult undefended = run_experiment(workload, fed);
  EXPECT_GT(*defended.final_eval().eval_accuracy, 0.55);
  EXPECT_LT(*undefended.final_eval().eval_accuracy, 0.45);
}

TEST(FedMs, DeterministicPerSeed) {
  const WorkloadConfig workload = small_workload();
  const FedMsConfig fed = small_fed();
  const RunResult a = run_experiment(workload, fed);
  const RunResult b = run_experiment(workload, fed);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss);
    EXPECT_EQ(a.rounds[i].uplink_bytes, b.rounds[i].uplink_bytes);
  }
  EXPECT_DOUBLE_EQ(*a.final_eval().eval_accuracy,
                   *b.final_eval().eval_accuracy);
}

TEST(FedMs, DifferentSeedsDiffer) {
  const WorkloadConfig workload = small_workload();
  FedMsConfig fed = small_fed();
  const RunResult a = run_experiment(workload, fed);
  fed.seed = 99;
  const RunResult b = run_experiment(workload, fed);
  EXPECT_NE(a.rounds.back().train_loss, b.rounds.back().train_loss);
}

TEST(FedMs, SparseUploadCostsKMessagesPerRound) {
  const FedMsConfig fed = small_fed();
  const RunResult result = run_experiment(small_workload(), fed);
  for (const auto& round : result.rounds) {
    EXPECT_EQ(round.uplink_messages, fed.clients);
    EXPECT_EQ(round.downlink_messages, fed.clients * fed.servers);
  }
}

TEST(FedMs, FullUploadCostsKTimesPMessages) {
  FedMsConfig fed = small_fed();
  fed.upload = "full";
  fed.rounds = 3;
  fed.eval_every = 3;
  const RunResult result = run_experiment(small_workload(), fed);
  EXPECT_EQ(result.rounds.front().uplink_messages,
            fed.clients * fed.servers);
}

TEST(FedMs, RoundCallbackSeesEveryRound) {
  Experiment experiment = make_experiment(small_workload(), small_fed());
  std::vector<std::uint64_t> seen;
  experiment.run->set_round_callback(
      [&](std::uint64_t round, const std::vector<LearnerPtr>& learners) {
        EXPECT_EQ(learners.size(), 12u);
        seen.push_back(round);
      });
  experiment.run->run();
  ASSERT_EQ(seen.size(), 8u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(FedMs, EvalEveryControlsEvaluationCadence) {
  FedMsConfig fed = small_fed();
  fed.rounds = 6;
  fed.eval_every = 3;
  const RunResult result = run_experiment(small_workload(), fed);
  ASSERT_EQ(result.rounds.size(), 6u);
  EXPECT_FALSE(result.rounds[0].eval_accuracy.has_value());
  EXPECT_TRUE(result.rounds[2].eval_accuracy.has_value());
  EXPECT_FALSE(result.rounds[3].eval_accuracy.has_value());
  EXPECT_TRUE(result.rounds[5].eval_accuracy.has_value());
}

TEST(FedMs, ClientsEndRoundWithIdenticalModelsUnderConsistentAttacks) {
  // With attacks that send the same payload to every client, the filter
  // output is identical across clients (they all see the same P models).
  Experiment experiment = make_experiment(small_workload(), small_fed());
  experiment.run->set_round_callback(
      [&](std::uint64_t, const std::vector<LearnerPtr>& learners) {
        const auto reference = learners.front()->parameters();
        for (const auto& learner : learners)
          EXPECT_EQ(learner->parameters(), reference);
      });
  experiment.run->run();
}

TEST(FedMs, InconsistentAttackYieldsDivergentClientModels) {
  FedMsConfig fed = small_fed();
  fed.attack = "inconsistent";
  Experiment experiment = make_experiment(small_workload(), fed);
  bool diverged = false;
  experiment.run->set_round_callback(
      [&](std::uint64_t, const std::vector<LearnerPtr>& learners) {
        if (learners[0]->parameters() != learners[1]->parameters())
          diverged = true;
      });
  experiment.run->run();
  EXPECT_TRUE(diverged);
}

TEST(FedMs, NanAttackFilteredOut) {
  FedMsConfig fed = small_fed();
  fed.attack = "nan";
  Experiment experiment = make_experiment(small_workload(), fed);
  experiment.run->set_round_callback(
      [&](std::uint64_t, const std::vector<LearnerPtr>& learners) {
        for (const auto& learner : learners)
          for (const float v : learner->parameters())
            ASSERT_TRUE(std::isfinite(v));
      });
  const RunResult result = experiment.run->run();
  EXPECT_GT(*result.final_eval().eval_accuracy, 0.4);
}

TEST(FedMs, CrashedServersJustGoSilent) {
  FedMsConfig fed = small_fed();
  fed.attack = "crash";
  fed.rounds = 10;
  fed.eval_every = 10;
  const RunResult result = run_experiment(small_workload(), fed);
  // B = 1 crashed PS: downlink carries (P-1)*K broadcasts per round.
  for (const auto& round : result.rounds)
    EXPECT_EQ(round.downlink_messages,
              (fed.servers - fed.byzantine) * fed.clients);
  // Training proceeds on the surviving majority.
  EXPECT_GT(*result.final_eval().eval_accuracy, 0.55);
}

TEST(FedMs, EdgeOfTrimAttackIsBoundedNotFiltered) {
  // The edge-of-trim lie survives inside the benign range, so it slows but
  // cannot destroy training — the behaviour Lemma 2's bound describes.
  FedMsConfig fed = small_fed();
  fed.attack = "edgeoftrim";
  fed.rounds = 12;
  fed.eval_every = 12;
  const RunResult attacked = run_experiment(small_workload(), fed);
  fed.attack = "benign";
  fed.byzantine = 0;
  const RunResult clean = run_experiment(small_workload(), fed);
  EXPECT_GT(*attacked.final_eval().eval_accuracy, 0.45);
  EXPECT_LE(*attacked.final_eval().eval_accuracy,
            *clean.final_eval().eval_accuracy + 0.05);
}

TEST(FedMs, RandomPlacementSpreadsByzantineServers) {
  FedMsConfig fed = small_fed();
  fed.byzantine = 2;
  fed.byzantine_placement = "random";
  Experiment experiment = make_experiment(small_workload(), fed);
  std::size_t byzantine_count = 0;
  for (const auto& server : experiment.run->servers())
    if (server.is_byzantine()) ++byzantine_count;
  EXPECT_EQ(byzantine_count, 2u);
}

TEST(FedMs, FirstPlacementPinsLowIndices) {
  FedMsConfig fed = small_fed();
  fed.byzantine = 2;
  Experiment experiment = make_experiment(small_workload(), fed);
  EXPECT_TRUE(experiment.run->servers()[0].is_byzantine());
  EXPECT_TRUE(experiment.run->servers()[1].is_byzantine());
  EXPECT_FALSE(experiment.run->servers()[2].is_byzantine());
}

TEST(FedMs, SimulatedCommTimeAccumulates) {
  const RunResult result = run_experiment(small_workload(), small_fed());
  EXPECT_GT(result.simulated_comm_seconds, 0.0);
  double stage_sum = 0.0;
  for (const auto& r : result.rounds)
    stage_sum += r.upload_seconds + r.broadcast_seconds;
  EXPECT_NEAR(result.simulated_comm_seconds, stage_sum, 1e-9);
}

TEST(FedMs, FinalEvalFindsLastEvaluatedRound) {
  FedMsConfig fed = small_fed();
  fed.rounds = 5;
  fed.eval_every = 2;
  const RunResult result = run_experiment(small_workload(), fed);
  // Rounds 1, 3 evaluated by cadence, plus the forced final round 4.
  EXPECT_EQ(result.final_eval().round, 4u);
}

TEST(FedMs, WarmStartFromInstalledModel) {
  // Train one federation, export its first client's model, install it in a
  // fresh federation: the fresh run starts at the trained accuracy.
  const WorkloadConfig workload = small_workload();
  FedMsConfig fed = small_fed();
  fed.rounds = 10;
  fed.eval_every = 10;
  Experiment first = make_experiment(workload, fed);
  const RunResult trained = first.run->run();
  const std::vector<float> snapshot =
      first.run->learners().front()->parameters();

  Experiment second = make_experiment(workload, fed);
  second.run->install_global_model(snapshot);
  // Evaluate before any training: accuracy should match the trained run.
  const LearnerEval warm = second.run->learners().front()->evaluate();
  EXPECT_NEAR(warm.accuracy, *trained.final_eval().eval_accuracy, 0.1);
}

TEST(FedMsDeath, InstallWrongDimensionAborts) {
  Experiment experiment = make_experiment(small_workload(), small_fed());
  EXPECT_DEATH(experiment.run->install_global_model({1.0f, 2.0f}),
               "Precondition");
}

TEST(FedMsDeath, LearnerCountMustMatchConfig) {
  FedMsConfig fed = small_fed();
  fed.clients = 3;
  const WorkloadConfig workload = small_workload();
  FedMsConfig build_fed = fed;
  build_fed.clients = 4;  // build 4 learners, then claim 3
  Workload data = make_workload(workload, build_fed);
  auto learners = make_nn_learners(data, workload, build_fed);
  EXPECT_DEATH(FedMsRun(fed, std::move(learners)), "Precondition");
}

}  // namespace
}  // namespace fedms::fl
