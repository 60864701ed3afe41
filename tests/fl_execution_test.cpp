// Execution-model tests: parallel client training determinism, learning-
// rate schedule specs, and the round-robin upload ablation.

#include <gtest/gtest.h>

#include "fl/experiment.h"
#include "net/latency.h"
#include "nn/optimizer.h"

namespace fedms::fl {
namespace {

WorkloadConfig tiny_workload() {
  WorkloadConfig workload;
  workload.samples = 600;
  workload.feature_dimension = 12;
  workload.classes = 4;
  workload.class_separation = 4.0f;
  workload.mlp_hidden = {8};
  workload.eval_sample_cap = 150;
  return workload;
}

FedMsConfig tiny_fed() {
  FedMsConfig fed;
  fed.clients = 10;
  fed.servers = 4;
  fed.byzantine = 1;
  fed.attack = "noise";
  fed.client_filter = "trmean:0.25";
  fed.rounds = 6;
  fed.eval_every = 6;
  fed.seed = 13;
  return fed;
}

TEST(ParallelExecution, ResultsIdenticalAcrossWorkerCounts) {
  const WorkloadConfig workload = tiny_workload();
  FedMsConfig fed = tiny_fed();
  fed.worker_threads = 0;
  const RunResult inline_run = run_experiment(workload, fed);
  fed.worker_threads = 3;
  const RunResult parallel_run = run_experiment(workload, fed);

  ASSERT_EQ(inline_run.rounds.size(), parallel_run.rounds.size());
  for (std::size_t i = 0; i < inline_run.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(inline_run.rounds[i].train_loss,
                     parallel_run.rounds[i].train_loss);
    EXPECT_EQ(inline_run.rounds[i].uplink_bytes,
              parallel_run.rounds[i].uplink_bytes);
  }
  EXPECT_DOUBLE_EQ(*inline_run.final_eval().eval_accuracy,
                   *parallel_run.final_eval().eval_accuracy);
}

TEST(ScheduleSpec, ParsesAllForms) {
  EXPECT_DOUBLE_EQ(nn::make_schedule("constant:0.25")->lr(99), 0.25);
  EXPECT_DOUBLE_EQ(nn::make_schedule("invdecay:2:10")->lr(0), 0.2);
  EXPECT_DOUBLE_EQ(nn::make_schedule("invdecay:2:10")->lr(10), 0.1);
  EXPECT_DOUBLE_EQ(nn::make_schedule("step:1:0.5:4")->lr(4), 0.5);
}

TEST(ScheduleSpecDeath, RejectsMalformed) {
  EXPECT_DEATH((void)nn::make_schedule("constant"), "Precondition");
  EXPECT_DEATH((void)nn::make_schedule("warmup:1"), "Precondition");
  EXPECT_DEATH((void)nn::make_schedule("invdecay:2"), "Precondition");
}

TEST(ScheduleSpec, DecayingScheduleStillLearns) {
  WorkloadConfig workload = tiny_workload();
  // η_t = 3/(10+t): starts at 0.3 and decays across rounds.
  workload.lr_schedule = "invdecay:3:10";
  FedMsConfig fed = tiny_fed();
  fed.rounds = 12;
  fed.eval_every = 12;
  const RunResult result = run_experiment(workload, fed);
  EXPECT_GT(*result.final_eval().eval_accuracy, 0.6);
}

TEST(RoundRobin, PerfectlyBalancedLoad) {
  RoundRobinUpload strategy;
  core::Rng rng(1);
  for (std::uint64_t round = 0; round < 5; ++round) {
    std::vector<int> counts(4, 0);
    for (std::size_t k = 0; k < 20; ++k) {
      const auto targets = strategy.select_servers(k, round, 4, rng);
      ASSERT_EQ(targets.size(), 1u);
      ++counts[targets[0]];
    }
    for (const int c : counts) EXPECT_EQ(c, 5);  // 20 clients over 4 PSs
  }
}

TEST(RoundRobin, RotatesAcrossRounds) {
  RoundRobinUpload strategy;
  core::Rng rng(2);
  const auto r0 = strategy.select_servers(3, 0, 5, rng)[0];
  const auto r1 = strategy.select_servers(3, 1, 5, rng)[0];
  EXPECT_EQ((r0 + 1) % 5, r1);
}

TEST(RoundRobin, WorksEndToEnd) {
  WorkloadConfig workload = tiny_workload();
  FedMsConfig fed = tiny_fed();
  fed.upload = "roundrobin";
  fed.rounds = 10;
  fed.eval_every = 10;
  const RunResult result = run_experiment(workload, fed);
  EXPECT_GT(*result.final_eval().eval_accuracy, 0.6);
  // Balanced load: uplink messages per round is exactly K.
  EXPECT_EQ(result.rounds.front().uplink_messages, fed.clients);
}

TEST(UploadFactory, ParsesRoundRobin) {
  EXPECT_EQ(make_upload_strategy("roundrobin")->name(), "roundrobin");
}

TEST(HeterogeneousLinks, StragglerStretchesStageTime) {
  const WorkloadConfig workload = tiny_workload();
  FedMsConfig fed = tiny_fed();
  fed.rounds = 2;
  fed.upload = "full";  // every client uplinks every round
  Experiment uniform_links = make_experiment(workload, fed);
  const RunResult fast = uniform_links.run->run();

  Experiment slow_links = make_experiment(workload, fed);
  net::LinkModel slow = slow_links.run->latency_model().default_link();
  slow.bandwidth_bytes_per_sec /= 100.0;
  slow_links.run->latency_model().set_link(net::client_id(0), slow);
  const RunResult slowed = slow_links.run->run();

  // The fast stage is RTT-dominated at this payload size, so the 100x
  // bandwidth cut shows up as a ~3x stage stretch, not 100x.
  EXPECT_GT(slowed.rounds.front().upload_seconds,
            2.0 * fast.rounds.front().upload_seconds);
  // Accuracy is unaffected — latency modelling is observational.
  EXPECT_DOUBLE_EQ(*slowed.final_eval().eval_accuracy,
                   *fast.final_eval().eval_accuracy);
}

}  // namespace
}  // namespace fedms::fl
