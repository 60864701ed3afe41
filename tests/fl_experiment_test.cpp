#include "fl/experiment.h"

#include <gtest/gtest.h>

#include "tensor/ops.h"

namespace fedms::fl {
namespace {

WorkloadConfig tiny_workload() {
  WorkloadConfig workload;
  workload.samples = 400;
  workload.feature_dimension = 8;
  workload.classes = 4;
  workload.mlp_hidden = {6};
  return workload;
}

FedMsConfig tiny_fed() {
  FedMsConfig fed;
  fed.clients = 8;
  fed.servers = 4;
  fed.byzantine = 1;
  fed.rounds = 2;
  fed.seed = 3;
  return fed;
}

TEST(Workload, PartitionCoversTrainSetAcrossClients) {
  const Workload data = make_workload(tiny_workload(), tiny_fed());
  ASSERT_EQ(data.partition.size(), 8u);
  std::size_t total = 0;
  for (const auto& pool : data.partition) {
    EXPECT_FALSE(pool.empty());
    total += pool.size();
  }
  EXPECT_EQ(total, data.train.size());
}

TEST(Workload, TrainTestSplitRespectsFraction) {
  WorkloadConfig workload = tiny_workload();
  workload.test_fraction = 0.25;
  const Workload data = make_workload(workload, tiny_fed());
  EXPECT_EQ(data.test.size(), 100u);
  EXPECT_EQ(data.train.size(), 300u);
}

TEST(Workload, DeterministicPerSeed) {
  const Workload a = make_workload(tiny_workload(), tiny_fed());
  const Workload b = make_workload(tiny_workload(), tiny_fed());
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.train.labels, b.train.labels);
  for (std::size_t i = 0; i < a.train.features.numel(); ++i)
    EXPECT_EQ(a.train.features[i], b.train.features[i]);
}

TEST(Workload, SeedChangesData) {
  FedMsConfig fed = tiny_fed();
  const Workload a = make_workload(tiny_workload(), fed);
  fed.seed = 4;
  const Workload b = make_workload(tiny_workload(), fed);
  EXPECT_NE(a.train.labels, b.train.labels);
}

TEST(Workload, ImageModelGetsImageData) {
  WorkloadConfig workload = tiny_workload();
  workload.model = "mobilenet";
  workload.image_size = 6;
  const Workload data = make_workload(workload, tiny_fed());
  ASSERT_EQ(data.train.features.rank(), 4u);
  EXPECT_EQ(data.train.features.dim(1), 3u);
  EXPECT_EQ(data.train.features.dim(2), 6u);
}

TEST(Learners, AllStartFromIdenticalInitialModel) {
  const WorkloadConfig workload = tiny_workload();
  const FedMsConfig fed = tiny_fed();
  const Workload data = make_workload(workload, fed);
  auto learners = make_nn_learners(data, workload, fed);
  ASSERT_EQ(learners.size(), fed.clients);
  const auto reference = learners.front()->parameters();
  EXPECT_FALSE(reference.empty());
  for (auto& learner : learners)
    EXPECT_EQ(learner->parameters(), reference);
}

TEST(Learners, DimensionConsistentAcrossClients) {
  const WorkloadConfig workload = tiny_workload();
  const FedMsConfig fed = tiny_fed();
  const Workload data = make_workload(workload, fed);
  auto learners = make_nn_learners(data, workload, fed);
  const std::size_t d = learners.front()->dimension();
  for (auto& learner : learners) EXPECT_EQ(learner->dimension(), d);
}

TEST(Learners, LocalSampleCountsMatchPartition) {
  const WorkloadConfig workload = tiny_workload();
  const FedMsConfig fed = tiny_fed();
  const Workload data = make_workload(workload, fed);
  auto learners = make_nn_learners(data, workload, fed);
  for (std::size_t k = 0; k < learners.size(); ++k) {
    auto* nn = dynamic_cast<NnLearner*>(learners[k].get());
    ASSERT_NE(nn, nullptr);
    EXPECT_EQ(nn->local_sample_count(), data.partition[k].size());
  }
}

TEST(Experiment, MakeExperimentOwnsWorkloadSafely) {
  Experiment experiment = make_experiment(tiny_workload(), tiny_fed());
  ASSERT_NE(experiment.data, nullptr);
  ASSERT_NE(experiment.run, nullptr);
  // The learners reference experiment.data; running must be safe.
  const RunResult result = experiment.run->run();
  EXPECT_EQ(result.rounds.size(), 2u);
}

TEST(LocalTestShards, ClientsEvaluateOnDisjointShards) {
  WorkloadConfig workload = tiny_workload();
  workload.local_test_shards = true;
  workload.eval_sample_cap = 0;  // whole shard
  const FedMsConfig fed = tiny_fed();
  const Workload data = make_workload(workload, fed);
  auto learners = make_nn_learners(data, workload, fed);
  // All clients share identical parameters, yet local-shard evaluations
  // differ (distinct shards) — while the full-test default would be equal.
  std::vector<double> accuracies;
  for (auto& learner : learners)
    accuracies.push_back(learner->evaluate().accuracy);
  bool any_difference = false;
  for (const double a : accuracies)
    any_difference |= (a != accuracies.front());
  EXPECT_TRUE(any_difference);
}

TEST(LocalTestShards, FederatedRunStillReportsSensibleAccuracy) {
  WorkloadConfig workload = tiny_workload();
  workload.local_test_shards = true;
  FedMsConfig fed = tiny_fed();
  fed.rounds = 10;
  fed.eval_every = 10;
  const RunResult result = run_experiment(workload, fed);
  // The shard-averaged accuracy is an unbiased estimate of the global one.
  EXPECT_GT(*result.final_eval().eval_accuracy, 0.5);
}

TEST(Workload, CheckWorkloadMirrorsThePartitionFloor) {
  // 8 clients × (32/4 + 1) = 72 training samples are needed; the train
  // split is n − round(n/4). n = 96 leaves exactly 72, n = 95 leaves 71.
  WorkloadConfig workload = tiny_workload();
  const FedMsConfig fed = tiny_fed();
  for (std::size_t n = 90; n <= 100; ++n) {
    workload.samples = n;
    const bool fits = check_workload(workload, fed).empty();
    EXPECT_EQ(fits, n >= 96) << "samples " << n;
    if (fits) {
      const Workload data = make_workload(workload, fed);
      EXPECT_EQ(data.partition.size(), fed.clients);
    }
  }
  workload.samples = 95;
  EXPECT_DEATH((void)make_workload(workload, fed), "Precondition");
  workload.samples = 1;
  EXPECT_FALSE(check_workload(workload, fed).empty());
}

TEST(ExperimentDeath, UnknownModelNameAborts) {
  WorkloadConfig workload = tiny_workload();
  workload.model = "resnet";
  const FedMsConfig fed = tiny_fed();
  const Workload data = make_workload(workload, fed);
  EXPECT_DEATH((void)make_nn_learners(data, workload, fed), "Precondition");
}

}  // namespace
}  // namespace fedms::fl
