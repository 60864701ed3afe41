// Federated integration over the CNN substrate (MobileNet-V2-tiny and
// LeNet on image data) — exercises conv/pooling/batch-norm layers, buffer
// aggregation, and the im2col path inside the full Fed-MS loop. Scales are
// tiny to keep CI fast.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "fl/experiment.h"
#include "nn/params.h"

namespace fedms::fl {
namespace {

WorkloadConfig image_workload(const char* model) {
  WorkloadConfig workload;
  workload.model = model;
  workload.samples = 240;
  workload.image_size = 8;
  workload.classes = 3;
  workload.class_separation = 5.0f;
  workload.batch_size = 16;
  workload.learning_rate = 0.1;
  workload.eval_sample_cap = 60;
  return workload;
}

FedMsConfig image_fed() {
  FedMsConfig fed;
  fed.clients = 6;
  fed.servers = 4;
  fed.byzantine = 1;
  fed.attack = "random";
  fed.client_filter = "trmean:0.25";
  fed.local_iterations = 2;
  fed.rounds = 14;
  fed.eval_every = 14;
  fed.eval_clients = 2;
  fed.seed = 55;
  return fed;
}

class CnnFederated : public ::testing::TestWithParam<const char*> {};

TEST_P(CnnFederated, TrainsUnderByzantineServers) {
  const RunResult result =
      run_experiment(image_workload(GetParam()), image_fed());
  // Better than chance (1/3) despite a Byzantine PS and few rounds.
  EXPECT_GT(*result.final_eval().eval_accuracy, 0.45) << GetParam();
}

TEST_P(CnnFederated, ParametersStayFinite) {
  Experiment experiment =
      make_experiment(image_workload(GetParam()), image_fed());
  experiment.run->set_round_callback(
      [](std::uint64_t, const std::vector<LearnerPtr>& learners) {
        for (const auto& learner : learners)
          for (const float v : learner->parameters())
            ASSERT_TRUE(std::isfinite(v));
      });
  experiment.run->run();
}

INSTANTIATE_TEST_SUITE_P(Models, CnnFederated,
                         ::testing::Values("mobilenet", "lenet"));

TEST(CnnFederated, MobileNetPayloadIncludesBatchNormBuffers) {
  const WorkloadConfig workload = image_workload("mobilenet");
  const FedMsConfig fed = image_fed();
  const Workload data = make_workload(workload, fed);
  auto learners = make_nn_learners(data, workload, fed);
  auto* learner = dynamic_cast<NnLearner*>(learners.front().get());
  ASSERT_NE(learner, nullptr);
  // Payload dimension is the full state, strictly larger than the
  // trainable parameter count (running stats ride along).
  EXPECT_GT(learner->dimension(),
            nn::parameter_count(learner->classifier().net()));
}

// Randomized-configuration robustness: any *valid* configuration must run
// to completion with finite telemetry — no contract violations, no NaNs —
// whatever combination of attack, filter, upload, codec and participation
// the sweep lands on.
class RandomConfig : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomConfig, AnyValidConfigRunsClean) {
  core::Rng rng(GetParam());
  WorkloadConfig workload;
  workload.samples = 300 + rng.uniform_index(200);
  workload.feature_dimension = 8 + rng.uniform_index(8);
  workload.classes = 3;
  workload.mlp_hidden = {6};
  workload.eval_sample_cap = 50;

  FedMsConfig fed;
  fed.clients = 6 + rng.uniform_index(6);
  fed.servers = 4 + rng.uniform_index(4);
  fed.byzantine = rng.uniform_index(fed.servers / 2 + 1);
  auto attacks = byz::list_attack_names();
  // Exclude the deliberate NaN poisoner: with an un-trimmed filter it
  // poisons the model by design, which is covered by its own test.
  attacks.erase(std::find(attacks.begin(), attacks.end(), "nan"));
  fed.attack = attacks[rng.uniform_index(attacks.size())];
  const char* filters[] = {"mean", "trmean:0.2", "median", "geomedian"};
  fed.client_filter = filters[rng.uniform_index(4)];
  const char* uploads[] = {"sparse", "full", "roundrobin", "multi:2"};
  fed.upload = uploads[rng.uniform_index(4)];
  const char* encodings[] = {"f32", "fp16", "int8"};
  fed.wire_encoding = encodings[rng.uniform_index(3)];
  fed.participation = rng.uniform(0.5, 1.0);
  fed.rounds = 3;
  fed.eval_every = 3;
  fed.seed = GetParam();
  fed.validate();

  const RunResult result = run_experiment(workload, fed);
  ASSERT_EQ(result.rounds.size(), 3u);
  for (const auto& round : result.rounds)
    EXPECT_TRUE(std::isfinite(round.train_loss));
  EXPECT_TRUE(std::isfinite(*result.final_eval().eval_accuracy));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomConfig,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace fedms::fl
