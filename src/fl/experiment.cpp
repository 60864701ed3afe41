#include "fl/experiment.h"

#include <algorithm>
#include <cmath>

#include "core/contracts.h"
#include "fl/aggregators.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"
#include "nn/params.h"

namespace fedms::fl {

namespace {

std::unique_ptr<nn::Sequential> build_model(const WorkloadConfig& workload,
                                            std::uint64_t model_seed) {
  // A fresh Rng from the same seed gives every client bit-identical initial
  // weights — the common w₀ of Algorithm 1.
  core::Rng rng(model_seed);
  if (workload.model == "mlp")
    return nn::make_mlp(workload.feature_dimension, workload.mlp_hidden,
                        workload.classes, rng);
  if (workload.model == "logistic")
    return nn::make_logistic(workload.feature_dimension, workload.classes,
                             rng);
  if (workload.model == "mobilenet") {
    nn::MobileNetV2Config config;
    config.in_channels = 3;
    config.image_size = workload.image_size;
    config.classes = workload.classes;
    return nn::make_mobilenet_v2_tiny(config, rng);
  }
  if (workload.model == "lenet")
    return nn::make_lenet_tiny(3, workload.image_size, workload.classes,
                               rng);
  FEDMS_EXPECTS(!"unknown model name (expected mlp|logistic|mobilenet|lenet)");
  return nullptr;
}

NnLearnerOptions learner_options(const WorkloadConfig& workload) {
  NnLearnerOptions options;
  options.batch_size = workload.batch_size;
  options.learning_rate = workload.learning_rate;
  options.lr_schedule = workload.lr_schedule;
  options.momentum = workload.momentum;
  options.weight_decay = workload.weight_decay;
  options.eval_sample_cap = workload.eval_sample_cap;
  return options;
}

}  // namespace

std::size_t min_samples_per_client(const WorkloadConfig& workload) {
  return workload.batch_size / 4 + 1;
}

std::string check_workload(const WorkloadConfig& workload,
                           const FedMsConfig& fed) {
  const std::size_t n = workload.samples;
  // split_train_test's test count: round(f·n), clamped to [1, n−1].
  const auto test = static_cast<std::size_t>(
      std::round(workload.test_fraction * double(n)));
  const std::size_t train =
      n < 2 ? 0 : n - std::clamp<std::size_t>(test, 1, n - 1);
  const std::size_t need = fed.clients * min_samples_per_client(workload);
  if (train >= need) return "";
  return "--samples " + std::to_string(n) + " leaves " +
         std::to_string(train) + " training samples, fewer than " +
         std::to_string(fed.clients) + " clients x (batch/4+1) = " +
         std::to_string(need) + "; raise --samples or lower --clients";
}

Workload make_workload(const WorkloadConfig& workload,
                       const FedMsConfig& fed) {
  const core::SeedSequence seeds(fed.seed);
  core::Rng data_rng = seeds.make_rng("dataset");

  data::Dataset full;
  if (workload.model == "mobilenet" || workload.model == "lenet") {
    data::SyntheticImagesConfig config;
    config.samples = workload.samples;
    config.image_size = workload.image_size;
    config.num_classes = workload.classes;
    config.class_separation = workload.class_separation;
    full = data::make_synthetic_images(config, data_rng);
  } else {
    data::GaussianClassesConfig config;
    config.samples = workload.samples;
    config.dimension = workload.feature_dimension;
    config.num_classes = workload.classes;
    config.class_separation = workload.class_separation;
    full = data::make_gaussian_classes(config, data_rng);
  }

  core::Rng split_rng = seeds.make_rng("split");
  auto split = data::split_train_test(full, workload.test_fraction,
                                      split_rng);

  core::Rng partition_rng = seeds.make_rng("partition");
  Workload result;
  result.partition = data::dirichlet_partition(
      split.train, fed.clients, workload.dirichlet_alpha, partition_rng,
      min_samples_per_client(workload));
  result.train = std::move(split.train);
  result.test = std::move(split.test);
  return result;
}

std::vector<LearnerPtr> make_nn_learners(const Workload& data,
                                         const WorkloadConfig& workload,
                                         const FedMsConfig& fed) {
  std::vector<LearnerPtr> learners;
  learners.reserve(fed.clients);
  for (std::size_t k = 0; k < fed.clients; ++k)
    learners.push_back(make_nn_learner(data, workload, fed, k));
  return learners;
}

LearnerPtr make_nn_learner(const Workload& data,
                           const WorkloadConfig& workload,
                           const FedMsConfig& fed, std::size_t k) {
  FEDMS_EXPECTS(data.partition.size() == fed.clients);
  FEDMS_EXPECTS(k < fed.clients);
  const core::SeedSequence seeds(fed.seed);
  std::vector<std::size_t> test_pool;
  if (workload.local_test_shards) {
    core::Rng shard_rng = seeds.make_rng("test-shards");
    test_pool = data::iid_partition(data.test, fed.clients, shard_rng)[k];
  }
  return std::make_unique<NnLearner>(
      data.train, data.partition[k], data.test,
      build_model(workload, seeds.derive("model-init")),
      learner_options(workload), seeds.make_rng("client-sampler", k),
      std::move(test_pool));
}

std::vector<float> initial_model(const WorkloadConfig& workload,
                                 const FedMsConfig& fed) {
  const core::SeedSequence seeds(fed.seed);
  auto model = build_model(workload, seeds.derive("model-init"));
  return nn::flatten_state(*model);
}

bool install_fedgreed_scorer(Aggregator& filter, const Workload& data,
                             const WorkloadConfig& workload,
                             const FedMsConfig& fed) {
  if (dynamic_cast<FedGreedAggregator*>(&filter) == nullptr) return false;
  FEDMS_EXPECTS(data.test.size() > 0);
  const core::SeedSequence seeds(fed.seed);

  // A fixed uniform draw from the held-out test split: every process that
  // builds this filter (simulator, each client node, scenario cell)
  // derives the identical batch from (seed, test size) alone.
  core::Rng rng = seeds.make_rng("fedgreed-root");
  std::vector<std::size_t> root(data.test.size());
  for (std::size_t i = 0; i < root.size(); ++i) root[i] = i;
  rng.shuffle(root);
  root.resize(std::min(fed.fedgreed_root_samples, data.test.size()));
  std::sort(root.begin(), root.end());

  NnLearnerOptions options;
  options.batch_size = workload.batch_size;
  options.eval_sample_cap = 0;  // score on the whole root batch
  // The scorer never trains: the {0} sample pool and its RNG stream are
  // ctor requirements only. Candidate state is fully overwritten per call
  // (trainable parameters AND batch-norm stats), so scores are a pure
  // function of the candidate bits.
  auto scorer = std::make_shared<NnLearner>(
      data.train, std::vector<std::size_t>{0}, data.test,
      build_model(workload, seeds.derive("model-init")), options,
      seeds.make_rng("fedgreed-scorer"), std::move(root));
  return install_fedgreed_root_score(
      filter, [scorer](const std::vector<float>& candidate) {
        scorer->set_parameters(candidate);
        return scorer->evaluate().loss;
      });
}

Experiment make_experiment(const WorkloadConfig& workload,
                           const FedMsConfig& fed) {
  Experiment experiment;
  experiment.data = std::make_unique<Workload>(make_workload(workload, fed));
  auto learners = make_nn_learners(*experiment.data, workload, fed);
  experiment.run =
      std::make_unique<FedMsRun>(fed, std::move(learners));
  install_fedgreed_scorer(experiment.run->client_filter(), *experiment.data,
                          workload, fed);
  return experiment;
}

RunResult run_experiment(const WorkloadConfig& workload,
                         const FedMsConfig& fed) {
  Experiment experiment = make_experiment(workload, fed);
  return experiment.run->run();
}

CentralizedResult run_centralized_baseline(const WorkloadConfig& workload,
                                           const FedMsConfig& fed,
                                           std::size_t epochs) {
  FEDMS_EXPECTS(epochs > 0);
  const Workload data = make_workload(workload, fed);
  // One learner owning the pooled training data.
  std::vector<std::size_t> all(data.train.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const core::SeedSequence seeds(fed.seed);
  NnLearner learner(data.train, all, data.test,
                    build_model(workload, seeds.derive("model-init")),
                    learner_options(workload),
                    seeds.make_rng("centralized-sampler"));

  // One "epoch" = enough mini-batch steps to see the dataset once.
  const std::size_t steps_per_epoch =
      std::max<std::size_t>(1, data.train.size() / workload.batch_size);
  CentralizedResult result;
  result.epoch_accuracy.reserve(epochs);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    learner.local_training(steps_per_epoch);
    result.epoch_accuracy.push_back(learner.evaluate().accuracy);
  }
  result.final_accuracy = result.epoch_accuracy.back();
  return result;
}

}  // namespace fedms::fl
