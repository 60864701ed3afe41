// Custom-data workflow: the path a downstream user takes to run Fed-MS on
// their own tabular dataset instead of the built-in synthetic generators.
//
//   1. load a CSV dataset (here we synthesize one and write it to disk
//      first, so the example is self-contained);
//   2. split train/test and Dirichlet-partition across clients;
//   3. build learners manually (custom model width and LR schedule);
//   4. run Fed-MS under an active attack;
//   5. checkpoint the final global model and export telemetry as JSON.
//
// Every file goes to a fresh scratch directory that is removed on exit.

#include <cstdio>

#include "core/scratch_dir.h"
#include "data/csv.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/fedms.h"
#include "fl/nn_learner.h"
#include "metrics/json.h"
#include "nn/checkpoint.h"
#include "nn/model_zoo.h"

int main() {
  using namespace fedms;
  const core::ScratchDir scratch;
  const std::string csv_path = scratch.path() + "/data.csv";
  const std::string ckpt_path = scratch.path() + "/model.ckpt";
  const std::string json_path = scratch.path() + "/run.json";

  // --- 1. a "user dataset" on disk ---
  {
    data::GaussianClassesConfig config;
    config.samples = 1200;
    config.dimension = 10;
    config.num_classes = 5;
    config.class_separation = 3.5f;
    core::Rng rng(2024);
    data::save_csv(csv_path, data::make_gaussian_classes(config, rng));
  }
  const data::Dataset full = data::load_csv(csv_path);
  std::printf("loaded %zu samples x %zu features, %zu classes from %s\n",
              full.size(), full.sample_numel(), full.num_classes,
              csv_path.c_str());

  // --- 2. split + partition ---
  fl::FedMsConfig fed;
  fed.clients = 16;
  fed.servers = 6;
  fed.byzantine = 1;
  fed.attack = "random";
  fed.client_filter = "trmean:0.17";  // B/P = 1/6
  fed.rounds = 15;
  fed.eval_every = 5;
  fed.seed = 99;

  const core::SeedSequence seeds(fed.seed);
  core::Rng split_rng = seeds.make_rng("split");
  const data::TrainTestSplit split =
      data::split_train_test(full, 0.25, split_rng);
  core::Rng part_rng = seeds.make_rng("partition");
  const data::PartitionIndices partition =
      data::dirichlet_partition(split.train, fed.clients, /*alpha=*/2.0,
                                part_rng, /*min_samples_per_client=*/8);

  // --- 3. learners with a decaying LR schedule ---
  fl::NnLearnerOptions options;
  options.batch_size = 16;
  options.lr_schedule = "invdecay:3:10";  // eta_t = 3/(10+t)
  options.eval_sample_cap = 300;
  const std::uint64_t model_seed = seeds.derive("model");
  std::vector<fl::LearnerPtr> learners;
  for (std::size_t k = 0; k < fed.clients; ++k) {
    core::Rng model_rng(model_seed);  // identical w0 for every client
    learners.push_back(std::make_unique<fl::NnLearner>(
        split.train, partition[k], split.test,
        nn::make_mlp(full.sample_numel(), {16}, full.num_classes,
                     model_rng),
        options, seeds.make_rng("sampler", k)));
  }

  // --- 4. run ---
  fl::FedMsRun run(fed, std::move(learners));
  const fl::RunResult result = run.run();
  for (const auto& record : result.rounds)
    if (record.eval_accuracy)
      std::printf("round %2llu  accuracy %.3f  train loss %.3f\n",
                  static_cast<unsigned long long>(record.round),
                  *record.eval_accuracy, record.train_loss);

  // --- 5. checkpoint + telemetry export ---
  auto* first = dynamic_cast<fl::NnLearner*>(run.learners().front().get());
  nn::save_checkpoint(ckpt_path, first->classifier().net());
  metrics::save_run_json(json_path, fed, result);
  std::printf(
      "\nfinal accuracy %.1f%% under a Byzantine PS (Random attack)\n"
      "model checkpoint: %s\nrun telemetry:    %s\n"
      "(a scratch directory, removed on exit)\n",
      100.0 * *result.final_eval().eval_accuracy, ckpt_path.c_str(),
      json_path.c_str());
  return 0;
}
