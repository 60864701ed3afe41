// High-level experiment builder: dataset synthesis, Dirichlet partitioning,
// per-client learner construction with a common initial model w₀, and
// FedMsRun assembly — the paper's Table-II setup as one call.
//
// This is the entry point the examples and every figure bench use; lower
// layers remain directly constructible for custom setups.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/partition.h"
#include "fl/config.h"
#include "fl/fedms.h"
#include "fl/nn_learner.h"

namespace fedms::fl {

struct WorkloadConfig {
  // Dataset (synthetic CIFAR-10 stand-in; see DESIGN.md §2).
  std::size_t samples = 3000;
  std::size_t feature_dimension = 64;  // vector models
  std::size_t image_size = 8;          // image models (square, 3 channels)
  std::size_t classes = 10;
  float class_separation = 3.0f;
  double test_fraction = 0.25;
  // Data heterogeneity: Dirichlet D_α (Table II sweeps {1, 5, 10, 1000}).
  double dirichlet_alpha = 10.0;

  // Model: "mlp" (vector data), "logistic" (vector data),
  // "mobilenet" (image data).
  std::string model = "mlp";
  std::vector<std::size_t> mlp_hidden = {32};

  // Local optimizer.
  std::size_t batch_size = 32;
  double learning_rate = 0.3;
  // Optional schedule spec overriding learning_rate (see NnLearnerOptions).
  std::string lr_schedule;
  double momentum = 0.0;
  double weight_decay = 0.0;
  // Test samples per evaluate() call (0 = all).
  std::size_t eval_sample_cap = 512;
  // Federated evaluation (extension): when true, the test set is split iid
  // across clients and each client evaluates on its own local shard — the
  // realistic setting where no party holds a global test set. The paper
  // (and the default) evaluates every client on the full test set.
  bool local_test_shards = false;
};

struct Workload {
  data::Dataset train;
  data::Dataset test;
  data::PartitionIndices partition;  // per-client index pools
};

// The fewest training samples the Dirichlet partition gives a client.
std::size_t min_samples_per_client(const WorkloadConfig& workload);

// One-line error when the train split left after test_fraction cannot
// give each of fed.clients clients min_samples_per_client (make_workload
// would abort); empty when it fits. The CLI tools call this first.
std::string check_workload(const WorkloadConfig& workload,
                           const FedMsConfig& fed);

// Synthesizes the dataset and Dirichlet-partitions it across
// `fed.clients` clients. Deterministic in fed.seed.
Workload make_workload(const WorkloadConfig& workload,
                       const FedMsConfig& fed);

// Builds one NnLearner per client, all initialized to the same w₀
// (identical per-seed weight draws). The returned learners reference
// `data`, which must outlive them.
std::vector<LearnerPtr> make_nn_learners(const Workload& data,
                                         const WorkloadConfig& workload,
                                         const FedMsConfig& fed);

// Client k's learner alone — bit-identical to make_nn_learners(...)[k].
// This is what a single-client *process* builds: every client derives its
// own RNG streams from the shared seed, so building one learner or all of
// them yields the same per-client state.
LearnerPtr make_nn_learner(const Workload& data,
                           const WorkloadConfig& workload,
                           const FedMsConfig& fed, std::size_t k);

// The common initial model w₀ (trainable parameters + batch-norm running
// stats, flattened) — what every PS starts from. Needs no dataset, so a
// PS process can compute it without synthesizing the workload.
std::vector<float> initial_model(const WorkloadConfig& workload,
                                 const FedMsConfig& fed);

// The fedgreed:<k> root-batch scorer: loss of a candidate model on a
// fixed root batch of min(fed.fedgreed_root_samples, test-set size)
// held-out test examples drawn once on the "fedgreed-root" stream.
// Installs it on `filter` and returns true when the filter is a
// FedGreedAggregator; no-op (false) for every other rule. Every execution
// path with a dataset (sync sim, transport client nodes, scenario engine)
// calls this right after building its client filter, so the loss-based
// selection derives bit-identically everywhere — the --verify contract.
// The closure owns its scorer model but references `data`, which must
// outlive the filter; it is stateful, matching the serial filter calls of
// every runtime.
bool install_fedgreed_scorer(Aggregator& filter, const Workload& data,
                             const WorkloadConfig& workload,
                             const FedMsConfig& fed);

// One-call experiment: workload + learners + FedMsRun::run().
RunResult run_experiment(const WorkloadConfig& workload,
                         const FedMsConfig& fed);

// Centralized baseline: trains ONE model of the same architecture on the
// pooled training data (no federation, no attacks) — the classical upper
// bound every FL comparison is read against. `epochs` passes of mini-batch
// SGD over the pooled data; evaluation on the same held-out test split the
// federated runs use. Deterministic in fed.seed (the dataset, split, and
// model init are identical to the federated experiment's).
struct CentralizedResult {
  std::vector<double> epoch_accuracy;  // after each epoch
  double final_accuracy = 0.0;
};
CentralizedResult run_centralized_baseline(const WorkloadConfig& workload,
                                           const FedMsConfig& fed,
                                           std::size_t epochs);

// Experiment that also hands back the run object (for inspecting servers,
// traffic, or attaching callbacks before calling run()).
struct Experiment {
  // Owns the workload so learners' dataset references stay valid.
  std::unique_ptr<Workload> data;
  std::unique_ptr<FedMsRun> run;
};
Experiment make_experiment(const WorkloadConfig& workload,
                           const FedMsConfig& fed);

}  // namespace fedms::fl
