#include "scenario/engine.h"

#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "byz/attack.h"
#include "core/contracts.h"
#include "core/rng.h"
#include "data/partition.h"
#include "fl/nn_learner.h"
#include "runtime/telemetry.h"
#include "core/json_min.h"

namespace fedms::scenario {

ScenarioOutcome run_scenario(const Scenario& scenario, std::uint64_t seed,
                             const std::string& defense) {
  FEDMS_EXPECTS(scenario.check().empty());
  ScenarioOutcome outcome;
  outcome.name = scenario.name;
  outcome.seed = seed;

  fl::FedMsConfig fed = scenario.fed;
  fed.seed = seed;
  if (!defense.empty()) fed.client_filter = defense;
  outcome.defense = fed.client_filter;

  runtime::RuntimeOptions options;
  options.faults = scenario.compile_fault_plan(seed);
  options.round_keyed_streams = true;
  // The recorded trace (absent/recovered markers included) is as
  // deterministic as the rest of the outcome and small at scenario scale;
  // keeping it lets tests and post-mortems see the churn the hash attests.
  options.record_trace = true;

  const fl::Workload data = fl::make_workload(scenario.workload, fed);
  auto learners = fl::make_nn_learners(data, scenario.workload, fed);
  // Raw learner pointers survive the move into the run (the pointees are
  // stable); alpha drift retargets their sample pools through them.
  std::vector<fl::NnLearner*> nn;
  nn.reserve(learners.size());
  for (const auto& learner : learners)
    nn.push_back(dynamic_cast<fl::NnLearner*>(learner.get()));

  runtime::AsyncFedMsRun run(fed, options, std::move(learners));
  fl::install_fedgreed_scorer(run.client_filter(), data, scenario.workload,
                              fed);
  const core::SeedSequence seeds(seed);
  run.set_round_start_hook([&](std::uint64_t round) {
    for (const ScenarioEvent& event : scenario.events) {
      if (event.round != round) continue;
      if (event.type == ScenarioEvent::Type::kAttackSwitch) {
        // Only the dissemination edge changes; benign PSs stay benign and
        // every PS keeps its aggregate, history, and RNG stream.
        for (auto& server : run.mutable_servers())
          if (server.is_byzantine())
            server.set_attack(byz::make_attack(event.attack));
      } else if (event.type == ScenarioEvent::Type::kAlphaDrift) {
        // Repartition with the new α; the draw is keyed by (seed, round)
        // so drift at round t is the same regardless of earlier events.
        core::Rng rng = seeds.make_rng("alpha-drift", round);
        const data::PartitionIndices pools = data::dirichlet_partition(
            data.train, fed.clients, event.value, rng,
            fl::min_samples_per_client(scenario.workload));
        for (std::size_t k = 0; k < nn.size(); ++k)
          if (nn[k] != nullptr) nn[k]->set_pool(pools[k]);
      }
    }
  });

  outcome.result = run.run();
  outcome.config = fed;
  outcome.options = run.options();
  return outcome;
}

std::string ScenarioOutcome::to_json() const {
  std::ostringstream run_json;
  runtime::write_async_run_json(run_json, config, options, result);
  char seed_hex[32];
  std::snprintf(seed_hex, sizeof seed_hex, "0x%llx",
                static_cast<unsigned long long>(seed));
  char hash_hex[32];
  std::snprintf(hash_hex, sizeof hash_hex, "0x%llx",
                static_cast<unsigned long long>(result.trace_hash));
  std::ostringstream os;
  os << "{\n  \"scenario\": \"" << core::json_escape(name) << "\",\n"
     << "  \"defense\": \"" << core::json_escape(defense) << "\",\n"
     << "  \"seed\": \"" << seed_hex << "\",\n"
     << "  \"trace_hash\": \"" << hash_hex << "\",\n"
     << "  \"run\": " << run_json.str() << "\n}\n";
  return os.str();
}

}  // namespace fedms::scenario
