// sweep_throughput — batched scenario-sweep cell throughput: the same
// cell grid fedms_sweep expands, run once sequentially and once packed
// across core::ThreadPool with one worker per hardware thread. Reports
//
//   * sequential_seconds / batched_seconds — wall time for the grid,
//   * scenarios_per_hour  — batched cell throughput extrapolated,
//   * speedup             — sequential / batched; on a single-core box
//                           this saturates near 1.0 by construction
//                           (jobs == hardware_concurrency is recorded so
//                           the report documents the saturation point).
//
// Plain executable printing one JSON object to stdout (the
// bench_sweep_throughput_smoke ctest runs it). `--quick` shrinks the grid.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "scenario/engine.h"
#include "scenario/scenario.h"

namespace {

using namespace fedms;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The bench cell mirrors examples/churn.json at a budget where one cell
// costs tens of milliseconds: every event type the engine handles, small
// convex workload.
const char* kScenarioText = R"({
  "name": "bench-churn",
  "rounds": 6, "clients": 8, "servers": 5, "byzantine": 1,
  "attack": "signflip", "defense": "trmean:0.2",
  "workload": {"samples": 512, "feature_dimension": 16, "batch_size": 16,
               "eval_sample_cap": 128},
  "events": [
    {"round": 1, "type": "leave",         "client": 3},
    {"round": 3, "type": "join",          "client": 3},
    {"round": 2, "type": "ps_crash",      "server": 4},
    {"round": 4, "type": "ps_recover",    "server": 4},
    {"round": 3, "type": "attack_switch", "attack": "noise"},
    {"round": 4, "type": "alpha_drift",   "alpha": 0.2}
  ]
})";

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--quick") quick = true;

  const scenario::Scenario scen = scenario::Scenario::parse(kScenarioText);
  const std::size_t jobs =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // Grid large enough that every worker gets several cells; each cell is
  // a distinct (defense, seed) pair like fedms_sweep's expansion.
  const std::vector<std::string> defenses = {"trmean:0.2", "mean"};
  const std::size_t seeds = quick ? 2 : std::max<std::size_t>(8, 4 * jobs);

  struct Cell {
    std::string defense;
    std::uint64_t seed = 0;
  };
  std::vector<Cell> cells;
  for (const std::string& defense : defenses)
    for (std::size_t s = 1; s <= seeds; ++s)
      cells.push_back({defense, static_cast<std::uint64_t>(s)});

  // Checksum over trace hashes: keeps the runs observable (nothing to
  // optimize away) and asserts the packed run computed the same cells.
  const auto run_grid = [&](core::ThreadPool* pool) {
    std::vector<std::uint64_t> hashes(cells.size(), 0);
    const auto body = [&](std::size_t i) {
      const scenario::ScenarioOutcome outcome =
          scenario::run_scenario(scen, cells[i].seed, cells[i].defense);
      hashes[i] = outcome.result.trace_hash;
    };
    if (pool == nullptr) {
      for (std::size_t i = 0; i < cells.size(); ++i) body(i);
    } else {
      pool->parallel_for(cells.size(), body);
    }
    std::uint64_t sum = 0;
    for (const std::uint64_t h : hashes) sum ^= h;
    return sum;
  };

  run_grid(nullptr);  // warm-up (page cache, allocator arenas)
  const double t0 = now_seconds();
  const std::uint64_t sequential_sum = run_grid(nullptr);
  const double sequential_seconds = now_seconds() - t0;

  core::ThreadPool pool(jobs == 1 ? 0 : jobs);
  const double t1 = now_seconds();
  const std::uint64_t batched_sum = run_grid(&pool);
  const double batched_seconds = now_seconds() - t1;

  if (sequential_sum != batched_sum) {
    std::fprintf(stderr,
                 "sweep_throughput: packed cells diverged from sequential "
                 "(checksum %llx vs %llx)\n",
                 static_cast<unsigned long long>(batched_sum),
                 static_cast<unsigned long long>(sequential_sum));
    return 1;
  }

  const double speedup = sequential_seconds / batched_seconds;
  const double per_hour = double(cells.size()) / batched_seconds * 3600.0;
  std::printf(
      "{\"sweep_throughput\": {\"cells\": %zu, \"jobs\": %zu, "
      "\"hardware_concurrency\": %u, "
      "\"sequential_seconds\": %.4f, \"batched_seconds\": %.4f, "
      "\"scenarios_per_hour\": %.1f, \"speedup\": %.3f}}\n",
      cells.size(), jobs, std::thread::hardware_concurrency(),
      sequential_seconds, batched_seconds, per_hour, speedup);
  return 0;
}
