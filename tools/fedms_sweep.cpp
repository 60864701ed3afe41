// Batched multi-seed scenario sweep runner.
//
// Expands a grid of (scenario files × defenses × seeds) into independent
// cells, packs them across core::ThreadPool (each cell's training runs
// through the thread-local workspace-arena path, so concurrent cells
// never share mutable state), and writes one deterministic JSON result
// per cell. Every cell is a pure function of (scenario, defense, seed) —
// the output bytes are identical for any --jobs value, which check.sh
// asserts.
//
//   fedms_sweep --scenario examples/churn.json --seeds 8 --jobs 4
//               --defenses trmean:0.2,mean --out-dir sweep-out
//
// --trace-dir enables obs tracing; the obs registry is process-global,
// so tracing forces serial cell execution and the per-cell traces are
// merged round-keyed into <trace-dir>/merged.trace.json.

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.h"
#include "core/thread_pool.h"
#include "fl/aggregators.h"
#include "obs/obs.h"
#include "obs/trace_merge.h"
#include "scenario/engine.h"
#include "scenario/scenario.h"

namespace {

using namespace fedms;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "fedms_sweep: error: %s\n", message.c_str());
  std::exit(1);
}

void ensure_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST)
    die("cannot create directory " + path);
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : text) {
    if (c == ',') {
      if (!current.empty()) parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

// Defense specs contain ':' (trmean:0.2); keep file names shell-safe.
std::string sanitize(const std::string& text) {
  std::string out = text;
  for (char& c : out)
    if (c == ':' || c == '/' || c == ' ') c = '_';
  return out;
}

struct Cell {
  const scenario::Scenario* scenario = nullptr;
  std::string defense;  // empty = the scenario's own
  std::uint64_t seed = 0;
  std::string path;     // output JSON file
};

}  // namespace

int main(int argc, char** argv) {
  core::CliFlags flags(
      "Batched multi-seed scenario sweep: expands (scenarios x defenses x "
      "seeds) and writes one deterministic JSON result per cell.");
  flags.add_string("scenario", "",
                   "comma-separated scenario JSON files (required)");
  flags.add_int("seeds", 4, "number of seeds (cells use seeds 1..N)");
  flags.add_string("defenses", "",
                   "comma-separated client-filter specs (default: each "
                   "scenario's own defense)");
  flags.add_int("jobs", 1, "concurrent cells (1 = sequential)");
  flags.add_string("out-dir", "sweep-out", "output directory");
  flags.add_string("trace-dir", "",
                   "write obs traces here (forces --jobs 1)");
  if (!flags.parse(argc, argv)) return 1;

  const std::string scenario_list = flags.get_string("scenario");
  if (scenario_list.empty()) die("--scenario is required");
  const std::int64_t seeds = flags.get_int("seeds");
  if (seeds < 1) die("--seeds must be >= 1");
  std::int64_t jobs = flags.get_int("jobs");
  if (jobs < 1) die("--jobs must be >= 1");
  const std::string out_dir = flags.get_string("out-dir");
  const std::string trace_dir = flags.get_string("trace-dir");
  const bool tracing = !trace_dir.empty();
  if (tracing && jobs != 1) {
    // The obs registry is process-global: concurrent cells would
    // interleave their spans. Tracing runs are serial by construction.
    std::fprintf(stderr,
                 "fedms_sweep: tracing is process-global; forcing --jobs 1\n");
    jobs = 1;
  }

  std::vector<scenario::Scenario> scenarios;
  for (const std::string& path : split_list(scenario_list)) {
    try {
      scenarios.push_back(scenario::Scenario::load(path));
    } catch (const std::runtime_error& error) {
      die(error.what());
    }
  }
  const std::vector<std::string> defenses = split_list(
      flags.get_string("defenses"));
  for (const std::string& defense : defenses)
    if (const std::string error = fl::check_aggregator_spec(defense);
        !error.empty())
      die("defense \"" + defense + "\": " + error);

  ensure_dir(out_dir);
  if (tracing) ensure_dir(trace_dir);

  // Grid expansion in fixed (scenario, defense, seed) order; each cell's
  // output file name and bytes are independent of execution order.
  std::vector<Cell> cells;
  for (const scenario::Scenario& scen : scenarios) {
    std::vector<std::string> cell_defenses = defenses;
    if (cell_defenses.empty()) cell_defenses.push_back("");
    for (const std::string& defense : cell_defenses)
      for (std::int64_t s = 1; s <= seeds; ++s) {
        Cell cell;
        cell.scenario = &scen;
        cell.defense = defense;
        cell.seed = static_cast<std::uint64_t>(s);
        const std::string defense_tag =
            sanitize(defense.empty() ? scen.fed.client_filter : defense);
        cell.path = out_dir + "/" + sanitize(scen.name) + "-" +
                    defense_tag + "-s" + std::to_string(s) + ".json";
        cells.push_back(std::move(cell));
      }
  }

  std::vector<std::string> trace_files;
  const auto run_cell = [&](std::size_t i) {
    const Cell& cell = cells[i];
    const scenario::ScenarioOutcome outcome =
        scenario::run_scenario(*cell.scenario, cell.seed, cell.defense);
    std::ofstream out(cell.path);
    if (!out) throw std::runtime_error("cannot write " + cell.path);
    out << outcome.to_json();
  };
  try {
    if (tracing) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        obs::reset();
        obs::set_enabled(true);
        run_cell(i);
        obs::set_enabled(false);
        const std::string trace_path =
            trace_dir + "/cell" + std::to_string(i) + ".trace.json";
        obs::save_chrome_trace(trace_path);
        trace_files.push_back(trace_path);
      }
      const obs::MergeSummary summary = obs::merge_chrome_traces(
          trace_files, trace_dir + "/merged.trace.json");
      if (!summary.stage_order_consistent)
        die("merged traces violate the canonical stage order");
      std::printf("merged %zu traces (%zu events) into %s\n",
                  summary.files, summary.events,
                  (trace_dir + "/merged.trace.json").c_str());
    } else {
      // jobs == 1 degrades ThreadPool to inline execution — the
      // reference ordering the bit-equality contract is stated against.
      core::ThreadPool pool(jobs == 1 ? 0
                                      : static_cast<std::size_t>(jobs));
      pool.parallel_for(cells.size(), run_cell);
    }
  } catch (const std::runtime_error& error) {
    die(error.what());
  }

  std::printf("wrote %zu results to %s (%zu scenario%s x %zu defense%s x "
              "%lld seeds)\n",
              cells.size(), out_dir.c_str(), scenarios.size(),
              scenarios.size() == 1 ? "" : "s",
              defenses.empty() ? std::size_t{1} : defenses.size(),
              defenses.size() == 1 ? "" : "s",
              static_cast<long long>(seeds));
  return 0;
}
