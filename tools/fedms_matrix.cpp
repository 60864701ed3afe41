// The grid runner: every (defense x attack x seed) cell over one base
// scenario.
//
// Packs the cells across core::ThreadPool (each cell's training runs
// through the thread-local workspace-arena path, so concurrent cells
// never share mutable state), writes one deterministic JSON result per
// cell, and aggregates the final accuracies into a single
// accuracy-surface artifact. Every cell is a pure function of
// (scenario, defense, attack, seed) — the per-cell files AND the surface
// bytes are identical for any --jobs value, which
// tests/matrix_equality_test.py asserts against a committed golden.
//
//   fedms_matrix --seeds 2 --jobs 4 --out-dir matrix-out
//   fedms_matrix --scenario examples/churn.json --defenses trmean:0.2,mean
//                --attacks signflip --seeds 4 --jobs 4
//   fedms_matrix --defenses mean,adaptive --attacks signflip,nan
//
// Defaults: the defense axis is fl::default_defense_zoo(P, B) for the
// scenario's topology, the attack axis is byz::list_attack_names(), and
// the base scenario is a built-in 2-round micro workload sized so the
// full zoo-x-zoo matrix stays CI-friendly. Naming the scenario's own
// attack as the only attack runs the scenario as written (its
// attack_switch events still apply).
//
// --trace-dir enables obs tracing; the obs registry is process-global,
// so tracing forces serial cell execution and the per-cell traces are
// merged round-keyed into <trace-dir>/merged.trace.json. The summary
// line reports the grid's wall time and cells per hour on stdout only;
// no output file depends on timing.

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "byz/attack.h"
#include "core/cli.h"
#include "core/rounding.h"
#include "core/thread_pool.h"
#include "fl/aggregators.h"
#include "obs/obs.h"
#include "obs/trace_merge.h"
#include "scenario/engine.h"
#include "scenario/scenario.h"
#include "core/json_min.h"

namespace {

using namespace fedms;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "fedms_matrix: error: %s\n", message.c_str());
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

// The built-in base scenario: small enough that the full
// (defense zoo x attack zoo x seeds) product runs in CI, large enough
// that defenses separate (P = 7 with B = 1 keeps every zoo member
// admissible, including bulyan's P >= 4B + 3).
scenario::Scenario micro_scenario() {
  scenario::Scenario scen;
  scen.name = "matrix-micro";
  scen.fed.clients = 4;
  scen.fed.servers = 7;
  scen.fed.byzantine = 1;
  scen.fed.rounds = 2;
  scen.fed.local_iterations = 2;
  // Full upload: every PS aggregates every client, so each cell's filter
  // sees all P candidates and the defense axis is exercised at full width.
  scen.fed.upload = "full";
  scen.fed.eval_every = 1;
  scen.workload.samples = 160;
  scen.workload.feature_dimension = 16;
  scen.workload.model = "logistic";
  scen.workload.batch_size = 16;
  scen.workload.eval_sample_cap = 0;  // evaluate the whole (tiny) test set
  return scen;
}

struct Cell {
  std::size_t defense_index = 0;
  std::size_t attack_index = 0;  // also indexes the per-attack variants
  std::uint64_t seed = 0;
  std::string path;  // per-cell output JSON file
};

struct CellResult {
  double accuracy = 0.0;
  std::uint64_t trace_hash = 0;
};

}  // namespace

int main(int argc, char** argv) {
  core::CliFlags flags(
      "Full (defense x attack x seed) evaluation matrix: one deterministic "
      "JSON result per cell plus an aggregated accuracy-surface artifact.");
  flags.add_string("scenario", "",
                   "base scenario JSON file (default: built-in micro "
                   "scenario)");
  flags.add_string("defenses", "",
                   "comma-separated client-filter specs (default: "
                   "default_defense_zoo(P, B) for the scenario topology)");
  flags.add_string("attacks", "",
                   "comma-separated attack names (default: every attack "
                   "in byz::list_attack_names())");
  flags.add_int("seeds", 2, "number of seeds (cells use seeds 1..N)");
  flags.add_int("jobs", 1, "concurrent cells (1 = sequential)");
  flags.add_string("out-dir", "matrix-out", "output directory");
  flags.add_string("surface", "",
                   "accuracy-surface output path (default: "
                   "<out-dir>/surface.json)");
  flags.add_string("trace-dir", "",
                   "write one obs trace per cell here, merged into "
                   "merged.trace.json (forces --jobs 1)");
  if (!flags.parse(argc, argv)) return 1;

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
    std::fprintf(stderr, "fedms_matrix: tracing is process-global; "
                         "forcing --jobs 1\n");
    jobs = 1;
  }

  scenario::Scenario base;
  const std::string scenario_path = flags.get_string("scenario");
  if (scenario_path.empty()) {
    base = micro_scenario();
  } else {
    try {
      base = scenario::Scenario::load(scenario_path);
    } catch (const std::runtime_error& error) {
      die(error.what());
    }
  }

  std::vector<std::string> defenses = split_list(flags.get_string("defenses"));
  if (defenses.empty())
    defenses = fl::default_defense_zoo(base.fed.servers, base.fed.byzantine);
  for (const std::string& defense : defenses)
    if (const std::string error = fl::check_aggregator_spec(defense);
        !error.empty())
      die("defense \"" + defense + "\": " + error);

  std::vector<std::string> attacks = split_list(flags.get_string("attacks"));
  if (attacks.empty()) attacks = byz::list_attack_names();
  for (const std::string& attack : attacks)
    if (const std::string error = byz::check_attack_name(attack);
        !error.empty())
      die("attack \"" + attack + "\": " + error);

  ensure_dir(out_dir);
  if (tracing) ensure_dir(trace_dir);
  const std::string surface_path = flags.get_string("surface").empty()
                                       ? out_dir + "/surface.json"
                                       : flags.get_string("surface");

  // One scenario variant per attack: run_scenario's defense override
  // handles the defense axis, the attack axis is baked into the variant.
  std::vector<scenario::Scenario> variants;
  variants.reserve(attacks.size());
  for (const std::string& attack : attacks) {
    scenario::Scenario variant = base;
    variant.fed.attack = attack;
    if (const std::string error = variant.check(); !error.empty())
      die("scenario with attack \"" + attack + "\": " + error);
    variants.push_back(std::move(variant));
  }

  // Grid expansion in fixed (defense, attack, seed) order; the surface
  // and every cell file are independent of execution order.
  std::vector<Cell> cells;
  for (std::size_t d = 0; d < defenses.size(); ++d)
    for (std::size_t a = 0; a < attacks.size(); ++a)
      for (std::int64_t s = 1; s <= seeds; ++s) {
        Cell cell;
        cell.defense_index = d;
        cell.attack_index = a;
        cell.seed = static_cast<std::uint64_t>(s);
        cell.path = out_dir + "/" + sanitize(defenses[d]) + "-" +
                    sanitize(attacks[a]) + "-s" + std::to_string(s) + ".json";
        cells.push_back(std::move(cell));
      }

  std::vector<CellResult> results(cells.size());
  std::vector<std::string> trace_files;
  const auto run_cell = [&](std::size_t i) {
    const Cell& cell = cells[i];
    if (tracing) {
      obs::reset();
      obs::set_enabled(true);
    }
    const scenario::ScenarioOutcome outcome = scenario::run_scenario(
        variants[cell.attack_index], cell.seed, defenses[cell.defense_index]);
    const runtime::AsyncRoundRecord& last = outcome.result.final_eval();
    results[i].accuracy = *last.base.eval_accuracy;
    results[i].trace_hash = outcome.result.trace_hash;
    std::ofstream out(cell.path);
    if (!out) throw std::runtime_error("cannot write " + cell.path);
    out << outcome.to_json();
    if (tracing) {
      obs::set_enabled(false);
      trace_files.push_back(trace_dir + "/cell" + std::to_string(i) +
                            ".trace.json");
      obs::save_chrome_trace(trace_files.back());
    }
  };
  const auto start = std::chrono::steady_clock::now();
  try {
    // jobs == 1 degrades ThreadPool to inline execution — the reference
    // ordering the bit-equality contract is stated against.
    core::ThreadPool pool(jobs == 1 ? 0 : static_cast<std::size_t>(jobs));
    pool.parallel_for(cells.size(), run_cell);
  } catch (const std::runtime_error& error) {
    die(error.what());
  }
  const double wall_seconds = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start).count();
  if (tracing) {
    const std::string merged = trace_dir + "/merged.trace.json";
    obs::MergeSummary summary;
    try {
      summary = obs::merge_chrome_traces(trace_files, merged);
    } catch (const std::runtime_error& error) {
      die(error.what());
    }
    if (!summary.stage_order_consistent)
      die("merged traces violate the canonical stage order");
    std::printf("merged %zu traces (%zu events) into %s\n", summary.files,
                summary.events, merged.c_str());
  }

  // Assemble the accuracy surface in the fixed cell order. All FP
  // arithmetic and formatting that feeds the artifact runs under a pinned
  // FE_TONEAREST so the bytes are independent of the ambient rounding
  // mode (the mode-proof text contract; cell accuracies themselves are
  // whatever the runs produced).
  const core::ScopedRoundingMode nearest(FE_TONEAREST);
  std::ostringstream os;
  const auto fmt = [](double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.6f", value);
    return std::string(buffer);
  };
  os << "{\n  \"scenario\": \"" << core::json_escape(base.name)
     << "\",\n  \"seeds\": " << seeds << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof hash_hex, "0x%llx",
                  static_cast<unsigned long long>(results[i].trace_hash));
    os << "    {\"defense\": \""
       << core::json_escape(defenses[cells[i].defense_index])
       << "\", \"attack\": \""
       << core::json_escape(attacks[cells[i].attack_index])
       << "\", \"seed\": " << cells[i].seed << ", \"accuracy\": "
       << fmt(results[i].accuracy) << ", \"trace_hash\": \"" << hash_hex
       << "\"}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"surface\": [\n";
  for (std::size_t d = 0; d < defenses.size(); ++d)
    for (std::size_t a = 0; a < attacks.size(); ++a) {
      const std::size_t first = (d * attacks.size() + a) *
                                static_cast<std::size_t>(seeds);
      double sum = 0.0;
      double lo = results[first].accuracy;
      double hi = results[first].accuracy;
      for (std::int64_t s = 0; s < seeds; ++s) {
        const double accuracy = results[first + std::size_t(s)].accuracy;
        sum += accuracy;
        lo = std::fmin(lo, accuracy);
        hi = std::fmax(hi, accuracy);
      }
      os << "    {\"defense\": \"" << core::json_escape(defenses[d])
         << "\", \"attack\": \"" << core::json_escape(attacks[a])
         << "\", \"mean\": " << fmt(sum / double(seeds)) << ", \"min\": "
         << fmt(lo) << ", \"max\": " << fmt(hi) << "}"
         << (d + 1 < defenses.size() || a + 1 < attacks.size() ? "," : "")
         << "\n";
    }
  os << "  ]\n}\n";
  std::ofstream surface(surface_path);
  if (!surface) die("cannot write " + surface_path);
  surface << os.str();

  std::printf("wrote %zu cells to %s and the accuracy surface to %s "
              "(%zu defense%s x %zu attack%s x %lld seed%s) in %.3f s wall, "
              "%.0f cells/h\n",
              cells.size(), out_dir.c_str(), surface_path.c_str(),
              defenses.size(), defenses.size() == 1 ? "" : "s",
              attacks.size(), attacks.size() == 1 ? "" : "s",
              static_cast<long long>(seeds), seeds == 1 ? "" : "s",
              wall_seconds, double(cells.size()) / wall_seconds * 3600.0);
  return 0;
}
