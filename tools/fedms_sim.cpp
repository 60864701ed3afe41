// fedms_sim — the full-surface command-line simulator.
//
// Exposes every knob of the Fed-MS stack (topology, attacks on both sides,
// defenses on both sides, upload strategy, wire encoding, participation,
// data heterogeneity, model choice, and --runtime async with its fault
// plan for message loss and crashes) and prints one CSV row
// per evaluated round, plus a run summary. With --repeats N it re-runs the
// experiment under derived seeds and reports mean ± stddev of the final
// accuracy — the entry point for scripting custom sweeps.
//
//   ./build/tools/fedms_sim --attack random --client-filter trmean:0.2
//       --rounds 40 --alpha 10 --csv out.csv

#include <cstdio>
#include <iostream>

#include <cfenv>

#include "byz/attack.h"
#include "core/cli.h"
#include "core/rounding.h"
#include "fl/aggregators.h"
#include "fl/experiment.h"
#include "fl/upload.h"
#include "fl/wire_encoding.h"
#include "metrics/json.h"
#include "obs/obs.h"
#include "metrics/recorder.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "runtime/async_fedms.h"
#include "runtime/telemetry.h"

int main(int argc, char** argv) {
  using namespace fedms;
  core::CliFlags flags(
      "fedms_sim: Byzantine fault-tolerant federated edge learning "
      "simulator (Fed-MS, ICDCS 2024)");

  // Topology (paper Table II defaults).
  flags.add_int("clients", 50, "number of end clients K");
  flags.add_int("servers", 10, "number of edge parameter servers P");
  flags.add_int("byzantine", 2, "number of Byzantine PSs B (B <= P/2)");
  flags.add_string("byzantine-placement", "first",
                   "which PSs are Byzantine: first | random");
  // Protocol.
  flags.add_int("rounds", 40, "global training rounds T");
  flags.add_int("local-iters", 3, "local SGD iterations per round E");
  flags.add_string("upload", "sparse",
                   "upload strategy: sparse | full | multi:<m>");
  flags.add_string("client-filter", "trmean:0.2",
                   "client-side defense Def(): mean | trmean:<b> | median | "
                   "krum:<f> | multikrum:<f>:<m> | bulyan:<f> | geomedian | "
                   "adaptive[:<init>] | fedgreed:<k>");
  flags.add_int("fedgreed-root", 64,
                "fedgreed: held-out test samples in the root batch");
  flags.add_string("server-aggregator", "mean",
                   "PS-side aggregation rule (same specs as client-filter)");
  flags.add_string("attack", "noise",
                   "Byzantine PS behaviour: benign | noise | random | "
                   "safeguard | backward | zero | signflip | inconsistent | "
                   "collusion | nan | crash | alie | edgeoftrim");
  // Byzantine clients extension.
  flags.add_int("byzantine-clients", 0, "number of Byzantine clients");
  flags.add_string("client-attack", "benign",
                   "Byzantine client forgery: benign | signflip | scaling | "
                   "noise | zero | random");
  // Communication extensions.
  flags.add_string("wire-encoding", "f32",
                   "negotiated wire encoding: f32 | fp16 | int8 | "
                   "delta+<base> | topk:<frac>");
  flags.add_double("participation", 1.0,
                   "fraction of clients active per round");
  // Differential privacy.
  flags.add_double("dp-clip", 0.0,
                   "L2 clip norm for round updates (0 = DP off)");
  flags.add_double("dp-noise", 0.0, "Gaussian-mechanism noise multiplier");
  // Workload.
  flags.add_int("samples", 3000, "synthetic dataset size");
  flags.add_double("alpha", 10.0, "Dirichlet D_alpha heterogeneity");
  flags.add_string("model", "mlp", "client model: mlp | logistic | mobilenet");
  flags.add_double("lr", 0.3, "client learning rate");
  flags.add_string("lr-schedule", "",
                   "overrides --lr: constant:<lr> | invdecay:<phi>:<gamma> "
                   "| step:<base>:<factor>:<every>");
  flags.add_int("batch", 32, "mini-batch size");
  // Event-driven runtime + fault injection.
  flags.add_string("runtime", "sync",
                   "execution engine: sync (lock-step loop) | async "
                   "(event-driven virtual clock with fault injection)");
  flags.add_string("fault-plan", "",
                   "async-only fault spec: crash=<ps>@<round>,...;"
                   "drop=<p>;dup=<p>;omit=<p>;delay=<p>:<sec>[:<jitter>];"
                   "straggler=<client>:<factor>,...;sstraggler=<ps>:<factor>");
  flags.add_double("compute-time", 0.05,
                   "async: simulated local-training seconds per round");
  flags.add_double("upload-window", 0.25,
                   "async: PS aggregation deadline from round start (s)");
  flags.add_double("timeout", 0.25,
                   "async: client filter deadline past the PS deadline (s)");
  flags.add_int("retries", 2,
                "async: re-requests to missing PSs before falling back");
  flags.add_double("backoff", 0.1,
                   "async: initial retry backoff seconds (doubles each try)");
  // Harness.
  flags.add_int("seed", 1, "root seed");
  flags.add_int("eval-every", 2, "evaluate every N rounds");
  flags.add_int("repeats", 1, "independent repetitions (seed + 1000*i)");
  flags.add_int("workers", 0,
                "worker threads for client training (0 = inline; results "
                "are identical either way)");
  flags.add_string("rounding-mode", "",
                   "pin the fenv rounding mode for the whole run: nearest | "
                   "upward | downward | towardzero (default: leave the "
                   "ambient mode)");
  flags.add_string("csv", "", "also write per-round series to this file");
  flags.add_string("json", "",
                   "write the first repeat's full telemetry as JSON");
  flags.add_string("trace-out", "",
                   "write the first repeat's stage timeline as Chrome "
                   "trace_event JSON (load in chrome://tracing)");
  if (!flags.parse(argc, argv)) return 1;

  fl::WorkloadConfig workload;
  workload.samples = std::size_t(flags.get_int("samples"));
  workload.dirichlet_alpha = flags.get_double("alpha");
  workload.model = flags.get_string("model");
  workload.learning_rate = flags.get_double("lr");
  workload.lr_schedule = flags.get_string("lr-schedule");
  workload.batch_size = std::size_t(flags.get_int("batch"));

  fl::FedMsConfig fed;
  fed.clients = std::size_t(flags.get_int("clients"));
  fed.servers = std::size_t(flags.get_int("servers"));
  fed.byzantine = std::size_t(flags.get_int("byzantine"));
  fed.byzantine_placement = flags.get_string("byzantine-placement");
  fed.rounds = std::size_t(flags.get_int("rounds"));
  fed.local_iterations = std::size_t(flags.get_int("local-iters"));
  fed.upload = flags.get_string("upload");
  fed.client_filter = flags.get_string("client-filter");
  fed.fedgreed_root_samples = std::size_t(flags.get_int("fedgreed-root"));
  fed.server_aggregator = flags.get_string("server-aggregator");
  fed.attack = flags.get_string("attack");
  fed.byzantine_clients = std::size_t(flags.get_int("byzantine-clients"));
  fed.client_attack = flags.get_string("client-attack");
  fed.wire_encoding = flags.get_string("wire-encoding");
  fed.participation = flags.get_double("participation");
  fed.dp_clip_norm = flags.get_double("dp-clip");
  fed.dp_noise_multiplier = flags.get_double("dp-noise");
  fed.worker_threads = std::size_t(flags.get_int("workers"));
  fed.seed = std::uint64_t(flags.get_int("seed"));
  fed.eval_every = std::size_t(flags.get_int("eval-every"));

  // CLI validation: a bad flag value is user input, not an internal bug —
  // report one actionable line and exit 1 instead of contract-aborting.
  const auto cli_error = [](const std::string& message) {
    std::fprintf(stderr, "fedms_sim: error: %s\n", message.c_str());
    return 1;
  };
  if (const std::string e = fed.check(); !e.empty()) return cli_error(e);
  if (const std::string e = fl::check_workload(workload, fed); !e.empty())
    return cli_error(e);
  if (const std::string e = fl::check_aggregator_spec(fed.client_filter);
      !e.empty())
    return cli_error("--client-filter: " + e);
  if (const std::string e = fl::check_aggregator_spec(fed.server_aggregator);
      !e.empty())
    return cli_error("--server-aggregator: " + e);
  if (const std::string e = fl::check_upload_spec(fed.upload); !e.empty())
    return cli_error("--upload: " + e);
  if (const std::string e = byz::check_attack_name(fed.attack); !e.empty())
    return cli_error("--attack: " + e);
  if (const std::string e =
          core::check_rounding_mode_spec(flags.get_string("rounding-mode"));
      !e.empty())
    return cli_error("--rounding-mode: " + e);
  if (!flags.get_string("rounding-mode").empty()) {
    // Installed before the worker pool exists, so every training thread
    // inherits the mode ([cfenv]: threads capture the creator's fenv).
    int fenv_mode = FE_TONEAREST;
    core::parse_rounding_mode(flags.get_string("rounding-mode"), &fenv_mode);
    std::fesetround(fenv_mode);
  }

  const std::string runtime_kind = flags.get_string("runtime");
  if (runtime_kind != "sync" && runtime_kind != "async") {
    std::fprintf(stderr, "--runtime must be sync or async (got \"%s\")\n",
                 runtime_kind.c_str());
    return 1;
  }
  const bool async = runtime_kind == "async";
  if (async) {
    // The one extension the event-driven engine does not model: reject it
    // here instead of letting the engine's precondition abort.
    fl::WireEncodingSpec wire_spec;
    fl::parse_wire_encoding(fed.wire_encoding, &wire_spec);
    if (wire_spec.stateful())
      return cli_error("--wire-encoding \"" + fed.wire_encoding +
                       "\" requires --runtime sync (the event-driven "
                       "engine has no per-link wire streams; use f32, fp16 "
                       "or int8)");
  }
  runtime::RuntimeOptions runtime_options;
  runtime_options.compute_seconds = flags.get_double("compute-time");
  runtime_options.upload_window_seconds = flags.get_double("upload-window");
  runtime_options.broadcast_timeout_seconds = flags.get_double("timeout");
  runtime_options.max_retries = std::size_t(flags.get_int("retries"));
  runtime_options.retry_backoff_seconds = flags.get_double("backoff");
  {
    std::string plan_error;
    if (!runtime::FaultPlan::try_parse(flags.get_string("fault-plan"),
                                       &runtime_options.faults, &plan_error))
      return cli_error("--fault-plan: " + plan_error);
  }
  runtime_options.validate();
  if (!async && !runtime_options.faults.empty()) {
    std::fprintf(stderr, "--fault-plan requires --runtime async\n");
    return 1;
  }

  const std::size_t repeats =
      std::max<std::size_t>(1, std::size_t(flags.get_int("repeats")));

  std::printf("# fedms_sim — %s\n", fed.to_string().c_str());
  if (async && !runtime_options.faults.empty())
    std::printf("# fault plan: %s\n",
                runtime_options.faults.to_string().c_str());
  metrics::Recorder recorder;
  std::vector<double> final_accuracies;
  const std::string trace_path = flags.get_string("trace-out");
  if (!trace_path.empty()) {
    obs::set_process_identity("sim", 0);
    obs::set_enabled(true);  // disabled again after the first repeat
  }
  bool header = true;
  for (std::size_t r = 0; r < repeats; ++r) {
    fl::FedMsConfig run_fed = fed;
    run_fed.seed = fed.seed + 1000 * r;
    runtime::AsyncRunResult async_result;
    fl::RunResult result;
    if (async) {
      async_result =
          runtime::run_async_experiment(workload, run_fed, runtime_options);
      result = async_result.as_run_result();
    } else {
      result = fl::run_experiment(workload, run_fed);
    }
    const metrics::Series series = metrics::series_from_run(
        "sim", "run" + std::to_string(r), run_fed.attack, result);
    for (const auto& p : series.points) {
      if (header) {
        std::printf("figure,series,attack,round,accuracy,loss,train_loss\n");
        header = false;
      }
      std::printf("sim,run%zu,%s,%llu,%.4f,%.4f,%.4f\n", r,
                  run_fed.attack.c_str(),
                  static_cast<unsigned long long>(p.round), p.accuracy,
                  p.loss, p.train_loss);
    }
    recorder.add(series);
    final_accuracies.push_back(*result.final_eval().eval_accuracy);

    if (r == 0) {
      if (!trace_path.empty()) {
        obs::set_enabled(false);
        obs::save_chrome_trace(trace_path);
        std::printf("# trace written to %s\n", trace_path.c_str());
      }
      const std::string json_path = flags.get_string("json");
      if (!json_path.empty()) {
        if (async)
          runtime::save_async_run_json(json_path, run_fed, runtime_options,
                                       async_result);
        else
          metrics::save_run_json(json_path, run_fed, result);
        std::printf("# telemetry written to %s\n", json_path.c_str());
      }
      const double mb_up = double(result.uplink_total.bytes) / 1e6;
      const double mb_down = double(result.downlink_total.bytes) / 1e6;
      std::printf(
          "# traffic: uplink %.2f MB (%llu msgs), downlink %.2f MB "
          "(%llu msgs), simulated comm time %.2f s\n",
          mb_up,
          static_cast<unsigned long long>(result.uplink_total.messages),
          mb_down,
          static_cast<unsigned long long>(result.downlink_total.messages),
          result.simulated_comm_seconds);
      if (async) {
        std::uint64_t dropped = 0, late = 0, retries = 0, fallbacks = 0;
        for (const auto& round : async_result.rounds) {
          dropped += round.messages_dropped;
          late += round.messages_late;
          retries += round.retry_requests;
          fallbacks += round.fallbacks;
        }
        std::printf(
            "# faults: %llu dropped, %llu late, %llu retries, %llu "
            "fallbacks, virtual time %.2f s, trace hash %016llx\n",
            static_cast<unsigned long long>(dropped),
            static_cast<unsigned long long>(late),
            static_cast<unsigned long long>(retries),
            static_cast<unsigned long long>(fallbacks),
            async_result.virtual_seconds,
            static_cast<unsigned long long>(async_result.trace_hash));
      }
    }
  }

  const metrics::Summary summary = metrics::summarize(final_accuracies);
  std::printf("# final accuracy: mean %.4f  stddev %.4f  min %.4f  max "
              "%.4f  (n=%zu)\n",
              summary.mean, summary.stddev, summary.min, summary.max,
              summary.count);

  const std::string csv_path = flags.get_string("csv");
  if (!csv_path.empty()) {
    recorder.write_csv_file(csv_path);
    std::printf("# series written to %s\n", csv_path.c_str());
  }
  return 0;
}
