// fedms_node — single Fed-MS roles over a real transport, plus a launcher
// that runs whole multi-process rounds on localhost.
//
// Modes:
//   --mode inmem              all K+P nodes as threads over the in-memory
//                             hub (the reference transport run)
//   --mode launch             fork/exec one process per node over Unix
//                             sockets (--backend unix, default) or
//                             localhost TCP (--backend tcp), then collect
//                             per-node report files
//   --mode client --index k   one client process (used by the launcher)
//   --mode server --index p   one PS process (used by the launcher): an
//                             eventloop::EventLoopServer multiplexing all
//                             K clients
//
// Every process re-derives its node's state from the shared (seed, config)
// pair, so the run needs no coordinator beyond the sockets themselves.
// With --verify the launcher re-runs the identical configuration on the
// in-process simulator and checks that final accuracy and per-client model
// CRCs are bit-for-bit equal and that measured per-direction data bytes
// match the simulated wire_size accounting exactly.
//
//   ./build/tools/fedms_node --mode launch --clients 4 --servers 2
//       --byzantine 1 --rounds 2 --verify

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <cfenv>

#include "byz/attack.h"
#include "core/cli.h"
#include "core/contracts.h"
#include "core/json_min.h"
#include "core/rounding.h"
#include "core/scratch_dir.h"
#include "core/thread_pool.h"
#include "eventloop/server.h"
#include "fl/aggregators.h"
#include "fl/experiment.h"
#include "fl/upload.h"
#include "fl/wire_encoding.h"
#include "obs/obs.h"
#include "obs/trace_merge.h"
#include "transport/frame.h"
#include "transport/node_runner.h"
#include "transport/socket_transport.h"
#include "transport/transport.h"

namespace {

using namespace fedms;

struct NodeCli {
  fl::WorkloadConfig workload;
  fl::FedMsConfig fed;
  std::string mode = "inmem";
  std::string backend = "unix";
  std::string rounding_mode;  // "" = leave the ambient fenv mode alone
  std::size_t filter_threads = 0;
  std::size_t index = 0;
  std::string socket_dir;
  std::string report_dir;
  std::string trace_dir;
  std::int64_t tcp_port_base = 0;
  double timeout_seconds = 120.0;
  double corrupt_rate = 0.0;
  std::uint64_t corrupt_seed = 0;
  bool verify = false;
};

std::vector<transport::SocketAddress> server_addresses(const NodeCli& cli) {
  std::vector<transport::SocketAddress> addresses;
  addresses.reserve(cli.fed.servers);
  for (std::size_t p = 0; p < cli.fed.servers; ++p) {
    if (cli.backend == "unix")
      addresses.push_back(transport::SocketAddress::unix_path(
          cli.socket_dir + "/ps" + std::to_string(p) + ".sock"));
    else
      addresses.push_back(transport::SocketAddress::tcp(
          "127.0.0.1",
          std::uint16_t(cli.tcp_port_base + std::int64_t(p))));
  }
  return addresses;
}

transport::SocketTransportOptions socket_options(const NodeCli& cli,
                                                 const net::NodeId& self) {
  transport::SocketTransportOptions options;
  // Clients announce it in their hellos: broadcasts come back in this
  // encoding. Uploads need no announcement — frames are self-describing.
  options.wire_encoding = cli.fed.wire_encoding;
  options.corrupt_rate = cli.corrupt_rate;
  // Distinct deterministic corruption stream per process.
  options.corrupt_seed =
      cli.corrupt_seed +
      (self.kind == net::NodeKind::kServer ? 1000000 : 0) + self.index;
  return options;
}

std::string report_path(const NodeCli& cli, const net::NodeId& self) {
  const char* role = self.kind == net::NodeKind::kClient ? "client" : "server";
  return cli.report_dir + "/" + role + std::to_string(self.index) +
         ".report";
}

void ensure_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST)
    throw std::runtime_error("cannot create directory " + path);
}

std::string trace_path(const NodeCli& cli, const net::NodeId& self) {
  const char* role = self.kind == net::NodeKind::kClient ? "client" : "server";
  return cli.trace_dir + "/" + role + std::to_string(self.index) +
         ".trace.json";
}

void write_report(const NodeCli& cli, const transport::NodeReport& report) {
  const std::string path = report_path(cli, report.self);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << transport::to_report_text(report);
}

transport::NodeReport read_report(const NodeCli& cli,
                                  const net::NodeId& self) {
  const std::string path = report_path(cli, self);
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing report " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return transport::parse_report_text(text.str());
}

// RAII: installs a sharded-aggregation pool for --filter-threads > 0 and
// uninstalls it before the pool dies.
struct FilterPool {
  explicit FilterPool(std::size_t threads) {
    if (threads > 0) {
      pool = std::make_unique<core::ThreadPool>(threads);
      fl::set_aggregation_pool(pool.get());
    }
  }
  ~FilterPool() {
    if (pool != nullptr) fl::set_aggregation_pool(nullptr);
  }
  std::unique_ptr<core::ThreadPool> pool;
};

int run_client_process(const NodeCli& cli) {
  const net::NodeId self = net::client_id(cli.index);
  if (!cli.trace_dir.empty()) {
    obs::set_process_identity("client", cli.index);
    obs::set_enabled(true);
  }
  const fl::Workload data = fl::make_workload(cli.workload, cli.fed);
  const FilterPool filter_pool(cli.filter_threads);
  auto transport = transport::SocketTransport::connect_mesh(
      self, server_addresses(cli), socket_options(cli, self));
  const transport::NodeReport report = transport::run_client_node(
      *transport, data, cli.workload, cli.fed, cli.index,
      cli.timeout_seconds);
  write_report(cli, report);
  if (!cli.trace_dir.empty()) {
    obs::set_enabled(false);
    obs::save_chrome_trace(trace_path(cli, self));
  }
  return 0;
}

int run_server_process(const NodeCli& cli) {
  const net::NodeId self = net::server_id(cli.index);
  if (!cli.trace_dir.empty()) {
    obs::set_process_identity("server", cli.index);
    obs::set_enabled(true);
  }
  // A PS holds one fd per client (+ listener, stdio, epoll, slack). Fail
  // with an actionable line now rather than mid-accept.
  if (const std::string e = eventloop::ensure_fd_budget(cli.fed.clients + 16);
      !e.empty())
    throw std::runtime_error(e);
  const FilterPool filter_pool(cli.filter_threads);

  const transport::SocketTransportOptions socket = socket_options(cli, self);
  eventloop::EventLoopOptions options;
  options.corrupt_rate = socket.corrupt_rate;
  options.corrupt_seed = socket.corrupt_seed;
  auto transport = eventloop::EventLoopServer::listen(
      self, server_addresses(cli)[cli.index], options);
  const transport::NodeReport report = transport::run_server_node(
      *transport, cli.workload, cli.fed, cli.index, cli.timeout_seconds);
  transport->flush(cli.timeout_seconds);
  write_report(cli, report);
  if (!cli.trace_dir.empty()) {
    obs::set_enabled(false);
    obs::save_chrome_trace(trace_path(cli, self));
  }
  return 0;
}

// Re-runs the configuration on the round-synchronous simulator and checks
// bit-for-bit agreement. Returns true when everything matches.
bool verify_against_sim(const NodeCli& cli,
                        const transport::TransportRunSummary& summary) {
  std::vector<std::uint32_t> sim_crcs;
  fl::Experiment experiment = fl::make_experiment(cli.workload, cli.fed);
  experiment.run->set_round_callback(
      [&](std::uint64_t round, const std::vector<fl::LearnerPtr>& learners) {
        if (round + 1 != cli.fed.rounds) return;
        sim_crcs.clear();
        for (const auto& learner : learners)
          sim_crcs.push_back(transport::crc32c_floats(learner->parameters()));
      });
  const fl::RunResult sim = experiment.run->run();

  bool ok = true;
  const auto check = [&](bool condition, const std::string& what) {
    if (!condition) {
      std::printf("verify: MISMATCH %s\n", what.c_str());
      ok = false;
    }
  };

  const auto totals = summary.data_totals();
  check(totals.uplink_messages == sim.uplink_total.messages &&
            totals.uplink_bytes == sim.uplink_total.bytes,
        "uplink data traffic (measured " +
            std::to_string(totals.uplink_bytes) + " B / " +
            std::to_string(totals.uplink_messages) + " msgs, simulated " +
            std::to_string(sim.uplink_total.bytes) + " B / " +
            std::to_string(sim.uplink_total.messages) + " msgs)");
  check(totals.downlink_messages == sim.downlink_total.messages &&
            totals.downlink_bytes == sim.downlink_total.bytes,
        "downlink data traffic (measured " +
            std::to_string(totals.downlink_bytes) + " B, simulated " +
            std::to_string(sim.downlink_total.bytes) + " B)");

  const double sim_accuracy = *sim.final_eval().eval_accuracy;
  const double run_accuracy = summary.mean_accuracy();
  // Bit-for-bit, not approximate: same floats in the same order.
  check(run_accuracy == sim_accuracy,
        "final accuracy (measured " + std::to_string(run_accuracy) +
            ", simulated " + std::to_string(sim_accuracy) + ")");

  check(sim_crcs.size() == summary.clients.size(), "client count");
  for (std::size_t k = 0;
       k < std::min(sim_crcs.size(), summary.clients.size()); ++k)
    check(summary.clients[k].model_crc == sim_crcs[k],
          "client " + std::to_string(k) + " model CRC");

  std::printf("verify: %s\n", ok ? "OK (bit-for-bit match with simulator)"
                                 : "FAILED");
  return ok;
}

void print_summary(const NodeCli& cli,
                   const transport::TransportRunSummary& summary) {
  const auto totals = summary.data_totals();
  std::printf("# fedms_node — %s\n", cli.fed.to_string().c_str());
  std::printf("final accuracy %.4f  eval loss %.4f\n",
              summary.mean_accuracy(), summary.mean_eval_loss());
  std::printf(
      "data traffic: uplink %llu B (%llu msgs), downlink %llu B (%llu "
      "msgs), corrupt frames %llu\n",
      static_cast<unsigned long long>(totals.uplink_bytes),
      static_cast<unsigned long long>(totals.uplink_messages),
      static_cast<unsigned long long>(totals.downlink_bytes),
      static_cast<unsigned long long>(totals.downlink_messages),
      static_cast<unsigned long long>(summary.corrupt_frames()));
  std::printf("link,role,index,peer_role,peer_index,data_msgs,data_bytes,"
              "control_msgs,control_bytes,corrupt_frames\n");
  // Both directions: corrupt frames are counted where they are rejected,
  // on the receiving side's links.
  const auto print_links = [](const transport::NodeReport& node) {
    const char* role =
        node.self.kind == net::NodeKind::kClient ? "client" : "server";
    for (const auto& [direction, links] :
         {std::pair{"sent", &node.stats.sent},
          std::pair{"received", &node.stats.received}})
      for (const auto& [peer, link] : *links) {
        const char* peer_role =
            peer.kind == net::NodeKind::kClient ? "client" : "server";
        std::printf("%s,%s,%zu,%s,%zu,%llu,%llu,%llu,%llu,%llu\n",
                    direction, role, node.self.index, peer_role, peer.index,
                    static_cast<unsigned long long>(link.messages),
                    static_cast<unsigned long long>(link.bytes),
                    static_cast<unsigned long long>(link.control_messages),
                    static_cast<unsigned long long>(link.control_bytes),
                    static_cast<unsigned long long>(link.corrupt_frames));
      }
  };
  for (const auto& node : summary.clients) print_links(node);
  for (const auto& node : summary.servers) print_links(node);
}

int run_inmem(const NodeCli& cli) {
  if (!cli.trace_dir.empty()) {
    ensure_dir(cli.trace_dir);
    obs::set_process_identity("proc", 0);
    obs::set_enabled(true);
  }
  transport::InMemoryHub hub;
  if (cli.corrupt_rate > 0.0)
    hub.set_corrupt_rate(cli.corrupt_rate, cli.corrupt_seed);
  transport::TransportRunSummary summary;
  {
    // Every node thread's filter shares this pool (parallel_for keeps
    // its state per call). Scoped to the run, so --verify's simulator
    // reference stays on the serial filter.
    const FilterPool filter_pool(cli.filter_threads);
    summary = transport::run_transport_experiment(
        cli.workload, cli.fed, hub, cli.timeout_seconds);
  }
  if (!cli.trace_dir.empty()) {
    // Node threads are joined inside run_transport_experiment, so the
    // registry is quiescent; every node shows up as a labeled thread row.
    obs::set_enabled(false);
    const std::string path = cli.trace_dir + "/inmem.trace.json";
    obs::save_chrome_trace(path);
    std::printf("trace: %s\n", path.c_str());
  }
  print_summary(cli, summary);
  if (cli.verify && !verify_against_sim(cli, summary)) return 1;
  return 0;
}

// Every double goes through core::exact_double, so the child re-parses
// exactly the launcher's value under any fenv mode and the per-node
// participation draws replay the verify simulator's bit for bit.
std::vector<std::string> child_args(const NodeCli& cli, const char* role,
                                    std::size_t index) {
  using core::exact_double;
  std::vector<std::string> args = {
      "/proc/self/exe",
      "--mode", role,
      "--index", std::to_string(index),
      "--backend", cli.backend,
      "--rounding-mode", cli.rounding_mode,
      "--filter-threads", std::to_string(cli.filter_threads),
      "--socket-dir", cli.socket_dir,
      "--report-dir", cli.report_dir,
      "--tcp-port-base", std::to_string(cli.tcp_port_base),
      "--timeout", exact_double(cli.timeout_seconds),
      "--corrupt-rate", exact_double(cli.corrupt_rate),
      "--corrupt-seed", std::to_string(cli.corrupt_seed),
      "--clients", std::to_string(cli.fed.clients),
      "--servers", std::to_string(cli.fed.servers),
      "--byzantine", std::to_string(cli.fed.byzantine),
      "--byzantine-placement", cli.fed.byzantine_placement,
      "--rounds", std::to_string(cli.fed.rounds),
      "--local-iters", std::to_string(cli.fed.local_iterations),
      "--upload", cli.fed.upload,
      "--client-filter", cli.fed.client_filter,
      "--fedgreed-root", std::to_string(cli.fed.fedgreed_root_samples),
      "--server-aggregator", cli.fed.server_aggregator,
      "--attack", cli.fed.attack,
      "--wire-encoding", cli.fed.wire_encoding,
      "--seed", std::to_string(cli.fed.seed),
      "--eval-every", std::to_string(cli.fed.eval_every),
      "--participation", exact_double(cli.fed.participation),
      "--samples", std::to_string(cli.workload.samples),
      "--alpha", exact_double(cli.workload.dirichlet_alpha),
      "--model", cli.workload.model,
      "--lr", exact_double(cli.workload.learning_rate),
      "--batch", std::to_string(cli.workload.batch_size),
  };
  if (!cli.trace_dir.empty()) {
    args.push_back("--trace-dir");
    args.push_back(cli.trace_dir);
  }
  return args;
}

pid_t spawn_child(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& arg : args)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::execv("/proc/self/exe", argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  return pid;
}

int run_launch(NodeCli cli) {
  // One scratch dir holds both sockets and report files, and is removed
  // on every exit path. A user-given --socket-dir is never removed.
  std::optional<core::ScratchDir> scratch;
  if (cli.socket_dir.empty()) {
    scratch.emplace();
    cli.socket_dir = scratch->path();
  }
  if (cli.report_dir.empty()) cli.report_dir = cli.socket_dir;
  if (!cli.trace_dir.empty()) ensure_dir(cli.trace_dir);

  std::vector<pid_t> pids;
  // Servers first (they bind and listen); clients retry connects with
  // backoff, so strict ordering is a courtesy, not a requirement.
  for (std::size_t p = 0; p < cli.fed.servers; ++p)
    pids.push_back(spawn_child(child_args(cli, "server", p)));
  for (std::size_t k = 0; k < cli.fed.clients; ++k)
    pids.push_back(spawn_child(child_args(cli, "client", k)));

  bool failed = false;
  for (const pid_t pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "node process %d failed (status %d)\n", int(pid),
                   status);
      failed = true;
    }
  }
  if (failed) return 1;

  transport::TransportRunSummary summary;
  summary.eval_clients = cli.fed.eval_clients;
  for (std::size_t k = 0; k < cli.fed.clients; ++k)
    summary.clients.push_back(read_report(cli, net::client_id(k)));
  for (std::size_t p = 0; p < cli.fed.servers; ++p)
    summary.servers.push_back(read_report(cli, net::server_id(p)));

  print_summary(cli, summary);

  if (!cli.trace_dir.empty()) {
    // Merge the per-process trace files into one timeline. All nodes ran
    // on this host, so CLOCK_MONOTONIC timestamps already agree.
    std::vector<std::string> inputs;
    for (std::size_t p = 0; p < cli.fed.servers; ++p)
      inputs.push_back(trace_path(cli, net::server_id(p)));
    for (std::size_t k = 0; k < cli.fed.clients; ++k)
      inputs.push_back(trace_path(cli, net::client_id(k)));
    const std::string merged_path = cli.trace_dir + "/merged.trace.json";
    const obs::MergeSummary merged =
        obs::merge_chrome_traces(inputs, merged_path);
    std::printf("trace: merged %zu files, %zu events, %zu stage envelopes, "
                "stage order %s -> %s\n",
                merged.files, merged.events, merged.stages.size(),
                merged.stage_order_consistent ? "consistent" : "INCONSISTENT",
                merged_path.c_str());
    if (!merged.stage_order_consistent) return 1;
  }

  if (cli.verify && !verify_against_sim(cli, summary)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  core::CliFlags flags(
      "fedms_node: Fed-MS over real transports — single node roles and a "
      "multi-process localhost launcher");
  flags.add_string("mode", "inmem", "inmem | launch | client | server");
  flags.add_int("index", 0, "node index (client/server modes)");
  flags.add_string("backend", "unix", "socket backend: unix | tcp");
  flags.add_string("rounding-mode", "",
                   "pin the fenv rounding mode for this process (and every "
                   "forked node): nearest | upward | downward | towardzero "
                   "(default: leave the ambient mode)");
  flags.add_int("filter-threads", 0,
                "shard trimmed-mean/mean aggregation across this many "
                "threads (0 = serial; output is bit-identical either way)");
  flags.add_string("socket-dir", "",
                   "directory for Unix socket files (launch default: a "
                   "fresh /tmp/fedmsXXXXXX)");
  flags.add_string("report-dir", "",
                   "directory for per-node report files (default: "
                   "socket-dir)");
  flags.add_string("trace-dir", "",
                   "write Chrome trace_event JSON here: one "
                   "<role><index>.trace.json per node, plus "
                   "merged.trace.json (launch) or inmem.trace.json (inmem)");
  flags.add_int("tcp-port-base", 47700, "tcp: PS p listens on base+p");
  flags.add_double("timeout", 120.0,
                   "per-stage receive/accept timeout in seconds");
  flags.add_double("corrupt-rate", 0.0,
                   "probability in [0, 1) that a sent data frame (client "
                   "upload or PS broadcast) is corrupted in transit");
  flags.add_int("corrupt-seed", 0, "corruption stream seed");
  flags.add_bool("verify", false,
                 "launch/inmem: re-run on the in-process simulator and "
                 "require bit-for-bit agreement");
  // Experiment knobs (the transport-supported subset of fedms_sim's).
  flags.add_int("clients", 4, "number of end clients K");
  flags.add_int("servers", 2, "number of edge parameter servers P");
  flags.add_int("byzantine", 1, "number of Byzantine PSs B");
  flags.add_string("byzantine-placement", "first", "first | random");
  flags.add_int("rounds", 2, "global training rounds T");
  flags.add_int("local-iters", 3, "local SGD iterations per round E");
  flags.add_string("upload", "sparse", "sparse | full | multi:<m>");
  flags.add_string("client-filter", "trmean:0.2",
                   "client-side defense Def()");
  flags.add_int("fedgreed-root", 64,
                "fedgreed: held-out test samples in the root batch");
  flags.add_string("server-aggregator", "mean", "PS-side aggregation rule");
  flags.add_string("attack", "noise", "Byzantine PS behaviour");
  flags.add_string("wire-encoding", "f32",
                   "negotiated wire encoding: f32 | fp16 | int8 | "
                   "delta+<base> | topk:<frac>");
  flags.add_int("samples", 600, "synthetic dataset size");
  flags.add_double("alpha", 10.0, "Dirichlet D_alpha heterogeneity");
  flags.add_string("model", "mlp", "client model: mlp | logistic | ...");
  flags.add_double("lr", 0.3, "client learning rate");
  flags.add_int("batch", 32, "mini-batch size");
  flags.add_int("seed", 1, "root seed");
  flags.add_int("eval-every", 1, "evaluate every N rounds");
  flags.add_double("participation", 1.0,
                   "fraction of clients active per round (uniform draws "
                   "replayed per node from the shared seed)");
  if (!flags.parse(argc, argv)) return 1;

  NodeCli cli;
  cli.mode = flags.get_string("mode");
  cli.index = std::size_t(flags.get_int("index"));
  cli.backend = flags.get_string("backend");
  cli.rounding_mode = flags.get_string("rounding-mode");
  const std::int64_t filter_threads = flags.get_int("filter-threads");
  cli.socket_dir = flags.get_string("socket-dir");
  cli.report_dir = flags.get_string("report-dir");
  cli.trace_dir = flags.get_string("trace-dir");
  cli.tcp_port_base = flags.get_int("tcp-port-base");
  cli.timeout_seconds = flags.get_double("timeout");
  cli.corrupt_rate = flags.get_double("corrupt-rate");
  cli.corrupt_seed = std::uint64_t(flags.get_int("corrupt-seed"));
  cli.verify = flags.get_bool("verify");

  cli.fed.clients = std::size_t(flags.get_int("clients"));
  cli.fed.servers = std::size_t(flags.get_int("servers"));
  cli.fed.byzantine = std::size_t(flags.get_int("byzantine"));
  cli.fed.byzantine_placement = flags.get_string("byzantine-placement");
  cli.fed.rounds = std::size_t(flags.get_int("rounds"));
  cli.fed.local_iterations = std::size_t(flags.get_int("local-iters"));
  cli.fed.upload = flags.get_string("upload");
  cli.fed.client_filter = flags.get_string("client-filter");
  cli.fed.fedgreed_root_samples =
      std::size_t(flags.get_int("fedgreed-root"));
  cli.fed.server_aggregator = flags.get_string("server-aggregator");
  cli.fed.attack = flags.get_string("attack");
  cli.fed.wire_encoding = flags.get_string("wire-encoding");
  cli.fed.seed = std::uint64_t(flags.get_int("seed"));
  cli.fed.eval_every = std::size_t(flags.get_int("eval-every"));
  cli.fed.participation = flags.get_double("participation");

  cli.workload.samples = std::size_t(flags.get_int("samples"));
  cli.workload.dirichlet_alpha = flags.get_double("alpha");
  cli.workload.model = flags.get_string("model");
  cli.workload.learning_rate = flags.get_double("lr");
  cli.workload.batch_size = std::size_t(flags.get_int("batch"));

  try {
    // Bad flag values are user input: throw (caught below as one-line
    // errors) instead of letting validate()'s contracts abort.
    if (const std::string e = cli.fed.check(); !e.empty())
      throw std::runtime_error(e);
    if (const std::string e = fl::check_workload(cli.workload, cli.fed);
        !e.empty())
      throw std::runtime_error(e);
    if (const std::string e = fl::check_aggregator_spec(cli.fed.client_filter);
        !e.empty())
      throw std::runtime_error("--client-filter: " + e);
    if (const std::string e =
            fl::check_aggregator_spec(cli.fed.server_aggregator);
        !e.empty())
      throw std::runtime_error("--server-aggregator: " + e);
    if (const std::string e = fl::check_upload_spec(cli.fed.upload);
        !e.empty())
      throw std::runtime_error("--upload: " + e);
    if (const std::string e = byz::check_attack_name(cli.fed.attack);
        !e.empty())
      throw std::runtime_error("--attack: " + e);
    if (cli.backend != "unix" && cli.backend != "tcp")
      throw std::runtime_error("--backend must be unix or tcp");
    // Transport numbers, before anything sizes a pool or a port from them.
    if (!(cli.corrupt_rate >= 0.0 && cli.corrupt_rate < 1.0))
      throw std::runtime_error("--corrupt-rate must be in [0, 1), got " +
                               std::to_string(cli.corrupt_rate));
    if (filter_threads < 0)
      throw std::runtime_error("--filter-threads must be >= 0, got " +
                               std::to_string(filter_threads));
    cli.filter_threads = std::size_t(filter_threads);
    if (cli.backend == "tcp" &&
        (cli.fed.servers > 65535 || cli.tcp_port_base < 1 ||
         cli.tcp_port_base > 65536 - std::int64_t(cli.fed.servers)))
      throw std::runtime_error(
          "--tcp-port-base " + std::to_string(cli.tcp_port_base) +
          " must keep the PS ports base..base+P-1 inside 1..65535 (P=" +
          std::to_string(cli.fed.servers) + ")");
    if (const std::string e =
            core::check_rounding_mode_spec(cli.rounding_mode);
        !e.empty())
      throw std::runtime_error("--rounding-mode: " + e);
    if (!cli.rounding_mode.empty()) {
      // Installed before any node thread exists, so every thread (and,
      // via child_args, every forked node process) inherits the mode.
      int fenv_mode = FE_TONEAREST;
      FEDMS_EXPECTS(
          core::parse_rounding_mode(cli.rounding_mode, &fenv_mode));
      std::fesetround(fenv_mode);
    }
    if (cli.verify && cli.corrupt_rate > 0.0)
      throw std::runtime_error(
          "--verify requires --corrupt-rate 0 (corruption changes the "
          "result by design)");
    {
      fl::WireEncodingSpec wire_spec;
      FEDMS_EXPECTS(
          fl::parse_wire_encoding(cli.fed.wire_encoding, &wire_spec)
              .empty());  // fed.check() already validated the spec
      if (wire_spec.stateful() && cli.corrupt_rate > 0.0)
        throw std::runtime_error(
            "--corrupt-rate with stateful --wire-encoding \"" +
            cli.fed.wire_encoding +
            "\" would desynchronize delta/top-k streams (a dropped frame "
            "breaks the reference chain); use f32/fp16/int8");
    }
    if (cli.mode == "client" || cli.mode == "server") {
      const bool client = cli.mode == "client";
      const std::size_t nodes = client ? cli.fed.clients : cli.fed.servers;
      if (cli.index >= nodes)
        throw std::runtime_error(
            "--index " + std::to_string(std::int64_t(cli.index)) +
            " is out of range for " + (client ? "--clients " : "--servers ") +
            std::to_string(nodes) + " (want 0.." +
            std::to_string(nodes - 1) + ")");
      if (cli.backend == "unix" && cli.socket_dir.empty())
        throw std::runtime_error("--socket-dir is required with unix sockets");
      if (cli.report_dir.empty())
        throw std::runtime_error("--report-dir is required for node roles");
    }
    if (cli.mode == "inmem") return run_inmem(cli);
    if (cli.mode == "launch") return run_launch(cli);
    if (cli.mode == "client") return run_client_process(cli);
    if (cli.mode == "server") return run_server_process(cli);
    throw std::runtime_error("--mode must be inmem|launch|client|server");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fedms_node: %s\n", error.what());
    return 1;
  }
}
