// Ablation (extension): lossy wire encodings versus accuracy and traffic,
// on top of the sparse uploading the paper proposes. fp16 halves and int8
// quarters the model bytes in both directions; the question the table
// answers is how much Byzantine-robust accuracy that costs (expected:
// almost none — quantization noise is tiny relative to SGD noise, and the
// trimmed-mean filter is insensitive to per-coordinate jitter).

#include "common.h"

int main(int argc, char** argv) {
  using namespace fedms;
  core::CliFlags flags(
      "ablation_compression: wire encoding vs accuracy and total bytes");
  benchcommon::add_common_flags(flags);
  flags.add_string("attack", "noise", "attack on Byzantine PSs");
  flags.add_double("eps", 0.2, "fraction of Byzantine PSs");
  if (!flags.parse(argc, argv)) return 1;

  fl::FedMsConfig base = benchcommon::fed_from_flags(flags);
  base.rounds = std::min<std::size_t>(base.rounds, 25);
  base.eval_every = base.rounds;
  base.byzantine = static_cast<std::size_t>(
      flags.get_double("eps") * double(base.servers) + 0.5);
  base.attack = flags.get_string("attack");
  base.client_filter = "trmean:0.2";
  fl::WorkloadConfig workload = benchcommon::workload_from_flags(flags);

  // A wire encoding compresses both directions and the stateful variants
  // (delta, top-k) chain per-link reference models — so the interesting
  // axis is TOTAL traffic against final accuracy.
  std::printf("# Wire-encoding accuracy-vs-bytes sweep — %s\n",
              base.to_string().c_str());
  metrics::Table wire_table({"wire-encoding", "final_accuracy",
                             "total KB/round", "relative bytes",
                             "acc delta vs f32"});
  double wire_baseline_bytes = 0.0;
  double wire_baseline_accuracy = 0.0;
  for (const char* encoding :
       {"f32", "fp16", "int8", "topk:0.25", "delta+fp16", "delta+int8"}) {
    fl::FedMsConfig fed = base;
    fed.wire_encoding = encoding;
    const fl::RunResult result = fl::run_experiment(workload, fed);
    const double bytes_per_round =
        double(result.uplink_total.bytes + result.downlink_total.bytes) /
        double(result.rounds.size());
    const double accuracy = *result.final_eval().eval_accuracy;
    if (wire_baseline_bytes == 0.0) {
      wire_baseline_bytes = bytes_per_round;
      wire_baseline_accuracy = accuracy;
    }
    wire_table.add_row(
        {encoding, metrics::Table::fmt(accuracy, 3),
         metrics::Table::fmt(bytes_per_round / 1e3, 1),
         metrics::Table::fmt(bytes_per_round / wire_baseline_bytes, 2) + "x",
         metrics::Table::fmt(accuracy - wire_baseline_accuracy, 3)});
  }
  wire_table.print(std::cout);
  std::printf(
      "\n# Expected shape: accuracy within noise of f32 for every "
      "encoding; int8 and topk:0.25 cut total bytes by >= 3x.\n");
  return 0;
}
