// fedms_trace_merge — combine per-node Chrome trace files into one
// timeline.
//
// fedms_node child processes each write <role><index>.trace.json; this
// tool concatenates them onto a shared (rebased) timebase, appends
// per-(round, stage) envelope spans on a synthetic "timeline" row, and
// verifies that every node saw the canonical Fed-MS stage order.
//
//   ./build/tools/fedms_trace_merge --out merged.trace.json
//       /tmp/traces/server0.trace.json /tmp/traces/client*.trace.json
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/trace_merge.h"

int main(int argc, char** argv) {
  std::string out = "merged.trace.json";
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: fedms_trace_merge [--out merged.trace.json] "
          "<trace.json>...\n");
      return 0;
    } else {
      inputs.emplace_back(argv[i]);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr,
                 "fedms_trace_merge: no input trace files (--help for "
                 "usage)\n");
    return 1;
  }
  try {
    const fedms::obs::MergeSummary summary =
        fedms::obs::merge_chrome_traces(inputs, out);
    std::printf("merged %zu files, %zu events -> %s\n", summary.files,
                summary.events, out.c_str());
    std::printf("round,stage,start_us,end_us,nodes\n");
    for (const auto& stage : summary.stages)
      std::printf("%llu,%s,%.3f,%.3f,%zu\n",
                  static_cast<unsigned long long>(stage.round),
                  stage.stage.c_str(), stage.start_us, stage.end_us,
                  stage.nodes);
    std::printf("stage order: %s\n", summary.stage_order_consistent
                                         ? "consistent"
                                         : "INCONSISTENT");
    return summary.stage_order_consistent ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fedms_trace_merge: %s\n", error.what());
    return 1;
  }
}
