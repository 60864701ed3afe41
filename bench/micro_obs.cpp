// micro_obs — per-record cost of the obs layer, in the states that matter:
//
//   * span_disabled_ns    — obs::Span open+close while tracing is off (the
//                           tax every instrumented stage pays in normal
//                           runs; the <2% training-regression budget rides
//                           on this number);
//   * span_enabled_ns     — the same span while recording (two clock reads
//                           plus a thread-local vector push);
//   * sampled_span_ns     — SampledSpan at period 64 while recording (the
//                           GEMM hot-path guard: ~1/64 spans, else one
//                           tick increment);
//   * counter_disabled_ns / counter_enabled_ns — Counter::add.
//
// Plain executable printing one JSON object to stdout; scripts/check.sh
// fails when span_disabled_ns exceeds 10 ns. `--quick` shrinks the timing
// budget.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/obs.h"

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Best-of-reps nanoseconds per iteration of `fn` run `iters` times.
template <typename Fn>
double time_best_ns(const Fn& fn, std::size_t iters, double budget) {
  fn();  // warm-up (registers the thread buffer / instrument)
  double best = 1e30;
  double spent = 0.0;
  int reps = 0;
  while (spent < budget || reps < 3) {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double dt = now_seconds() - t0;
    best = std::min(best, dt);
    spent += dt;
    ++reps;
  }
  return best / double(iters) * 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  double budget = 0.2;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--quick") budget = 0.02;
  const std::size_t iters = 4096;

  using fedms::obs::Counter;
  using fedms::obs::SampledSpan;
  using fedms::obs::Span;

  fedms::obs::set_enabled(false);
  const double span_disabled = time_best_ns(
      [] { Span span("bench", "disabled"); }, iters, budget);

  static Counter counter("bench_counter");
  const double counter_disabled =
      time_best_ns([] { counter.add(); }, iters, budget);

  fedms::obs::set_enabled(true);
  const double span_enabled = time_best_ns(
      [] { Span span("bench", "enabled", 7); }, iters, budget);
  fedms::obs::reset();  // drop the recorded spans before the next timing

  const double sampled_span = time_best_ns(
      [] {
        static thread_local std::uint32_t tick = 0;
        SampledSpan span("bench", "sampled", tick, 64);
      },
      iters, budget);
  fedms::obs::reset();

  const double counter_enabled =
      time_best_ns([] { counter.add(); }, iters, budget);
  fedms::obs::set_enabled(false);

  std::printf("{\n  \"obs\": {\n");
  std::printf("    \"span_disabled_ns\": %.2f,\n", span_disabled);
  std::printf("    \"span_enabled_ns\": %.2f,\n", span_enabled);
  std::printf("    \"sampled_span_enabled_ns\": %.2f,\n", sampled_span);
  std::printf("    \"counter_disabled_ns\": %.2f,\n", counter_disabled);
  std::printf("    \"counter_enabled_ns\": %.2f\n", counter_enabled);
  std::printf("  }\n}\n");
  return 0;
}
