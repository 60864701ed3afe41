#!/usr/bin/env bash
# Full verification gate: a fresh RelWithDebInfo build + the entire ctest
# suite, then a Release build (the -O3 flags perfbench builds with) with
# warnings as errors, then an ASan/UBSan build (-DFEDMS_SANITIZE=ON)
# exercising the event-driven runtime tests (the subsystem with the most
# pointer-juggling callbacks) plus the GEMM/workspace and depthwise/layer
# kernel tests (raw-pointer pack buffers, arena scratch and row-pointer
# border arithmetic), then a TSan build exercising the obs layer, the
# ThreadPool conv path (the two places worker threads write shared state)
# and the socket tests (a writer thread against a receiver, one thread per
# node over real sockets),
# then the benchmark stage: a short perfbench run of every workload (each
# exits nonzero on a failed correctness check), perfbench's statistics
# tests, the soak under three wire encodings, an accuracy-per-encoding
# check and the disabled-span cost gate. Run from anywhere inside the repo.
#
#   scripts/check.sh            # full gate
#   scripts/check.sh --fast     # reuse build dirs instead of wiping them
#   scripts/check.sh coverage   # gcov line-coverage over src/fl + src/runtime
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$repo/build-check"
release_build="$repo/build-release"
asan_build="$repo/build-asan"
tsan_build="$repo/build-tsan"
jobs="$(nproc 2>/dev/null || echo 4)"

if [[ "${1:-}" == "coverage" ]]; then
  # Coverage mode: instrumented build, the fast unit suite, the engine
  # integration tests and a fuzz batch as the exercising workload, then a
  # gcov line-coverage summary for the algorithm layers (src/fl +
  # src/runtime). The floor below is documented in EXPERIMENTS.md
  # ("Coverage gate") — raise it as coverage grows, never lower it to pass.
  cov_build="$repo/build-coverage"
  cov_floor="${FEDMS_COVERAGE_FLOOR:-86}"
  echo "== configure + build (coverage instrumentation) =="
  cmake -B "$cov_build" -S "$repo" -DCMAKE_BUILD_TYPE=Debug \
    -DFEDMS_COVERAGE=ON
  cmake --build "$cov_build" -j "$jobs"
  echo "== unit suite + engine tests + fuzz batch (coverage workload) =="
  # Serial ctest: concurrent .gcda merging is safe but serial keeps the
  # counts reproducible run to run.
  ctest --test-dir "$cov_build" -L unit --output-on-failure
  # The round engines' integration tests (async runtime, transport, the
  # engine capability matrix, Byzantine clients) drive the engine code
  # paths the unit slice leaves out.
  for t in runtime_async_test transport_inmem_test engine_capability_test \
           fl_byz_clients_integration_test; do
    "$cov_build/tests/$t"
  done
  cov_tmp="$(mktemp -d)"
  trap 'rm -rf "$cov_tmp"' EXIT
  "$cov_build/tools/fedms_fuzz" --corpus "$repo/tests/fuzz/corpus.txt" \
    --seeds 50 --repro-dir "$cov_tmp"
  echo "== gcov line coverage (src/fl + src/runtime) =="
  python3 - "$cov_build" "$repo" "$cov_floor" <<'PY'
import pathlib, re, subprocess, sys

build = pathlib.Path(sys.argv[1]).resolve()
repo = pathlib.Path(sys.argv[2]).resolve()
floor = float(sys.argv[3])

gcdas = sorted(build.glob("src/fl/**/*.gcda")) + \
        sorted(build.glob("src/runtime/**/*.gcda"))
assert gcdas, "no .gcda files found - did the instrumented tests run?"

per_file = {}  # repo-relative source -> (covered_lines, total_lines)
for gcda in gcdas:
    out = subprocess.run(["gcov", "-n", str(gcda)], cwd=str(build),
                         capture_output=True, text=True).stdout
    for m in re.finditer(
            r"File '([^']+)'\nLines executed:([\d.]+)% of (\d+)", out):
        path, pct, total = m.group(1), float(m.group(2)), int(m.group(3))
        source = pathlib.Path(path)
        if not source.is_absolute():
            source = (build / source).resolve()
        try:
            rel = source.resolve().relative_to(repo)
        except ValueError:
            continue  # system / third-party header
        key = str(rel)
        if not (key.startswith("src/fl") or key.startswith("src/runtime")):
            continue
        covered = pct / 100.0 * total
        # A header shows up once per including object; keep the best view.
        prev = per_file.get(key)
        if prev is None or covered > prev[0]:
            per_file[key] = (covered, total)

assert per_file, "gcov reported no src/fl or src/runtime files"
for name, (covered, total) in sorted(per_file.items()):
    print(f"  {name}: {100.0 * covered / total:5.1f}% of {total}")
covered = sum(c for c, _ in per_file.values())
total = sum(t for _, t in per_file.values())
pct = 100.0 * covered / total
print(f"TOTAL src/fl + src/runtime line coverage: {pct:.1f}% "
      f"({covered:.0f}/{total} lines)")
assert pct >= floor, (
    f"coverage {pct:.1f}% fell below the documented floor {floor:.0f}% "
    "(see EXPERIMENTS.md 'Coverage gate')")
print(f"coverage gate OK (floor {floor:.0f}%)")
PY
  echo "== coverage gate passed =="
  exit 0
fi

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

if [[ $fast -eq 0 ]]; then
  rm -rf "$build" "$release_build" "$asan_build" "$tsan_build"
fi

echo "== configure + build (RelWithDebInfo) =="
cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFEDMS_WERROR=ON
cmake --build "$build" -j "$jobs"

echo "== ctest -L unit (fast pre-stage) =="
# Fail-fast slice: the hermetic unit tests run first so a broken kernel or
# filter surfaces in seconds, before the integration/fuzz machinery spins.
ctest --test-dir "$build" -L unit --output-on-failure -j "$jobs"

echo "== ctest (full suite) =="
ctest --test-dir "$build" --output-on-failure

echo "== fuzz harness (committed corpus + 200 fresh schedules) =="
# Every corpus seed and a fresh batch must pass all differential +
# invariant oracles; a failure writes a shrunk repro JSON for replay.
work_dir="$(mktemp -d)"
trap 'rm -rf "$work_dir"' EXIT
"$build/tools/fedms_fuzz" --corpus "$repo/tests/fuzz/corpus.txt" \
  --seeds 200 --repro-dir "$work_dir"
"$build/tools/fedms_fuzz" --self-test --repro-dir "$work_dir"

echo "== multi-process smoke over localhost TCP =="
# The event-loop PS's TCP accept path (TCP_NODELAY on every accepted
# socket). Its own port base, clear of the 47700 default.
"$build/tools/fedms_node" --mode launch --backend tcp --tcp-port-base 48311 \
  --clients 4 --servers 2 --byzantine 1 --rounds 2 --samples 400 --verify

echo "== wire-encoding smoke (--verify per encoding) =="
# Every negotiated encoding must stay bit-for-bit against the simulator:
# lossless f32 trivially, the lossy ones because the sender advances its
# reference by decoding its own bytes (ARCHITECTURE.md "Wire encodings").
for enc in f32 fp16 int8 topk:0.25 delta+f32 delta+fp16 delta+int8; do
  "$build/tools/fedms_node" --mode inmem --clients 4 --servers 2 \
    --byzantine 1 --rounds 2 --samples 400 --wire-encoding "$enc" \
    --verify > /dev/null
done
# One lossy encoding across real process boundaries (frames on the wire).
"$build/tools/fedms_node" --mode launch --backend unix \
  --clients 4 --servers 2 --byzantine 1 --rounds 2 --samples 400 \
  --wire-encoding topk:0.25 --verify

echo "== trace smoke (sim + multi-process + grid, Chrome trace JSON) =="
# Every traced tool must emit loadable Chrome traces: the simulator via
# --trace-out, the launcher and the grid runner via --trace-dir (per-node
# or per-cell files merged into merged.trace.json with consistent stage
# order — both tools exit nonzero otherwise).
trace_dir="$work_dir/trace"
mkdir "$trace_dir"
"$build/tools/fedms_sim" --clients 4 --servers 2 --byzantine 1 --rounds 2 \
  --samples 400 --eval-every 1000 --trace-out "$trace_dir/sim.trace.json" \
  > /dev/null
"$build/tools/fedms_node" --mode launch --backend unix \
  --clients 2 --servers 2 --byzantine 1 --rounds 2 --samples 200 \
  --trace-dir "$trace_dir/nodes" > /dev/null
"$build/tools/fedms_matrix" --scenario "$repo/examples/churn.json" \
  --defenses trmean:0.2 --attacks signflip --seeds 1 \
  --out-dir "$trace_dir/grid-out" --trace-dir "$trace_dir/grid" > /dev/null
python3 - "$trace_dir/sim.trace.json" "$trace_dir/nodes/merged.trace.json" \
  "$trace_dir/grid/merged.trace.json" <<'PY'
import json, sys
for path in sys.argv[1:]:
    trace = json.load(open(path))
    events = trace["traceEvents"]
    stages = {e["name"] for e in events if e.get("ph") == "X"}
    missing = {"local_training", "upload", "aggregation", "dissemination",
               "filter"} - stages
    assert not missing, f"{path}: missing stage spans {missing}"
print("trace smoke OK (sim + merged node and grid traces parse, "
      "all stages present)")
PY

echo "== determinism gate (fenv rounding-mode sweep) =="
# The determinism contract (ARCHITECTURE.md "Determinism contract"): the
# unit suite and the multi-process --verify smoke must hold under every
# fenv rounding mode — FEDMS_ROUNDING_MODE pins the whole process pre-main,
# --rounding-mode pins it per tool and is forwarded to forked node
# processes. Only numeric RESULTS may differ between modes; every
# differential oracle (streaming vs nth_element vs reference filter,
# sharded vs serial, sim vs processes) must agree bit-for-bit WITHIN one.
for mode in nearest upward downward towardzero; do
  if ! FEDMS_ROUNDING_MODE="$mode" ctest --test-dir "$build" -L unit \
      --output-on-failure -j "$jobs" > "$work_dir/ctest-$mode.log" 2>&1; then
    cat "$work_dir/ctest-$mode.log"
    echo "determinism gate FAILED: unit suite broke under mode $mode"
    exit 1
  fi
  "$build/tools/fedms_node" --mode inmem --rounding-mode "$mode" \
    --clients 4 --servers 2 --byzantine 1 --rounds 2 --samples 400 \
    --verify > /dev/null
  echo "determinism OK under $mode (unit suite + inmem --verify)"
done
# Sharded filter across thread counts under a directed mode: the
# multi-process run with 1/2/4 filter threads must stay bit-for-bit
# against the serial simulator even when every reduction rounds toward
# zero.
for threads in 1 2 4; do
  "$build/tools/fedms_node" --mode launch --backend unix \
    --clients 8 --servers 4 --byzantine 1 --rounds 2 --samples 400 \
    --filter-threads "$threads" --rounding-mode towardzero --verify \
    > /dev/null
done
echo "determinism OK (launch --filter-threads 1/2/4 under towardzero)"
# Grid bit-equality under a non-default mode, with a one-line
# first-divergent-CRC diff on mismatch (diff -r would dump whole files).
for j in 1 "$jobs"; do
  FEDMS_ROUNDING_MODE=upward "$build/tools/fedms_matrix" \
    --scenario "$repo/examples/churn.json" --defenses trmean:0.2,mean \
    --attacks signflip --seeds 4 --jobs "$j" \
    --out-dir "$work_dir/mode-jobs$j" > /dev/null
done
python3 - "$work_dir/mode-jobs1" "$work_dir/mode-jobs$jobs" <<'PY'
import pathlib, sys, zlib
a, b = (pathlib.Path(p) for p in sys.argv[1:3])
files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
assert files_a == files_b, \
    f"file sets differ: {sorted(set(files_a) ^ set(files_b))}"
for rel in files_a:
    ca = zlib.crc32((a / rel).read_bytes())
    cb = zlib.crc32((b / rel).read_bytes())
    if ca != cb:
        sys.exit(f"first divergent cell: {rel} "
                 f"(crc {ca:08x} vs {cb:08x})")
print(f"grid bit-equality OK under upward ({len(files_a)} files)")
PY

echo "== configure + build (Release, warnings as errors) =="
# -O3 runs passes (and warnings, such as GCC 12's -Wrestrict) that the
# RelWithDebInfo build above never reaches; perfbench builds with these
# flags.
cmake -B "$release_build" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
  -DFEDMS_WERROR=ON
cmake --build "$release_build" -j "$jobs"

echo "== configure + build (ASan + UBSan) =="
cmake -B "$asan_build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFEDMS_SANITIZE=ON
cmake --build "$asan_build" -j "$jobs" \
  --target runtime_event_queue_test runtime_fault_test runtime_async_test \
           transport_frame_test transport_inmem_test transport_socket_test \
           eventloop_test eventloop_churn_test fl_wire_encoding_test \
           tensor_gemm_test tensor_workspace_test tensor_conv_test \
           nn_layers_test nn_gradcheck_test \
           fl_aggregator_properties_test fl_determinism_test \
           fl_sharded_filter_test fl_server_test engine_capability_test \
           fedms_node fedms_matrix

echo "== runtime + transport + kernel tests under ASan/UBSan =="
# Death tests fork; ASan is fine with that but needs the default allocator
# not to complain about the intentional aborts. The aggregator property
# suite covers the whole defense zoo (adaptive estimation, fedgreed
# selection, sharded pools) with every allocation checked; the determinism
# and sharded-filter suites bounds-check the trimmed-mean lane kernel's
# padded final lane group at every dimension they sweep. The server and
# engine-capability suites drive fl::ParameterServer's accept / aggregate
# / broadcast (payloads moved in from uploads and out into broadcasts)
# through the sync, async and transport engines. The conv, layer and
# gradcheck suites bounds-check the depthwise kernels' row pointers at
# every border, stride and kernel size they sweep.
for t in runtime_event_queue_test runtime_fault_test runtime_async_test \
         transport_frame_test transport_inmem_test transport_socket_test \
         eventloop_test eventloop_churn_test fl_wire_encoding_test \
         tensor_gemm_test tensor_workspace_test tensor_conv_test \
         nn_layers_test nn_gradcheck_test \
         fl_aggregator_properties_test fl_determinism_test \
         fl_sharded_filter_test fl_server_test engine_capability_test; do
  "$asan_build/tests/$t"
done

echo "== multi-process smoke under ASan/UBSan =="
"$asan_build/tools/fedms_node" --mode launch --backend unix \
  --clients 2 --servers 2 --byzantine 1 --rounds 1 --samples 200 --verify
# The compressed wire path's encode/decode (quantization buffers, index
# bitmaps, reference chains) under every allocation check.
"$asan_build/tools/fedms_node" --mode launch --backend unix \
  --clients 2 --servers 2 --byzantine 1 --rounds 2 --samples 200 \
  --wire-encoding delta+int8 --verify

echo "== grid runner under ASan/UBSan =="
# The adaptive-B estimator and the fedgreed root-batch scorer end to end
# (per-round estimation, held-out evaluation, cell packing), then churn +
# handoff + thread-pool cell packing, with every allocation checked.
"$asan_build/tools/fedms_matrix" --defenses adaptive,fedgreed:5 \
  --attacks signflip,nan --seeds 1 --jobs "$jobs" \
  --out-dir "$work_dir/matrix-asan" > /dev/null
"$asan_build/tools/fedms_matrix" --scenario "$repo/examples/churn.json" \
  --defenses trmean:0.2,mean --attacks signflip --seeds 2 --jobs "$jobs" \
  --out-dir "$work_dir/churn-asan" > /dev/null

echo "== configure + build (TSan) =="
cmake -B "$tsan_build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFEDMS_SANITIZE_THREAD=ON
cmake --build "$tsan_build" -j "$jobs" \
  --target obs_test core_thread_pool_test tensor_conv_test \
           tensor_workspace_test fl_sharded_filter_test \
           transport_socket_test eventloop_test

echo "== obs layer + ThreadPool + socket paths under TSan =="
# obs_test's concurrent-recording case hammers the registry from pool
# workers; the conv/workspace tests drive the ThreadPool im2col path that
# the training spans wrap; the sharded-filter test drives the event-loop
# runtime's coordinate-sharded trimmed mean from pool workers. The socket
# tests run a writer thread against a receiver over a socketpair, and a
# whole Fed-MS run with one thread per node over real sockets.
for t in obs_test core_thread_pool_test tensor_conv_test \
         tensor_workspace_test fl_sharded_filter_test \
         transport_socket_test eventloop_test; do
  "$tsan_build/tests/$t"
done

echo "== benchmark harness (short perfbench runs) =="
# perfbench/run.py builds the program in Release under .bench_build/ and
# exits nonzero on any failed correctness check: a broadcast that is not
# the bitwise mean, a non-finite model, accuracy below the floor, or a
# determinism witness that differs between repetitions of one run. The
# metrics of these short runs are not compared with anything; performance
# is judged by same-session A/B runs (EXPERIMENTS.md "Bench workflow").
for workload in train-mobilenet table2-faults serve-f32 serve-int8; do
  python3 "$repo/perfbench/run.py" --workload "$workload" --seed 1 \
    --seconds 1 --trace 0 > "$work_dir/perfbench-$workload.txt"
  grep '^# witness' "$work_dir/perfbench-$workload.txt"
done
python3 "$repo/perfbench/test_stats.py"

echo "== soak per wire encoding (64 clients, f32 / int8 / topk:0.25) =="
# soak exits 1 on its own when the healthy swarm loses a client to
# slow-consumer eviction. The lossy encodings must cut the data bytes per
# round at least 2x against f32 (the quick payloads are small enough that
# frame headers weigh in).
for enc in f32 int8 topk:0.25; do
  "$build/bench/soak" --quick --wire-encoding "$enc" \
    > "$work_dir/soak-$enc.json"
done
python3 - "$work_dir" <<'PY'
import json, pathlib, sys
runs = {enc: json.loads((pathlib.Path(sys.argv[1]) /
                         f"soak-{enc}.json").read_text())["soak"]
        for enc in ("f32", "int8", "topk:0.25")}
for enc, run in runs.items():
    assert run["wire_encoding"] == enc, (enc, run["wire_encoding"])
    assert run["rounds_per_second"] > 0, enc
for enc in ("int8", "topk:0.25"):
    reduction = (runs["f32"]["data_bytes_per_round"] /
                 runs[enc]["data_bytes_per_round"])
    assert reduction >= 2.0, (
        f"{enc} soak byte reduction {reduction:.2f}x fell below 2x vs f32")
    print(f"soak {enc}: {reduction:.2f}x fewer data bytes per round than f32")
PY

echo "== final accuracy per wire encoding (sync sim, 8 clients x 4 PSs) =="
# trmean:0.25 trims the one Byzantine PS of four (the default trmean:0.2
# trims nothing at P=4, and the noise PS then drives every encoding to the
# same model). f32 must learn; the quantizing encodings must end within
# 0.01 of it, topk:0.25 (a quarter of the coordinates per round; its cost
# is measured in EXPERIMENTS.md "accuracy vs bytes") within 0.10.
for enc in f32 fp16 int8 delta+int8 topk:0.25; do
  printf '%s ' "$enc"
  "$build/tools/fedms_sim" --clients 8 --servers 4 --byzantine 1 \
    --client-filter trmean:0.25 --rounds 16 --samples 1600 \
    --eval-every 16 --wire-encoding "$enc" | grep '# final accuracy:'
done > "$work_dir/wire-accuracy.txt"
python3 - "$work_dir/wire-accuracy.txt" <<'PY'
import sys
accuracy = {line.split()[0]: float(line.split("mean")[1].split()[0])
            for line in open(sys.argv[1])}
assert accuracy["f32"] >= 0.6, f"f32 did not learn: {accuracy['f32']}"
for enc, value in accuracy.items():
    delta = value - accuracy["f32"]
    budget = 0.10 if enc.startswith("topk") else 0.01
    assert abs(delta) <= budget, (
        f"{enc} final accuracy {value:.4f} is {delta:+.4f} from f32 "
        f"(budget {budget})")
print("accuracy per encoding OK: " + ", ".join(
    f"{enc} {value:.4f}" for enc, value in accuracy.items()))
PY

echo "== obs disabled-span cost gate =="
# A disabled obs::Span is the tax every instrumented stage pays in normal
# runs (~2 ns); fail at 5x that.
"$build/bench/micro_obs" --quick > "$work_dir/obs.json"
python3 - "$work_dir/obs.json" <<'PY'
import json, sys
cost = json.load(open(sys.argv[1]))["obs"]["span_disabled_ns"]
assert cost <= 10.0, f"disabled span costs {cost:.2f} ns (gate: 10 ns)"
print(f"disabled span {cost:.2f} ns (gate: 10 ns)")
PY

echo "== all checks passed =="
