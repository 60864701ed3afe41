#!/usr/bin/env python3
"""Contract test for scripts/bench_compare.py on synthetic perfbench output.

Writes small files in perfbench's stdout format (the `# env`, `# workload`
and `# witness` lines plus the closing JSON line) and checks the comparer's
exit status and verdict lines. Run by ctest as:

    bench_compare_test.py <scripts/bench_compare.py>
"""
import json
import os
import subprocess
import sys
import tempfile

COMPARE = sys.argv[1]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(COMPARE)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    END_TO_END = json.load(spec_file)["end_to_end"]

ENV = {"nproc": 4, "cpu": "Test CPU @ 2.10GHz",
       "compiler": "/usr/bin/c++ 12.2", "flags": "-O3 -DNDEBUG",
       "build_type": "Release", "git_sha": "a" * 40,
       "source_sha256": "0123456789abcdef"}
BASE = {"round_s_p50": 0.10, "round_s_tail": 0.12,
        "client_updates_per_s": 80.0, "wire_mb_per_s": 150.0,
        "final_accuracy": 0.80, "setup_s": 0.5, "peak_rss_mb": 100.0,
        "ok_ops_ratio": 1.0}

failures = []
scratch_dir = tempfile.TemporaryDirectory(prefix="bench_compare_test.")
scratch = scratch_dir.name
written = 0


def run_file(workload="train-mobilenet", scale=None, env=None, correct=True,
             seed=1):
    """Saved stdout of one synthetic perfbench run; `scale` multiplies
    named metrics of BASE."""
    global written
    values = dict(BASE)
    for name, factor in (scale or {}).items():
        values[name] *= factor
    units = {metric["name"]: metric["unit"] for metric in END_TO_END}
    lines = [f"# env {json.dumps(dict(ENV, **(env or {})), sort_keys=True)}",
             f"# workload {workload} seed {seed} trace 0 {{}}",
             "# witness crc32c 12c7c362 (same seed and commit must repeat "
             "it exactly)"]
    lines += [f"{name} {value:.6g} {units[name]}"
              for name, value in values.items()]
    lines.append(json.dumps({
        "correct": correct, "attempted": 100, "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    written += 1
    path = os.path.join(scratch, f"run{written}.txt")
    with open(path, "w") as out:
        out.write("\n".join(lines) + "\n")
    return path


def compare(label, parents, changes, want_status, needles=()):
    proc = subprocess.run(
        [sys.executable, COMPARE, "--parent"] + parents + ["--change"] +
        changes, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=60)
    if proc.returncode != want_status:
        failures.append(f"{label}: expected exit {want_status}, got "
                        f"{proc.returncode}:\n{proc.stdout}")
        return
    for needle in needles:
        if needle not in proc.stdout:
            failures.append(f"{label}: expected {needle!r} in:\n"
                            f"{proc.stdout}")


def three(**kwargs):
    return [run_file(**kwargs) for _ in range(3)]


compare("identical sets", three(), three(), 0,
        ["round_s_p50: parent 0.1 (IQR 0.0%) change 0.1", " ok",
         "0 worse"])

compare("lower-is-better timing 30% worse", three(),
        three(scale={"round_s_p50": 1.3}), 1,
        ["train-mobilenet seed 1 round_s_p50 is 30.0% worse", "WORSE"])

compare("higher-is-better metric drops past its bound",
        three(workload="serve-f32"),
        three(workload="serve-f32", scale={"wire_mb_per_s": 0.7}), 1,
        ["serve-f32 seed 1 wire_mb_per_s is 30.0% worse"])

compare("higher-is-better metric rises", three(),
        three(scale={"client_updates_per_s": 1.5}), 0, ["0 worse"])

for field, value in (("nproc", 8), ("cpu", "Other CPU"),
                     ("flags", "-O2 -DNDEBUG")):
    compare(f"differing {field}", three(), three(env={field: value}), 1,
            ["environment differs", field])

compare("differing git_sha and source_sha256 only", three(),
        three(env={"git_sha": "b" * 40, "source_sha256": "fedcba9876543210"}),
        0, ["0 worse"])

compare("a run that printed correct false", three(),
        three()[:2] + [run_file(correct=False)], 1,
        ['printed "correct": false'])

compare("parent spread wider than the bound",
        [run_file(scale={"setup_s": f}) for f in (0.6, 1.0, 1.4)],
        three(), 0, ["setup_s:", "unresolved"])

compare("parent spread wider than the bound, every change run better",
        [run_file(scale={"setup_s": f}) for f in (0.6, 1.0, 1.4)],
        three(scale={"setup_s": 0.5}), 0, ["setup_s:", "0 unresolved"])

compare("a workload measured on one side only", three(),
        three() + [run_file(workload="serve-int8")], 1,
        ["serve-int8 seed 1 has change runs only"])

with open(os.path.join(scratch, "empty.txt"), "w"):
    pass
compare("a file without runs", three(), [os.path.join(scratch, "empty.txt")],
        2, ["no perfbench run found"])

if failures:
    print("\n\n".join(failures))
    sys.exit(1)
print("bench_compare_test: all cases passed")
