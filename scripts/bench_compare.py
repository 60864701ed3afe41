#!/usr/bin/env python3
"""Same-session A/B comparison of perfbench runs.

    python3 scripts/bench_compare.py --parent A1.txt A2.txt ... \
        --change B1.txt B2.txt ...

Each file holds the saved stdout of one or more `perfbench/run.py --trace 0`
runs. Runs are grouped by (workload, seed); for every end-to-end metric of
BENCHMARK.json the comparer prints the parent and change medians with their
spread (IQR / median) and one verdict:

    ok          the change median is within the metric's bound of the
                parent median, read in the direction of its `better` field;
    unresolved  within the bound, but the parent's own spread is wider than
                the bound and not every change run beats every parent run,
                so the runs cannot tell (run more ABAB pairs);
    WORSE       the change median is worse than the parent median by more
                than the bound.

Exit status 1 on any WORSE verdict, on a run that printed
"correct": false, on runs whose `# env` fingerprints differ in anything
other than git_sha and source_sha256, and on a (workload, seed) measured on
one side only; 2 on unreadable input; 0 otherwise.
"""

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from stats import quantile  # noqa: E402

# Fingerprint fields that name the code measured, which is what an A/B
# comparison varies; every other field must match across all runs.
CODE_FIELDS = ("git_sha", "source_sha256")


class InputError(Exception):
    pass


def parse_runs(path):
    """The runs in one saved perfbench stdout, in order. A run is the
    `# env`, `# workload` and `# witness` lines and the closing JSON line."""
    runs = []
    run = {}
    with open(path) as text:
        for number, line in enumerate(text, 1):
            line = line.strip()
            where = f"{path}:{number}"
            if line.startswith("# env "):
                run = {"where": where,
                       "env": json.loads(line[len("# env "):])}
            elif line.startswith("# workload "):
                words = line.split()
                run.update(workload=words[2], seed=int(words[4]),
                           trace=int(words[6]))
            elif line.startswith("# witness "):
                run["witness"] = line.split()[3]
            elif line.startswith("{"):
                if "workload" not in run:
                    raise InputError(f"{where}: result line without the "
                                     "`# env` and `# workload` lines of "
                                     "its run")
                result = json.loads(line)
                run.update(correct=result["correct"],
                           metrics={name: metric["value"] for name, metric
                                    in result["metrics"].items()})
                if run["trace"] != 0:
                    raise InputError(f"{where}: a --trace 1 run; the "
                                     "comparer reads --trace 0 runs")
                runs.append(run)
                run = {}
    if not runs:
        raise InputError(f"{path}: no perfbench run found")
    return runs


def relative_change(parent, change):
    """(change - parent) / |parent|; a nonzero change from zero is
    infinite."""
    if parent == 0:
        return 0.0 if change == 0 else math.copysign(math.inf, change)
    return (change - parent) / abs(parent)


def summary(values):
    """(median, IQR / median) of one side's runs."""
    median = quantile(values, 0.5)
    iqr = quantile(values, 0.75) - quantile(values, 0.25)
    if iqr == 0:
        return median, 0.0
    return median, iqr / abs(median) if median else math.inf


def compare(parent_runs, change_runs, spec):
    """Prints one verdict line per (workload, seed, metric); returns the
    process exit status."""
    failures = []
    reference = parent_runs[0]["env"]
    for run in parent_runs + change_runs:
        differing = sorted(k for k in set(reference) | set(run["env"])
                           if k not in CODE_FIELDS and
                           run["env"].get(k) != reference.get(k))
        if differing:
            failures.append(f"{run['where']}: environment differs from "
                            f"{parent_runs[0]['where']} in "
                            f"{', '.join(differing)}; runs from different "
                            "hosts or builds are not comparable")
        if not run["correct"]:
            failures.append(f"{run['where']}: {run['workload']} seed "
                            f"{run['seed']} printed \"correct\": false")
    if failures:
        for failure in failures:
            print(f"bench_compare: {failure}")
        return 1

    def grouped(runs):
        groups = {}
        for run in runs:
            groups.setdefault((run["workload"], run["seed"]), []).append(run)
        return groups

    parents, changes = grouped(parent_runs), grouped(change_runs)
    for key in sorted(set(parents) ^ set(changes)):
        side = "parent" if key in parents else "change"
        failures.append(f"{key[0]} seed {key[1]} has {side} runs only")

    counts = {"ok": 0, "unresolved": 0, "WORSE": 0}
    for key in sorted(set(parents) & set(changes)):
        workload, seed = key
        witnesses = [sorted({run.get("witness") for run in side[key]})
                     for side in (parents, changes)]
        print(f"{workload} seed {seed}: {len(parents[key])} parent / "
              f"{len(changes[key])} change runs, witness "
              f"{' '.join(witnesses[0])} -> {' '.join(witnesses[1])} "
              f"({'same' if witnesses[0] == witnesses[1] else 'moved'})")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            p_values = [run["metrics"][name] for run in parents[key]]
            c_values = [run["metrics"][name] for run in changes[key]]
            p_median, p_spread = summary(p_values)
            c_median, c_spread = summary(c_values)
            delta = relative_change(p_median, c_median)
            if metric["better"] == "lower":
                worse_by = delta
                separated = max(c_values) < min(p_values)
            else:
                worse_by = -delta
                separated = min(c_values) > max(p_values)
            if worse_by > bound:
                verdict = "WORSE"
                failures.append(f"{workload} seed {seed} {name} is "
                                f"{worse_by:.1%} worse than the parent "
                                f"(bound {bound:.0%})")
            elif p_spread > bound and not separated:
                verdict = "unresolved"
            else:
                verdict = "ok"
            counts[verdict] += 1
            print(f"  {name}: parent {p_median:.6g} (IQR {p_spread:.1%}) "
                  f"change {c_median:.6g} (IQR {c_spread:.1%}) "
                  f"{delta:+.1%} vs bound {bound:.0%} "
                  f"({metric['better']} is better) {verdict}")

    for failure in failures:
        print(f"bench_compare: {failure}")
    print(f"bench_compare: {counts['ok']} ok, {counts['unresolved']} "
          f"unresolved, {counts['WORSE']} worse")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, metavar="FILE",
                        help="saved perfbench stdout of the parent commit")
    parser.add_argument("--change", nargs="+", required=True, metavar="FILE",
                        help="saved perfbench stdout of the change")
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
            spec = json.load(spec_file)
        parent_runs = [r for path in args.parent for r in parse_runs(path)]
        change_runs = [r for path in args.change for r in parse_runs(path)]
    except (OSError, ValueError, KeyError, IndexError, InputError) as error:
        print(f"bench_compare: {error}", file=sys.stderr)
        return 2
    return compare(parent_runs, change_runs, spec)


if __name__ == "__main__":
    sys.exit(main())
