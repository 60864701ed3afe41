#!/usr/bin/env python3
"""Bit-equality contract of fedms_matrix across --jobs values.

Every grid cell is a pure function of (scenario, defense, attack, seed);
packing cells across the thread pool must not change a single output byte
of the per-cell files or the aggregated accuracy surface.  Two grids:

  * a seeded 2x2x2 micro-matrix at --jobs 1/2/4, whose surface must also
    reproduce the committed golden exactly;
  * the churn scenario (membership and PS events, the scenario's own
    attack) over trmean:0.2,mean x 2 seeds at --jobs 1 and 4.

Run by ctest as:

    matrix_equality_test.py <fedms_matrix> <golden-surface.json> <churn.json>
"""
import os
import subprocess
import sys
import tempfile

MICRO = ["--defenses", "mean,adaptive", "--attacks", "signflip,nan",
         "--seeds", "2"]


def churn_grid(scenario):
    return ["--scenario", scenario, "--defenses", "trmean:0.2,mean",
            "--attacks", "signflip", "--seeds", "2"]


def run_matrix(binary, grid, out_dir, jobs):
    """Runs one grid at one --jobs value; returns {file name: bytes}."""
    proc = subprocess.run(
        [binary] + grid + ["--jobs", str(jobs), "--out-dir", out_dir],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)
    if proc.returncode != 0:
        print("FAIL: fedms_matrix %s --jobs %d exited %d\nstderr: %s"
              % (" ".join(grid), jobs, proc.returncode,
                 proc.stderr.decode("utf-8", "replace")))
        sys.exit(1)
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            files[name] = f.read()
    return files


def check_jobs_invariant(binary, grid, tmp, tag, jobs_values):
    """Returns the --jobs 1 tree, or None after printing the first
    difference from it."""
    trees = {jobs: run_matrix(binary, grid,
                              os.path.join(tmp, "%s-jobs%d" % (tag, jobs)),
                              jobs)
             for jobs in jobs_values}
    reference = trees[jobs_values[0]]
    if "surface.json" not in reference or len(reference) < 2:
        print("FAIL: %s grid wrote no cells or no surface.json: %r"
              % (tag, sorted(reference)))
        return None
    for jobs in jobs_values[1:]:
        if sorted(trees[jobs]) != sorted(reference):
            print("FAIL: %s file sets differ between --jobs %d and --jobs "
                  "%d: %r vs %r" % (tag, jobs_values[0], jobs,
                                    sorted(reference), sorted(trees[jobs])))
            return None
        for name, blob in reference.items():
            if trees[jobs][name] != blob:
                print("FAIL: %s %s differs between --jobs %d and --jobs %d"
                      % (tag, name, jobs_values[0], jobs))
                return None
    return reference


def main():
    if len(sys.argv) != 4:
        print("usage: matrix_equality_test.py <fedms_matrix> "
              "<golden-surface.json> <churn.json>")
        return 2
    binary, golden_path, churn = sys.argv[1:4]

    with tempfile.TemporaryDirectory() as tmp:
        micro = check_jobs_invariant(binary, MICRO, tmp, "micro", (1, 2, 4))
        if micro is None:
            return 1
        with open(golden_path, "rb") as f:
            golden = f.read()
        if micro["surface.json"] != golden:
            print("FAIL: seeded micro-matrix surface diverges from the "
                  "committed golden %s" % golden_path)
            print("--- golden ---")
            print(golden.decode("utf-8", "replace"))
            print("--- produced ---")
            print(micro["surface.json"].decode("utf-8", "replace"))
            return 1

        churn_tree = check_jobs_invariant(binary, churn_grid(churn), tmp,
                                          "churn", (1, 4))
        if churn_tree is None:
            return 1

        print("ok: %d micro-matrix files byte-identical across --jobs "
              "1/2/4 and matching the committed golden surface; %d churn "
              "grid files byte-identical across --jobs 1/4"
              % (len(micro), len(churn_tree)))
        return 0


if __name__ == "__main__":
    sys.exit(main())
