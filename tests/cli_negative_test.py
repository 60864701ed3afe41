#!/usr/bin/env python3
"""Negative-path CLI contract test for the fedms tools.

Every malformed invocation must exit with code 1 (a clean error path, not
a signal/abort) and print a one-line actionable message on stderr that
names the offending flag or constraint.  Run by ctest as:

    cli_negative_test.py <fedms_sim> <fedms_node> [fedms_matrix]
"""
import os
import subprocess
import sys
import tempfile

failures = []


def expect_error(binary, args, needles, one_line=False):
    """Run binary with args; require exit code 1 and all needles in stderr
    (and, with one_line, a single-line stderr)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=60)
    err = proc.stderr.decode("utf-8", "replace")
    out = proc.stdout.decode("utf-8", "replace")
    label = "%s %s" % (binary.rsplit("/", 1)[-1], " ".join(args))
    if proc.returncode != 1:
        failures.append("%s: expected exit code 1, got %d (stderr: %r)"
                        % (label, proc.returncode, err.strip()))
        return
    if one_line and err.strip().count("\n") != 0:
        failures.append("%s: expected a one-line error, got %r"
                        % (label, err.strip()))
    combined = err + out
    for needle in needles:
        if needle not in combined:
            failures.append("%s: expected %r in output, got %r"
                            % (label, needle, combined.strip()))


def scenario_error(matrix, text, needles):
    """Write a scenario tempfile and require a one-line error from it."""
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as f:
        f.write(text)
        path = f.name
    try:
        expect_error(matrix, ["--scenario", path],
                     ["fedms_matrix: error:"] + needles, one_line=True)
    finally:
        os.unlink(path)


def check_matrix(matrix):
    # Flag misuse: unknown flags, out-of-range grid parameters.
    expect_error(matrix, ["--no-such-flag"],
                 ["unknown flag", "--no-such-flag"])
    expect_error(matrix, ["--seeds", "0"], ["--seeds must be >= 1"])
    expect_error(matrix, ["--jobs", "0"], ["--jobs must be >= 1"])
    expect_error(matrix, ["--scenario", "/no/such/matrix.json"],
                 ["/no/such/matrix.json"])

    # Malformed scenario files: the json layer and the strict schema must
    # both surface as single-line fedms_matrix errors.
    scenario_error(matrix, '{"rounds": 3, "rounds": 4}',
                   ['duplicate object key "rounds"'])
    scenario_error(matrix, '{"name": "x', ["unterminated string"])
    scenario_error(matrix, '{"naem": "typo"}', ['unknown key "naem"'])
    scenario_error(matrix, '{"events": [{"type": "leave", "round": 1}]}',
                   ['"leave" event needs a "client" index'])

    # Malformed axes: every spec/name is validated before any cell runs.
    expect_error(matrix, ["--defenses", "trmean:0.7"], ["trmean beta"])
    expect_error(matrix, ["--defenses", "quantum"],
                 ['defense "quantum"', "unknown aggregator"])
    expect_error(matrix, ["--defenses", "mean,fedgreed:0"],
                 ['defense "fedgreed:0"', "fedgreed needs an integer"])
    expect_error(matrix, ["--attacks", "no-such-attack"],
                 ['attack "no-such-attack"'])

    # A trace directory that cannot be created (its parent is a regular
    # file) fails before any cell runs.
    with tempfile.TemporaryDirectory() as scratch:
        blocker = os.path.join(scratch, "file")
        open(blocker, "w").close()
        expect_error(matrix, ["--out-dir", os.path.join(scratch, "out"),
                              "--trace-dir", os.path.join(blocker, "x")],
                     ["cannot create directory"], one_line=True)


def main():
    if len(sys.argv) not in (3, 4):
        print("usage: cli_negative_test.py <fedms_sim> <fedms_node> "
              "[fedms_matrix]")
        return 2
    sim, node = sys.argv[1], sys.argv[2]
    if len(sys.argv) == 4:
        check_matrix(sys.argv[3])

    # Unknown flag: the flag parser itself must reject it.
    expect_error(sim, ["--no-such-flag"], ["unknown flag", "--no-such-flag"])
    expect_error(node, ["--no-such-flag"], ["unknown flag", "--no-such-flag"])

    # Out-of-range topology: 2B <= P must hold.
    expect_error(sim, ["--servers", "10", "--byzantine", "6"],
                 ["Byzantine servers must be a minority"])
    expect_error(node, ["--mode", "launch", "--servers", "10",
                        "--byzantine", "6"],
                 ["Byzantine servers must be a minority"])

    # Malformed aggregator spec: trmean beta out of range.
    expect_error(sim, ["--client-filter", "trmean:0.7"],
                 ["--client-filter", "trmean beta"])
    expect_error(node, ["--mode", "launch", "--client-filter", "trmean:0.7"],
                 ["trmean beta"])

    # Unknown aggregator / attack / upload names.
    expect_error(sim, ["--client-filter", "quantum"], ["--client-filter"])
    # The adaptive/fedgreed spec grammar: malformed parameters must name
    # the expected shape, not abort inside make_aggregator.
    expect_error(sim, ["--client-filter", "adaptive:bad"],
                 ["--client-filter",
                  "adaptive needs an integer initial estimate"])
    expect_error(sim, ["--client-filter", "fedgreed:0"],
                 ["--client-filter",
                  "fedgreed needs an integer server count k >= 1"])
    expect_error(sim, ["--client-filter", "fedgreed:"],
                 ["--client-filter", "fedgreed needs an integer"])
    expect_error(node, ["--mode", "launch", "--client-filter",
                        "adaptive:bad"],
                 ["adaptive needs an integer initial estimate"])
    expect_error(sim, ["--attack", "no-such-attack"], ["attack"])
    expect_error(sim, ["--upload", "no-such-upload"], ["upload"])

    # Malformed fault plan: rates and clause syntax.
    expect_error(sim, ["--runtime", "async", "--fault-plan", "drop=1.5"],
                 ["--fault-plan", "drop rate"])
    expect_error(sim, ["--runtime", "async", "--fault-plan", "bogus=1"],
                 ["--fault-plan"])

    # Non-numeric value for a numeric flag.
    expect_error(sim, ["--rounds", "banana"], ["--rounds"])

    # Malformed --rounding-mode: the fenv pin must name the four modes.
    expect_error(sim, ["--rounding-mode", "bogus"],
                 ["--rounding-mode", 'unknown rounding mode "bogus"',
                  "nearest | upward | downward | towardzero"])
    expect_error(node, ["--mode", "launch", "--rounding-mode", "to-nearest"],
                 ["--rounding-mode", "unknown rounding mode"])

    # Malformed --wire-encoding specs: unknown names and top-k fractions
    # outside (0, 1].
    expect_error(sim, ["--wire-encoding", "nope"],
                 ["--wire-encoding", "unknown wire encoding"])
    expect_error(sim, ["--wire-encoding", "topk:0"],
                 ["--wire-encoding", "topk fraction must be in (0, 1]"])
    expect_error(sim, ["--wire-encoding", "topk:1.5"],
                 ["--wire-encoding", "topk fraction must be in (0, 1]"])
    expect_error(node, ["--mode", "launch", "--wire-encoding", "f64"],
                 ["--wire-encoding", "unknown wire encoding"])
    expect_error(node, ["--mode", "launch", "--wire-encoding", "topk:1.5"],
                 ["topk fraction must be in (0, 1]"])
    # The legacy upload codec is gone: its flag is unknown on both tools.
    expect_error(sim, ["--compression", "int8"],
                 ["unknown flag", "--compression"])
    expect_error(node, ["--mode", "launch", "--compression", "int8"],
                 ["unknown flag", "--compression"])
    # The PS runtime option is gone with the blocking PS: every PS runs
    # on the event loop.
    expect_error(node, ["--mode", "launch", "--runtime", "eventloop"],
                 ["unknown flag", "--runtime"])
    # Node roles: an --index outside the topology is a usage error, not a
    # read past the address table or an endless connect backoff.
    with tempfile.TemporaryDirectory() as scratch:
        dirs = ["--socket-dir", scratch, "--report-dir", scratch]
        expect_error(node, ["--mode", "server", "--index", "5",
                            "--servers", "2"] + dirs,
                     ["--index 5 is out of range for --servers 2"],
                     one_line=True)
        expect_error(node, ["--mode", "client", "--index", "9",
                            "--clients", "4"] + dirs,
                     ["--index 9 is out of range for --clients 4"],
                     one_line=True)
    # Transport numbers are checked before any node starts.
    for rate in ("1", "1.5", "-0.1"):
        for mode in ("inmem", "launch"):
            expect_error(node, ["--mode", mode, "--corrupt-rate", rate],
                         ["--corrupt-rate must be in [0, 1)"],
                         one_line=True)
    expect_error(node, ["--mode", "launch", "--filter-threads", "-1"],
                 ["--filter-threads must be >= 0"], one_line=True)
    expect_error(node, ["--mode", "launch", "--backend", "tcp",
                        "--tcp-port-base", "0"],
                 ["--tcp-port-base 0", "inside 1..65535"], one_line=True)
    expect_error(node, ["--mode", "launch", "--backend", "tcp",
                        "--servers", "2", "--tcp-port-base", "65535"],
                 ["--tcp-port-base 65535", "inside 1..65535"],
                 one_line=True)
    # Invalid combinations: stateful wire streams need the sync engine,
    # and they cannot absorb dropped frames.
    expect_error(sim, ["--wire-encoding", "delta+int8", "--runtime", "async"],
                 ["--wire-encoding", "requires --runtime sync"], one_line=True)
    # Message loss is the async engine's fault plan (drop=<p>), and
    # participation is always a uniform draw: the sync-only loss rate and
    # the participation strategy are gone from both tools.
    expect_error(sim, ["--loss-rate", "0.1"],
                 ["unknown flag", "--loss-rate"], one_line=True)
    expect_error(node, ["--mode", "launch", "--participation-strategy",
                        "uniform"],
                 ["unknown flag", "--participation-strategy"], one_line=True)
    expect_error(node, ["--mode", "launch", "--wire-encoding", "delta+int8",
                        "--corrupt-rate", "0.1"],
                 ["--corrupt-rate", "desynchronize"])
    # A dataset too small to give every client its minimum share is a
    # usage error in both tools, not a partition precondition abort.
    expect_error(sim, ["--samples", "200"],
                 ["--samples 200", "raise --samples or lower --clients"],
                 one_line=True)
    expect_error(node, ["--mode", "inmem", "--samples", "20"],
                 ["--samples 20", "raise --samples or lower --clients"],
                 one_line=True)

    if failures:
        for f in failures:
            print("FAIL:", f)
        return 1
    print("ok: all negative CLI paths exit 1 with actionable one-line errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
