#!/usr/bin/env python3
"""fedms_node's per-link CSV must account for every corrupt frame.

Corrupt frames are counted by the receiver that rejected them, so the
`corrupt_frames` column summed over the `received` rows must equal the
summary line's `corrupt frames N`, and N must be the expected total.
Run by ctest as:

    node_link_csv_test.py <expected corrupt frames> <fedms_node> <args...>
"""
import re
import subprocess
import sys


def main():
    expected = int(sys.argv[1])
    proc = subprocess.run(sys.argv[2:], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=300, check=False)
    out = proc.stdout.decode("utf-8", "replace")
    if proc.returncode != 0:
        sys.exit("fedms_node exited %d: %s" % (proc.returncode,
                                               proc.stderr.decode()))
    summary = re.search(r"corrupt frames (\d+)\n", out)
    if summary is None:
        sys.exit("no 'corrupt frames' summary in:\n" + out)
    header = "link,role,index,peer_role,peer_index,data_msgs,data_bytes," \
             "control_msgs,control_bytes,corrupt_frames"
    lines = out.splitlines()
    if header not in lines:
        sys.exit("no per-link CSV header in:\n" + out)
    rows = [line.split(",") for line in lines[lines.index(header) + 1:]]
    received = [row for row in rows if row[0] == "received"]
    if not received or not any(row[0] == "sent" for row in rows):
        sys.exit("the CSV must list both sent and received links:\n" + out)
    column = sum(int(row[-1]) for row in received)
    total = int(summary.group(1))
    if column != total or total != expected:
        sys.exit("received rows sum to %d corrupt frames, the summary says "
                 "%d, expected %d" % (column, total, expected))
    print("ok: %d corrupt frames on %d received links" % (total,
                                                         len(received)))


if __name__ == "__main__":
    main()
