"""Whole-suite tiered-VM benchmark: one command, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warmup-py --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric by name and unit, with a
row per program, then one JSON line with the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes, prints the
per-layer self-time table and the tracing overhead, writes the spans as
Chrome trace-event JSON (loadable in Perfetto), and ends with one JSON
line holding the per-layer metrics. Artifacts go to ``.perfbench/``;
the interpreter references are cached there too. See README.md for the
workloads, the metrics and which layer moves which metric.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warmup-py", "steady-py", "serve-fleet")


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    pinned = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if pinned:
        fail("refusing to run with %s set: REPRO_* pins override the "
             "benchmark's explicit configuration" % ", ".join(pinned))
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        fail("no VM sources at %s" % src)
    sys.path.insert(0, src)
    import report

    report.run(args)


if __name__ == "__main__":
    main(sys.argv[1:])
