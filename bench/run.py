"""Contract entry point: one workload, one run, one JSON line.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, then — as the last line of
standard output — the result object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics (and writes
``bench/out/trace_<workload>.json``).  Exits non-zero when the program
under test is missing or the durability oracle reports a miss.
"""

import os
import sys
import time

_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes (seconds ignored)")
    opts = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set and dict iteration order feed the simulation; pin it, in
        # a fresh interpreter, so a seed names one execution exactly.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"bench: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]

    import json

    from bench import harness
    from bench.workloads import WORKLOADS

    if opts.workload not in WORKLOADS:
        print(f"bench: unknown workload {opts.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    result, lines = harness.run(
        opts.workload, opts.seed, opts.seconds, bool(opts.trace),
        quick=opts.quick, import_s=import_s,
        out_dir=os.path.join(HERE, "out"))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
