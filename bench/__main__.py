"""``python -m bench``: run sets, calibrate bounds, compare, attribute.

    python -m bench set --out A.json [--runs 10 --seed 0 --trace 0|1 --quick]
    python -m bench compare A.json B.json
    python -m bench calibrate [--sets 4 --runs 10 | --from A.json B.json ...]
    python -m bench attribution [--seed N]

One run is ``bench/run.py``.  Every run of a set is a fresh interpreter
with ``PYTHONHASHSEED=0``; workloads are interleaved so that machine
drift falls on all of them alike.  ``--quick`` sets are for smoke use
and are refused by ``calibrate`` and ``attribution``, which write the
committed results under ``bench/out/``.
"""

import argparse
import json
import os
import subprocess
import sys

from bench import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")



def load_contract():
    with open(BENCHMARK_JSON) as fp:
        return json.load(fp)


def one_run(workload, seed, seconds, trace, quick):
    """One fresh-interpreter run; returns its result object."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"),
                          timeout=600)
    if not done.stdout.strip():
        raise SystemExit(f"{workload} seed {seed}: no result "
                         f"(exit {done.returncode})\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, exit_code=done.returncode)
    return result


def run_set(workloads, runs, seed, seconds, trace, quick, log=sys.stderr):
    rows = []
    for i in range(runs):
        for workload in workloads:
            row = one_run(workload, seed + i, seconds, trace, quick)
            rows.append(row)
            print(f"  run {i + 1}/{runs} {workload} seed {seed + i}: "
                  f"{'ok' if row['correct'] else 'INCORRECT'}",
                  file=log, flush=True)
    return {"seconds": seconds, "trace": int(trace), "quick": quick,
            "runs": rows}


def cmd_set(opts, contract):
    workloads = opts.workloads or [w["name"] for w in contract["workloads"]]
    result = run_set(workloads, opts.runs, opts.seed, opts.seconds,
                     opts.trace, opts.quick)
    with open(opts.out, "w") as fp:
        json.dump(result, fp, indent=1)
    print(f"wrote {opts.out}")
    return 0 if all(r["correct"] for r in result["runs"]) else 1


def workload_bounds():
    """Per-(workload, metric) bounds of the last calibration, if any;
    ``BENCHMARK.json`` only has room for the loosest per metric."""
    try:
        with open(os.path.join(OUT, "calibration.json")) as fp:
            per_workload = json.load(fp)["per_workload"]
    except FileNotFoundError:
        return {}
    return {(workload, metric): cell["bound"]
            for workload, per_metric in per_workload.items()
            for metric, cell in per_metric.items()}


def cmd_compare(opts, contract):
    with open(opts.a) as fp:
        set_a = json.load(fp)
    with open(opts.b) as fp:
        set_b = json.load(fp)
    rows = stats.compare_rows(set_a, set_b, contract["end_to_end"],
                              workload_bounds())
    print(stats.format_rows(rows))
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    incorrect = [r for s in (set_a, set_b) for r in s["runs"]
                 if not r["correct"]]
    print(f"{len(rows)} rows: {len(bad)} worse or unresolved; "
          f"{len(incorrect)} incorrect runs")
    return 1 if bad or incorrect else 0


def cmd_calibrate(opts, contract):
    if opts.from_files:
        sets = []
        for path in opts.from_files:
            with open(path) as fp:
                sets.append(json.load(fp))
    else:
        workloads = [w["name"] for w in contract["workloads"]]
        sets = []
        for k in range(opts.sets):
            print(f"set {k + 1}/{opts.sets}", file=sys.stderr, flush=True)
            # Each set has seeds of its own, as the driver's sets may.
            sets.append(run_set(workloads, opts.runs,
                                opts.seed + k * opts.runs,
                                contract["run_seconds"], False, False))
            with open(os.path.join(OUT, f"set_{k + 1}.json"), "w") as fp:
                json.dump(sets[-1], fp, indent=1)
    if any(s.get("quick") or s.get("trace") for s in sets):
        raise SystemExit("calibrate wants full-size untraced sets")
    calibration = stats.calibrate(sets)
    bounds = stats.metric_bounds(calibration)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "calibration.json"), "w") as fp:
        json.dump({"sets": len(sets), "per_workload": calibration,
                   "per_metric_bound": bounds}, fp, indent=1)
    # The largest bound goes to setup_s, as the contract asks.
    bounds["setup_s"] = max(bounds.values())
    for metric in contract["end_to_end"]:
        metric["bound"] = bounds[metric["name"]]
    with open(BENCHMARK_JSON, "w") as fp:
        json.dump(contract, fp, indent=2)
        fp.write("\n")
    lines = [
        "# Baseline and calibrated bounds",
        "",
        f"{len(sets)} same-code sets of "
        f"{len(sets[0]['runs']) // len(calibration)} runs per workload "
        f"(`--seconds {contract['run_seconds']}`, every run its own seed, "
        "workloads interleaved). *baseline* is the median of the set "
        "medians; *spread* the widest quartile spread of any set; *gap* "
        "the largest difference between set medians; *bound* the larger "
        "of 2 x gap and 3 x spread, floored at 5% (1% for exact counts) "
        "and capped at 25%. `BENCHMARK.json` carries, per metric, the "
        "loosest bound of the four workloads (last table). Regenerate "
        "with `python -m bench calibrate`.",
    ]
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    for workload, per_metric in calibration.items():
        lines += ["", f"## {workload}", "",
                  "| metric | baseline | unit | spread | gap | bound | |",
                  "|---|---:|---|---:|---:|---:|---|"]
        for name, cell in per_metric.items():
            flag = ("capped at 25%" if cell["over_contract_cap"]
                    else "over 10%" if cell["over_wanted_cap"] else "")
            centre = sorted(cell["medians"])[len(cell["medians"]) // 2]
            lines.append(
                f"| `{name}` | {centre:.6g} | {units[name]} | "
                f"{cell['spread']:.2%} | {cell['median_gap']:.2%} | "
                f"{cell['bound']:.2%} | {flag} |")
    lines += ["", "## Bounds in `BENCHMARK.json`", "",
              "| metric | bound |", "|---|---:|"]
    lines += [f"| `{name}` | {bound:.0%} |" for name, bound in bounds.items()]
    with open(os.path.join(OUT, "baseline.md"), "w") as fp:
        fp.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_attribution(opts, contract):
    """One traced run per workload -> ``bench/out/attribution.md``."""
    lines = [
        "# First traced attribution",
        "",
        f"One traced run per workload (`--seed {opts.seed} --seconds "
        f"{contract['run_seconds']} --trace 1`), self time per layer. "
        "Self time is a span's duration minus the part its child spans "
        "cover, so the rows of a phase sum to the phase. `bench.driver` "
        "(the benchmark's own loop) is the unattributed remainder; "
        "coverage is one minus its share. Regenerate with "
        "`python -m bench attribution`.",
    ]
    for spec in contract["workloads"]:
        name = spec["name"]
        row = one_run(name, opts.seed, contract["run_seconds"], True, False)
        print(f"  traced {name}: {'ok' if row['correct'] else 'INCORRECT'}",
              file=sys.stderr, flush=True)
        with open(os.path.join(OUT, f"trace_{name}.json")) as fp:
            other = json.load(fp)["otherData"]
        metrics = other["metrics"]
        lines += ["", f"## {name}", "", spec["why"], ""]
        for phase_name, phase in other["phases"].items():
            seconds = phase["seconds"]
            ranked = sorted(((n, acc[1], acc[0]) for n, acc in
                             phase["totals"].items() if n != "bench.driver"),
                            key=lambda item: -item[1])[:5]
            gc_s = phase["totals"].get("gc.pause", [0, 0.0, 0.0])[1]
            lines += [
                f"**{phase_name}** {seconds:.3f} s, attribution coverage "
                f"{phase['coverage']:.1%}, gc.pause share "
                f"{gc_s / seconds:.1%}",
                "",
                "| layer span | self s | share of phase | calls |",
                "|---|---:|---:|---:|",
            ]
            lines += [f"| `{n}` | {s:.3f} | {s / seconds:.1%} | {int(c)} |"
                      for n, s, c in ranked]
            lines.append("")
        lines.append(f"`trace.overhead_ratio` "
                     f"{metrics['trace.overhead_ratio']:.2f} (traced over "
                     f"untraced time of the same load prefix); "
                     f"`host.spin_ms` {metrics['host.spin_ms']:.1f}.")
    with open(os.path.join(OUT, "attribution.md"), "w") as fp:
        fp.write("\n".join(lines) + "\n")
    print(f"wrote {os.path.join(OUT, 'attribution.md')}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("set", help="N runs per workload -> one JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--workloads", nargs="*")

    p = sub.add_parser("compare", help="judge set B against set A")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("calibrate", help="derive bounds from same-code sets")
    p.add_argument("--sets", type=int, default=4)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--from", dest="from_files", nargs="+")

    p = sub.add_parser("attribution", help="write bench/out/attribution.md")
    p.add_argument("--seed", type=int, default=0)

    opts = parser.parse_args(argv)
    contract = load_contract()
    if getattr(opts, "seconds", 0) is None:
        opts.seconds = contract["run_seconds"]
    return {"set": cmd_set, "compare": cmd_compare,
            "calibrate": cmd_calibrate,
            "attribution": cmd_attribution}[opts.command](opts, contract)


if __name__ == "__main__":
    raise SystemExit(main())
