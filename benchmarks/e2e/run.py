#!/usr/bin/env python3
"""The repository's one wall-clock benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py                      # every workload, end to end
    python3 benchmarks/e2e/run.py --traced --out r.json   # + per-layer trace
    python3 benchmarks/e2e/run.py --repeat 5 --out base.json
    python3 benchmarks/e2e/run.py --compare base.json new.json
    python3 benchmarks/e2e/run.py --check

The builder's driver calls it once per run as

    run.py --workload W --seed N --seconds S --trace 0|1

and reads the last line of standard output: one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``).  Each workload
runs in its own fresh process, so peak RSS and import state are its own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC_PATH = REPO / "BENCHMARK.json"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Stand-in for a per-layer metric whose trace target no longer resolves:
#: ``null`` in ``--out`` files, this value on the contract's result line
#: (which only carries numbers).
UNRESOLVED = -1.0


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def host_fingerprint() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    ram = next(int(line.split()[1]) // 1024
               for line in Path("/proc/meminfo").read_text().splitlines()
               if line.startswith("MemTotal"))
    return {"nproc": os.cpu_count(), "cpu": cpu, "ram_mib": ram,
            "kernel": platform.release(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def git_commit() -> str:
    done = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# -- one workload, in this process ----------------------------------------------------
def run_one(args) -> int:
    sys.path.insert(0, str(REPO / "src"))
    import workloads

    spec = load_spec()
    traced = bool(args.trace)
    doc = workloads.run_workload(args.workload, args.seed, args.seconds, traced)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    other = {m["name"]: m["unit"] for m in spec["end_to_end" if traced else "per_layer"]}
    metrics = doc["metrics"]
    if not traced:
        print(f"{'failed_share':<44} {doc['failed'] / doc['attempted']:>14.6g} share")
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:>14.6g}"
        if name in declared:
            print(f"{name:<44} {shown} {declared[name]}")
        elif not traced:
            print(f"{name:<44} {shown} {other.get(name, '?')}  (informational)")
    print(f"# {args.workload}: seed {args.seed}, scale {doc['scale']:g}, "
          f"{doc['cycles']} cycles, {doc['attempted']} ops, 0 failed")
    if args.out:
        Path(args.out).write_text(json.dumps(doc))
    print(json.dumps({
        "correct": True, "attempted": doc["attempted"], "failed": doc["failed"],
        "metrics": {
            name: {"value": UNRESOLVED if metrics[name] is None else metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0


# -- every workload, each in a fresh child ----------------------------------------------
def spawn(workload: str, seed: int, seconds: float, trace: int):
    """One run in a fresh child: (exit code, standard output, full result)."""
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".out-") as tmp:
        out = Path(tmp) / "doc.json"
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--out", str(out)],
            stdout=subprocess.PIPE, text=True,
        )
        doc = json.loads(out.read_text()) if done.returncode == 0 else None
    return done.returncode, done.stdout, doc


def child(workload: str, seed: int, args, trace: int) -> dict:
    code, stdout, doc = spawn(workload, seed, args.seconds, trace)
    if code != 0:
        raise SystemExit(f"workload {workload} failed (exit {code}); its metrics are withheld")
    print(stdout.rsplit("\n", 2)[0])   # the table, without the result line
    return doc


def run_all(args) -> int:
    import workloads

    spec = load_spec()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    result = {"host": host_fingerprint(), "commit": git_commit(), "seed": args.seed,
              "scale": workloads.SCALE, "seconds": args.seconds, "sets": []}
    for i in range(args.repeat):
        seed = args.seed + i
        one = {"seed": seed, "end_to_end": {}, "per_layer": {}}
        for name in names:
            print(f"\n== {name} (set {i + 1}/{args.repeat}, seed {seed}) ==")
            one["end_to_end"][name] = child(name, seed, args, 0)
            if args.traced:
                print(f"-- {name}, traced --")
                one["per_layer"][name] = child(name, seed, args, 1)
        result["sets"].append(one)
    if args.repeat > 1:
        print_summary(result, spec)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))
        print(f"\nresult written to {args.out}")
    return 0


# -- statistics -----------------------------------------------------------------------
def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def series(result: dict, spec: dict) -> Dict[str, Dict[str, List[float]]]:
    """workload -> declared end-to-end metric -> one value per set."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for one in result["sets"]:
        for workload, doc in one["end_to_end"].items():
            for m in spec["end_to_end"]:
                out.setdefault(workload, {}).setdefault(m["name"], []).append(
                    doc["metrics"][m["name"]])
    return out


def print_summary(result: dict, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n== repeatability over {len(result['sets'])} sets ==")
    print(f"{'workload':<16} {'metric':<32} {'q1':>11} {'median':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for workload, metrics in series(result, spec).items():
        for name, values in metrics.items():
            q1, q2, q3 = quartiles(values)
            mark = "  > bound" if spread(values) > bounds[name] else ""
            print(f"{workload:<16} {name:<32} {q1:>11.5g} {q2:>11.5g} {q3:>11.5g} "
                  f"{spread(values):>7.1%} {bounds[name]:>6.0%}{mark}")


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key, what in (("host", "host fingerprints"), ("scale", "size factors"),
                      ("seconds", "run lengths")):
        if a[key] != b[key]:
            print(f"refusing to compare: {what} differ\n"
                  f"  {path_a}: {a[key]}\n  {path_b}: {b[key]}", file=sys.stderr)
            return 2
    spec = load_spec()
    meta = {m["name"]: m for m in spec["end_to_end"]}
    sa, sb = series(a, spec), series(b, spec)
    worse_rows = 0
    print(f"A = {path_a} ({a['commit'][:10]}, {len(a['sets'])} sets)   "
          f"B = {path_b} ({b['commit'][:10]}, {len(b['sets'])} sets)")
    print(f"{'workload':<16} {'metric':<32} {'A q1/median/q3':>32} {'B q1/median/q3':>32} "
          f"{'B/A':>7}  verdict")
    for workload in sa:
        for name, va in sa[workload].items():
            vb = sb.get(workload, {}).get(name)
            if not vb:
                continue
            (a1, a2, a3), (b1, b2, b3) = quartiles(va), quartiles(vb)
            bound, higher = meta[name]["bound"], meta[name]["better"] == "higher"
            ratio = b2 / a2
            worse = (a2 / b2 if higher else ratio) - 1
            b_all_worse = (max(vb) < min(va)) if higher else (min(vb) > max(va))
            b_all_better = (min(vb) > max(va)) if higher else (max(vb) < min(va))
            if max(spread(va), spread(vb)) > bound and not (b_all_worse or b_all_better):
                verdict = "unresolved (spread > bound)"
            elif worse > bound:
                verdict = f"REGRESSION (> {bound:.0%})"
                worse_rows += 1
            else:
                verdict = "ok"
            print(f"{workload:<16} {name:<32} "
                  f"{a1:>10.4g}/{a2:>10.4g}/{a3:>10.4g} {b1:>10.4g}/{b2:>10.4g}/{b3:>10.4g} "
                  f"{ratio:>6.3f}x  {verdict}   [base {a2:.4g} {meta[name]['unit']}]")
    return 1 if worse_rows else 0


# -- self-check -------------------------------------------------------------------------
def check(args) -> int:
    """Declared names == emitted names, and clean-up survives a raising phase."""
    sys.path.insert(0, str(REPO / "src"))
    import workloads

    spec = load_spec()
    problems: List[str] = []
    declared_workloads = [w["name"] for w in spec["workloads"]]
    if set(declared_workloads) != set(workloads.WORKLOADS):
        problems.append(f"workloads differ: declared {declared_workloads}, "
                        f"implemented {sorted(workloads.WORKLOADS)}")
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            if not NAME_RE.match(entry["name"]):
                problems.append(f"{section}: bad name {entry['name']!r}")
    every = {m["name"] for m in spec["end_to_end"]} | {m["name"] for m in spec["per_layer"]}
    for name in declared_workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, stdout, doc = spawn(name, args.seed, 1, trace)
            if code != 0:
                problems.append(f"{name} --trace {trace}: exit {code}")
                continue
            emitted = set(json.loads(stdout.strip().rsplit("\n", 1)[-1])["metrics"])
            declared = {m["name"] for m in spec[section]}
            if emitted != declared:
                problems.append(f"{name} --trace {trace}: result line differs from {section}: "
                                f"{sorted(emitted ^ declared)}")
            for extra in sorted(set(doc["metrics"]) - every):
                problems.append(f"{name} --trace {trace}: computed but not declared: {extra}")
            print(f"{name} --trace {trace}: {len(emitted)} metrics emitted")

    # A phase that raises after the daemons are up must leave nothing behind.
    try:
        workloads.run_workload("routed-tenants", args.seed, 1, inject_failure=True)
        problems.append("injected failure did not propagate")
    except workloads.InjectedFailure:
        pass
    leftovers = [str(p) for p in workloads.WORK_ROOT.glob(f"*-p{os.getpid()}-*")]
    children = subprocess.run(["pgrep", "-P", str(os.getpid())],
                              capture_output=True, text=True).stdout.split()
    if leftovers:
        problems.append(f"work dirs left behind: {leftovers}")
    if children:
        problems.append(f"child processes left running: pids {children}")
    print("clean-up after an injected failure: " + ("FAILED" if leftovers or children else "ok"))

    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    print("check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all, each in a child)")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver contract: run one workload in this process, "
                        "0 = end to end, 1 = per layer")
    parser.add_argument("--traced", action="store_true",
                        help="also rerun each workload with the per-layer trace")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="N sets (seeds SEED..SEED+N-1); prints medians and quartiles")
    parser.add_argument("--out", metavar="PATH", help="write the full result as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"error: {REPO} holds no src/repro to measure", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    # Let ``finally`` blocks reap daemons and remove work dirs on a polite kill.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.check:
        return check(args)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except Exception:   # a failed op or check: say so, withhold the metrics
        traceback.print_exc()
        print("FAILED: metrics withheld", file=sys.stderr)
        raise SystemExit(1)
