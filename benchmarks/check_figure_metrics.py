"""Fail when a reproduced figure's numbers differ from the committed ones.

The paper-figure benches (fig06-09, fig13-15, ``bench_baseline_comparison``,
``bench_ablation_defrag``) drive the simulated DEBAR engine, whose charges
are deterministic: at a given ``REPRO_BENCH_SCALE`` every run writes the same
``metrics`` into ``benchmarks/results/*.json``.  A change to the engine that
moves a simulated charge therefore shows up as a ``metrics`` difference
against the committed result.  ``telemetry`` sections carry wall times and
are ignored.

Run the benches first, then, from the repository root::

    python3 benchmarks/check_figure_metrics.py            # every result file
    python3 benchmarks/check_figure_metrics.py fig08_debar_throughput.json

Exit status 0 when every checked file's ``metrics`` equal those at git
``HEAD``, 1 otherwise (each difference is printed).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"
REPO = RESULTS.parent.parent


def committed(path: Path):
    """The file's JSON at git HEAD, or ``None`` if it is not committed."""
    rel = path.resolve().relative_to(REPO).as_posix()
    shown = subprocess.run(
        ["git", "show", f"HEAD:{rel}"], cwd=REPO, capture_output=True, text=True
    )
    return json.loads(shown.stdout) if shown.returncode == 0 else None


def differences(old, new, where="metrics"):
    """Paths (with both values) at which two JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new), key=str):
            if key not in old or key not in new:
                yield f"{where}.{key}", old.get(key, "<absent>"), new.get(key, "<absent>")
            else:
                yield from differences(old[key], new[key], f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{where}[{i}]")
    elif old != new:
        yield where, old, new


def main(argv) -> int:
    paths = [RESULTS / name for name in argv] or sorted(RESULTS.glob("*.json"))
    failed = 0
    for path in paths:
        base = committed(path)
        if base is None:
            print(f"{path.name}: no committed copy to compare with")
            failed += 1
            continue
        diffs = list(differences(base.get("metrics"), json.loads(path.read_text()).get("metrics")))
        for where, old, new in diffs[:20]:
            print(f"{path.name}: {where}: committed {old!r}, now {new!r}")
        if len(diffs) > 20:
            print(f"{path.name}: ... {len(diffs) - 20} more differences")
        failed += bool(diffs)
        if not diffs:
            print(f"{path.name}: metrics equal")
    print(f"{len(paths) - failed}/{len(paths)} result files match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
