"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py [--runs 10] [--workloads cli,service]
        [--first-seed 100] [--compare OLD.json] [--out SPREAD.json]

Runs ``BENCHMARK.json``'s command ``--runs`` times per workload, each
time with another seed, and prints for every end-to-end metric its
median and its spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  A spread must stay within the metric's bound (``setup_s``
excepted) and should stay below a third of it.  With ``--compare`` it
also reports whether this set's medians are worse than an earlier set's
by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import provenance  # noqa: E402


def _worse(metric: dict, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--compare", type=Path)
    parser.add_argument("--out", type=Path,
                        default=ROOT / ".perfbench" / "spread.json")
    args = parser.parse_args(argv)
    old = json.loads(args.compare.read_text()) if args.compare else None

    values: dict[str, dict[str, list[float]]] = {}
    walls: dict[str, list[float]] = {}
    summary: dict[str, dict[str, dict[str, float]]] = {}
    ok = True
    for workload in args.workloads.split(","):
        values[workload] = {m["name"]: [] for m in spec["end_to_end"]}
        walls[workload] = []
        for run in range(args.runs):
            seed = args.first_seed + run
            start = time.perf_counter()
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed",
                                   str(seed), "--seconds",
                                   str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            walls[workload].append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(proc.stderr[-3000:], file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                print(f"{workload} seed {seed}: incorrect: {line}",
                      file=sys.stderr)
                ok = False
            for name, metric in line["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"{workload} seed {seed} ({walls[workload][-1]:.0f} s): "
                  + ", ".join(f"{n}={m['value']:.4g}"
                              for n, m in line["metrics"].items()),
                  flush=True)

    print(f"\n{'workload':<9}{'metric':<17}{'median':>10}{'spread':>9}"
          f"{'bound':>7}  verdict")
    for workload, per_metric in values.items():
        for metric in spec["end_to_end"]:
            series = per_metric[metric["name"]]
            q1, _, q3 = statistics.quantiles(series, n=4)
            mid = statistics.median(series)
            spread = (q3 - q1) / mid
            bound = metric["bound"]
            verdict = "ok" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
            if metric["name"] == "setup_s":
                verdict += " (not required)"
            elif spread > bound:
                ok = False
            if old is not None:
                before = statistics.median(
                    old["values"][workload][metric["name"]])
                worse = _worse(metric, before, mid)
                verdict += f"; vs earlier {worse:+.1%}"
                if worse > bound:
                    verdict += " WORSE THAN BOUND"
                    ok = False
            print(f"{workload:<9}{metric['name']:<17}{mid:>10.4g}"
                  f"{spread:>9.3f}{bound:>7}  {verdict}")
            summary.setdefault(workload, {})[metric["name"]] = {
                "median": mid, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound}
        print(f"{workload:<9}{'(run wall s)':<17}"
              f"{statistics.median(walls[workload]):>10.1f}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    environment = provenance(args.first_seed, "all")
    for key in ("workload", "seed"):
        environment.pop(key)
    args.out.write_text(json.dumps({"summary": summary, "values": values,
                                    "walls": walls,
                                    "seconds": args.seconds,
                                    "runs": args.runs,
                                    "first_seed": args.first_seed,
                                    "environment": environment},
                                   indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
