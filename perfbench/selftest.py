"""Fast self-test of the benchmark (about a minute on 2 cores).

    python3 perfbench/selftest.py

Runs every workload at the ``tiny`` size, untraced and traced, and
checks that

* every metric named in ``BENCHMARK.json`` is produced, with its unit;
* the outputs pass their correctness checks (``failed`` is 0);
* the traced spans nest (each child inside its parent) and every self
  time is >= 0, and no wrapper target is missing;
* the input generators draw only from the seed;
* a wrapper whose target is gone is reported, not fatal;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import OUT, ROOT, require_program  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    SpanLog,
    Target,
    install,
    nesting_errors,
    self_times,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def _run(command: list[str], cwd: Path = ROOT,
         ) -> subprocess.CompletedProcess:
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_workload(workload: str, trace: int) -> list[str]:
    seconds = 4 if trace else 3
    proc = _run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(SEED), "--seconds",
                 str(seconds), "--trace", str(trace), "--size", "tiny"])
    label = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] != 0 or line["attempted"] < 1:
        problems.append(f"{label}: correct={line['correct']} "
                        f"attempted={line['attempted']} "
                        f"failed={line['failed']}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = line["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for metric in wanted:
        value = got.get(metric["name"])
        if value is None:
            continue
        if value["unit"] != metric["unit"]:
            problems.append(f"{label}: {metric['name']} unit "
                            f"{value['unit']} != {metric['unit']}")
        number = value["value"]
        if not isinstance(number, (int, float)) or not math.isfinite(number):
            problems.append(f"{label}: {metric['name']} = {number!r}")
        elif not trace and number <= 0:
            problems.append(f"{label}: {metric['name']} is {number}")
    if trace:
        problems += check_spans(workload, label)
    return problems


def check_spans(workload: str, label: str) -> list[str]:
    record = json.loads(
        (OUT / f"result-{workload}-{SEED}-trace1.json").read_text())
    spans = json.loads((OUT / f"spans-{workload}-{SEED}.json").read_text())
    problems = [f"{label}: {error}" for error in nesting_errors(spans)[:5]]
    negative = [sid for sid, ns in self_times(spans).items() if ns < 0]
    if negative:
        problems.append(f"{label}: negative self time in {negative[:5]}")
    if not any(span["name"] == "request" for span in spans):
        problems.append(f"{label}: no request spans")
    missing = record["trace_report"]["missing_targets"]
    if missing:
        problems.append(f"{label}: wrapper targets missing: {missing}")
    return problems


def check_seeded_inputs() -> list[str]:
    """Same seed, same inputs — whatever the global RNG state; another
    seed, other inputs.  Covers the benchmark's generators and the
    program's (``synthetic_workload``, ``tpch88_workload``,
    ``oltp_workload``, the TPC-H template RNG)."""
    from perfbench.inputs import SIZES, cli_workload, service_workload
    from repro.benchdb import tpch
    from repro.benchdb.oltp import oltp_workload
    from repro.benchdb.synth import synthetic_workload

    size = SIZES["full"]

    def draw(seed: int):
        random.seed(seed * 7919)  # must not matter
        return ([s.sql for s in cli_workload(seed, 0, size)],
                [s.sql for s in service_workload(seed, 0, 0, size)],
                [s.sql for s in synthetic_workload(15, seed=seed)],
                [s.sql for s in tpch.tpch88_workload(2, seed=seed)],
                [s.sql for s in oltp_workload(20, seed=seed)],
                tpch.tpch_query(2, rng=random.Random(seed)))

    problems = []
    if draw(5) != draw(5):
        problems.append("inputs differ for the same seed")
    for first, second in zip(draw(5), draw(6)):
        if first == second:
            problems.append("an input generator ignores the seed")
    return problems


def check_missing_target() -> list[str]:
    log = SpanLog()
    done = install(log, (Target("gone", "repro.core.costmodel:NoSuch.fn"),
                         Target("gone", "repro.core.costmodel:no_such")))
    done.uninstall()
    if done.missing != ["repro.core.costmodel:NoSuch.fn",
                        "repro.core.costmodel:no_such"]:
        return [f"missing targets not reported: {done.missing}"]
    return []


def check_bare_directory() -> list[str]:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(SPEC["command"] + ["--workload", "cli", "--seed", "1",
                                       "--seconds", "1", "--trace", "0"],
                    cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    require_program()
    import repro.core.costmodel  # noqa: F401 - for check_missing_target

    problems = check_seeded_inputs() + check_missing_target() \
        + check_bare_directory()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            found = check_workload(workload, trace)
            print(f"{workload} trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else
          f"self-test failed ({len(problems)} problems)")
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
