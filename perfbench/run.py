"""Run the repository benchmark.

    python3 perfbench/run.py --workload cli|service|all \
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures the workload untraced for ``S`` seconds, checks
every output and prints the end-to-end metrics.  ``--trace 1`` measures
``S/2`` seconds untraced and ``S/2`` seconds traced, and prints the
per-layer metrics with the tracing overhead and the uncovered remainder.
``--workload all`` runs every workload, each in a fresh process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run from a
directory that lacks the program, it exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    OUT,
    ROOT,
    MIN_BEYOND,
    QUALITY_INPUTS,
    TAIL_PCT,
    WORKLOADS,
    ProgramMissing,
    beyond,
    child_env,
    median,
    percentile,
    provenance,
    require_program,
    write_json,
)
from perfbench.inputs import SIZES  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    GATED,
    PER_LAYER,
    layer_values,
)
from perfbench.tracing import (  # noqa: E402
    SpanLog,
    install,
    nesting_errors,
    uncovered_ns,
)

#: A set-up child that takes longer than this is broken.
SETUP_TIMEOUT_S = 120.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _command(args: argparse.Namespace, workload: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size]


def _last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("child printed nothing")
    return json.loads(lines[-1])


def setup_in_child(args: argparse.Namespace) -> float:
    """One set-up in a fresh interpreter (imports included)."""
    proc = subprocess.run(_command(args, args.workload) + ["--setup-only"],
                          capture_output=True, text=True, cwd=ROOT,
                          env=child_env(), timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
    return float(_last_json(proc.stdout)["setup_s"])


def _make(args: argparse.Namespace):
    from perfbench.workloads import WORKLOAD_CLASSES
    return WORKLOAD_CLASSES[args.workload](args.seed, SIZES[args.size])


def setup_only(args: argparse.Namespace) -> int:
    workload = _make(args)
    try:
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
    finally:
        workload.close()
    print(json.dumps({"setup_s": elapsed}))
    return 0


def _latencies(samples: list[float], pct: float) -> dict[str, float]:
    """Mean and median, and the ``pct`` tail when enough samples lie
    beyond it."""
    out = {}
    if samples:
        out["mean"] = sum(samples) / len(samples)
        out["p50"] = median(samples)
        if beyond(len(samples), pct) >= MIN_BEYOND:
            out["tail"] = percentile(samples, pct)
    return out


def quality(improvements: dict[tuple, float], count: int) -> float:
    """Mean estimated improvement over the first ``count`` inputs.

    A fixed prefix keeps the figure a function of the seed alone, not of
    how many requests a run happened to finish.
    """
    chosen = [improvements[key] for key in sorted(improvements)[:count]]
    return sum(chosen) / len(chosen) if chosen else 0.0


def run_workload(args: argparse.Namespace) -> dict:
    """Set up, measure, check; return the full result record."""
    size = SIZES[args.size]
    began = time.perf_counter()
    setups = [setup_in_child(args) for _ in range(size.setups - 1)]
    workload = _make(args)
    spans: list[dict] = []
    wrappers = None
    try:
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        if args.trace:
            plain = workload.run(args.seconds / 2, None)
            log = SpanLog()
            if workload.name != "cli":  # cli children trace themselves
                wrappers = install(log)
            try:
                traced = workload.run(args.seconds / 2, log)
            finally:
                if wrappers is not None:
                    wrappers.uninstall()
            spans = log.take()
            windows = [plain, traced]
        else:
            plain = workload.run(args.seconds, None)
            windows = [plain]
        peak_rss_mb = workload.peak_rss_mb()
        measured = time.perf_counter()
        improvements, failures, failed_checks = workload.check()
        checked = time.perf_counter()
        if args.trace and workload.name == "service":
            ops = workload.window_ops()
            workload.attribute(spans, ops)
            calls_s = [s for c in workload.clients for s in c.calls_s]
            server = workload.server_extras(
                [op for op in ops if op.span is not None], calls_s, spans)
        else:
            server = {}
    finally:
        workload.close()

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows) + failed_checks
    tail = TAIL_PCT[args.workload]
    advise = plain.samples.get("advise", [])
    advise_s = _latencies(advise, tail)
    mean = advise_s.get("mean", 0.0)
    record: dict = {
        "provenance": provenance(args.seed, args.workload),
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "tail_percentile": tail,
        "samples": {kind: len(values)
                    for kind, values in plain.samples.items()},
        "latencies_s": plain.samples,
        "beyond_tail": beyond(len(advise), tail) if advise else 0,
        "setup_samples_s": setups,
        "phases_s": {"set-up and measure": measured - began,
                     "check": checked - measured},
    }
    e2e = {
        "setup_s": median(setups),
        "advise_mean_s": mean,
        "advise_p50_s": advise_s.get("p50", 0.0),
        "improvement_pct": quality(improvements,
                                   QUALITY_INPUTS[args.workload]),
        "peak_rss_mb": peak_rss_mb,
        "throughput_rps": plain.completed / plain.wall_s
        if plain.wall_s else 0.0,
        "failed_ratio": failed / attempted if attempted else 1.0,
    }
    if "tail" in advise_s:
        e2e["advise_tail_s"] = advise_s["tail"]
    for kind in ("miss", "relayout", "hit"):
        found = _latencies(plain.samples.get(kind, []), tail)
        for stat, value in found.items():
            if stat == "p50" or (stat == "tail" and kind != "hit"):
                e2e[f"{kind}_{stat}_s"] = value
    record["end_to_end"] = e2e
    if args.trace:
        traced = windows[1]
        traced_mean = _latencies(traced.samples.get("advise", []),
                                 50).get("mean", 0.0)
        uncovered = uncovered_ns(spans)
        extra = dict(server)
        extra["import_s"] = workload.import_s
        extra["overhead_s"] = traced_mean - mean
        extra["uncovered_s"] = sum(uncovered) / len(uncovered) / 1e9 \
            if uncovered else 0.0
        record["per_layer"] = layer_values(spans, traced.advise_requests,
                                           extra)
        record["trace_report"] = {
            "untraced_advise_mean_s": mean,
            "traced_advise_mean_s": traced_mean,
            "overhead_s": extra["overhead_s"],
            "uncovered_s_per_request": extra["uncovered_s"],
            "spans": len(spans),
            "nesting_errors": nesting_errors(spans)[:20],
            "missing_targets": sorted(
                getattr(workload, "missing", set())
                | set(wrappers.missing if wrappers else ())),
        }
        write_json(OUT / f"spans-{args.workload}-{args.seed}.json", spans)
    write_json(OUT / f"result-{args.workload}-{args.seed}"
                     f"-trace{args.trace}.json", record)
    return record


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(record: dict, workload: str) -> None:
    prov = record["provenance"]
    print(f"== {workload}  seed {prov['seed']}  {record['seconds']} s  "
          f"trace {record['trace']}  size {record['size']}")
    print(f"   nproc {prov['nproc']} (affinity {prov['affinity']}), "
          f"Python {prov['python']}, numpy {prov['numpy']}, "
          f"commit {prov['commit'] or 'n/a'}, "
          f"source {prov['source_digest']}")
    print(f"   samples {record['samples']}; tail = "
          f"p{record['tail_percentile']} with {record['beyond_tail']} "
          f"advise samples beyond it; set-ups "
          + ", ".join(_fmt(s) for s in record["setup_samples_s"]) + " s")
    print(f"   attempted {record['attempted']}, failed {record['failed']}; "
          + ", ".join(f"{phase} {_fmt(seconds)} s"
                      for phase, seconds in record["phases_s"].items()))
    for failure in record["failures"][:10]:
        print(f"   FAILED {failure}")
    print("   end-to-end (untraced):")
    e2e = record["end_to_end"]
    for metric, gated in END_TO_END:
        shown = f"{_fmt(e2e[metric.name])} {metric.unit}" \
            if metric.name in e2e else "n/a (no such requests, or too " \
            "few samples for a tail)"
        flag = "" if gated else "  [report only]"
        print(f"     {metric.name:<16} {shown}{flag}")
    if record.get("per_layer"):
        trace = record["trace_report"]
        print(f"   tracing: advise mean untraced "
              f"{_fmt(trace['untraced_advise_mean_s'])} s, traced "
              f"{_fmt(trace['traced_advise_mean_s'])} s (overhead "
              f"{_fmt(trace['overhead_s'])} s); uncovered "
              f"{_fmt(trace['uncovered_s_per_request'])} s per request; "
              f"{trace['spans']} spans; nesting errors "
              f"{len(trace['nesting_errors'])}; missing targets "
              f"{trace['missing_targets'] or 'none'}")
        print("   per layer (traced, per advise request) "
              "[should move]:")
        for metric in PER_LAYER:
            value = f"{_fmt(record['per_layer'][metric.name])} {metric.unit}"
            print(f"     {metric.name:<26} {value:<18} [{metric.moves}]")


def result_line(record: dict) -> dict:
    if record["trace"]:
        chosen = [(m, record["per_layer"][m.name]) for m in PER_LAYER]
    else:
        chosen = [(m, record["end_to_end"][m.name]) for m in GATED]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric.name: {"value": value, "unit": metric.unit}
                    for metric, value in chosen},
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(_command(args, workload), cwd=ROOT,
                              capture_output=True, text=True)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        line = _last_json(proc.stdout)
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, value in line["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        require_program()
    except ProgramMissing as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    print_report(record, args.workload)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
