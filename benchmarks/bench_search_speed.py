"""SRCH — search-speed benchmark: pruning and the portfolio engine.

Times five configurations of the layout search on a synthetic
paper-scale workload (TPC-H schema, seeded query generator):

1. TS-GREEDY with bound-based pruning disabled (the pre-optimization
   baseline);
2. TS-GREEDY with pruning enabled — must return the bit-identical
   layout and cost while fully evaluating fewer candidates;
3. the trajectory portfolio run serially (``jobs=1``);
4. the same portfolio on a thread pool over evaluator clones
   (``backend="thread"``) — must return the bit-identical result of
   the serial portfolio;
5. the same portfolio on worker processes (``backend="process"``) —
   likewise bit-identical.

A separate micro-benchmark isolates the evaluator kernel itself: one
single-row ``costs_for_rows`` call per candidate (the pre-fusion
access pattern) against one fused ``best_for_rows`` call over the
same candidate rows, reported as ``eval_throughput_candidates_per_s``
and the speedup ratio.

Writes a machine-readable ``BENCH_search.json`` at the repo root (wall
times, evaluation/pruning counts, speedups, drift, and — since
``phases_version`` 1 — a per-configuration phase breakdown plus a
telemetry-overhead measurement) in addition to the usual
``benchmarks/results/`` table.  The per-phase wall/CPU/count numbers
let ``perf_gate.py`` attribute a wall-clock regression to the search
phase that caused it.

Three sizes, selected with ``--mode`` (or ``REPRO_BENCH_MODE``):

* ``small`` (default) — seconds-fast smoke run.  At this scale the
  per-run wall clock is dominated by fixed overheads (process-pool
  startup, candidate generation), so speedup ratios are noise; only
  the *invariants* are asserted — pruning fired, strictly fewer full
  evaluations, and zero cost/layout drift for both pruning and
  ``jobs>1``.
* ``ci`` — calibrated so the ratios mean something: 6 trajectories at
  80 queries/12 disks put ~0.2 s of search behind each trajectory,
  which amortizes pool startup on a multi-core runner.  Asserts the
  invariants plus: pruning skips >=50% of full evaluations without
  being a net wall-clock loss, and the pooled portfolio beats the
  serial one whenever the machine actually has the cores
  (``cores >= jobs >= 2``).  This is the payload CI's perf-gate
  compares against its stored baseline.
* ``full`` — paper-scale (120 queries / 16 disks); same assertions as
  ``ci`` with a stronger parallel-speedup floor.  ``REPRO_BENCH_FULL=1``
  selects it for backward compatibility.

Run directly::

    PYTHONPATH=src python benchmarks/bench_search_speed.py \
        [--mode small|ci|full] [--jobs N]
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # for conftest helpers
from bench_env import resolve_jobs, resolve_mode  # noqa: E402
from conftest import write_result  # noqa: E402

from repro.benchdb import tpch  # noqa: E402
from repro.benchdb.synth import synthetic_workload  # noqa: E402
from repro.core.costmodel import WorkloadCostEvaluator  # noqa: E402
from repro.core.greedy import TsGreedySearch  # noqa: E402
from repro.core.layout import stripe_fractions  # noqa: E402
from repro.experiments import common  # noqa: E402
from repro.obs import EventRecorder, MetricsRegistry, Tracer  # noqa: E402
from repro.obs.profile import PROFILE_VERSION, phase_breakdown  # noqa: E402
from repro.parallel import (  # noqa: E402
    PortfolioSearch,
    available_workers,
    default_portfolio,
)
from repro.workload.access import analyze_workload  # noqa: E402
from repro.workload.access_graph import build_access_graph  # noqa: E402

BENCH_JSON = Path(__file__).parent.parent / "BENCH_search.json"

#: Per-mode calibration: (queries, disks, portfolio trajectories).
MODES = {
    "small": (40, 8, 4),
    "ci": (80, 12, 6),
    "full": (120, 16, 6),
}


def _case(mode: str):
    """The benchmark's (evaluator, graph, sizes, farm) quadruple."""
    db = tpch.tpch_database()
    n_queries, m_disks, _ = MODES[mode]
    workload = synthetic_workload(n_queries, seed=4_242,
                                  name=f"SRCH-{n_queries}")
    farm = common.paper_farm(m_disks)
    analyzed = analyze_workload(workload, db)
    sizes = db.object_sizes()
    evaluator = WorkloadCostEvaluator(analyzed, farm, sorted(sizes))
    graph = build_access_graph(analyzed, db)
    return evaluator, graph, sizes, farm


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def measure_telemetry_overhead(farm, evaluator, sizes, graph,
                               repeats: int = 3) -> dict:
    """Wall cost of full telemetry vs none on the pruned greedy search.

    Best-of-``repeats`` for both arms (minimum is the standard noise
    filter for micro-benchmarks).  "Full" means a live flight recorder,
    a recording tracer, and a bound metric registry — everything the
    CLI turns on for ``--events`` — against a run with all three off.
    """
    def run_off():
        return TsGreedySearch(farm, evaluator, sizes,
                              prune=True).search(graph)

    def run_on():
        recorder = EventRecorder()
        tracer = Tracer(recorder=recorder)
        metrics = MetricsRegistry()
        evaluator.bind_metrics(metrics)
        try:
            return TsGreedySearch(
                farm, evaluator, sizes, prune=True, tracer=tracer,
                metrics=metrics, recorder=recorder).search(graph)
        finally:
            evaluator.bind_metrics(None)

    off_s = min(_timed(run_off)[1] for _ in range(repeats))
    on_s = min(_timed(run_on)[1] for _ in range(repeats))
    overhead_pct = 100.0 * (on_s - off_s) / max(off_s, 1e-9)
    return {"off_s": round(off_s, 4), "on_s": round(on_s, 4),
            "overhead_pct": round(overhead_pct, 2)}


def measure_eval_throughput(farm, evaluator, sizes, graph,
                            repeats: int = 7,
                            max_candidates: int = 2048,
                            layout=None) -> dict:
    """Candidate-evaluation throughput: per-row loop vs fused kernel.

    Measures the evaluator at the search's steady state: the base is
    the *converged* pruned-greedy layout and the incumbent is its cost
    — exactly what the kernel sees when greedy revisits an object late
    in the search, when the running best is tight enough for the
    transfer-only bound to do real work.  (From a fresh full-striping
    base nothing has been learned yet, no bound can fire, and the
    measurement degenerates to batch arithmetic alone.)

    Builds a deterministic candidate set for the object with the most
    touching subplans (every striped disk subset, capped), then times
    two arms over the identical rows:

    * ``loop`` — one ``costs_for_rows((name,), row[None])`` call per
      candidate plus a Python running-minimum: the pre-fusion
      per-candidate access pattern, paying the per-call overhead and
      a one-row pass through the kernel for every candidate;
    * ``fused`` — a single :meth:`best_for_rows` call (vectorized
      bounds prune + chunked batch evaluation of the survivors).

    Both arms process every candidate (the fused arm's pruned rows
    count as processed — disposing of them via the bound *is* the
    optimization; the pruned count itself is deterministic), so
    throughput is candidates/s over the same input.  The arms are
    timed interleaved, best-of-``repeats`` each, so a machine-wide
    stall (noisy-neighbor CI runners) cannot bias one arm; they agree
    on the winning cost by construction (asserted).

    Args:
        layout: The converged layout to measure at; computed with a
            fresh pruned greedy search when ``None`` (the bench passes
            its own greedy run's result in).
    """
    if layout is None:
        layout = TsGreedySearch(farm, evaluator, sizes,
                                prune=True).search(graph).layout
    matrix = evaluator.matrix_of(layout)
    base_cost = evaluator.set_base(matrix)
    name = max(evaluator.object_names,
               key=lambda n: evaluator.touching_count(n))
    m = len(farm)
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(m), size)
        for size in range(1, m + 1))
    rows = np.array([
        stripe_fractions(list(subset), farm)
        for subset in itertools.islice(subsets, max_candidates)])

    def run_loop():
        best = base_cost
        for row in rows:
            cost = evaluator.costs_for_rows((name,), row[None])[0]
            if cost < best:
                best = cost
        return best

    pruned = {"n": 0}

    def run_fused():
        best, index, n_pruned = evaluator.best_for_rows(
            (name,), rows, base_cost)
        pruned["n"] = n_pruned
        return best if index >= 0 else base_cost

    run_loop(), run_fused()  # warm the slice/bound caches
    timings = [(_timed(run_loop), _timed(run_fused))
               for _ in range(repeats)]
    loop_best, loop_s = min((t[0] for t in timings),
                            key=lambda r: r[1])
    fused_best, fused_s = min((t[1] for t in timings),
                              key=lambda r: r[1])
    assert abs(loop_best - fused_best) < 1e-9, \
        f"fused kernel disagrees with the loop: {loop_best} " \
        f"vs {fused_best}"
    n = len(rows)
    loop_tp = n / max(loop_s, 1e-9)
    fused_tp = n / max(fused_s, 1e-9)
    return {
        "candidates": n,
        "object": name,
        "pruned": pruned["n"],
        "loop_s": round(loop_s, 6),
        "fused_s": round(fused_s, 6),
        "loop_candidates_per_s": round(loop_tp, 1),
        "fused_candidates_per_s": round(fused_tp, 1),
        "speedup": round(fused_tp / max(loop_tp, 1e-9), 2),
    }


def run_bench(jobs: int = 0, mode: str | None = None) -> dict:
    """Run all five configurations; return the BENCH_search payload."""
    mode = resolve_mode(mode)
    evaluator, graph, sizes, farm = _case(mode)
    n_trajectories = MODES[mode][2]
    cores = available_workers()
    # At least 2 so the pooled path (shared memory, process pool) is
    # always exercised — the drift check needs to cross the process
    # boundary even on a single-core machine.
    jobs = jobs if jobs > 0 else min(4, max(cores, 2))
    specs = default_portfolio(n_trajectories)

    # 1/2 — single-trajectory greedy, pruning off vs on.  Every
    # configuration runs under its own tracer/registry so the payload
    # can attribute wall time to search phases (expand/kl/greedy/...).
    metrics_off = MetricsRegistry()
    tracer_off = Tracer()
    plain, t_noprune = _timed(lambda: TsGreedySearch(
        farm, evaluator, sizes, prune=False, tracer=tracer_off,
        metrics=metrics_off).search(graph))
    metrics_on = MetricsRegistry()
    tracer_on = Tracer()
    evaluator.bind_metrics(metrics_on)
    try:
        pruned_run, t_prune = _timed(lambda: TsGreedySearch(
            farm, evaluator, sizes, prune=True, tracer=tracer_on,
            metrics=metrics_on).search(graph))
    finally:
        evaluator.bind_metrics(None)
    prune_drift = abs(pruned_run.cost - plain.cost)
    same_layout = all(
        pruned_run.layout.fractions_of(name)
        == plain.layout.fractions_of(name)
        for name in plain.layout.object_names)

    # 3/4/5 — the portfolio: serial, thread pool, process pool.
    metrics_serial = MetricsRegistry()
    tracer_serial = Tracer()
    serial, t_serial = _timed(lambda: PortfolioSearch(
        farm, evaluator, sizes, specs=specs, jobs=1,
        tracer=tracer_serial,
        metrics=metrics_serial).search(graph))
    metrics_thread = MetricsRegistry()
    tracer_thread = Tracer()
    threaded, t_thread = _timed(lambda: PortfolioSearch(
        farm, evaluator, sizes, specs=specs, jobs=jobs,
        backend="thread", tracer=tracer_thread,
        metrics=metrics_thread).search(graph))
    metrics_pooled = MetricsRegistry()
    tracer_pooled = Tracer()
    pooled, t_pooled = _timed(lambda: PortfolioSearch(
        farm, evaluator, sizes, specs=specs, jobs=jobs,
        backend="process", tracer=tracer_pooled,
        metrics=metrics_pooled).search(graph))
    portfolio_drift = abs(pooled.cost - serial.cost)
    portfolio_drift_thread = abs(threaded.cost - serial.cost)
    throughput = measure_eval_throughput(farm, evaluator, sizes, graph,
                                         layout=pruned_run.layout)

    return {
        "mode": mode,
        "cores": cores,
        "jobs": jobs,
        "trajectories": n_trajectories,
        "phases_version": PROFILE_VERSION,
        "greedy_noprune": {
            "wall_s": round(t_noprune, 4),
            "evaluations": plain.evaluations,
            "cost": plain.cost,
            "phases": phase_breakdown(tracer_off, metrics_off),
        },
        "greedy_prune": {
            "wall_s": round(t_prune, 4),
            "evaluations": pruned_run.evaluations,
            "pruned_candidates": int(
                pruned_run.extras.get("pruned_candidates", 0)),
            "bound_evaluations": int(metrics_on.value(
                "costmodel.bound_evaluations")),
            "cost": pruned_run.cost,
            "phases": phase_breakdown(tracer_on, metrics_on),
        },
        "portfolio_serial": {
            "wall_s": round(t_serial, 4),
            "evaluations": serial.evaluations,
            "cost": serial.cost,
            "backend": "serial",
            "phases": phase_breakdown(tracer_serial, metrics_serial),
        },
        "portfolio_thread": {
            "wall_s": round(t_thread, 4),
            "evaluations": threaded.evaluations,
            "cost": threaded.cost,
            "backend": "thread",
            "phases": phase_breakdown(tracer_thread, metrics_thread),
        },
        "portfolio_parallel": {
            "wall_s": round(t_pooled, 4),
            "evaluations": pooled.evaluations,
            "cost": pooled.cost,
            "backend": "process",
            "phases": phase_breakdown(tracer_pooled, metrics_pooled),
        },
        "telemetry_overhead": measure_telemetry_overhead(
            farm, evaluator, sizes, graph),
        "eval_throughput": throughput,
        "eval_throughput_candidates_per_s":
            throughput["fused_candidates_per_s"],
        "eval_throughput_speedup": throughput["speedup"],
        "prune_eval_reduction": round(
            1.0 - pruned_run.evaluations / max(plain.evaluations, 1), 4),
        "prune_speedup": round(t_noprune / max(t_prune, 1e-9), 3),
        "parallel_speedup": round(t_serial / max(t_pooled, 1e-9), 3),
        "parallel_speedup_thread": round(
            t_serial / max(t_thread, 1e-9), 3),
        "prune_drift": prune_drift,
        "prune_same_layout": same_layout,
        "portfolio_drift": portfolio_drift,
        "portfolio_drift_thread": portfolio_drift_thread,
    }


def check_invariants(payload: dict) -> None:
    """The correctness claims the optimization must not break.

    Always asserted, in every mode: pruning fired, needed strictly
    fewer full evaluations, and neither pruning nor ``jobs>1`` changed
    the result by one bit.  Wall-clock claims are asserted only in
    ``ci``/``full`` modes, where the case is sized so the ratios are
    not dominated by fixed overheads — and the parallel claim only
    when the machine actually has the cores.
    """
    assert payload["greedy_prune"]["pruned_candidates"] > 0, \
        "pruning never fired — the bound is not doing any work"
    assert payload["prune_drift"] == 0.0, \
        f"pruning changed the cost by {payload['prune_drift']}"
    assert payload["prune_same_layout"], "pruning changed the layout"
    assert payload["portfolio_drift"] == 0.0, \
        f"jobs>1 changed the cost by {payload['portfolio_drift']}"
    assert payload["portfolio_drift_thread"] == 0.0, \
        f"the thread backend changed the cost by " \
        f"{payload['portfolio_drift_thread']}"
    assert payload["greedy_prune"]["evaluations"] \
        < payload["greedy_noprune"]["evaluations"]
    if payload["mode"] == "small":
        return
    # The fused kernel must dominate the per-candidate loop it
    # replaced: one vectorized bounds pass plus chunked batch
    # evaluation of the survivors, against len(rows) Python calls.
    assert payload["eval_throughput_speedup"] >= 10.0, \
        f"fused kernel is only " \
        f"{payload['eval_throughput_speedup']}x the per-candidate loop"
    # Pruning must be net-positive: most full evaluations skipped, and
    # the cheap bound evaluations must not eat the saving (>= 0.85
    # rather than > 1.0 leaves room for timer noise on a sub-second
    # phase; the eval-reduction floor is the deterministic claim).
    assert payload["prune_eval_reduction"] >= 0.5, \
        f"pruning skipped only " \
        f"{100 * payload['prune_eval_reduction']:.0f}% of evaluations"
    assert payload["prune_speedup"] >= 0.85, \
        f"pruning is a net wall-clock loss: " \
        f"{payload['prune_speedup']}x"
    # Observability must stay out of the hot path: full telemetry
    # (flight recorder + tracer + bound metrics) may cost at most 5%
    # wall on the pruned greedy search.  Payloads from before
    # phases_version 1 carry no measurement; skip, don't crash.
    overhead_info = payload.get("telemetry_overhead")
    if overhead_info is not None:
        overhead = overhead_info["overhead_pct"]
        assert overhead <= 5.0, \
            f"full telemetry costs {overhead:.1f}% wall (budget: 5%)"
    # Parallel speedup needs parallel hardware: assert only when the
    # machine has a spare core per extra worker.
    if payload["cores"] >= payload["jobs"] >= 2:
        floor = 1.2 if payload["mode"] == "full" else 1.0
        assert payload["parallel_speedup"] > floor, \
            f"no speedup on {payload['cores']} cores: " \
            f"{payload['parallel_speedup']}x"
        assert payload["parallel_speedup_thread"] >= 1.0, \
            f"thread backend slower than serial on " \
            f"{payload['cores']} cores: " \
            f"{payload['parallel_speedup_thread']}x"


def _render(payload: dict) -> str:
    rows = [
        [name, f"{payload[name]['wall_s']:.3f}s",
         payload[name]["evaluations"],
         f"{payload[name]['cost']:.4f}",
         payload[name].get("backend", "-")]
        for name in ("greedy_noprune", "greedy_prune",
                     "portfolio_serial", "portfolio_thread",
                     "portfolio_parallel")]
    table = common.format_table(
        ["configuration", "wall", "evaluations", "cost", "backend"],
        rows)
    throughput = payload["eval_throughput"]
    return (f"{table}\n"
            f"pruned {payload['greedy_prune']['pruned_candidates']} "
            f"candidates "
            f"({100 * payload['prune_eval_reduction']:.1f}% fewer full "
            f"evaluations), prune speedup "
            f"{payload['prune_speedup']}x, parallel speedup "
            f"{payload['parallel_speedup']}x (thread "
            f"{payload['parallel_speedup_thread']}x) on "
            f"{payload['cores']} core(s) with jobs={payload['jobs']}, "
            f"drift 0.0, telemetry overhead "
            f"{payload['telemetry_overhead']['overhead_pct']}%\n"
            f"fused kernel: "
            f"{throughput['fused_candidates_per_s']:,.0f} "
            f"candidates/s over {throughput['candidates']} rows of "
            f"{throughput['object']} "
            f"({payload['eval_throughput_speedup']}x the "
            f"per-candidate loop)")


def test_search_speed():
    """Pytest entry: run the bench (mode from the environment)."""
    payload = run_bench(jobs=resolve_jobs())
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    write_result("search_speed", _render(payload))
    check_invariants(payload)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=0,
                        help="workers for the parallel run "
                             "(default: min(4, cores))")
    parser.add_argument("--mode", choices=sorted(MODES), default=None,
                        help="benchmark size (default: small, or "
                             "REPRO_BENCH_MODE / REPRO_BENCH_FULL)")
    parser.add_argument("--full", action="store_true",
                        help="alias for --mode full")
    parser.add_argument("--out", type=Path, default=BENCH_JSON,
                        help="where to write the JSON payload "
                             "(default: repo-root BENCH_search.json)")
    args = parser.parse_args()
    mode = "full" if args.full else args.mode
    payload = run_bench(jobs=args.jobs, mode=mode)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(_render(payload))
    print(f"\nbench payload written to {args.out}")
    check_invariants(payload)
    print(f"invariants ({payload['mode']} mode): pruning>0, "
          f"zero drift — OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
