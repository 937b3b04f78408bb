"""Trajectory execution: one code path for in-process and pooled runs.

A *trajectory* is one independent search run — TS-GREEDY from a seeded
KL partitioning, or an annealing restart — described by a
:class:`~repro.parallel.portfolio.TrajectorySpec`.  The portfolio
engine executes trajectories either in-process (``jobs=1``) or in a
``ProcessPoolExecutor``; both paths funnel through
:func:`run_trajectory` so serial and parallel runs are bit-identical by
construction.

Pool protocol: the executor's *initializer* calls :func:`init_worker`
once per worker process with the shared-evaluator spec and the pickled
search context; tasks then call :func:`run_trajectory_task` with just a
trajectory index.  Results travel back as plain JSON-ready dicts (the
layout as fraction rows, telemetry, the worker's span tree and metric
snapshot) — no live objects cross the process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.annealing import annealing_search
from repro.core.constraints import ConstraintSet
from repro.core.greedy import SearchResult, TsGreedySearch
from repro.core.layout import Layout
from repro.errors import LayoutError
from repro.obs import EventRecorder, MetricsRegistry, Tracer
from repro.parallel.shared import attach_evaluator
from repro.resilience import faults as fault_injection
from repro.resilience.faults import FaultPlan
from repro.storage.disk import DiskFarm
from repro.workload.access_graph import AccessGraph

if TYPE_CHECKING:
    from repro.core.costmodel import WorkloadCostEvaluator
    from repro.parallel.portfolio import TrajectorySpec


@dataclass
class TrajectoryContext:
    """Everything one trajectory needs besides its spec."""

    evaluator: "WorkloadCostEvaluator"
    farm: DiskFarm
    sizes: dict[str, int]
    constraints: ConstraintSet
    graph: AccessGraph
    initial_layout: Layout | None
    specs: "tuple[TrajectorySpec, ...]"
    #: Fault-injection plan (tests/chaos runs only; ``None`` in prod).
    faults: FaultPlan | None = field(default=None)


def run_trajectory(context: TrajectoryContext, index: int,
                   ) -> dict[str, Any]:
    """Execute one trajectory; return a picklable result payload.

    The payload carries the layout as plain fraction rows plus the
    trajectory's telemetry, span tree and metric snapshot, so the
    parent can reconstruct a full :class:`SearchResult` and merge the
    observability data without shipping live objects between processes.
    """
    spec = context.specs[index]
    # Fault-injection hooks: no-ops unless a FaultPlan targets this
    # trajectory (kill fires before any work, mimicking a worker lost
    # mid-flight; the eval fault stands in for a cost-model crash).
    fault_injection.fire_kill(context.faults, index)
    fault_injection.fire_delay(context.faults, index)
    fault_injection.fire_eval(context.faults, index)
    recorder = EventRecorder(source=f"trajectory-{index}")
    tracer = Tracer(recorder=recorder)
    metrics = MetricsRegistry()
    context.evaluator.bind_metrics(metrics)
    try:
        if spec.method == "ts-greedy":
            search = TsGreedySearch(
                context.farm, context.evaluator, context.sizes,
                constraints=context.constraints, k=spec.k,
                partition_seed=spec.partition_seed, prune=spec.prune,
                tracer=tracer, metrics=metrics, recorder=recorder)
            result = search.search(
                context.graph, initial_layout=context.initial_layout)
        elif spec.method == "annealing":
            result = annealing_search(
                context.farm, context.evaluator, context.sizes,
                seed=spec.seed, iterations=spec.iterations,
                constraints=context.constraints, tracer=tracer,
                metrics=metrics, recorder=recorder)
        else:
            raise LayoutError(
                f"unknown trajectory method {spec.method!r}")
    finally:
        context.evaluator.bind_metrics(None)
    layout = result.layout
    return {
        "index": index,
        "label": spec.label or spec.describe(),
        "cost": result.cost,
        "fractions": {name: tuple(map(float, layout.fractions_of(name)))
                      for name in layout.object_names},
        "telemetry": result.telemetry_dict(),
        "spans": tracer.to_dict(),
        "metrics": metrics.to_dict(),
        "events": recorder.snapshot(),
    }


def rebuild_result(payload: dict[str, Any], farm: DiskFarm,
                   sizes: dict[str, int]) -> SearchResult:
    """Reconstruct a :class:`SearchResult` from a worker payload."""
    layout = Layout(farm, sizes, payload["fractions"])
    return SearchResult.from_telemetry(layout, payload["telemetry"])


# -- process-pool plumbing ---------------------------------------------------

#: Per-worker-process state, set once by :func:`init_worker`.
_WORKER_CONTEXT: TrajectoryContext | None = None


def init_worker(shared_spec, farm: DiskFarm, sizes: dict[str, int],
                constraints: ConstraintSet, graph: AccessGraph,
                initial_layout: Layout | None,
                specs: "tuple[TrajectorySpec, ...]",
                faults: FaultPlan | None = None) -> None:
    """Pool initializer: attach the shared evaluator, stash context.

    Runs once per worker process.  The evaluator attaches zero-copy to
    the creator's shared segment; everything else arrives pickled once
    here instead of once per task.  The fault plan (if any) is
    installed *before* the attach so ``fail_shm_attach`` can fire.
    """
    global _WORKER_CONTEXT
    fault_injection.install(faults)
    evaluator = attach_evaluator(shared_spec)
    _WORKER_CONTEXT = TrajectoryContext(
        evaluator=evaluator, farm=farm, sizes=sizes,
        constraints=constraints, graph=graph,
        initial_layout=initial_layout, specs=tuple(specs),
        faults=faults)


def run_trajectory_task(index: int) -> dict[str, Any]:
    """Pool task: run trajectory ``index`` against the worker context."""
    if _WORKER_CONTEXT is None:
        raise LayoutError("worker used before init_worker() ran")
    return run_trajectory(_WORKER_CONTEXT, index)
