"""TS-GREEDY: the paper's two-step greedy search (Section 6.2, Figure 9).

Step 1 (minimize co-location): partition the access graph into ``m``
partitions maximizing the cut weight, then pack partitions — in
descending total-node-weight order — onto the smallest disjoint sets of
fast disks that can hold them, merging a partition with its least
co-accessed predecessor when disjoint disks run out.

Step 2 (increase parallelism): starting from the step-1 layout, repeat-
edly try widening each object by at most ``k`` additional disks (striped
proportionally to transfer rates); apply the single best cost-improving
widening per iteration; stop when none improves the workload cost.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.core.costmodel import WorkloadCostEvaluator
from repro.core.layout import Layout, stripe_fractions
from repro.core.partitioning import PartitionStats, partition_access_graph
from repro.core.tolerance import EPS_CAPACITY, EPS_ZERO
from repro.errors import LayoutError
from repro.obs import NULL_METRICS, NULL_RECORDER, NULL_TRACER
from repro.storage.disk import DiskFarm
from repro.workload.access_graph import AccessGraph


logger = logging.getLogger("repro.core.greedy")


@dataclass
class GreedyStep:
    """Telemetry of one step-2 greedy iteration.

    Attributes:
        iteration: 1-based iteration number.
        candidates: Candidate layouts costed this iteration.
        best_cost: Workload cost after the iteration (unchanged when no
            improving move was found).
        accepted: Whether an improving move was applied.
        changed: Objects whose placement the applied move changed.
    """

    iteration: int
    candidates: int
    best_cost: float
    accepted: bool
    changed: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"iteration": self.iteration,
                "candidates": self.candidates,
                "best_cost": float(self.best_cost),
                "accepted": self.accepted,
                "changed": list(self.changed)}

    @classmethod
    def from_dict(cls, data: dict) -> "GreedyStep":
        """Inverse of :meth:`to_dict`."""
        return cls(iteration=int(data["iteration"]),
                   candidates=int(data["candidates"]),
                   best_cost=float(data["best_cost"]),
                   accepted=bool(data["accepted"]),
                   changed=tuple(data.get("changed", ())))


@dataclass(frozen=True)
class TrajectoryFailure:
    """Record of one portfolio trajectory that produced no result.

    Attributes:
        index: The trajectory's position in the portfolio spec list.
        label: Its display label (``TrajectorySpec.describe()``).
        cause: ``"timeout"``, ``"crash"`` (worker process died) or
            ``"error"`` (the trajectory raised).
        attempts: Total attempts made (including serial re-runs after
            a worker failure).
        message: The final error message, for diagnostics.
    """

    index: int
    label: str
    cause: str
    attempts: int = 1
    message: str = ""

    def to_dict(self) -> dict:
        return {"index": self.index, "label": self.label,
                "cause": self.cause, "attempts": self.attempts,
                "message": self.message}

    @classmethod
    def from_dict(cls, data: dict) -> "TrajectoryFailure":
        """Inverse of :meth:`to_dict`."""
        return cls(index=int(data["index"]),
                   label=str(data.get("label", "")),
                   cause=str(data.get("cause", "error")),
                   attempts=int(data.get("attempts", 1)),
                   message=str(data.get("message", "")))

    def describe(self) -> str:
        """One-line rendering for logs and reports."""
        noun = "attempt" if self.attempts == 1 else "attempts"
        text = (f"trajectory {self.index} ({self.label}): {self.cause} "
                f"after {self.attempts} {noun}")
        if self.message:
            text += f" — {self.message}"
        return text


@dataclass
class SearchResult:
    """Outcome and telemetry of one search run.

    Attributes:
        layout: The recommended layout.
        cost: Its estimated workload cost (seconds of I/O response time).
        initial_cost: Cost of the step-1 (pre-greedy) layout.
        iterations: Greedy iterations executed (accepted moves + final
            no-improvement round).
        evaluations: Candidate layouts costed.
        elapsed_s: Wall-clock search time.
        steps: Per-iteration step-2 telemetry, in execution order.
        kl_passes: KL partitioning passes executed in step 1 (0 when
            step 1 was skipped, e.g. incremental mode).
        kl_cut_weights: Cut weight after each KL pass.
        extras: Method-specific scalar telemetry (e.g. annealing
            accept/reject counts).
        degraded: ``True`` when some portfolio trajectories failed and
            the result is the exact best over the *completed* ones.
        failures: One :class:`TrajectoryFailure` per lost trajectory.
    """

    layout: Layout
    cost: float
    initial_cost: float
    iterations: int = 0
    evaluations: int = 0
    elapsed_s: float = 0.0
    steps: list[GreedyStep] = field(default_factory=list)
    kl_passes: int = 0
    kl_cut_weights: tuple[float, ...] = ()
    extras: dict[str, float] = field(default_factory=dict)
    degraded: bool = False
    failures: list[TrajectoryFailure] = field(default_factory=list)

    def telemetry_dict(self) -> dict:
        """JSON-ready telemetry (everything except the layout itself)."""
        out = {
            "cost": float(self.cost),
            "initial_cost": float(self.initial_cost),
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "elapsed_s": float(self.elapsed_s),
            "steps": [step.to_dict() for step in self.steps],
            "kl_passes": self.kl_passes,
            "kl_cut_weights": [float(w) for w in self.kl_cut_weights],
            "extras": {k: float(v) for k, v in self.extras.items()},
        }
        if self.degraded or self.failures:
            out["degraded"] = bool(self.degraded)
            out["failures"] = [f.to_dict() for f in self.failures]
        return out

    @classmethod
    def from_telemetry(cls, layout: Layout,
                       data: dict) -> "SearchResult":
        """Rebuild a result from :meth:`telemetry_dict` output.

        The layout travels separately (telemetry is layout-free JSON);
        the portfolio engine uses this to resurrect per-trajectory
        results shipped back from worker processes.
        """
        return cls(
            layout=layout,
            cost=float(data["cost"]),
            initial_cost=float(data["initial_cost"]),
            iterations=int(data.get("iterations", 0)),
            evaluations=int(data.get("evaluations", 0)),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            steps=[GreedyStep.from_dict(s)
                   for s in data.get("steps", ())],
            kl_passes=int(data.get("kl_passes", 0)),
            kl_cut_weights=tuple(float(w)
                                 for w in data.get("kl_cut_weights", ())),
            extras={k: float(v)
                    for k, v in data.get("extras", {}).items()},
            degraded=bool(data.get("degraded", False)),
            failures=[TrajectoryFailure.from_dict(f)
                      for f in data.get("failures", ())])

    def with_layout(self, layout: Layout, cost: float) -> "SearchResult":
        """A copy recommending ``layout`` but keeping the telemetry.

        Used when the advisor overrides the search outcome (e.g. the
        current layout scores better): the search's diagnostics should
        survive the substitution.
        """
        return SearchResult(layout=layout, cost=cost,
                            initial_cost=self.initial_cost,
                            iterations=self.iterations,
                            evaluations=self.evaluations,
                            elapsed_s=self.elapsed_s,
                            steps=list(self.steps),
                            kl_passes=self.kl_passes,
                            kl_cut_weights=tuple(self.kl_cut_weights),
                            extras=dict(self.extras),
                            degraded=self.degraded,
                            failures=list(self.failures))


class TsGreedySearch:
    """The TS-GREEDY search algorithm.

    Args:
        farm: Available disk drives.
        evaluator: Precompiled workload cost evaluator (shared across
            candidate layouts).
        object_sizes: Object name -> size in blocks.
        constraints: Optional manageability/availability constraints.
        k: Max disks added to one object per greedy move (paper uses 1).
        tracer: Optional :class:`repro.obs.Tracer`; emits ``ts-greedy``
            with ``ts-greedy/step1`` and ``ts-greedy/step2`` children.
        metrics: Optional :class:`repro.obs.MetricsRegistry`; records
            ``greedy.*`` and ``partition.*`` instruments.
        recorder: Optional :class:`repro.obs.EventRecorder`; emits one
            ``greedy-iteration`` event per step-2 iteration and one
            ``kl-pass`` event per converged KL pass.
        partition_seed: ``None`` runs the canonical deterministic KL
            partitioning; an integer shuffles its processing order
            (deterministically per seed), yielding a different step-1
            starting point — the portfolio engine's multi-start lever.
        prune: Skip full evaluation of candidate rows whose transfer-
            only lower bound already exceeds the iteration's best cost.
            The bound is a provable underestimate, so the search result
            is bit-identical with pruning on or off; only the number of
            full evaluations changes.
    """

    def __init__(self, farm: DiskFarm, evaluator: WorkloadCostEvaluator,
                 object_sizes: dict[str, int],
                 constraints: ConstraintSet | None = None,
                 k: int = 1, tracer=None, metrics=None,
                 partition_seed: int | None = None,
                 prune: bool = True, recorder=None):
        if k < 1:
            raise LayoutError("k must be at least 1")
        self._farm = farm
        self._evaluator = evaluator
        self._sizes = dict(object_sizes)
        self._constraints = constraints or ConstraintSet()
        self._k = k
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._recorder = recorder if recorder is not None \
            else NULL_RECORDER
        self._partition_seed = partition_seed
        self._prune = prune
        self._allow_removals = False
        self._names = evaluator.object_names
        missing = set(self._names) - set(self._sizes)
        if missing:
            raise LayoutError(f"no sizes for objects: {sorted(missing)}")

    # -- public API ---------------------------------------------------------

    def search(self, graph: AccessGraph,
               initial_layout: Layout | None = None) -> SearchResult:
        """Run both steps and return the best layout found.

        Args:
            graph: The workload's access graph (drives step 1).
            initial_layout: Skip step 1 and refine this layout instead —
                used for incremental mode under a data-movement
                constraint.
        """
        start = time.perf_counter()
        with self._tracer.span("ts-greedy", k=self._k) as span:
            kl_stats = PartitionStats()
            if initial_layout is None:
                with self._tracer.span("ts-greedy/step1"):
                    layout = self._initial_layout(graph, kl_stats)
                self._allow_removals = False
            else:
                layout = initial_layout
                # Incremental mode: refining an arbitrary starting layout
                # (e.g. full striping) also needs *narrowing* moves, or a
                # fully-striped start would be a trivial fixed point.
                self._allow_removals = True
            with self._tracer.span("ts-greedy/step2"):
                result = self._greedy(layout)
            result.elapsed_s = time.perf_counter() - start
            result.kl_passes = kl_stats.passes
            result.kl_cut_weights = tuple(kl_stats.cut_weights)
            for index, weight in enumerate(result.kl_cut_weights):
                self._recorder.emit("kl-pass", pass_index=index + 1,
                                    cut_weight=float(weight))
            span.set("iterations", result.iterations)
            span.set("evaluations", result.evaluations)
        logger.info(
            "ts-greedy: cost %.3f -> %.3f (%d iterations, %d layouts "
            "costed, %d KL passes, %.3fs)", result.initial_cost,
            result.cost, result.iterations, result.evaluations,
            result.kl_passes, result.elapsed_s)
        return result

    # -- step 1: partition & pack ------------------------------------------------

    def _initial_layout(self, graph: AccessGraph,
                        kl_stats: PartitionStats | None = None) -> Layout:
        m = len(self._farm)
        partitions = [p for p in
                      partition_access_graph(graph, m, nodes=self._names,
                                             stats=kl_stats,
                                             metrics=self._metrics,
                                             seed=self._partition_seed)
                      if p]
        partitions = self._apply_co_location(partitions)
        partitions.sort(key=lambda p: (-sum(graph.node_weight(o)
                                            for o in p), p[0]))
        rate_order = self._farm.indices_by_read_rate()
        free = [0.0] * m  # blocks already promised per disk
        used_disks: set[int] = set()
        assignment: dict[int, tuple[int, ...]] = {}  # partition -> disks
        disk_sets: list[tuple[int, ...]] = []
        for index, part in enumerate(partitions):
            size = sum(self._sizes[o] for o in part)
            allowed = self._allowed_for(part)
            chosen = self._pick_disjoint(size, allowed, used_disks, free,
                                         rate_order)
            if chosen is None:
                chosen = self._merge_target(graph, part, partitions,
                                            assignment, size, free)
            if chosen is None:
                raise LayoutError(
                    "step 1 could not place partition within capacity")
            assignment[index] = chosen
            used_disks.update(chosen)
            for j in chosen:
                free[j] += size * self._stripe_share(chosen, j)
            disk_sets.append(chosen)
        fractions = {}
        for part, disks in zip(partitions, disk_sets):
            row = stripe_fractions(disks, self._farm)
            for name in part:
                fractions[name] = row
        layout = Layout(self._farm, self._sizes, fractions)
        self._constraints.check(layout)
        return layout

    def _apply_co_location(self,
                           partitions: list[list[str]]) -> list[list[str]]:
        """Pull each co-location group into one partition."""
        groups = self._constraints.groups()
        if not groups:
            return partitions
        part_of = {name: i for i, part in enumerate(partitions)
                   for name in part}
        for group in groups:
            members = sorted(n for n in group if n in part_of)
            if not members:
                continue
            target = part_of[max(members, key=lambda n: self._sizes[n])]
            for name in members:
                part_of[name] = target
        rebuilt: list[list[str]] = [[] for _ in partitions]
        for name, index in part_of.items():
            rebuilt[index].append(name)
        return [sorted(p) for p in rebuilt if p]

    def _allowed_for(self, part: list[str]) -> list[int]:
        allowed = set(range(len(self._farm)))
        for name in part:
            allowed &= set(self._constraints.allowed_disks(name,
                                                           self._farm))
        if not allowed:
            raise LayoutError(
                f"no disk satisfies all constraints of partition {part}")
        return sorted(allowed)

    def _stripe_share(self, disks: tuple[int, ...], j: int) -> float:
        total = sum(self._farm[d].read_mb_s for d in disks)
        return self._farm[j].read_mb_s / total

    def _pick_disjoint(self, size: float, allowed: list[int],
                       used: set[int], free: list[float],
                       rate_order: list[int]) -> tuple[int, ...] | None:
        """Smallest prefix of unused fast disks that can hold ``size``."""
        candidates = [j for j in rate_order
                      if j in set(allowed) and j not in used]
        chosen: list[int] = []
        capacity = 0.0
        for j in candidates:
            chosen.append(j)
            capacity += self._farm[j].capacity_blocks - free[j]
            if capacity >= size:
                return tuple(sorted(chosen))
        return None

    def _merge_target(self, graph: AccessGraph, part: list[str],
                      partitions: list[list[str]],
                      assignment: dict[int, tuple[int, ...]],
                      size: float,
                      free: list[float]) -> tuple[int, ...] | None:
        """Disk set of the least co-accessed, capacity-feasible
        previously-assigned partition."""
        best: tuple[float, int] | None = None
        allowed = set(self._allowed_for(part))
        for index, disks in assignment.items():
            if not set(disks) <= allowed:
                continue
            headroom = sum(self._farm[j].capacity_blocks - free[j]
                           for j in disks)
            if headroom < size:
                continue
            weight = graph.group_edge_weight(part, partitions[index])
            if best is None or (weight, index) < best:
                best = (weight, index)
        if best is None:
            return None
        return assignment[best[1]]

    # -- step 2: greedy widening -----------------------------------------------------

    def _greedy(self, layout: Layout) -> SearchResult:
        matrix = self._evaluator.matrix_of(layout)
        cost = self._evaluator.set_base(matrix)
        initial_cost = cost
        disk_used = np.array([layout.disk_used_blocks(j)
                              for j in range(len(self._farm))])
        capacity = np.array([d.capacity_blocks for d in self._farm])
        groups = {name: sorted(self._constraints.group_of(name))
                  for name in self._names}
        result = SearchResult(layout=layout, cost=cost,
                              initial_cost=initial_cost)
        # Rows live as ndarrays for the whole search: `_fits` runs per
        # candidate, so converting per check (np.asarray on tuples)
        # would dominate the capacity test.
        current = {name: np.asarray(layout.fractions_of(name),
                                    dtype=float)
                   for name in self._names}
        pruned_total = 0
        while True:
            result.iterations += 1
            iteration_evals = 0
            best_cost = cost
            best_change: dict[str, np.ndarray] | None = None
            seen_groups: set[tuple[str, ...]] = set()
            for name in self._names:
                group = tuple(groups[name])
                if group in seen_groups:
                    continue
                seen_groups.add(group)
                feasible = [change for change in
                            self._moves(group, current)
                            if self._fits(change, current, disk_used,
                                          capacity)]
                if not feasible:
                    continue
                # One fused prune+evaluate call per group — bounds for
                # every candidate, full costs for the survivors,
                # selection inside the kernel.  Rows go per member: a
                # projected incremental move blends each member toward
                # its own current row, so members' rows can differ.
                rows = np.array([change[member] for change in feasible
                                 for member in group]).reshape(
                    len(feasible), len(group), -1)
                candidate_cost, index, pruned = \
                    self._evaluator.best_for_rows(
                        group, rows, best_cost, prune=self._prune)
                pruned_total += pruned
                evaluated = len(feasible) - pruned
                result.evaluations += evaluated
                iteration_evals += evaluated
                if index >= 0:
                    best_cost = candidate_cost
                    best_change = feasible[index]
            if best_change is None:
                result.steps.append(GreedyStep(
                    iteration=result.iterations,
                    candidates=iteration_evals, best_cost=float(cost),
                    accepted=False))
                self._recorder.emit(
                    "greedy-iteration", iteration=result.iterations,
                    candidates=iteration_evals, best_cost=float(cost),
                    accepted=False, changed=[])
                break
            for name, row in best_change.items():
                disk_used += self._sizes[name] * (row - current[name])
                current[name] = row
            # O(Δ) adoption: only the subplans touching the moved
            # objects are re-costed (bit-identical to a full set_base).
            cost = self._evaluator.commit_rows(dict(best_change))
            result.steps.append(GreedyStep(
                iteration=result.iterations, candidates=iteration_evals,
                best_cost=float(cost), accepted=True,
                changed=tuple(sorted(best_change))))
            self._recorder.emit(
                "greedy-iteration", iteration=result.iterations,
                candidates=iteration_evals, best_cost=float(cost),
                accepted=True, changed=sorted(best_change))
            logger.debug(
                "greedy iteration %d: widened %s, cost %.3f "
                "(%d candidates)", result.iterations,
                ",".join(sorted(best_change)), cost, iteration_evals)
        self._metrics.inc("greedy.iterations", result.iterations)
        self._metrics.inc("greedy.evaluations", result.evaluations)
        self._metrics.inc("greedy.pruned_candidates", pruned_total)
        self._metrics.inc("greedy.accepted_moves",
                          sum(1 for s in result.steps if s.accepted))
        result.extras["pruned_candidates"] = float(pruned_total)
        for step in result.steps:
            self._metrics.observe("greedy.candidates_per_iteration",
                                  step.candidates)
        final = Layout(self._farm, self._sizes, current)
        if self._constraints.movement is not None \
                and not self._constraints.is_satisfied(final):
            # Should not happen: moves are filtered; fail loudly if so.
            raise LayoutError("greedy produced a constraint-violating "
                              "layout")
        result.layout = final
        result.cost = cost
        return result

    def _moves(self, group: tuple[str, ...],
               current: dict[str, np.ndarray]):
        """Yield candidate fraction-row changes for one object group.

        A move adds 1..k disks (from the group's allowed set) to the
        group's current disk set; every member of the group gets the same
        widened, rate-proportional row (one shared ndarray per move).
        """
        lead = group[0]
        disks_now = tuple(j for j, f in enumerate(current[lead])
                          if f > EPS_ZERO)
        allowed = self._constraints.allowed_disks(lead, self._farm)
        remaining = [j for j in allowed if j not in set(disks_now)]
        for size in range(1, self._k + 1):
            for combo in itertools.combinations(remaining, size):
                row = np.array(stripe_fractions(disks_now + combo,
                                                self._farm))
                yield {name: row for name in group}
        if self._allow_removals:
            for size in range(1, min(self._k, len(disks_now) - 1) + 1):
                for combo in itertools.combinations(disks_now, size):
                    kept = tuple(j for j in disks_now
                                 if j not in set(combo))
                    row = np.array(stripe_fractions(kept, self._farm))
                    yield {name: row for name in group}

    def _fits(self, change: dict[str, np.ndarray],
              current: dict[str, np.ndarray],
              disk_used: np.ndarray, capacity: np.ndarray) -> bool:
        """Capacity (and movement-constraint) feasibility of a move."""
        delta = np.zeros(len(self._farm))
        for name, row in change.items():
            delta += self._sizes[name] * (row - current[name])
        if np.any(disk_used + delta > capacity + EPS_CAPACITY):
            return False
        movement = self._constraints.movement
        if movement is not None:
            trial = dict(current)
            trial.update(change)
            layout = Layout(self._farm, self._sizes, trial,
                            check_capacity=False)
            if movement.baseline.data_movement_blocks(layout) \
                    > movement.max_blocks + EPS_CAPACITY:
                return False
        return True
