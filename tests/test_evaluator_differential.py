"""Differential oracle: the vectorized evaluator against the readable
Figure-7 reference.

Every example draws a random workload (subplans of one to four read or
write streams), a farm whose disks have different seek times and
different read and write transfer rates, a layout, a partition of the
objects into co-location groups and a sequence of moves.  Group moves
come in both spellings the evaluator takes: one row every member shares,
and one row per member (a projected incremental move blends each member
toward its own current row).  The
:class:`~repro.core.costmodel.CostModel` is the oracle for what a
layout costs; the evaluator's own equivalences (prune on ≡ off, O(Δ)
commits ≡ a fresh base, shared-memory replica ≡ original) are held to
``==``, not to a tolerance.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costmodel import CostModel, WorkloadCostEvaluator
from repro.core.layout import Layout
from repro.core.tolerance import EPS_COST
from repro.optimizer.operators import ObjectAccess
from repro.parallel.shared import attach_evaluator, share_evaluator
from repro.storage.disk import DiskFarm, DiskSpec
from repro.workload.access import (
    AnalyzedStatement,
    AnalyzedWorkload,
    SubplanAccess,
)
from repro.workload.workload import Statement

_PROPERTY = settings(deadline=None, max_examples=40)
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class _Case:
    """One random workload, farm, base layout and group partition."""

    def __init__(self, seed: int):
        rng = self.rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        self.farm = DiskFarm([
            DiskSpec(f"D{j}", capacity_blocks=10**9,
                     avg_seek_s=float(rng.uniform(0.002, 0.015)),
                     read_mb_s=float(rng.uniform(5.0, 60.0)),
                     write_mb_s=float(rng.uniform(3.0, 50.0)))
            for j in range(m)])
        n = int(rng.integers(2, 8))
        self.names = [f"o{i}" for i in range(n)]
        self.sizes = {name: int(rng.integers(1, 1000))
                      for name in self.names}
        statements = []
        for q in range(int(rng.integers(1, 8))):
            subplans = []
            for _ in range(int(rng.integers(1, 4))):
                picked = rng.choice(n, size=int(rng.integers(
                    1, min(n, 4) + 1)), replace=False)
                # Three decimals survive the evaluator's six-decimal
                # signature rounding exactly, so only summation order
                # separates it from the reference.
                subplans.append(SubplanAccess([
                    ObjectAccess(self.names[int(i)],
                                 round(float(rng.uniform(1, 5000)), 3),
                                 write=bool(rng.random() < 0.3))
                    for i in picked]))
            statements.append(AnalyzedStatement(
                statement=Statement(f"-- q{q}",
                                    weight=float(rng.uniform(0.5, 5))),
                plan=None, subplans=subplans))
        self.workload = AnalyzedWorkload(statements)
        self.model = CostModel(self.farm)
        self.evaluator = WorkloadCostEvaluator(self.workload, self.farm,
                                               self.names)
        self.matrix = self.rows(n)
        order = [self.names[int(i)] for i in rng.permutation(n)]
        self.groups: list[tuple[str, ...]] = []
        while order:
            size = int(rng.integers(1, 4))
            self.groups.append(tuple(order[:size]))
            order = order[size:]

    def rows(self, count: int) -> np.ndarray:
        """Fraction rows over random disk subsets with random, not
        rate-proportional, shares (some rows on a single disk)."""
        m = len(self.farm)
        out = np.zeros((count, m))
        for row in out:
            size = int(self.rng.integers(1, m + 1))
            disks = self.rng.choice(m, size=size, replace=False)
            row[disks] = self.rng.dirichlet(np.ones(disks.size))
        return out

    def candidates(self, group: tuple[str, ...], count: int,
                   per_member: bool) -> np.ndarray:
        """``(C, m)`` shared rows or ``(C, len(group), m)`` rows."""
        if not per_member:
            return self.rows(count)
        return self.rows(count * len(group)).reshape(
            count, len(group), len(self.farm))

    def group(self) -> tuple[str, ...]:
        return self.groups[int(self.rng.integers(0, len(self.groups)))]

    def patched(self, group: tuple[str, ...], row: np.ndarray) -> dict:
        """Member -> row of one candidate in either spelling."""
        member_rows = np.broadcast_to(row, (len(group), len(self.farm)))
        return dict(zip(group, member_rows))

    def oracle(self, group: tuple[str, ...], row: np.ndarray) -> float:
        """Reference cost of the base with the group moved to ``row``."""
        fractions = {name: tuple(self.matrix[i])
                     for i, name in enumerate(self.names)}
        fractions.update({name: tuple(member_row) for name, member_row
                          in self.patched(group, row).items()})
        layout = Layout(self.farm, self.sizes, fractions,
                        check_capacity=False)
        return self.model.workload_cost(self.workload, layout)

    def move(self, group: tuple[str, ...], row: np.ndarray) -> dict:
        rows = self.patched(group, row)
        for name, member_row in rows.items():
            self.matrix[self.names.index(name)] = member_row
        return rows


def _close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= EPS_COST * max(1.0, abs(expected))


def _naive_best(costs: np.ndarray, incumbent: float) -> tuple[float, int]:
    """The greedy loop's sequential epsilon acceptance, one by one."""
    best_cost, best_index = float(incumbent), -1
    for index, cost in enumerate(costs):
        if cost < best_cost - EPS_COST:
            best_cost, best_index = float(cost), index
    return best_cost, best_index


class TestAgainstReference:
    @_PROPERTY
    @given(seed=_SEEDS, per_member=st.booleans())
    def test_candidate_costs_match_reference(self, seed, per_member):
        case = _Case(seed)
        case.evaluator.set_base(case.matrix.copy())
        for group in case.groups:
            rows = case.candidates(group, int(case.rng.integers(1, 6)),
                                   per_member)
            costs = case.evaluator.costs_for_rows(group, rows)
            for row, cost in zip(rows, costs):
                assert _close(cost, case.oracle(group, row))

    @_PROPERTY
    @given(seed=_SEEDS)
    def test_full_cost_matches_reference(self, seed):
        case = _Case(seed)
        layout = Layout(case.farm, case.sizes,
                        {name: tuple(case.matrix[i])
                         for i, name in enumerate(case.names)},
                        check_capacity=False)
        expected = case.model.workload_cost(case.workload, layout)
        assert _close(case.evaluator.cost(layout), expected)
        assert _close(case.evaluator.set_base(case.matrix.copy()),
                      expected)

    @_PROPERTY
    @given(seed=_SEEDS, per_member=st.booleans())
    def test_bounds_never_exceed_reference(self, seed, per_member):
        case = _Case(seed)
        case.evaluator.set_base(case.matrix.copy())
        for group in case.groups:
            rows = case.candidates(group, 5, per_member)
            for row, bound in zip(rows,
                                  case.evaluator._bounds(group, rows)):
                expected = case.oracle(group, row)
                assert bound <= expected \
                    + EPS_COST * max(1.0, abs(expected))


class TestSelection:
    @_PROPERTY
    @given(seed=_SEEDS, slack=st.floats(min_value=0.3, max_value=1.5),
           per_member=st.booleans())
    def test_pruned_equals_unpruned_equals_naive_scan(self, seed, slack,
                                                      per_member):
        case = _Case(seed)
        base_cost = case.evaluator.set_base(case.matrix.copy())
        # Sweep the incumbent from hopeless to generous so all-pruned,
        # some-pruned and none-pruned calls all occur.
        incumbent = base_cost * slack
        for group in case.groups:
            rows = case.candidates(group, int(case.rng.integers(1, 30)),
                                   per_member)
            # Near-twins a hair cheaper than an earlier candidate: the
            # EPS_COST margin, not a plain ``<``, must reject them.
            rows = np.vstack([rows, rows * (1 - 1e-13)])
            naive = _naive_best(
                case.evaluator.costs_for_rows(group, rows), incumbent)
            pruned = case.evaluator.best_for_rows(group, rows, incumbent,
                                                  prune=True)
            full = case.evaluator.best_for_rows(group, rows, incumbent,
                                                prune=False)
            assert pruned[:2] == full[:2] == naive
            assert full[2] == 0

    @_PROPERTY
    @given(seed=_SEEDS)
    def test_shared_and_per_member_spellings_agree(self, seed):
        # Equal member rows spelled per member must take the shared
        # path: identical costs, bounds and selection, not just close.
        case = _Case(seed)
        base_cost = case.evaluator.set_base(case.matrix.copy())
        for group in case.groups:
            shared = case.rows(int(case.rng.integers(1, 12)))
            spelled = np.repeat(shared[:, None, :], len(group), axis=1)
            evaluator = case.evaluator
            assert np.array_equal(evaluator.costs_for_rows(group, shared),
                                  evaluator.costs_for_rows(group, spelled))
            assert np.array_equal(evaluator._bounds(group, shared),
                                  evaluator._bounds(group, spelled))
            assert evaluator.best_for_rows(group, shared, base_cost) \
                == evaluator.best_for_rows(group, spelled, base_cost)


class TestBaseState:
    @_PROPERTY
    @given(seed=_SEEDS)
    def test_commit_sequence_matches_fresh_set_base(self, seed):
        case = _Case(seed)
        incremental = case.evaluator
        fresh = WorkloadCostEvaluator(case.workload, case.farm,
                                      case.names)
        incremental.set_base(case.matrix.copy())
        for _ in range(6):
            # Warm a group's cache entry at the current epoch so the
            # commit has entries to re-tag or invalidate.
            incremental.costs_for_rows(case.group(), case.rows(2))
            group = case.group()
            total = incremental.commit_rows(case.move(
                group, case.candidates(group, 1, case.rng.random() < 0.5)[0]))
            assert total == fresh.set_base(case.matrix.copy())
            assert np.array_equal(incremental._base_costs,
                                  fresh._base_costs)
            probe_group, probes = case.group(), case.rows(3)
            assert np.array_equal(
                incremental.costs_for_rows(probe_group, probes),
                fresh.costs_for_rows(probe_group, probes))


class TestReplicas:
    @settings(deadline=None, max_examples=15)
    @given(seed=_SEEDS)
    def test_shared_replica_matches_original(self, seed):
        case = _Case(seed)
        original = case.evaluator
        moves = [(case.group(), case.rows(1)[0]) for _ in range(4)]
        probes = [(case.group(), case.rows(8)) for _ in range(4)]
        with share_evaluator(original) as state:
            replica = attach_evaluator(state.spec)
            traces = []
            for evaluator in (original, replica):
                matrix = case.matrix.copy()
                trace = [evaluator.set_base(matrix)]
                for (group, row), (probe_group, rows) in zip(moves,
                                                            probes):
                    costs = evaluator.costs_for_rows(probe_group, rows)
                    trace.append(costs.tolist())
                    trace.append(evaluator.best_for_rows(
                        probe_group, rows, float(costs.mean())))
                    trace.append(evaluator.commit_rows(
                        {name: row for name in group}))
                trace.append(evaluator.cost(Layout(
                    case.farm, case.sizes,
                    {name: tuple(matrix[i])
                     for i, name in enumerate(case.names)},
                    check_capacity=False)))
                traces.append(trace)
            del replica  # release the views before the unlink
        assert traces[0] == traces[1]
