"""Bound-based pruning: parity with unpruned search, bound soundness.

The transfer-only lower bound drops the (non-negative) seek term from
the Figure-7 per-disk cost, so ``bound(x) <= cost(x)`` must hold for
*every* layout — that inequality is the whole correctness argument for
skipping full evaluation of candidates whose bound already exceeds the
incumbent (see ``docs/performance.md``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.costmodel import CostModel, WorkloadCostEvaluator
from repro.core.fullstripe import full_striping
from repro.core.greedy import TsGreedySearch
from repro.core.layout import stripe_fractions
from repro.core.random_layout import random_layout
from repro.errors import LayoutError
from repro.obs import MetricsRegistry
from repro.workload.access import analyze_workload
from repro.workload.access_graph import build_access_graph


@pytest.fixture
def case(mini_db, join_workload, farm8):
    analyzed = analyze_workload(join_workload, mini_db)
    sizes = mini_db.object_sizes()
    evaluator = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
    graph = build_access_graph(analyzed, mini_db)
    return evaluator, graph, sizes, farm8


class TestPruningParity:
    def test_pruned_search_is_bit_identical(self, case):
        evaluator, graph, sizes, farm = case
        plain = TsGreedySearch(farm, evaluator, sizes,
                               prune=False).search(graph)
        pruned = TsGreedySearch(farm, evaluator, sizes,
                                prune=True).search(graph)
        assert pruned.cost == plain.cost
        for name in plain.layout.object_names:
            assert pruned.layout.fractions_of(name) \
                == plain.layout.fractions_of(name)
        # Same decisions step by step, not just the same endpoint.
        assert [s.best_cost for s in pruned.steps] \
            == [s.best_cost for s in plain.steps]
        assert [s.changed for s in pruned.steps] \
            == [s.changed for s in plain.steps]

    def test_pruning_skips_work(self, case):
        evaluator, graph, sizes, farm = case
        plain = TsGreedySearch(farm, evaluator, sizes,
                               prune=False).search(graph)
        pruned = TsGreedySearch(farm, evaluator, sizes,
                                prune=True).search(graph)
        assert pruned.evaluations < plain.evaluations
        assert pruned.extras["pruned_candidates"] > 0
        assert plain.extras["pruned_candidates"] == 0

    def test_pruned_counter_reported(self, case):
        evaluator, graph, sizes, farm = case
        metrics = MetricsRegistry()
        result = TsGreedySearch(farm, evaluator, sizes, prune=True,
                                metrics=metrics).search(graph)
        assert metrics.value("greedy.pruned_candidates") \
            == result.extras["pruned_candidates"]

    def test_parity_with_wider_k(self, case):
        evaluator, graph, sizes, farm = case
        plain = TsGreedySearch(farm, evaluator, sizes, k=2,
                               prune=False).search(graph)
        pruned = TsGreedySearch(farm, evaluator, sizes, k=2,
                                prune=True).search(graph)
        assert pruned.cost == plain.cost


def _base_bounds(evaluator, layout):
    """Per-object bounds of the base layout itself: each object's own
    row as the single candidate, every other row at the base."""
    matrix = evaluator.matrix_of(layout)
    evaluator.set_base(matrix)
    return [evaluator._bounds((name,), matrix[i][None])[0]
            for i, name in enumerate(evaluator.object_names)]


def _reference_bound(analyzed, layout, farm, moved):
    """The bound from its definition: transfer-only cost for every
    subplan that reads or writes ``moved``, the exact Figure-7 cost
    (the reference model) for every other subplan."""
    model = CostModel(farm)
    total = 0.0
    for statement in analyzed:
        for subplan in statement.subplans:
            streams = [
                (name, write, blocks) for (name, write), blocks
                in subplan.blocks_by_object(include_temp=False).items()
                if blocks > 0]
            if moved not in {name for name, _, _ in streams}:
                total += statement.weight \
                    * model.subplan_cost(subplan, layout)
                continue
            total += statement.weight * max(
                sum(layout.fraction(name, j) * blocks
                    / disk.transfer_blocks_s(write=write)
                    for name, write, blocks in streams)
                for j, disk in enumerate(farm))
    return total


class TestLowerBoundSoundness:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[
                  HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_bound_never_exceeds_cost(self, case, seed):
        # Each example resets the base before reading any bound, so
        # reusing the fixture across examples is safe.
        evaluator, _, sizes, farm = case
        layout = random_layout(sizes, farm, seed)
        cost = evaluator.cost(layout)
        for bound in _base_bounds(evaluator, layout):
            assert bound <= cost + 1e-9

    def test_bound_tight_when_no_colocation(self, case):
        """With one object per disk set the seek term vanishes and the
        bound equals the true cost for single-object subplans."""
        evaluator, _, sizes, farm = case
        layout = full_striping(sizes, farm)
        cost = evaluator.cost(layout)
        for bound in _base_bounds(evaluator, layout):
            assert 0.0 < bound <= cost + 1e-9

    def test_bounds_for_rows_match_matrix_bound(self, case, mini_db,
                                                join_workload):
        evaluator, _, sizes, farm = case
        analyzed = analyze_workload(join_workload, mini_db)
        base = full_striping(sizes, farm)
        evaluator.set_base(evaluator.matrix_of(base))
        name = evaluator.object_names[0]
        rows = np.array([stripe_fractions(list(disks), farm)
                         for disks in ([0], [0, 1], [2, 3, 4],
                                       list(range(len(farm))))])
        batched = evaluator._bounds((name,), rows)
        for row, bound in zip(rows, batched):
            changed = base.with_fractions(name, tuple(row))
            assert bound == pytest.approx(
                _reference_bound(analyzed, changed, farm, name))

    def test_bounds_for_rows_lower_bound_true_cost(self, case):
        evaluator, _, sizes, farm = case
        base = full_striping(sizes, farm)
        evaluator.set_base(evaluator.matrix_of(base))
        for name in evaluator.object_names[:3]:
            rows = np.array([stripe_fractions([j], farm)
                             for j in range(len(farm))])
            bounds = evaluator._bounds((name,), rows)
            costs = evaluator.costs_for_rows((name,), rows)
            assert np.all(bounds <= costs + 1e-9)

    def test_bounds_require_a_base(self, case):
        evaluator, _, sizes, farm = case
        rows = np.array([stripe_fractions([0], farm)])
        with pytest.raises(LayoutError):
            evaluator._bounds((evaluator.object_names[0],), rows)

    def test_bound_evaluations_counted(self, case):
        evaluator, _, sizes, farm = case
        metrics = MetricsRegistry()
        evaluator.bind_metrics(metrics)
        try:
            base = full_striping(sizes, farm)
            evaluator.set_base(evaluator.matrix_of(base))
            rows = np.array([stripe_fractions([0], farm),
                             stripe_fractions([0, 1], farm)])
            evaluator._bounds((evaluator.object_names[0],), rows)
        finally:
            evaluator.bind_metrics(None)
        assert metrics.value("costmodel.bound_evaluations") == 2.0
