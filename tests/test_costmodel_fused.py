"""Tests for the evaluator's fast path: the fused prune+evaluate
kernel, O(Δ) base commits, chunk auto-sizing, clones, and the
thread-backed portfolio.

Every optimization here claims bit-identical results to the code it
replaced; these tests hold it to that — ``==`` and
``np.array_equal``, not ``pytest.approx``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import costmodel
from repro.core.costmodel import (
    _CHUNK_MAX,
    _CHUNK_MIN,
    PACKED_ARRAYS,
    WorkloadCostEvaluator,
)
from repro.core.fullstripe import full_striping
from repro.core.greedy import TsGreedySearch
from repro.core.layout import stripe_fractions
from repro.core.tolerance import EPS_COST
from repro.errors import LayoutError
from repro.obs import MetricsRegistry
from repro.parallel import PortfolioSearch, default_portfolio
from repro.parallel.portfolio import AUTO_THREAD_MAX_BYTES, BACKEND_CODES
from repro.resilience import FaultPlan
from repro.workload.access import analyze_workload
from repro.workload.access_graph import build_access_graph

# The conftest fixtures are read-only; sharing them across hypothesis
# examples is safe (same suppression the costmodel tests use).
_PROPERTY = settings(
    deadline=None, max_examples=20,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture
def case(mini_db, join_workload, farm8):
    analyzed = analyze_workload(join_workload, mini_db)
    sizes = mini_db.object_sizes()
    evaluator = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
    graph = build_access_graph(analyzed, mini_db)
    return evaluator, graph, sizes, farm8


def _fractions(layout):
    return {name: layout.fractions_of(name)
            for name in layout.object_names}


def _random_row(rng, farm) -> np.ndarray:
    """A stripe row over a random non-empty disk subset."""
    n_disks = rng.integers(1, len(farm) + 1)
    subset = rng.choice(len(farm), size=n_disks, replace=False)
    return np.array(stripe_fractions([int(j) for j in subset], farm))


def _random_rows(rng, farm, count) -> np.ndarray:
    return np.array([_random_row(rng, farm) for _ in range(count)])


class TestCommitRows:
    """commit_rows must be indistinguishable from a fresh set_base."""

    @_PROPERTY
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_commit_sequence_matches_fresh_set_base(
            self, mini_db, join_workload, farm8, seed):
        analyzed = analyze_workload(join_workload, mini_db)
        sizes = mini_db.object_sizes()
        incremental = WorkloadCostEvaluator(analyzed, farm8,
                                            sorted(sizes))
        fresh = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
        rng = np.random.default_rng(seed)
        base = full_striping(sizes, farm8)
        matrix = incremental.matrix_of(base)
        incremental.set_base(matrix.copy())
        names = incremental.object_names
        for _ in range(6):
            # Commit one to three objects at once (multi-row commits
            # are the co-location path).
            count = int(rng.integers(1, 4))
            picked = rng.choice(len(names), size=count, replace=False)
            rows = {names[int(i)]: _random_row(rng, farm8)
                    for i in picked}
            committed_total = incremental.commit_rows(rows)
            for name, row in rows.items():
                matrix[names.index(name)] = row
            fresh_total = fresh.set_base(matrix.copy())
            # Bit-identical, not approximately equal: the O(Δ) commit
            # recomputes exactly the touched subplans and re-derives
            # the total with the same full dot product.
            assert committed_total == fresh_total
            assert np.array_equal(incremental._base_costs,
                                  fresh._base_costs)
            assert np.array_equal(incremental._base_matrix,
                                  fresh._base_matrix)
            # And the caches the commit preserved/invalidated serve
            # the same answers a cold evaluator computes.
            probe_name = names[int(rng.integers(0, len(names)))]
            probe = _random_row(rng, farm8)
            assert np.array_equal(
                incremental.costs_for_rows((probe_name,), probe[None]),
                fresh.costs_for_rows((probe_name,), probe[None]))

    @_PROPERTY
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_interleaved_set_base_and_commits(
            self, mini_db, join_workload, farm8, seed):
        """Epoch bookkeeping survives set_base between commits.

        Regression guard: a commit must never re-validate cache
        entries left over from *before* an intervening set_base —
        they describe a dead base.
        """
        analyzed = analyze_workload(join_workload, mini_db)
        sizes = mini_db.object_sizes()
        evaluator = WorkloadCostEvaluator(analyzed, farm8,
                                          sorted(sizes))
        rng = np.random.default_rng(seed)
        names = evaluator.object_names
        matrix = evaluator.matrix_of(full_striping(sizes, farm8))
        evaluator.set_base(matrix.copy())
        for _ in range(8):
            action = rng.integers(0, 3)
            if action == 0:
                # Warm the per-object caches at the current epoch.
                name = names[int(rng.integers(0, len(names)))]
                evaluator.costs_for_rows((name,),
                                         _random_rows(rng, farm8, 3))
            elif action == 1:
                i = int(rng.integers(0, len(names)))
                matrix[i] = _random_row(rng, farm8)
                evaluator.set_base(matrix.copy())
            else:
                i = int(rng.integers(0, len(names)))
                row = _random_row(rng, farm8)
                matrix[i] = row
                evaluator.commit_rows({names[i]: row})
        # After any interleaving, every object's delta costs must
        # match a cold evaluator given the same final base.
        cold = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
        cold.set_base(matrix.copy())
        for name in names:
            probes = _random_rows(rng, farm8, 4)
            assert np.array_equal(
                evaluator.costs_for_rows((name,), probes),
                cold.costs_for_rows((name,), probes))

    def test_commit_before_set_base_raises(self, case):
        evaluator, _, _, farm = case
        with pytest.raises(LayoutError, match="set_base"):
            evaluator.commit_rows(
                {"big": np.array(stripe_fractions([0], farm))})

    def test_empty_commit_keeps_total_and_caches(self, case):
        evaluator, _, sizes, farm = case
        base_cost = evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        probe = np.array(stripe_fractions([0, 1], farm))
        before = evaluator.costs_for_rows(("big",), probe[None])
        assert evaluator.commit_rows({}) == base_cost
        assert np.array_equal(
            evaluator.costs_for_rows(("big",), probe[None]), before)

    def test_commit_counts_metric(self, case):
        evaluator, _, sizes, farm = case
        metrics = MetricsRegistry()
        evaluator.bind_metrics(metrics)
        evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        evaluator.commit_rows(
            {"big": np.array(stripe_fractions([0], farm))})
        assert metrics.value("costmodel.commit_evaluations") == 1.0


class TestBestForRows:
    """The fused kernel vs the composition it replaced."""

    def _naive(self, evaluator, name, rows, incumbent, prune=True):
        """bounds -> prune -> costs -> sequential epsilon acceptance,
        exactly as the pre-fusion greedy loop composed them."""
        if prune:
            bounds = evaluator._bounds((name,), rows)
            keep = np.nonzero(bounds < incumbent - EPS_COST)[0]
            pruned = len(rows) - int(keep.size)
        else:
            keep = np.arange(len(rows))
            pruned = 0
        best_cost, best_index = float(incumbent), -1
        if keep.size:
            costs = evaluator.costs_for_rows((name,), rows[keep])
            for position, cost in enumerate(costs):
                if cost < best_cost - EPS_COST:
                    best_cost = float(cost)
                    best_index = int(keep[position])
        return best_cost, best_index, pruned

    @_PROPERTY
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_fused_matches_naive_composition(
            self, mini_db, join_workload, farm8, seed):
        analyzed = analyze_workload(join_workload, mini_db)
        sizes = mini_db.object_sizes()
        evaluator = WorkloadCostEvaluator(analyzed, farm8,
                                          sorted(sizes))
        rng = np.random.default_rng(seed)
        base_cost = evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm8)))
        names = evaluator.object_names
        name = names[int(rng.integers(0, len(names)))]
        rows = _random_rows(rng, farm8, int(rng.integers(1, 40)))
        # Sweep the incumbent from hopeless to generous so the
        # all-pruned, some-pruned and none-pruned regimes all occur.
        incumbent = float(base_cost * rng.uniform(0.2, 1.5))
        for prune in (True, False):
            assert evaluator.best_for_rows((name,), rows, incumbent,
                                           prune=prune) \
                == self._naive(evaluator, name, rows, incumbent,
                               prune=prune)

    def test_all_pruned_returns_incumbent_unchanged(self, case):
        evaluator, _, sizes, farm = case
        evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        rows = np.array([stripe_fractions([j], farm)
                         for j in range(len(farm))])
        # An impossible incumbent: every bound exceeds it, every
        # candidate is pruned, and the incumbent comes back intact.
        best_cost, best_index, pruned = \
            evaluator.best_for_rows(("big",), rows, 0.0)
        assert (best_cost, best_index) == (0.0, -1)
        assert pruned == len(rows)

    def test_empty_rows_is_a_noop(self, case):
        evaluator, _, sizes, farm = case
        evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        assert evaluator.best_for_rows(
            ("big",), np.empty((0, len(farm))), 42.0) == (42.0, -1, 0)

    def test_prune_flag_changes_counts_not_results(self, case):
        evaluator, _, sizes, farm = case
        incumbent = evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        rows = np.array([stripe_fractions(subset, farm)
                         for subset in ([0], [1], [0, 1], [0, 1, 2],
                                        list(range(len(farm))))])
        pruned_run = evaluator.best_for_rows(("big",), rows, incumbent,
                                             prune=True)
        full_run = evaluator.best_for_rows(("big",), rows, incumbent,
                                           prune=False)
        assert pruned_run[:2] == full_run[:2]
        assert full_run[2] == 0

    def test_fused_counts_metric(self, case):
        evaluator, _, sizes, farm = case
        metrics = MetricsRegistry()
        evaluator.bind_metrics(metrics)
        incumbent = evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        rows = np.array([stripe_fractions([0], farm)])
        evaluator.best_for_rows(("big",), rows, incumbent)
        assert metrics.value("costmodel.fused_evaluations") == 1.0


class TestChunkAutoSizing:
    def test_chunk_size_never_changes_results(self, case, monkeypatch):
        evaluator, _, sizes, farm = case
        evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm)))
        rng = np.random.default_rng(7)
        rows = _random_rows(rng, farm, 100)
        auto = evaluator.costs_for_rows(("big",), rows)
        for chunk in (1, 16, 33, 1024):
            # Pinning both clamps forces the auto-sizer to ``chunk``.
            monkeypatch.setattr(costmodel, "_CHUNK_MIN", chunk)
            monkeypatch.setattr(costmodel, "_CHUNK_MAX", chunk)
            assert evaluator._auto_chunk(1) == chunk
            assert np.array_equal(
                auto, evaluator.costs_for_rows(("big",), rows))

    def test_auto_chunk_is_clamped_and_shape_only(self, case):
        evaluator, _, _, _ = case
        for n_affected in (0, 1, 3, 100, 10_000):
            chunk = evaluator._auto_chunk(n_affected)
            assert _CHUNK_MIN <= chunk <= _CHUNK_MAX
        # More affected subplans -> same or smaller chunks (a fixed
        # byte budget for the candidate tensor).
        assert evaluator._auto_chunk(1) >= evaluator._auto_chunk(100)


class TestClone:
    def test_clone_shares_packed_arrays(self, case):
        evaluator, _, _, _ = case
        twin = evaluator.clone()
        for attr in PACKED_ARRAYS:
            assert getattr(twin, attr) is getattr(evaluator, attr)

    def test_clone_costs_agree(self, case):
        evaluator, _, sizes, farm = case
        twin = evaluator.clone()
        layout = full_striping(sizes, farm)
        assert twin.cost(layout) == evaluator.cost(layout)

    def test_clone_base_state_is_isolated(self, case):
        evaluator, _, sizes, farm = case
        base = evaluator.matrix_of(full_striping(sizes, farm))
        base_cost = evaluator.set_base(base)
        twin = evaluator.clone()
        # The clone starts without a base of its own...
        with pytest.raises(LayoutError, match="set_base"):
            twin.costs_for_rows(("big",),
                                np.array([stripe_fractions([0], farm)]))
        # ...and committing into it never leaks into the parent.
        twin.set_base(base.copy())
        twin.commit_rows(
            {"big": np.array(stripe_fractions([0], farm))})
        probe = np.array(stripe_fractions([0, 1], farm))
        assert evaluator.commit_rows({}) == base_cost
        fresh = evaluator.clone()
        fresh.set_base(base.copy())
        assert np.array_equal(
            evaluator.costs_for_rows(("big",), probe[None]),
            fresh.costs_for_rows(("big",), probe[None]))


class TestThreadBackend:
    def test_thread_serial_process_bit_identical(self, case):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(3)
        runs = {
            "serial": PortfolioSearch(farm, evaluator, sizes,
                                      specs=specs, jobs=1),
            "thread": PortfolioSearch(farm, evaluator, sizes,
                                      specs=specs, jobs=2,
                                      backend="thread"),
            "process": PortfolioSearch(farm, evaluator, sizes,
                                       specs=specs, jobs=2,
                                       backend="process"),
        }
        results = {name: engine.search(graph)
                   for name, engine in runs.items()}
        serial = results["serial"]
        for name in ("thread", "process"):
            assert results[name].cost == serial.cost
            assert _fractions(results[name].layout) \
                == _fractions(serial.layout)
            assert results[name].evaluations == serial.evaluations
            assert results[name].extras["best_trajectory"] \
                == serial.extras["best_trajectory"]

    def test_backend_reported_in_extras_and_gauge(self, case):
        evaluator, graph, sizes, farm = case
        # jobs=1 always resolves to the serial backend; explicit
        # thread/process are honored for parallel runs.
        for backend, jobs, expected in (("auto", 1, "serial"),
                                        ("thread", 2, "thread")):
            metrics = MetricsRegistry()
            result = PortfolioSearch(
                farm, evaluator, sizes, specs=default_portfolio(2),
                jobs=jobs, backend=backend,
                metrics=metrics).search(graph)
            assert result.extras["backend"] \
                == float(BACKEND_CODES[expected])
            assert metrics.value("portfolio.backend") \
                == float(BACKEND_CODES[expected])

    def test_auto_picks_thread_for_small_packings(self, case):
        evaluator, graph, sizes, farm = case
        assert evaluator.packed_nbytes <= AUTO_THREAD_MAX_BYTES
        result = PortfolioSearch(farm, evaluator, sizes,
                                 specs=default_portfolio(2),
                                 jobs=2).search(graph)
        assert result.extras["backend"] \
            == float(BACKEND_CODES["thread"])

    def test_unknown_backend_rejected(self, case):
        evaluator, _, sizes, farm = case
        with pytest.raises(LayoutError, match="backend"):
            PortfolioSearch(farm, evaluator, sizes, backend="gpu")

    def test_thread_kill_fault_degrades_to_survivor_best(self, case):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(4)
        result = PortfolioSearch(
            farm, evaluator, sizes, specs=specs, jobs=4,
            backend="thread",
            faults=FaultPlan(kill_worker=1)).search(graph)
        assert result.degraded
        assert [f.index for f in result.failures] == [1]
        assert result.failures[0].cause == "crash"
        survivors = [spec for i, spec in enumerate(specs) if i != 1]
        baseline = PortfolioSearch(farm, evaluator, sizes,
                                   specs=survivors,
                                   jobs=1).search(graph)
        assert result.cost == baseline.cost
        assert _fractions(result.layout) == _fractions(baseline.layout)

    def test_thread_delay_fault_times_out(self, case):
        evaluator, graph, sizes, farm = case
        result = PortfolioSearch(
            farm, evaluator, sizes, specs=default_portfolio(2),
            jobs=2, backend="thread", trajectory_timeout_s=0.5,
            faults=FaultPlan(delay_trajectory=1,
                             delay_s=3.0)).search(graph)
        assert result.degraded
        assert [f.index for f in result.failures] == [1]
        assert result.failures[0].cause == "timeout"


class TestGreedyUsesFastPath:
    def test_greedy_search_emits_commit_and_fused_counters(self, case):
        evaluator, graph, sizes, farm = case
        metrics = MetricsRegistry()
        evaluator.bind_metrics(metrics)
        result = TsGreedySearch(farm, evaluator, sizes, prune=True,
                                metrics=metrics).search(graph)
        assert result.cost > 0
        assert metrics.value("costmodel.fused_evaluations") > 0
        assert metrics.value("costmodel.commit_evaluations") > 0
