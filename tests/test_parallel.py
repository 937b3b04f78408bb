"""Tests for repro.parallel: shared memory, trajectories, portfolio."""

from __future__ import annotations

import os
import time
import warnings
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.advisor import LayoutAdvisor
from repro.core.costmodel import WorkloadCostEvaluator
from repro.core.fullstripe import full_striping
from repro.core.greedy import TsGreedySearch
from repro.core.random_layout import random_layout
from repro.errors import (
    DegradedResult,
    LayoutError,
    SearchTimeout,
    WorkerCrash,
)
from repro.obs import MetricsRegistry, Tracer
from repro.parallel import (
    PortfolioSearch,
    TrajectorySpec,
    attach_evaluator,
    available_workers,
    default_portfolio,
    reap_orphans,
    share_evaluator,
)
from repro.parallel.portfolio import MAX_WORKERS_ENV
from repro.parallel.worker import TrajectoryContext, run_trajectory
from repro.resilience import Budget, FaultPlan, RetryPolicy
from repro.workload.access import analyze_workload
from repro.workload.access_graph import build_access_graph


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


class TestSharedEvaluator:
    def test_round_trip_is_bit_identical(self, case):
        evaluator, _, sizes, farm = case
        layouts = [full_striping(sizes, farm)] + \
            [random_layout(sizes, farm, seed) for seed in range(5)]
        with share_evaluator(evaluator) as state:
            attached = attach_evaluator(state.spec)
            for layout in layouts:
                assert attached.cost(layout) == evaluator.cost(layout)
            del attached  # release the views before unlink

    def test_attached_arrays_are_read_only_views(self, case):
        evaluator, _, _, _ = case
        with share_evaluator(evaluator) as state:
            attached = attach_evaluator(state.spec)
            assert not attached._blocks.flags.writeable
            np.testing.assert_array_equal(attached._blocks,
                                          evaluator._blocks)
            with pytest.raises(ValueError):
                attached._blocks[0, 0] = 1.0
            del attached

    def test_close_unlinks_the_segment(self, case):
        evaluator, _, _, _ = case
        state = share_evaluator(evaluator)
        name = state.spec.shm_name
        state.close()
        with pytest.raises(LayoutError, match="gone"):
            attach_evaluator(state.spec)
        # And raw reattachment by name fails too: truly unlinked.
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_is_idempotent(self, case):
        evaluator, _, _, _ = case
        state = share_evaluator(evaluator)
        state.close()
        state.close()  # second close must not raise

    def test_no_resource_tracker_warnings(self, case):
        evaluator, graph, sizes, farm = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = PortfolioSearch(farm, evaluator, sizes,
                                     specs=default_portfolio(2),
                                     jobs=2)
            engine.search(graph)

    def test_segment_cleaned_up_when_worker_raises(self, case):
        evaluator, graph, sizes, farm = case
        bad = [TrajectorySpec(method="no-such-method")]
        engine = PortfolioSearch(farm, evaluator, sizes, specs=bad,
                                 jobs=2)
        with pytest.raises(LayoutError):
            engine.search(graph)
        # The finally-path unlink ran: a fresh share uses a new name
        # and nothing of the failed run lingers to collide with it.
        with share_evaluator(evaluator) as state:
            assert state.spec.shm_name


class TestTrajectories:
    def test_unknown_method_raises(self, case):
        evaluator, graph, sizes, farm = case
        from repro.core.constraints import ConstraintSet
        context = TrajectoryContext(
            evaluator=evaluator, farm=farm, sizes=sizes,
            constraints=ConstraintSet(), graph=graph,
            initial_layout=None,
            specs=(TrajectorySpec(method="quantum"),))
        with pytest.raises(LayoutError, match="quantum"):
            run_trajectory(context, 0)

    def test_payload_rebuilds_the_result(self, case):
        evaluator, graph, sizes, farm = case
        from repro.core.constraints import ConstraintSet
        from repro.parallel import rebuild_result
        context = TrajectoryContext(
            evaluator=evaluator, farm=farm, sizes=sizes,
            constraints=ConstraintSet(), graph=graph,
            initial_layout=None, specs=(TrajectorySpec(),))
        payload = run_trajectory(context, 0)
        rebuilt = rebuild_result(payload, farm, sizes)
        direct = TsGreedySearch(farm, evaluator, sizes).search(graph)
        assert rebuilt.cost == direct.cost
        assert _fractions(rebuilt.layout) == _fractions(direct.layout)
        assert rebuilt.evaluations == direct.evaluations
        assert len(rebuilt.steps) == len(direct.steps)

    def test_default_portfolio_shape(self):
        specs = default_portfolio(6)
        assert len(specs) == 6
        assert specs[0].partition_seed is None  # canonical run first
        methods = [s.method for s in specs]
        assert "annealing" in methods
        assert default_portfolio(1)[0].method == "ts-greedy"
        no_anneal = default_portfolio(6, include_annealing=False)
        assert all(s.method == "ts-greedy" for s in no_anneal)
        with pytest.raises(LayoutError):
            default_portfolio(0)


class TestPortfolioSearch:
    def test_parallel_matches_serial_bit_identically(self, case):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(4)
        serial = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=1).search(graph)
        pooled = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=4).search(graph)
        assert pooled.cost == serial.cost
        assert _fractions(pooled.layout) == _fractions(serial.layout)
        assert pooled.evaluations == serial.evaluations
        assert pooled.extras["best_trajectory"] \
            == serial.extras["best_trajectory"]

    def test_winner_equals_best_individual_trajectory(self, case):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(4)
        result = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=1).search(graph)
        individual = []
        for spec in specs:
            if spec.method == "ts-greedy":
                individual.append(TsGreedySearch(
                    farm, evaluator, sizes, k=spec.k,
                    partition_seed=spec.partition_seed,
                    prune=spec.prune).search(graph).cost)
            else:
                from repro.core.annealing import annealing_search
                individual.append(annealing_search(
                    farm, evaluator, sizes, seed=spec.seed,
                    iterations=spec.iterations).cost)
        assert result.cost == min(individual)
        assert int(result.extras["best_trajectory"]) \
            == individual.index(min(individual))

    def test_never_worse_than_canonical_greedy(self, case):
        evaluator, graph, sizes, farm = case
        canonical = TsGreedySearch(farm, evaluator, sizes).search(graph)
        result = PortfolioSearch(farm, evaluator, sizes,
                                 specs=default_portfolio(3),
                                 jobs=1).search(graph)
        assert result.cost <= canonical.cost

    def test_merged_telemetry_and_metrics(self, case):
        evaluator, graph, sizes, farm = case
        tracer, metrics = Tracer(), MetricsRegistry()
        specs = default_portfolio(3)
        result = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=2, tracer=tracer,
                                 metrics=metrics).search(graph)
        assert result.extras["trajectories"] == 3.0
        assert result.extras["workers"] == 2.0
        root = tracer.find("portfolio")
        assert root is not None
        names = [child.name for child in root.children]
        assert names == [f"portfolio/trajectory-{i}" for i in range(3)]
        assert metrics.value("portfolio.trajectories") == 3.0
        assert metrics.value("portfolio.workers") == 2.0
        # Worker-side counters really crossed the process boundary.
        assert metrics.value("greedy.iterations") > 0
        assert metrics.value("costmodel.bound_evaluations") > 0

    def test_rejects_bad_arguments(self, case):
        evaluator, _, sizes, farm = case
        with pytest.raises(LayoutError):
            PortfolioSearch(farm, evaluator, sizes, jobs=-1)
        with pytest.raises(LayoutError):
            PortfolioSearch(farm, evaluator, sizes, specs=[])


class TestAvailableWorkers:
    def test_empty_affinity_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert available_workers() == 6

    def test_missing_affinity_api_falls_back(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert available_workers() == 5

    def test_never_returns_less_than_one(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_workers() == 1

    def test_env_override_caps_the_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setenv(MAX_WORKERS_ENV, "2")
        assert available_workers() == 2
        # A cap above the machine's cores is clamped to the cores.
        monkeypatch.setenv(MAX_WORKERS_ENV, "64")
        assert available_workers() == 4

    def test_env_override_invalid_values_ignored(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        for bad in ("banana", "0", "-2", ""):
            monkeypatch.setenv(MAX_WORKERS_ENV, bad)
            assert available_workers() == 4


class TestFaultTolerance:
    """Deterministic fault injection against the full engine."""

    def test_killed_worker_degrades_to_survivor_best(self, case):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(4)
        engine = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=4,
                                 faults=FaultPlan(kill_worker=1))
        result = engine.search(graph)
        assert result.degraded
        assert [f.index for f in result.failures] == [1]
        failure = result.failures[0]
        assert failure.cause == "crash"
        assert failure.attempts >= 2  # pool try + serial retries
        assert failure.label == specs[1].label
        assert result.extras["trajectories"] == 4.0
        assert result.extras["failed_trajectories"] == 1.0
        # The layout is the exact serial best over the survivors.
        survivors = [spec for i, spec in enumerate(specs) if i != 1]
        baseline = PortfolioSearch(farm, evaluator, sizes,
                                   specs=survivors, jobs=1).search(graph)
        assert result.cost == baseline.cost
        assert _fractions(result.layout) == _fractions(baseline.layout)
        assert reap_orphans() == []  # no shm segment left behind

    def test_resilience_params_cause_zero_drift(self, case):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(3)
        plain = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                jobs=1).search(graph)
        guarded = PortfolioSearch(
            farm, evaluator, sizes, specs=specs, jobs=2,
            deadline=Budget(seconds=300.0), retry=RetryPolicy(),
            trajectory_timeout_s=120.0).search(graph)
        assert not guarded.degraded
        assert guarded.failures == []
        assert guarded.cost == plain.cost
        assert _fractions(guarded.layout) == _fractions(plain.layout)
        assert guarded.evaluations == plain.evaluations

    def test_eval_fault_recovers_via_retry(self, case):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(2)
        baseline = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                   jobs=1).search(graph)
        metrics = MetricsRegistry()
        engine = PortfolioSearch(
            farm, evaluator, sizes, specs=specs, jobs=1,
            metrics=metrics,
            retry=RetryPolicy(attempts=2, base_delay_s=0.0),
            faults=FaultPlan(fail_eval=0, fail_eval_times=1))
        result = engine.search(graph)
        assert not result.degraded
        assert result.cost == baseline.cost
        assert metrics.value("resilience.retries") == 1.0

    def test_eval_fault_exhausts_retries_and_degrades(self, case):
        evaluator, graph, sizes, farm = case
        engine = PortfolioSearch(
            farm, evaluator, sizes, specs=default_portfolio(2),
            jobs=1, retry=RetryPolicy(attempts=2, base_delay_s=0.0),
            faults=FaultPlan(fail_eval=0))  # fails every attempt
        result = engine.search(graph)
        assert result.degraded
        assert [f.index for f in result.failures] == [0]
        assert result.failures[0].cause == "crash"
        assert result.failures[0].attempts == 2

    def test_shm_attach_fault_falls_back_serially(self, case):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(3)
        baseline = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                   jobs=1).search(graph)
        metrics = MetricsRegistry()
        engine = PortfolioSearch(
            farm, evaluator, sizes, specs=specs, jobs=2,
            backend="process", metrics=metrics,
            faults=FaultPlan(fail_shm_attach=True))
        result = engine.search(graph)
        # Every worker died attaching; the serial fallback recovered
        # every trajectory, so the run is NOT degraded and the result
        # is bit-identical to the healthy serial run.
        assert not result.degraded
        assert result.cost == baseline.cost
        assert _fractions(result.layout) == _fractions(baseline.layout)
        assert metrics.value("resilience.serial_fallbacks") == 3.0
        assert reap_orphans() == []

    def test_pool_broken_while_queueing_falls_back_serially(
            self, case, monkeypatch):
        # A worker dying in its initializer can break the pool before
        # the last task is queued; submit() then raises instead of
        # handing back a failed future.  Force that ordering.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        from repro.parallel import portfolio

        class BreaksAfterFirstSubmit(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                if getattr(self, "_queued", False):
                    raise BrokenProcessPool("worker died in initializer")
                self._queued = True
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(portfolio, "ProcessPoolExecutor",
                            BreaksAfterFirstSubmit)
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(3)
        baseline = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                   jobs=1).search(graph)
        metrics = MetricsRegistry()
        result = PortfolioSearch(
            farm, evaluator, sizes, specs=specs, jobs=2,
            backend="process", metrics=metrics,
            faults=FaultPlan(fail_shm_attach=True)).search(graph)
        assert not result.degraded
        assert result.cost == baseline.cost
        assert _fractions(result.layout) == _fractions(baseline.layout)
        assert metrics.value("resilience.serial_fallbacks") == 3.0
        assert reap_orphans() == []

    def test_slow_trajectory_times_out(self, case):
        evaluator, graph, sizes, farm = case
        engine = PortfolioSearch(
            farm, evaluator, sizes, specs=default_portfolio(2),
            jobs=2, trajectory_timeout_s=0.5,
            faults=FaultPlan(delay_trajectory=1, delay_s=3.0))
        result = engine.search(graph)
        assert result.degraded
        assert [f.index for f in result.failures] == [1]
        assert result.failures[0].cause == "timeout"
        assert reap_orphans() == []

    def test_deadline_skips_remaining_trajectories(self, case):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(3)
        engine = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=1, deadline=0.0)
        result = engine.search(graph)
        # Trajectory 0 always runs (a result beats an empty timeout);
        # the rest are recorded as timeouts without being started.
        assert result.degraded
        assert [f.index for f in result.failures] == [1, 2]
        assert all(f.cause == "timeout" for f in result.failures)
        only_first = PortfolioSearch(farm, evaluator, sizes,
                                     specs=specs[:1],
                                     jobs=1).search(graph)
        assert result.cost == only_first.cost

    def test_nothing_completes_raises_search_timeout(
            self, case, monkeypatch):
        evaluator, graph, sizes, farm = case

        def stuck(context, index):
            time.sleep(2.0)
            raise AssertionError("should have been abandoned")

        # fork workers inherit the patched module state.
        monkeypatch.setattr("repro.parallel.worker.run_trajectory",
                            stuck)
        engine = PortfolioSearch(farm, evaluator, sizes,
                                 specs=default_portfolio(2), jobs=2,
                                 trajectory_timeout_s=0.2)
        with pytest.raises(SearchTimeout):
            engine.search(graph)
        assert reap_orphans() == []

    def test_all_crash_raises_worker_crash(self, case):
        evaluator, graph, sizes, farm = case
        engine = PortfolioSearch(
            farm, evaluator, sizes, specs=[TrajectorySpec()], jobs=1,
            retry=RetryPolicy(attempts=2, base_delay_s=0.0),
            faults=FaultPlan(kill_worker=0))
        with pytest.raises(WorkerCrash):
            engine.search(graph)

    def test_keyboard_interrupt_unlinks_segment(self, case,
                                                monkeypatch):
        evaluator, graph, sizes, farm = case
        captured = {}
        original = share_evaluator

        def capturing(ev):
            state = original(ev)
            captured["name"] = state.spec.shm_name
            return state

        monkeypatch.setattr("repro.parallel.portfolio.share_evaluator",
                            capturing)
        engine = PortfolioSearch(farm, evaluator, sizes,
                                 specs=default_portfolio(2), jobs=2,
                                 backend="process")

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "_drain", interrupted)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(KeyboardInterrupt):
                engine.search(graph)
        # The finally-owned close ran: the segment is really unlinked
        # and the orphan ledger has nothing left to sweep.
        assert "name" in captured
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=captured["name"])
        assert reap_orphans() == []

    def test_faults_spec_string_round_trips_from_env(self, case,
                                                     monkeypatch):
        evaluator, graph, sizes, farm = case
        monkeypatch.setenv("REPRO_FAULTS", "kill_worker=1")
        engine = PortfolioSearch(farm, evaluator, sizes,
                                 specs=default_portfolio(2), jobs=2)
        result = engine.search(graph)
        assert result.degraded
        assert [f.index for f in result.failures] == [1]


class TestAdvisorPortfolio:
    def test_method_portfolio_matches_jobs_invariance(
            self, mini_db, join_workload, farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        serial = advisor.recommend(join_workload, method="portfolio",
                                   portfolio=3, jobs=1)
        pooled = advisor.recommend(join_workload, method="portfolio",
                                   portfolio=3, jobs=2)
        assert pooled.estimated_cost == serial.estimated_cost
        assert _fractions(pooled.layout) == _fractions(serial.layout)

    def test_portfolio_never_worse_than_ts_greedy(
            self, mini_db, join_workload, farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        greedy = advisor.recommend(join_workload, method="ts-greedy")
        portfolio = advisor.recommend(join_workload,
                                      method="portfolio", portfolio=3)
        assert portfolio.estimated_cost <= greedy.estimated_cost

    def test_constrained_portfolio_drops_annealing(
            self, mini_db, join_workload, farm8):
        from repro.core.constraints import CoLocated, ConstraintSet
        constraints = ConstraintSet(
            co_located=[CoLocated("big", "idx_big_d")])
        advisor = LayoutAdvisor(mini_db, farm8,
                                constraints=constraints)
        rec = advisor.recommend(join_workload, method="portfolio",
                                portfolio=4, jobs=2)
        assert rec.search.extras["trajectories"] == 4.0
        constraints.check(rec.layout)

    def test_degraded_run_warns_and_matches_survivors(
            self, mini_db, join_workload, farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        with pytest.warns(DegradedResult,
                          match=r"1/4 trajectories failed"):
            rec = advisor.recommend(join_workload, method="portfolio",
                                    portfolio=4, jobs=4,
                                    faults=FaultPlan(kill_worker=1))
        assert rec.search.degraded
        assert [f.index for f in rec.search.failures] == [1]
        assert rec.search.failures[0].cause == "crash"
        # The recommendation equals a healthy run over the survivors.
        specs = default_portfolio(4)
        survivors = [spec for i, spec in enumerate(specs) if i != 1]
        baseline = advisor.recommend(join_workload, method="portfolio",
                                     portfolio=survivors, jobs=1)
        assert rec.estimated_cost == baseline.estimated_cost
        assert _fractions(rec.layout) == _fractions(baseline.layout)
        assert reap_orphans() == []

    def test_deadline_parameter_reaches_the_engine(
            self, mini_db, join_workload, farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        with pytest.warns(DegradedResult):
            rec = advisor.recommend(join_workload, method="portfolio",
                                    portfolio=3, jobs=1, deadline=0.0)
        assert rec.search.degraded
        # One trajectory still ran, so the layout is real and valid.
        assert rec.layout.object_names
        causes = {f.cause for f in rec.search.failures}
        assert causes == {"timeout"}

    def test_report_shows_degradation(self, mini_db, join_workload,
                                      farm8):
        from repro.core.report import render_report
        advisor = LayoutAdvisor(mini_db, farm8)
        with pytest.warns(DegradedResult):
            rec = advisor.recommend(join_workload, method="portfolio",
                                    portfolio=4, jobs=4,
                                    faults=FaultPlan(kill_worker=1))
        text = render_report(rec)
        assert "degraded: 1/4 trajectories failed (crash)" in text
