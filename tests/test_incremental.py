"""Tests for the incremental re-layout engine.

Covers the three tentpole pieces — drift detection
(:mod:`repro.workload.drift`), budget-bounded search
(:mod:`repro.core.incremental`) and migration planning
(:mod:`repro.storage.migration`) — plus the end-to-end acceptance
scenario over the ``examples/tpch`` inputs: a drifted workload, a
Δ = 0.2 movement budget that must be honored, and Δ = 1.0 matching the
unconstrained TS-GREEDY result.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.audit_rules import check_migration
from repro.catalog.io import load_database, load_farm
from repro.core.advisor import LayoutAdvisor
from repro.core.constraints import CoLocated, ConstraintSet
from repro.core.costmodel import CostModel, WorkloadCostEvaluator
from repro.core.fullstripe import full_striping
from repro.core.incremental import IncrementalSearch
from repro.core.layout import Layout
from repro.core.tolerance import EPS_COST, EPS_FRACTION
from repro.core import tolerance
from repro.errors import LayoutError
from repro.obs import MetricsRegistry, Tracer
from repro.optimizer.operators import ObjectAccess
from repro.storage import migration as migration_module
from repro.storage.disk import DiskSpec, DiskFarm, uniform_farm
from repro.storage.migration import (
    MigrationPlan,
    MigrationStep,
    plan_migration,
)
from repro.workload.access import (
    AnalyzedStatement,
    AnalyzedWorkload,
    SubplanAccess,
)
from repro.workload.access_graph import AccessGraph, build_access_graph
from repro.workload.drift import (
    RELAYOUT_THRESHOLD,
    DriftReport,
    detect_drift,
)
from repro.workload.workload import Statement, Workload

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "tpch"


def graph_of(nodes: dict[str, float],
             edges: dict[tuple[str, str], float] = ()) -> AccessGraph:
    graph = AccessGraph(nodes)
    for name, weight in nodes.items():
        graph.add_node_weight(name, weight)
    for (u, v), weight in dict(edges or {}).items():
        graph.add_edge_weight(u, v, weight)
    return graph


class TestDriftDetection:
    def test_identical_windows_score_zero(self):
        g = graph_of({"a": 100.0, "b": 50.0}, {("a", "b"): 30.0})
        report = detect_drift(g, g)
        assert report.score == 0.0
        assert not report.relayout_recommended
        assert report.objects == [] and report.edges == []

    def test_disjoint_windows_score_one(self):
        before = graph_of({"a": 100.0})
        after = graph_of({"b": 100.0})
        report = detect_drift(before, after)
        assert report.node_drift == pytest.approx(1.0)
        assert report.score >= RELAYOUT_THRESHOLD
        assert report.relayout_recommended

    def test_small_noise_stays_under_threshold(self):
        before = graph_of({"a": 100.0, "b": 50.0}, {("a", "b"): 30.0})
        after = graph_of({"a": 102.0, "b": 49.0}, {("a", "b"): 30.5})
        report = detect_drift(before, after)
        assert report.score < RELAYOUT_THRESHOLD
        assert not report.relayout_recommended

    def test_score_blends_node_and_edge_terms(self):
        before = graph_of({"a": 100.0, "b": 100.0}, {("a", "b"): 10.0})
        after = graph_of({"a": 100.0, "b": 100.0}, {("a", "b"): 90.0})
        report = detect_drift(before, after)
        assert report.node_drift == pytest.approx(0.0)
        assert report.edge_drift == pytest.approx(0.8)
        assert report.score == pytest.approx(0.4)

    def test_deltas_sorted_by_magnitude(self):
        before = graph_of({"a": 100.0, "b": 100.0, "c": 100.0})
        after = graph_of({"a": 500.0, "b": 90.0, "c": 100.0})
        report = detect_drift(before, after)
        assert [o.name for o in report.objects] == ["a", "b"]
        assert report.objects[0].delta == pytest.approx(400.0)

    def test_round_trip(self):
        before = graph_of({"a": 100.0, "b": 50.0}, {("a", "b"): 30.0})
        after = graph_of({"a": 10.0, "c": 80.0}, {("a", "c"): 20.0})
        report = detect_drift(before, after)
        rebuilt = DriftReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.relayout_recommended == \
            report.relayout_recommended

    def test_describe_names_the_verdict(self):
        before = graph_of({"a": 100.0})
        after = graph_of({"b": 100.0})
        text = detect_drift(before, after).describe()
        assert "re-layout recommended" in text
        assert "drift score" in text

    def test_observability(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        before = graph_of({"a": 100.0})
        after = graph_of({"b": 100.0})
        report = detect_drift(before, after, tracer=tracer,
                              metrics=metrics)
        assert metrics.value("drift.score") == pytest.approx(
            report.score)
        assert metrics.value("drift.relayout_recommended") == 1
        assert tracer.find("detect-drift") is not None


def two_disk_farm(capacity: int = 1000) -> DiskFarm:
    def disk(name):
        return DiskSpec(name=name, capacity_blocks=capacity,
                        avg_seek_s=0.009, read_mb_s=20.0,
                        write_mb_s=20.0)
    return DiskFarm([disk("A"), disk("B")])


class TestMigrationPlanner:
    def test_tolerances_mirror_core(self):
        # storage cannot import core at module load (layering), so the
        # capacity tolerance is mirrored; keep them in sync.
        assert migration_module.EPS_CAPACITY == tolerance.EPS_CAPACITY

    def test_identity_is_empty(self):
        farm = two_disk_farm()
        layout = Layout(farm, {"t": 100}, {"t": [1.0, 0.0]})
        plan = plan_migration(layout, layout)
        assert len(plan) == 0
        assert plan.moved_blocks == 0.0
        assert plan.est_seconds == 0.0
        assert plan.is_capacity_safe(layout)

    def test_simple_move_matches_layout_distance(self):
        farm = two_disk_farm()
        sizes = {"t": 100, "u": 200}
        current = Layout(farm, sizes, {"t": [1.0, 0.0],
                                       "u": [0.0, 1.0]})
        target = Layout(farm, sizes, {"t": [0.0, 1.0],
                                      "u": [0.0, 1.0]})
        plan = plan_migration(current, target)
        assert plan.moved_blocks == pytest.approx(
            current.data_movement_blocks(target))
        assert plan.moved_fraction == pytest.approx(100 / 300)
        assert plan.staged_blocks == 0.0
        assert plan.is_capacity_safe(current)
        assert all(s.est_seconds > 0 for s in plan.steps)

    def test_fig7_step_seconds(self):
        farm = two_disk_farm()
        plan = plan_migration(
            Layout(farm, {"t": 100}, {"t": [1.0, 0.0]}),
            Layout(farm, {"t": 100}, {"t": [0.0, 1.0]}))
        (step,) = plan.steps
        expected = (farm[0].avg_seek_s + farm[1].avg_seek_s
                    + 100 / farm[0].read_blocks_s
                    + 100 / farm[1].write_blocks_s)
        assert step.est_seconds == pytest.approx(expected)

    def test_swap_on_full_disks_stages(self):
        # Both disks 90% full; swapping t and u cannot proceed directly
        # in full steps — the planner must break the cycle.
        farm = two_disk_farm(capacity=1000)
        sizes = {"t": 900, "u": 900}
        current = Layout(farm, sizes, {"t": [1.0, 0.0],
                                       "u": [0.0, 1.0]})
        target = Layout(farm, sizes, {"t": [0.0, 1.0],
                                      "u": [1.0, 0.0]})
        plan = plan_migration(current, target)
        assert plan.is_capacity_safe(current)
        assert plan.moved_blocks == pytest.approx(1800.0)
        # partial moves shuttle 100 blocks at a time; far more than the
        # two steps a roomy farm would need
        assert len(plan) > 2

    def test_cycle_with_spare_disk_stages_through_it(self):
        def disk(name, capacity):
            return DiskSpec(name=name, capacity_blocks=capacity,
                            avg_seek_s=0.009, read_mb_s=20.0,
                            write_mb_s=20.0)
        farm = DiskFarm([disk("A", 100), disk("B", 100),
                         disk("S", 100)])
        sizes = {"t": 100, "u": 100}
        current = Layout(farm, sizes, {"t": [1.0, 0.0, 0.0],
                                       "u": [0.0, 1.0, 0.0]})
        target = Layout(farm, sizes, {"t": [0.0, 1.0, 0.0],
                                      "u": [1.0, 0.0, 0.0]})
        plan = plan_migration(current, target)
        assert plan.is_capacity_safe(current)
        assert plan.staged_blocks > 0
        assert any(s.staged for s in plan.steps)
        # staged blocks transfer twice: gross step volume exceeds net
        assert sum(s.blocks for s in plan.steps) > plan.moved_blocks

    def test_totally_full_swap_is_impossible(self):
        farm = two_disk_farm(capacity=100)
        sizes = {"t": 100, "u": 100}
        current = Layout(farm, sizes, {"t": [1.0, 0.0],
                                       "u": [0.0, 1.0]})
        target = Layout(farm, sizes, {"t": [0.0, 1.0],
                                      "u": [1.0, 0.0]})
        with pytest.raises(LayoutError, match="blocked"):
            plan_migration(current, target)

    def test_different_farms_rejected(self):
        farm = two_disk_farm()
        other = uniform_farm(4, capacity_gb=2.0)
        with pytest.raises(LayoutError, match="different"):
            plan_migration(
                Layout(farm, {"t": 10}, {"t": [1.0, 0.0]}),
                Layout(other, {"t": 10},
                       {"t": [1.0, 0.0, 0.0, 0.0]}))

    def test_plan_round_trip(self):
        farm = two_disk_farm()
        plan = plan_migration(
            Layout(farm, {"t": 100}, {"t": [1.0, 0.0]}),
            Layout(farm, {"t": 100}, {"t": [0.5, 0.5]}))
        rebuilt = MigrationPlan.from_dict(
            json.loads(json.dumps(plan.to_dict())))
        assert rebuilt.to_dict() == plan.to_dict()
        assert len(rebuilt) == len(plan)

    def test_observability(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        farm = two_disk_farm()
        plan_migration(
            Layout(farm, {"t": 100}, {"t": [1.0, 0.0]}),
            Layout(farm, {"t": 100}, {"t": [0.0, 1.0]}),
            tracer=tracer, metrics=metrics)
        assert metrics.value("incremental.migration_steps") == 1
        assert metrics.value("incremental.moved_blocks") == \
            pytest.approx(100.0)
        assert tracer.find("plan-migration") is not None


class TestMigrationAuditRules:
    def test_clean_plan_has_no_findings(self):
        farm = two_disk_farm()
        current = Layout(farm, {"t": 100}, {"t": [1.0, 0.0]})
        target = Layout(farm, {"t": 100}, {"t": [0.0, 1.0]})
        plan = plan_migration(current, target)
        assert list(check_migration(plan, current,
                                    movement_budget=1.0)) == []

    def test_alr032_fires_on_budget_overrun(self):
        farm = two_disk_farm()
        current = Layout(farm, {"t": 100}, {"t": [1.0, 0.0]})
        plan = MigrationPlan(
            steps=[MigrationStep("t", 0, 1, 100.0, 1.0)],
            moved_blocks=100.0, est_seconds=1.0, moved_fraction=1.0)
        findings = list(check_migration(plan, current,
                                        movement_budget=0.2))
        assert [f.rule_id for f in findings] == ["ALR032"]

    def test_alr033_fires_on_overflowing_step(self):
        farm = two_disk_farm(capacity=100)
        sizes = {"t": 90, "u": 90}
        current = Layout(farm, sizes, {"t": [1.0, 0.0],
                                       "u": [0.0, 1.0]})
        bad = MigrationPlan(
            steps=[MigrationStep("t", 0, 1, 90.0, 1.0)],
            moved_blocks=90.0, est_seconds=1.0, moved_fraction=0.5)
        findings = list(check_migration(bad, current))
        assert [f.rule_id for f in findings] == ["ALR033"]
        assert not bad.is_capacity_safe(current)


class TestIncrementalSearchValidation:
    def test_budget_outside_unit_interval_rejected(self, mini_db,
                                                   farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        workload = Workload(name="w")
        workload.add("SELECT SUM(b.v) FROM big b", name="S1")
        for bad in (-0.1, 1.5):
            with pytest.raises(LayoutError, match="movement budget"):
                advisor.recommend(workload, method="incremental",
                                  movement_budget=bad)

    def test_movement_constraint_conflicts(self, mini_db, farm8):
        from repro.core.constraints import (
            ConstraintSet,
            MaxDataMovement,
        )
        baseline = full_striping(mini_db.object_sizes(), farm8)
        constraints = ConstraintSet(
            movement=MaxDataMovement(baseline, max_blocks=10))
        with pytest.raises(LayoutError, match="movement_budget"):
            IncrementalSearch(farm8, evaluator=None,
                              object_sizes=mini_db.object_sizes(),
                              constraints=constraints)


class _AuditedEvaluator(WorkloadCostEvaluator):
    """Records each accepted pick and the layout each commit adopts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.steps: list[tuple[float, float, np.ndarray]] = []
        self._pick = None
        self._matrix = None

    def set_base(self, matrix):
        self._matrix = matrix.copy()
        return super().set_base(matrix)

    def best_for_rows(self, objects, rows, incumbent, prune=True):
        best = super().best_for_rows(objects, rows, incumbent, prune)
        if best[1] >= 0:
            self._pick = best[0]
        return best

    def commit_rows(self, rows):
        total = super().commit_rows(rows)
        for name, row in rows.items():
            self._matrix[self.object_names.index(name)] = row
        self.steps.append((self._pick, total, self._matrix.copy()))
        return total


class _ExactScanEvaluator(WorkloadCostEvaluator):
    """Costs every candidate with the reference model, one by one."""

    def __init__(self, workload, farm, names, sizes):
        super().__init__(workload, farm, names)
        self._workload, self._sizes = workload, sizes
        self._matrix = None

    def set_base(self, matrix):
        self._matrix = matrix.copy()
        return super().set_base(matrix)

    def commit_rows(self, rows):
        for name, row in rows.items():
            self._matrix[self.object_names.index(name)] = row
        return super().commit_rows(rows)

    def best_for_rows(self, objects, rows, incumbent, prune=True):
        best_cost, best_index = float(incumbent), -1
        for index, candidate in enumerate(np.asarray(rows)):
            fractions = {name: tuple(row) for name, row
                         in zip(self.object_names, self._matrix)}
            member_rows = np.broadcast_to(
                candidate, (len(objects), len(self.farm)))
            fractions.update({name: tuple(row) for name, row
                              in zip(objects, member_rows)})
            cost = CostModel(self.farm).workload_cost(
                self._workload, Layout(self.farm, self._sizes, fractions,
                                       check_capacity=False))
            if cost < best_cost - EPS_COST:
                best_cost, best_index = cost, index
        return best_cost, best_index, 0


class TestProjectedGroupMoves:
    """A co-located pair on one disk set with different fractions.

    A projected move blends each member toward its own current row, so
    the members' candidate rows differ; the search must cost exactly
    the layout it then adopts.
    """

    @pytest.fixture
    def scenario(self):
        farm = DiskFarm([
            DiskSpec(f"D{j}", capacity_blocks=10**6, avg_seek_s=0.01,
                     read_mb_s=20.0 + 5 * j, write_mb_s=15.0 + 5 * j)
            for j in range(4)])
        sizes = {"a": 100, "b": 100, "c": 50}

        def statement(name, weight, *accesses):
            return AnalyzedStatement(
                statement=Statement(f"-- {name}", weight=weight),
                plan=None, subplans=[SubplanAccess([
                    ObjectAccess(obj, blocks, write=write)
                    for obj, blocks, write in accesses])])

        workload = AnalyzedWorkload([
            statement("q1", 3.0, ("a", 1000.0, False),
                      ("b", 800.0, False)),
            statement("q2", 1.0, ("b", 500.0, True), ("c", 300.0, False)),
            statement("q3", 1.0, ("a", 400.0, False))])
        current = Layout(farm, sizes, {"a": (0.8, 0.2, 0.0, 0.0),
                                       "b": (0.3, 0.7, 0.0, 0.0),
                                       "c": (0.0, 0.0, 0.5, 0.5)})
        constraints = ConstraintSet(co_located=[CoLocated("a", "b")])
        return farm, sizes, workload, current, constraints

    def _search(self, scenario, evaluator):
        farm, sizes, workload, current, constraints = scenario
        return IncrementalSearch(
            farm, evaluator, sizes, constraints=constraints).search(
                build_access_graph(workload), current, 0.1)

    def test_accepted_moves_cost_what_they_commit(self, scenario):
        farm, sizes, workload, _, _ = scenario
        evaluator = _AuditedEvaluator(workload, farm, sorted(sizes))
        result = self._search(scenario, evaluator)
        assert result.extras["projected_moves"] > 0
        model = CostModel(farm)
        for picked, committed, matrix in evaluator.steps:
            layout = Layout(farm, sizes, dict(zip(
                evaluator.object_names, map(tuple, matrix))),
                check_capacity=False)
            expected = model.workload_cost(workload, layout)
            assert committed == pytest.approx(expected, rel=EPS_COST)
            assert picked == pytest.approx(committed, rel=EPS_COST)
        # The budget is spent on the group's projected move.
        assert result.layout.fractions_of("a") \
            != result.layout.fractions_of("b")
        assert result.extras["moved_fraction"] > 0.0

    def test_matches_exact_per_candidate_costing(self, scenario):
        farm, sizes, workload, _, _ = scenario
        fused = self._search(scenario, WorkloadCostEvaluator(
            workload, farm, sorted(sizes)))
        exact = self._search(scenario, _ExactScanEvaluator(
            workload, farm, sorted(sizes), sizes))
        assert fused.cost == pytest.approx(exact.cost, rel=EPS_COST)
        # Only the group's projected move beats the current layout.
        current_cost = CostModel(farm).workload_cost(workload,
                                                     scenario[3])
        assert fused.cost < current_cost - EPS_COST
        for name in sizes:
            assert fused.layout.fractions_of(name) == pytest.approx(
                exact.layout.fractions_of(name), abs=EPS_FRACTION)


class TestIncrementalRecommendMiniDb:
    @pytest.fixture
    def advisor(self, mini_db, farm8):
        return LayoutAdvisor(mini_db, farm8)

    @pytest.fixture
    def workload(self, join_workload):
        return join_workload

    def test_zero_budget_keeps_current_layout(self, advisor, mini_db,
                                              farm8, workload):
        current = full_striping(mini_db.object_sizes(), farm8)
        rec = advisor.recommend(workload, current_layout=current,
                                method="incremental",
                                movement_budget=0.0)
        assert rec.moved_fraction == 0.0
        assert rec.layout.data_movement_blocks(current) == 0.0
        assert len(rec.migration) == 0
        assert rec.estimated_cost <= rec.current_cost + EPS_COST

    def test_budget_is_respected_and_cost_never_worse(
            self, advisor, mini_db, farm8, workload):
        current = full_striping(mini_db.object_sizes(), farm8)
        for budget in (0.1, 0.5):
            rec = advisor.recommend(workload, current_layout=current,
                                    method="incremental",
                                    movement_budget=budget)
            assert rec.moved_fraction <= budget + EPS_FRACTION
            assert rec.estimated_cost <= rec.current_cost + EPS_COST
            assert rec.migration.is_capacity_safe(current)
            assert not [d for d in rec.diagnostics
                        if d.rule_id in ("ALR032", "ALR033")]

    def test_recommendation_carries_budget_and_plan(self, advisor,
                                                    mini_db, farm8,
                                                    workload):
        current = full_striping(mini_db.object_sizes(), farm8)
        rec = advisor.recommend(workload, current_layout=current,
                                method="incremental",
                                movement_budget=0.5)
        assert rec.movement_budget == 0.5
        assert rec.migration is not None
        assert rec.search.extras["movement_budget"] == 0.5
        assert rec.search.extras["moved_fraction"] == pytest.approx(
            rec.moved_fraction)


@pytest.fixture(scope="module")
def tpch_scenario():
    """The acceptance scenario: examples/tpch with shifted weights."""
    db = load_database(EXAMPLES / "db.json")
    farm = load_farm(EXAMPLES / "disks.json")
    workload = Workload.load(EXAMPLES / "workload.sql")
    advisor = LayoutAdvisor(db, farm)
    baseline = advisor.recommend(workload, method="ts-greedy")
    shifted = Workload(
        [Statement(s.sql, 8.0 if i % 3 == 0 else 0.25, name=s.name)
         for i, s in enumerate(workload.statements)],
        name="tpch-drifted")
    return advisor, workload, shifted, baseline.layout


class TestTpchAcceptance:
    def test_shifted_weights_register_as_drift(self, tpch_scenario):
        advisor, workload, shifted, _ = tpch_scenario
        before = advisor.access_graph(advisor.analyze(workload))
        after = advisor.access_graph(advisor.analyze(shifted))
        report = detect_drift(before, after)
        assert report.relayout_recommended
        assert report.score > RELAYOUT_THRESHOLD

    def test_budget_02_honored(self, tpch_scenario):
        advisor, _, shifted, current = tpch_scenario
        rec = advisor.recommend(shifted, current_layout=current,
                                method="incremental",
                                movement_budget=0.2)
        # the layout is valid by construction (Layout validates); the
        # constraints below are the Section-2.3 guarantees
        assert rec.moved_fraction <= 0.2 + EPS_FRACTION
        assert rec.estimated_cost <= rec.current_cost + EPS_COST
        assert rec.migration.is_capacity_safe(current)
        assert not [d for d in rec.diagnostics
                    if d.rule_id in ("ALR032", "ALR033")]

    def test_budget_1_matches_full_relayout(self, tpch_scenario):
        advisor, _, shifted, current = tpch_scenario
        rec = advisor.recommend(shifted, current_layout=current,
                                method="incremental",
                                movement_budget=1.0)
        full = advisor.recommend(shifted, method="ts-greedy")
        # Δ = 1 must be at least as good as the unconstrained search:
        # the engine runs full TS-GREEDY as a fallback and keeps the
        # cheaper of (seeded, full, current).
        assert rec.estimated_cost <= full.estimated_cost + EPS_COST


@pytest.fixture
def cli_files(tmp_path, mini_db):
    """Database, disks and two workload windows for the CLI."""
    from repro.catalog.io import save_database, save_farm
    from repro.storage.disk import winbench_farm
    save_database(mini_db, tmp_path / "db.json")
    save_farm(winbench_farm(8), tmp_path / "disks.json")
    (tmp_path / "before.sql").write_text(
        "-- name: J1\n"
        "SELECT COUNT(*) FROM big b, mid m WHERE b.k = m.k;\n"
        "-- name: S1\nSELECT SUM(b.v) FROM big b;\n")
    (tmp_path / "after.sql").write_text(
        "-- name: J1\n-- weight: 0.1\n"
        "SELECT COUNT(*) FROM big b, mid m WHERE b.k = m.k;\n"
        "-- name: S1\n-- weight: 20\nSELECT SUM(b.v) FROM big b;\n")
    return tmp_path


class TestIncrementalCli:
    def test_drift_exit_codes(self, cli_files, capsys):
        from repro.cli import main
        base = ["drift", "--database", str(cli_files / "db.json")]
        same = main([*base,
                     "--before", str(cli_files / "before.sql"),
                     "--after", str(cli_files / "before.sql")])
        assert same == 0
        drifted = main([*base,
                        "--before", str(cli_files / "before.sql"),
                        "--after", str(cli_files / "after.sql"),
                        "--save", str(cli_files / "drift.json")])
        assert drifted == 1
        out = capsys.readouterr().out
        assert "re-layout recommended" in out
        saved = json.loads((cli_files / "drift.json").read_text())
        assert saved["relayout_recommended"] is True

    def test_drift_json_format(self, cli_files, capsys):
        from repro.cli import main
        main(["drift", "--database", str(cli_files / "db.json"),
              "--before", str(cli_files / "before.sql"),
              "--after", str(cli_files / "after.sql"),
              "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"score", "node_drift", "edge_drift",
                                "objects", "edges"}

    def test_incremental_subcommand_end_to_end(self, cli_files,
                                               capsys):
        from repro.catalog.io import (
            load_farm as _load_farm,
            load_migration_plan,
            load_recommendation,
            save_layout,
        )
        from repro.cli import main
        farm = _load_farm(cli_files / "disks.json")
        db = load_database(cli_files / "db.json")
        current = full_striping(db.object_sizes(), farm)
        save_layout(current, cli_files / "current.json")
        rc = main(["incremental",
                   "--database", str(cli_files / "db.json"),
                   "--disks", str(cli_files / "disks.json"),
                   "--workload", str(cli_files / "after.sql"),
                   "--current", str(cli_files / "current.json"),
                   "--budget", "0.3",
                   "--save-plan", str(cli_files / "plan.json"),
                   "--save-recommendation",
                   str(cli_files / "rec.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "--- migration plan ---" in out
        assert "budget 30%" in out
        plan = load_migration_plan(cli_files / "plan.json")
        assert plan.is_capacity_safe(current)
        assert plan.moved_fraction <= 0.3 + EPS_FRACTION
        rec = load_recommendation(cli_files / "rec.json", farm)
        assert rec.movement_budget == 0.3
        assert rec.migration is not None

    def test_incremental_accepts_recommendation_as_current(
            self, cli_files, capsys):
        from repro.cli import main
        rc = main(["recommend",
                   "--database", str(cli_files / "db.json"),
                   "--disks", str(cli_files / "disks.json"),
                   "--workload", str(cli_files / "before.sql"),
                   "--save-recommendation",
                   str(cli_files / "rec0.json")])
        assert rc == 0
        rc = main(["incremental",
                   "--database", str(cli_files / "db.json"),
                   "--disks", str(cli_files / "disks.json"),
                   "--workload", str(cli_files / "after.sql"),
                   "--current", str(cli_files / "rec0.json"),
                   "--budget", "1.0"])
        assert rc == 0
        assert "migration plan" in capsys.readouterr().out

    def test_recommend_method_incremental(self, cli_files, capsys):
        from repro.cli import main
        rc = main(["recommend",
                   "--database", str(cli_files / "db.json"),
                   "--disks", str(cli_files / "disks.json"),
                   "--workload", str(cli_files / "after.sql"),
                   "--method", "incremental", "--budget", "0.4"])
        assert rc == 0
        assert "--- migration plan ---" in capsys.readouterr().out
