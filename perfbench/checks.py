"""Correctness checks on what the program returned.

Each function returns a list of failure messages (empty when the output
is right).  Every failing operation counts toward ``failed_ratio``.
"""

from __future__ import annotations

from typing import Any


def _tolerance(reference: float) -> float:
    from repro.core.tolerance import EPS_COST
    # EPS_COST is the search's absolute acceptance margin; costs here
    # are tens of seconds, so scale it to the magnitude compared.
    return EPS_COST * max(1.0, abs(reference))


def check_recommendation(rec, db, farm, analyzed,
                         budget: float | None = None) -> list[str]:
    """A recommendation's layout is valid, satisfies the constraints and
    re-scores to its estimated cost under the reference cost model.

    Args:
        rec: A :class:`repro.core.advisor.Recommendation` (as returned,
            or rebuilt from its JSON form).
        db: The catalog the advisor ran on.
        farm: The disks it ran on.
        analyzed: The workload, analyzed afresh by the benchmark.
        budget: For relayouts, the movement budget the plan must honor.
    """
    from repro.core.constraints import ConstraintSet
    from repro.core.costmodel import CostModel
    from repro.core.layout import Layout
    from repro.errors import ReproError

    problems: list[str] = []
    sizes = db.object_sizes()
    try:
        layout = Layout(farm, sizes, {name: rec.layout.fractions_of(name)
                                      for name in rec.layout.object_names})
        ConstraintSet().check(layout)
    except ReproError as error:
        return [f"invalid layout: {error}"]
    model = CostModel(farm)
    estimated = model.workload_cost(analyzed, layout)
    if abs(estimated - rec.estimated_cost) > _tolerance(estimated):
        problems.append(f"estimated cost {rec.estimated_cost!r} != "
                        f"reference {estimated!r}")
    if rec.current_layout is not None:
        current = model.workload_cost(analyzed, rec.current_layout)
        if abs(current - rec.current_cost) > _tolerance(current):
            problems.append(f"current cost {rec.current_cost!r} != "
                            f"reference {current!r}")
    if budget is not None:
        problems += check_relayout(rec, budget)
    return problems


def check_relayout(rec, budget: float) -> list[str]:
    """The migration plan is capacity-safe and moves within budget."""
    from repro.core.constraints import MaxDataMovement
    from repro.errors import ReproError

    if rec.current_layout is None or rec.migration is None:
        return ["relayout without a current layout or migration plan"]
    problems = []
    total = sum(rec.layout.object_sizes.values())
    try:
        MaxDataMovement(rec.current_layout, budget * total).check(
            rec.layout)
    except ReproError as error:
        problems.append(f"over budget: {error}")
    if not rec.migration.is_capacity_safe(rec.current_layout):
        problems.append("migration plan is not capacity-safe")
    if rec.migration.moved_fraction > budget + 1e-9:
        problems.append(f"plan moves {rec.migration.moved_fraction:.4f} "
                        f"of the data, budget {budget}")
    return problems


def check_hit(hit_payload: dict[str, Any],
              miss_payload: dict[str, Any]) -> list[str]:
    """A cache hit returns exactly what the miss that filled it did."""
    if hit_payload != miss_payload:
        return ["cache hit payload differs from the miss that filled it"]
    return []
