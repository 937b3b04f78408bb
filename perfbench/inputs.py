"""Seeded input generators for the two workloads.

Every draw comes from the ``--seed`` argument through
:func:`perfbench.common.derive_seed`; the program only ever sees the
generated catalog, disks and SQL.  Two sizes exist: ``full`` (what the
benchmark measures) and ``tiny`` (the self-test).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from perfbench.common import derive_seed


@dataclass(frozen=True)
class Size:
    #: cli: TPC-H template draws per file (22 statements each) and
    #: OLTP statements per file; files in the rotating pool.
    cli_tpch_draws: int
    cli_oltp: int
    cli_pool: int
    #: service: statements in each freshly uploaded workload.
    service_statements: int
    #: Set-ups per run (the median is reported as ``setup_s``).
    setups: int


SIZES = {
    "full": Size(cli_tpch_draws=8, cli_oltp=124, cli_pool=4,
                 service_statements=15, setups=3),
    "tiny": Size(cli_tpch_draws=1, cli_oltp=8, cli_pool=1,
                 service_statements=4, setups=1),
}

#: Disks every workload lays out onto.
N_DISKS = 8
#: The service's relayout movement budget (fraction of all blocks).
MOVEMENT_BUDGET = 0.25
#: Seed of the tenants' fixed OLTP history (see :func:`tenant_layout`).
TENANT_HISTORY_SEED = 1_000


def cli_workload(seed: int, index: int, size: Size):
    """A ~300-statement DBA workload: the 22 TPC-H templates drawn
    under several seeds plus an OLTP INSERT/UPDATE/DELETE/lookup mix."""
    from repro.benchdb import tpch
    from repro.benchdb.oltp import oltp_workload
    from repro.workload.workload import Workload

    workload = Workload(name=f"cli-{index}")
    for draw in range(size.cli_tpch_draws):
        rng = random.Random(derive_seed(seed, "cli", index, "tpch", draw))
        for number in range(1, 23):
            workload.add(tpch.tpch_query(number, rng=rng),
                         name=f"Q{number}d{draw + 1}")
    oltp = oltp_workload(size.cli_oltp,
                         seed=derive_seed(seed, "cli", index, "oltp"))
    for statement in oltp:
        workload.add(statement.sql, weight=statement.weight,
                     name=statement.name)
    return workload


def service_workload(seed: int, client: int, cycle: int, size: Size):
    """A tenant's freshly generated workload for one closed-loop cycle.

    The tenant's reporting queries walk the 22 TPC-H templates in
    rotation, ``service_statements`` per cycle (each client starts at
    another offset); their parameters are drawn from the seed, so no
    two cycles upload the same SQL.  The fixed template mix keeps the
    work and the estimated improvement per cycle a property of the
    code rather than of the seed.
    """
    from repro.benchdb import tpch
    from repro.workload.workload import Workload

    rng = random.Random(derive_seed(seed, "service", client, cycle))
    n = size.service_statements
    start = (cycle * n + client * 11) % 22
    workload = Workload(name=f"c{client}w{cycle}")
    for step in range(n):
        number = (start + step) % 22 + 1
        workload.add(tpch.tpch_query(number, rng=rng),
                     name=f"Q{number}c{cycle}")
    return workload


def tenant_layout(db, farm):
    """The layout every tenant starts from: what the advisor recommends
    for the tenant's order-entry (OLTP) traffic before reporting queries
    arrive, so relayouts have somewhere to go within their budget.

    Like the catalog, this history is fixed rather than seeded: under
    some OLTP draws the advisor settles on another layout, which would
    make ``improvement_pct`` jump between seeds.
    """
    from repro.benchdb.oltp import oltp_workload
    from repro.core.advisor import LayoutAdvisor

    history = oltp_workload(300, seed=TENANT_HISTORY_SEED)
    return LayoutAdvisor(db, farm).recommend(history).layout


def statements_payload(workload) -> list[dict[str, object]]:
    """The JSON body a client PUTs for a workload."""
    return [{"sql": s.sql, "weight": s.weight, "name": s.name}
            for s in workload]
