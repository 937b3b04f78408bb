"""repro.parallel — portfolio search over shared-memory cost evaluation.

Runs several independent search trajectories (seeded TS-GREEDY
variants, annealing restarts) concurrently and keeps the best layout.
``jobs=1`` runs them serially in-process; ``jobs > 1`` runs them on a
worker-process pool whose cost evaluator is published once in
``multiprocessing.shared_memory`` (workers attach zero-copy instead of
re-pickling megabytes per process).

Results are bit-identical regardless of ``jobs``: the trajectory list
is deterministic and the winner is chosen by ``min((cost, index))``.

The engine degrades instead of dying: worker crashes, hung
trajectories and expired deadlines (``repro.resilience``) turn into
:class:`~repro.core.greedy.TrajectoryFailure` records on a *degraded*
result whose layout is still the exact best over the trajectories that
completed.  :func:`reap_orphans` sweeps shared-memory segments a crash
might otherwise leak.

See ``docs/performance.md`` for the engine's design, the shared-memory
lifecycle and tuning guidance, and ``docs/resilience.md`` for the
degradation contract and the fault-injection harness.
"""

from repro.parallel.portfolio import (
    DEFAULT_TRAJECTORIES,
    PortfolioSearch,
    TrajectorySpec,
    available_workers,
    default_portfolio,
)
from repro.parallel.shared import (
    SharedArraySpec,
    SharedEvaluatorSpec,
    SharedEvaluatorState,
    attach_evaluator,
    reap_orphans,
    share_evaluator,
)
from repro.parallel.worker import (
    TrajectoryContext,
    rebuild_result,
    run_trajectory,
)

__all__ = [
    "DEFAULT_TRAJECTORIES",
    "PortfolioSearch",
    "SharedArraySpec",
    "SharedEvaluatorSpec",
    "SharedEvaluatorState",
    "TrajectoryContext",
    "TrajectorySpec",
    "attach_evaluator",
    "available_workers",
    "default_portfolio",
    "reap_orphans",
    "rebuild_result",
    "run_trajectory",
    "share_evaluator",
]
