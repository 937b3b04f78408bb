"""The metric-name registry: one table declaring every metric.

Every counter, gauge and histogram the library emits is declared here
with its kind and a one-line help string.  The table serves three
consumers:

* ``MetricsRegistry(strict=True)`` rejects any emission whose name is
  not declared (or whose kind disagrees) — the test suite runs the
  whole pipeline in strict mode, so an undeclared metric name cannot
  ship;
* :func:`repro.obs.export.to_prometheus` takes ``# HELP`` and
  ``# TYPE`` lines from here;
* ``docs/observability.md`` documents exactly this table.

To add a metric: declare it here first, then emit it.  The
``tests/test_metric_names.py`` backstop greps the source tree for
``inc(`` / ``set_gauge(`` / ``observe(`` literals and fails on any
string not in this table.
"""

from __future__ import annotations

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: name -> (kind, help).  Keep sorted by name within each section.
METRIC_CATALOG: dict[str, tuple[str, str]] = {
    # -- static analysis / preflight ------------------------------------
    "analysis.audit_findings": (
        COUNTER, "post-search audit diagnostics raised"),
    "analysis.errors": (
        COUNTER, "error-level preflight diagnostics"),
    "analysis.info": (
        COUNTER, "info-level preflight diagnostics"),
    "analysis.migration_findings": (
        COUNTER, "migration-plan audit diagnostics raised"),
    "analysis.warnings": (
        COUNTER, "warning-level preflight diagnostics"),
    # -- workload expansion ---------------------------------------------
    "analyze.statements": (
        COUNTER, "workload statements analyzed"),
    "analyze.subplans_per_statement": (
        HISTOGRAM, "access-path subplans derived per statement"),
    # -- annealing trajectory -------------------------------------------
    "annealing.accepted": (
        COUNTER, "annealing proposals accepted"),
    "annealing.infeasible": (
        COUNTER, "annealing proposals rejected as infeasible"),
    "annealing.proposals": (
        COUNTER, "annealing proposals generated"),
    "annealing.rejected": (
        COUNTER, "annealing proposals rejected by temperature"),
    # -- advisor summary ------------------------------------------------
    "advisor.improvement_pct": (
        GAUGE, "recommended layout's cost improvement over baseline"),
    # -- cost model -----------------------------------------------------
    "costmodel.base_evaluations": (
        COUNTER, "from-scratch layout cost evaluations"),
    "costmodel.batch_evaluations": (
        COUNTER, "vectorized batch cost evaluations"),
    "costmodel.batch_rows": (
        COUNTER, "candidate rows evaluated across batches"),
    "costmodel.bound_evaluations": (
        COUNTER, "lower-bound evaluations used to prune candidates"),
    "costmodel.commit_evaluations": (
        COUNTER, "O(delta) base-cost commits of adopted moves"),
    "costmodel.fused_evaluations": (
        COUNTER, "fused prune+evaluate kernel invocations"),
    "costmodel.full_evaluations": (
        COUNTER, "full layout cost evaluations"),
    "costmodel.subplans": (
        GAUGE, "distinct subplans after concurrency expansion"),
    "costmodel.subplans_raw": (
        GAUGE, "subplans before concurrency expansion"),
    # -- workload drift -------------------------------------------------
    "drift.edge_drift": (
        GAUGE, "normalized co-access edge-weight drift"),
    "drift.node_drift": (
        GAUGE, "normalized referenced-block drift"),
    "drift.relayout_recommended": (
        COUNTER, "drift comparisons that crossed the re-layout threshold"),
    "drift.score": (
        GAUGE, "combined workload drift score in [0, 1]"),
    # -- access graph ---------------------------------------------------
    "graph.edges": (
        GAUGE, "co-access graph edge count"),
    "graph.nodes": (
        GAUGE, "co-access graph node count"),
    "graph.total_edge_weight": (
        GAUGE, "sum of co-access edge weights"),
    # -- TS-GREEDY search -----------------------------------------------
    "greedy.accepted_moves": (
        COUNTER, "greedy candidate moves accepted"),
    "greedy.candidates_per_iteration": (
        HISTOGRAM, "candidate moves evaluated per greedy iteration"),
    "greedy.evaluations": (
        COUNTER, "candidate layouts cost-evaluated by greedy"),
    "greedy.iterations": (
        COUNTER, "greedy step-2 iterations executed"),
    "greedy.pruned_candidates": (
        COUNTER, "candidates discarded by the lower-bound prune"),
    # -- incremental re-layout ------------------------------------------
    "incremental.full_relayout_fallbacks": (
        COUNTER, "incremental searches that fell back to full re-layout"),
    "incremental.migration_steps": (
        COUNTER, "steps in the produced migration plan"),
    "incremental.moved_blocks": (
        GAUGE, "blocks the migration plan moves"),
    "incremental.moved_fraction": (
        GAUGE, "fraction of stored blocks the plan moves"),
    "incremental.projected_moves": (
        COUNTER, "candidate placements projected onto the movement budget"),
    "incremental.staged_blocks": (
        GAUGE, "blocks staged through scratch space"),
    # -- migration execution / online impact ----------------------------
    "migration.executed_steps": (
        COUNTER, "plan steps executed and journaled as done"),
    "migration.foreground_degradation": (
        GAUGE, "mean foreground slowdown factor while migrating"),
    "migration.resumes": (
        COUNTER, "executions resumed from an interrupted journal"),
    "migration.rollbacks": (
        COUNTER, "journaled rollbacks executed back to the source"),
    "migration.skipped_steps": (
        COUNTER, "already-done steps skipped by a resume"),
    "migration.step_retries": (
        COUNTER, "step re-attempts after transient transfer failures"),
    "migration.time_to_benefit_s": (
        GAUGE, "post-migration seconds until the overhead pays back"),
    "migration.transfer_seconds": (
        GAUGE, "estimated transfer time of the executed steps"),
    "migration.windows": (
        GAUGE, "foreground workload windows the migration spanned"),
    # -- KL partitioning ------------------------------------------------
    "partition.cut_weight": (
        GAUGE, "final cut weight of the KL partition"),
    "partition.kl_passes": (
        COUNTER, "Kernighan-Lin improvement passes"),
    "partition.moves": (
        COUNTER, "single-node KL moves applied"),
    "partition.swaps": (
        COUNTER, "node-pair KL swaps applied"),
    # -- portfolio engine -----------------------------------------------
    "portfolio.backend": (
        GAUGE, "backend of the last run (-1 serial, 0 thread, 1 process)"),
    "portfolio.best_trajectory": (
        GAUGE, "index of the winning trajectory"),
    "portfolio.trajectories": (
        GAUGE, "trajectories the portfolio dispatched"),
    "portfolio.workers": (
        GAUGE, "worker processes used by the portfolio"),
    # -- resilience -----------------------------------------------------
    "resilience.degraded": (
        COUNTER, "portfolio runs that returned a partial result"),
    "resilience.retries": (
        COUNTER, "trajectory re-attempts after failure"),
    "resilience.serial_fallbacks": (
        COUNTER, "lost trajectories re-run in-process"),
    "resilience.timeouts": (
        COUNTER, "trajectories abandoned at their deadline"),
    "resilience.worker_crashes": (
        COUNTER, "trajectories lost to dead worker processes"),
    # -- advisor service (repro.server) ---------------------------------
    "server.cache_entries": (
        GAUGE, "recommendation/analysis cache entries resident"),
    "server.cache_hits": (
        COUNTER, "job submissions served from the fingerprint cache"),
    "server.cache_misses": (
        COUNTER, "job submissions that had to compute fresh"),
    "server.errors": (
        COUNTER, "requests answered with a 4xx/5xx status"),
    "server.job_latency_s": (
        HISTOGRAM, "submit-to-completion job latency in seconds"),
    "server.job_wait_s": (
        HISTOGRAM, "queue wait before a worker picked the job up"),
    "server.jobs_completed": (
        COUNTER, "jobs that finished with a usable recommendation"),
    "server.jobs_degraded": (
        COUNTER, "completed jobs whose recommendation was degraded"),
    "server.jobs_failed": (
        COUNTER, "jobs that raised instead of producing a result"),
    "server.jobs_rejected": (
        COUNTER, "job submissions bounced with 429 (queue full)"),
    "server.jobs_submitted": (
        COUNTER, "job submissions admitted to the queue"),
    "server.queue_depth": (
        GAUGE, "jobs waiting for a worker right now"),
    "server.requests": (
        COUNTER, "HTTP requests routed to the service"),
    "server.tenants": (
        GAUGE, "tenant catalogs resident in memory"),
    "server.workers": (
        GAUGE, "job-queue worker threads configured"),
    # -- I/O simulator --------------------------------------------------
    "sim.blocks": (
        COUNTER, "blocks requested from the simulated disks"),
    "sim.buffer_hits": (
        GAUGE, "simulated buffer-pool hits"),
    "sim.buffer_misses": (
        GAUGE, "simulated buffer-pool misses"),
    "sim.streams": (
        COUNTER, "access streams replayed by the simulator"),
    "sim.subplans": (
        COUNTER, "subplans replayed by the simulator"),
}


def metric_kind(name: str) -> str | None:
    """Declared kind of ``name``, or ``None`` when undeclared."""
    entry = METRIC_CATALOG.get(name)
    return entry[0] if entry is not None else None


def metric_help(name: str) -> str:
    """Declared help string of ``name`` (empty when undeclared)."""
    entry = METRIC_CATALOG.get(name)
    return entry[1] if entry is not None else ""
