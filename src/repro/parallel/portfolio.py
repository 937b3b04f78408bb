"""The portfolio search engine: parallel multi-start layout search.

Exhaustive layout search is NP-complete (Section 6.1), so TS-GREEDY is
a local search — and local searches are only as good as their starting
points.  The portfolio engine runs several independent *trajectories*
concurrently and keeps the best result:

* TS-GREEDY from the canonical KL partitioning (the paper's run);
* TS-GREEDY from seeded KL variants (different step-1 local optima)
  and, for larger portfolios, a wider ``k``;
* simulated-annealing restarts with distinct RNG seeds.

Trajectories share one precompiled
:class:`~repro.core.costmodel.WorkloadCostEvaluator`.  On the
``"process"`` backend its packed arrays are published once in shared
memory (:mod:`repro.parallel.shared`) instead of being re-pickled per
worker; on the ``"thread"`` backend each trajectory runs against a
zero-copy :meth:`~repro.core.costmodel.WorkloadCostEvaluator.clone`
(the evaluator's hot loops are numpy and release the GIL), skipping
process spawn and shared-memory setup entirely.  ``backend="auto"``
picks between them by a deterministic packed-size heuristic.

Determinism: the trajectory list is fixed up front and the winner is
``min((cost, index))`` — exact float comparison with ties broken on
trajectory order — so a run with ``jobs=4`` returns the bit-identical
layout and cost of the same trajectory list run serially (``jobs=1``).

Fault tolerance (see ``docs/resilience.md``): the engine is built to
run unattended inside a tuning service, so every failure mode short of
losing the whole process degrades instead of raising:

* a killed worker (``BrokenProcessPool``) marks its trajectories
  failed and re-runs them serially in-process under the
  :class:`~repro.resilience.RetryPolicy`;
* a hung trajectory is abandoned after its per-future timeout or the
  run's :class:`~repro.resilience.Deadline`;
* the winner is always the exact ``min((cost, index))`` over the
  trajectories that *completed*, with :class:`TrajectoryFailure`
  records for the rest (``SearchResult.degraded`` / ``failures``);
* the shared-memory segment is unlinked on every path (``finally`` in
  the owner plus the :func:`repro.parallel.shared.reap_orphans`
  ``atexit`` sweeper).

Only when *no* trajectory completes does the engine raise — a typed
:class:`~repro.errors.SearchTimeout` / :class:`~repro.errors.WorkerCrash`
(or the trajectory's own error), never a bare pool internals error.
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing import get_all_start_methods, get_context
from typing import Sequence

from repro.core.constraints import ConstraintSet
from repro.core.costmodel import WorkloadCostEvaluator
from repro.core.greedy import SearchResult, TrajectoryFailure
from repro.errors import (
    LayoutError,
    ReproError,
    SearchTimeout,
    WorkerCrash,
)
from repro.obs import NULL_METRICS, NULL_RECORDER, NULL_TRACER, Span
from repro.parallel import worker as _worker
from repro.parallel.shared import share_evaluator
from repro.parallel.worker import (
    TrajectoryContext,
    init_worker,
    rebuild_result,
    run_trajectory,
    run_trajectory_task,
)
from repro.resilience import Deadline, FaultPlan, RetryPolicy
from repro.resilience import faults as fault_injection
from repro.storage.disk import DiskFarm
from repro.workload.access_graph import AccessGraph

logger = logging.getLogger("repro.parallel.portfolio")

#: Trajectories in a default portfolio when none are specified.
DEFAULT_TRAJECTORIES = 4

#: Worker-count override honored by :func:`available_workers`.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: Execution backends a parallel portfolio can run on.
BACKENDS = ("auto", "thread", "process")

#: ``backend="auto"``: packed evaluators at or below this size run on
#: the thread backend (the evaluator's numpy kernels release the GIL,
#: and at small/medium scale process spawn + shared-memory setup costs
#: more than it buys).  Purely a function of the workload packing, so
#: the choice — and therefore telemetry — is deterministic per input.
AUTO_THREAD_MAX_BYTES = 32 << 20

#: ``portfolio.backend`` gauge / ``extras["backend"]`` encoding.
BACKEND_CODES = {"serial": -1, "thread": 0, "process": 1}

#: Inverse of :data:`BACKEND_CODES`, for report rendering.
BACKEND_NAMES = {code: name for name, code in BACKEND_CODES.items()}


@dataclass(frozen=True)
class TrajectorySpec:
    """One independent search trajectory of a portfolio.

    Attributes:
        method: ``"ts-greedy"`` or ``"annealing"``.
        partition_seed: KL processing-order seed (TS-GREEDY only);
            ``None`` is the canonical deterministic partitioning.
        k: TS-GREEDY widening parameter.
        seed: Annealing RNG seed.
        iterations: Annealing proposal budget.
        prune: Enable bound-based candidate pruning (TS-GREEDY only;
            never changes the result, only the evaluation count).
        label: Optional display name for telemetry.
    """

    method: str = "ts-greedy"
    partition_seed: int | None = None
    k: int = 1
    seed: int = 0
    iterations: int = 2_000
    prune: bool = True
    label: str = ""

    def describe(self) -> str:
        """Short human-readable identity for spans and logs."""
        if self.method == "annealing":
            return f"annealing[seed={self.seed}]"
        seed = "base" if self.partition_seed is None \
            else f"seed={self.partition_seed}"
        return f"ts-greedy[{seed}, k={self.k}]"


def default_portfolio(n: int = DEFAULT_TRAJECTORIES, k: int = 1,
                      base_seed: int = 101,
                      annealing_iterations: int = 2_000,
                      include_annealing: bool = True,
                      ) -> list[TrajectorySpec]:
    """A deterministic default trajectory list of size ``n``.

    Trajectory 0 is always the canonical TS-GREEDY run (the paper's
    algorithm), so a 1-trajectory portfolio degenerates to plain
    TS-GREEDY.  Remaining slots mix seeded KL variants with annealing
    restarts (every third slot); portfolios of five or more spend one
    slot on a ``k+1`` widening.

    Args:
        n: Portfolio size.
        k: TS-GREEDY widening parameter for the greedy trajectories.
        base_seed: First seed; slot ``i`` uses ``base_seed + i``.
        annealing_iterations: Proposal budget per annealing restart.
        include_annealing: Set ``False`` for constrained problems —
            the annealing baseline only enforces capacity and raises
            on richer constraints, so its slots become seeded greedy
            trajectories instead.
    """
    if n < 1:
        raise LayoutError("portfolio needs at least one trajectory")
    specs = [TrajectorySpec(method="ts-greedy", k=k,
                            label="greedy-base")]
    wide_k_spent = False
    for i in range(1, n):
        if i % 3 == 0 and include_annealing:
            specs.append(TrajectorySpec(
                method="annealing", seed=base_seed + i,
                iterations=annealing_iterations,
                label=f"anneal-{base_seed + i}"))
        elif n >= 5 and not wide_k_spent:
            wide_k_spent = True
            specs.append(TrajectorySpec(
                method="ts-greedy", k=k + 1,
                partition_seed=base_seed + i,
                label=f"greedy-{base_seed + i}-k{k + 1}"))
        else:
            specs.append(TrajectorySpec(
                method="ts-greedy", k=k, partition_seed=base_seed + i,
                label=f"greedy-{base_seed + i}"))
    return specs


def available_workers() -> int:
    """CPUs usable by this process (affinity-aware where supported).

    Respects a positive integer ``REPRO_MAX_WORKERS`` environment
    override as a cap (useful in containers whose affinity mask lies).
    Falls back to ``os.cpu_count()`` when affinity is unsupported *or*
    reports an empty set (seen on some cgroup/BSD configurations);
    never returns less than 1.
    """
    cap = None
    raw = os.environ.get(MAX_WORKERS_ENV, "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            logger.warning("ignoring non-integer %s=%r",
                           MAX_WORKERS_ENV, raw)
        else:
            if cap < 1:
                logger.warning("ignoring non-positive %s=%d",
                               MAX_WORKERS_ENV, cap)
                cap = None
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux / restricted
        cpus = 0
    if cpus < 1:  # affinity may legally report an empty set
        cpus = os.cpu_count() or 1
    return min(cpus, cap) if cap is not None else cpus


class PortfolioSearch:
    """Runs a trajectory portfolio and returns the best result.

    Args:
        farm: Available disk drives.
        evaluator: Precompiled workload cost evaluator.  For parallel
            runs its packed arrays are published in shared memory and
            the evaluator itself never crosses the process boundary.
        object_sizes: Object name -> size in blocks.
        constraints: Optional manageability/availability constraints.
        specs: Trajectory list; defaults to :func:`default_portfolio`.
        jobs: Worker count.  ``1`` runs every trajectory serially
            in-process (bit-identical results, no pool of any kind);
            ``0`` auto-sizes to the available cores.
        backend: How parallel (``jobs > 1``) trajectories execute:
            ``"process"`` is the original worker-process pool with the
            evaluator published in shared memory; ``"thread"`` runs
            trajectories on a thread pool against per-thread evaluator
            clones — the evaluator's hot loops are numpy and release
            the GIL, so threads skip process spawn and shared-memory
            setup entirely; ``"auto"`` (default) picks by a
            deterministic workload-size heuristic
            (:data:`AUTO_THREAD_MAX_BYTES` on the evaluator's packed
            bytes).  The winner is the exact ``min((cost, index))``
            either way, so all backends return bit-identical results;
            resilience semantics (deadline, per-trajectory failure
            capture, serial fallback) carry over unchanged.
        tracer: Optional tracer; emits one ``portfolio`` span with a
            ``portfolio/trajectory-i`` child per trajectory (worker
            span trees are merged in, times relative to each worker's
            own epoch).
        metrics: Optional registry; worker-side ``costmodel.*`` /
            ``greedy.*`` / ``annealing.*`` counters are merged in, plus
            ``portfolio.trajectories`` / ``portfolio.workers`` gauges
            and the ``resilience.*`` failure-handling counters.
        deadline: Wall-clock budget for the whole search — seconds, a
            :class:`~repro.resilience.Budget` (starts counting when
            :meth:`search` begins), or a live
            :class:`~repro.resilience.Deadline`.  When it expires the
            engine stops waiting and returns the best result found so
            far (degraded), raising :class:`SearchTimeout` only if
            nothing completed at all.
        retry: :class:`~repro.resilience.RetryPolicy` for in-process
            (re-)runs of failed trajectories; defaults to two attempts
            with deterministic jitter.  Retries never change *what* a
            trajectory computes, only whether a transient failure is
            survived.
        trajectory_timeout_s: Optional per-trajectory cap when draining
            worker futures; a trajectory that produces no result in
            time is recorded as a ``"timeout"`` failure.
        faults: Fault-injection plan for tests/chaos runs; defaults to
            whatever ``REPRO_FAULTS`` names (``None`` in production).
        recorder: Optional :class:`~repro.obs.EventRecorder`; records
            the trajectory lifecycle (``trajectory-start`` /
            ``trajectory-end`` / ``trajectory-failed``), resilience
            incidents (``retry`` / ``timeout`` / ``worker-crash`` /
            ``serial-fallback`` / ``degraded``), and relays each
            worker's own event stream into the parent timeline in
            trajectory order — so a ``jobs=N`` run reconstructs to the
            same ordered timeline as ``jobs=1``.
        clock: Monotonic time source for elapsed-time accounting;
            injectable for tests (defaults to ``time.perf_counter``).
        sleep: Retry-backoff sleeper; injectable for tests (defaults
            to ``time.sleep``).  Neither affects search results — only
            timing telemetry and backoff pacing.
    """

    def __init__(self, farm: DiskFarm, evaluator: WorkloadCostEvaluator,
                 object_sizes: dict[str, int],
                 constraints: ConstraintSet | None = None,
                 specs: Sequence[TrajectorySpec] | None = None,
                 jobs: int = 1, backend: str = "auto",
                 tracer=None, metrics=None,
                 deadline=None, retry: RetryPolicy | None = None,
                 trajectory_timeout_s: float | None = None,
                 faults: FaultPlan | None = None, recorder=None,
                 clock=time.perf_counter, sleep=time.sleep):
        if jobs < 0:
            raise LayoutError("jobs must be >= 0 (0 = auto)")
        if backend not in BACKENDS:
            raise LayoutError(
                f"unknown backend {backend!r}; pick one of {BACKENDS}")
        if trajectory_timeout_s is not None and trajectory_timeout_s <= 0:
            raise LayoutError("trajectory_timeout_s must be > 0")
        self._farm = farm
        self._evaluator = evaluator
        self._sizes = dict(object_sizes)
        self._constraints = constraints or ConstraintSet()
        self._specs = tuple(specs) if specs is not None \
            else tuple(default_portfolio())
        if not self._specs:
            raise LayoutError("portfolio needs at least one trajectory")
        self._jobs = jobs if jobs > 0 else available_workers()
        self._backend = backend
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._recorder = recorder if recorder is not None \
            else NULL_RECORDER
        self._deadline_spec = deadline
        self._retry = retry if retry is not None else RetryPolicy()
        self._timeout_s = trajectory_timeout_s
        if faults is None:
            faults = FaultPlan.from_env()
        self._faults = None if faults is None or faults.empty else faults
        self._clock = clock
        self._sleep = sleep

    @property
    def specs(self) -> tuple[TrajectorySpec, ...]:
        return self._specs

    def _label(self, index: int) -> str:
        spec = self._specs[index]
        return spec.label or spec.describe()

    def search(self, graph: AccessGraph,
               initial_layout=None) -> SearchResult:
        """Run every trajectory; return the winner with merged telemetry.

        Returns the exact ``min((cost, index))`` over the trajectories
        that completed.  Lost trajectories (worker crash, timeout,
        error) are recorded in ``SearchResult.failures`` and mark the
        result ``degraded``; the call raises only when *nothing*
        completed.

        Args:
            graph: The workload's access graph (drives TS-GREEDY step 1).
            initial_layout: Optional starting layout for incremental
                mode (forwarded to every TS-GREEDY trajectory).
        """
        start = self._clock()
        deadline = Deadline.coerce(self._deadline_spec)
        jobs = max(1, min(self._jobs, len(self._specs)))
        backend = self._resolve_backend(jobs)
        context = TrajectoryContext(
            evaluator=self._evaluator, farm=self._farm,
            sizes=self._sizes, constraints=self._constraints,
            graph=graph, initial_layout=initial_layout,
            specs=self._specs, faults=self._faults)
        # Install the plan in this process too (workers install their
        # own copy in init_worker): the in-process hooks keep per-search
        # counters that must start fresh each run.
        fault_injection.install(self._faults)
        try:
            with self._tracer.span("portfolio",
                                   trajectories=len(self._specs),
                                   jobs=jobs, backend=backend) as span:
                if backend == "serial":
                    payloads, failures, errors = self._run_serial(
                        context, deadline)
                elif backend == "thread":
                    payloads, failures, errors = self._run_threads(
                        context, jobs, deadline)
                else:
                    payloads, failures, errors = self._run_parallel(
                        context, jobs, deadline)
                if not payloads:
                    self._raise_total_failure(failures, errors,
                                              deadline)
                result = self._merge(payloads, failures, jobs, backend)
                result.elapsed_s = self._clock() - start
                span.set("best_cost", round(result.cost, 6))
                span.set("best_trajectory",
                         int(result.extras["best_trajectory"]))
                if failures:
                    span.set("degraded", True)
                    span.set("failed_trajectories", len(failures))
        finally:
            fault_injection.install(None)
        if failures:
            logger.warning(
                "portfolio degraded: %d/%d trajectories failed (%s)",
                len(failures), len(self._specs),
                "; ".join(failures[i].describe()
                          for i in sorted(failures)))
        logger.info(
            "portfolio: %d trajectories on %d %s worker(s), best cost "
            "%.3f from trajectory %d (%s), %.3fs", len(self._specs),
            jobs, backend, result.cost,
            int(result.extras["best_trajectory"]),
            self._specs[int(result.extras["best_trajectory"])]
            .describe(), result.elapsed_s)
        return result

    # -- execution paths ---------------------------------------------------

    def _resolve_backend(self, jobs: int) -> str:
        """The execution backend for this run (deterministic).

        ``jobs == 1`` is always the serial in-process path — no pool of
        any kind, exactly as before backends existed.  For parallel
        runs ``"auto"`` picks threads when the evaluator's packed
        arrays fit :data:`AUTO_THREAD_MAX_BYTES` (pool + shared-memory
        setup would dominate) and processes beyond it; the heuristic
        reads only the workload packing, never the machine, so the
        same inputs always pick the same backend.
        """
        if jobs == 1:
            return "serial"
        if self._backend != "auto":
            return self._backend
        return "thread" \
            if self._evaluator.packed_nbytes <= AUTO_THREAD_MAX_BYTES \
            else "process"

    def _run_serial(self, context: TrajectoryContext,
                    deadline: Deadline):
        """Run every trajectory in-process, honoring the deadline."""
        payloads: dict[int, dict] = {}
        failures: dict[int, TrajectoryFailure] = {}
        errors: dict[int, BaseException] = {}
        for index in range(len(self._specs)):
            if payloads and deadline.expired():
                self._metrics.inc("resilience.timeouts")
                self._recorder.emit("timeout", index=index,
                                    label=self._label(index),
                                    budget_s=0.0)
                failures[index] = TrajectoryFailure(
                    index, self._label(index), "timeout", 0,
                    "deadline expired before the trajectory started")
                continue
            self._recorder.emit("trajectory-start", index=index,
                                label=self._label(index))
            payload, failure, error = self._attempt(context, index,
                                                    deadline)
            if payload is not None:
                payloads[index] = payload
            else:
                failures[index] = failure
                if error is not None:
                    errors[index] = error
        return payloads, failures, errors

    def _run_threads(self, context: TrajectoryContext, jobs: int,
                     deadline: Deadline):
        """Run trajectories on a thread pool against evaluator clones.

        No process spawn, no pickling, no shared-memory segment: each
        trajectory gets a :meth:`WorkloadCostEvaluator.clone` sharing
        the read-only packed arrays, so the numpy kernels (which
        release the GIL) run concurrently while per-trajectory mutable
        state stays private.  Failure handling mirrors the process
        path: timeouts abandon the future, an injected kill raises
        :class:`WorkerCrash` in the thread (a thread cannot be hard-
        killed, so the crash fault degrades identically without taking
        the process down), and crashed/errored trajectories are re-run
        serially by the same :meth:`_fallback`.
        """
        payloads: dict[int, dict] = {}
        failures: dict[int, TrajectoryFailure] = {}
        errors: dict[int, BaseException] = {}
        executor = ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="repro-portfolio")
        try:
            futures = []
            for index in range(len(self._specs)):
                self._recorder.emit("trajectory-start", index=index,
                                    label=self._label(index))
                local = replace(context,
                                evaluator=self._evaluator.clone())
                # Resolved through the module so test fault injection
                # (monkeypatching ``worker.run_trajectory``) reaches
                # threads the same way fork workers inherit it.
                futures.append(executor.submit(
                    _worker.run_trajectory, local, index))
            hung = self._drain(futures, deadline, payloads, failures,
                               errors)
        except BaseException:
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        # An abandoned (hung) thread cannot be killed; leave it to
        # finish in the background rather than blocking the join.
        executor.shutdown(wait=not hung, cancel_futures=True)
        self._fallback(context, deadline, payloads, failures, errors)
        return payloads, failures, errors

    def _run_parallel(self, context: TrajectoryContext, jobs: int,
                      deadline: Deadline):
        """Run trajectories in a process pool, surviving worker loss.

        The shared segment is unlinked on *every* exit path: the
        ``finally`` below owns it, and the module-level ``atexit``
        sweeper (:func:`repro.parallel.shared.reap_orphans`) backstops
        a crash inside this window.
        """
        mp_context = get_context(
            "fork" if "fork" in get_all_start_methods() else "spawn")
        payloads: dict[int, dict] = {}
        failures: dict[int, TrajectoryFailure] = {}
        errors: dict[int, BaseException] = {}
        state = share_evaluator(self._evaluator)
        try:
            executor = ProcessPoolExecutor(
                max_workers=jobs, mp_context=mp_context,
                initializer=init_worker,
                initargs=(state.spec, self._farm, self._sizes,
                          self._constraints, context.graph,
                          context.initial_layout, self._specs,
                          self._faults))
            try:
                futures = []
                for index in range(len(self._specs)):
                    self._recorder.emit("trajectory-start", index=index,
                                        label=self._label(index))
                    try:
                        future = executor.submit(run_trajectory_task,
                                                 index)
                    except BrokenProcessPool as error:
                        # A worker died (e.g. in its initializer)
                        # before every task was queued: the rest fail
                        # as crashes too, for the serial fallback.
                        future = Future()
                        future.set_exception(error)
                    futures.append(future)
                hung = self._drain(futures, deadline, payloads,
                                   failures, errors)
            except BaseException:
                # Interrupt/crash while draining: abandon workers
                # without waiting so the finally can unlink promptly.
                executor.shutdown(wait=False, cancel_futures=True)
                raise
            # A hung worker would block a waiting join forever; a
            # healthy pool is joined before unlink as in the serial
            # creator-owns lifecycle.
            executor.shutdown(wait=not hung, cancel_futures=True)
        finally:
            state.close()
        # Graceful degradation: crashed/errored trajectories are re-run
        # serially in-process (against the parent's own evaluator —
        # the shared segment is gone).  Timeouts are *not* re-run: a
        # trajectory too slow for its budget would blow through the
        # deadline again in-process, where it cannot be preempted.
        self._fallback(context, deadline, payloads, failures, errors)
        return payloads, failures, errors

    def _drain(self, futures, deadline: Deadline,
               payloads: dict[int, dict],
               failures: dict[int, TrajectoryFailure],
               errors: dict[int, BaseException]) -> bool:
        """Collect worker results; True when a worker may be hung.

        Futures are visited in trajectory order; each wait is capped by
        the remaining deadline and the per-trajectory timeout.  Because
        workers run concurrently, the per-future cap is an *at least*
        guarantee — a future reached late has usually finished already.
        """
        hung = False
        for index, future in enumerate(futures):
            budget = deadline.remaining()
            if self._timeout_s is not None:
                budget = min(budget, self._timeout_s)
            timeout = None if math.isinf(budget) else budget
            try:
                payloads[index] = future.result(timeout=timeout)
            except FutureTimeout:
                future.cancel()
                hung = True
                self._metrics.inc("resilience.timeouts")
                self._recorder.emit("timeout", index=index,
                                    label=self._label(index),
                                    budget_s=round(budget, 6))
                failures[index] = TrajectoryFailure(
                    index, self._label(index), "timeout", 1,
                    f"no result within {budget:.3f}s")
                logger.warning("trajectory %d (%s) timed out after "
                               "%.3fs; abandoning its worker", index,
                               self._label(index), budget)
            except (BrokenProcessPool, WorkerCrash) as error:
                # BrokenProcessPool: the pool lost the worker process.
                # WorkerCrash: the thread backend's equivalent — a
                # thread cannot die out from under the pool, so the
                # kill fault raises instead (same failure record,
                # same serial-fallback treatment).
                self._metrics.inc("resilience.worker_crashes")
                self._recorder.emit(
                    "worker-crash", index=index,
                    label=self._label(index),
                    message=str(error) or "worker process died")
                failures[index] = TrajectoryFailure(
                    index, self._label(index), "crash", 1,
                    str(error) or "worker process died")
                errors[index] = error
                logger.warning("trajectory %d (%s) lost to a worker "
                               "crash", index, self._label(index))
            except Exception as error:  # the trajectory itself raised
                failures[index] = TrajectoryFailure(
                    index, self._label(index), "error", 1,
                    f"{type(error).__name__}: {error}")
                errors[index] = error
        return hung

    def _fallback(self, context: TrajectoryContext, deadline: Deadline,
                  payloads: dict[int, dict],
                  failures: dict[int, TrajectoryFailure],
                  errors: dict[int, BaseException]) -> None:
        """Re-run crashed/errored trajectories serially in-process."""
        for index in sorted(failures):
            failure = failures[index]
            if failure.cause == "timeout":
                continue
            if deadline.expired():
                break
            self._metrics.inc("resilience.serial_fallbacks")
            self._recorder.emit("serial-fallback", index=index,
                                label=failure.label,
                                cause=failure.cause)
            logger.warning("re-running trajectory %d (%s) in-process "
                           "after %s", index, failure.label,
                           failure.cause)
            payload, new_failure, error = self._attempt(
                context, index, deadline,
                attempts_base=failure.attempts)
            if payload is not None:
                payloads[index] = payload
                del failures[index]
                errors.pop(index, None)
            else:
                failures[index] = new_failure
                if error is not None:
                    errors[index] = error

    def _attempt(self, context: TrajectoryContext, index: int,
                 deadline: Deadline, attempts_base: int = 0):
        """One in-process trajectory run under the retry policy.

        Returns ``(payload, None, None)`` on success or
        ``(None, TrajectoryFailure, last_error)`` once attempts (or the
        deadline) are exhausted.  Backoff jitter is seeded from the
        trajectory index, so the schedule is reproducible.
        """
        attempt = 0
        last_error: Exception | None = None
        for pause in self._retry.delays(seed=index):
            if attempt and deadline.expired():
                break
            if pause > 0.0:
                pause = min(pause, deadline.remaining())
                if pause > 0.0:
                    self._sleep(pause)
            attempt += 1
            if attempt > 1:
                self._metrics.inc("resilience.retries")
                self._recorder.emit("retry", index=index,
                                    label=self._label(index),
                                    attempt=attempts_base + attempt)
            try:
                payload = run_trajectory(context, index)
            except Exception as error:
                last_error = error
                logger.warning(
                    "trajectory %d (%s) attempt %d failed: %s", index,
                    self._label(index), attempts_base + attempt, error)
                continue
            if attempt > 1:
                logger.info("trajectory %d (%s) recovered on attempt "
                            "%d", index, self._label(index),
                            attempts_base + attempt)
            return payload, None, None
        assert last_error is not None
        cause = "error"
        if isinstance(last_error, WorkerCrash):
            cause = "crash"
        elif isinstance(last_error, SearchTimeout):
            cause = "timeout"
        failure = TrajectoryFailure(
            index, self._label(index), cause,
            attempts_base + attempt,
            f"{type(last_error).__name__}: {last_error}")
        return None, failure, last_error

    def _raise_total_failure(self, failures, errors,
                             deadline: Deadline) -> None:
        """Nothing completed: raise the most informative typed error."""
        first = min(failures) if failures else 0
        error = errors.get(first)
        if isinstance(error, ReproError):
            raise error
        if failures and all(f.cause == "timeout"
                            for f in failures.values()):
            raise SearchTimeout(
                f"portfolio deadline expired before any of the "
                f"{len(self._specs)} trajectories completed",
                elapsed_s=deadline.elapsed())
        summary = "; ".join(failures[i].describe()
                            for i in sorted(failures)) or "no detail"
        raise WorkerCrash(
            f"no portfolio trajectory completed: {summary}") from error

    # -- result merging ----------------------------------------------------

    def _merge(self, payloads: dict[int, dict],
               failures: dict[int, TrajectoryFailure],
               jobs: int, backend: str = "serial") -> SearchResult:
        ordered = [payloads[index] for index in sorted(payloads)]
        best = min(ordered, key=lambda p: (p["cost"], p["index"]))
        result = rebuild_result(best, self._farm, self._sizes)
        total_evaluations = 0
        pruned = 0.0
        bound_evaluations = 0.0
        for payload in ordered:
            telemetry = payload["telemetry"]
            total_evaluations += int(telemetry.get("evaluations", 0))
            pruned += float(telemetry.get("extras", {})
                            .get("pruned_candidates", 0.0))
            bound_evaluations += float(
                payload["metrics"].get("counters", {})
                .get("costmodel.bound_evaluations", 0.0))
            self._metrics.merge(payload["metrics"])
            self._attach_spans(payload)
            self._recorder.ingest(payload.get("events", ()))
            self._recorder.emit("trajectory-end",
                                index=int(payload["index"]),
                                label=payload["label"],
                                cost=round(float(payload["cost"]), 6))
        result.evaluations = total_evaluations
        result.extras.update({
            "trajectories": float(len(self._specs)),
            "workers": float(jobs),
            "backend": float(BACKEND_CODES[backend]),
            "best_trajectory": float(best["index"]),
            "best_trajectory_cost": float(best["cost"]),
            "pruned_candidates": pruned,
            "bound_evaluations": bound_evaluations,
        })
        if failures:
            result.degraded = True
            result.failures = [failures[i] for i in sorted(failures)]
            result.extras["failed_trajectories"] = float(len(failures))
            self._metrics.inc("resilience.degraded", len(failures))
            for index in sorted(failures):
                failure = failures[index]
                self._recorder.emit(
                    "trajectory-failed", index=failure.index,
                    label=failure.label, cause=failure.cause,
                    attempts=failure.attempts,
                    message=failure.message)
            self._recorder.emit(
                "degraded", failed=len(failures),
                total=len(self._specs),
                causes=",".join(sorted({f.cause
                                        for f in failures.values()})))
        self._metrics.set_gauge("portfolio.trajectories",
                                len(self._specs))
        self._metrics.set_gauge("portfolio.workers", jobs)
        self._metrics.set_gauge("portfolio.backend",
                                BACKEND_CODES[backend])
        self._metrics.set_gauge("portfolio.best_trajectory",
                                best["index"])
        return result

    def _attach_spans(self, payload: dict) -> None:
        """Graft one trajectory's span tree under the portfolio span."""
        children = [Span.from_dict(data)
                    for data in payload["spans"].get("spans", ())]
        duration = sum(child.duration_s for child in children)
        wrapper = Span(
            name=f"portfolio/trajectory-{payload['index']}",
            start_s=0.0, end_s=duration,
            attrs={"label": payload["label"],
                   "cost": round(float(payload["cost"]), 6)},
            children=children)
        self._tracer.attach(wrapper)
