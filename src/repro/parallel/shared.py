"""Shared-memory publication of the precompiled cost evaluator.

The :class:`~repro.core.costmodel.WorkloadCostEvaluator` packs the
workload into ``(S, K, m)`` arrays that reach megabytes at paper scale
(64 disks x 800 statements).  Shipping them to every worker of a
portfolio run by pickling would serialize the same bytes once per
worker; instead the creator copies them into one
``multiprocessing.shared_memory`` segment and hands workers a tiny
picklable :class:`SharedEvaluatorSpec` describing where each array
lives.  Workers rebuild the evaluator with zero-copy read-only views
into the mapped segment.

Lifecycle: the **creator** owns the segment — :func:`share_evaluator`
returns a :class:`SharedEvaluatorState` context manager whose
:meth:`~SharedEvaluatorState.close` both closes the local mapping and
unlinks the segment (idempotent, safe on error paths).  **Workers**
attach with :func:`attach_evaluator` and never unlink; their mappings
die with the process.  Keeping to this split is what makes the
``resource_tracker`` happy: every registration is balanced by exactly
one unlink, so no "leaked shared_memory objects" warnings appear.

Crash recovery: every segment this process creates is also recorded in
a module-level ledger; :func:`reap_orphans` (registered with
``atexit``) unlinks anything still alive, so a crash between create
and unlink — an exception path someone forgot, a ``KeyboardInterrupt``
in a window ``finally`` does not cover — cannot leak a segment in
``/dev/shm`` past process exit.
"""

from __future__ import annotations

import atexit
import logging
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import SharedStateError
from repro.resilience.faults import fire_shm_attach
from repro.storage.disk import DiskFarm

logger = logging.getLogger("repro.parallel.shared")

#: Byte alignment of each array inside the segment.
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# -- orphan ledger -----------------------------------------------------------

#: Names of segments created by this process and not yet unlinked.
_LIVE_SEGMENTS: set[str] = set()


def reap_orphans() -> list[str]:
    """Unlink any segment this process created but never closed.

    The normal lifecycle (creator-owned ``close()`` in a ``finally``)
    never leaves anything for this to do; it exists for crash paths.
    Registered with ``atexit`` at import, and callable directly — e.g.
    by a supervisor after killing a stuck advisor run.  Returns the
    names reaped (empty on a healthy run).
    """
    reaped: list[str] = []
    for name in sorted(_LIVE_SEGMENTS):
        _LIVE_SEGMENTS.discard(name)
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            logger.debug("stale ledger entry %r: segment already gone",
                         name)
            continue
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:
            logger.debug("segment %r unlinked by another path during "
                         "reap", name)
            continue
        logger.warning("reaped orphaned shared-memory segment %r "
                       "(creator never unlinked it)", name)
        reaped.append(name)
    return reaped


atexit.register(reap_orphans)


@dataclass(frozen=True)
class SharedArraySpec:
    """Location of one packed array inside the shared segment."""

    attr: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)
                   * np.dtype(self.dtype).itemsize)


@dataclass(frozen=True)
class SharedEvaluatorSpec:
    """Picklable recipe to rebuild an evaluator from shared memory.

    Everything except the packed arrays travels by value (the farm and
    the object-name list are tiny); the arrays travel by segment name.
    """

    shm_name: str
    arrays: tuple[SharedArraySpec, ...]
    names: tuple[str, ...]
    farm: DiskFarm
    n_compressed_from: int


class SharedEvaluatorState:
    """Creator-side handle on the published segment (context manager).

    Attributes:
        spec: The picklable :class:`SharedEvaluatorSpec` to send to
            workers (e.g. via a process-pool initializer).
    """

    def __init__(self, spec: SharedEvaluatorSpec,
                 shm: shared_memory.SharedMemory):
        self.spec = spec
        self._shm: shared_memory.SharedMemory | None = shm

    @property
    def nbytes(self) -> int:
        """Size of the shared segment in bytes."""
        return sum(a.nbytes for a in self.spec.arrays)

    def close(self) -> None:
        """Close the local mapping and unlink the segment (idempotent).

        Must run even on error paths — ``with`` blocks or ``finally``
        clauses — or the segment outlives the process in ``/dev/shm``.
        """
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        _LIVE_SEGMENTS.discard(shm.name)
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # repro: noqa RPC202 -- idempotent unlink race: reap_orphans or a crashing owner got there first; nothing to log on the happy double-close path
            pass

    def __enter__(self) -> "SharedEvaluatorState":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort backstop
        self.close()


def share_evaluator(evaluator) -> SharedEvaluatorState:
    """Copy an evaluator's packed arrays into one shared segment.

    Args:
        evaluator: A :class:`~repro.core.costmodel.WorkloadCostEvaluator`.

    Returns:
        A :class:`SharedEvaluatorState`; the caller owns (and must
        close) it.
    """
    # Deferred import: see attach_evaluator.
    from repro.core.costmodel import PACKED_ARRAYS
    specs: list[SharedArraySpec] = []
    offset = 0
    for attr in PACKED_ARRAYS:
        array = np.ascontiguousarray(getattr(evaluator, attr))
        offset = _aligned(offset)
        specs.append(SharedArraySpec(attr=attr, dtype=array.dtype.str,
                                     shape=array.shape, offset=offset))
        offset += array.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    _LIVE_SEGMENTS.add(shm.name)
    try:
        for spec in specs:
            source = np.ascontiguousarray(getattr(evaluator, spec.attr))
            view = np.ndarray(spec.shape, dtype=spec.dtype,
                              buffer=shm.buf, offset=spec.offset)
            view[...] = source
        full_spec = SharedEvaluatorSpec(
            shm_name=shm.name, arrays=tuple(specs),
            names=tuple(evaluator.object_names),
            farm=evaluator.farm,
            n_compressed_from=evaluator.n_compressed_from)
    except (AttributeError, TypeError, ValueError, OSError) as error:
        logger.exception(
            "failed to populate shared segment %r; unlinking it",
            shm.name)
        _reclaim(shm)
        raise SharedStateError(
            f"could not publish evaluator arrays into shared segment "
            f"{shm.name!r}: {error}") from error
    except BaseException:
        # Anything else (KeyboardInterrupt included) must still not
        # leak the segment; re-raise untyped.
        _reclaim(shm)
        raise
    return SharedEvaluatorState(full_spec, shm)


def _reclaim(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink a segment on a failed-publication path."""
    _LIVE_SEGMENTS.discard(shm.name)
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # repro: noqa RPC202 -- idempotent unlink race on an already-failing path; the original error is what gets raised
        pass


def attach_evaluator(spec: SharedEvaluatorSpec, metrics=None):
    """Rebuild a :class:`WorkloadCostEvaluator` from a shared spec.

    The packed arrays become read-only views into the mapped segment
    (no copy); mutable per-search state (base matrix, slice caches) is
    freshly initialized and private to the attaching process.  The
    returned evaluator pins the mapping for its own lifetime; the
    mapping is released when the process exits (workers never unlink).
    """
    # Deferred import: repro.core must stay importable without this
    # package, so the dependency points parallel -> core only at call
    # time.
    from repro.core.costmodel import WorkloadCostEvaluator

    fire_shm_attach(spec.shm_name)
    try:
        shm = shared_memory.SharedMemory(name=spec.shm_name)
    except FileNotFoundError as error:
        logger.error("shared evaluator segment %r is gone",
                     spec.shm_name)
        raise SharedStateError(
            f"shared evaluator segment {spec.shm_name!r} is gone "
            "(creator closed it before workers attached?)") from error
    packed = {}
    for array_spec in spec.arrays:
        view = np.ndarray(array_spec.shape, dtype=array_spec.dtype,
                          buffer=shm.buf, offset=array_spec.offset)
        view.flags.writeable = False
        packed[array_spec.attr] = view
    evaluator = WorkloadCostEvaluator.__new__(WorkloadCostEvaluator)
    evaluator._adopt(spec.farm, spec.names, packed,
                     spec.n_compressed_from, metrics=metrics, pin=shm)
    return evaluator
