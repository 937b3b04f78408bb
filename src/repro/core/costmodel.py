"""The analytical I/O response-time cost model (Section 5, Figure 7).

For a statement ``Q`` under layout ``L``::

    Cost(Q, L) = sum over non-blocking subplans P of
                   max over disks D_j of (TransferCost_j + SeekCost_j)

    TransferCost_j = sum_i x_ij * B(|R_i|, P) / T_j
    SeekCost_j     = k * S_j * min_i (x_ij * B(|R_i|, P))   if k > 1
                   = 0                                      otherwise

where the sums run over objects accessed in ``P``, ``k`` is the number of
such objects with a positive fraction on ``D_j``, ``T_j`` is the read or
write transfer rate as appropriate, and ``S_j`` the average seek time.
The max captures "the last disk drive to complete I/O determines the I/O
response time"; the seek term models proportional interleaving of
co-located streams.

Mirroring the paper's implementation, accesses to temp objects (tempdb)
are *ignored* by this model — the paper's Section 7 attributes its
validation failures to exactly that omission, and our simulator charges
them, so the same failure mode reproduces here.

Two implementations are provided: a direct, readable one
(:class:`CostModel`) and a precompiled vectorized one
(:class:`WorkloadCostEvaluator`) used by the search, which must evaluate
thousands of layouts.  They agree to float precision (tested).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.layout import Layout
from repro.core.tolerance import EPS_COST, EPS_ZERO
from repro.errors import LayoutError
from repro.obs import NULL_METRICS
from repro.optimizer.planner import TEMPDB
from repro.storage.disk import DiskFarm, DiskSpec
from repro.workload.access import (
    AnalyzedStatement,
    AnalyzedWorkload,
    SubplanAccess,
)

#: Byte budget for the candidate tensor of one vectorized evaluation
#: pass.  :meth:`WorkloadCostEvaluator.costs_for_rows` sizes its chunk
#: so the ``(chunk, S_affected, K, m)`` working set stays near this
#: figure — small problems get large chunks (fewer Python iterations),
#: paper-scale problems keep the old memory profile.  Sized to sit in
#: the L2 cache: measured on the SRCH bench, throughput peaks with
#: ~128 KB working sets and falls ~20% by 1 MB (the reduction passes
#: re-stream the tensor from L3/DRAM instead).
_CHUNK_TARGET_BYTES = 128 << 10

#: Chunk bounds for the auto-sizer: the floor matches the historical
#: fixed chunk (never slower than before), the ceiling bounds peak
#: memory when a workload barely touches an object.
_CHUNK_MIN = 16
_CHUNK_MAX = 1024

#: The read-only packed arrays a shared-memory replica attaches to;
#: mutable per-search state is never in this list.
PACKED_ARRAYS = ("_idx", "_blocks", "_inv", "_weights", "_seeks")


class CostModel:
    """Direct (reference) implementation of the Figure-7 cost model.

    Args:
        farm: The disk drives layouts are defined over.
        tempdb: Optional dedicated temp drive.  The paper's formulation
            supports temp objects ("we can incorporate these effects by
            modeling temporary tables as objects") but its implementation
            ignored them — the source of its validation failures.  Pass
            the tempdb drive spec to enable the temp-aware extension:
            each subplan's temp I/O is charged to this drive, which
            participates in the last-disk-to-finish max.
    """

    def __init__(self, farm: DiskFarm, tempdb: "DiskSpec | None" = None):
        self._farm = farm
        self._tempdb = tempdb

    def _tempdb_cost(self, subplan: SubplanAccess) -> float:
        """I/O time of the subplan's temp streams on the temp drive.

        Spill passes are sequential (a sort writes its run files fully
        before reading them back), so no Figure-7 interleave seek term
        applies between the write and read streams.
        """
        if self._tempdb is None:
            return 0.0
        return sum(
            blocks / self._tempdb.transfer_blocks_s(write=write)
            for (name, write), blocks
            in subplan.blocks_by_object(include_temp=True).items()
            if name == TEMPDB and blocks > 0)

    def subplan_cost(self, subplan: SubplanAccess, layout: Layout) -> float:
        """Estimated I/O time of one non-blocking subplan: max over disks."""
        streams = [(name, write, blocks)
                   for (name, write), blocks
                   in subplan.blocks_by_object(include_temp=False).items()
                   if blocks > 0 and name in layout.object_names]
        worst = self._tempdb_cost(subplan)
        if not streams:
            return worst
        for j, disk in enumerate(self._farm):
            transfer = 0.0
            active: list[float] = []
            for name, write, blocks in streams:
                here = layout.fraction(name, j) * blocks
                if here <= EPS_ZERO:
                    continue
                transfer += here / disk.transfer_blocks_s(write=write)
                active.append(here)
            if not active:
                continue
            seek = 0.0
            if len(active) > 1:
                seek = len(active) * disk.avg_seek_s * min(active)
            worst = max(worst, transfer + seek)
        return worst

    def statement_cost(self, analyzed: AnalyzedStatement,
                       layout: Layout) -> float:
        """``Cost(Q, L)``: summed subplan costs (unweighted)."""
        return sum(self.subplan_cost(s, layout) for s in analyzed.subplans)

    def workload_cost(self, workload: AnalyzedWorkload,
                      layout: Layout) -> float:
        """Weighted total: ``sum_Q w_Q * Cost(Q, L)``."""
        return sum(a.weight * self.statement_cost(a, layout)
                   for a in workload)


class _Slice:
    """The subplans one object group touches, gathered for its moves.

    The static fields depend only on the packed workload, so they
    survive every base change.  The base fields describe the base
    layout as of ``epoch``; once the evaluator's ``set_base`` or
    ``commit_rows`` moved the base on, ``affected_base`` is refreshed on
    next use and the two arrays are rebuilt only by the call that
    reads them (``base_sub`` by exact evaluation, ``other_transfer``
    by the bound), so a group whose candidates are all pruned never
    holds a stream spread.
    """

    __slots__ = ("affected", "idx", "blocks", "inv", "is_target",
                 "weights", "target_coeff", "epoch", "base_sub",
                 "affected_base", "other_transfer")

    def __init__(self, affected: np.ndarray, idx: np.ndarray,
                 blocks: np.ndarray, inv: np.ndarray,
                 is_target: np.ndarray, weights: np.ndarray):
        self.affected = affected                      # (S,)
        self.idx = idx                                # (S, K)
        self.blocks = blocks                          # (S, K, 1)
        self.inv = inv                                # (S, K, m)
        self.is_target = is_target                    # (S, K, 1)
        self.weights = weights                        # (S,)
        # The candidate-scaled half of the transfer split when every
        # group member takes the same row; the base-dependent half is
        # ``other_transfer``.
        self.target_coeff = (np.where(is_target, blocks, 0.0)
                             * inv).sum(axis=1)       # (S, m)
        self.epoch = 0
        self.affected_base = 0.0
        self.base_sub: np.ndarray | None = None       # (S, K, m)
        self.other_transfer: np.ndarray | None = None  # (S, m)


class WorkloadCostEvaluator:
    """Precompiled, vectorized workload cost evaluation.

    The search algorithms evaluate thousands of candidate layouts that
    differ from a base layout in the row of one object — or in the rows
    of one co-location group, whose members usually take the same row
    (incremental search blends each member toward its own current
    row, so theirs can differ).  Besides
    full evaluation (:meth:`cost`), the evaluator holds a base layout
    (:meth:`set_base`, :meth:`commit_rows`) and costs candidate rows
    against it in time proportional to the subplans the moved objects
    touch (:meth:`costs_for_rows`, :meth:`best_for_rows`).

    Two optimizations keep large experiments (64 disks x 800 queries)
    tractable without changing any result:

    * **workload compression** — subplans with identical (object, write,
      blocks) stream sets are merged, summing their statement weights
      (frequent in template-generated workloads like APB-800);
    * **padded-array evaluation** — all subplans are packed into
      ``(S, K, m)`` arrays (K = max streams per subplan) so a full
      evaluation is a handful of vectorized operations.

    Args:
        workload: A planned-and-decomposed workload.
        farm: The disk farm candidate layouts are defined over.
        object_names: Row order of the layout matrices to evaluate;
            must match the layouts passed in later.
        metrics: Optional :class:`repro.obs.MetricsRegistry`; records
            ``costmodel.*`` evaluation counters.
    """

    def __init__(self, workload: AnalyzedWorkload, farm: DiskFarm,
                 object_names: Sequence[str], metrics=None):
        index = {name: i for i, name in enumerate(object_names)}
        m = len(farm)
        inv_read = np.array([1.0 / d.read_blocks_s for d in farm])
        inv_write = np.array([1.0 / d.write_blocks_s for d in farm])

        # Collect subplans as hashable stream signatures and compress.
        signatures: dict[tuple, float] = {}
        for analyzed in workload:
            for subplan in analyzed.subplans:
                entries = tuple(sorted(
                    (index[name], write, round(blocks, 6))
                    for (name, write), blocks
                    in subplan.blocks_by_object(include_temp=False).items()
                    if blocks > 0 and name in index))
                if not entries:
                    continue
                signatures[entries] = signatures.get(entries, 0.0) \
                    + analyzed.weight
        s_count = len(signatures)
        k_max = max((len(sig) for sig in signatures), default=1)
        # Padding slots keep zero blocks, so they contribute nothing to
        # any stream spread, and object index -1, so they never count
        # as touching an object.
        idx = np.full((s_count, k_max), -1, dtype=np.intp)
        blocks_packed = np.zeros((s_count, k_max))
        inv = np.zeros((s_count, k_max, m))
        weights = np.zeros(s_count)
        for s, (sig, weight) in enumerate(signatures.items()):
            weights[s] = weight
            for k, (obj, write, blocks) in enumerate(sig):
                idx[s, k] = obj
                blocks_packed[s, k] = blocks
                inv[s, k] = inv_write if write else inv_read
        packed = {"_idx": idx, "_blocks": blocks_packed, "_inv": inv,
                  "_weights": weights,
                  "_seeks": np.array([d.avg_seek_s for d in farm])}
        self._adopt(farm, object_names, packed,
                    n_compressed_from=sum(1 for a in workload
                                          for s in a.subplans
                                          if s.accesses),
                    metrics=metrics)
        self._metrics.set_gauge("costmodel.subplans", self.n_subplans)
        self._metrics.set_gauge("costmodel.subplans_raw",
                                self.n_compressed_from)

    def _adopt(self, farm: DiskFarm, object_names: Sequence[str],
               packed: dict[str, np.ndarray], n_compressed_from: int,
               metrics=None, pin: object = None) -> None:
        """The one construction path: adopt packed arrays, fresh state.

        ``__init__`` packs a workload and
        :func:`repro.parallel.shared.attach_evaluator` maps a shared
        segment; both end here, so the derived index and the per-search
        mutable state are built in one place and attached replicas can
        never alias search state.  ``pin`` keeps the owner of the
        arrays' memory (a shared-memory mapping) alive as long as the
        evaluator.
        """
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._farm = farm
        self._names = list(object_names)
        self._index = {name: i for i, name in enumerate(self._names)}
        (self._idx, self._blocks, self._inv, self._weights,
         self._seeks) = (packed[attr] for attr in PACKED_ARRAYS)
        self._pin = pin
        self.n_compressed_from = n_compressed_from
        #: subplan indices touching each object row
        self._touching = [
            np.nonzero((self._idx == i).any(axis=1))[0]
            for i in range(len(self._names))]
        self._base_matrix = np.zeros((0, 0))
        self._base_costs = np.zeros(0)
        self._base_total: float = 0.0
        #: Monotone counter identifying the current base layout; bumped
        #: by :meth:`set_base` and :meth:`commit_rows`, so 0 means no
        #: base yet.  A cache entry's base fields are valid only while
        #: its epoch matches.
        self._base_epoch: int = 0
        #: per-group gathered subplans, keyed by the sorted row indices
        #: of the group's members
        self._slices: dict[tuple[int, ...], _Slice] = {}

    # -- matrix plumbing -----------------------------------------------------

    def bind_metrics(self, metrics) -> None:
        """Swap the registry recording ``costmodel.*`` counters.

        The portfolio workers reuse one attached evaluator across
        trajectories but want per-trajectory counter attribution; they
        rebind a fresh registry before each run.
        """
        self._metrics = metrics if metrics is not None else NULL_METRICS

    @property
    def object_names(self) -> list[str]:
        return list(self._names)

    @property
    def farm(self) -> DiskFarm:
        """The disk farm this evaluator's layouts are defined over."""
        return self._farm

    @property
    def n_subplans(self) -> int:
        """Number of distinct (compressed) subplan signatures."""
        return len(self._weights)

    def matrix_of(self, layout: Layout) -> np.ndarray:
        """The layout's fraction matrix in this evaluator's row order."""
        return np.array([layout.fractions_of(name)
                         for name in self._names])

    def touching_count(self, object_name: str) -> int:
        """How many subplans read ``object_name``.

        The cost of evaluating the object's candidate rows is
        proportional to this; benchmarks use it to pick the hottest
        object.
        """
        return int(self._touching[self._index[object_name]].size)

    # -- the Figure-7 kernel --------------------------------------------------

    def _reduce(self, sub: np.ndarray, inv: np.ndarray) -> np.ndarray:
        """Per-subplan Figure-7 costs of a ``(..., S, K, m)`` spread.

        ``sub[..., s, k, j]`` is the blocks stream ``k`` of subplan
        ``s`` moves on disk ``j`` and ``inv`` the matching inverse
        transfer rates; the reduction runs over the stream axis and
        then takes the last disk to finish.  Returns ``(..., S)``.
        """
        transfer = (sub * inv).sum(axis=-2)             # (..., S, m)
        active = sub > EPS_ZERO
        k = active.sum(axis=-2)
        stream_min = np.where(active, sub, np.inf).min(axis=-2,
                                                       initial=np.inf)
        stream_min = np.where(np.isfinite(stream_min), stream_min, 0.0)
        seek = np.where(k > 1, k * self._seeks * stream_min, 0.0)
        return (transfer + seek).max(axis=-1)

    def _subplan_costs(self, matrix: np.ndarray,
                       rows: "np.ndarray | slice" = slice(None),
                       ) -> np.ndarray:
        """Figure-7 costs of the subplans ``rows`` under ``matrix``."""
        # Padding slots hold zero blocks, so no mask multiply is needed.
        sub = matrix[self._idx[rows]] * self._blocks[rows][:, :, None]
        return self._reduce(sub, self._inv[rows])

    def cost(self, layout: Layout) -> float:
        """Weighted workload cost of a layout."""
        self._metrics.inc("costmodel.full_evaluations")
        return float(self._subplan_costs(self.matrix_of(layout))
                     @ self._weights)

    # -- the base layout ------------------------------------------------------

    def set_base(self, matrix: np.ndarray) -> float:
        """Fix a base matrix; returns its total cost.

        Subsequent :meth:`costs_for_rows` / :meth:`best_for_rows` calls
        evaluate row deviations from this base in time proportional to
        the number of subplans that touch the moved objects.
        """
        self._metrics.inc("costmodel.base_evaluations")
        self._base_matrix = matrix.copy()
        self._base_costs = self._subplan_costs(matrix)
        self._base_total = float(self._base_costs @ self._weights)
        # New base: every entry's base fields are stale (the static
        # fields survive — they never depend on the base).
        self._base_epoch += 1
        return self._base_total

    def _touched(self, indices) -> np.ndarray:
        """Subplan mask: which subplans read or write the object rows
        ``indices``."""
        # A mask, not np.union1d / np.intersect1d: np.unique imports
        # numpy.ma (about 1 MB of resident memory) on first use.
        hit = np.zeros(self.n_subplans, dtype=bool)
        for i in indices:
            hit[self._touching[i]] = True
        return hit

    def commit_rows(self, rows: dict[str, np.ndarray]) -> float:
        """Adopt row replacements into the base in O(Δ); return the total.

        Equivalent to rebuilding the full matrix and calling
        :meth:`set_base` — bit-identical ``_base_costs`` and total, by
        construction: only the subplans touching a committed object are
        recomputed (each subplan's cost is elementwise-independent of
        the rest), and the total is re-derived as the full dot product
        over the patched per-subplan costs rather than accumulated
        incrementally.  Cache entries whose subplans are disjoint from
        the committed ones keep their base fields and are re-tagged to
        the new epoch; everything else lazily rebuilds on next use.

        This is what makes an adopted search move cheap: greedy and
        annealing call this after every accepted move instead of
        re-evaluating all ``S`` subplans from scratch.
        """
        if not self._base_epoch:
            raise LayoutError("set_base() must be called before "
                              "commit_rows()")
        self._metrics.inc("costmodel.commit_evaluations")
        indices = [self._index[name] for name in rows]
        for i, row in zip(indices, rows.values()):
            self._base_matrix[i] = row
        hit = self._touched(indices)
        affected = np.flatnonzero(hit)
        if affected.size:
            self._base_costs[affected] = self._subplan_costs(
                self._base_matrix, affected)
            self._base_total = float(self._base_costs @ self._weights)
        previous = self._base_epoch
        self._base_epoch += 1
        for entry in self._slices.values():
            # Entries left from an older epoch stay stale.
            if entry.epoch == previous and not hit[entry.affected].any():
                entry.epoch = self._base_epoch
        return self._base_total

    # -- candidate rows -------------------------------------------------------

    def _slice(self, objects: Sequence[str]) -> _Slice:
        """The cache entry of an object group, base fields current."""
        if not self._base_epoch:
            raise LayoutError("set_base() must be called before "
                              "evaluating candidate rows")
        group = tuple(sorted(self._index[name] for name in objects))
        entry = self._slices.get(group)
        if entry is None:
            affected = np.flatnonzero(self._touched(group))
            idx = self._idx[affected]
            member = np.zeros(len(self._names), dtype=bool)
            member[list(group)] = True
            entry = _Slice(affected, idx,
                           self._blocks[affected][:, :, None],
                           self._inv[affected],
                           member[idx][:, :, None],
                           self._weights[affected])
            self._slices[group] = entry
        if entry.epoch != self._base_epoch:
            entry.epoch = self._base_epoch
            entry.affected_base = float(
                self._base_costs[entry.affected] @ entry.weights)
            entry.base_sub = entry.other_transfer = None
        return entry

    def _auto_chunk(self, n_affected: int) -> int:
        """Deterministic chunk size for one vectorized pass.

        Sized so the ``(chunk, S_affected, K, m)`` float64 candidate
        tensor stays near :data:`_CHUNK_TARGET_BYTES`; clamped to
        ``[_CHUNK_MIN, _CHUNK_MAX]``.  Depends only on array shapes, so
        results and evaluation counts never vary with the machine.
        """
        per_row = max(1, n_affected) * self._idx.shape[1] \
            * max(1, len(self._farm)) * 8
        return max(_CHUNK_MIN, min(_CHUNK_MAX,
                                   _CHUNK_TARGET_BYTES // per_row))

    def _candidate_rows(self, objects: Sequence[str],
                        rows: np.ndarray) -> np.ndarray:
        """Candidate rows as ``(C, m)`` (shared) or ``(C, g, m)``.

        ``(C, g, m)`` rows give member ``objects[i]`` the row
        ``rows[:, i]``; when every member's row is the same they collapse
        to the shared form, so both spellings of one move take the same
        kernel path and cost bit-identically.
        """
        rows = np.asarray(rows, dtype=float)
        if rows.ndim == 3:
            if rows.shape[1] != len(objects):
                raise LayoutError(
                    f"per-member rows need one row per object: got "
                    f"{rows.shape[1]} rows for {len(objects)} objects")
            if len(objects) == 1 or (rows == rows[:, :1]).all():
                return rows[:, 0]
        return rows

    def _members(self, entry: _Slice, objects: Sequence[str],
                 ) -> np.ndarray:
        """``(S, K)`` position in ``objects`` of each gathered stream.

        Streams of non-members map to 0; ``is_target`` masks them.
        """
        position = np.zeros(len(self._names), dtype=np.intp)
        position[[self._index[name] for name in objects]] = \
            np.arange(len(objects))
        return position[entry.idx]

    def costs_for_rows(self, objects: Sequence[str],
                       rows: np.ndarray) -> np.ndarray:
        """Costs of many candidate rows for one object group, batched.

        The members of ``objects`` (a singleton or a co-location group)
        take the candidate rows; the rest of the layout is the base.
        Candidates are evaluated a chunk at a time in one vectorized
        pass over the subplans the group touches, the chunk auto-sized
        so the working set stays near a fixed byte budget.

        Args:
            objects: Names of the objects that move together.
            rows: Candidate rows, shape ``(C, m)`` when every member
                takes the same row, or ``(C, len(objects), m)`` with
                one row per member, in ``objects`` order.

        Returns:
            Array of ``C`` total workload costs.
        """
        entry = self._slice(objects)
        if entry.base_sub is None:
            entry.base_sub = self._base_matrix[entry.idx] * entry.blocks
        self._metrics.inc("costmodel.batch_evaluations")
        self._metrics.inc("costmodel.batch_rows", len(rows))
        rows = self._candidate_rows(objects, rows)
        members = self._members(entry, objects) if rows.ndim == 3 \
            else None
        chunk = self._auto_chunk(entry.affected.size)
        out = np.empty(len(rows))
        for start in range(0, len(rows), chunk):
            batch = rows[start:start + chunk]          # (C, m) / (C, g, m)
            # (C, S, K, m): base streams, with the group's streams
            # re-spread per candidate row.
            spread = batch[:, members] if members is not None \
                else batch[:, None, None, :]
            sub = np.where(entry.is_target[None],
                           spread * entry.blocks[None],
                           entry.base_sub[None])
            out[start:start + chunk] = \
                self._base_total - entry.affected_base \
                + self._reduce(sub, entry.inv) @ entry.weights
        return out

    def _bounds(self, objects: Sequence[str],
                rows: np.ndarray) -> np.ndarray:
        """Transfer-only lower bounds on :meth:`costs_for_rows`.

        For the subplans the group touches only the seek-free transfer
        term ``max_j sum_i x_ij * B_i / T_j`` is charged (the seek term
        is non-negative, so this underestimates each subplan); every
        untouched subplan keeps its exact base cost.  The result never
        exceeds the true candidate cost, and costs
        ``O(C * S_affected * m)`` — no per-stream axis and no seek
        bookkeeping, an order of magnitude cheaper than full evaluation.
        """
        entry = self._slice(objects)
        rows = self._candidate_rows(objects, rows)
        self._metrics.inc("costmodel.bound_evaluations", len(rows))
        if entry.other_transfer is None:
            base_sub = entry.base_sub if entry.base_sub is not None \
                else self._base_matrix[entry.idx] * entry.blocks
            # Transfer per disk of every stream the group does not own
            # (constant across candidates).
            entry.other_transfer = (
                np.where(entry.is_target, 0.0, base_sub)
                * entry.inv).sum(axis=1)                 # (S, m)
        # (C, S, m): candidate transfer time per subplan and disk.
        if rows.ndim == 3:
            # target_coeff split by member: (g, S, m).
            owner = entry.is_target[..., 0, None] & (
                self._members(entry, objects)[..., None]
                == np.arange(len(objects)))              # (S, K, g)
            coeff = np.einsum("skg,skm->gsm", owner,
                              entry.blocks * entry.inv)
            target = np.einsum("cgm,gsm->csm", rows, coeff)
        else:
            target = rows[:, None, :] * entry.target_coeff[None]
        transfer = entry.other_transfer[None] + target
        return self._base_total - entry.affected_base \
            + transfer.max(axis=2) @ entry.weights

    def best_for_rows(self, objects: Sequence[str], rows: np.ndarray,
                      incumbent: float, prune: bool = True,
                      ) -> tuple[float, int, int]:
        """Fused prune+evaluate: the best candidate row, one call.

        Computes transfer-only lower bounds for all ``C`` candidates in
        one vectorized pass, fully evaluates only the survivors (bound
        below the incumbent), and replays the search's sequential
        epsilon acceptance over the survivor costs.  A pruned candidate
        could never be accepted (its cost is at least its bound, which
        is within ``EPS_COST`` of the incumbent or above it), so the
        selected candidate and the winning cost are identical with
        ``prune`` on or off.

        Args:
            objects: Names of the objects that move together (a
                singleton or a co-location group).
            rows: Candidate rows, ``(C, m)`` or per-member
                ``(C, len(objects), m)`` as for :meth:`costs_for_rows`.
            incumbent: The cost to beat (the search's running best).
            prune: Disable to evaluate every candidate (results are
                identical; only the evaluation count changes).

        Returns:
            ``(best_cost, best_index, n_pruned)``.  ``best_index`` is
            the index into ``rows`` of the accepted candidate, or
            ``-1`` when nothing beats the incumbent by ``EPS_COST`` —
            in which case ``best_cost`` is the incumbent, unchanged.
        """
        rows = self._candidate_rows(objects, rows)
        self._metrics.inc("costmodel.fused_evaluations")
        if len(rows) == 0:
            return float(incumbent), -1, 0
        if prune:
            bounds = self._bounds(objects, rows)
            keep = np.nonzero(bounds < incumbent - EPS_COST)[0]
            pruned = len(rows) - int(keep.size)
        else:
            keep = np.arange(len(rows))
            pruned = 0
        if keep.size == 0:
            return float(incumbent), -1, pruned
        costs = self.costs_for_rows(objects, rows[keep])
        best_cost = float(incumbent)
        best_index = -1
        # Sequential epsilon acceptance, not argmin: each later
        # candidate must beat the *running* best by EPS_COST, exactly
        # the tie-breaking the greedy loop has always used.  An
        # accepted candidate is strictly below every earlier cost
        # (accepted ones by > EPS_COST; rejected ones were >= the
        # then-best - EPS_COST, which the acceptance undercuts), so
        # only strict prefix minima can be accepted — the Python loop
        # replaying the rule runs over those few, not all survivors.
        running_min = np.minimum.accumulate(costs)
        contender = np.empty(costs.size, dtype=bool)
        contender[0] = True
        np.less(costs[1:], running_min[:-1], out=contender[1:])
        for position in np.nonzero(contender)[0]:
            candidate_cost = costs[position]
            if candidate_cost < best_cost - EPS_COST:
                best_cost = float(candidate_cost)
                best_index = int(keep[position])
        return best_cost, best_index, pruned
