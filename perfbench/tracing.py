"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

The traced run wraps the program's layer boundaries — methods on their
classes (so thread-backend evaluator clones are covered too) and module
functions in the namespace of the module that calls them — and records
one span per call: name, start, end, parent, thread and request id.
Spans stay in memory and are written out when the run ends.

Targets are resolved by name.  A target whose module is not loaded in
this process is off the workload's path and is skipped; a target that
no longer exists (a refactor removed it) is reported as missing and its
metrics read 0 — neither fails the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

#: The span clock: CLOCK_MONOTONIC, comparable across processes.  This
#: module imports nothing heavier than the standard library's core, so
#: the traced CLI child pays little before ``import repro.cli``.
now_ns = time.monotonic_ns


class SpanLog:
    """Thread-safe in-memory span store.

    A span is a dict with ``id``, ``name``, ``start``/``end`` (ns on the
    system monotonic clock, comparable across processes), ``parent``,
    ``thread``, ``request`` and ``attrs``.  A span's parent is the
    innermost open span on its thread, unless the wrapper linked it to
    a span on another thread (portfolio trajectories on pool threads).
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchors: dict[Any, dict[str, Any]] = {}

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def has_open(self) -> bool:
        return bool(self._stack())

    def begin(self, name: str, parent: dict[str, Any] | None = None,
              request: str | None = None, **attrs: Any) -> dict[str, Any]:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = {
            "id": f"{os.getpid()}.{next(self._ids)}",
            "name": name,
            "start": now_ns(),
            "end": None,
            "parent": parent["id"] if parent is not None else None,
            "thread": threading.get_ident(),
            "request": request if request is not None
            else (parent["request"] if parent is not None else None),
            "attrs": attrs,
        }
        stack.append(span)
        return span

    def end(self, span: dict[str, Any]) -> None:
        span["end"] = now_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - unbalanced use is a benchmark bug
            stack.remove(span)
        with self._lock:
            self.spans.append(span)

    def set_anchor(self, key: Any, span: dict[str, Any]) -> None:
        with self._lock:
            self._anchors[key] = span

    def drop_anchor(self, key: Any) -> None:
        with self._lock:
            self._anchors.pop(key, None)

    def anchored(self, key: Any) -> dict[str, Any] | None:
        with self._lock:
            return self._anchors.get(key)

    def extend(self, spans: list[dict[str, Any]]) -> None:
        """Add finished spans recorded elsewhere (a child process)."""
        with self._lock:
            self.spans.extend(spans)

    def take(self) -> list[dict[str, Any]]:
        """Return the finished spans and start a new window."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


@dataclass(frozen=True)
class Target:
    """One layer boundary: wrap ``where`` (``module:qualname``) so every
    call records a span named ``span``.

    ``record(args, kwargs, result, attrs)`` adds counts to the finished
    span; ``anchor`` registers the span as the cross-thread parent for
    a key computed from the arguments, and ``link`` looks a parent up
    by such a key when the calling thread has no open span.
    """

    span: str
    where: str
    record: Callable[..., None] | None = None
    anchor: Callable[..., Any] | None = None
    link: Callable[..., Any] | None = None


def _record_best(args, kwargs, result, attrs) -> None:
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    attrs["candidates"] = len(rows)
    attrs["survivors"] = len(rows) - int(result[2])


def _record_iterations(args, kwargs, result, attrs) -> None:
    attrs["iterations"] = int(result.iterations)


def _record_portfolio(args, kwargs, result, attrs) -> None:
    attrs["failures"] = len(result.failures)


def _record_migration(args, kwargs, result, attrs) -> None:
    attrs["steps"] = len(result.steps)
    attrs["moved_fraction"] = float(result.moved_fraction)


def _record_handle(args, kwargs, result, attrs) -> None:
    method, path = args[1], args[2]
    attrs["route"] = route_of(method, path)
    attrs["status"] = int(result[0])
    attrs["path"] = path
    payload = result[1]
    if isinstance(payload, dict) and "job_id" in payload:
        attrs["job"] = payload["job_id"]


def _record_key(args, kwargs, result, attrs) -> None:
    attrs["fingerprint"] = args[1]


def route_of(method: str, path: str) -> str:
    """The server route class of a request: upload, submit, poll,
    result or other."""
    parts = [p for p in path.split("/") if p]
    if method == "PUT" and "workloads" in parts:
        return "upload"
    if method == "POST" and parts[-1:] == ["jobs"]:
        return "submit"
    if method == "GET" and len(parts) == 3 and parts[1] == "jobs":
        return "poll"
    if method == "GET" and len(parts) == 4 and parts[1] == "jobs" \
            and parts[3] in ("result", "plan"):
        return "result"
    return "other"


def _graph_of_portfolio(args, kwargs):
    return id(args[1] if len(args) > 1 else kwargs["graph"])


def _graph_of_trajectory(args, kwargs):
    return id((args[0] if args else kwargs["context"]).graph)


#: Every layer boundary the traced run wraps, named after the module
#: that owns the layer.  Module functions are wrapped where they are
#: looked up by their caller.
TARGETS: tuple[Target, ...] = (
    Target("sql.parse", "repro.workload.access:parse_statement"),
    Target("optimizer.plan", "repro.optimizer.planner:Planner.plan"),
    Target("workload.analyze", "repro.core.advisor:analyze_workload"),
    Target("workload.graph", "repro.core.advisor:build_access_graph"),
    Target("costmodel.build",
           "repro.core.costmodel:WorkloadCostEvaluator.__init__"),
    Target("costmodel.best",
           "repro.core.costmodel:WorkloadCostEvaluator.best_for_rows",
           record=_record_best),
    Target("costmodel.commit",
           "repro.core.costmodel:WorkloadCostEvaluator.commit_rows"),
    Target("costmodel.full_cost",
           "repro.core.costmodel:WorkloadCostEvaluator.cost"),
    Target("costmodel.full_cost",
           "repro.core.costmodel:WorkloadCostEvaluator.set_base"),
    Target("costmodel.reference",
           "repro.core.costmodel:CostModel.statement_cost"),
    Target("greedy.search", "repro.core.greedy:TsGreedySearch.search",
           record=_record_iterations),
    Target("partitioning.kl", "repro.core.greedy:partition_access_graph"),
    Target("annealing.search", "repro.parallel.worker:annealing_search"),
    Target("incremental.search",
           "repro.core.incremental:IncrementalSearch.search"),
    Target("parallel.portfolio",
           "repro.parallel.portfolio:PortfolioSearch.search",
           record=_record_portfolio, anchor=_graph_of_portfolio),
    # Thread-backend workers resolve run_trajectory through the worker
    # module; the serial path and fallbacks use the portfolio's import.
    Target("parallel.trajectory", "repro.parallel.worker:run_trajectory",
           link=_graph_of_trajectory),
    Target("parallel.trajectory",
           "repro.parallel.portfolio:run_trajectory",
           link=_graph_of_trajectory),
    Target("migration.plan", "repro.core.advisor:plan_migration",
           record=_record_migration),
    Target("analysis.preflight", "repro.analysis.engine:preflight"),
    Target("analysis.audit",
           "repro.analysis.engine:audit_recommendation"),
    Target("analysis.audit", "repro.analysis.engine:audit_migration"),
    Target("report.render", "repro.cli:render_report"),
    Target("catalog.decode", "repro.cli:load_database"),
    Target("catalog.decode", "repro.cli:load_farm"),
    Target("catalog.decode", "repro.server.api:database_from_dict"),
    Target("catalog.decode", "repro.server.api:farm_from_dict"),
    Target("catalog.decode", "repro.server.api:layout_from_dict"),
    Target("catalog.encode", "repro.cli:save_recommendation"),
    Target("catalog.encode", "repro.server.api:recommendation_to_dict"),
    Target("catalog.encode", "repro.server.api:database_to_dict"),
    Target("catalog.encode", "repro.server.api:farm_to_dict"),
    Target("catalog.fingerprint",
           "repro.server.api:catalog_fingerprint"),
    Target("catalog.fingerprint", "repro.server.api:job_fingerprint"),
    Target("server.handle", "repro.server.api:AdvisorService.handle",
           record=_record_handle),
    Target("server.compute",
           "repro.server.cache:FingerprintCache.get_or_compute",
           record=_record_key),
)


def _wrap(log: SpanLog, target: Target, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = None
        if target.link is not None and not log.has_open():
            parent = log.anchored(target.link(args, kwargs))
        span = log.begin(target.span, parent=parent)
        key = target.anchor(args, kwargs) \
            if target.anchor is not None else None
        if key is not None:
            log.set_anchor(key, span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span["attrs"]["error"] = True
            raise
        finally:
            log.end(span)
            if key is not None:
                log.drop_anchor(key)
        if target.record is not None:
            target.record(args, kwargs, result, span["attrs"])
        return result

    return wrapper


class Installation:
    """The wrappers one :func:`install` call put in place."""

    def __init__(self) -> None:
        self.patched: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def install(log: SpanLog,
            targets: tuple[Target, ...] = TARGETS) -> Installation:
    """Wrap every target whose module is loaded; see the module doc."""
    done = Installation()
    for target in targets:
        module_name, qualname = target.where.split(":")
        if module_name not in sys.modules:
            continue
        owner: Any = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if attr in vars(owner) \
                else getattr(owner, attr)
        except (AttributeError, KeyError):
            done.missing.append(target.where)
            continue
        setattr(owner, attr, _wrap(log, target, original))
        done.patched.append((owner, attr, original))
    return done


# -- analysis ----------------------------------------------------------------


def self_times(spans: list[dict[str, Any]]) -> dict[str, int]:
    """Self time per span id: its duration minus the part of its interval
    its children cover (children on other threads included)."""
    children: dict[str, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    out = {}
    for span in spans:
        covered = covered_ns(children.get(span["id"], ()),
                             span["start"], span["end"])
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def nesting_errors(spans: list[dict[str, Any]]) -> list[str]:
    """Spans that end before they start or stick out of their parent."""
    by_id = {span["id"]: span for span in spans}
    errors = []
    for span in spans:
        if span["end"] is None or span["end"] < span["start"]:
            errors.append(f"{span['name']} {span['id']}: bad interval")
            continue
        parent = by_id.get(span["parent"]) if span["parent"] else None
        if span["parent"] is not None and parent is None:
            errors.append(f"{span['name']} {span['id']}: parent missing")
        elif parent is not None and not (
                parent["start"] <= span["start"]
                and span["end"] <= parent["end"]):
            errors.append(f"{span['name']} {span['id']}: outside parent "
                          f"{parent['name']} {parent['id']}")
    return errors


def uncovered_ns(spans: list[dict[str, Any]]) -> list[int]:
    """Per request span: wall time that no top-level layer span covers.

    Top-level layer spans are the request span's direct children.
    """
    children: dict[str, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return [span["end"] - span["start"]
            - covered_ns(children.get(span["id"], ()), span["start"],
                         span["end"])
            for span in spans if span["name"] == "request"]
