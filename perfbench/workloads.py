"""The two workloads, each a real user path through the default code.

* ``cli`` — a DBA running ``repro-advisor recommend --method portfolio
  --jobs 2`` in a fresh process, one request at a time.
* ``service`` — two tenants of the HTTP daemon, each a closed-loop
  client thread (it waits for every reply before sending on).

A workload object is driven as: :meth:`setup` (timed as ``setup_s``),
one or two :meth:`run` windows (the second one traced when asked), then
:meth:`check` and :meth:`close`.  Nothing under ``src/`` is changed; the
traced window wraps the program's functions from the outside.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench import checks
from perfbench.common import (
    OUT,
    ROOT,
    child_env,
    derive_seed,
    self_peak_rss_mb,
)
from perfbench.inputs import (
    MOVEMENT_BUDGET,
    N_DISKS,
    Size,
    cli_workload,
    service_workload,
    statements_payload,
    tenant_layout,
)
from perfbench.tracing import SpanLog, now_ns

#: A child CLI run or a service job that takes longer is a failure.
REQUEST_TIMEOUT_S = 60.0
#: Closed-loop clients poll a queued job this often.
POLL_S = 0.01
#: Service clients resubmit one of their last this-many workloads; the
#: working set (2 clients x 2 jobs per cycle x this) fits the cache.
HIT_WINDOW = 4
CACHE_ENTRIES = 64
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2
PORTFOLIO_JOBS = 2


@dataclass
class Window:
    """What one measured window saw."""

    #: Latency samples (s) per request class: advise, hit, relayout, …
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    wall_s: float = 0.0
    #: Advise requests finished (normalizes per-layer totals).
    advise_requests: int = 0

    def add(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- cli -------------------------------------------------------------------------


class CliWorkload:
    """Fresh ``python -m repro.cli recommend --method portfolio --jobs 2``
    processes on the TPC-H example catalog (13 objects, 8 disks)."""

    name = "cli"

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.dir = OUT / f"cli-{os.getpid()}"
        self.db_path = ROOT / "examples" / "tpch" / "db.json"
        self.disks_path = ROOT / "examples" / "tpch" / "disks.json"
        self.pool: list[Path] = []
        #: (sql file, saved recommendation, exit code, stderr) per request.
        self.results: list[tuple[Path, Path, int, str]] = []
        self.child_rss_mb: list[float] = []
        self.imports_s: list[float] = []
        self.missing: set[str] = set()
        self._index = 0

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        for k in range(self.size.cli_pool):
            path = self.dir / f"workload-{k}.sql"
            cli_workload(self.seed, k, self.size).save(path)
            self.pool.append(path)
        # Warm-up: compiles bytecode caches and fills the page cache, so
        # that every measured request is a steady-state cold start.
        self._spawn(self.pool[0], self.dir / "warmup.json", None)

    def _spawn(self, sql: Path, out: Path, spans_path: Path | None,
               ) -> tuple[int, float, float, str]:
        """Run one request; ``(exit code, wall s, peak RSS MB, stderr)``."""
        args = ["recommend", "--database", str(self.db_path),
                "--disks", str(self.disks_path), "--workload", str(sql),
                "--method", "portfolio", "--jobs", str(PORTFOLIO_JOBS),
                "--save-recommendation", str(out)]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli"] + args
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"),
                    str(spans_path)] + args
        err_path = out.with_suffix(".err")
        with open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                    stderr=err, env=child_env(), cwd=ROOT)
            # wait4 rather than Popen.wait: it also returns the child's
            # own peak RSS.  The timer kills a hung child.
            timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, elapsed, usage.ru_maxrss / 1024.0,
                err_path.read_text())

    def run(self, seconds: float, log: SpanLog | None) -> Window:
        window = Window()
        deadline = time.perf_counter() + seconds
        start = time.perf_counter()
        while time.perf_counter() < deadline:
            index = self._index
            self._index += 1
            sql = self.pool[index % len(self.pool)]
            out = self.dir / f"rec-{index}.json"
            spans_path = self.dir / f"spans-{index}.json" \
                if log is not None else None
            t0 = now_ns()
            code, elapsed, rss_mb, err = self._spawn(sql, out, spans_path)
            t1 = now_ns()
            self.child_rss_mb.append(rss_mb)
            window.attempted += 1
            self.results.append((sql, out, code, err))
            if code != 0:
                window.failed += 1
                continue
            window.completed += 1
            window.advise_requests += 1
            window.add("advise", elapsed)
            if log is not None:
                self._adopt(log, spans_path, index, t0, t1)
        window.wall_s = time.perf_counter() - start
        return window

    def _adopt(self, log: SpanLog, spans_path: Path, index: int,
               t0: int, t1: int) -> None:
        """Hang a child's spans under a parent-side request span."""
        payload = json.loads(spans_path.read_text())
        self.missing.update(payload["missing"])
        request = f"cli-{index}"
        root = {"id": f"req.{request}", "name": "request", "start": t0,
                "end": t1, "parent": None, "thread": 0,
                "request": request, "attrs": {"kind": "advise"}}
        spans = [root]
        for span in payload["spans"]:
            span["request"] = request
            if span["parent"] is None:
                span["parent"] = root["id"]
            if span["name"] == "import":
                self.imports_s.append((span["end"] - span["start"]) / 1e9)
            spans.append(span)
        log.extend(spans)

    @property
    def import_s(self) -> float:
        """Mean ``import repro.cli`` time of the traced children."""
        return _mean(self.imports_s)

    def check(self) -> tuple[dict[tuple, float], list[str], int]:
        """``(improvement per input, failures, failed ops)``."""
        from repro.catalog.io import load_database, load_farm, \
            load_recommendation
        from repro.errors import ReproError
        from repro.workload.access import analyze_workload
        from repro.workload.workload import Workload

        db = load_database(self.db_path)
        farm = load_farm(self.disks_path)
        analyzed = {}
        #: Re-scoring verdicts by (input, layout, claimed costs): the
        #: same layout of the same input re-scores the same.
        verdicts: dict[tuple[Path, str], list[str]] = {}
        improvements: dict[tuple, float] = {}
        failures, failed = [], 0
        for sql, out, code, err in self.results:
            if code != 0:
                failures.append(f"{out.name}: exit {code}: {err[-300:]}")
                continue
            if sql not in analyzed:
                analyzed[sql] = analyze_workload(Workload.load(sql), db)
            try:
                rec = load_recommendation(out, farm)
            except (ReproError, OSError) as error:
                failures.append(f"{out.name}: does not load back: "
                                f"{error}")
                failed += 1
                continue
            saved = json.loads(out.read_text())
            key = (sql, json.dumps([saved[k] for k in (
                "layout", "current_layout", "estimated_cost",
                "current_cost")], sort_keys=True))
            if key not in verdicts:
                verdicts[key] = checks.check_recommendation(
                    rec, db, farm, analyzed[sql])
            problems = list(verdicts[key])
            if saved.get("search", {}).get("degraded"):
                problems.append("degraded portfolio result")
            if problems:
                failures.append(f"{out.name}: " + "; ".join(problems))
                failed += 1
            improvements.setdefault((self.pool.index(sql),),
                                    rec.improvement_pct)
        return improvements, failures, failed

    def peak_rss_mb(self) -> float:
        return max(self.child_rss_mb)

    def close(self) -> None:
        for path in self.dir.glob("*"):
            path.unlink()
        self.dir.rmdir()


# -- service ---------------------------------------------------------------------


@dataclass
class _Op:
    """One client operation of the service workload."""

    kind: str            # upload | miss | hit | relayout
    client: int
    cycle: int
    workload: str
    start_ns: int = 0
    end_ns: int = 0
    job: dict[str, Any] | None = None
    payload: Any = None
    polls: int = 0
    error: str | None = None
    span: dict[str, Any] | None = None


class _Client:
    """A closed-loop tenant: each cycle uploads a fresh workload, asks for
    a from-scratch recommendation (cache miss), re-asks for a recent one
    (cache hit) and asks for a budgeted relayout and its plan."""

    def __init__(self, owner: "ServiceWorkload", client: int):
        self.owner = owner
        self.client = client
        self.tenant = f"tenant{client}"
        self.rng = random.Random(derive_seed(owner.seed, "hits", client))
        self.recent: list[str] = []
        self.cycle = 0
        self.ops: list[_Op] = []
        #: Client-observed HTTP call durations (s), traced windows only.
        self.calls_s: list[float] = []
        self.log: SpanLog | None = None

    def call(self, method: str, path: str, body: Any = None,
             ) -> tuple[int, Any]:
        start = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.owner.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} \
                if data is not None else {}
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            status = response.status
        finally:
            conn.close()
        if self.log is not None:
            self.calls_s.append(time.perf_counter() - start)
        return status, json.loads(raw) if raw else None

    def _op(self, kind: str, workload: str) -> _Op:
        op = _Op(kind=kind, client=self.client, cycle=self.cycle,
                 workload=workload)
        if self.log is not None:
            op.span = self.log.begin(
                "request", kind=kind,
                request=f"c{self.client}.{self.cycle}.{kind}")
        op.start_ns = now_ns()
        return op

    def _finish(self, op: _Op) -> _Op:
        op.end_ns = now_ns()
        if op.span is not None:
            self.log.end(op.span)
        self.ops.append(op)
        return op

    def _wait(self, op: _Op, job_id: str) -> bool:
        """Poll a queued job until it is done; False on failure."""
        give_up = time.perf_counter() + REQUEST_TIMEOUT_S
        while True:
            status, job = self.call("GET", f"/v1/jobs/{job_id}")
            op.polls += 1
            if status != 200:
                op.error = f"poll -> {status}"
                return False
            if job["status"] == "done":
                op.job = job
                return True
            if job["status"] == "failed":
                op.error = f"job failed: {job.get('error')}"
                return False
            if time.perf_counter() > give_up:
                op.error = "timed out"
                return False
            time.sleep(POLL_S)

    def _submit(self, op: _Op, body: dict[str, Any], final: str) -> None:
        status, job = self.call("POST", f"/v1/tenants/{self.tenant}/jobs",
                                body)
        if status == 429:
            op.error = "rejected (429)"
            self.owner.rejected += 1
            return
        if status == 200:
            op.job = job
        elif status == 202:
            if not self._wait(op, job["job_id"]):
                return
        else:
            op.error = f"submit -> {status}: {job}"
            return
        status, payload = self.call("GET",
                                    f"/v1/jobs/{job['job_id']}/{final}")
        if status != 200:
            op.error = f"{final} -> {status}"
            return
        op.payload = payload

    def cycle_once(self) -> None:
        size = self.owner.size
        name = f"w{self.cycle}"
        workload = service_workload(self.owner.seed, self.client,
                                    self.cycle, size)
        self.owner.workloads[self.tenant, name] = workload

        op = self._op("upload", name)
        status, reply = self.call(
            "PUT", f"/v1/tenants/{self.tenant}/workloads/{name}",
            {"statements": statements_payload(workload)})
        if status != 200:
            op.error = f"upload -> {status}: {reply}"
        self._finish(op)
        if op.error:
            return
        self.recent = (self.recent + [name])[-HIT_WINDOW:]

        op = self._op("miss", name)
        self._submit(op, {"workload": name, "method": "greedy"}, "result")
        self._finish(op)

        again = self.rng.choice(self.recent)
        op = self._op("hit", again)
        self._submit(op, {"workload": again, "method": "greedy"}, "result")
        self._finish(op)

        op = self._op("relayout", name)
        self._submit(op, {"workload": name, "method": "incremental",
                          "movement_budget": MOVEMENT_BUDGET}, "plan")
        self._finish(op)
        self.cycle += 1


class ServiceWorkload:
    """An in-process ``AdvisorService`` behind ``make_server`` on loopback,
    driven over HTTP by two closed-loop tenant clients."""

    name = "service"

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.import_s = 0.0
        self.rejected = 0
        self.workloads: dict[tuple[str, str], Any] = {}
        self.clients: list[_Client] = []
        self.ops_seen = 0
        self._server = None
        self._thread: threading.Thread | None = None

    def setup(self) -> None:
        start = time.perf_counter()
        import repro  # noqa: F401 - the package import users pay
        from repro.server import AdvisorService, make_server
        self.import_s = time.perf_counter() - start
        from repro.benchdb import tpch
        from repro.catalog.io import database_to_dict, farm_to_dict, \
            layout_to_dict
        from repro.storage.disk import winbench_farm

        self.db = tpch.tpch_database()
        self.farm = winbench_farm(N_DISKS)
        self.current = tenant_layout(self.db, self.farm)
        self.service = AdvisorService(workers=SERVICE_WORKERS,
                                      max_cache=CACHE_ENTRIES)
        self._server = make_server(self.service, port=0)
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05},
            name="perfbench-server")
        self._thread.start()
        catalog = [("database", database_to_dict(self.db)),
                   ("disks", farm_to_dict(self.farm)),
                   ("layout", layout_to_dict(self.current))]
        for client in range(SERVICE_CLIENTS):
            tenant_client = _Client(self, client)
            status, reply = tenant_client.call("POST", "/v1/tenants",
                                        {"tenant": tenant_client.tenant})
            if status != 201:
                raise RuntimeError(f"tenant creation -> {status}: {reply}")
            for kind, body in catalog:
                status, reply = tenant_client.call(
                    "PUT", f"/v1/tenants/{tenant_client.tenant}/{kind}", body)
                if status != 200:
                    raise RuntimeError(f"{kind} upload -> {status}: {reply}")
            self.clients.append(tenant_client)
        # Warm-up: one full cycle per tenant, not measured and not
        # checked; the measured cycles start from a warm server.
        for tenant_client in self.clients:
            tenant_client.cycle = -1
            tenant_client.cycle_once()
            tenant_client.ops.clear()
            tenant_client.recent.clear()

    def run(self, seconds: float, log: SpanLog | None) -> Window:
        deadline = time.perf_counter() + seconds
        first = [len(tenant_client.ops) for tenant_client in self.clients]
        errors: list[BaseException] = []

        def loop(tenant_client: _Client) -> None:
            tenant_client.log = log
            try:
                while time.perf_counter() < deadline:
                    tenant_client.cycle_once()
            except BaseException as error:  # noqa: BLE001 - re-raised
                errors.append(error)
            finally:
                tenant_client.log = None

        start = time.perf_counter()
        threads = [threading.Thread(target=loop, args=(tenant_client,),
                                    name=f"perfbench-client{tenant_client.client}")
                   for tenant_client in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if errors:
            raise errors[0]
        window = Window(wall_s=wall)
        rounds: dict[tuple[int, int], dict[str, _Op]] = {}
        for tenant_client, begin in zip(self.clients, first):
            for op in tenant_client.ops[begin:]:
                window.attempted += 1
                if op.error:
                    window.failed += 1
                    continue
                window.completed += 1
                window.add(op.kind, (op.end_ns - op.start_ns) / 1e9)
                rounds.setdefault((op.client, op.cycle), {})[op.kind] = op
        # A tenant's advise round: from submitting the miss until the
        # relayout's plan is in hand.  Per-op latencies depend on how the
        # two tenants' jobs happen to overlap; a round's does much less.
        for ops in rounds.values():
            if {"miss", "hit", "relayout"} <= set(ops):
                window.add("advise", (ops["relayout"].end_ns
                                      - ops["miss"].start_ns) / 1e9)
                window.advise_requests += 1
        return window

    def window_ops(self) -> list[_Op]:
        return [op for tenant_client in self.clients for op in tenant_client.ops]

    def server_extras(self, ops: list[_Op], calls_s: list[float],
                      spans: list[dict[str, Any]]) -> dict[str, float]:
        """Per-layer values measured from the clients' side."""
        queued = [op for op in ops if op.job is not None
                  and op.job.get("cache") == "miss"]
        advise = [op for op in ops if op.kind != "upload" and not op.error]
        handle = [(s["end"] - s["start"]) / 1e9 for s in spans
                  if s["name"] == "server.handle"]
        return {
            "queue_wait_s": _mean([op.job.get("wait_s", 0.0)
                                   for op in queued]),
            "job_run_s": _mean([op.job["latency_s"] - op.job["wait_s"]
                                for op in queued]),
            "polls_per_job": _mean([float(op.polls) for op in queued]),
            "cache_hit_ratio": _mean([
                1.0 if op.job and op.job.get("cache") == "hit" else 0.0
                for op in advise]),
            "http_overhead_s": _mean(calls_s) - _mean(handle)
            if calls_s and handle else 0.0,
            "rejected": float(self.rejected),
        }

    def attribute(self, spans: list[dict[str, Any]], ops: list[_Op],
                  ) -> None:
        """Hang server-side spans under the client operation they served.

        Handler and worker threads have no request context of their
        own: a span is matched by the job id in its path or reply, by
        the fingerprint it computed, or by the workload it uploaded.
        """
        by_job: dict[str, _Op] = {}
        by_fingerprint: dict[str, _Op] = {}
        by_upload: dict[str, _Op] = {}
        for op in ops:
            if op.span is None:
                continue
            if op.job is not None:
                by_job[op.job["job_id"]] = op
                if op.job.get("cache") == "miss":
                    by_fingerprint[op.job["fingerprint"]] = op
            if op.kind == "upload":
                tenant = f"tenant{op.client}"
                by_upload[f"/v1/tenants/{tenant}/workloads/{op.workload}"] \
                    = op
        for span in spans:
            if span["parent"] is not None or span["name"] == "request":
                continue
            attrs = span["attrs"]
            op = None
            if "job" in attrs:
                op = by_job.get(attrs["job"])
            elif "fingerprint" in attrs:
                op = by_fingerprint.get(attrs["fingerprint"])
            elif "path" in attrs:
                parts = attrs["path"].split("/")
                op = by_job.get(parts[3]) if len(parts) > 3 \
                    and parts[2] == "jobs" else by_upload.get(attrs["path"])
            if op is not None:
                span["parent"] = op.span["id"]
                span["request"] = op.span["request"]

    def check(self) -> tuple[dict[tuple, float], list[str], int]:
        from repro.catalog.io import recommendation_from_dict
        from repro.errors import ReproError
        from repro.workload.access import analyze_workload

        improvements: dict[tuple, float] = {}
        failures, failed = [], 0
        filled: dict[tuple[str, str], dict[str, Any]] = {}
        analyzed: dict[tuple[str, str], Any] = {}

        def analysis(tenant: str, name: str):
            key = (tenant, name)
            if key not in analyzed:
                analyzed[key] = analyze_workload(self.workloads[key],
                                                 self.db)
            return analyzed[key]

        ops = self.window_ops()
        for op in ops:
            if op.kind == "miss" and not op.error:
                filled[f"tenant{op.client}", op.workload] = \
                    op.payload["recommendation"]
        for op in ops:
            tenant = f"tenant{op.client}"
            label = f"{tenant}/{op.workload}/{op.kind}"
            if op.error:
                failures.append(f"{label}: {op.error}")
                continue
            if op.kind == "upload":
                continue
            problems = []
            verdict = op.job.get("cache") if op.job else None
            expected = "hit" if op.kind == "hit" else "miss"
            if verdict != expected:
                problems.append(f"cache verdict {verdict}, not {expected}")
            try:
                if op.kind == "hit":
                    problems += checks.check_hit(
                        op.payload["recommendation"],
                        filled.get((tenant, op.workload)))
                elif op.kind == "miss":
                    rec = recommendation_from_dict(
                        op.payload["recommendation"], self.farm)
                    problems += checks.check_recommendation(
                        rec, self.db, self.farm,
                        analysis(tenant, op.workload))
                    improvements[op.cycle, op.client, op.kind] = \
                        rec.improvement_pct
                else:
                    status, result = self.clients[0].call(
                        "GET", f"/v1/jobs/{op.job['job_id']}/result")
                    if status != 200:
                        raise ReproError(f"result -> {status}")
                    payload = result["recommendation"]
                    if payload.get("migration") != op.payload["migration"]:
                        problems.append("/plan differs from the result's "
                                        "migration plan")
                    rec = recommendation_from_dict(payload, self.farm)
                    problems += checks.check_recommendation(
                        rec, self.db, self.farm,
                        analysis(tenant, op.workload),
                        budget=MOVEMENT_BUDGET)
                    improvements[op.cycle, op.client, op.kind] = \
                        rec.improvement_pct
            except (ReproError, KeyError) as error:
                problems.append(f"{type(error).__name__}: {error}")
            if problems:
                failures.append(f"{label}: " + "; ".join(problems))
                failed += 1
        return improvements, failures, failed

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join()
            self.service.close(drain=True)
            self._server = None


WORKLOAD_CLASSES = {cls.name: cls
                    for cls in (CliWorkload, ServiceWorkload)}
