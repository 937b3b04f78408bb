"""The benchmark's metrics: end-to-end ones measured untraced, and
per-layer ones derived from a traced run's spans.

Per-layer times are totals per advise request (summed over threads, so
under the thread backend a layer can exceed the request's wall time);
``server.*`` route times are per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from perfbench.tracing import self_times


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Which end-to-end metric, on which workload, this should move.
    moves: str = ""


#: Every end-to-end metric the report prints.  ``gated`` ones are
#: defined, never 0 and steady on every workload, and form the
#: ``--trace 0`` result line; the rest are printed where the workload
#: has such requests (and, for tails, enough samples).
END_TO_END: tuple[tuple[Metric, bool], ...] = (
    (Metric("setup_s", "s", "lower"), True),
    (Metric("advise_mean_s", "s", "lower"), True),
    (Metric("advise_p50_s", "s", "lower"), False),
    (Metric("advise_tail_s", "s", "lower"), False),
    (Metric("improvement_pct", "%", "higher"), True),
    (Metric("peak_rss_mb", "MB", "lower"), True),
    (Metric("throughput_rps", "ops/s", "higher"), False),
    (Metric("failed_ratio", "ratio", "lower"), False),
    (Metric("miss_p50_s", "s", "lower"), False),
    (Metric("miss_tail_s", "s", "lower"), False),
    (Metric("relayout_p50_s", "s", "lower"), False),
    (Metric("relayout_tail_s", "s", "lower"), False),
    (Metric("hit_p50_s", "s", "lower"), False),
)

_CLI = "cli advise_*"
_SMALL = "cli advise_*; small on service"
_SEARCH = "cli advise_* via portfolio; service advise_* via miss and relayout"

PER_LAYER: tuple[Metric, ...] = (
    Metric("import.s", "s", "lower",
           "cli advise_*; service only in setup_s"),
    Metric("sql.parse_s", "s", "lower", _SMALL),
    Metric("sql.parse_calls", "count", "lower", _SMALL),
    Metric("optimizer.plan_s", "s", "lower", _SMALL),
    Metric("optimizer.plan_calls", "count", "lower", _SMALL),
    Metric("workload.analyze_self_s", "s", "lower", _SMALL),
    Metric("workload.graph_s", "s", "lower", _SMALL),
    Metric("costmodel.build_s", "s", "lower", _SEARCH),
    Metric("costmodel.best_s", "s", "lower", _SEARCH),
    Metric("costmodel.best_calls", "count", "lower", _SEARCH),
    Metric("costmodel.candidates", "count", "lower", _SEARCH),
    Metric("costmodel.survivor_ratio", "ratio", "lower", _SEARCH),
    Metric("costmodel.commit_s", "s", "lower", _SEARCH),
    Metric("costmodel.commit_calls", "count", "lower", _SEARCH),
    Metric("costmodel.full_cost_s", "s", "lower", _SEARCH),
    Metric("costmodel.reference_s", "s", "lower", _SEARCH),
    Metric("greedy.search_s", "s", "lower",
           "cli advise_* via portfolio; service advise_* via miss"),
    Metric("greedy.self_s", "s", "lower",
           "cli advise_* via portfolio; service advise_* via miss"),
    Metric("greedy.steps", "count", "lower", _SEARCH),
    Metric("partitioning.kl_s", "s", "lower", "small everywhere"),
    Metric("annealing.search_s", "s", "lower", "cli only"),
    Metric("annealing.self_s", "s", "lower", "cli only"),
    Metric("incremental.search_s", "s", "lower",
           "service advise_* via relayout_* only"),
    Metric("incremental.self_s", "s", "lower",
           "service advise_* via relayout_* only"),
    Metric("parallel.portfolio_s", "s", "lower",
           "cli advise_* only"),
    Metric("parallel.trajectory_s", "s", "lower",
           "cli advise_* only"),
    Metric("parallel.speedup", "ratio", "higher",
           "cli advise_* only"),
    Metric("parallel.failures", "count", "lower",
           "cli advise_* only"),
    Metric("migration.plan_s", "s", "lower", "service advise_* via relayout_*"),
    Metric("migration.steps", "count", "lower", "service advise_* via relayout_*"),
    Metric("migration.moved_fraction", "ratio", "lower",
           "service advise_* via relayout_*"),
    Metric("analysis.preflight_s", "s", "lower",
           "every advise latency, small"),
    Metric("analysis.audit_s", "s", "lower", "every advise latency, small"),
    Metric("report.render_s", "s", "lower", _CLI),
    Metric("catalog.decode_s", "s", "lower",
           "service hit_p50_s and throughput_rps; cli a little"),
    Metric("catalog.encode_s", "s", "lower",
           "service hit_p50_s and throughput_rps; cli a little"),
    Metric("catalog.fingerprint_s", "s", "lower",
           "service hit_p50_s and throughput_rps"),
    Metric("server.submit_s", "s", "lower",
           "service throughput_rps and hit_p50_s"),
    Metric("server.poll_s", "s", "lower", "service throughput_rps"),
    Metric("server.result_s", "s", "lower",
           "service throughput_rps and hit_p50_s"),
    Metric("server.upload_s", "s", "lower", "service throughput_rps"),
    Metric("server.queue_wait_s", "s", "lower",
           "service advise_* and miss and relayout tails"),
    Metric("server.job_run_s", "s", "lower",
           "service advise_* via miss and relayout"),
    Metric("server.http_overhead_s", "s", "lower",
           "service throughput_rps and hit_p50_s"),
    Metric("server.polls_per_job", "count", "lower",
           "service throughput_rps"),
    Metric("server.cache_hit_ratio", "ratio", "higher",
           "service throughput_rps and hit_p50_s"),
    Metric("server.rejected", "count", "lower", "service failed_ratio"),
    Metric("trace.overhead_s", "s", "lower",
           "none: traced minus untraced advise_mean_s"),
    Metric("trace.uncovered_s", "s", "lower",
           "none: request wall no top-level layer span covers"),
)

GATED = tuple(metric for metric, gated in END_TO_END if gated)


def layer_values(spans: list[dict[str, Any]], requests: int,
                 extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values for one traced window.

    Args:
        spans: The window's spans (request spans included).
        requests: Advise requests completed in the window.
        extra: Values measured outside the spans (import time, server
            job descriptions, tracing overhead, uncovered remainder).
    """
    per = max(1, requests)
    own = self_times(spans)
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr: dict[tuple[str, str], float] = {}
    for span in spans:
        name = span["name"]
        total[name] = total.get(name, 0.0) \
            + (span["end"] - span["start"]) / 1e9
        selfs[name] = selfs.get(name, 0.0) + own[span["id"]] / 1e9
        calls[name] = calls.get(name, 0) + 1
        for key, value in span["attrs"].items():
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                attr[name, key] = attr.get((name, key), 0.0) + value

    def per_request(name: str) -> float:
        return total.get(name, 0.0) / per

    def self_per_request(name: str) -> float:
        return selfs.get(name, 0.0) / per

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    route_total: dict[str, float] = {}
    route_calls: dict[str, int] = {}
    for span in spans:
        if span["name"] == "server.handle":
            route = span["attrs"].get("route", "other")
            route_total[route] = route_total.get(route, 0.0) \
                + (span["end"] - span["start"]) / 1e9
            route_calls[route] = route_calls.get(route, 0) + 1

    def route_mean(route: str) -> float:
        return ratio(route_total.get(route, 0.0),
                     route_calls.get(route, 0))

    candidates = attr.get(("costmodel.best", "candidates"), 0.0)
    values = {
        "import.s": extra.get("import_s", 0.0),
        "sql.parse_s": per_request("sql.parse"),
        "sql.parse_calls": calls.get("sql.parse", 0) / per,
        "optimizer.plan_s": self_per_request("optimizer.plan"),
        "optimizer.plan_calls": calls.get("optimizer.plan", 0) / per,
        "workload.analyze_self_s": self_per_request("workload.analyze"),
        "workload.graph_s": per_request("workload.graph"),
        "costmodel.build_s": per_request("costmodel.build"),
        "costmodel.best_s": per_request("costmodel.best"),
        "costmodel.best_calls": calls.get("costmodel.best", 0) / per,
        "costmodel.candidates": candidates / per,
        "costmodel.survivor_ratio": ratio(
            attr.get(("costmodel.best", "survivors"), 0.0), candidates),
        "costmodel.commit_s": per_request("costmodel.commit"),
        "costmodel.commit_calls": calls.get("costmodel.commit", 0) / per,
        "costmodel.full_cost_s": per_request("costmodel.full_cost"),
        "costmodel.reference_s": per_request("costmodel.reference"),
        "greedy.search_s": per_request("greedy.search"),
        "greedy.self_s": self_per_request("greedy.search"),
        "greedy.steps": attr.get(("greedy.search", "iterations"), 0.0)
        / per,
        "partitioning.kl_s": per_request("partitioning.kl"),
        "annealing.search_s": per_request("annealing.search"),
        "annealing.self_s": self_per_request("annealing.search"),
        "incremental.search_s": per_request("incremental.search"),
        "incremental.self_s": self_per_request("incremental.search"),
        "parallel.portfolio_s": per_request("parallel.portfolio"),
        "parallel.trajectory_s": per_request("parallel.trajectory"),
        "parallel.speedup": ratio(total.get("parallel.trajectory", 0.0),
                                  total.get("parallel.portfolio", 0.0)),
        "parallel.failures": attr.get(("parallel.portfolio", "failures"),
                                      0.0),
        "migration.plan_s": per_request("migration.plan"),
        "migration.steps": ratio(
            attr.get(("migration.plan", "steps"), 0.0),
            calls.get("migration.plan", 0)),
        "migration.moved_fraction": ratio(
            attr.get(("migration.plan", "moved_fraction"), 0.0),
            calls.get("migration.plan", 0)),
        "analysis.preflight_s": per_request("analysis.preflight"),
        "analysis.audit_s": per_request("analysis.audit"),
        "report.render_s": per_request("report.render"),
        "catalog.decode_s": per_request("catalog.decode"),
        "catalog.encode_s": per_request("catalog.encode"),
        "catalog.fingerprint_s": per_request("catalog.fingerprint"),
        "server.submit_s": route_mean("submit"),
        "server.poll_s": route_mean("poll"),
        "server.result_s": route_mean("result"),
        "server.upload_s": route_mean("upload"),
        "server.queue_wait_s": extra.get("queue_wait_s", 0.0),
        "server.job_run_s": extra.get("job_run_s", 0.0),
        "server.http_overhead_s": extra.get("http_overhead_s", 0.0),
        "server.polls_per_job": extra.get("polls_per_job", 0.0),
        "server.cache_hit_ratio": extra.get("cache_hit_ratio", 0.0),
        "server.rejected": extra.get("rejected", 0.0),
        "trace.overhead_s": extra.get("overhead_s", 0.0),
        "trace.uncovered_s": extra.get("uncovered_s", 0.0),
    }
    return values
