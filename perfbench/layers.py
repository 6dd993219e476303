"""Per-layer metrics from the spans of one traced phase.

Each function takes the spans of every process (client, daemon, pool
workers) that ended inside the timed window and returns
``{metric: (value, samples)}``.  A layer the workload never reaches
reports ``0.0`` with ``0`` samples.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Iterable

Span = dict[str, Any]


def _ms(span: Span) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


def _median(values: list[float]) -> tuple[float, int]:
    return (float(statistics.median(values)) if values else 0.0, len(values))


def _named(spans: Iterable[Span], name: str) -> list[Span]:
    return [span for span in spans if span["name"] == name]


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` whose parent is not also called ``name``
    (a decode nested in a decode counts once)."""
    by_id = {span["id"]: span for span in spans}
    return [
        span
        for span in _named(spans, name)
        if by_id.get(span["parent"], {}).get("name") != name
    ]


def _per_request_sum(spans: list[Span], name: str) -> list[float]:
    totals: dict[str, float] = defaultdict(float)
    for span in _outermost(spans, name):
        if span["request"] is not None:
            totals[span["request"]] += _ms(span)
    return list(totals.values())


def _inside(inner: Span, outer: Span) -> bool:
    return outer["start_ns"] <= inner["start_ns"] and inner["end_ns"] <= outer["end_ns"]


def client_metrics(spans: list[Span]) -> dict[str, tuple[float, int]]:
    requests = _named(spans, "client.request")
    encode = dict.fromkeys((span["request"] for span in requests), 0.0)
    decode = dict(encode)
    for name, totals in (("client.encode", encode), ("client.decode", decode)):
        for span in _outermost(spans, name):
            if span["request"] in totals:
                totals[span["request"]] += _ms(span)
    return {
        "client.encode_ms": _median(list(encode.values())),
        "client.decode_ms": _median(list(decode.values())),
    }


def daemon_metrics(spans: list[Span]) -> dict[str, tuple[float, int]]:
    handles = _named(spans, "daemon.handle")
    out = {"daemon.handle_ms": _median([_ms(span) for span in handles])}
    for transport in ("unix", "tcp"):
        gaps = []
        candidates = [s for s in handles if s["attrs"].get("transport") == transport]
        for request in _named(spans, "client.request"):
            if request["attrs"].get("transport") != transport:
                continue
            inside = [s for s in candidates if _inside(s, request)]
            if len(inside) == 1:
                gaps.append(_ms(request) - _ms(inside[0]))
        out[f"daemon.transport_ms.{transport}"] = _median(gaps)
    out["protocol.resolve_ms"] = _median(_per_request_sum(spans, "protocol.resolve"))
    return out


def store_metrics(spans: list[Span]) -> dict[str, tuple[float, int]]:
    gets = _named(spans, "store.get")
    hits = [span for span in gets if span["attrs"].get("hit")]
    puts = _named(spans, "store.put")
    to_bytes = _named(spans, "landscape.to_bytes")
    return {
        "store.get_ms": _median([_ms(span) for span in gets]),
        "store.hit_ratio": (len(hits) / len(gets) if gets else 0.0, len(gets)),
        "store.writes_per_hit": (
            sum(span["attrs"].get("writes", 0) for span in hits) / len(hits) if hits else 0.0,
            len(hits),
        ),
        "store.put_ms": _median([_ms(span) for span in puts]),
        "store.evictions": (float(sum(s["attrs"].get("evictions", 0) for s in puts)), len(puts)),
        "store.bytes_written": (float(sum(s["attrs"].get("bytes", 0) for s in puts)), len(puts)),
        "landscape.to_bytes_ms": _median([_ms(span) for span in to_bytes]),
        "landscape.payload_bytes": _median([float(s["attrs"].get("bytes", 0)) for s in to_bytes]),
    }


def execution_metrics(spans: list[Span]) -> dict[str, tuple[float, int]]:
    runs = _outermost(spans, "shards.run")
    shards = _outermost(spans, "engine.shard")
    run_ms, dispatch_ms, busy = [], [], []
    for run in runs:
        inside = [shard for shard in shards if _inside(shard, run)]
        total = _ms(run)
        run_ms.append(total)
        # A worker runs its shards one after another, so the busiest
        # worker's summed engine time bounds the run from below; the
        # rest is dispatch (pickling, pool queues, result collection).
        per_worker: dict[int, float] = defaultdict(float)
        for shard in inside:
            per_worker[shard["pid"]] += _ms(shard)
        dispatch_ms.append(total - max(per_worker.values(), default=0.0))
        workers = max(1, int(run["attrs"].get("workers", 1)))
        if total > 0:
            busy.append(sum(_ms(shard) for shard in inside) / (workers * total))
    many = _outermost(spans, "engine.many")
    many_seconds = sum(_ms(span) for span in many) / 1e3
    points = sum(span["attrs"].get("points", 0) for span in many)
    solves = _named(spans, "cs.solve")
    minimizes = _named(spans, "optimizers.minimize")
    return {
        "shards.run_ms": _median(run_ms),
        "shards.dispatch_ms": _median(dispatch_ms),
        "shards.worker_busy_frac": _median(busy),
        "engine.ms_per_shard": _median([_ms(shard) for shard in shards]),
        "engine.points_per_s": (points / many_seconds if many_seconds > 0 else 0.0, len(many)),
        "cs.solve_ms": _median([_ms(span) for span in solves]),
        "cs.iterations": _median([float(s["attrs"].get("iterations", 0)) for s in solves]),
        "optimizers.minimize_ms": _median([_ms(span) for span in minimizes]),
        "optimizers.queries": _median([float(s["attrs"].get("queries", 0)) for s in minimizes]),
    }


def pipeline_metrics(timings: list[dict[str, float]]) -> dict[str, tuple[float, int]]:
    """Stage times from the responses' ``PipelineOutcome.timings``."""
    return {
        f"pipeline.{stage}_ms": _median(
            [1e3 * float(entry[stage]) for entry in timings if stage in entry]
        )
        for stage in ("sample", "evaluate", "reconstruct", "optimize")
    }


def layer_metrics(spans: list[Span], timings: list[dict[str, float]]) -> dict[str, tuple[float, int]]:
    out: dict[str, tuple[float, int]] = {}
    for part in (
        client_metrics(spans),
        daemon_metrics(spans),
        store_metrics(spans),
        execution_metrics(spans),
        pipeline_metrics(timings),
    ):
        out.update(part)
    return out
