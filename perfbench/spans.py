"""In-memory span recorder for the traced benchmark run.

The recorder wraps public callables of the program at the benchmark's
side of each layer boundary; no program file changes.  A span is
``(name, start_ns, end_ns, parent, request, pid, attrs)`` on the
system-wide ``CLOCK_MONOTONIC`` (``time.monotonic_ns``), so spans from
the client, the daemon and its pool workers share one time axis.

- Spans opened while a request span is active on the same thread carry
  that request's id.  Pool workers have no request context; their spans
  carry ``request=None`` and are tied to a request by time window.
- The owning process keeps spans in memory and writes them out once
  (:meth:`Tracer.dump`).  A forked pool worker cannot be relied on to
  run exit hooks (the pool terminates it), so a worker appends each
  finished span to its own ``spans-<pid>.jsonl`` at once.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable


class Tracer:
    """Records spans for one process tree (see the module docstring)."""

    def __init__(self, out_dir: str | Path | None = None):
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.owner_pid = os.getpid()
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._worker_file = None

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self, prefix: str) -> dict[str, Any] | None:
        """The innermost open span on this thread whose name starts
        with ``prefix``."""
        for span in reversed(self._stack()):
            if span["name"].startswith(prefix):
                return span
        return None

    def open(self, name: str, new_request: bool = False, **attrs: Any) -> dict[str, Any]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        pid = os.getpid()
        span = {
            "name": name,
            "id": f"{pid}-{next(self._ids)}",
            "parent": None if parent is None else parent["id"],
            "request": None,
            "pid": pid,
            "attrs": attrs,
            "start_ns": time.monotonic_ns(),
            "end_ns": None,
        }
        if new_request:
            span["request"] = span["id"]
        elif parent is not None:
            span["request"] = parent["request"]
        stack.append(span)
        return span

    def close(self, span: dict[str, Any], **attrs: Any) -> None:
        span["end_ns"] = time.monotonic_ns()
        span["attrs"].update(attrs)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        if os.getpid() == self.owner_pid or self.out_dir is None:
            self.spans.append(span)
        else:
            self._write_worker_span(span)

    def _write_worker_span(self, span: dict[str, Any]) -> None:
        if self._worker_file is None or self._worker_file[0] != os.getpid():
            handle = open(self.out_dir / f"spans-{os.getpid()}.jsonl", "a")
            self._worker_file = (os.getpid(), handle)
        handle = self._worker_file[1]
        handle.write(json.dumps(span) + "\n")
        handle.flush()

    def dump(self) -> None:
        """Write the owning process's spans to ``spans-<pid>.jsonl``."""
        if self.out_dir is None:
            return
        path = self.out_dir / f"spans-{self.owner_pid}.jsonl"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    # -- wrapping ----------------------------------------------------------

    def traced(
        self,
        function: Callable,
        name: str,
        new_request: bool = False,
        on_call: Callable[..., dict[str, Any]] | None = None,
        on_result: Callable[[Any], dict[str, Any]] | None = None,
    ) -> Callable:
        """``function`` wrapped in a span.  ``on_call(*args, **kwargs)``
        and ``on_result(result)`` return extra span attributes."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            attrs = on_call(*args, **kwargs) if on_call is not None else {}
            span = self.open(name, new_request=new_request, **attrs)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                self.close(span)
                raise
            self.close(span, **(on_result(result) if on_result is not None else {}))
            return result

        return wrapper

    def patch(self, owner: Any, attribute: str, name: str, **options: Any) -> bool:
        """Replace ``owner.attribute`` with its traced form.  Returns
        ``False`` (and patches nothing) when the attribute does not
        exist, so a refactor that removes a hook shows up as a layer
        with zero samples instead of a crash."""
        if isinstance(owner, type):
            original = owner.__dict__.get(attribute)  # keeps classmethod objects
        else:
            original = getattr(owner, attribute, None)
        if original is None:
            return False
        if isinstance(original, classmethod):
            traced = classmethod(self.traced(original.__func__, name, **options))
        else:
            traced = self.traced(original, name, **options)
        setattr(owner, attribute, traced)
        return True


def load_spans(directory: str | Path) -> list[dict[str, Any]]:
    """Every span written under ``directory`` (all processes)."""
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    try:
                        spans.append(json.loads(line))
                    except json.JSONDecodeError:
                        continue  # a worker killed mid-write
    return spans


# -- the daemon side ---------------------------------------------------------


def install_daemon_hooks(tracer: Tracer) -> list[str]:
    """Wrap the daemon-side layers.  Must run before the daemon forks
    its pool, so the workers inherit the wrapped engine.  Returns the
    hooks that could not be installed."""
    import repro.service.daemon as daemon_module
    import repro.service.pipeline as pipeline_module
    import repro.service.shards as shards_module
    from repro.cs.engine import ReconstructionEngine
    from repro.landscape.generator import AnsatzCostFunction
    from repro.landscape.landscape import Landscape
    from repro.service.daemon import LandscapeDaemon
    from repro.service.shards import ShardedExecutor
    from repro.service.store import LandscapeStore

    missing = []

    def hook(owner, attribute, name, **options):
        if not tracer.patch(owner, attribute, name, **options):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")

    hook(
        LandscapeDaemon,
        "handle_line",
        "daemon.handle",
        new_request=True,
        on_call=lambda self, line, transport="unix": {"transport": transport},
    )
    hook(daemon_module, "function_from_spec", "protocol.resolve")
    hook(daemon_module, "grid_from_spec", "protocol.resolve")
    hook(
        LandscapeStore,
        "get",
        "store.get",
        on_call=lambda *a, **k: {"writes": 0, "bytes": 0},
        on_result=lambda landscape: {"hit": landscape is not None},
    )
    hook(
        LandscapeStore,
        "put",
        "store.put",
        on_call=lambda *a, **k: {"writes": 0, "bytes": 0, "evictions": 0},
    )

    original_invalidate = getattr(LandscapeStore, "invalidate", None)
    if original_invalidate is None:
        missing.append("LandscapeStore.invalidate")
    else:

        @functools.wraps(original_invalidate)
        def invalidate(self, spec_or_key):
            removed = original_invalidate(self, spec_or_key)
            put = tracer.current("store.put")
            if removed and put is not None:
                put["attrs"]["evictions"] += 1
            return removed

        LandscapeStore.invalidate = invalidate

    original_replace = os.replace

    @functools.wraps(original_replace)
    def replace(src, dst, *args, **kwargs):
        result = original_replace(src, dst, *args, **kwargs)
        store_span = tracer.current("store.")
        if store_span is not None:
            store_span["attrs"]["writes"] += 1
            try:
                store_span["attrs"]["bytes"] += os.stat(dst).st_size
            except OSError:
                pass
        return result

    os.replace = replace

    hook(
        Landscape,
        "to_bytes",
        "landscape.to_bytes",
        on_result=lambda blob: {"bytes": len(blob)},
    )
    for method in ("run", "run_ansatz"):
        hook(
            ShardedExecutor,
            method,
            "shards.run",
            on_call=lambda self, *a, **k: {"workers": self.workers},
        )
    hook(
        shards_module,
        "evaluate_points_chunked",
        "engine.shard",
        on_call=lambda function, points, *a, **k: {"points": len(points)},
    )
    hook(
        AnsatzCostFunction,
        "many",
        "engine.many",
        on_call=lambda self, points, *a, **k: {"points": len(points)},
    )
    hook(
        ReconstructionEngine,
        "solve",
        "cs.solve",
        on_result=lambda pairs: {
            "iterations": int(sum(result.iterations for _, result in pairs))
        },
    )

    original_make = getattr(pipeline_module, "make_optimizer", None)
    if original_make is None:
        missing.append("pipeline.make_optimizer")
    else:

        @functools.wraps(original_make)
        def make_optimizer(*args, **kwargs):
            optimizer = original_make(*args, **kwargs)
            optimizer.minimize = tracer.traced(
                optimizer.minimize,
                "optimizers.minimize",
                on_result=lambda result: {"queries": int(result.num_queries)},
            )
            return optimizer

        pipeline_module.make_optimizer = make_optimizer
    return missing


# -- the client side ---------------------------------------------------------


def install_client_hooks(tracer: Tracer) -> list[str]:
    """Wrap the client library's encode and decode steps."""
    import repro.service.client as client_module
    from repro.landscape.landscape import Landscape

    missing = []
    for attribute in ("function_to_spec", "grid_to_spec", "encode_array", "encode_rng_state"):
        if not tracer.patch(client_module, attribute, "client.encode"):
            missing.append(f"client.{attribute}")
    for attribute in ("decode_blob", "decode_array"):
        if not tracer.patch(client_module, attribute, "client.decode"):
            missing.append(f"client.{attribute}")
    if not tracer.patch(Landscape, "from_bytes", "client.decode"):
        missing.append("Landscape.from_bytes")
    return missing
