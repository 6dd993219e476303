"""OSCAR service benchmark: one landscape daemon, one closed-loop client.

Run from the repository root::

    python3 perfbench/run.py --workload warm-hits --seed 1 --seconds 30 --trace 0

Each daemon (``perfbench/daemon_main.py``) runs as its own process with
an empty store in a fresh directory under ``.bench_run/``; the run sets
it up and drives it from this process with one closed-loop thread per
connection over wire protocol v2.  An untraced run does this with four
daemons in turn, each for a quarter of ``--seconds``.  Every response is
checked against a closed-form reference (``reference.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs an
untraced phase and then a traced one and reports the per-layer
metrics.  The second-to-last line of stdout is a detailed JSON report
(every metric with unit and sample count, run conditions); the last
line is the summary ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

import procfs
from layers import layer_metrics
from reference import build_instance, max_abs_error, reference_values
from spans import Tracer, install_client_hooks, load_spans

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKERS = 2
TOKEN = "perfbench-token"
TOLERANCE = 1e-10
FRACTION = 0.05
PROBE_INSTANCES = (9001, 9002, 9003, 9004)  # fixed: see README, recon_nrmse
#: Metric names and units, as ``BENCHMARK.json`` defines them.
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# -- the daemon process --------------------------------------------------------


class Daemon:
    """One daemon process plus the clients that talk to it."""

    def __init__(self, directory: Path, tcp: bool, max_bytes: int | None, trace: bool, timeout: float):
        self.directory = directory
        self.directory.mkdir(parents=True)
        # Relative to the repository root, which is the working
        # directory of both processes: AF_UNIX paths are short.
        self.socket = os.path.relpath(directory / "d.sock", ROOT)
        self.tcp = tcp
        self.max_bytes = max_bytes
        self.trace = trace
        self.timeout = timeout
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.conditions: dict = {}
        self.worker_pids: list[int] = []

    def _command(self) -> list[str]:
        command = [
            sys.executable,
            str(HERE / "daemon_main.py"),
            "--out",
            str(self.directory / "out"),
            *(["--trace"] if self.trace else []),
            "--",
            "serve",
            "--socket",
            self.socket,
            "--workers",
            str(WORKERS),
            "--cache-dir",
            str(self.directory / "cache"),
        ]
        if self.max_bytes is not None:
            command += ["--max-bytes", str(self.max_bytes)]
        if self.tcp:
            tokens = self.directory / "tokens.json"
            tokens.write_text(json.dumps({"bench": TOKEN}))
            command += ["--tcp", f"127.0.0.1:{self.port}", "--tokens-file", str(tokens)]
        return command

    def start(self) -> None:
        from repro.service import LandscapeClient

        for _attempt in range(3):
            if self.tcp:
                with socket.socket() as probe:
                    probe.bind(("127.0.0.1", 0))
                    self.port = probe.getsockname()[1]
            with open(self.directory / "daemon.log", "ab") as output:
                # The environment is inherited unchanged (BLAS threads
                # included): pinning them would hide what is measured.
                self.process = subprocess.Popen(
                    self._command(), cwd=ROOT, stdout=output, stderr=subprocess.STDOUT
                )
            probe_client = LandscapeClient(self.socket, timeout=5.0, fallback=False)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and self.process.poll() is None:
                if probe_client.is_alive() and (not self.tcp or self._tcp_alive()):
                    self._read_conditions()
                    return
                time.sleep(0.01)
            self.stop()
        raise RuntimeError(f"daemon did not start; see {self.directory / 'daemon.log'}")

    def _tcp_alive(self) -> bool:
        from repro.service import DaemonUnavailable

        try:
            self.client("tcp").ping()
            return True
        except DaemonUnavailable:
            return False

    def _read_conditions(self) -> None:
        path = self.directory / "out" / "conditions.json"
        self.conditions = json.loads(path.read_text()) if path.exists() else {}

    def client(self, transport: str):
        from repro.service import LandscapeClient

        if transport == "tcp":
            return LandscapeClient(
                f"tcp://127.0.0.1:{self.port}", timeout=self.timeout, fallback=False, token=TOKEN
            )
        return LandscapeClient(self.socket, timeout=self.timeout, fallback=False)

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """Ask the daemon to shut down; escalate if it does not."""
        process, self.process = self.process, None
        if process is None:
            return
        self.worker_pids = sorted(set(self.worker_pids) | set(procfs.children(process.pid)))
        if process.poll() is None:
            try:
                self.client("unix").shutdown()
            except Exception:  # noqa: BLE001 - escalate below
                pass
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        for pid in self.worker_pids:
            if procfs.alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(procfs.alive(pid) for pid in self.worker_pids):
            time.sleep(0.02)


# -- requests ----------------------------------------------------------------


@dataclass
class Instance:
    """One problem instance with its closed-form reference landscape."""

    seed: int
    function: Any
    grid: Any
    reference: Any

    @classmethod
    def build(cls, seed: int) -> "Instance":
        function, grid = build_instance(seed)
        return cls(seed, function, grid, reference_values(function, grid))


@dataclass
class Outcome:
    """What one request produced, judged against the reference."""

    correct: bool
    detail: str = ""
    quality: dict[str, float] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)


def assert_v2(instance: Instance) -> None:
    """Refuse to send anything but a declarative v2 frame."""
    from repro.service.protocol import function_to_spec, grid_to_spec

    if function_to_spec(instance.function) is None or grid_to_spec(instance.grid) is None:
        raise RuntimeError(f"instance {instance.seed} does not resolve to a v2 spec")


def compute_request(instance: Instance) -> tuple[Callable, Callable]:
    def send(client):
        return client.get_or_compute(instance.function, instance.grid)

    def check(landscape) -> Outcome:
        error = max_abs_error(landscape.values, instance.reference)
        return Outcome(error <= TOLERANCE, f"compute {instance.seed}: max error {error:.3g}")

    return send, check


def indices_request(instance: Instance, indices) -> tuple[Callable, Callable]:
    def send(client):
        return client.evaluate_indices(instance.function, instance.grid, indices)

    def check(values) -> Outcome:
        error = max_abs_error(values, instance.reference.reshape(-1)[indices])
        return Outcome(error <= TOLERANCE, f"compute_indices {instance.seed}: max error {error:.3g}")

    return send, check


def pipeline_request(instance: Instance, sample_seed: int) -> tuple[Callable, Callable]:
    from repro.service.pipeline import PipelineConfig

    config = PipelineConfig(fraction=FRACTION, sampler="uniform", optimizer="cobyla")

    def send(client):
        return client.run_pipeline(instance.function, instance.grid, config, sample_rng=sample_seed)

    def check(outcome) -> Outcome:
        from repro.landscape.interpolate import InterpolatedLandscape
        from repro.landscape.metrics import nrmse

        expected = max(1, round(FRACTION * instance.grid.size))
        values = np.asarray(outcome.landscape.values, dtype=float)
        flat = np.asarray(outcome.flat_indices)
        problems = []
        if len(flat) != expected or outcome.report.num_samples != expected:
            problems.append(f"{len(flat)} samples, expected {expected}")
        if values.shape != instance.reference.shape or not np.all(np.isfinite(values)):
            problems.append(f"landscape shape {values.shape} or non-finite values")
        elif max_abs_error(outcome.values, instance.reference.reshape(-1)[flat]) > TOLERANCE:
            problems.append("sampled values differ from the reference")
        if problems:
            return Outcome(False, f"pipeline {instance.seed}/{sample_seed}: " + "; ".join(problems))
        truth = InterpolatedLandscape(replace(outcome.landscape, values=instance.reference))
        endpoint = np.asarray(outcome.optimization.parameters, dtype=float)
        quality = {
            "recon_nrmse": nrmse(instance.reference, values),
            "opt_gap": float(truth(endpoint)) - float(instance.reference.min()),
        }
        return Outcome(True, quality=quality, timings=dict(outcome.timings))

    return send, check


# -- workloads -------------------------------------------------------------------


class Workload:
    """Set-up, request stream and daemon configuration of one workload."""

    name = ""
    transports: tuple[str, ...] = ("unix",)
    max_bytes: int | None = None
    timeout = 60.0
    # An untraced run sets up this many daemons, one after another, and
    # drives each for an equal share of --seconds: setup_s is the median
    # set-up, and the latencies average over the daemons' BLAS regimes.
    setup_repeats = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 0])

    def fresh_seeds(self, count: int, used: set[int]) -> list[int]:
        seeds = []
        while len(seeds) < count:
            value = int(self.rng.integers(0, 2**31 - 1))
            if value not in used and value not in PROBE_INSTANCES:
                used.add(value)
                seeds.append(value)
        return seeds

    def setup(self, daemon: Daemon) -> None:
        raise NotImplementedError

    def stream(self, index: int):
        """Endless ``(instance, (send, check))`` requests for connection
        ``index``."""
        raise NotImplementedError


class WarmHits(Workload):
    name = "warm-hits"
    transports = ("unix", "tcp")
    timeout = 10.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.instances = [Instance.build(s) for s in self.fresh_seeds(8, set())]

    def setup(self, daemon: Daemon) -> None:
        for transport in self.transports:
            client = daemon.client(transport)
            for instance in self.instances:
                assert_v2(instance)
                send, check = compute_request(instance)
                outcome = check(send(client))
                if not outcome.correct:
                    raise RuntimeError(f"priming over {transport}: {outcome.detail}")

    def stream(self, index: int):
        rng = np.random.default_rng([self.seed, 1, index])
        size = self.instances[0].grid.size
        count = max(1, round(FRACTION * size))
        while True:
            instance = self.instances[int(rng.integers(len(self.instances)))]
            if rng.random() < 2.0 / 3.0:
                yield instance, compute_request(instance)
            else:
                indices = rng.choice(size, size=count, replace=False)
                yield instance, indices_request(instance, indices)


class OscarPipeline(Workload):
    name = "oscar-pipeline"
    # The daemon caches each reproducible reconstruction (about 40 kB);
    # a few entries' budget makes every later put evict as well.
    max_bytes = 160_000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.instances = [Instance.build(s) for s in self.fresh_seeds(4, set())]
        self.sample_seeds: set[int] = set()

    def setup(self, daemon: Daemon) -> None:
        instance = self.instances[0]
        assert_v2(instance)
        (sample_seed,) = self.fresh_seeds(1, self.sample_seeds)
        send, check = pipeline_request(instance, sample_seed)
        outcome = check(send(daemon.client("unix")))
        if not outcome.correct:
            raise RuntimeError(f"warm-up: {outcome.detail}")

    def stream(self, index: int):
        rng = np.random.default_rng([self.seed, 2, index])
        while True:
            instance = self.instances[int(rng.integers(len(self.instances)))]
            (sample_seed,) = self.fresh_seeds(1, self.sample_seeds)
            yield instance, pipeline_request(instance, sample_seed)


WORKLOADS = {cls.name: cls for cls in (WarmHits, OscarPipeline)}


# -- one phase -------------------------------------------------------------------


@dataclass
class Record:
    transport: str
    latency_ms: float
    correct: bool
    detail: str
    quality: dict[str, float]
    timings: dict[str, float]


def closed_loop(workload: Workload, daemon: Daemon, index: int, stream, deadline: float, records: list, tracer) -> None:
    """One connection: send the next request only after the previous
    one completed, until the deadline."""
    transport = workload.transports[index]
    client = daemon.client(transport)
    while time.monotonic() < deadline:
        instance, (send, check) = next(stream)
        assert_v2(instance)
        span = None if tracer is None else tracer.open("client.request", new_request=True, transport=transport)
        start = time.perf_counter()
        try:
            response = send(client)
            ok = True
        except Exception as error:  # noqa: BLE001 - every failure counts
            response, ok = repr(error), False
        latency_ms = (time.perf_counter() - start) * 1e3
        if span is not None:
            tracer.close(span)
        if not ok:
            outcome = Outcome(False, f"error: {response}")
        else:
            try:
                outcome = check(response)
            except Exception as error:  # noqa: BLE001 - a malformed response
                outcome = Outcome(False, f"check raised {error!r}")
        records.append(
            Record(transport, latency_ms, outcome.correct, outcome.detail, outcome.quality, outcome.timings)
        )


def set_up(workload: Workload, directory: Path, trace: bool) -> tuple[Daemon, float]:
    started = time.perf_counter()
    tcp = "tcp" in workload.transports
    daemon = Daemon(directory, tcp, workload.max_bytes, trace, workload.timeout)
    try:
        daemon.start()
        workload.setup(daemon)
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - started


def timed_phase(workload: Workload, daemon: Daemon, seconds: float, tracer, streams: list) -> dict:
    stats_client = daemon.client("unix")
    counters_before = stats_client.stats()["counters"]
    records: list[Record] = []
    before = procfs.snapshot(daemon.pid)
    machine_before = procfs.cpu_times()
    window_start = time.monotonic_ns()
    start = time.perf_counter()
    deadline = time.monotonic() + seconds
    errors: list[BaseException] = []

    def connection(index: int) -> None:
        try:
            closed_loop(workload, daemon, index, streams[index], deadline, records, tracer)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=connection, args=(i,)) for i in range(len(workload.transports))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    window_end = time.monotonic_ns()
    after = procfs.snapshot(daemon.pid)
    steal = procfs.steal_fraction(machine_before, procfs.cpu_times())
    daemon.worker_pids = [pid for pid, entry in after.items() if entry["role"] == "worker"]
    counters_after = stats_client.stats()["counters"]
    return {
        "records": records,
        "elapsed": elapsed,
        "window": (window_start, window_end),
        "cpu": procfs.cpu_split(before, after),
        "peak_rss_mb": procfs.peak_rss_mb(after),
        "steal_frac": steal,
        "counters": {k: counters_after.get(k, 0) - counters_before.get(k, 0) for k in counters_after},
    }


def quality_probe(daemon: Daemon) -> list[Record]:
    """Fixed pipeline requests sent after the timed phase.  Every
    workload takes ``recon_nrmse`` and ``opt_gap`` from them, so those
    move only when the program's numerics move, not with ``--seed``."""
    client = daemon.client("unix")
    records = []
    for number, seed in enumerate(PROBE_INSTANCES, start=1):
        instance = Instance.build(seed)
        assert_v2(instance)
        send, check = pipeline_request(instance, number)
        outcome = check(send(client))
        records.append(Record("unix", 0.0, outcome.correct, outcome.detail, outcome.quality, outcome.timings))
    return records


# -- metrics ---------------------------------------------------------------------


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def percentile(values: list[float], fraction: float) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1])


def quality_metrics(records: list[Record]) -> dict[str, dict]:
    out = {}
    for name in ("recon_nrmse", "opt_gap"):
        values = [r.quality[name] for r in records if r.correct and name in r.quality]
        out[name] = metric(
            statistics.median(values) if values else 0.0,
            "ratio" if name == "recon_nrmse" else "cost",
            len(values),
        )
    return out


def end_to_end(phase: dict, setups: list[float], probe: list[Record]) -> dict[str, dict]:
    records = phase["records"]
    good = [r for r in records if r.correct]
    latencies = [r.latency_ms for r in good]
    completed = max(1, len(good))
    out = {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "throughput_rps": metric(len(good) / phase["elapsed"], "1/s", len(good)),
        "latency_p50_ms": metric(statistics.median(latencies) if latencies else 0.0, "ms", len(latencies)),
        "latency_p90_ms": metric(percentile(latencies, 0.9), "ms", len(latencies)),
        "failed_ratio": metric((len(records) - len(good)) / max(1, len(records)), "ratio", len(records)),
        "cpu_ms_per_req": metric(
            (phase["cpu"]["daemon"] + phase["cpu"]["worker"]) / completed, "ms", len(good)
        ),
        "peak_rss_mb": metric(phase["peak_rss_mb"], "MiB", 1),
    }
    out.update(quality_metrics(probe))
    return out


# -- run conditions --------------------------------------------------------------


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git
    (which would search directories above the checkout)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_path = ROOT / ".git" / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def conditions(workload: Workload, daemon: Daemon, phase: dict) -> dict:
    by_connection = {transport: 0 for transport in workload.transports}
    for record in phase["records"]:
        by_connection[record.transport] += 1

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "daemon_blas": daemon.conditions.get("blas"),
        "daemon_blas_library": daemon.conditions.get("blas_library"),
        "daemon_blas_threads": daemon.conditions.get("blas_threads"),
        "daemon_numpy": daemon.conditions.get("numpy"),
        "daemon_python": daemon.conditions.get("python"),
        "blas_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": phase["elapsed"],
        "workers": WORKERS,
        "requests_by_connection": by_connection,
        "steal_frac": phase["steal_frac"],
        "missing_hooks": daemon.conditions.get("missing_hooks", []),
    }


# -- the two kinds of run --------------------------------------------------------


def streams(workload: Workload) -> list:
    return [workload.stream(index) for index in range(len(workload.transports))]


def merge(phases: list[dict]) -> dict:
    """One untraced phase from the timed segments of several daemons."""
    return {
        "records": [record for phase in phases for record in phase["records"]],
        "elapsed": sum(phase["elapsed"] for phase in phases),
        "cpu": {role: sum(phase["cpu"][role] for phase in phases) for role in phases[0]["cpu"]},
        "peak_rss_mb": max(phase["peak_rss_mb"] for phase in phases),
        "steal_frac": statistics.fmean(phase["steal_frac"] for phase in phases),
    }


def run_untraced(workload: Workload, run_dir: Path, seconds: float) -> tuple[dict, dict]:
    repeats = workload.setup_repeats
    requests = streams(workload)
    setups: list[float] = []
    phases: list[dict] = []
    for repeat in range(repeats):
        daemon, took = set_up(workload, run_dir / f"setup-{repeat}", trace=False)
        try:
            setups.append(took)
            log(f"{workload.name}: set-up {repeat + 1}/{repeats} took {took:.2f} s")
            phases.append(timed_phase(workload, daemon, seconds / repeats, None, requests))
            if repeat == repeats - 1:
                probe = quality_probe(daemon)
                phase = merge(phases)
                report = conditions(workload, daemon, phase)
        finally:
            daemon.stop()
    metrics = end_to_end(phase, setups, probe)
    return metrics, {"phase": phase, "probe": probe, "conditions": report}


def run_traced(workload: Workload, run_dir: Path, seconds: float) -> tuple[dict, dict]:
    daemon, _ = set_up(workload, run_dir / "untraced", trace=False)
    try:
        plain = timed_phase(workload, daemon, seconds, None, streams(workload))
    finally:
        daemon.stop()

    tracer = Tracer()
    missing = install_client_hooks(tracer)
    daemon, _ = set_up(workload, run_dir / "traced", trace=True)
    try:
        traced = timed_phase(workload, daemon, seconds, tracer, streams(workload))
        probe = quality_probe(daemon)
        report = conditions(workload, daemon, traced)
    finally:
        daemon.stop()
    report["missing_hooks"] = report["missing_hooks"] + missing

    start, end = traced["window"]
    spans = [
        span
        for span in load_spans(daemon.directory / "out") + tracer.spans
        if span["end_ns"] is not None and start <= span["start_ns"] and span["end_ns"] <= end
    ]
    good = [r for r in traced["records"] if r.correct]
    completed = max(1, len(good))
    layers = layer_metrics(spans, [r.timings for r in good if r.timings])
    metrics = {name: metric(value, UNITS[name], samples) for name, (value, samples) in layers.items()}
    for name in ("hits", "sparse_hits", "computed"):
        metrics[f"daemon.{name}"] = metric(traced["counters"].get(name, 0), "count", len(good))
    metrics["daemon.cpu_ms_per_req"] = metric(traced["cpu"]["daemon"] / completed, "ms", len(good))
    metrics["workers.cpu_ms_per_req"] = metric(traced["cpu"]["worker"] / completed, "ms", len(good))
    plain_latency = [r.latency_ms for r in plain["records"] if r.correct]
    traced_latency = [r.latency_ms for r in good]
    overhead = 0.0
    if plain_latency and traced_latency:
        overhead = statistics.median(traced_latency) / statistics.median(plain_latency) - 1.0
    metrics["tracing.overhead_frac"] = metric(overhead, "ratio", len(traced_latency))
    gap = quality_metrics(probe)["opt_gap"]
    metrics["optimizers.opt_gap"] = metric(gap["value"], "cost", gap["samples"])
    records = {"records": plain["records"] + traced["records"]}
    return metrics, {"phase": records, "probe": probe, "conditions": report, "spans": len(spans)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="OSCAR service benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "service" / "daemon.py").is_file():
        log(f"no OSCAR sources under {ROOT / 'src'}; run from the repository root")
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload](args.seed)
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            metrics, detail = run_traced(workload, run_dir, args.seconds)
            wanted = [m["name"] for m in BENCHMARK["per_layer"]]
        else:
            metrics, detail = run_untraced(workload, run_dir, args.seconds)
            wanted = [m["name"] for m in BENCHMARK["end_to_end"]]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            (ROOT / ".bench_run").rmdir()
        except OSError:
            pass

    records = detail["phase"]["records"] + detail["probe"]
    # A request that errored or timed out is recorded as not correct,
    # so a run without answers can never pass.
    wrong = [r for r in records if not r.correct]
    attempted = len(records)
    failed = len(wrong)
    for record in wrong[:5]:
        log(f"failed request: {record.detail}")
    print(
        json.dumps(
            {
                "report": "perfbench",
                "trace": args.trace,
                "conditions": detail["conditions"],
                "attempted": attempted,
                "failed": failed,
                "failed_ratio": failed / max(1, attempted),
                "metrics": metrics,
                **({"spans": detail["spans"]} if "spans" in detail else {}),
            }
        )
    )
    summary = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]} for name in wanted},
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
