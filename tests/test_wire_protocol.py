"""Wire-protocol v2 conformance + fuzz suite (``pytest -m protocol``).

Gates on the two fronts of :class:`~repro.service.daemon.LandscapeDaemon`:

- **golden round-trip vectors** — pinned request/response pairs for
  every op (plus a ``slice`` cost-function spec and a ``points`` grid),
  stored in ``tests/fixtures/wire_protocol_v2.json``.  The test
  replays each request against a live TCP daemon and compares the
  response's key set and pinned payload fields, so any change to the
  wire format (a renamed field, a reshaped array codec, a different
  cache key) fails loudly instead of drifting silently.  Regenerate
  after an *intentional* format change with::

      PYTHONPATH=src python tests/test_wire_protocol.py --regen

- **fuzz** — hypothesis-generated malformed / truncated / oversized /
  wrong-version / wrong-type frames against the Unix listener and the
  TCP listener of a live daemon.  Every frame must come back as a
  structured ``{"ok": false, "error": {code}}`` response, and afterwards
  the daemon must still answer a ping with an empty in-flight table —
  no hang, no crash, no leaked flight.

- **one dialect** — no module under ``src/repro/service/`` imports or
  calls ``pickle`` or ``socketserver``, and the dispatch table is the
  only way a frame reaches code, on either transport.
"""

from __future__ import annotations

import ast
import inspect
import json
import socket
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.daemon import V2_OPS, LandscapeDaemon
from repro.service.protocol import ERROR_CODES, decode_array

pytestmark = pytest.mark.protocol

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "wire_protocol_v2.json"

GOLDEN_TOKEN = "golden-token"
FUZZ_TOKEN = "fuzz-token-7f3a9c"
FUZZ_MAX_PAYLOAD = 4096

#: The compute cost function / grid all golden vectors share: 3-qubit
#: p=1 QAOA on a fixed ring, 4x4 grid — small enough that the whole
#: golden replay takes well under a second.
GOLDEN_FUNCTION = {
    "kind": "ansatz",
    "ansatz": {
        "type": "qaoa",
        "p": 1,
        "num_qubits": 3,
        "problem": {
            "couplings": [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]],
            "fields": [],
            "offset": 0.0,
        },
    },
    "noise": None,
    "shots": None,
}
GOLDEN_GRID = [
    {"name": "gamma", "low": 0.0, "high": 1.0, "num_points": 4},
    {"name": "beta", "low": 0.0, "high": 1.0, "num_points": 4},
]
#: A Tables 2-4 slice (``SliceCostFunction.cache_spec``) through the
#: p=2 variant of the golden ansatz; the request's grid is the slice
#: grid.
GOLDEN_SLICE = {
    "kind": "slice",
    "ansatz": {**GOLDEN_FUNCTION["ansatz"], "p": 2},
    "varying": [1, 2],
    "fixed_values": [0.3, 0.0, 0.0, -0.2],
    "noise": None,
    "shots": None,
}


def _b64_batch() -> dict:
    from repro.service.protocol import encode_array

    return encode_array(
        np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], dtype=float)
    )


def golden_requests() -> list[dict]:
    """The pinned request sequence, one frame per v2 op (in replay
    order: ``compute`` primes the store entries that ``get`` /
    ``index`` / ``compute_indices`` / ``invalidate`` then exercise),
    then a ``slice`` compute and an ansatz-shaped ``compute_indices``
    over a ``points`` grid with per-row noise.  ``shutdown`` is
    replayed last against a throwaway daemon."""
    base = {"version": 2, "token": GOLDEN_TOKEN}
    return [
        {**base, "op": "ping"},
        {**base, "op": "stats"},
        {
            **base,
            "op": "evaluate",
            "ansatz": GOLDEN_FUNCTION["ansatz"],
            "batch": _b64_batch(),
            "noise": {"p1": 0.002, "p2": 0.006, "readout": 0.0},
            "shots": None,
            "rng": None,
        },
        {
            **base,
            "op": "compute",
            "function": GOLDEN_FUNCTION,
            "grid": GOLDEN_GRID,
            "batch_size": None,
            "seed": None,
            "shard_points": None,
            "label": "golden",
        },
        {
            **base,
            "op": "compute_indices",
            "function": GOLDEN_FUNCTION,
            "grid": GOLDEN_GRID,
            "indices": [0, 3, 7, 15, 2],
            "batch_size": None,
            "seed": None,
            "shard_points": None,
            "rng": None,
        },
        {**base, "op": "index"},
        {**base, "op": "get", "key": "__KEY__"},
        {
            **base,
            "op": "pipeline",
            "function": GOLDEN_FUNCTION,
            "grid": GOLDEN_GRID,
            "config": {
                "fraction": 0.5,
                "sampler": "uniform",
                "reconstruction": None,
                "optimizer": "cobyla",
                "optimizer_options": {"maxiter": 5},
                "initial_point": None,
                "label": "golden-pipeline",
            },
            "sample_rng": 7,
            "batch_size": None,
            "seed": None,
            "shard_points": None,
            "rng": None,
        },
        {**base, "op": "invalidate", "key": "__KEY__"},
        {
            **base,
            "op": "compute",
            "function": GOLDEN_SLICE,
            "grid": GOLDEN_GRID,
            "batch_size": None,
            "seed": None,
            "shard_points": None,
            "label": "golden-slice",
        },
        {
            **base,
            "op": "compute_indices",
            "ansatz": GOLDEN_FUNCTION["ansatz"],
            "grid": {"points": _b64_batch()},
            "indices": [2, 0, 1],
            "noise": [
                {"p1": 0.002, "p2": 0.006, "readout": 0.0},
                None,
                {"p1": 0.01, "p2": 0.02, "readout": 0.0},
            ],
            "shots": None,
            "rng": None,
        },
        {**base, "op": "shutdown"},
    ]


#: Response fields pinned verbatim per op (everything else is checked
#: by key-set only — pids, uptimes and timings are legitimately
#: volatile, landscape blobs are pinned by decoded values instead).
PIN_FIELDS = {
    "ping": ["workers", "tenant", "protocol"],
    "stats": [],
    "evaluate": ["values", "rng"],
    "compute": ["key", "hit", "deduped", "__landscape_values__"],
    "compute_indices": ["values", "rng", "readthrough", "deduped"],
    "index": ["__entry_keys__"],
    "get": ["__landscape_values__"],
    "pipeline": ["report", "optimization", "flat_indices", "values", "key"],
    "invalidate": ["removed"],
    "shutdown": ["stopping"],
}


# -- live-daemon plumbing -----------------------------------------------------


def _start_daemon(tmp_path: Path, **overrides) -> LandscapeDaemon:
    tmp_path.mkdir(parents=True, exist_ok=True)
    tokens = tmp_path / "tokens.json"
    tokens.write_text(json.dumps({"golden": GOLDEN_TOKEN, "fuzz": FUZZ_TOKEN}))
    kwargs = dict(
        workers=1,
        shard_points=2,
        cache_dir=tmp_path / "cache",
        tcp=("127.0.0.1", 0),
        tokens_file=tokens,
    )
    kwargs.update(overrides)
    daemon = LandscapeDaemon(tmp_path / "daemon.sock", **kwargs)
    daemon.start()
    return daemon


def _roundtrip(address, frame: bytes, timeout: float = 30.0) -> bytes:
    """One frame out, one line (possibly empty = closed) back.
    ``address`` is a TCP ``(host, port)`` or a Unix-socket path."""
    if isinstance(address, tuple):
        connection = socket.create_connection(address, timeout=timeout)
    else:
        connection = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        connection.settimeout(timeout)
        connection.connect(str(address))
    with connection:
        connection.sendall(frame + b"\n")
        with connection.makefile("rb") as stream:
            return stream.readline()


def _request(address, message: dict) -> dict:
    line = _roundtrip(address, json.dumps(message).encode("utf-8"))
    assert line, "daemon closed the connection without answering"
    return json.loads(line)


# -- golden vectors -----------------------------------------------------------


def _is_array_codec(value) -> bool:
    return isinstance(value, dict) and set(value) == {"dtype", "shape", "data"}


def _tolerant_equal(actual, pinned, path: str) -> None:
    if _is_array_codec(pinned):
        assert _is_array_codec(actual), f"{path}: expected an array codec"
        np.testing.assert_allclose(
            decode_array(actual),
            decode_array(pinned),
            rtol=0.0,
            atol=1e-9,
            err_msg=f"{path}: array payload drifted",
        )
        assert actual["dtype"] == pinned["dtype"], f"{path}: dtype drifted"
        return
    if isinstance(pinned, dict):
        assert isinstance(actual, dict) and set(actual) == set(pinned), (
            f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
            f" != pinned {sorted(pinned)}"
        )
        for name, value in pinned.items():
            _tolerant_equal(actual[name], value, f"{path}.{name}")
        return
    if isinstance(pinned, list):
        assert isinstance(actual, list) and len(actual) == len(pinned), (
            f"{path}: length drifted"
        )
        for index, value in enumerate(pinned):
            _tolerant_equal(actual[index], value, f"{path}[{index}]")
        return
    if isinstance(pinned, float):
        assert actual == pytest.approx(pinned, abs=1e-9), f"{path}: {actual} != {pinned}"
        return
    assert actual == pinned, f"{path}: {actual!r} != {pinned!r}"


def _landscape_values(response: dict) -> list:
    from repro.landscape.landscape import Landscape
    from repro.service.daemon import decode_blob

    blob = response["landscape"]
    assert blob is not None, "expected a landscape payload"
    return np.asarray(Landscape.from_bytes(decode_blob(blob)).values).tolist()


def _extract_pins(op: str, response: dict) -> dict:
    pins = {}
    for field in PIN_FIELDS[op]:
        if field == "__landscape_values__":
            pins[field] = _landscape_values(response)
        elif field == "__entry_keys__":
            pins[field] = [entry["key"] for entry in response["entries"]]
        else:
            pins[field] = response[field]
    return pins


def _check_pins(op: str, actual_pins: dict, expected_pins: dict) -> None:
    assert set(actual_pins) == set(expected_pins), f"{op}: pin set drifted"
    for field, pinned in expected_pins.items():
        if field == "__landscape_values__":
            np.testing.assert_allclose(
                actual_pins[field], pinned, rtol=0.0, atol=1e-9,
                err_msg=f"{op}: landscape payload drifted",
            )
        else:
            _tolerant_equal(actual_pins[field], pinned, f"{op}.{field}")


def _replay(tmp_path: Path, record: bool) -> list[dict]:
    """Run the golden sequence; return ``[{op, request, response_keys,
    pins}]`` (recording) or compare against the fixture (checking)."""
    daemon = _start_daemon(tmp_path)
    results = []
    key = None
    try:
        for request in golden_requests():
            op = request["op"]
            if op == "shutdown":
                continue  # replayed against its own daemon below
            sent = json.loads(json.dumps(request).replace("__KEY__", key or ""))
            response = _request(daemon.tcp_address, sent)
            assert response.get("ok") is True, f"{op}: {response}"
            assert response.get("version") == 2, f"{op}: missing version echo"
            if op == "compute" and key is None:
                key = response["key"]
            results.append(
                {
                    "op": op,
                    "request": sent,
                    "response_keys": sorted(response),
                    "pins": _extract_pins(op, response),
                }
            )
    finally:
        daemon.close()

    shutdown_daemon = _start_daemon(tmp_path / "shutdown")
    request = golden_requests()[-1]
    response = _request(shutdown_daemon.tcp_address, request)
    shutdown_daemon.close()
    assert response.get("ok") is True
    results.append(
        {
            "op": "shutdown",
            "request": request,
            "response_keys": sorted(response),
            "pins": _extract_pins("shutdown", response),
        }
    )
    return results


def test_golden_vectors_roundtrip(tmp_path):
    """Every v2 op answers exactly its pinned wire shape."""
    assert FIXTURE_PATH.exists(), (
        f"{FIXTURE_PATH} missing — generate it with "
        "`PYTHONPATH=src python tests/test_wire_protocol.py --regen`"
    )
    pinned = json.loads(FIXTURE_PATH.read_text())
    live = _replay(tmp_path, record=True)
    assert [entry["op"] for entry in live] == [entry["op"] for entry in pinned]
    assert set(PIN_FIELDS) == {entry["op"] for entry in pinned}, (
        "every v2 op needs a golden vector"
    )
    for expected, actual in zip(pinned, live):
        op = expected["op"]
        assert actual["response_keys"] == expected["response_keys"], (
            f"{op}: response key set drifted "
            f"({actual['response_keys']} != {expected['response_keys']})"
        )
        _check_pins(op, actual["pins"], expected["pins"])


def test_golden_vectors_cover_every_v2_op():
    pinned = json.loads(FIXTURE_PATH.read_text())
    assert {entry["op"] for entry in pinned} == set(V2_OPS)


# -- fuzz ---------------------------------------------------------------------

_FUZZ_RUNTIME: dict = {}


def _fuzz_daemon() -> LandscapeDaemon:
    """A long-lived daemon shared by all fuzz examples (hypothesis
    reruns the test body hundreds of times; one daemon keeps the suite
    fast and — deliberately — accumulates all the abuse)."""
    if "daemon" not in _FUZZ_RUNTIME:
        import atexit
        import tempfile

        root = Path(tempfile.mkdtemp(prefix="oscar-fuzz-"))
        daemon = _start_daemon(
            root,
            max_payload_bytes=FUZZ_MAX_PAYLOAD,
            idle_timeout=5.0,
            cache_dir=None,
        )
        atexit.register(daemon.close)
        _FUZZ_RUNTIME["daemon"] = daemon
    return _FUZZ_RUNTIME["daemon"]


def _no_newline(raw: bytes) -> bytes:
    cleaned = raw.replace(b"\n", b"\xff").replace(b"\r", b"\xfe")
    return cleaned if cleaned.strip() else b"\xff"


_non_null_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_json_scalars = st.one_of(st.none(), _non_null_scalars)
_bad_tokens = _non_null_scalars.filter(lambda v: v not in (FUZZ_TOKEN, GOLDEN_TOKEN))


def _field_soup(token_required: bool):
    """Objects with systematically wrong / missing / mistyped fields.

    The Unix socket serves tokenless frames as the default tenant, so
    for that listener every object carries a *present* but invalid
    token — otherwise a well-formed ``{"version": 2, "op":
    "shutdown"}`` would be a legitimate request, not abuse."""
    fields = {
        "version": st.one_of(
            _json_scalars, st.just(2), st.integers(min_value=-5, max_value=99)
        ),
        "op": st.one_of(
            _json_scalars,
            st.sampled_from(sorted(V2_OPS) + ["evaluate_pickle", "", "_op_ping"]),
        ),
        "key": _json_scalars,
        "indices": st.one_of(_json_scalars, st.lists(_json_scalars, max_size=4)),
        "batch": _json_scalars,
        "grid": st.one_of(
            _json_scalars,
            st.lists(_json_scalars, max_size=3),
            st.fixed_dictionaries({"points": _json_scalars}),
        ),
        "function": _json_scalars,
        "ansatz": _json_scalars,
        "task": _json_scalars,
        "rng": _json_scalars,
        "shots": _json_scalars,
    }
    if token_required:
        return st.fixed_dictionaries({"token": _bad_tokens}, optional=fields)
    token = st.one_of(st.none(), _bad_tokens)
    return st.fixed_dictionaries({}, optional={**fields, "token": token})


def _encode(value) -> bytes:
    return _no_newline(json.dumps(value).encode("utf-8"))


def _frames(token_required: bool):
    soup = _field_soup(token_required)
    return st.one_of(
        # raw junk bytes (never valid JSON headers, often invalid UTF-8)
        st.binary(min_size=1, max_size=200).map(_no_newline),
        # valid JSON that is not an object
        _json_scalars.map(_encode),
        st.lists(_json_scalars, max_size=4).map(_encode),
        # objects with systematically wrong / missing / mistyped fields
        soup.map(_encode),
        # truncated frames (cut mid-JSON)
        soup.map(lambda d: _no_newline(json.dumps(d).encode()[: max(1, len(json.dumps(d)) // 2)])),
        # oversized frames (beyond the fuzz daemon's max_payload_bytes)
        st.just(b"A" * (FUZZ_MAX_PAYLOAD + 64)),
        st.builds(
            lambda pad: _encode({"version": 2, "op": "ping", "pad": pad}),
            st.just("B" * (FUZZ_MAX_PAYLOAD + 64)),
        ),
    )


_FRAMES = {"tcp": _frames(token_required=False), "unix": _frames(token_required=True)}


def _address(daemon: LandscapeDaemon, transport: str):
    return daemon.tcp_address if transport == "tcp" else daemon.socket_path


@pytest.mark.parametrize("transport", ["tcp", "unix"])
@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_fuzzed_frames_always_yield_structured_errors(transport, data):
    """Any hostile frame gets a structured error; the server survives.

    The three-part invariant per example: (1) the daemon answers with
    ``ok: false`` and a registered error ``code`` (it never just drops
    the connection silently, never crashes, never hangs); (2) a
    follow-up authenticated ping on a fresh connection succeeds; (3)
    the in-flight table is empty — no fuzz frame can leak a flight.
    """
    frame = data.draw(_FRAMES[transport], label="frame")
    daemon = _fuzz_daemon()
    address = _address(daemon, transport)
    line = _roundtrip(address, frame, timeout=30.0)
    assert line, f"daemon closed without a structured error for {frame[:60]!r}"
    response = json.loads(line)
    assert response.get("ok") is False, f"fuzz frame accepted: {frame[:60]!r}"
    error = response.get("error") or {}
    assert error.get("code") in ERROR_CODES, f"unregistered code in {response}"
    assert isinstance(error.get("message"), str) and error["message"]

    alive = _request(address, {"version": 2, "op": "ping", "token": FUZZ_TOKEN})
    assert alive.get("ok") is True, "daemon stopped serving after a fuzz frame"
    assert daemon._inflight == {}, "fuzz frame leaked an in-flight entry"


def test_fuzz_daemon_counters_saw_the_abuse():
    """Ordering shim: runs after the fuzz test (pytest executes in file
    order) and pins that the errors counter actually moved — i.e. the
    fuzz frames reached the dispatch path rather than dying in
    transport limbo."""
    daemon = _fuzz_daemon()
    stats = _request(
        daemon.tcp_address, {"version": 2, "op": "stats", "token": FUZZ_TOKEN}
    )
    assert stats["counters"]["errors"] >= 100


# -- one dialect ----------------------------------------------------------------

SERVICE_DIR = Path(__file__).resolve().parents[1] / "src" / "repro" / "service"
_RETIRED_MODULES = {"pickle", "cPickle", "_pickle", "socketserver"}


def _retired_module_uses(source: str) -> list[str]:
    """Every import of, attribute use of, or dynamic import of a
    retired module in ``source`` (docstrings and comments may still
    *mention* them)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Call) and node.args:
            first = node.args[0]
            names = [first.value] if isinstance(first, ast.Constant) else []
            func = node.func
            callee = getattr(func, "id", None) or getattr(func, "attr", None)
            if callee not in ("__import__", "import_module"):
                names = []
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if name in _RETIRED_MODULES]
    return found


def test_no_pickle_or_socketserver_in_the_service_package():
    """One wire dialect, one server loop: no file under
    ``src/repro/service/`` imports or calls ``pickle`` or
    ``socketserver``."""
    sources = sorted(SERVICE_DIR.glob("*.py"))
    assert sources, f"no service sources under {SERVICE_DIR}"
    for path in sources:
        uses = _retired_module_uses(path.read_text())
        assert not uses, f"{path.name} uses a retired module: {uses}"


def test_retired_module_scan_catches_imports_and_calls():
    """The scan above is only as good as its parser: pin that it sees
    the forms that matter."""
    assert _retired_module_uses("import pickle")
    assert _retired_module_uses("from socketserver import ThreadingMixIn")
    assert _retired_module_uses("x = pickle.loads(b'')")
    assert _retired_module_uses("__import__('pickle')")
    assert _retired_module_uses("importlib.import_module('socketserver')")
    assert not _retired_module_uses('"""Nothing here unpickles."""')


def test_dispatch_table_is_the_only_dispatch():
    """Both fronts hand every frame to ``handle_line`` with their
    transport name, and ``handle_line`` can only reach ``V2_OPS``."""
    session = inspect.getsource(LandscapeDaemon._session)
    assert "self.handle_line, line, transport" in session
    dispatch = inspect.getsource(LandscapeDaemon.handle_line)
    assert "V2_OPS.get(op)" in dispatch
    assert not [name for name in vars(LandscapeDaemon) if name.startswith("_op_")]
    for retired in ("_handle_v1", "_handle_v2", "_load_task", "_generator_for"):
        assert not hasattr(LandscapeDaemon, retired), retired


# -- registered request shapes --------------------------------------------------


def test_slice_generator_is_served_by_a_tcp_daemon(tmp_path):
    """A Tables 2-4 slice travels as a ``slice`` function spec: the
    daemon computes it (then serves it from the store and reads
    sampled indices through), bit-identical to the local slice."""
    from repro.ansatz import QaoaAnsatz
    from repro.experiments.slices import random_slice, slice_generator
    from repro.problems import random_3_regular_maxcut
    from repro.service import LandscapeClient

    ansatz = QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=2)
    spec = random_slice(ansatz, 7, rng=np.random.default_rng(3))
    local = slice_generator(ansatz, spec).grid_search()
    # Default shard layout, so the daemon evaluates the same chunks as
    # the local generator (exact values do not depend on the layout
    # beyond float summation order).
    daemon = _start_daemon(tmp_path, shard_points=None)
    try:
        host, port = daemon.tcp_address
        client = LandscapeClient(
            f"tcp://{host}:{port}", fallback=False, token=GOLDEN_TOKEN
        )
        generator = slice_generator(ansatz, spec, daemon=client)
        served = generator.grid_search()
        assert client.last_served_by == "daemon-computed"
        np.testing.assert_array_equal(served.values, local.values)
        again = generator.grid_search()
        assert client.last_served_by == "daemon-hit"
        np.testing.assert_array_equal(again.values, local.values)
        sampled = generator.evaluate_indices([0, 9, 48])
        assert client.last_served_by == "daemon-readthrough"
        np.testing.assert_array_equal(sampled, local.flat()[[0, 9, 48]])
    finally:
        daemon.close()


def test_points_grid_is_refused_outside_ansatz_compute_indices(tmp_path):
    """A ``points`` grid has no axes, so it cannot key a landscape:
    ``compute`` refuses it with ``invalid-spec``."""
    daemon = _start_daemon(tmp_path)
    try:
        for address in (daemon.tcp_address, daemon.socket_path):
            response = _request(
                address,
                {
                    "version": 2,
                    "op": "compute",
                    "token": GOLDEN_TOKEN,
                    "function": GOLDEN_FUNCTION,
                    "grid": {"points": _b64_batch()},
                },
            )
            assert response["ok"] is False
            assert response["error"]["code"] == "invalid-spec"
    finally:
        daemon.close()


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        raise SystemExit(
            "usage: PYTHONPATH=src python tests/test_wire_protocol.py --regen"
        )
    import tempfile

    with tempfile.TemporaryDirectory(prefix="oscar-golden-") as tmp:
        vectors = _replay(Path(tmp), record=True)
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(vectors, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(vectors)} golden vectors to {FIXTURE_PATH}")
