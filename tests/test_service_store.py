"""The content-addressed landscape store: keys, caching, LRU eviction."""

from __future__ import annotations

import errno
import io
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.ansatz import QaoaAnsatz, TwoLocalAnsatz, UccsdAnsatz
from repro.landscape import (
    GridAxis,
    Landscape,
    LandscapeGenerator,
    ParameterGrid,
    cost_function,
    qaoa_grid,
)
from repro.mitigation import ZneConfig, zne_cost_function
from repro.problems import random_3_regular_maxcut, sk_problem
from repro.problems.chemistry import h2_hamiltonian
from repro.quantum import NoiseModel
from repro.service import LandscapeSpec, LandscapeStore


@pytest.fixture
def qaoa():
    return QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=1)


@pytest.fixture
def grid():
    return qaoa_grid(p=1, resolution=(6, 10))


def _spec(qaoa, grid, **kwargs):
    return LandscapeGenerator(
        cost_function(qaoa, **kwargs.pop("function_kwargs", {})),
        grid,
        **kwargs,
    ).cache_spec()


# -- cache-key stability -------------------------------------------------------


def test_same_spec_same_key(qaoa, grid):
    """Two independently built identical requests share one key."""
    other = QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=1)
    assert _spec(qaoa, grid).key() == _spec(other, grid).key()


def test_key_is_stable_across_processes(qaoa, grid):
    """The canonical serialization hashes identically in a fresh
    interpreter (no dependence on PYTHONHASHSEED or object identity)."""
    script = (
        "from repro.ansatz import QaoaAnsatz\n"
        "from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid\n"
        "from repro.problems import random_3_regular_maxcut\n"
        "ansatz = QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=1)\n"
        "grid = qaoa_grid(p=1, resolution=(6, 10))\n"
        "print(LandscapeGenerator(cost_function(ansatz), grid).cache_spec().key())\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    env["PYTHONHASHSEED"] = "271828"  # a hash seed the parent never uses
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == _spec(qaoa, grid).key()


def test_any_field_change_changes_key(qaoa, grid):
    """Every spec ingredient participates in the key."""
    base = _spec(qaoa, grid).key()
    variants = [
        # problem content
        _spec(QaoaAnsatz(random_3_regular_maxcut(6, seed=1), p=1), grid),
        _spec(QaoaAnsatz(sk_problem(6, seed=0), p=1), grid),
        # ansatz structure
        _spec(QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=2), grid),
        # grid resolution and bounds
        _spec(qaoa, qaoa_grid(p=1, resolution=(6, 11))),
        _spec(qaoa, qaoa_grid(p=1, resolution=(6, 10), beta_range=(-1.0, 1.0))),
        # noise model
        _spec(qaoa, grid, function_kwargs={"noise": NoiseModel(p1=0.001)}),
        # shots (+ required seed) and the seed itself
        _spec(qaoa, grid, function_kwargs={"shots": 32}, seed=0),
        _spec(qaoa, grid, function_kwargs={"shots": 32}, seed=1),
        _spec(qaoa, grid, function_kwargs={"shots": 64}, seed=0),
    ]
    keys = [spec.key() for spec in variants]
    assert base not in keys
    assert len(set(keys)) == len(keys)


def test_mitigation_config_changes_key(qaoa, grid):
    noise = NoiseModel(p1=0.003, p2=0.008)
    keys = set()
    for config in (
        None,  # unmitigated
        ZneConfig((1.0, 2.0, 3.0), "richardson"),
        ZneConfig((1.0, 3.0), "richardson"),
        ZneConfig((1.0, 2.0, 3.0), "linear"),
    ):
        function = (
            cost_function(qaoa, noise=noise)
            if config is None
            else zne_cost_function(qaoa, noise, config)
        )
        keys.add(LandscapeGenerator(function, grid).cache_spec().key())
    assert len(keys) == 4


def test_shot_noise_key_distinguishes_equal_shard_counts(qaoa):
    """The rng plan in the key must capture the shard *layout*, not
    just the shard count: on a 77-point grid, shard_points 26 and 30
    both make 3 shards but put the boundaries elsewhere, so their
    per-shard draws (and landscapes) differ — colliding keys would
    serve the wrong landscape."""
    grid = qaoa_grid(p=1, resolution=(7, 11))  # 77 points

    def key(shard_points):
        return _spec(
            qaoa,
            grid,
            function_kwargs={"shots": 32},
            seed=0,
            shard_points=shard_points,
        ).key()

    assert key(26) != key(30)
    # Equivalent oversized settings produce the same single-shard plan
    # hence the same draws — and must share one key.
    assert key(100) == key(200)


def test_exact_key_independent_of_execution_plan(qaoa, grid):
    """Exact landscapes are execution-plan independent: worker count and
    shard layout must not fragment the cache."""
    base = LandscapeGenerator(cost_function(qaoa), grid).cache_spec().key()
    sharded = (
        LandscapeGenerator(cost_function(qaoa), grid, workers=4, shard_points=7)
        .cache_spec()
        .key()
    )
    assert base == sharded


def test_all_ansatzes_describe_themselves(grid):
    """Every shipped ansatz yields a JSON-able canonical payload."""
    h2 = h2_hamiltonian()
    for ansatz in (
        QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=1),
        TwoLocalAnsatz(sk_problem(4, seed=2).to_pauli_sum(), reps=1),
        TwoLocalAnsatz(h2, reps=1),
        UccsdAnsatz(h2, num_parameters=3),
    ):
        payload = ansatz.cache_spec()
        json.dumps(payload)  # must serialize
        assert payload["type"] in ("qaoa", "twolocal", "uccsd")


def test_custom_ansatz_without_spec_is_rejected(grid):
    """Cost functions that cannot describe their content must fail
    loudly instead of producing a colliding key."""

    def opaque(point):
        return 0.0

    with pytest.raises(TypeError):
        LandscapeGenerator(opaque, grid).cache_spec()


def test_shot_noise_caching_requires_seed(qaoa, grid, tmp_path):
    generator = LandscapeGenerator(
        cost_function(qaoa, shots=16, rng=np.random.default_rng(0)),
        grid,
        store=LandscapeStore(tmp_path),
    )
    with pytest.raises(ValueError, match="seed"):
        generator.grid_search()


# -- get_or_compute / invalidation --------------------------------------------


def test_get_or_compute_hits_without_recompute(qaoa, grid, tmp_path):
    store = LandscapeStore(tmp_path)
    calls = {"n": 0}
    function = cost_function(qaoa)

    class Counting:
        """Wraps the cost function to count dense evaluations."""

        def __init__(self, inner):
            self.inner = inner

        def __call__(self, point):
            calls["n"] += 1
            return self.inner(point)

        def many(self, points):
            calls["n"] += len(points)
            return self.inner.many(points)

        def cache_spec(self):
            return self.inner.cache_spec()

        @property
        def num_qubits(self):
            return self.inner.num_qubits

        @property
        def shots(self):
            return self.inner.shots

    counting = Counting(function)
    gen = LandscapeGenerator(counting, grid, store=store)
    first = gen.grid_search(label="truth")
    assert calls["n"] == grid.size
    assert store.misses == 1 and store.hits == 0
    second = gen.grid_search(label="truth")
    assert calls["n"] == grid.size  # no recompute on the hit
    assert store.misses == 1 and store.hits == 1
    np.testing.assert_array_equal(first.values, second.values)
    assert second.label == "truth"
    assert second.circuit_executions == grid.size


def test_landscapes_round_trip_through_store(qaoa, grid, tmp_path):
    """A cache hit preserves values bit-for-bit plus all metadata."""
    store = LandscapeStore(tmp_path)
    gen = LandscapeGenerator(cost_function(qaoa), grid, store=store)
    computed = gen.grid_search(label="served")
    served = gen.grid_search(label="served")
    np.testing.assert_array_equal(computed.values, served.values)
    assert served.grid.shape == grid.shape
    assert [axis.name for axis in served.grid.axes] == [
        axis.name for axis in grid.axes
    ]


def test_invalidate_and_clear(qaoa, grid, tmp_path):
    store = LandscapeStore(tmp_path)
    gen = LandscapeGenerator(cost_function(qaoa), grid, store=store)
    gen.grid_search()
    spec = gen.cache_spec()
    assert store.contains(spec)
    assert store.invalidate(spec)
    assert not store.contains(spec)
    assert not store.invalidate(spec)  # already gone
    gen.grid_search()
    assert store.clear() == 1
    assert store.entries() == []


def test_invalidate_tolerates_files_another_process_removed(tmp_path, monkeypatch):
    """Two evictors racing on one root: a file that was there when
    checked but gone when unlinked is not an error, and only files this
    call removed count as a removal."""
    store = LandscapeStore(tmp_path)
    spec, landscape = _tiny_landscape(0)
    store.put(spec, landscape)
    (tmp_path / f"{spec.key()}.npz").unlink()  # the other evictor won
    monkeypatch.setattr(Path, "exists", lambda self, *args, **kwargs: True)
    assert store.invalidate(spec) is True  # this call removed the manifest
    assert store.invalidate(spec) is False
    assert list(tmp_path.iterdir()) == []


# -- LRU eviction --------------------------------------------------------------


def _tiny_landscape(seed: int) -> tuple[LandscapeSpec, Landscape]:
    grid = ParameterGrid(
        [GridAxis("a", 0.0, 1.0, 4), GridAxis("b", 0.0, 1.0, 4)]
    )
    values = np.random.default_rng(seed).normal(size=grid.shape)
    spec = LandscapeSpec(
        ansatz={"type": "synthetic", "seed": seed},
        grid=(
            {"name": "a", "low": 0.0, "high": 1.0, "num_points": 4},
            {"name": "b", "low": 0.0, "high": 1.0, "num_points": 4},
        ),
    )
    return spec, Landscape(grid, values, label=f"tiny-{seed}")


def test_lru_eviction_is_size_bounded_and_recency_aware(tmp_path):
    store = LandscapeStore(tmp_path)
    specs = []
    sizes = []
    for seed in range(3):
        spec, landscape = _tiny_landscape(seed)
        store.put(spec, landscape)
        specs.append(spec)
        sizes.append(store.entries()[-1].payload_bytes)
    # Rebound the budget to fit ~3 entries, touch entry 0 so entry 1
    # becomes the least recently used, then insert a fourth.
    store.max_bytes = sum(sizes) + sizes[0] // 2
    assert store.get(specs[0]) is not None
    spec3, landscape3 = _tiny_landscape(3)
    store.put(spec3, landscape3)
    keys = {entry.key for entry in store.entries()}
    assert specs[1].key() not in keys, "LRU entry should be evicted"
    assert specs[0].key() in keys, "recently read entry must survive"
    assert spec3.key() in keys, "the entry just written is exempt"
    assert store.total_bytes() <= store.max_bytes


def test_oversized_entry_still_caches(tmp_path):
    """A single landscape larger than the budget is written anyway
    (the just-written entry is exempt from eviction)."""
    store = LandscapeStore(tmp_path, max_bytes=1)
    spec, landscape = _tiny_landscape(0)
    store.put(spec, landscape)
    assert store.contains(spec)


def test_entries_listing_orders_by_recency(tmp_path):
    store = LandscapeStore(tmp_path)
    pairs = [_tiny_landscape(seed) for seed in range(3)]
    for spec, landscape in pairs:
        store.put(spec, landscape)
    store.get(pairs[0][0])  # most recent
    ordered = [entry.key for entry in store.entries()]
    assert ordered[-1] == pairs[0][0].key()
    assert ordered[0] == pairs[1][0].key()


def test_hit_writes_no_file(tmp_path, monkeypatch):
    """A hit only moves the payload's mtime: with every rename failing
    (a full disk), ``get`` still serves the landscape and reorders the
    LRU, and no manifest or counter file is touched."""
    store = LandscapeStore(tmp_path)
    pairs = [_tiny_landscape(seed) for seed in range(3)]
    for spec, landscape in pairs:
        store.put(spec, landscape)
    manifest = tmp_path / f"{pairs[0][0].key()}.json"
    before = manifest.read_bytes()
    renames = []

    def full_disk(*args, **kwargs):
        renames.append(args)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", full_disk)
    served = store.get(pairs[0][0])
    assert served is not None
    np.testing.assert_array_equal(served.values, pairs[0][1].values)
    assert renames == []
    assert store.entries()[-1].key == pairs[0][0].key()
    assert manifest.read_bytes() == before
    assert list(tmp_path.glob("_counter*")) == []


def test_instances_sharing_a_root_share_recency(tmp_path):
    """Two stores on one root (the direct multi-process case) interleave
    their reads; a fresh third instance sees that order, evicts the
    least recently used entry, and the root holds only entry files."""
    root = tmp_path / "root"
    first, second = LandscapeStore(root), LandscapeStore(root)
    pairs = [_tiny_landscape(seed) for seed in range(3)]
    for spec, landscape in pairs:
        first.put(spec, landscape)
    assert second.get(pairs[0][0]) is not None
    assert first.get(pairs[2][0]) is not None
    assert second.get(pairs[1][0]) is not None

    fresh = LandscapeStore(root)
    order = [pairs[index][0].key() for index in (0, 2, 1)]
    assert [entry.key for entry in fresh.entries()] == order

    spec3, landscape3 = _tiny_landscape(3)
    sizer = LandscapeStore(tmp_path / "sizer")
    sizer.put(spec3, landscape3)
    sizes = {entry.key: entry.payload_bytes for entry in fresh.entries()}
    # Room for everything but the least recently used entry.
    fresh.max_bytes = (
        sum(sizes.values()) - sizes[order[0]] + sizer.entries()[0].payload_bytes
    )
    fresh.put(spec3, landscape3)
    kept = [entry.key for entry in fresh.entries()]
    assert kept == order[1:] + [spec3.key()]
    assert sorted(path.name for path in root.iterdir()) == sorted(
        f"{key}.{suffix}" for key in kept for suffix in ("npz", "json")
    )


def test_old_manifest_fields_are_ignored(tmp_path):
    """Manifests written with an ``access`` stamp and ``payload_bytes``
    still list and serve; size and recency come from the payload."""
    store = LandscapeStore(tmp_path)
    spec, landscape = _tiny_landscape(0)
    store.put(spec, landscape)
    manifest_path = tmp_path / f"{spec.key()}.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.update(access=7, payload_bytes=1)
    manifest_path.write_text(json.dumps(manifest))
    (tmp_path / "_counter.json").write_text(json.dumps({"next": 8}))
    (entry,) = store.entries()
    payload = tmp_path / f"{spec.key()}.npz"
    assert entry.payload_bytes == payload.stat().st_size
    assert entry.access == payload.stat().st_mtime_ns
    assert store.get(spec) is not None


# -- payload bytes: the wire form, damage, and older formats -------------------


def test_get_bytes_serves_the_uncompressed_payload_file(tmp_path):
    """``get_bytes`` returns the payload file as it is: a stored (not
    deflated) ``.npz`` that decodes to the landscape that was put."""
    store = LandscapeStore(tmp_path)
    spec, landscape = _tiny_landscape(0)
    store.put(spec, landscape)
    blob = store.get_bytes(spec)
    assert blob == (tmp_path / f"{spec.key()}.npz").read_bytes()
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        assert {info.compress_type for info in archive.infolist()} == {
            zipfile.ZIP_STORED
        }
    served = Landscape.from_bytes(blob)
    np.testing.assert_array_equal(served.values, landscape.values)
    assert served.label == landscape.label
    assert store.get_bytes("0" * 32) is None


def test_damaged_payload_is_a_miss(tmp_path, damage_payload):
    """A truncated payload, or one with a flipped byte in the ``values``
    data, reads as a miss from ``get_bytes`` and ``get``; the next
    ``get_or_compute`` recomputes and leaves a valid entry behind."""
    store = LandscapeStore(tmp_path)
    spec, landscape = _tiny_landscape(0)
    store.put(spec, landscape)
    damage_payload(tmp_path / f"{spec.key()}.npz")
    assert store.get_bytes(spec) is None
    assert store.get(spec) is None
    recomputed = store.get_or_compute(spec, lambda: landscape)
    assert (store.hits, store.misses) == (0, 1)
    np.testing.assert_array_equal(recomputed.values, landscape.values)
    np.testing.assert_array_equal(store.get(spec).values, landscape.values)


def test_compressed_payloads_from_older_versions_still_serve(tmp_path):
    """An entry whose payload was written with ``np.savez_compressed``
    (the format before payloads were stored uncompressed) is served
    as it is by ``get_bytes`` and decodes to identical values."""
    store = LandscapeStore(tmp_path)
    spec, landscape = _tiny_landscape(0)
    store.put(spec, landscape)
    payload = tmp_path / f"{spec.key()}.npz"
    np.savez_compressed(payload, **landscape._payload_arrays())
    blob = store.get_bytes(spec)
    assert blob == payload.read_bytes()
    np.testing.assert_array_equal(
        Landscape.from_bytes(blob).values, landscape.values
    )
    served = store.get(spec)
    np.testing.assert_array_equal(served.values, landscape.values)
    assert served.label == landscape.label


# -- multi-tenant namespaces (TenantStores) -----------------------------------


def _tenant_stores(tmp_path, **kwargs):
    from repro.service.store import TenantStores

    default = LandscapeStore(tmp_path / "root")
    return TenantStores(default_store=default, **kwargs)


def test_tenant_namespaces_isolate_raw_keys(tmp_path):
    """Tenant A's keys are invisible to tenant B's get/invalidate/entries,
    also when spelled as a relative path."""
    tenants = _tenant_stores(tmp_path)
    spec, landscape = _tiny_landscape(0)
    tenants.store_for("alice").put(spec, landscape)

    bob = tenants.store_for("bob")
    assert bob.get(spec.key()) is None
    assert bob.invalidate(spec.key()) is False
    # A raw key is never a path: it cannot reach into another namespace.
    escape = f"../alice/{spec.key()}"
    assert bob.get_bytes(escape) is None
    assert bob.invalidate(escape) is False
    assert [entry.key for entry in bob.entries()] == []
    # ... and the entry is still exactly where alice left it.
    assert tenants.store_for("alice").get(spec.key()) is not None


def test_default_tenant_is_the_daemon_store(tmp_path):
    """The default tenant aliases the daemon's original store, so
    pre-existing on-disk caches keep working unchanged."""
    tenants = _tenant_stores(tmp_path)
    assert tenants.store_for("local") is tenants.default_store
    spec, landscape = _tiny_landscape(1)
    tenants.store_for("local").put(spec, landscape)
    assert tenants.default_store.contains(spec)


def test_tenant_quota_evicts_only_that_tenant(tmp_path):
    """Filling one tenant's byte budget LRU-evicts its own entries and
    nobody else's."""
    tenants = _tenant_stores(tmp_path)
    spec_b, landscape_b = _tiny_landscape(9)
    tenants.store_for("bob").put(spec_b, landscape_b)

    alice = tenants.store_for("alice")
    specs = []
    sizes = []
    for seed in range(3):
        spec, landscape = _tiny_landscape(seed)
        alice.put(spec, landscape)
        specs.append(spec)
        sizes.append(alice.entries()[-1].payload_bytes)
    alice.max_bytes = sum(sizes) - 1  # force one eviction on next put
    spec3, landscape3 = _tiny_landscape(3)
    alice.put(spec3, landscape3)

    keys = {entry.key for entry in alice.entries()}
    assert specs[0].key() not in keys, "alice's LRU entry should go"
    assert spec3.key() in keys
    # bob's namespace is untouched by alice's quota pressure.
    assert tenants.store_for("bob").contains(spec_b)


def test_quota_comes_from_credentials_then_default(tmp_path):
    tenants = _tenant_stores(
        tmp_path, quotas={"alice": 12345}, default_quota=99
    )
    assert tenants.store_for("alice").max_bytes == 12345
    assert tenants.store_for("bob").max_bytes == 99
    assert tenants.store_for("local").max_bytes is None


def test_exact_specs_read_through_across_tenants(tmp_path):
    """An identical exact spec any tenant already holds is shared;
    shot-noise specs never are (different stochastic draw)."""
    tenants = _tenant_stores(tmp_path)
    spec, landscape = _tiny_landscape(4)
    tenants.store_for("bob").put(spec, landscape)

    found, owner = tenants.read_through(spec, "alice")
    assert owner == "bob"
    np.testing.assert_array_equal(found.values, landscape.values)

    noisy = LandscapeSpec(
        ansatz={"type": "synthetic", "seed": 4},
        grid=spec.grid,
        shots=128,
        execution={"seed": 7, "shard_points": 2},
    )
    tenants.store_for("bob").put(noisy, landscape)
    assert tenants.read_through(noisy, "alice") == (None, None)
    # ... and a tenant never reads through to its own entry.
    assert tenants.read_through(spec, "bob") == (None, None)


def test_cross_tenant_dedupe_never_leaks_to_unauthenticated(tmp_path):
    """End to end: alice's compute is shared with bob (store hit, no
    recompute) but an unauthenticated TCP caller gets an auth error,
    never values."""
    import json as _json

    from repro.service.client import DaemonError, LandscapeClient
    from repro.service.daemon import LandscapeDaemon

    tokens = tmp_path / "tokens.json"
    tokens.write_text(_json.dumps({"alice": "tok-a", "bob": "tok-b"}))
    ansatz = QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=1)
    grid = qaoa_grid(p=1, resolution=(4, 4))
    with LandscapeDaemon(
        tmp_path / "daemon.sock",
        workers=1,
        cache_dir=tmp_path / "cache",
        tcp=("127.0.0.1", 0),
        tokens_file=tokens,
    ) as daemon:
        host, port = daemon.tcp_address
        target = f"tcp://{host}:{port}"
        alice = LandscapeClient(target, fallback=False, token="tok-a")
        first = alice.get_or_compute(cost_function(ansatz), grid)
        assert alice.last_served_by == "daemon-computed"

        bob = LandscapeClient(target, fallback=False, token="tok-b")
        shared = bob.get_or_compute(cost_function(ansatz), grid)
        assert bob.last_served_by == "daemon-hit", "dedupe across tenants"
        np.testing.assert_array_equal(shared.values, first.values)
        counters = bob.stats()["counters"]
        assert counters["computed"] == 1, "one compute serves both tenants"

        anonymous = LandscapeClient(target, fallback=False)
        with pytest.raises(DaemonError) as denied:
            anonymous.get_or_compute(cost_function(ansatz), grid)
        assert denied.value.code == "auth"
        with pytest.raises(DaemonError) as denied:
            anonymous.get(first.label)  # raw-key probe, no token
        assert denied.value.code == "auth"
