"""Shared fixtures for the test suite.

Sizes are deliberately small (4-8 qubits, coarse grids) so the whole
suite runs in a couple of minutes on one core while still exercising
every code path the experiments use.
"""

from __future__ import annotations

import io
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.ansatz import QaoaAnsatz, TwoLocalAnsatz
from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid
from repro.problems import random_3_regular_maxcut, sk_problem
from repro.quantum import NoiseModel


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "protocol: wire-protocol conformance + fuzz suite (run with "
        "`pytest -m protocol`)",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator; tests share determinism through it."""
    return np.random.default_rng(12345)


@pytest.fixture
def maxcut6():
    """A 6-node 3-regular MaxCut problem (the suite's workhorse)."""
    return random_3_regular_maxcut(6, seed=0)


@pytest.fixture
def maxcut8():
    """An 8-node 3-regular MaxCut problem."""
    return random_3_regular_maxcut(8, seed=1)


@pytest.fixture
def sk4():
    """A 4-spin SK instance."""
    return sk_problem(4, seed=2)


@pytest.fixture
def qaoa6(maxcut6) -> QaoaAnsatz:
    """Depth-1 QAOA on the 6-node MaxCut problem."""
    return QaoaAnsatz(maxcut6, p=1)


@pytest.fixture
def twolocal4(sk4) -> TwoLocalAnsatz:
    """A 1-rep Two-local ansatz on the 4-spin SK Hamiltonian."""
    return TwoLocalAnsatz(sk4.to_pauli_sum(), reps=1)


@pytest.fixture
def small_grid():
    """A 16 x 32 p=1 QAOA grid (512 points)."""
    return qaoa_grid(p=1, resolution=(16, 32))


@pytest.fixture
def medium_grid():
    """A 20 x 40 p=1 QAOA grid (800 points) — the reconstruction floor
    where 10% sampling reliably gives NRMSE < 0.1."""
    return qaoa_grid(p=1, resolution=(20, 40))


@pytest.fixture
def ideal_generator(qaoa6, medium_grid) -> LandscapeGenerator:
    """Ideal-execution generator on the medium grid."""
    return LandscapeGenerator(cost_function(qaoa6), medium_grid)


@pytest.fixture
def mild_noise() -> NoiseModel:
    """A light depolarizing model used across noisy-path tests."""
    return NoiseModel(p1=0.002, p2=0.006)


def _damage(path: Path, how: str) -> None:
    """Damage a stored ``.npz`` payload in place.

    ``"truncate"`` cuts the file in half; ``"flip"`` inverts the last
    byte of the ``values`` member's data (the last float of the array),
    leaving every zip header intact so only the member's CRC can tell.
    """
    blob = bytearray(path.read_bytes())
    if how == "truncate":
        del blob[len(blob) // 2 :]
    else:
        with zipfile.ZipFile(io.BytesIO(bytes(blob))) as archive:
            info = archive.getinfo("values.npy")
        start = info.header_offset + 30  # fixed part of the local header
        name_length, extra_length = struct.unpack("<HH", blob[start - 4 : start])
        blob[start + name_length + extra_length + info.compress_size - 1] ^= 0xFF
    path.write_bytes(bytes(blob))


@pytest.fixture(params=["truncate", "flip"])
def damage_payload(request):
    """Damages a payload file in place, once per kind of damage."""
    return lambda path: _damage(Path(path), request.param)
