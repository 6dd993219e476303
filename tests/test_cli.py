"""Tests for the oscar-repro command-line interface."""

from __future__ import annotations

from datetime import datetime, timedelta

import pytest

from repro.cli import build_parser, main
from repro.service import LandscapeStore


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["teleport"])


def test_reconstruct_command(capsys):
    code = main(
        [
            "reconstruct",
            "--qubits", "6",
            "--resolution", "16", "32",
            "--fraction", "0.15",
            "--seed", "0",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "NRMSE" in output
    assert "speedup" in output


def test_reconstruct_command_noisy_with_render(capsys):
    code = main(
        [
            "reconstruct",
            "--qubits", "6",
            "--problem", "sk",
            "--resolution", "12", "24",
            "--fraction", "0.2",
            "--noisy",
            "--render",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "sk-n6" in output
    assert "|" in output  # side-by-side render


def test_reconstruct_command_zne(capsys):
    code = main(
        [
            "reconstruct",
            "--qubits", "6",
            "--resolution", "8", "16",
            "--fraction", "0.3",
            "--zne", "richardson",
            "--shots", "256",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "zne: richardson" in output
    assert "3 execution rows per point" in output
    assert "NRMSE" in output


def test_reconstruct_rejects_unknown_zne_method():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["reconstruct", "--zne", "cubic"])


def test_sycamore_command(capsys):
    code = main(["sycamore", "--kind", "mesh", "--fraction", "0.3"])
    assert code == 0
    assert "sycamore-mesh" in capsys.readouterr().out


def test_speedup_command(capsys):
    code = main(["speedup", "--qubits", "6", "--target-nrmse", "0.1"])
    assert code == 0
    output = capsys.readouterr().out
    assert "speedup" in output


def test_sparsity_command(capsys):
    code = main(["sparsity", "--qubits", "6"])
    assert code == 0
    assert "DCT coefficients" in capsys.readouterr().out


def test_adaptive_command(capsys):
    code = main(
        [
            "adaptive",
            "--qubits", "6",
            "--resolution", "20", "40",
            "--target-error", "0.2",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "holdout error estimate" in output
    assert "met" in output


def test_batch_command(capsys):
    code = main(
        [
            "batch",
            "--qubits", "6",
            "--resolution", "16", "32",
            "--fractions", "0.08", "0.12", "0.2",
            "--compare-serial",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "stack: 3 landscapes" in output
    assert "batched engine" in output
    assert "serial loop" in output
    assert output.count("NRMSE") == 3


def test_pipeline_command(capsys):
    code = main(
        [
            "pipeline",
            "--qubits", "6",
            "--resolution", "16", "32",
            "--fraction", "0.15",
            "--optimizer", "nelder-mead",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "samples:" in output
    assert "nelder-mead: best" in output
    assert "stages:" in output
    assert "served by: local" in output


def test_pipeline_command_rejects_unknown_optimizer():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["pipeline", "--optimizer", "bfgs"])


def test_analyze_command(capsys):
    code = main(
        ["analyze", "--qubits", "6", "--resolution", "16", "32", "--fraction", "0.15"]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "barren-plateau fraction" in output
    assert "local minima" in output
    assert "symmetry error" in output


def test_reconstruct_command_with_workers(capsys):
    code = main(
        [
            "reconstruct",
            "--qubits", "6",
            "--resolution", "10", "20",
            "--fraction", "0.15",
            "--workers", "2",
        ]
    )
    assert code == 0
    assert "NRMSE" in capsys.readouterr().out


def test_reconstruct_command_with_cache_dir(capsys, tmp_path):
    args = [
        "reconstruct",
        "--qubits", "6",
        "--resolution", "10", "20",
        "--fraction", "0.15",
        "--cache-dir", str(tmp_path / "store"),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0  # second run served from the store
    second = capsys.readouterr().out
    # Identical exact landscapes -> identical reported NRMSE lines.
    assert [l for l in first.splitlines() if "NRMSE" in l] == [
        l for l in second.splitlines() if "NRMSE" in l
    ]


def test_cache_list_and_clear_commands(capsys, tmp_path):
    store_dir = str(tmp_path / "store")
    assert main(["cache", "list", "--cache-dir", store_dir]) == 0
    assert "no cached landscapes" in capsys.readouterr().out
    main(
        [
            "reconstruct",
            "--qubits", "6",
            "--resolution", "10", "20",
            "--fraction", "0.15",
            "--cache-dir", store_dir,
        ]
    )
    capsys.readouterr()
    assert main(["cache", "list", "--cache-dir", store_dir]) == 0
    listing = capsys.readouterr().out
    assert "1 cached landscape(s)" in listing
    assert "grid-search" in listing
    (entry,) = LandscapeStore(store_dir).entries()
    (row,) = [line for line in listing.splitlines() if entry.key in line]
    key, size, unit, used, label = row.split()
    assert (key, int(size), unit, label) == (
        entry.key, entry.payload_bytes, "B", "grid-search"
    )
    last_use = datetime.fromisoformat(used)
    assert last_use.utcoffset() == timedelta(0)
    assert abs(last_use.timestamp() - entry.access / 1e9) < 1e-3
    assert main(["cache", "clear", "--cache-dir", store_dir]) == 0
    assert "cleared 1" in capsys.readouterr().out
    assert main(["cache", "list", "--cache-dir", store_dir]) == 0
    assert "no cached landscapes" in capsys.readouterr().out
