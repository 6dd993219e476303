"""Start the landscape daemon for one benchmark phase.

Usage (from the repository root)::

    python3 perfbench/daemon_main.py --out DIR [--trace] -- serve ARGS...

Runs ``oscar-repro serve ARGS...`` in this process from the sources
under ``src/``.  Before serving it writes ``DIR/conditions.json``: the
BLAS library and thread count this process sees, numpy and Python
versions.  With ``--trace`` it first wraps the daemon-side layers (see
``spans.py``), so the pool workers forked by the daemon inherit the
wrappers, and writes every span under ``DIR`` when the daemon stops.
The environment is used as inherited: nothing here pins BLAS threads.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def blas_conditions() -> dict:
    """The BLAS library numpy was built against and the thread count
    the loaded library reports in this process."""
    import numpy as np

    info: dict = {"numpy": np.__version__, "python": platform.python_version()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - informational only
        info["blas"] = "unknown"
    info["blas_threads"] = None
    libraries = []
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            name = os.path.basename(path).lower()
            if "blas" in name and ".so" in name and path not in libraries:
                libraries.append(path)
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in _THREAD_SYMBOLS:
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                info["blas_threads"] = int(function())
                info["blas_library"] = os.path.basename(library)
                return info
    return info


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for conditions and spans")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve[1:] if args.serve[:1] == ["--"] else args.serve
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    tracer = None
    missing: list[str] = []
    if args.trace:
        from spans import Tracer, install_daemon_hooks

        tracer = Tracer(out)
        missing = install_daemon_hooks(tracer)

    conditions = blas_conditions()
    conditions["missing_hooks"] = missing
    (out / "conditions.json").write_text(json.dumps(conditions))

    from repro.cli import main as cli_main

    try:
        return cli_main(serve_args)
    finally:
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
