"""The machine record written into every result, and the GEMM roofline rate."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

GEMM_N = 1024


def gemm_gflops(repeats: int = 5) -> float:
    """Median float64 GEMM rate of numpy's BLAS on n = 1024 square matrices."""
    rng = np.random.default_rng(0)
    a = rng.random((GEMM_N, GEMM_N))
    b = rng.random((GEMM_N, GEMM_N))
    a @ b
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        rates.append(2 * GEMM_N**3 / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (TypeError, KeyError):
        pass
    # numpy wheels bundle OpenBLAS; ask the loaded library for its thread count.
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def _git_revision(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def record(root: Path) -> dict:
    """nproc, CPU, BLAS, numpy and Python versions, git revision, GEMM rate."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_revision": _git_revision(root),
        "gemm_gflops": gemm_gflops(),
    }
