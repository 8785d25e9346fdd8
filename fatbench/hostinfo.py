"""Host facts recorded with every result.

Timings compare only between results whose :func:`host_key` matches:
core count, CPU model, numpy and BLAS build, the BLAS kernel set chosen
at run time and the BLAS thread count all move the numbers.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
from typing import Dict, Optional

#: Thread-count variables pinned to 1 before numpy is imported.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def pin_blas_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread (call before importing numpy)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _openblas_runtime() -> Dict[str, Optional[object]]:
    """Kernel set and thread count OpenBLAS chose at run time, if loaded.

    The build configuration names the compile target only; a
    ``DYNAMIC_ARCH`` build picks its kernels per CPU when it loads.
    """
    out: Dict[str, Optional[object]] = {"core": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({
                line.split()[-1] for line in f
                if "openblas" in line.lower() and line.split()[-1].startswith("/")
            })
    except OSError:
        return out
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            corename = getattr(lib, f"{prefix}_get_corename{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if corename is None or threads is None:
                continue
            corename.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            out["core"] = corename().decode()
            out["threads"] = int(threads())
            return out
    return out


def host_facts() -> Dict[str, object]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = _openblas_runtime()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": runtime["core"],
        "blas_threads": runtime["threads"],
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def host_key(facts: Dict[str, object]) -> str:
    """Short digest of the facts that decide whether two results compare."""
    keep = {k: facts[k] for k in (
        "nproc", "cpu_model", "numpy", "blas_name", "blas_version", "blas_core", "blas_threads",
    )}
    return hashlib.sha256(json.dumps(keep, sort_keys=True).encode()).hexdigest()[:12]


def describe(facts: Dict[str, object]) -> str:
    env = " ".join(f"{k}={v}" for k, v in facts["thread_env"].items() if k in THREAD_VARS[:2])
    return (
        f"host {host_key(facts)}: nproc={facts['nproc']} cpu={facts['cpu_model']!r} "
        f"numpy={facts['numpy']} blas={facts['blas_name']} {facts['blas_version']} "
        f"core={facts['blas_core']} blas_threads={facts['blas_threads']} {env}"
    )
