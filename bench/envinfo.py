"""Record of the machine and library settings a benchmark run used.

``bench/reference_env.json`` holds the settings the bounds in BENCHMARK.json
were measured under; ``differences`` names every setting a run does not share
with it, so a run on other hardware or thread settings is flagged.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference_env.json"

# settings that change the measured numbers; versions and CPU are compared too
COMPARED = (
    "nproc", "cpu_model", "caches", "python", "numpy", "scipy", "openblas",
    "blas_threads", "SKOROKHOD_KIT_THREADS", "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS", "workers",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> list[str]:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = []
    for index in sorted(base.glob("index*")):
        try:
            level, kind, size = (
                (index / name).read_text().strip() for name in ("level", "type", "size")
            )
        except OSError:
            continue
        out.append(f"L{level} {kind} {size}")
    return out


def machine_environment() -> dict:
    """CPU, core count and the thread-related environment variables."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    env = {"nproc": nproc, "cpu_model": _cpu_model(), "caches": _caches()}
    for var in ("SKOROKHOD_KIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        if "numpy" not in lib:
            continue
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def library_environment() -> dict:
    """Versions, BLAS threads and worker count, read inside the workload process."""
    import numpy
    import scipy
    from skorokhod_kit.experiments import worker_count

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **machine_environment(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "workers": worker_count(),
    }


def differences(current: dict, reference: dict) -> list[str]:
    """'key: run value vs reference value' for each compared setting that differs."""
    return [
        f"{key}: {current.get(key)!r} vs reference {reference.get(key)!r}"
        for key in COMPARED
        if current.get(key) != reference.get(key)
    ]
