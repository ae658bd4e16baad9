"""Environment record attached to every benchmark result.

Timings in this repository depend on the BLAS build and its thread pool, so
each result names them. threadpoolctl is not assumed to be installed; the
effective OpenBLAS thread count is read from the loaded library through
ctypes instead.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys
from pathlib import Path

# Getter symbols exported by the OpenBLAS builds numpy ships or links against.
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_libraries():
    import numpy

    base = Path(numpy.__file__).resolve().parent
    patterns = [
        str(base.parent / "numpy.libs" / "*openblas*"),
        str(base / ".dylibs" / "*openblas*"),
        str(base.parent / "scipy_openblas64" / "lib" / "*openblas*"),
        str(base.parent / "scipy_openblas32" / "lib" / "*openblas*"),
    ]
    return sorted(p for pattern in patterns for p in glob.glob(pattern))


def blas_threads() -> dict:
    """Effective BLAS thread count and how it was found."""
    for path in _openblas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            getter = getattr(lib, symbol, None)
            if getter is None:
                continue
            getter.restype = ctypes.c_int
            getter.argtypes = []
            return {"threads": int(getter()), "method": f"ctypes {symbol} in {Path(path).name}"}
    for name in _THREAD_ENV:
        if os.environ.get(name):
            return {"threads": int(os.environ[name]), "method": f"environment {name}"}
    return {"threads": None, "method": "unknown (no OpenBLAS getter found, no thread variable set)"}


def _blas_build() -> dict:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path):
    """HEAD commit when the tree is a git checkout; None otherwise."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    try:
        return (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, which identifies the code measured
    even where the tree is not a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "urelnet").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, workload: str, seed: int) -> dict:
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": _blas_build(),
        "blas_threads": blas_threads(),
        "blas_thread_env": {name: os.environ.get(name) for name in _THREAD_ENV},
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "workload": workload,
        "seed": seed,
    }
