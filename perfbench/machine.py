"""Machine fingerprint and the in-run memory roofline (STREAM triad).

The fingerprint goes into every record; two records whose fingerprints
differ are not compared (``report.py compare`` says "not comparable").
The roofline is measured in the same run as the kernels it is compared
with, at the same working-set size and thread count, because a GB/s
figure means little against a bandwidth taken on another day or from a
vendor sheet.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

BUILD_DIR = Path(__file__).resolve().parent.parent / ".bench_build" / "perfbench"

_TRIAD_C = r"""
void triad(double *restrict a, const double *restrict b,
           const double *restrict c, double s, long n, int nthreads)
{
#ifdef _OPENMP
    #pragma omp parallel for num_threads(nthreads) schedule(static)
#endif
    for (long i = 0; i < n; ++i)
        a[i] = b[i] + s * c[i];
}
"""


def _size_bytes(text: str) -> int:
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def cache_sizes() -> dict[str, int]:
    """Per-core L2 and shared L3 sizes of cpu0, in bytes (0 if unknown)."""
    out = {"l2_bytes": 0, "l3_bytes": 0}
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(root.glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind in ("Unified", "Data") and level in (2, 3):
            out[f"l{level}_bytes"] = size
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def compiler_id(cc: str | None) -> str:
    if cc is None:
        return "none"
    try:
        out = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return cc
    return out.splitlines()[0] if out else cc


def fingerprint(cc: str | None, native_threads: int) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": len(os.sched_getaffinity(0)),
        **cache_sizes(),
        "compiler": compiler_id(cc),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_threads": native_threads,
    }


def _triad_library(cc: str | None):
    """Build (once per source and compiler) and load the C triad."""
    if cc is None:
        return None, "numpy"
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    for flags, kind in ((["-fopenmp"], "c-openmp"), ([], "c-serial")):
        key = hashlib.sha256(
            (_TRIAD_C + cc + " ".join(flags)).encode()
        ).hexdigest()[:16]
        so = BUILD_DIR / f"triad-{key}.so"
        if not so.exists():
            src = BUILD_DIR / f"triad-{key}.c"
            src.write_text(_TRIAD_C)
            tmp = BUILD_DIR / f"triad-{key}.{os.getpid()}.tmp"
            proc = subprocess.run(
                [cc, "-O3", "-fPIC", "-shared", *flags, "-o", str(tmp),
                 str(src)],
                capture_output=True, timeout=120,
            )
            if proc.returncode != 0:
                continue
            os.replace(tmp, so)
        lib = ctypes.CDLL(str(so))
        lib.triad.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_double, ctypes.c_long, ctypes.c_int,
        ]
        lib.triad.restype = None
        return lib, kind
    return None, "numpy"


def triad_gbps(working_set_bytes: int, threads: int, cc: str | None,
               min_seconds: float = 0.3) -> dict:
    """STREAM-triad bandwidth over three arrays totalling the working set.

    Bytes counted per pass are ``3 * n * 8`` (two reads, one write), the
    STREAM convention; the figure is the median over passes.  Without a
    C compiler a NumPy two-pass triad stands in and the record says so.
    """
    n = max(1024, int(working_set_bytes) // 24)
    a = np.zeros(n)
    b = np.full(n, 1.5)
    c = np.full(n, 0.25)
    lib, kind = _triad_library(cc)
    if lib is not None:
        pa, pb, pc = (x.ctypes.data for x in (a, b, c))

        def one_pass():
            lib.triad(pa, pb, pc, 3.0, n, threads)
    else:
        def one_pass():
            np.multiply(c, 3.0, out=a)
            np.add(a, b, out=a)
    one_pass()
    times = []
    end = time.perf_counter() + min_seconds
    while len(times) < 5 or time.perf_counter() < end:
        t0 = time.perf_counter()
        one_pass()
        times.append(time.perf_counter() - t0)
    if a[0] != 1.5 + 3.0 * 0.25:
        raise RuntimeError("triad produced a wrong value")
    best = float(np.median(times))
    return {"gbps": 24.0 * n / best / 1e9, "kind": kind, "threads": threads,
            "bytes": 24 * n, "passes": len(times)}
