"""BLAS thread policy of the psdo commands and of the quantizer, and
the in-place Hermitian eigenvalue step of the Gram kernel.

A command (`psdo.cli.main`) and a library call of the quantizer
(`psdo.quantize.quantize`) run inside `narrow()`: OpenBLAS works on one
thread for the whole call, and no other code sets a thread count.
`narrow()` scopes are depth-counted under one module lock. The first
scope entered reads the count and sets 1, the last scope to leave
restores what the first one read, and a scope entered while another is
open, nested or on another thread, sets nothing: `quantize` under
`cli.main` touches no setting, and overlapping scopes on two threads
end with the prior count.

A second thread burns CPU spin-waiting and stalls a second process on
the same cores, and in this package it paid only for the three 1024^2
Gram gemms of a `psdo verify` pass (the source norm and the two
translation defects of the stock edge), which take about 95 ms each on
one thread against 64 ms on two (2 cores, OpenBLAS 0.3.31, numpy
2.4.6). Every other dense call of the battery, and of `psdo index` on
the stock ladders (rungs up to 255), is smaller than 512; there a
second thread gains a few milliseconds per call at most, and giving it
to `inv` and the kernel's matmul from 256 on doubled the CPU time of
`psdo index` (`BENCH_blas_threads.json`). With every call on one
thread, the battery's CPU time fell 14% and its wall time rose 5-6%,
about 0.14 s per pass (`BENCH_one_thread.json`); the `assemble` ladder
of library `quantize` calls keeps its wall time and spends less CPU
(`BENCH_one_thread_quantize.json`). On the SkylakeX kernels that
OpenBLAS 0.3.31 picks on that machine, the verify digests, the
canonical index and quantize bytes and the assembled matrices are the
same on one thread and on two. That was measured there and on those
kernels only: with OPENBLAS_CORETYPE=Haswell the one-thread and the
two-thread verify batteries print different residues, so on other
kernels a printed residue may depend on the count.

The 2-D spectral norms (`spectral_norm`, `side_norm`, the translation
defect) take the Gram kernel `quantize.gram_norm` instead of the SVD
values: a blocked upper-triangle gemm, then `top_eigenvalue`. Measured
on the same machine and libraries (ms on one thread, median of 9 or 7
calls; the gemm is gram_norm with the eigenvalue step stubbed out):

    n       Gram gemm    zheevd_2stage   eigvalsh     gram_norm
    256     4.5          13              11           16
    384     11           31              30           42
    512     19           63              75           86
    768     50           152             222          218
    1024    95           310             459          394

The two-stage solver (Haidar, Ltaief & Dongarra, SC'11) reduces to a
band first and then to tridiagonal form; with values only it is
backward stable, as the one-stage reduction of `eigvalsh` is, and it
is the faster of the two from 512 on.

`top_eigenvalue` calls LAPACKE_zheevd_2stage (values only) on the
Gram in place. `_openblas()` resolves it on first use from the same
library as the thread count: `scipy_LAPACKE_zheevd_2stage64_`, then
`LAPACKE_zheevd_2stage64_` (64-bit integers), then
`LAPACKE_zheevd_2stage` (32-bit). Without any of them it falls back to
`np.linalg.eigvalsh` on the same triangle, which copies the Gram
first. The report names the routine in use as `volatile.blas.eigen`,
and a fallback with its reason as `eigen_reason`.

The policy is off, and the thread count left as it is, when the user
has chosen a count through OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS, and when numpy carries no OpenBLAS library. Importing
psdo changes no BLAS setting, and the library is resolved on first use.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

# the variables OpenBLAS reads its thread count from, in its own order
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# (set, get) symbol pairs, the scipy-openblas builds first
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
# LAPACKE two-stage Hermitian eigensolvers and their integer type
_EIGEN_SYMBOLS = (
    ("scipy_LAPACKE_zheevd_2stage64_", ctypes.c_int64),
    ("LAPACKE_zheevd_2stage64_", ctypes.c_int64),
    ("LAPACKE_zheevd_2stage", ctypes.c_int32),
)
_COL_MAJOR = 102  # LAPACK_COL_MAJOR


class _OpenBLAS(NamedTuple):
    """The symbols psdo calls in numpy's OpenBLAS; None where missing."""

    name: str
    set_threads: Optional[Callable[[int], None]]
    get_threads: Optional[Callable[[], int]]
    zheevd: Optional[Callable[..., int]]


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[_OpenBLAS]:
    """Handle on the first OpenBLAS library in numpy.libs, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        set_fn = get_fn = zheevd = None
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_fn, get_fn = getattr(lib, set_name), getattr(lib, get_name)
                set_fn.restype, set_fn.argtypes = None, [ctypes.c_int]
                get_fn.restype, get_fn.argtypes = ctypes.c_int, []
                break
        for name, integer in _EIGEN_SYMBOLS:
            if hasattr(lib, name):
                zheevd = getattr(lib, name)
                zheevd.restype = integer
                zheevd.argtypes = [  # (layout, jobz, uplo, n, a, lda, w)
                    ctypes.c_int, ctypes.c_char, ctypes.c_char, integer, ctypes.c_void_p, integer, ctypes.c_void_p
                ]
                break
        return _OpenBLAS(path.name, set_fn, get_fn, zheevd)
    return None


def _eigen() -> dict:
    """The report entry naming the routine `top_eigenvalue` uses."""
    lib = _openblas()
    if lib is None:
        return {"eigen": "eigvalsh", "eigen_reason": "no OpenBLAS library found"}
    if lib.zheevd is None:
        return {"eigen": "eigvalsh", "eigen_reason": f"no LAPACKE_zheevd_2stage in {lib.name}"}
    return {"eigen": "zheevd_2stage"}


def top_eigenvalue(G: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian matrix H held in the upper
    triangle of G (complex, m x m, its rows or its columns contiguous);
    the strictly lower triangle is not read, and G's contents are
    destroyed.

    LAPACKE_zheevd_2stage (values only) works on G in place, also when
    G is a strided view, reading it column-major: with contiguous rows,
    G^T = conj(H) in its lower triangle, which has H's eigenvalues;
    with contiguous columns, H in its upper triangle. Without that
    routine, eigvalsh reads the same triangle from a copy. A failed or
    non-finite result raises LinAlgError.
    """
    m = len(G)
    if G.dtype != np.complex128 or G.shape != (m, m):
        raise ValueError(f"top_eigenvalue needs a square complex128 matrix, got {G.dtype} {G.shape}")
    if G.strides[1] == 16 and G.strides[0] >= 16 * m:
        lda, uplo = G.strides[0] // 16, b"L"
    elif G.strides[0] == 16 and G.strides[1] >= 16 * m:
        lda, uplo = G.strides[1] // 16, b"U"
    else:
        raise ValueError(f"top_eigenvalue needs contiguous rows or columns, got strides {G.strides}")
    lib = _openblas()
    if lib is None or lib.zheevd is None:
        lam = float(np.linalg.eigvalsh(G, UPLO="U")[-1])
    else:
        w = np.empty(m)
        info = lib.zheevd(_COL_MAJOR, b"N", uplo, m, G.ctypes.data, lda, w.ctypes.data)
        if info:
            raise np.linalg.LinAlgError(f"zheevd_2stage failed with info = {info}")
        lam = float(w[-1])
    if not math.isfinite(lam):
        raise np.linalg.LinAlgError("the largest eigenvalue is not finite")
    return lam


# open narrow() scopes, and the count the first of them read
_depth_lock = threading.Lock()
_depth = 0
_prior = 0


@contextlib.contextmanager
def narrow() -> Iterator[dict]:
    """One OpenBLAS thread for the body; yields the policy, and the
    eigenvalue routine in use, as the report's `volatile.blas` entry.
    Only the outermost of overlapping scopes sets the count, and the
    last one to leave restores the prior count, also after an
    exception."""
    global _depth, _prior
    chosen = next((var for var in _THREAD_VARS if var in os.environ), None)
    if chosen is not None:
        yield {"threads": None, "reason": f"{chosen} set", **_eigen()}
        return
    lib = _openblas()
    if lib is None or lib.set_threads is None:
        yield {"threads": None, "reason": "no OpenBLAS library found", **_eigen()}
        return
    with _depth_lock:
        if _depth == 0:
            _prior = lib.get_threads()
            lib.set_threads(1)
        _depth += 1
    try:
        yield {"threads": 1, **_eigen()}
    finally:
        with _depth_lock:
            _depth -= 1
            if _depth == 0:
                lib.set_threads(_prior)
