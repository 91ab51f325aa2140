"""BLAS thread policy of the psdo commands.

A command (`psdo.cli.main`) runs inside `narrow()`: OpenBLAS works on
one thread, and `wide(n)` gives one dense O(n^3) call with n >= 512
back the thread count the process started with. Below that size a
second thread gains little wall time for the CPU it burns spin-waiting,
and that spinning stalls a second process on the same cores. Measured
on 2 cores (OpenBLAS 0.3.31, numpy 2.4.6, complex n x n, ms on 1 / 2
threads; the row-block zgemm is the matmul loop of `kn_assemble`):

    n       SVD values   full SVD     inv          row-block zgemm
    256     15 / 18      29 / 34      8.6 / 6.7    3.2 / 1.8
    384     44 / 41      92 / 81      23 / 14      9.5 / 5.3
    512     126 / 92     241 / 190    48 / 32      23 / 14
    768     400 / 267    717 / 514    164 / 93     71 / 45
    1024    885 / 574    1743 / 1218  358 / 215    171 / 109

`inv` and the zgemm already gain from two threads at 256 and 384 in
isolation, but giving them two threads from 256 on doubled the CPU
time of `psdo index` for a few percent of its wall time, so one gate
serves every call site.

The 2-D spectral norms (`spectral_norm`, `side_norm`, the translation
defect) take the Gram kernel `quantize.gram_norm` instead of the SVD
values, and `wide(m)` covers both of its dense phases: the blocked
lower-triangle gemm and `eigvalsh` of the m x m Gram. Measured on the
same machine and libraries (median of 9 or 7 calls, 1 and 2 threads
interleaved; the gemm is gram_norm with `eigvalsh` stubbed out):

    n       Gram gemm    eigvalsh     gram_norm    SVD values
    256     4.1 / 3.5    9.3 / 9.8    12 / 12      15 / 18
    384     12 / 8.5     25 / 25      46 / 42      47 / 41
    512     19 / 11      72 / 62      102 / 76     112 / 87
    768     52 / 31      184 / 128    258 / 188    385 / 260
    1024    90 / 64      433 / 309    638 / 401    836 / 563

`eigvalsh`, most of the kernel's time, gains nothing from a second
thread below 512 and 1.2-1.4x from 512 on, so the gate at 512 holds
for the Gram as well; its gemm gains from 384 on, as the zgemm does.

The policy is off, and the thread count left as it is, when the user
has chosen a count through OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS, when numpy carries no OpenBLAS library, and outside a
`narrow()` scope: importing psdo as a library changes no BLAS setting.
The library is resolved on first use.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

_WIDE_DIM = 512
# the variables OpenBLAS reads its thread count from, in its own order
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# (set, get) symbol pairs, the scipy-openblas builds first
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

# the policy a narrow() scope put in force; None outside one
_active: Optional[dict] = None


@functools.lru_cache(maxsize=None)
def _threads():
    """(set, get) thread-count functions of numpy's OpenBLAS, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_fn, get_fn = getattr(lib, set_name), getattr(lib, get_name)
                set_fn.restype, set_fn.argtypes = None, [ctypes.c_int]
                get_fn.restype, get_fn.argtypes = ctypes.c_int, []
                return set_fn, get_fn
    return None


@contextlib.contextmanager
def narrow() -> Iterator[dict]:
    """One OpenBLAS thread for the body; yields the policy as the
    report's `volatile.blas` entry. The prior count comes back on exit,
    also after an exception. Inside another narrow() it does nothing."""
    global _active
    if _active is not None:
        yield _active
        return
    chosen = next((var for var in _THREAD_VARS if var in os.environ), None)
    if chosen is not None:
        yield {"threads": None, "reason": f"{chosen} set"}
        return
    threads = _threads()
    if threads is None:
        yield {"threads": None, "reason": "no OpenBLAS library found"}
        return
    set_fn, get_fn = threads
    before = get_fn()
    _active = {"threads": 1, "wide_threads": before, "wide_from_dim": _WIDE_DIM}
    set_fn(1)
    try:
        yield _active
    finally:
        _active = None
        set_fn(before)


@contextlib.contextmanager
def wide(n: int) -> Iterator[None]:
    """The startup thread count for one dense O(n^3) call, when a
    narrow() scope is in force and n >= 512; otherwise nothing."""
    if _active is None or n < _WIDE_DIM:
        yield
        return
    set_fn = _threads()[0]
    set_fn(_active["wide_threads"])
    try:
        yield
    finally:
        set_fn(1)
