"""Structure-aware spectral norms against the dense path.

Every fast path is checked against np.linalg.norm(., 2) on the full
dense matrix: the Gram kernel on tall, wide, square, extreme-scale,
zero and empty matrices, in a fresh Gram and in place; the in-place
shift commutator against the kron-built one (`oracles.
translation_commutator`); edge-mode block norms against
the assembled matrix; the ladder norm against the dense restricted
product; and the stacked extraction norms against per-block norms.
The kernel's memory contract is checked under tracemalloc: a caller's
matrix costs one Gram plus two blocks, the in-place form two blocks;
and in a fresh process, where tracemalloc cannot see LAPACK, the
in-place eigenvalue step adds no Gram-sized copy. The eigenvalue step
runs both on LAPACK's two-stage solver and on its eigvalsh fallback,
on one block and on several.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import dense_side, extract_reference, translation_commutator
from psdo import blas
from psdo.calculus import NotTranslationInvariant, _shift_commutator_in_place, extract_symbol, infinitesimal
from psdo.geometry import Circle, Cone, Edge, Point, axis_layout
from psdo.quantize import (
    _BLOCK,
    gram_norm,
    op_circle,
    op_edge,
    quantize,
    side_norm,
    spectral_norm,
    spectral_norms,
)
from psdo.stock import infinitesimal_stock
from psdo.symexpr import Const, parse, substitute

EDGE_EXPR = parse("chi(p) + r / (1 + r) + 0.3 * chi(eta) * chi(w)")


def _frozen_stock(kind):
    for g, expr, z in infinitesimal_stock():
        if isinstance(g, kind):
            frozen = substitute(expr, {"x": Const(float(z))})
            return g, quantize(g, frozen, freeze_r=True)
    raise AssertionError(f"no {kind.__name__} in the infinitesimal stock")


# ---------------------------------------------------------------------------
# Gram kernel


def _random(shape, scale=1.0, seed=3):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_gram_norm_blocks_cover_every_row():
    # 1000 columns give blocks of 131 rows, so 300 rows take three
    # blocks, the first one short
    M = _random((1000, 300)).T.copy()
    want = np.linalg.norm(M, 2)
    assert spectral_norm(M) == pytest.approx(want, rel=1e-13, abs=0.0)
    assert gram_norm(M, M[:, :300]) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("shape", [(8, 8), (3, 8), (8, 3), (0, 0), (0, 5), (5, 0)])
def test_gram_norm_zero_and_empty(shape):
    M = np.zeros(shape, dtype=complex)
    assert spectral_norm(M) == np.linalg.norm(M, 2) == 0.0


@pytest.fixture(params=["zheevd_2stage", "eigvalsh"])
def eigen(request, monkeypatch):
    """The eigenvalue routine of the Gram kernel: LAPACK's two-stage
    solver, or the fallback with the library resolver forced to None."""
    if request.param == "eigvalsh":
        monkeypatch.setattr(blas, "_openblas", lambda: None)
    elif blas._eigen()["eigen"] != "zheevd_2stage":
        pytest.skip("no two-stage solver in this numpy")
    return request.param


# (300, 1000) takes three row blocks, so the Gram's lower triangle
# outside the diagonal blocks is left unwritten
@pytest.mark.parametrize("shape", [(40, 90), (90, 40), (64, 64), (1, 1), (300, 1000)])
@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200, 1e-310])
def test_gram_norm_matches_svd_on_both_routines(eigen, shape, scale):
    M = _random(shape, scale)
    want = np.linalg.svd(M, compute_uv=False)[0]
    assert spectral_norm(M) == pytest.approx(want, rel=1e-13, abs=0.0)
    wide_side = M if shape[0] <= shape[1] else M.T
    m = len(wide_side)
    # in place in X[:, :m], with X's rows (lda = n) or its columns contiguous
    for order in "CF":
        X = np.array(wide_side, order=order)
        assert gram_norm(X, X[:, :m]) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("shape", [(1, 1), (40, 90), (300, 1000)])
def test_gram_norm_rejects_non_finite_input(eigen, bad, shape):
    M = _random(shape)
    M[-1, 0] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(np.linalg.LinAlgError):
            spectral_norm(M)
        with pytest.raises(np.linalg.LinAlgError):
            gram_norm(M, M[:, : shape[0]])


def test_top_eigenvalue_refuses_a_layout_it_cannot_read():
    G = np.eye(8, dtype=complex)[::2, ::2]
    with pytest.raises(ValueError):
        blas.top_eigenvalue(G)


_HWM_PROBE = """
import numpy as np
from psdo.quantize import gram_norm


def high_water_kib():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))


n = 1024
rng = np.random.default_rng(0)
M = np.empty((n, n), dtype=complex)
for i in range(0, n, 64):  # no n x n temporary before the measurement
    M[i : i + 64] = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
W = M[:64, :64].copy()
gram_norm(W, W)  # pages the code in
before = high_water_kib()
gram_norm(M, M)
print(high_water_kib() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's VmHWM")
def test_in_place_eigen_step_makes_no_gram_copy():
    """A copy of the 1024^2 Gram alone is 16 MiB; the two blocks, the
    gemm buffers and LAPACK's workspace stay under 8 MiB. The probe
    reads the peak RSS of its own address space (VmHWM): ru_maxrss
    would start at this process's peak, which Linux carries across the
    exec, and hide the rise."""
    if blas._eigen()["eigen"] != "zheevd_2stage":
        pytest.skip("no two-stage solver in this numpy")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = subprocess.run([sys.executable, "-c", _HWM_PROBE], env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) < 8 * 1024


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectral_norm_memory_is_one_gram_and_two_blocks():
    M = _random((1024, 1024))
    spectral_norm(M[:64, :64])
    assert _peak(lambda: spectral_norm(M)) <= M.nbytes + 2 * _BLOCK * 16


def test_in_place_gram_norm_memory_is_two_blocks():
    M = _random((1024, 1024))
    assert _peak(lambda: gram_norm(M, M)) <= 2 * _BLOCK * 16


# ---------------------------------------------------------------------------
# Translation commutators


def _in_place(M, n_x, steps):
    D = M.copy()
    _shift_commutator_in_place(D, n_x, steps)
    return D


@pytest.mark.parametrize("kind", [Circle, Edge])
@pytest.mark.parametrize("steps", [1, 3])
def test_roll_commutator_equals_kron(kind, steps):
    g, op = _frozen_stock(kind)
    n_x = axis_layout(g, "x").n
    M = op.matrix
    assert np.array_equal(_in_place(M, n_x, steps), translation_commutator(M, n_x, steps))


@pytest.mark.parametrize("n, n_x, steps", [(12, 12, 0), (12, 4, 1), (40, 8, 3), (300, 300, 7), (512, 16, 5)])
def test_in_place_commutator_equals_roll_oracle(n, n_x, steps):
    # whole, wrapped and several row blocks; s = 0 leaves a zero matrix
    M = _random((n, n), seed=n)
    assert np.array_equal(_in_place(M, n_x, steps), translation_commutator(M, n_x, steps))


@pytest.mark.parametrize("kind", [Circle, Edge])
def test_translation_defect_equals_two_copy_oracle(kind):
    g, expr, z = next(s for s in infinitesimal_stock() if isinstance(s[0], kind))
    inst = infinitesimal(g, expr, z=z)
    n_x = axis_layout(g, "x").n
    M = inst.operator.matrix
    want = max(spectral_norm(translation_commutator(M, n_x, s)) for s in (1, 3))
    assert inst.translation_defect() == want


def test_in_place_gram_norm_equals_fresh_gram_on_stock_edge():
    g, expr, _ = next(s for s in infinitesimal_stock() if isinstance(s[0], Edge))
    M = quantize(g, expr).matrix
    fresh = gram_norm(M, np.empty_like(M))
    assert gram_norm(M, out=M) == fresh


# ---------------------------------------------------------------------------
# Edge-mode block norms


def test_xfree_edge_norm_periodic_cone():
    g = Edge(Circle(8), Cone(Point(), T=4.0, n_t=32))
    op = op_edge(g, EDGE_EXPR, v=2.0)
    assert op._blocks is not None and op._blocks.shape == (8, 32, 32)
    assert op.norm() == pytest.approx(np.linalg.norm(op.matrix, 2), rel=1e-13, abs=0.0)


def test_xfree_edge_norm_interval_cone():
    # A circle-base cone puts several nodes behind each t node, so the
    # interior restriction of the blocks has to keep whole t slices.
    cone = Cone(Circle(8), T=2.0, n_t=8, boundary="interval")
    g = Edge(Circle(8), cone)
    expr = parse("chi(p) + r / (1 + r) + 0.3 * chi(eta) * chi(t)")
    op = op_edge(g, expr, v=1.0)
    assert op.interior
    assert op._blocks is not None and op._blocks.shape == (8, 56, 56)
    assert op.norm() == pytest.approx(np.linalg.norm(op.matrix, 2), rel=1e-13, abs=0.0)


def test_xfree_edge_norm_frozen_stock():
    _, op = _frozen_stock(Edge)
    assert op._blocks is not None
    assert op.norm() == pytest.approx(np.linalg.norm(op.matrix, 2), rel=1e-13, abs=0.0)


def test_derived_operators_carry_no_blocks():
    g = Edge(Circle(8), Cone(Point(), T=4.0, n_t=16))
    free = op_edge(g, EDGE_EXPR)
    assert free._blocks is not None
    xdep = op_edge(g, parse("chi(p) + 0.1 * cos(x) * chi(eta)"))
    assert xdep._blocks is None
    adj = free.adjoint()
    assert adj._blocks is None
    assert adj.norm() == spectral_norm(adj.matrix)


# ---------------------------------------------------------------------------
# Ladder norms


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
def test_side_norm_matches_dense(scale):
    rng = np.random.default_rng(5)
    n = 96
    M = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    proper = np.zeros(n)
    proper[20:45] = rng.uniform(0.1, 1.0, 25)
    full = rng.uniform(0.1, 1.0, n)
    for vals in (proper, full):
        assert side_norm(M, vals) == pytest.approx(dense_side(M, vals), rel=1e-12, abs=0.0)


def test_side_norm_empty_support_is_zero():
    M = np.ones((8, 8), dtype=complex)
    assert side_norm(M, np.zeros(8)) == 0.0


def test_side_norm_zero_matrix_on_proper_support():
    vals = np.zeros(8)
    vals[2:5] = 1.0
    assert side_norm(np.zeros((8, 8), dtype=complex), vals) == 0.0


# ---------------------------------------------------------------------------
# Stacked norms in extraction


def test_stacked_norms_equal_per_matrix_norms():
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
    per = [np.linalg.norm(b, 2) for b in stack]
    assert np.array_equal(spectral_norms(stack), per)
    assert spectral_norm(stack) == max(per)
    assert spectral_norm(stack[:0]) == 0.0


def test_extraction_norms_match_block_loop():
    g = Edge(Circle(8), Cone(Point(), T=4.0, n_t=16))
    ex = extract_symbol(op_edge(g, EDGE_EXPR, v=1.0))
    assert np.array_equal(spectral_norms(ex.blocks), [np.linalg.norm(b, 2) for b in ex.blocks])

    # An x-dependent circle operator: the off-diagonal maximum must be
    # the largest per-block norm over every mode pair k != m.
    c = Circle(16)
    A = op_circle(c, parse("(2 + sin(x)) * chi(xi)"))
    with pytest.raises(NotTranslationInvariant) as info:
        extract_symbol(A)
    D = extract_reference(A, 1, 16, 1, c.x, c.modes.astype(float))[..., 0, 0]
    off = max(abs(D[k, m]) for k in range(16) for m in range(16) if k != m)
    assert info.value.max_offdiag == pytest.approx(off, rel=1e-12)
