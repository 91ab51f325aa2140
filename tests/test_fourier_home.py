"""Quantizer outputs against the Fourier contractions they were built
from before psdo.quantize became their only home.

Each oracle below is the hand-built product its site used: phases by
np.exp of an outer product, the Kohn-Nirenberg product by a site-local
einsum. Routing through synthesis / kn_assemble / kn_circulant keeps the
arithmetic of every entry, so the comparisons are exact, except on
x-dependent circle x axes: there kn_assemble builds no phase table and
assembles by an FFT and a cyclic shift of the rows, so the oracle takes
exact phases (`circle_phases`) and the comparison is the bound of
`assert_matches_oracle`. (op_mellin and op_edge have their own oracles
in test_fibers.py.)
"""

import numpy as np
import pytest

import psdo.quantize as quantize_module
from psdo.calculus import extract_symbol
from psdo.fredholm import _op_interior_on_edge
from psdo.geometry import Circle, Cone, DilationAction, Edge, Point, translation_matrix
from psdo.quantize import (
    DiscretizedOperator,
    _dft_matrix,
    base_to_nodal,
    kn_circulant,
    op_circle,
    op_edge,
    quantize,
    synthesis,
)
from psdo.stock import homogeneity_stock
from psdo.symbols import ConeSymbolFamily, base_pullback
from psdo.symexpr import evaluate, parse
from test_fibers import EDGE_CASES, assert_matches_oracle, circle_phases, edge_oracle

SCALAR = "1 + chi(xi)*exp(cos(x)) + (0,0.3)*sin(2*x)*xi/(1 + xi^2)"
MATRIX = "[[1 + chi(xi), 0.5*sin(x)], [(0,1)*cos(x)*chi(xi), 2 - chi(xi)]]"


def circle_oracle(g: Circle, expr) -> np.ndarray:
    n, q = g.n_x, g.q
    k = g.modes.astype(float)
    S = np.broadcast_to(evaluate(expr, {"x": g.x[:, None], "xi": k[None, :]}), (n, n, q, q))
    E = circle_phases(g, expr)
    F = np.fft.fft(np.eye(n), axis=1).T / n
    return np.einsum("jk,jkab,kl->jalb", E, S, F, optimize=True).reshape(n * q, n * q)


# x-free, xi-free and constant symbols: their grids broadcast with stride
# 0, where the operand order of the complex product decides the bits. The
# ids are historical and swapped: "xifree" is x-free (the DFT-matrix
# branch, compared exactly), "xfree" is xi-free but x-dependent (the FFT
# branch, compared within the bound).
BROADCAST = {
    "xifree": (1, "1 + chi(xi)"),
    "xfree": (1, "exp((0,1) * x)"),
    "const": (1, "2.5"),
    "const-q2": (2, "[[2.5, 0.5], [(0,1), 2 - (0,0.5)]]"),
}
CIRCLE_CASES = [
    pytest.param(n, q, SCALAR if q == 1 else MATRIX, id=f"{n}-{q}")
    for n, q in [(8, 1), (8, 2), (16, 1), (64, 2), (100, 1), (100, 2), (256, 1), (512, 2), (1024, 1)]
] + [
    pytest.param(n, q, src, id=f"{n}-{name}")
    for n in (8, 100, 256, 1024)
    for name, (q, src) in BROADCAST.items()
]


@pytest.mark.parametrize("n, q, src", CIRCLE_CASES)
def test_op_circle_equals_contraction(n, q, src):
    g = Circle(n, q=q)
    expr = parse(src)
    assert_matches_oracle(op_circle(g, expr).matrix, circle_oracle(g, expr), expr)


def interior_on_edge_oracle(g: Edge, expr, v: float) -> np.ndarray:
    circ, cone = g.circle, g.cone
    n, n_t, q = circ.n_x, cone.n_t, g.q
    k = circ.modes.astype(float)
    bindings = {"x": circ.x[:, None, None], "xi": k[None, :, None], "r": cone.r[None, None, :], "v": v}
    S = np.broadcast_to(evaluate(expr, bindings), (n, n, n_t, q, q))
    E = circle_phases(circ, expr)
    F = np.fft.fft(np.eye(n), axis=1).T / n
    M = np.einsum("jk,jktab,kl->tjalb", E, S, F, optimize=True)
    full = np.zeros((n, n_t, q, n, n_t, q), dtype=complex)
    idx = np.arange(n_t)
    full[:, idx, :, :, idx, :] = M
    return full.reshape(g.dim_total, g.dim_total)


@pytest.mark.parametrize(
    "g, src",
    [
        (Edge(Circle(16), Cone(Point(), T=6.0, n_t=32)), "1 + chi(xi)*cos(x) + r/(1 + r) + v*xi/(1 + xi^2)"),
        (Edge(Circle(8), Cone(Point(), T=6.0, n_t=16, boundary="interval")), "2 + chi(xi)*r"),
        (Edge(Circle(8, q=2), Cone(Point(), T=6.0, n_t=16, q=2)), "[[1 + chi(xi)*cos(x), r], [sin(x), 2 - chi(xi)]]"),
    ],
    ids=["point", "interval", "q2"],
)
def test_op_interior_on_edge_equals_contraction(g, src):
    expr = parse(src)
    assert_matches_oracle(_op_interior_on_edge(g, expr, 2.0), interior_on_edge_oracle(g, expr, 2.0), expr)


def test_only_x_free_circle_axes_build_the_dft_matrix(monkeypatch):
    # x-dependent circle x axes assemble by the FFT and a row shift, with
    # no phase table and no _dft_matrix; x-free ones still build both
    # (cone t axes keep their phase tables either way)
    def refuse(n):
        raise RuntimeError("_dft_matrix called")

    def refuse_circle_nodes(nodes, covar, out=None):
        if np.array_equal(nodes, 2.0 * np.pi / len(nodes) * np.arange(len(nodes))):
            raise RuntimeError("synthesis called on circle nodes")
        return synthesis(nodes, covar, out=out)

    monkeypatch.setattr(quantize_module, "_dft_matrix", refuse)
    monkeypatch.setattr(quantize_module, "synthesis", refuse_circle_nodes)
    g, expr = Circle(100, q=2), parse(MATRIX)
    assert_matches_oracle(op_circle(g, expr).matrix, circle_oracle(g, expr), expr)
    edge, src, _ = EDGE_CASES["point-q2-xdep"]
    expr = parse(src)
    assert_matches_oracle(op_edge(edge, expr, v=0.7).matrix, edge_oracle(edge, expr, 0.7, False)[0], expr)
    edge, expr = Edge(Circle(16), Cone(Point(), T=6.0, n_t=32)), parse("1 + chi(xi)*cos(x) + r/(1 + r)")
    assert_matches_oracle(_op_interior_on_edge(edge, expr, 2.0), interior_on_edge_oracle(edge, expr, 2.0), expr)
    with pytest.raises(RuntimeError, match="synthesis called on circle nodes"):
        op_circle(Circle(8), parse("1 + chi(xi)"))
    monkeypatch.setattr(quantize_module, "synthesis", synthesis)
    with pytest.raises(RuntimeError, match="_dft_matrix called"):
        op_circle(Circle(8), parse("1 + chi(xi)"))


def test_x_dependent_op_circle_has_exact_phases():
    # at n = 1024 the rounded phases fl(x_j) k of a phase table put the
    # product 1.1e-13 away from exact phases; the FFT and row shift stay
    # within 2e-15 of a reference whose synthesis and analysis phases
    # both come from integers, exp(+-2 pi i ((j k) mod n) / n)
    g = Circle(1024)
    expr = parse("1.5 + 0.5*cos(x)*chi(xi) + (0,0.3)*sin(2*x)*xi/(1 + xi^2) + 0.2*exp((0,3)*x)")
    n, k = g.n_x, g.modes
    phase = (np.arange(n)[:, None] * k[None, :]) % n
    S = evaluate(expr, {"x": g.x[:, None], "xi": k[None, :].astype(float)})[:, :, 0, 0]
    want = (S * np.exp(2j * np.pi * phase / n)) @ (np.exp(-2j * np.pi * phase.T / n) / n)
    A = op_circle(g, expr).matrix
    assert np.max(np.abs(A - want)) <= 2e-15 * np.max(np.abs(want))


def extract_oracle(A: DiscretizedOperator, pre: int, n: int, post: int, nodes, covar) -> np.ndarray:
    F = np.exp(-1j * np.outer(covar, nodes)) / n
    iF = np.exp(1j * np.outer(nodes, covar))
    M = A.matrix.reshape(pre, n, post, pre, n, post)
    D = np.einsum("kj,ajbcld,lm->akbcmd", F, M, iF, optimize=True)
    D = D.transpose(1, 4, 0, 2, 3, 5).reshape(n, n, pre * post, pre * post)
    return D[np.arange(n), np.arange(n)]


POINT_CONE = Cone(Point(), T=6.0, n_t=32)
CIRCLE_CONE = Cone(Circle(8), T=5.0, n_t=16)


@pytest.mark.parametrize(
    "g, src, axis",
    [
        (Circle(64), "1 + chi(xi)", "x"),
        (Circle(32, q=2), "[[1 + chi(xi), 0.5], [chi(xi), 2]]", "x"),
        (POINT_CONE, "1 + chi(p)", "t"),
        (CIRCLE_CONE, "1 + chi(p)*chi(t)", "t"),
        (Edge(Circle(8), POINT_CONE), "1 + chi(p) + 0.5*eta/(1 + eta^2)", "x"),
        (Edge(Circle(8), POINT_CONE), "1 + chi(p) + 0.5*eta/(1 + eta^2)", "t"),
    ],
    ids=["circle-x", "circle-q2-x", "point-cone-t", "circle-cone-t", "edge-x", "edge-t"],
)
def test_extract_symbol_blocks_equal_contraction(g, src, axis):
    A = quantize(g, parse(src), v=1.0)
    ex = extract_symbol(A, axis=axis, require_invariant=False)
    if axis == "x":
        circ = g if isinstance(g, Circle) else g.circle
        pre, n, nodes, covar = 1, circ.n_x, circ.x, circ.modes.astype(float)
    else:
        cone = g if isinstance(g, Cone) else g.cone
        pre, n, nodes, covar = g.dim_total // cone.dim_total, cone.n_t, cone.t, cone.p
    post = g.dim_total // (pre * n)
    assert np.array_equal(ex.blocks, extract_oracle(A, pre, n, post, nodes, covar))


def kron_flat_matrix(d: DilationAction) -> np.ndarray:
    g = d.geometry
    blocks = [translation_matrix(d.cone.n_t, d.k)]
    if isinstance(d.cone.base, Circle):
        blocks.append(np.eye(d.cone.base.n_x))
    if isinstance(g, Edge):
        blocks = [np.eye(g.circle.n_x)] + blocks
    if g.q > 1:
        blocks.append(np.eye(g.q))
    out = blocks[0]
    for b in blocks[1:]:
        out = np.kron(out, b)
    return out


DILATION_GEOMETRIES = [
    POINT_CONE,
    CIRCLE_CONE,
    Cone(Circle(8), T=5.0, n_t=16, q=2),
    Edge(Circle(8), POINT_CONE),
    Edge(Circle(8), Cone(Circle(8), T=5.0, n_t=8)),
]


@pytest.mark.parametrize("g", DILATION_GEOMETRIES, ids=["point", "circle", "circle-q2", "edge", "edge-circle"])
@pytest.mark.parametrize("k", [-3, 0, 1, 5])
def test_dilation_flat_matrix_equals_kron_build(g, k):
    d = DilationAction(g, k)
    assert np.array_equal(d.flat_matrix(), kron_flat_matrix(d))


@pytest.mark.parametrize("g", DILATION_GEOMETRIES, ids=["point", "circle", "circle-q2", "edge", "edge-circle"])
def test_dilation_conjugate_equals_dense_products(g):
    rng = np.random.default_rng(11)
    n = g.dim_total
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for k in (1, 4, -2):
        d = DilationAction(g, k)
        want = d.flat_matrix() @ M @ DilationAction(g, -k).flat_matrix()
        assert np.array_equal(d.conjugate(M), want)


def test_dilation_conjugate_on_stock_symbols():
    for sigma in homogeneity_stock():
        base_m = sigma.at(x=0.0, xi=1.0, v=1.0).matrix
        for k in range(1, 9):
            d = DilationAction(sigma.cone, k)
            want = d.flat_matrix() @ base_m @ DilationAction(sigma.cone, -k).flat_matrix()
            assert np.array_equal(d.conjugate(base_m), want)


def test_circle_base_symbol_values_equal_matrix_products():
    c = Circle(16)
    modes = c.modes.astype(float)
    iFw = np.exp(1j * np.outer(c.x, modes))
    Fw = np.exp(-1j * np.outer(modes, c.x)) / c.n_x
    fam = ConeSymbolFamily(parse("1 + chi(p)*chi(t) + 0.5*w/(1 + w^2)"), base=c)
    d = evaluate(fam.expr, {"x": 0.0, "r": 0.1, "w": 0.3, "eta": 0.2, "p": 0.7, "v": 0.0, "t": modes})
    want = iFw @ np.diag(d.reshape(-1).astype(complex)) @ Fw
    assert np.max(np.abs(fam.value(0.7, w=0.3, eta=0.2, r=0.1) - want)) <= 1e-13
    con = ConeSymbolFamily(parse("1 + chi(p)*chi(t)"), base=c)
    ps = np.linspace(-5.0, 5.0, 41)
    dv = evaluate(con.expr, {"p": ps[:, None], "t": modes[None, :]})[..., 0, 0].astype(complex)
    assert np.array_equal(con.value(ps), (iFw[None, :, :] * dv[:, None, :]) @ Fw)


def test_base_pullback_equals_matrix_product():
    c = Circle(32)
    g = parse("x + 0.2*sin(x)")
    gvals = evaluate(g, {"x": c.x}).reshape(-1).real
    dvals = evaluate(parse("1 + 0.2*cos(x)"), {"x": c.x}).reshape(-1).real
    E = np.exp(1j * np.outer(gvals, c.modes.astype(float)))
    F = np.fft.fft(np.eye(c.n_x), axis=0) / c.n_x
    assert np.array_equal(base_pullback(c, g, polar=False), np.diag(np.sqrt(dvals)) @ E @ F)


# (j, B shape) of kn_circulant's call sites, at the shapes the quantizers,
# the symbols, the battery and the tests pass, plus large ones where the
# j blocks split. op_edge analyses with the DFT matrix, circle-base cone
# fibers and ConeSymbolFamily values with E^H/n.
CIRCULANT_SITES = [
    ("edge-xfree", True, 8, (8, 64, 64)),
    ("edge-xfree", True, 8, (8, 128, 128)),
    ("edge-xfree", True, 16, (16, 32, 32)),
    ("edge-xfree", True, 16, (16, 64, 64)),
    ("edge-xfree", True, 16, (16, 128, 128)),
    ("edge-xfree", True, 32, (32, 64, 64)),
    ("cone-fibers", False, 8, (8, 16, 16)),
    ("cone-fibers", False, 8, (8, 32, 32)),
    ("cone-fibers", False, 8, (8, 8, 8, 8)),
    ("cone-fibers", False, 8, (8, 8, 8, 8, 8)),
    ("cone-fibers", False, 8, (8, 8, 16, 16)),
    ("cone-fibers", False, 16, (4, 16, 32, 32)),
    ("symbol-values", False, 8, (8, 1, 1)),
    ("symbol-values", False, 16, (16, 1, 1)),
    ("symbol-values", False, 1024, (1024, 1, 1)),
]


@pytest.mark.parametrize(
    "dft, n, bshape", [pytest.param(*c[1:], id=f"{c[0]}-{c[2]}-{'x'.join(map(str, c[3]))}") for c in CIRCULANT_SITES]
)
def test_kn_circulant_blocks_equal_unblocked_einsum(dft, n, bshape):
    c = Circle(n)
    E = synthesis(c.x, c.modes.astype(float))
    F = _dft_matrix(n) if dft else E.conj().T / n
    rng = np.random.default_rng(n)
    B = rng.normal(size=bshape) + 1j * rng.normal(size=bshape)
    want = np.einsum("jk,...kab,kl->...jalb", E, B, F, optimize=True)
    assert np.array_equal(kn_circulant(E, B, F), want)
    if not dft:
        # base_to_nodal's in-place analysis matrix keeps E.conj().T / n's bits
        assert np.array_equal(base_to_nodal(c, B), want)
