"""psdo.quantize as the one home of the Fourier phases: op_circle,
_op_interior_on_edge, extract_symbol, the dilation conjugation,
circle-base symbol values, base_pullback and kn_circulant's blocks hold
the dense references of oracles.py (whole phase tables, one einsum).

Routing through synthesis / kn_assemble / kn_circulant keeps the
arithmetic of every entry, so the comparisons are exact, except on
x-dependent circle x axes and interval cone t axes: there kn_assemble
builds no phase table and assembles by an FFT and a cyclic shift of the
rows, within the bound of `assert_matches_oracle` of the exact-phase
reference. Which axes still build phase tables is pinned too.
"""

import numpy as np
import pytest

import psdo.quantize as quantize_module
from oracles import (
    MATRIX,
    SCALAR,
    X_DEP,
    X_DEP_Q2,
    X_FREE,
    assert_matches_oracle,
    circle_base_cone,
    circle_reference,
    edge_reference,
    extract_reference,
    interior_on_edge_reference,
    kn_product,
    kron_flat_matrix,
    mellin_reference,
    phase_pair,
    point_cone,
    raw_pullback,
)
from psdo.calculus import extract_symbol
from psdo.fredholm import _op_interior_on_edge
from psdo.geometry import Circle, Cone, DilationAction, Edge, Point
from psdo.quantize import (
    _dft_matrix,
    _interior_nodes,
    base_to_nodal,
    kn_circulant,
    op_circle,
    op_edge,
    op_mellin,
    quantize,
    synthesis,
)
from psdo.stock import homogeneity_stock
from psdo.symbols import ConeSymbolFamily, base_pullback
from psdo.symexpr import evaluate, parse, variables_of


# x-free, xi-free and constant symbols: their grids broadcast with stride
# 0, where the operand order of the complex product decides the bits.
# "xfree" takes the DFT-matrix branch, compared exactly; "xifree" depends
# on x only and takes the FFT branch, compared within the bound with the
# multiplier diag(e^{i x_j}) it quantizes to (the FFT branch gives it
# exactly at n = 8, 256 and 1024), not with the einsum reference, whose
# rounding depends on the BLAS kernel: 2.9e-15 off at n = 256 under
# OpenBLAS's Haswell kernels.
BROADCAST = {
    "xfree": (1, "1 + chi(xi)"),
    "xifree": (1, "exp((0,1) * x)"),
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
    if variables_of(expr) == {"x"}:
        want = np.diag(evaluate(expr, {"x": g.x}).reshape(-1))
    else:
        want = circle_reference(g, expr)
    assert_matches_oracle(op_circle(g, expr).matrix, want, expr)


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
    assert_matches_oracle(_op_interior_on_edge(g, expr, 2.0), interior_on_edge_reference(g, expr, 2.0), expr)


# (interval cone, family): point and circle base, q = 1 and 2, each with
# a row-free family and one that depends on r
POINT_I, POINT_I2 = point_cone(32, boundary="interval"), point_cone(32, q=2, boundary="interval")
CIRCLE_I, CIRCLE_I2 = circle_base_cone(16, boundary="interval"), circle_base_cone(16, q=2, boundary="interval")
INTERVAL_FAMILIES = [
    (POINT_I, "1 + 0.3*chi(p)"),
    (POINT_I, "1 + 0.3*chi(p) + 0.2/(1 + r)"),
    (POINT_I2, "[[1 + chi(p), 0.2], [(0,0.3)*chi(p), 2]]"),
    (POINT_I2, "[[1 + chi(p), 0.2/(1 + r)], [(0,0.3)*chi(p), 2 + 1/(1 + r)]]"),
    (CIRCLE_I, "1 + 0.3*chi(p)*chi(t)"),
    (CIRCLE_I, "1 + 0.3*chi(p)*chi(t) + 0.2/(1 + r)"),
    (CIRCLE_I2, "[[1 + chi(p)*chi(t), 0.2], [0, 2]]"),
    (CIRCLE_I2, "[[1 + chi(p)*chi(t), 0.2/(1 + r)], [0, 2 + 0.2*chi(t)/(1 + r)]]"),
]


def test_phase_tables_only_on_periodic_t_and_x_free_circle_axes(monkeypatch):
    # x-dependent circle x axes and every interval cone t axis assemble by
    # the FFT and a row shift, with no phase table on their nodes and no
    # _dft_matrix; x-free circle x axes still build both, and periodic
    # cone t axes their phase table
    tables, dft = [], []

    def recording_synthesis(nodes, covar, out=None):
        tables.append(np.array(nodes))
        return synthesis(nodes, covar, out=out)

    def recording_dft(n):
        dft.append(n)
        return _dft_matrix(n)

    def tabled(nodes):
        return any(np.array_equal(t, nodes) for t in tables)

    monkeypatch.setattr(quantize_module, "synthesis", recording_synthesis)
    monkeypatch.setattr(quantize_module, "_dft_matrix", recording_dft)
    g, expr = Circle(100, q=2), parse(MATRIX)
    assert_matches_oracle(op_circle(g, expr).matrix, circle_reference(g, expr), expr)
    edge, expr = Edge(Circle(8, q=2), point_cone(16, q=2)), parse(X_DEP_Q2)
    assert_matches_oracle(op_edge(edge, expr, v=0.7).matrix, edge_reference(edge, expr, 0.7)[0], expr)
    edge, expr = Edge(Circle(16), Cone(Point(), T=6.0, n_t=32)), parse("1 + chi(xi)*cos(x) + r/(1 + r)")
    assert_matches_oracle(_op_interior_on_edge(edge, expr, 2.0), interior_on_edge_reference(edge, expr, 2.0), expr)
    assert not any(tabled(c.x) for c in (Circle(100), Circle(8), Circle(16))) and dft == []
    assert tabled(point_cone(16).t)  # the periodic fibers of the edge
    tables.clear()
    for cone, src in INTERVAL_FAMILIES:
        expr, keep = parse(src), _interior_nodes(cone)
        want = mellin_reference(cone, expr)[np.ix_(keep, keep)]
        assert_matches_oracle(op_mellin(cone, expr).matrix, want, expr, cone, x_axis=False)
    for src in (X_DEP, X_FREE):
        edge, expr = Edge(Circle(8), point_cone(16, boundary="interval")), parse(src)
        assert_matches_oracle(op_edge(edge, expr, v=0.7).matrix, edge_reference(edge, expr, 0.7)[0], expr, edge.cone)
    assert not any(tabled(cone.t) for cone in [c for c, _ in INTERVAL_FAMILIES] + [edge.cone])
    for cone, _ in INTERVAL_FAMILIES:
        periodic = Cone(cone.base, T=cone.T, n_t=cone.n_t, q=cone.q)
        op_mellin(periodic, parse("1 + 0.3*chi(p)" if cone.q == 1 else "[[1 + chi(p), 0.2], [0, 2]]"))
        assert tabled(periodic.t)
    tables.clear()
    dft.clear()
    op_circle(Circle(8), parse("1 + chi(xi)"))
    assert tabled(Circle(8).x) and dft == [8]


def test_x_dependent_op_circle_has_exact_phases():
    # at n = 1024 the rounded phases fl(x_j) k of a phase table put the
    # product 1.1e-13 away from exact phases; the FFT and row shift stay
    # within 2e-15 of a reference whose synthesis phases come from
    # integers, exp(2 pi i ((j k) mod n) / n), and whose analysis is the
    # FFT of the identity
    g = Circle(1024)
    expr = parse("1.5 + 0.5*cos(x)*chi(xi) + (0,0.3)*sin(2*x)*xi/(1 + xi^2) + 0.2*exp((0,3)*x)")
    want = circle_reference(g, expr)
    A = op_circle(g, expr).matrix
    assert np.max(np.abs(A - want)) <= 2e-15 * np.max(np.abs(want))


POINT_CONE = Cone(Point(), T=6.0, n_t=32)
CIRCLE_CONE = Cone(Circle(8), T=5.0, n_t=16)


@pytest.mark.parametrize(
    "g, src",
    [
        (Circle(64), "1 + chi(xi)"),
        (Circle(32, q=2), "[[1 + chi(xi), 0.5], [chi(xi), 2]]"),
        (POINT_CONE, "1 + chi(p)"),
        (CIRCLE_CONE, "1 + chi(p)*chi(t)"),
        (Edge(Circle(8), POINT_CONE), "1 + chi(p) + 0.5*eta/(1 + eta^2)"),
    ],
    ids=["circle-x", "circle-q2-x", "point-cone-t", "circle-cone-t", "edge-x"],
)
def test_extract_symbol_blocks_equal_contraction(g, src):
    # extraction runs along the default axis: t on a cone, x otherwise
    A = quantize(g, parse(src), v=1.0)
    ex = extract_symbol(A)
    if isinstance(g, Cone):
        n, nodes, covar = g.n_t, g.t, g.p
    else:
        circ = g if isinstance(g, Circle) else g.circle
        n, nodes, covar = circ.n_x, circ.x, circ.modes.astype(float)
    D = extract_reference(A, 1, n, g.dim_total // n, nodes, covar)
    assert np.array_equal(ex.blocks, D[np.arange(n), np.arange(n)])


DILATION_GEOMETRIES = [
    POINT_CONE,
    CIRCLE_CONE,
    Cone(Circle(8), T=5.0, n_t=16, q=2),
    Edge(Circle(8), POINT_CONE),
    Edge(Circle(8), Cone(Circle(8), T=5.0, n_t=8)),
]


@pytest.mark.parametrize("g", DILATION_GEOMETRIES, ids=["point", "circle", "circle-q2", "edge", "edge-circle"])
def test_dilation_conjugate_equals_dense_products(g):
    rng = np.random.default_rng(11)
    n = g.dim_total
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for k in (1, 4, -2):
        d = DilationAction(g, k)
        want = kron_flat_matrix(d) @ M @ kron_flat_matrix(DilationAction(g, -k))
        assert np.array_equal(d.conjugate(M), want)


def test_dilation_conjugate_on_stock_symbols():
    for sigma in homogeneity_stock():
        base_m = sigma.at(x=0.0, xi=1.0, v=1.0).matrix
        for k in range(1, 9):
            d = DilationAction(sigma.cone, k)
            want = kron_flat_matrix(d) @ base_m @ kron_flat_matrix(DilationAction(sigma.cone, -k))
            assert np.array_equal(d.conjugate(base_m), want)


def test_circle_base_symbol_values_equal_matrix_products():
    c = Circle(16)
    modes = c.modes.astype(float)
    iFw, Fw = phase_pair(c.x, modes)
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
    U, _, Vh = np.linalg.svd(raw_pullback(c, g))
    assert np.array_equal(base_pullback(c, g), U @ Vh)


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
    want = kn_product(E, B, F, row_free=True)
    assert np.array_equal(kn_circulant(E, B, F), want)
    if not dft:
        # base_to_nodal's in-place analysis matrix keeps E.conj().T / n's bits
        assert np.array_equal(base_to_nodal(c, B), want)
