"""Batched Mellin fibers: op_edge, op_mellin, EdgeSymbol.fibers and
check_twisted_homogeneity hold the per-fiber references of oracles.py
(one evaluate, one Kohn-Nirenberg product and, on a circle base, one
base conjugation per fiber, in a loop over the edge points).

Batching keeps the arithmetic of every entry, so the comparisons are
exact, except where kn_assemble assembles by an FFT and a cyclic shift
of the rows, along the x axis of x-dependent edge families and the t
axis of interval cones: those stay within the bound of
`assert_matches_oracle` of exact phases. Non-finite fibers raise what
the loop raises, and interval edges assemble their fibers on the
periodic window.
"""

import numpy as np
import pytest

import psdo.quantize as quantize_module
from oracles import (
    X_DEP,
    X_DEP_MU,
    X_DEP_Q2,
    X_FREE,
    X_FREE_Q2,
    assert_matches_oracle,
    circle_base_cone,
    edge_reference,
    mellin_reference,
    point_cone,
    twisted_loop_violations,
)
from psdo.geometry import Circle, Cone, DilationAction, Edge
from psdo.quantize import QuantizeError, _interior_nodes, op_edge, op_mellin
from psdo.stock import homogeneity_stock, infinitesimal_stock
from psdo.symbols import ConeSymbolFamily, EdgeSymbol, SymbolError, check_twisted_homogeneity, pushforward_edge
from psdo.symexpr import Const, EvalError, parse, substitute


EDGE_CASES = {
    # name: (edge, symbol, freeze_r)
    "point-periodic-xdep": (Edge(Circle(8), point_cone(16)), X_DEP, False),
    "point-periodic-xfree": (Edge(Circle(8), point_cone(16)), X_FREE, False),
    "point-periodic-xfree-frozen": (Edge(Circle(8), point_cone(16)), X_FREE, True),
    "point-interval-xdep": (Edge(Circle(8), point_cone(16, boundary="interval")), X_DEP, False),
    "point-interval-xfree": (Edge(Circle(8), point_cone(16, boundary="interval")), X_FREE, False),
    "circle-periodic-xdep": (Edge(Circle(8), circle_base_cone(8)), X_DEP_MU, False),
    "circle-interval-xfree": (Edge(Circle(8), circle_base_cone(8, boundary="interval")), X_FREE, False),
    "point-q2-xdep": (Edge(Circle(8, q=2), point_cone(16, q=2)), X_DEP_Q2, False),
    "circle-q2-xfree-frozen": (Edge(Circle(8, q=2), circle_base_cone(8, q=2)), X_FREE_Q2, True),
    "assemble-xfree-16x64": (
        Edge(Circle(16), point_cone(64)),
        "1.3 + 0.5 * chi(p) + 0.3 * w / (1 + w) + 0.2 * chi(eta)",
        False,
    ),
    "assemble-xdep-16x32": (
        Edge(Circle(16), point_cone(32)),
        "1.3 + 0.5 * chi(p) + 0.3 * w / (1 + w) + 0.2 * (1 - cos(x)) * chi(eta)",
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_op_edge_equals_fiber_loop(name):
    g, src, freeze_r = EDGE_CASES[name]
    expr = parse(src)
    A = op_edge(g, expr, v=0.7, freeze_r=freeze_r)
    want, want_blocks = edge_reference(g, expr, 0.7, freeze_r)
    assert_matches_oracle(A.matrix, want, expr, g.cone)
    assert A.interior == (g.cone.boundary == "interval")
    if want_blocks is None:
        assert A._blocks is None
    else:
        assert_matches_oracle(A._blocks, want_blocks, expr, g.cone)


@pytest.mark.parametrize("frozen", [False, True], ids=["unfrozen", "frozen"])
def test_stock_infinitesimal_edge_equals_fiber_loop(frozen):
    (g, expr, z), = [case for case in infinitesimal_stock() if isinstance(case[0], Edge)]
    if frozen:
        expr = substitute(expr, {"x": Const(float(z))})
    A = op_edge(g, expr, v=0.0, freeze_r=frozen)
    want, want_blocks = edge_reference(g, expr, 0.0, frozen)
    assert_matches_oracle(A.matrix, want, expr, g.cone)
    assert (A._blocks is None) == (want_blocks is None)
    if want_blocks is not None:
        assert_matches_oracle(A._blocks, want_blocks, expr, g.cone)


MELLIN_CASES = {
    # name: (cone, symbol, keyword arguments)
    "point": (point_cone(32), X_DEP, dict(v=0.7, xi=3.0, x_value=0.4)),
    "point-frozen": (point_cone(32), X_DEP, dict(v=0.7, xi=-2.0, x_value=0.4, freeze_r=True)),
    "point-q2": (point_cone(32, q=2), X_DEP_Q2, dict(v=0.3, x_value=1.1)),
    "point-interval": (point_cone(32, boundary="interval"), "1 + 0.3*chi(p)", dict()),
    # r-free: the grid broadcasts over t with stride 0
    "point-rfree": (point_cone(32), "1 + 0.3*chi(p) + (0,0.2)*p/(1 + p^2)", dict(v=0.7, xi=3.0)),
    "circle": (circle_base_cone(16), X_DEP_MU, dict(v=0.7, xi=3.0, x_value=0.4)),
    "circle-q2": (circle_base_cone(16, q=2), X_DEP_Q2, dict(v=0.7, xi=3.0, x_value=0.4)),
    "circle-interval": (circle_base_cone(16, boundary="interval"), "1 + 0.3*chi(p)*chi(t)", dict()),
}


@pytest.mark.parametrize("name", sorted(MELLIN_CASES))
def test_op_mellin_equals_single_fiber(name):
    cone, src, kw = MELLIN_CASES[name]
    expr = parse(src)
    A = op_mellin(cone, expr, **kw)
    want = mellin_reference(cone, expr, **kw)
    if cone.boundary == "interval":
        keep = _interior_nodes(cone)
        want = want[np.ix_(keep, keep)]
    assert_matches_oracle(A.matrix, want, expr, cone, x_axis=False)


@pytest.mark.parametrize("src", ["1 / eta", "(1 + 0.1*sin(x)) / eta"], ids=["xfree", "xdep"])
def test_non_finite_fiber_raises_like_the_loop(src):
    # eta = xi r vanishes on the xi = 0 fiber
    g = Edge(Circle(8), point_cone(16))
    expr = parse(src)
    with pytest.raises(EvalError) as loop:
        edge_reference(g, expr, 0.0, False)
    with pytest.raises(EvalError) as batched:
        op_edge(g, expr)
    assert type(batched.value) is type(loop.value)
    assert str(batched.value) == str(loop.value)


def test_op_edge_makes_no_op_mellin_call(monkeypatch):
    calls = []
    real = quantize_module.op_mellin

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(quantize_module, "op_mellin", counting)
    g = Edge(Circle(8), point_cone(16, boundary="interval"))
    op_edge(g, parse(X_DEP), v=0.5)
    op_edge(g, parse(X_FREE), v=0.5)
    assert calls == []


def test_interval_edge_skips_support_policy():
    # the family varies in r at the window ends: op_mellin refuses it on
    # an interval cone, op_edge assembles its fibers on the periodic window
    cone = point_cone(16, boundary="interval")
    expr = parse("2 + sin(r)")
    with pytest.raises(QuantizeError, match="support policy"):
        op_mellin(cone, expr)
    g = Edge(Circle(8), cone)
    A = op_edge(g, expr)
    want, want_blocks = edge_reference(g, expr, 0.0, False)
    assert A.interior
    assert_matches_oracle(A.matrix, want, expr, cone)
    assert_matches_oracle(A._blocks, want_blocks, expr, cone)


def twisted_symbols() -> list[EdgeSymbol]:
    """The homogeneity stock and a pushforward-conjugated circle-base symbol."""
    base = Circle(16)
    P = ConeSymbolFamily("(p - (0,1)*(1 + t^2))/(p + (0,1)*(1 + t^2))", base=base)
    pushed = EdgeSymbol(pushforward_edge(P, "x + 0.2*sin(x)"), Cone(base=base, T=12.0, n_t=32))
    return list(homogeneity_stock()) + [pushed]


TWISTED_IDS = ["cayley", "eta", "w", "cayley-w", "q2", "pushforward"]


@pytest.mark.parametrize("i", range(len(TWISTED_IDS)), ids=TWISTED_IDS)
def test_edge_symbol_fibers_equal_fiber_loop(i):
    sigma = twisted_symbols()[i]
    lams = np.array([DilationAction(sigma.cone, k).lam for k in range(1, 4)])
    xi, v = np.concatenate([[1.5], 1.5 * lams]), np.concatenate([[-0.5], -0.5 * lams])
    stack = sigma.fibers(xi=xi, v=v, x=0.3)
    assert stack.shape == (len(xi), sigma.cone.dim_total, sigma.cone.dim_total)
    for m, xi_i, v_i in zip(stack, xi, v):
        assert np.array_equal(m, sigma.at(x=0.3, xi=xi_i, v=v_i).matrix)


@pytest.mark.parametrize("i", range(len(TWISTED_IDS)), ids=TWISTED_IDS)
def test_twisted_homogeneity_equals_fiber_loop(i):
    sigma = twisted_symbols()[i]
    ks = (1, 2, 3) if TWISTED_IDS[i] == "pushforward" else tuple(range(1, 9))
    assert check_twisted_homogeneity(sigma, ks=ks).violations == twisted_loop_violations(sigma, ks)


def test_edge_symbol_fibers_need_periodic_cone():
    sigma = EdgeSymbol(ConeSymbolFamily("1 + 0.3*chi(p)"), point_cone(16, boundary="interval"))
    with pytest.raises(SymbolError, match="periodic"):
        sigma.fibers(xi=np.array([1.0]), v=np.array([1.0]))
