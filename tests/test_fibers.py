"""Batched Mellin fibers: op_edge and op_mellin against the per-fiber loop.

The oracle below is the assembly op_edge and op_mellin used before the
fibers were batched: one evaluate, one E S F contraction and (on a
circle base) one base-DFT conjugation per fiber, in a Python loop over
the edge points. Batching keeps the arithmetic of every entry, so the
comparisons are exact, except for x-dependent edge families: kn_assemble
assembles their x axis by an FFT and a cyclic shift of the rows, with
no phase table, so the oracle takes exact phases (`circle_phases`) and
the comparison is the bound of `assert_matches_oracle`.
"""

import numpy as np
import pytest

import psdo.quantize as quantize_module
from psdo.geometry import Circle, Cone, DilationAction, Edge, Point
from psdo.quantize import QuantizeError, _interior_nodes, op_edge, op_mellin
from psdo.stock import homogeneity_stock, infinitesimal_stock
from psdo.symbols import ConeSymbolFamily, EdgeSymbol, SymbolError, check_twisted_homogeneity, pushforward_edge
from psdo.symexpr import Const, EvalError, evaluate, parse, substitute, variables_of


def circle_phases(circ: Circle, expr) -> np.ndarray:
    """Phase table E[j, k] = exp(i m_k x_j) of a circle x axis with modes
    m_k, as the oracles build it. x-dependent symbols take exact phases,
    exp(2 pi i ((j m_k) mod n) / n) from integers, as the FFT assembly
    of kn_assemble has them; x-free ones keep the rounded products
    fl(x_j) m_k of the phase table their DFT-matrix product uses."""
    if "x" not in variables_of(expr):
        return np.exp(1j * circ.x[:, None] * circ.modes[None, :].astype(float))
    n = circ.n_x
    return np.exp(2j * np.pi * ((np.arange(n)[:, None] * circ.modes[None, :]) % n) / n)


def assert_matches_oracle(A: np.ndarray, want: np.ndarray, expr) -> None:
    """Quantizer output against its oracle. On circle x axes x-free
    symbols keep the DFT-matrix product and equal the oracle bit for
    bit; x-dependent ones go through the FFT and the row shift, within
    max|A - want| <= 2e-15 max|want| of the exact-phase oracle (worst
    measured 1.2e-15)."""
    if "x" not in variables_of(expr):
        assert np.array_equal(A, want)
    else:
        assert np.max(np.abs(A - want)) <= 2e-15 * np.max(np.abs(want))


def fiber_oracle(cone: Cone, expr, v: float, xi: float, x_value: float, freeze_r: bool) -> np.ndarray:
    """One periodic Mellin fiber matrix, assembled on its own."""
    n_t, q = cone.n_t, cone.q
    circle_base = isinstance(cone.base, Circle)
    shape = (n_t, 1, 1) if circle_base else (n_t, 1)
    r = cone.r.reshape(shape)
    bindings = {
        "r": np.zeros_like(r) if freeze_r else r,
        "w": v * r,
        "eta": xi * r,
        "p": cone.p.reshape((1, n_t, 1) if circle_base else (1, n_t)),
        "v": v,
        "x": x_value,
        "t": cone.base.modes.astype(float).reshape(1, 1, -1) if circle_base else 0.0,
    }
    E = np.exp(1j * cone.t[:, None] * cone.p[None, :])
    F = np.exp(-1j * cone.p[:, None] * cone.t[None, :]) / n_t
    if not circle_base:
        S = np.broadcast_to(evaluate(expr, bindings), (n_t, n_t, q, q))
        return np.einsum("jk,jkab,kl->jalb", E, S, F, optimize=True).reshape(n_t * q, n_t * q)
    base = cone.base
    n_w = base.n_x
    S = np.broadcast_to(evaluate(expr, bindings), (n_t, n_t, n_w, q, q))
    blocks = np.einsum("jk,jkmab,kl->mjalb", E, S, F, optimize=True)
    iFw = np.exp(1j * base.modes[None, :].astype(float) * base.x[:, None])
    Fw = np.exp(-1j * base.modes[:, None].astype(float) * base.x[None, :]) / n_w
    A = np.einsum("lm,mjase,mn->jlasne", iFw, blocks, Fw, optimize=True)
    return A.reshape(n_t * n_w * q, n_t * n_w * q)


def edge_oracle(g: Edge, expr, v: float, freeze_r: bool):
    """(matrix, mode blocks or None) of an edge operator, fiber by fiber."""
    cone, circ = g.cone, g.circle
    n_x, d = circ.n_x, cone.dim_total
    xi = circ.modes.astype(float)
    E = circle_phases(circ, expr)
    F = np.fft.fft(np.eye(n_x), axis=0) / n_x
    if "x" in variables_of(expr):
        blocks = np.empty((n_x, n_x, d, d), dtype=complex)
        for j in range(n_x):
            for k, xi_k in enumerate(xi):
                blocks[j, k] = fiber_oracle(cone, expr, v, xi_k, circ.x[j], freeze_r)
        A = np.einsum("jk,jkab,kl->jalb", E, blocks, F, optimize=True)
        mode_blocks = None
    else:
        blocks = np.empty((n_x, d, d), dtype=complex)
        for k, xi_k in enumerate(xi):
            blocks[k] = fiber_oracle(cone, expr, v, xi_k, 0.0, freeze_r)
        A = np.einsum("jk,kab,kl->jalb", E, blocks, F, optimize=True)
        mode_blocks = blocks
    A = A.reshape(g.dim_total, g.dim_total)
    if cone.boundary == "interval":
        keep = _interior_nodes(g)
        A = A[np.ix_(keep, keep)]
        if mode_blocks is not None:
            fiber_keep = _interior_nodes(cone)
            mode_blocks = mode_blocks[:, fiber_keep[:, None], fiber_keep[None, :]]
    return A, mode_blocks


def _point(n_t, **kw):
    return Cone(Point(), T=6.0, n_t=n_t, **kw)


def _circle_base(n_t, **kw):
    return Cone(Circle(8), T=5.0, n_t=n_t, **kw)


X_DEP = "1 + 0.3*chi(p) + 0.2*w/(1+w) + 0.25*(1-cos(x))*chi(eta) + (0,0.1)*exp((0,1)*x)*r/(1+r)"
X_FREE = "1 + 0.3*chi(p) + 0.2*w/(1+w) + 0.25*chi(eta) + (0,0.1)*eta*r/(1+r)"
X_DEP_MU = "1 + 0.3*chi(p) + 0.2*w/(1+w) + 0.25*(1-cos(x))*chi(eta)*chi(t) + (0,0.1)*t*r/(1+r)"
X_DEP_Q2 = "[[1 + chi(p), 0.2*w*(1-sin(x))], [(0,0.3)*chi(eta), 2 + r/(1+r)]]"
X_FREE_Q2 = "[[1 + chi(p)*chi(t), 0.2*w], [(0,0.3)*chi(eta), 2 + eta*r/(1+r)]]"

EDGE_CASES = {
    # name: (edge, symbol, freeze_r)
    "point-periodic-xdep": (Edge(Circle(8), _point(16)), X_DEP, False),
    "point-periodic-xfree": (Edge(Circle(8), _point(16)), X_FREE, False),
    "point-periodic-xfree-frozen": (Edge(Circle(8), _point(16)), X_FREE, True),
    "point-interval-xdep": (Edge(Circle(8), _point(16, boundary="interval")), X_DEP, False),
    "point-interval-xfree": (Edge(Circle(8), _point(16, boundary="interval")), X_FREE, False),
    "circle-periodic-xdep": (Edge(Circle(8), _circle_base(8)), X_DEP_MU, False),
    "circle-interval-xfree": (Edge(Circle(8), _circle_base(8, boundary="interval")), X_FREE, False),
    "point-q2-xdep": (Edge(Circle(8, q=2), _point(16, q=2)), X_DEP_Q2, False),
    "circle-q2-xfree-frozen": (Edge(Circle(8, q=2), _circle_base(8, q=2)), X_FREE_Q2, True),
    "assemble-xfree-16x64": (
        Edge(Circle(16), _point(64)),
        "1.3 + 0.5 * chi(p) + 0.3 * w / (1 + w) + 0.2 * chi(eta)",
        False,
    ),
    "assemble-xdep-16x32": (
        Edge(Circle(16), _point(32)),
        "1.3 + 0.5 * chi(p) + 0.3 * w / (1 + w) + 0.2 * (1 - cos(x)) * chi(eta)",
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_op_edge_equals_fiber_loop(name):
    g, src, freeze_r = EDGE_CASES[name]
    expr = parse(src)
    A = op_edge(g, expr, v=0.7, freeze_r=freeze_r)
    want, want_blocks = edge_oracle(g, expr, 0.7, freeze_r)
    assert_matches_oracle(A.matrix, want, expr)
    assert A.interior == (g.cone.boundary == "interval")
    if want_blocks is None:
        assert A._blocks is None
    else:
        assert np.array_equal(A._blocks, want_blocks)


@pytest.mark.parametrize("frozen", [False, True], ids=["unfrozen", "frozen"])
def test_stock_infinitesimal_edge_equals_fiber_loop(frozen):
    (g, expr, z), = [case for case in infinitesimal_stock() if isinstance(case[0], Edge)]
    if frozen:
        expr = substitute(expr, {"x": Const(float(z))})
    A = op_edge(g, expr, v=0.0, freeze_r=frozen)
    want, want_blocks = edge_oracle(g, expr, 0.0, frozen)
    assert_matches_oracle(A.matrix, want, expr)
    assert (A._blocks is None) == (want_blocks is None)
    if want_blocks is not None:
        assert np.array_equal(A._blocks, want_blocks)


MELLIN_CASES = {
    # name: (cone, symbol, keyword arguments)
    "point": (_point(32), X_DEP, dict(v=0.7, xi=3.0, x_value=0.4)),
    "point-frozen": (_point(32), X_DEP, dict(v=0.7, xi=-2.0, x_value=0.4, freeze_r=True)),
    "point-q2": (_point(32, q=2), X_DEP_Q2, dict(v=0.3, x_value=1.1)),
    "point-interval": (_point(32, boundary="interval"), "1 + 0.3*chi(p)", dict()),
    # r-free: the grid broadcasts over t with stride 0
    "point-rfree": (_point(32), "1 + 0.3*chi(p) + (0,0.2)*p/(1 + p^2)", dict(v=0.7, xi=3.0)),
    "circle": (_circle_base(16), X_DEP_MU, dict(v=0.7, xi=3.0, x_value=0.4)),
    "circle-q2": (_circle_base(16, q=2), X_DEP_Q2, dict(v=0.7, xi=3.0, x_value=0.4)),
    "circle-interval": (_circle_base(16, boundary="interval"), "1 + 0.3*chi(p)*chi(t)", dict()),
}


@pytest.mark.parametrize("name", sorted(MELLIN_CASES))
def test_op_mellin_equals_single_fiber(name):
    cone, src, kw = MELLIN_CASES[name]
    expr = parse(src)
    A = op_mellin(cone, expr, **kw)
    want = fiber_oracle(
        cone, expr, kw.get("v", 0.0), kw.get("xi", 0.0), kw.get("x_value", 0.0), kw.get("freeze_r", False)
    )
    if cone.boundary == "interval":
        keep = _interior_nodes(cone)
        want = want[np.ix_(keep, keep)]
    assert np.array_equal(A.matrix, want)


@pytest.mark.parametrize("src", ["1 / eta", "(1 + 0.1*sin(x)) / eta"], ids=["xfree", "xdep"])
def test_non_finite_fiber_raises_like_the_loop(src):
    # eta = xi r vanishes on the xi = 0 fiber
    g = Edge(Circle(8), _point(16))
    expr = parse(src)
    with pytest.raises(EvalError) as loop:
        edge_oracle(g, expr, 0.0, False)
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
    g = Edge(Circle(8), _point(16, boundary="interval"))
    op_edge(g, parse(X_DEP), v=0.5)
    op_edge(g, parse(X_FREE), v=0.5)
    assert calls == []


def test_interval_edge_skips_support_policy():
    # the family varies in r at the window ends: op_mellin refuses it on
    # an interval cone, op_edge assembles its fibers periodically
    cone = _point(16, boundary="interval")
    expr = parse("2 + sin(r)")
    with pytest.raises(QuantizeError, match="support policy"):
        op_mellin(cone, expr)
    g = Edge(Circle(8), cone)
    A = op_edge(g, expr)
    want, want_blocks = edge_oracle(g, expr, 0.0, False)
    assert A.interior
    assert np.array_equal(A.matrix, want)
    assert np.array_equal(A._blocks, want_blocks)


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


def twisted_loop_violations(sigma: EdgeSymbol, ks) -> tuple[float, ...]:
    """check_twisted_homogeneity's violations with one fiber per at() call."""
    base_m = sigma.at(x=0.0, xi=1.0, v=1.0).matrix
    out = []
    for k in ks:
        act = DilationAction(sigma.cone, k)
        dilated = sigma.at(x=0.0, xi=act.lam, v=act.lam).matrix
        denom = max(1.0, float(np.linalg.norm(dilated, 2)))
        out.append(float(np.linalg.norm(dilated - act.conjugate(base_m), 2)) / denom)
    return tuple(out)


@pytest.mark.parametrize("i", range(len(TWISTED_IDS)), ids=TWISTED_IDS)
def test_twisted_homogeneity_equals_fiber_loop(i):
    sigma = twisted_symbols()[i]
    ks = (1, 2, 3) if TWISTED_IDS[i] == "pushforward" else tuple(range(1, 9))
    assert check_twisted_homogeneity(sigma, ks=ks).violations == twisted_loop_violations(sigma, ks)


def test_edge_symbol_fibers_need_periodic_cone():
    sigma = EdgeSymbol(ConeSymbolFamily("1 + 0.3*chi(p)"), _point(16, boundary="interval"))
    with pytest.raises(SymbolError, match="periodic"):
        sigma.fibers(xi=np.array([1.0]), v=np.array([1.0]))
