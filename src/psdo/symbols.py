"""Symbol hierarchy on the model geometries.

Three layers: interior symbols a(x, xi, v) on the smooth stratum,
operator-valued edge symbols built from cone families P(x, r, w, eta, p),
and conormal symbols P(0,0,0,0,p) on the weight line, the cone families
that `conormal` freezes. The checks in this module are the desk
versions of two structural conditions the calculus imposes: twisted
homogeneity under the weighted dilation group, and compatibility of the
two principal symbols where strata meet.

Coordinate changes act by pushforward. On the interior this is the exact
substitution (x, xi) -> (f(x), xi / f'(x)); on the edge fiber it is
conjugation by a measure-corrected discrete pullback along the base
diffeomorphism. Fiber values of circle-base families are always reported
in the nodal basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from psdo.geometry import Circle, Cone, DilationAction, Geometry, Point
from psdo.quantize import (
    DiscretizedOperator,
    _dft_matrix,
    _mellin_fibers,
    base_to_nodal,
    op_mellin,
    spectral_norms,
    synthesis,
)
from psdo.symexpr import (
    Call,
    Const,
    ExprLike,
    Node,
    Var,
    add,
    as_node,
    diff,
    evaluate,
    mul,
    shape_of,
    substitute,
    variables_of,
)

__all__ = [
    "SymbolError",
    "InteriorSymbol",
    "ConeSymbolFamily",
    "EdgeSymbol",
    "SymbolTuple",
    "TwistedHomogeneityReport",
    "CompatReport",
    "check_twisted_homogeneity",
    "conormal",
    "compat_check",
    "pushforward_interior",
    "pushforward_edge",
    "circle_inverse",
    "base_pullback",
]


class SymbolError(ValueError):
    pass


_INTERIOR_VARS = frozenset({"x", "xi", "v", "r"})
_FAMILY_VARS = frozenset({"x", "r", "w", "eta", "p", "t", "v"})


# ---------------------------------------------------------------------------
# Interior symbols


@dataclass(frozen=True)
class InteriorSymbol:
    """Symbol a(x, xi, v) on the smooth stratum, degree-0 positively
    homogeneous in (xi, v) jointly at large |(xi, v)|. No check reads
    the degree itself; `compat_check` compares the symbol's radial
    limits with the edge family.

    An r slot is permitted so that interior symbols on cone and edge
    geometries can vanish toward the singular stratum.
    """

    expr: Node
    q: int = 1

    def __post_init__(self):
        object.__setattr__(self, "expr", as_node(self.expr))
        got = shape_of(self.expr)
        if got != self.q:
            raise SymbolError(f"expression has fiber dim {got}, symbol declares {self.q}")
        extra = variables_of(self.expr) - _INTERIOR_VARS
        if extra:
            raise SymbolError(f"interior symbol uses non-interior variables {sorted(extra)}")

    def value(self, x, xi, v=0.0, r=0.0) -> np.ndarray:
        return evaluate(self.expr, {"x": x, "xi": xi, "v": v, "r": r})


# ---------------------------------------------------------------------------
# Cone families


@dataclass
class ConeSymbolFamily:
    """Family P(x, r, w, eta, p) valued in operators on the cone base.

    For a Point base a fiber is a q x q matrix, and `value` stacks the
    fibers over the shape of p. For a Circle base the family acts diagonally in base Fourier modes, with
    the mode index bound to the variable t; values are reported in the
    nodal basis. Full (non-diagonal) matrix families arise only through
    pushforward_edge, which sets `frame`: a unitary Q on the base nodes,
    constant along the edge, applied to every fiber as Q^H @ value @ Q.
    """

    expr: Node
    base: Geometry = field(default_factory=Point)
    q: int = 1
    frame: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.expr = as_node(self.expr)
        if not isinstance(self.base, (Point, Circle)):
            raise SymbolError(f"cone base must be Point or Circle, got {type(self.base).__name__}")
        got = shape_of(self.expr)
        if got != self.q:
            raise SymbolError(f"expression has fiber dim {got}, family declares {self.q}")
        used = variables_of(self.expr)
        extra = used - _FAMILY_VARS
        if extra:
            raise SymbolError(f"cone family uses unknown variables {sorted(extra)}")
        if "t" in used and not isinstance(self.base, Circle):
            raise SymbolError("mode variable t requires a Circle base")
        if isinstance(self.base, Circle) and self.q != 1:
            raise SymbolError("circle-base families are scalar (q = 1) per fiber mode")

    def _bindings(self, x, r, w, eta, p, v) -> dict:
        b = {"x": x, "r": r, "w": w, "eta": eta, "p": p, "v": v}
        if isinstance(self.base, Circle):
            b["t"] = self.base.modes.astype(float)
        else:
            b["t"] = 0.0
        return b

    def value(self, p, w=0.0, eta=0.0, r=0.0, x=0.0, v=0.0) -> np.ndarray:
        """Fiber matrices (nodal basis) at scalar w, eta, r, x, v and at p,
        stacked as (*p.shape, d, d) from one evaluation on all of p."""
        shape = np.shape(p)
        if shape:
            p = np.asarray(p, dtype=float)
        if isinstance(self.base, Point):
            vals = evaluate(self.expr, self._bindings(x, r, w, eta, p, v))
            m = np.broadcast_to(vals, shape + (self.q, self.q)).astype(complex)
        else:
            n = self.base.n_x
            d = self.mode_values(p, w, eta, r, x, v)
            # one product per p: a batched one contracts in another order
            rows = [base_to_nodal(self.base, row[:, None, None]) for row in d.reshape(-1, n)]
            m = np.array(rows).reshape(shape + (n, n))
        if self.frame is not None:
            m = self.frame.conj().T @ m @ self.frame
        return m

    def mode_values(self, p, w=0.0, eta=0.0, r=0.0, x=0.0, v=0.0) -> np.ndarray:
        """Circle base only: the fiber's values on the base Fourier modes
        (its diagonal in mode space, before any frame), stacked
        as (*p.shape, n_x) from one evaluation on all of p."""
        shape = np.shape(p)
        if shape:
            p = np.asarray(p, dtype=float)[..., None]
        vals = evaluate(self.expr, self._bindings(x, r, w, eta, p, v))
        return np.broadcast_to(vals[..., 0, 0], shape + (self.base.n_x,)).astype(complex)

    def min_singular(self, ps: Sequence[float]) -> np.ndarray:
        """Smallest singular value of the fiber at each p of ps, the
        other arguments at 0."""
        return np.linalg.svd(self.value(ps), compute_uv=False)[..., -1]

    def limit_drift(self) -> float:
        """Distance between values at +-1e6 and +-1e9, the other
        arguments at 0; small drift certifies convergence to the frozen
        limits."""
        m = self.value([1e9, -1e9, 1e6, -1e6])
        return float(np.max(spectral_norms(m[:2] - m[2:])))


# ---------------------------------------------------------------------------
# Edge symbols


@dataclass
class EdgeSymbol:
    """The operator-valued symbol of an edge family: the generating cone
    family frozen at (x, r) -> (x, 0), realized at each (x, xi, v) as a
    matrix on the discretized cone through the Mellin calculus with the
    substituted arguments w = r v, eta = r xi kept live."""

    family: ConeSymbolFamily
    cone: Cone

    def __post_init__(self):
        fam_base, cone_base = self.family.base, self.cone.base
        if type(fam_base) is not type(cone_base):
            raise SymbolError("family base and cone base disagree")
        if isinstance(fam_base, Circle) and fam_base.n_x != cone_base.n_x:
            raise SymbolError("family base and cone base disagree on grid size")
        if self.cone.q != self.family.q:
            raise SymbolError("fiber dimension mismatch between family and cone")

    def at(self, x: float = 0.0, xi: float = 0.0, v: float = 0.0) -> DiscretizedOperator:
        op = op_mellin(self.cone, self.family.expr, v=v, xi=xi, x_value=x, freeze_r=True)
        if self.family.frame is None:
            return op
        return DiscretizedOperator(op.geometry, op.v, self._framed(op.matrix))

    def fibers(self, xi: np.ndarray, v: np.ndarray, x: float = 0.0) -> np.ndarray:
        """The matrices of at(x, xi_i, v_i) for paired arrays xi and v,
        stacked as (n, d, d) from one batched Mellin assembly; periodic
        cones only."""
        if self.cone.boundary != "periodic":
            raise SymbolError("batched fibers need a periodic cone grid")
        A = _mellin_fibers(self.cone, self.family.expr, v, xi, x, freeze_r=True)
        return A if self.family.frame is None else self._framed(A)

    def _framed(self, A: np.ndarray) -> np.ndarray:
        """Q^H A Q on each fiber, Q the family's frame on every t node."""
        Q = self.family.frame
        eye = np.eye(A.shape[-1] // Q.shape[0])
        return np.kron(eye, Q.conj().T) @ A @ np.kron(eye, Q)


@dataclass(frozen=True)
class TwistedHomogeneityReport:
    ks: tuple[int, ...]
    lambdas: tuple[float, ...]
    violations: tuple[float, ...]
    max_violation: float
    tol: float
    passed: bool


def check_twisted_homogeneity(sigma: EdgeSymbol, v: float = 1.0) -> TwistedHomogeneityReport:
    """sigma(lam xi, lam v) = kappa_lam sigma(xi, v) kappa_lam^{-1} for
    the grid-admissible lam = exp(k h_t), k = 1..8, as a matrix identity
    at xi = 1 and x = 0, to tolerance 1e-10."""
    if sigma.cone.boundary != "periodic":
        raise SymbolError("twisted homogeneity needs a periodic cone grid")
    ks = tuple(range(1, 9))
    acts = [DilationAction(sigma.cone, k) for k in ks]
    lams = [act.lam for act in acts]
    scale = np.array([1.0] + lams)
    base_m, *dilated_ms = sigma.fibers(xi=scale, v=scale * v, x=0.0)
    viols = []
    for act, dilated in zip(acts, dilated_ms):
        conj = act.conjugate(base_m)
        denom = max(1.0, float(np.linalg.norm(dilated, 2)))
        viols.append(float(np.linalg.norm(dilated - conj, 2)) / denom)
    worst = max(viols)
    return TwistedHomogeneityReport(
        ks, tuple(lams), tuple(viols), worst, 1e-10, worst <= 1e-10
    )


# ---------------------------------------------------------------------------
# Conormal symbols


def conormal(P: ConeSymbolFamily) -> ConeSymbolFamily:
    """The conormal symbol p -> P(0, 0, 0, 0, p): the family with
    x = r = w = eta = v frozen to 0, a function of p (and, on a Circle
    base, of the mode t) on the weight line, with P's base and
    frame."""
    frozen = substitute(P.expr, dict.fromkeys(("x", "r", "w", "eta", "v"), Const(0.0)))
    return replace(P, expr=frozen)


# ---------------------------------------------------------------------------
# Symbol tuples and compatibility


@dataclass
class SymbolTuple:
    """Principal symbol pair of an edge-degenerate operator: the
    interior symbol sigma0 and the cone family sigma1 that generates
    the edge symbol. Neither member carries a grid; EdgeSymbol realizes
    sigma1 on a discretized cone when a check needs matrices. The family
    sits on a point base: a circle-base fiber has no q x q interior
    counterpart to compare against."""

    sigma0: InteriorSymbol
    sigma1: ConeSymbolFamily

    def __post_init__(self):
        if not isinstance(self.sigma1.base, Point):
            base = type(self.sigma1.base).__name__
            raise SymbolError(f"symbol tuples need a point-base cone family, got a {base} base")
        if self.sigma0.q != self.sigma1.q:
            raise SymbolError("interior and edge symbols disagree on fiber dimension")


@dataclass(frozen=True)
class CompatReport:
    mismatch: float
    tol: float
    passed: bool


def compat_check(t: SymbolTuple) -> CompatReport:
    """Compatibility of the two principal symbols where strata meet.

    The interior symbol is compared, on the equator p = 0 of the large
    (w, eta, p)-sphere, against the generating family evaluated at the
    scaled arguments w = lam d_v, eta = lam d_xi with r frozen to 0, at
    8 x nodes and 8 directions: by degree-0 homogeneity both sides are
    radial limits and lam = 1e6 reaches them to well under the
    tolerance 1e-8.
    """
    lam_large, tol = 1e6, 1e-8
    fam, q = t.sigma1, t.sigma0.q
    xs = 2.0 * np.pi * np.arange(8) / 8
    thetas = 2.0 * np.pi * np.arange(8) / 8
    worst = 0.0
    for x0 in xs:
        for th in thetas:
            d_xi, d_v = np.cos(th), np.sin(th)
            a0 = t.sigma0.value(x0, lam_large * d_xi, lam_large * d_v, r=0.0)
            a0 = np.asarray(a0, dtype=complex).reshape(q, q)
            pv = fam.value(p=0.0, w=lam_large * d_v, eta=lam_large * d_xi, r=0.0, x=x0)
            worst = max(worst, float(np.linalg.norm(pv.reshape(q, q) - a0, 2)))
    return CompatReport(worst, tol, worst <= tol)


# ---------------------------------------------------------------------------
# Pushforward along coordinate changes


def _check_diffeo(f: Node, df: Node) -> None:
    xs = 2.0 * np.pi * np.arange(64) / 64
    dvals = evaluate(df, {"x": xs}).reshape(-1)
    if float(np.max(np.abs(dvals.imag))) > 1e-10 * max(1.0, float(np.max(np.abs(dvals)))):
        raise SymbolError("diffeomorphism derivative is not real on the circle")
    if float(np.min(np.abs(dvals.real))) < 1e-8:
        raise SymbolError("diffeomorphism derivative vanishes at a sample node")


def circle_inverse(f: ExprLike, df: Optional[ExprLike] = None) -> Node:
    """Closed-form inverse of a circle diffeomorphism.

    f lifts to the line as x + (periodic), so f^{-1} - id is periodic
    and smooth; it is recovered by Newton's method on 256 grid nodes and
    returned as a trigonometric-polynomial AST (coefficients below
    1e-14 of the sup are dropped, which keeps the tree small: analytic
    diffeomorphisms have exponentially decaying coefficients). Rigid
    rotations come back exact as x - c.
    """
    f = as_node(f)
    df_n = diff(f, "x") if df is None else as_node(df)
    _check_diffeo(f, df_n)
    n = 256
    y = 2.0 * np.pi * np.arange(n) / n
    x = y.copy()
    for _ in range(60):
        fx = evaluate(f, {"x": x}).reshape(-1).real
        dfx = evaluate(df_n, {"x": x}).reshape(-1).real
        step = (fx - y) / dfx
        x = x - step
        if float(np.max(np.abs(step))) < 1e-15:
            break
    h = x - y
    c = np.fft.fft(h) / n
    keep = 1e-14 * max(1.0, float(np.max(np.abs(h))))
    expr: Node = Var("x")
    if abs(c[0]) > keep:
        expr = add(expr, Const(complex(c[0].real)))
    for k in range(1, n // 2 + 1):
        ck = c[k]
        if abs(ck) <= keep:
            continue
        # h real: c_{-k} = conj(c_k), pair sums to 2 Re(c_k e^{iky})
        a_k = 2.0 * ck.real if k < n // 2 else ck.real
        b_k = -2.0 * ck.imag if k < n // 2 else 0.0
        arg = mul(Const(float(k)), Var("x"))
        if a_k != 0.0:
            expr = add(expr, mul(Const(a_k), Call("cos", arg)))
        if b_k != 0.0:
            expr = add(expr, mul(Const(b_k), Call("sin", arg)))
    return expr


def pushforward_interior(
    a: InteriorSymbol,
    f: ExprLike,
    df: Optional[ExprLike] = None,
    f_inv: Optional[ExprLike] = None,
) -> InteriorSymbol:
    """Pushforward of an interior symbol along a circle diffeomorphism.

    The cotangent map sends (x, xi) to (f(x), xi / f'(x)), so the
    pushed-forward symbol is a'(y, eta, v) = a(f^{-1}(y),
    eta f'(f^{-1}(y)), v). When f_inv is not supplied it is constructed
    by circle_inverse; the construction is verified against f on grid
    samples, to 1e-10, and rejected honestly when it fails.
    """
    f = as_node(f)
    df_n = diff(f, "x") if df is None else as_node(df)
    _check_diffeo(f, df_n)
    f_inv = circle_inverse(f, df_n) if f_inv is None else as_node(f_inv)
    xs = 2.0 * np.pi * np.arange(64) / 64
    round_trip = evaluate(substitute(f, {"x": f_inv}), {"x": xs}).reshape(-1)
    err = float(np.max(np.abs(round_trip - xs)))
    if err > 1e-10 * max(1.0, float(np.max(np.abs(xs)))):
        raise SymbolError(
            f"inverse construction failed (f(f_inv(x)) off by {err:.2e}); supply f_inv explicitly"
        )
    df_at_inv = substitute(df_n, {"x": f_inv})
    b = substitute(a.expr, {"x": f_inv, "xi": mul(Var("xi"), df_at_inv)})
    return InteriorSymbol(b, a.q)


def base_pullback(circle: Circle, g: ExprLike, dg: Optional[ExprLike] = None) -> np.ndarray:
    """Discrete pullback u -> sqrt(g') u(g(omega)) on the base circle.

    The raw matrix (trig interpolation at the warped nodes, weighted by
    the half-density factor) aliases above Nyquist and is exponentially
    ill-conditioned, so the returned matrix is its polar unitary factor:
    exactly the raw matrix for rigid rotations, equal to it on low modes
    to O(1/N), and safe to conjugate by.
    """
    g = as_node(g)
    dg_n = diff(g, "x") if dg is None else as_node(dg)
    om = circle.x
    gvals = np.broadcast_to(evaluate(g, {"x": om}).reshape(-1), om.shape)
    dvals = np.broadcast_to(evaluate(dg_n, {"x": om}).reshape(-1), om.shape)
    if float(np.max(np.abs(gvals.imag))) > 1e-10 or float(np.max(np.abs(dvals.imag))) > 1e-10:
        raise SymbolError("base diffeomorphism must be real on the circle")
    dreal = dvals.real
    if float(np.min(dreal)) <= 0.0:
        raise SymbolError("base diffeomorphism is not bijective on the grid (Jacobian sign change)")
    E = synthesis(gvals.real, circle.modes.astype(float))
    raw = np.diag(np.sqrt(dreal)) @ E @ _dft_matrix(circle.n_x)
    U, _, Vh = np.linalg.svd(raw)
    return U @ Vh


def pushforward_edge(
    P: ConeSymbolFamily,
    g: ExprLike,
    dg: Optional[ExprLike] = None,
) -> ConeSymbolFamily:
    """Pushforward of a circle-base cone family along a base
    diffeomorphism: conjugation of the fiber values by the unitary
    discrete pullback Q, which becomes the family's frame (after any
    frame it had). The diffeomorphism is constant along the edge."""
    if not isinstance(P.base, Circle):
        raise SymbolError("pushforward_edge needs a Circle base")
    Q = base_pullback(P.base, g, dg)
    return replace(P, frame=Q if P.frame is None else P.frame @ Q)
