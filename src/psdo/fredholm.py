"""Ellipticity verdicts, finite-section Fredholm data, winding-number
oracle, tuple quantization, and large-parameter invertibility scans.

Fredholm and index work runs on interval-mode cone grids: the periodic
cylinder makes every Mellin multiplier invertible-or-nothing, while the
two interval ends model the r -> 0 conormal data and the r -> infinity
interior data. Finite sections of Fredholm operators grow spurious
near-kernels from the cut, so near-null vectors are attributed per
singular pair: a vector localized in the seam collars (outer 10% of
interval nodes, or of Fourier modes around Nyquist on periodic axes) is
a cut artifact and does not count. Counts must stabilize across two
refinements with a spectral gap ratio of at least 100, otherwise the
report is marked indeterminate rather than guessed.

The index sign convention is pinned against the quantization rather
than assumed: for the Mellin calculus as built, a determinate
finite-section index equals +1 times the winding of the tip conormal
symbol traversed from -p_max to +p_max. The pin comes from the Cayley
factor (p - i)/(p + i), winding +1, whose quantized interpolation to
the identity carries one genuine tip-concentrated kernel vector and no
genuine cokernel; adjoints flip both signs consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from psdo.geometry import Circle, Cone, Edge, Geometry, Point, axis_layout, collar_cutoff
from psdo.quantize import (
    AxisKind,
    DiscretizedOperator,
    _restrict_t_axis,
    kn_assemble,
    op_edge,
    op_mellin,
    quantize,
)
from psdo.symbols import (
    ConeSymbolFamily,
    InteriorSymbol,
    SymbolTuple,
    compat_check,
    conormal,
)
from psdo.symexpr import (
    Const,
    ExprLike,
    Node,
    Var,
    as_node,
    evaluate,
    mul,
    shape_of,
    sub,
    substitute,
    variables_of,
)

__all__ = [
    "FredholmError",
    "EllipticityReport",
    "check_elliptic",
    "SectionStats",
    "FredholmReport",
    "SECTION_STEP",
    "interval_section",
    "finite_section",
    "WindingReport",
    "winding_oracle",
    "extract_tuple",
    "quantize_tuple",
    "LargeParameterReport",
    "large_parameter_scan",
]


class FredholmError(ValueError):
    pass


def _sphere_min(expr: Node, n_x: int, n_sphere: int, lam: float) -> float:
    """Smallest singular value of expr over the (x, sphere direction)
    grid, (xi, v) = lam (cos th, sin th), r = 0: one evaluation on the
    whole grid, one stacked SVD."""
    xs = 2.0 * np.pi * np.arange(n_x) / n_x
    thetas = 2.0 * np.pi * np.arange(n_sphere) / n_sphere
    bindings = {"x": xs[:, None], "xi": lam * np.cos(thetas), "v": lam * np.sin(thetas), "r": 0.0}
    m = evaluate(expr, bindings)
    m = np.broadcast_to(m, (n_x, n_sphere) + m.shape[-2:])
    return float(np.min(np.linalg.svd(m, compute_uv=False)[..., -1], initial=math.inf))


# ---------------------------------------------------------------------------
# Ellipticity


@dataclass(frozen=True)
class EllipticityReport:
    """Two-condition ellipticity verdict for a symbol tuple.

    interior_min is the smallest singular value of sigma0 over sampled
    (x, sphere direction) pairs at the homogeneity radius; the conormal
    profile scans the weight line including p = 0, and large_p_pass
    judges the large-|p| limits. overall is the conjunction of the
    interior and conormal conditions.
    """

    interior_min: float
    conormal_min: float
    large_p_pass: bool
    overall: bool
    conormal_profile: np.ndarray = field(repr=False)


def check_elliptic(t: SymbolTuple) -> EllipticityReport:
    """Ellipticity of a compatible tuple: interior invertibility on the
    (xi, v)-sphere and conormal invertibility on the whole weight line.

    The interior scan takes 64 x nodes and 32 sphere directions at
    radius 1e6; the conormal scan takes 513 points of [-64, 64], then
    the large-|p| limits, which must drift by at most 1e-5. Every
    minimum must clear the floor 1e-6. The p-grid has odd cardinality
    so p = 0 is always sampled (a zero at the origin is the canonical
    failure). Compatibility is the caller's to check first
    (`compat_check`); the scan does not repeat it.
    """
    floor = 1e-6
    interior_min = _sphere_min(t.sigma0.expr, 64, 32, 1e6)
    con = conormal(t.sigma1)
    profile = con.min_singular(np.linspace(-64.0, 64.0, 513))
    conormal_min = float(np.min(profile))
    large_ps = [s * 64.0 * f for s in (1.0, -1.0) for f in (8.0, 64.0, 512.0)]
    large_p_min = float(np.min(con.min_singular(large_ps)))
    drift = con.limit_drift()
    large_p_pass = large_p_min >= floor and drift <= 1e-5
    return EllipticityReport(
        interior_min=interior_min,
        conormal_min=conormal_min,
        large_p_pass=large_p_pass,
        overall=interior_min >= floor and conormal_min >= floor and large_p_pass,
        conormal_profile=profile,
    )


# ---------------------------------------------------------------------------
# Finite sections


@dataclass(frozen=True)
class SectionStats:
    size: int
    dim: int
    tau: float
    smallest: tuple[float, ...]
    gap_ratio: float
    kernel: int
    cokernel: int
    index: int
    artifacts: int


@dataclass(frozen=True)
class FredholmReport:
    sizes: tuple[int, ...]
    stats: tuple[SectionStats, ...]
    determinate: bool
    kernel: Optional[int]
    cokernel: Optional[int]
    index: Optional[int]
    convention: str = field(
        default=(
            "index = kernel - cokernel; cross-check: index = +winding of the tip "
            "symbol, p traversed from -p_max to +p_max"
        ),
        init=False,
    )

    def rows(self) -> list[tuple[int, int, int, int]]:
        """(size, kernel, cokernel, index) table."""
        return [(s.size, s.kernel, s.cokernel, s.index) for s in self.stats]


def _collar_fraction(vec: np.ndarray, A: DiscretizedOperator) -> float:
    """Mass fraction of a near-null vector in the cut-sensitive region:
    the outer 10% of interval nodes, or of modes around Nyquist."""
    frac = 0.1
    g = A.geometry
    total = float(np.vdot(vec, vec).real)
    if total <= 0.0:
        return 0.0
    if isinstance(g, (Cone, Edge)):
        lay = axis_layout(g, "t")
        m = max(1, math.ceil(frac * lay.n))
        slab = vec.reshape(lay.pre, lay.n, lay.post)
        mass = float(np.sum(np.abs(slab[:, :m, :]) ** 2 + np.abs(slab[:, -m:, :]) ** 2))
        return mass / total
    # circle: artifacts live near the Nyquist seam in mode space
    n = g.n_x
    coeffs = np.fft.fft(vec.reshape(n, g.q), axis=0)
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    seam = k >= (1.0 - frac) * (n / 2.0)
    mass = float(np.sum(np.abs(coeffs[seam, :]) ** 2))
    return mass / float(np.sum(np.abs(coeffs) ** 2))


# The step every finite-section ladder holds while its window grows.
SECTION_STEP = 0.1875


def interval_section(
    expr: Node,
    h_t: float,
    n_t: int,
    base: Union[Point, Circle] = Point(),
    q: int = 1,
) -> DiscretizedOperator:
    """One rung of a finite-section ladder held at step h_t: the family
    quantized on the interval cone with n_t nodes, T = h_t n_t / 2, so
    refining the section extends the window instead of crowding it."""
    cone = Cone(base, T=h_t * n_t / 2.0, n_t=n_t, boundary="interval", q=q)
    return op_mellin(cone, expr)


def _near_null_pairs(M: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(left, right): orthonormal n x count bases of the `count`
    smallest singular pairs of M, column i of left paired with column i
    of right.

    Inverse subspace iteration on one explicit inverse: M^-H and M^-1
    in turn on a fixed-seed n x count start, a QR after each, 3 rounds;
    then a count x count Rayleigh-Ritz SVD of Y^H M X splits the pairs
    (Golub & Van Loan, Matrix Computations, 7.3 and 8.2). A rung whose
    LU meets an exact zero pivot, or whose inverse overflows, takes the
    full SVD instead.
    """
    n = M.shape[0]
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:  # the LU met an exact zero pivot
        Minv = None
    if Minv is None or not np.all(np.isfinite(Minv)):
        U, _, Vh = np.linalg.svd(M)
        return U[:, n - count:], Vh[n - count:].conj().T
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))
    for _ in range(3):
        Y = np.linalg.qr((X.conj().T @ Minv).conj().T)[0]
        X = np.linalg.qr(Minv @ Y)[0]
    u, _, vh = np.linalg.svd(Y.conj().T @ (M @ X))
    return Y @ u, X @ vh.conj().T


def finite_section(
    build: Callable[[int], DiscretizedOperator],
    sizes: Sequence[int] = (64, 128, 256),
    tau_coef: float = 1e-6,
) -> FredholmReport:
    """Kernel/cokernel/index of a refinement ladder of finite sections.

    build(size) assembles the operator at one ladder rung. Near-null
    singular pairs below tau = tau_coef * sigma_max are attributed:
    the right vector, when genuine, counts toward the kernel, the left
    vector toward the cokernel; collar-localized vectors are cut
    artifacts and count toward neither. Determinate iff the last two
    rungs agree in counts and both show gap ratio >= 100; so the
    sizes must strictly increase and tau_coef be positive, else no
    refinement or no null pair could decide.

    Every rung takes its singular values alone (compute_uv=False):
    sigma_max, tau, the count, the gap and `smallest` all read them.
    Only a rung with near-null pairs forms vectors, and only those
    pairs, by `_near_null_pairs`. It works from one `inv` rather than
    repeated solves because numpy keeps no LU to reuse: at 255 nodes
    one `inv` takes 5.9 ms against 2.4 ms for each of the six solves
    (2 cores, OpenBLAS), while the full SVD would cost 31.5 ms against
    16.4 ms for the values.
    """
    if len(sizes) < 2:
        raise FredholmError("finite-section ladder needs at least two sizes")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise FredholmError(f"finite-section sizes must strictly increase, got {list(sizes)}")
    if not tau_coef > 0:
        raise FredholmError(f"finite-section tau_coef must be > 0, got {tau_coef!r}")
    stats = []
    for size in sizes:
        A = build(int(size))
        s = np.linalg.svd(A.matrix, compute_uv=False)
        dim = s.size
        sigma_max = float(s[0]) if dim else 0.0
        tau = tau_coef * sigma_max
        count = int(np.sum(s <= tau))
        if count:
            kept = s[dim - count - 1] if count < dim else sigma_max
            dropped = max(float(s[dim - count]), 1e-300)
            gap = float(kept) / dropped
        else:
            gap = float(s[-1]) / max(tau, 1e-300)
        kernel = cokernel = artifacts = 0
        if count:
            left, right = _near_null_pairs(A.matrix, count)
            for i in range(count):
                v_genuine = _collar_fraction(right[:, i], A) < 0.5
                u_genuine = _collar_fraction(left[:, i], A) < 0.5
                kernel += int(v_genuine)
                cokernel += int(u_genuine)
                artifacts += int(not v_genuine) + int(not u_genuine)
        stats.append(
            SectionStats(
                size=int(size),
                dim=dim,
                tau=tau,
                smallest=tuple(float(x) for x in s[-8:][::-1]),
                gap_ratio=gap,
                kernel=kernel,
                cokernel=cokernel,
                index=kernel - cokernel,
                artifacts=artifacts,
            )
        )
    last, prev = stats[-1], stats[-2]
    determinate = (
        last.gap_ratio >= 100.0
        and prev.gap_ratio >= 100.0
        and (last.kernel, last.cokernel) == (prev.kernel, prev.cokernel)
    )
    return FredholmReport(
        sizes=tuple(int(s) for s in sizes),
        stats=tuple(stats),
        determinate=determinate,
        kernel=last.kernel if determinate else None,
        cokernel=last.cokernel if determinate else None,
        index=last.index if determinate else None,
    )


# ---------------------------------------------------------------------------
# Winding oracle


@dataclass(frozen=True)
class WindingReport:
    winding: int
    residual: float
    min_abs: float
    closure_gap: float
    orientation: str = field(default="p traversed from -p_max to +p_max", init=False)
    index_convention: str = field(
        default="index = +winding (pinned against the Mellin quantization)", init=False
    )


def _contour(g: Union[ConeSymbolFamily, Node, str], p_max: float, n: int) -> np.ndarray:
    """det g(p) on the grid p = tan u, from one evaluation on the whole
    grid.

    A DSL string or tree is read as a point-base family. A circle-base
    fiber is diagonal in base modes up to its unitary frame, which
    leaves the determinant unchanged, so the determinant is the product
    of the mode values, with no nodal matrix formed.
    """
    u_max = math.atan(p_max)
    ps = np.tan(np.linspace(-u_max, u_max, n))
    if isinstance(g, (Node, str)):
        expr = as_node(g)
        g = ConeSymbolFamily(expr, q=shape_of(expr))
    if isinstance(g.base, Point):
        return np.linalg.det(g.value(ps))
    return np.prod(g.mode_values(ps), axis=-1)


def winding_oracle(g: Union[ConeSymbolFamily, Node, str]) -> WindingReport:
    """Accumulated argument change of det g(p) along the weight line,
    in units of 2 pi.

    The grid is tangent-spaced (p = tan u) so steps stay small near
    p = 0 and the endpoints p = +-1e6 reach far enough for the contour
    to close; its 4097 nodes are odd in number so p = 0 itself is
    sampled and zero crossings at the origin are seen directly. Both
    judgements are relative to the contour's own scale, the peak |g| on
    the grid, as `finite_section` judges null values against
    tau_coef * sigma_max: |g(+p_max) - g(-p_max)| must stay within 1e-3
    of the peak, and then min |g| at least 1e-6 of it, so a symbol
    scaled by a constant winds as it did. Closure comes first: on an
    open contour the peak is an end value, no scale for the minimum.
    The messages print the gap relative to the peak, which
    `closure_gap` also reports, and min |g| itself.
    g is a cone family, read through its determinant with its other
    arguments at 0 (pass `conormal(P)` for the tip of P), or a DSL
    string or tree, read as a family on a Point base.
    """
    vals = _contour(g, 1e6, 4097)
    mags = np.abs(vals)
    amin, peak = float(np.min(mags)), float(np.max(mags))
    closure = float(np.abs(vals[-1] - vals[0])) / peak if peak > 0.0 else 0.0
    if closure > 1e-3:
        raise FredholmError(f"contour does not close: |g(+p_max) - g(-p_max)| = {closure:.3e}")
    if not (amin > 0.0 and amin >= 1e-6 * peak):
        raise FredholmError(f"symbol passes through zero on the weight line (min |g| = {amin:.3e})")
    steps = np.angle(vals[1:] / vals[:-1])
    total = float(np.sum(steps)) / (2.0 * np.pi)
    w = int(round(total))
    residual = abs(total - w)
    if residual > 0.1:
        raise FredholmError(f"winding number is not integral (residual {residual:.3f})")
    return WindingReport(winding=w, residual=residual, min_abs=amin, closure_gap=closure)


# ---------------------------------------------------------------------------
# Tuple quantization


def extract_tuple(fam: ConeSymbolFamily) -> SymbolTuple:
    """Read the principal symbol tuple (sigma0, fam) off a generating
    family.

    The interior symbol is the family at the edge equator: r and p
    frozen to 0 with the fiber arguments renamed to the interior
    covariables (w -> v, eta -> xi). Compatibility then holds exactly,
    so extract-then-quantize round trips stay inside the ideal.
    """
    if fam.frame is not None:
        raise FredholmError("pushforward-conjugated families have no expression-level tuple")
    if not isinstance(fam.base, Point):
        raise FredholmError("tuple extraction supports point-base cone fibers only")
    zero = Const(0.0)
    s0 = substitute(fam.expr, {"r": zero, "p": zero, "w": Var("v"), "eta": Var("xi")})
    return SymbolTuple(InteriorSymbol(s0, q=fam.q), fam)


def _op_interior_on_edge(g: Edge, expr: Node, v: float) -> np.ndarray:
    """Quantize an interior symbol a(x, xi, v, r) on the edge grid:
    Kohn-Nirenberg along x, multiplication across the cone fiber."""
    circ, cone = g.circle, g.cone
    n, n_t, q = circ.n_x, cone.n_t, g.q
    k = circ.modes.astype(float)
    bindings = {"xi": k, "r": cone.r[:, None, None], "v": v}
    M = kn_assemble(
        lambda js: evaluate(expr, {**bindings, "x": circ.x[js, None]}), circ.x, k, (n_t, n, n, q, q), AxisKind.CIRCLE_X
    )  # (t, j, a, l, b)
    full = np.zeros((n, n_t, q, n, n_t, q), dtype=complex)
    idx = np.arange(n_t)
    full[:, idx, :, :, idx, :] = M
    return full.reshape(g.dim_total, g.dim_total)


def quantize_tuple(
    t: SymbolTuple,
    g: Edge,
    v: float = 0.0,
) -> DiscretizedOperator:
    """Edge operator with principal symbol tuple t, by the two-step
    construction: quantize the generating family, then correct the
    interior part inside the collar r < 1 by the difference between
    sigma0 and the interior content the family already carries at p = 0.

    The correction vanishes identically for tuples read off a family by
    extract_tuple at the equator, in the high-frequency regime; what
    remains is ideal-sized and reported through the round-trip checks.
    """
    if not isinstance(g, Edge):
        raise FredholmError("quantize_tuple targets edge geometries")
    comp = compat_check(t)
    if not comp.passed:
        raise FredholmError(
            f"tuple incompatible: equator mismatch {comp.mismatch:.3e} exceeds tolerance {comp.tol:.1e}"
        )
    fam = t.sigma1
    if fam.frame is not None:
        raise FredholmError("pushforward-conjugated families have no direct quantization")
    A = op_edge(g, fam.expr, v=v)
    r_var = Var("r")
    carried = substitute(
        fam.expr,
        {"w": mul(r_var, Var("v")), "eta": mul(r_var, Var("xi")), "p": Const(0.0)},
    )
    correction = sub(t.sigma0.expr, carried)
    C = _restrict_t_axis(_op_interior_on_edge(g, correction, v), g)
    phi = axis_layout(g, "t").spread(collar_cutoff(g, 1.0))
    M = A.matrix + (phi[:, None] * C) * phi[None, :]
    return DiscretizedOperator(g, v, M)


# ---------------------------------------------------------------------------
# Large-parameter invertibility


@dataclass(frozen=True)
class LargeParameterReport:
    v_values: tuple[float, ...]
    s_min: tuple[float, ...]
    sphere_min: Optional[float]
    elliptic_with_parameter: Optional[bool]
    passed: bool


def large_parameter_scan(g: Geometry, expr: ExprLike) -> LargeParameterReport:
    """Invertibility for large |v|: the smallest singular value along
    the parameter ladder |v| = 8, 16, 32, 64 must sit above the lower
    bound 0.5 and be non-decreasing within a 10% jitter.

    When the symbol is an interior one (x, xi, v), joint parameter
    ellipticity is verified first on the (xi, v)-sphere (16 x nodes,
    32 directions, radius 1e6, floor 1e-6) and recorded;
    families in other variables skip that precheck. A failed check is
    the report's verdict, not an exception. A symbol that is non-finite
    on the (x, sphere) grid or on the grid of a ladder operator raises
    EvalError from evaluate.
    """
    expr = as_node(expr)
    sphere_min: Optional[float] = None
    ewp: Optional[bool] = None
    if variables_of(expr) <= {"x", "xi", "v"}:
        sphere_min = _sphere_min(expr, 16, 32, 1e6)
        ewp = sphere_min >= 1e-6
    v_values = (8.0, 16.0, 32.0, 64.0)
    s_min = []
    for u in v_values:
        A = quantize(g, expr, v=float(u))
        s_min.append(float(A.singular_values()[-1]))
    ok_low = all(s >= 0.5 for s in s_min)
    ok_mono = all(s_min[i + 1] >= 0.9 * s_min[i] for i in range(len(s_min) - 1))
    return LargeParameterReport(
        v_values=v_values,
        s_min=tuple(s_min),
        sphere_min=sphere_min,
        elliptic_with_parameter=ewp,
        passed=ok_low and ok_mono and (ewp is not False),
    )
