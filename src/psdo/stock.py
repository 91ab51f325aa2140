"""Frozen instance catalogs for the verification suites.

Every named battery in the verifier draws its instances from here, so
the CLI, the tests, and any interactive exploration all exercise the
same operators. Constructions are deterministic; the randomized
partition instances take an explicit seed.

The cone instances share one section ladder convention: step h_t is
held at SECTION_STEP while the window grows with the section size,
T = h_t n_t / 2, so refining the section extends the cylinder instead
of crowding the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from psdo.fredholm import SECTION_STEP, interval_section
from psdo.geometry import Circle, Cone, Edge, Point
from psdo.localization import LocalFamily
from psdo.quantize import DiscretizedOperator, op_circle
from psdo.symbols import ConeSymbolFamily, EdgeSymbol
from psdo.symexpr import Const, Node, parse, substitute

__all__ = [
    "SECTION_STEP",
    "SectionInstance",
    "IndexInstance",
    "PartitionInstance",
    "homogeneity_stock",
    "elliptic_stock",
    "degenerate_stock",
    "index_stock",
    "toeplitz_shift",
    "partition_stock",
    "negligible_stock",
    "negligible_v_values",
    "infinitesimal_stock",
    "parameter_family",
    "GLUING_COUNTS",
    "gluing_expr",
    "gluing_families",
]

CAYLEY = "(p - (0,1)) / (p + (0,1))"
MIRROR = "(p + (0,1)) / (p - (0,1))"


@dataclass(frozen=True)
class SectionInstance:
    """A cone family with its section builder."""

    name: str
    family: ConeSymbolFamily

    def build(self, n_t: int) -> DiscretizedOperator:
        return interval_section(self.family.expr, SECTION_STEP, n_t, self.family.base, self.family.q)


@dataclass(frozen=True)
class IndexInstance:
    """Affine interpolation 1 + (g - 1)/(1 + r) toward a tip factor g.

    The conormal symbol at the tip is g itself, so the winding oracle
    applies to `tip` directly. tau_coef is the artifact threshold the
    section ladder needs to separate the exponentially decaying
    near-null tail from the genuine kernel; the slower the tail decays,
    the larger the coefficient.
    """

    name: str
    tip: str
    sizes: tuple[int, ...]
    tau_coef: float

    @property
    def expr(self) -> Node:
        return parse(f"1 + (1 / (1 + r)) * (({self.tip}) - 1)")

    def build(self, n_t: int) -> DiscretizedOperator:
        return interval_section(self.expr, SECTION_STEP, n_t)


@dataclass(frozen=True)
class PartitionInstance:
    functions: tuple[np.ndarray, ...]
    operators: tuple[DiscretizedOperator, ...]
    kind: str


def homogeneity_stock() -> tuple[EdgeSymbol, ...]:
    """Five edge symbols exact under the grid dilations.

    Pure p-factors commute with the dilation action identically; the
    wedge profiles are two-sided with equal limits at 0 and infinity
    and fourth-order approach, so the seam mismatch on the periodic
    window sits at the e^{-4(T - k h_t)} level, far below tolerance.
    First-order profiles would leak at e^{-2(T - k h_t)} ~ 1e-8.
    """
    specs = [
        (CAYLEY, 1),
        ("1 + eta^4 / (1 + eta^8)", 1),
        ("1 + w^4 / (1 + w^8)", 1),
        (f"({CAYLEY}) * (2 + w^4 / (1 + w^8))", 1),
        (f"[[{CAYLEY}, eta^4 / (1 + eta^8)], [0, 1 + w^4 / (1 + w^8)]]", 2),
    ]
    out = []
    for expr, q in specs:
        fam = ConeSymbolFamily(parse(expr), q=q)
        cone = Cone(Point(), T=12.0, n_t=64, boundary="periodic", q=q)
        out.append(EdgeSymbol(fam, cone))
    return tuple(out)


def elliptic_stock() -> tuple[SectionInstance, ...]:
    """Five invertible cone families, windings all zero."""
    specs = [
        ("cayley-shift", f"{CAYLEY} + 2", 1),
        ("lorentz", "2 + 1 / (1 + p^2)", 1),
        ("chi-shift", "3 + chi(p)", 1),
        (
            "triangular",
            f"[[{CAYLEY} + 2, 0.2 / (1 + p^2)], [0, 2 + 1 / (1 + p^2)]]",
            2,
        ),
        ("r-perturbed", "2 + 1 / (1 + p^2) + 0.2 * r / (1 + r)", 1),
    ]
    return tuple(SectionInstance(name, ConeSymbolFamily(parse(expr), q=q)) for name, expr, q in specs)


def degenerate_stock() -> tuple[SectionInstance, ...]:
    """Three families with interior conormal zeros.

    Each Blaschke-type factor carries a zero of the stated order at an
    interior point of the weight line; the small slope coefficients
    keep the zero narrow so section minima keep falling as the window
    grows instead of stabilizing.
    """
    specs = [
        ("order2-right", "(0.2*(p - 2) / (0.2*(p - 2) + (0,1)))^2"),
        ("order2-left", "(0.15*(p + 3) / (0.15*(p + 3) + (0,1)))^2"),
        ("order3", "(0.25*(p - 1) / (0.25*(p - 1) + (0,1)))^3"),
    ]
    return tuple(SectionInstance(name, ConeSymbolFamily(parse(expr))) for name, expr in specs)


def index_stock() -> tuple[IndexInstance, ...]:
    """Windings +1, -1, +2 against the pinned orientation.

    The squared factor's second near-null vector decays more slowly in
    the window, so it needs both the larger threshold and sections
    starting at 128.
    """
    return (
        IndexInstance("cayley", CAYLEY, (64, 128, 256), 1e-4),
        IndexInstance("mirror", MIRROR, (64, 128, 256), 1e-4),
        IndexInstance("cayley-squared", f"({CAYLEY})^2", (128, 256), 1e-3),
    )


# Heaviside step on integer modes, exactly 1 for xi >= 0 and 0 below: no
# quotient but a halving, since complex division multiplies by a rounded reciprocal
TOEPLITZ_STEP = "(abs(xi + 1) - abs(xi) + 1) / 2"


def toeplitz_shift(n: int) -> DiscretizedOperator:
    """exp(ix) P_+ + P_- on circle modes: the classical index -1 stock,
    quantized from its symbol exp(ix) H(xi) + 1 - H(xi)."""
    H = f"({TOEPLITZ_STEP})"
    return op_circle(Circle(n), parse(f"exp((0,1)*x)*{H} + 1 - {H}"))


def partition_stock(seed: int = 0, count: int = 100) -> Iterator[PartitionInstance]:
    """Randomized instances on which the partition norm bound is exact
    or provably dominated: diagonal multiplier tuples and nonnegative
    multiples of one common unitary.

    Both classes satisfy the bound pointwise, so violations beyond
    floating-point noise indicate a broken restricted norm, not a bad
    draw.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.choice((16, 24, 32)))
        m = int(rng.integers(2, 5))
        g = Circle(n)
        fs = tuple(rng.random(n) * rng.uniform(0.2, 2.0) for _ in range(m))
        if rng.random() < 0.5:
            ops = tuple(
                DiscretizedOperator(
                    g, None, np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
                )
                for _ in range(m)
            )
            kind = "multiplier"
        else:
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            u, _ = np.linalg.qr(z)
            ops = tuple(
                DiscretizedOperator(g, None, float(rng.uniform(0.1, 3.0)) * u)
                for _ in range(m)
            )
            kind = "unitary"
        yield PartitionInstance(fs, ops, kind)


def negligible_stock() -> tuple[Callable[[float], DiscretizedOperator], Callable[[float], DiscretizedOperator]]:
    """(smoothing family, identity family) on Circle(32).

    The smoothing family decays like (1 + v^2)^-2, so its weighted
    norms stay bounded through order 4; the identity family has
    constant norm 1 and fails any positive order once |v| clears 2.
    """
    g = Circle(32)
    smooth = parse("(2 + cos(x)) * chi(xi) / (1 + v^2)^2")
    ident = parse("1 + 0*v")

    def smoothing(v: float) -> DiscretizedOperator:
        return op_circle(g, smooth, float(v))

    def identity(v: float) -> DiscretizedOperator:
        return op_circle(g, ident, float(v))

    return smoothing, identity


def negligible_v_values(seed: int = 0) -> tuple[float, ...]:
    """0 and four seeded parameter draws for the negligibility verdicts.

    Magnitudes stay in [2, 64]: large enough that the identity family
    is rejected at order 4 for every draw, small enough that the stock
    smoothing family is always accepted, so verdicts are seed-stable
    by construction.
    """
    rng = np.random.default_rng(seed)
    mags = rng.uniform(2.0, 64.0, size=4)
    signs = rng.choice((-1.0, 1.0), size=4)
    return (0.0,) + tuple(sorted(float(s * m) for s, m in zip(signs, mags)))


def infinitesimal_stock() -> tuple[tuple[object, Node, float], ...]:
    """(geometry, family, stratum point) triples for the freezing
    diagnostics, one per model geometry.

    The collar floor of the cutoff ladder is exp(-T + 3 h_t), so the
    cone and edge windows are sized to push that below the 1e-3
    convergence tolerance.
    """
    return (
        (Circle(256), parse("chi(xi) + (1 - cos(x))^2"), 0.0),
        (
            Cone(Point(), T=8.0, n_t=64),
            parse("chi(p) + r / (1 + r)"),
            0.0,
        ),
        (
            Edge(Circle(16), Cone(Point(), T=8.0, n_t=64)),
            parse("chi(p) + r / (1 + r) + 0.1 * (1 - cos(x))^2 * chi(eta)"),
            0.0,
        ),
    )


def parameter_family() -> tuple[Circle, Node]:
    """Elliptic-with-parameter multiplier for the large-|v| scan."""
    return Circle(64), parse("(xi^2 + v^2 + 1) / (xi^2 + v^2 + 2)")


GLUING_COUNTS = {0.5: 8, 0.25: 16, 0.125: 32}


def gluing_expr() -> Node:
    return parse("2 + 0.2 * sin(x) * chi(xi)")


def gluing_families(eps_values: Sequence[float] = tuple(GLUING_COUNTS)) -> dict[float, LocalFamily]:
    """Frozen-coefficient representatives of the gluing stock symbol at
    equispaced centers on Circle(64), one family per eps; center count
    doubles as eps halves.

    The center sets are nested (2 pi i/8 is 2 pi (4 i)/32 exactly in
    floating point), so each operator is built once, on the finest
    requested set, and the coarser families share it.
    """
    for eps in eps_values:
        if eps not in GLUING_COUNTS:
            raise KeyError(f"no stock center count for eps = {eps}")
    g = Circle(64)
    expr = gluing_expr()
    n_max = max(GLUING_COUNTS[eps] for eps in eps_values)
    centers = [2.0 * np.pi * i / n_max for i in range(n_max)]
    ops = [op_circle(g, substitute(expr, {"x": Const(c)})) for c in centers]
    steps = {eps: n_max // GLUING_COUNTS[eps] for eps in eps_values}
    return {eps: LocalFamily(g, centers[::step], ops[::step]) for eps, step in steps.items()}
