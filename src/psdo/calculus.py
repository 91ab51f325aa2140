"""Operator calculus: composition expansions, symbol extraction and
infinitesimal (frozen) operators.

Composition follows the standard asymptotic product: the xi-derivatives
fall on the left factor (the operator applied second), the x-derivatives
on the right factor, and the remainder is measured against
frequency-localized probes because the underlying estimate is a per-xi
statement. Extraction inverts quantization for translation-invariant
operators by conjugating with the axis DFT; anything with off-diagonal
mass raises NotTranslationInvariant rather than returning a pretend
symbol. Freezing is a symbol-level substitution, with operator-level
diagnostics along one fixed dyadic cutoff ladder (x-scales from pi/2,
collar radii from r = 1) confirming the localization estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from psdo.geometry import (
    Circle,
    Cone,
    Edge,
    Geometry,
    axis_layout,
    collar_cutoff,
    cutoff_family,
)
from psdo.quantize import (
    _BLOCK,
    DiscretizedOperator,
    analysis_matrix,
    gram_norm,
    op_circle,
    quantize,
    quantized_norm,
    side_norm,
    spectral_norm,
    subtract_quantized,
    synthesis,
)
from psdo.symexpr import Const, ExprLike, Node, add, as_node, diff, mul, substitute

__all__ = [
    "CalculusError",
    "NotTranslationInvariant",
    "CompositionResult",
    "compose_symbols",
    "ExtractedSymbol",
    "extract_symbol",
    "probe_symbol",
    "ConvergenceDiagnostics",
    "InfinitesimalOperator",
    "infinitesimal",
]


class CalculusError(ValueError):
    pass


class NotTranslationInvariant(CalculusError):
    def __init__(self, max_offdiag: float, norm: float):
        self.max_offdiag = max_offdiag
        self.norm = norm
        super().__init__(
            f"operator is not translation invariant: max off-diagonal block norm "
            f"{max_offdiag:.3e} against operator norm {norm:.3e}"
        )


# ---------------------------------------------------------------------------
# Composition


@dataclass(frozen=True)
class CompositionResult:
    expansion: Node
    xi_samples: tuple[float, ...]
    remainder_norms: tuple[float, ...]
    fitted_exponent: float


def _gaussian_probe(g: Circle, xi0: float) -> np.ndarray:
    """Unit-norm probe concentrated at frequency xi0: a modulated
    Gaussian window of width 0.4 (seam value ~ 4e-14)."""
    u = np.exp(1j * xi0 * g.x) * np.exp(-((g.x - np.pi) ** 2) / (2.0 * 0.4**2))
    return u / np.linalg.norm(u)


def compose_symbols(left: ExprLike, right: ExprLike, n_terms: int) -> CompositionResult:
    """Asymptotic product of two circle symbols, truncated at n_terms.

    H = sum_{g < n_terms} (-i)^g/g! (d_xi^g left)(d_x^g right), and the
    remainder op(left) op(right) - op(H) is measured on Circle(256), on
    Gaussian probes centered at xi = 8, 16, 32 and 64. The fitted
    exponent is the log-log slope of those norms.
    """
    if not 1 <= n_terms <= 6:
        raise CalculusError(f"truncation order must be in 1..6, got {n_terms}")
    left, right = as_node(left), as_node(right)
    expansion: Optional[Node] = None
    d_left, d_right = left, right
    for gamma in range(n_terms):
        coef = (-1j) ** gamma / math.factorial(gamma)
        term = mul(d_left, d_right)
        if gamma > 0:
            term = mul(Const(coef), term)
        expansion = term if expansion is None else add(expansion, term)
        if gamma + 1 < n_terms:
            d_left = diff(d_left, "xi")
            d_right = diff(d_right, "x")
    xi_samples = (8.0, 16.0, 32.0, 64.0)
    circle = Circle(256)
    R = (
        op_circle(circle, left).matrix @ op_circle(circle, right).matrix
        - op_circle(circle, expansion).matrix
    )
    norms = tuple(
        float(np.linalg.norm(R @ _probe_block(circle, xi0))) for xi0 in xi_samples
    )
    logs = np.log(np.maximum(norms, 1e-300))
    slope = float(np.polyfit(np.log(np.asarray(xi_samples, dtype=float)), logs, 1)[0])
    return CompositionResult(expansion, tuple(float(s) for s in xi_samples), norms, slope)


def _probe_block(g: Circle, xi0: float) -> np.ndarray:
    u = _gaussian_probe(g, xi0)
    if g.q == 1:
        return u
    return np.kron(u, np.eye(g.q)[0])


# ---------------------------------------------------------------------------
# Symbol extraction


@dataclass
class ExtractedSymbol:
    """Per-mode diagonal blocks of a translation-invariant operator."""

    axis: str
    modes: np.ndarray
    blocks: np.ndarray  # (n_modes, d, d)
    max_offdiag: float
    esssup_gap: float


def extract_symbol(A: DiscretizedOperator) -> ExtractedSymbol:
    """Conjugate by the DFT of the geometry's default axis (t on a cone,
    x otherwise) and read off the diagonal blocks.

    For an operator commuting with the axis translations the conjugated
    matrix is exactly block diagonal and the blocks are the symbol
    values B(xi_k); the esssup identity sup_k ||B(xi_k)|| = ||A|| then
    holds to rounding. Off-diagonal mass beyond 1e-8 (relative to ||A||)
    raises NotTranslationInvariant, which carries the off-diagonal
    maximum.
    """
    if A.interior:
        raise CalculusError("interval-mode operators have no periodic axis to extract along")
    lay = axis_layout(A.geometry)
    pre, n, post, covar = lay.pre, lay.n, lay.post, lay.covar
    iF = synthesis(lay.nodes, covar)
    F = analysis_matrix(iF)
    d = pre * post
    M = A.matrix.reshape(pre, n, post, pre, n, post)
    D = np.einsum("kj,ajbcld,lm->akbcmd", F, M, iF, optimize=True)
    # regroup as (mode, mode, block, block) with block = pre x post
    D = D.transpose(1, 4, 0, 2, 3, 5).reshape(n, n, d, d)
    norm_A = A.norm()
    off = spectral_norm(D[~np.eye(n, dtype=bool)])
    if off > 1e-8 * max(norm_A, 1e-300):
        raise NotTranslationInvariant(off, norm_A)
    blocks = np.ascontiguousarray(D[np.arange(n), np.arange(n)])
    esssup = spectral_norm(blocks)
    return ExtractedSymbol(lay.name, covar.copy(), blocks, off, abs(esssup - norm_A))


def probe_symbol(A: DiscretizedOperator, x0: float, k: int) -> complex:
    """Estimate the symbol value a(x0, k) as the Rayleigh quotient of A
    on a coherent wave packet centered at (x0, k).

    DFT extraction is exact for translation-invariant operators but has
    no x resolution; the wave packet trades exactness for locality. Its
    width ~ N^(-1/2) balances position against mode spread, so for
    symbols varying on the mode scale ~N the estimate converges at rate
    1/N with constants set by the second derivatives.
    """
    g = A.geometry
    if not isinstance(g, Circle) or g.q != 1:
        raise CalculusError("coherent probes are defined on scalar circle grids")
    sigma = math.sqrt(2.0 * math.pi / g.n_x)
    d = np.angle(np.exp(1j * (g.x - x0)))
    u = np.exp(1j * k * g.x - d**2 / (2.0 * sigma**2))
    return complex(np.vdot(u, A.matrix @ u) / np.vdot(u, u))


# ---------------------------------------------------------------------------
# Infinitesimal operators


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    lambdas: tuple[float, ...]
    d_right: tuple[float, ...]  # ||(A - A_z) Phi_lambda||
    final: float
    non_increasing: bool  # within 10% jitter
    converged: bool
    tol: float


@dataclass
class InfinitesimalOperator:
    """Frozen-coefficient local representative of an operator at a point
    of its stratum, with the cutoff-ladder diagnostics that certify the
    freezing. `source_norm` is the spectral norm of the unfrozen
    operator the ladder compared it against; neither operator is kept.
    The frozen operator `operator` is assembled from `frozen_expr` on
    first read, so the ladder never holds it beside the difference it
    measures, and `norm()` is its norm, read from the mode blocks alone
    where it has them."""

    geometry: Geometry
    frozen_expr: Node
    v: float
    diagnostics: ConvergenceDiagnostics
    source_norm: float

    @cached_property
    def operator(self) -> DiscretizedOperator:
        return quantize(self.geometry, self.frozen_expr, v=self.v, freeze_r=True)

    def norm(self) -> float:
        """`operator.norm()`, bit for bit; on an x-free edge only the mode
        blocks are assembled (`psdo.quantize.quantized_norm`)."""
        return quantized_norm(self.geometry, self.frozen_expr, v=self.v, freeze_r=True)

    def translation_defect(self) -> float:
        """Worst commutator norm with the stratum translations by 1 and 3
        x nodes. Each commutator is formed in a fresh assembly of the
        frozen operator, and its Gram in the same buffer, so one
        operator-sized array is live at a time.

        The stratum of a cone vertex is a point, so the defect is zero
        by convention there.
        """
        g = self.geometry
        if isinstance(g, Cone):
            return 0.0
        n_x = axis_layout(g, "x").n
        worst = 0.0
        for s in (1, 3):
            D = quantize(g, self.frozen_expr, v=self.v, freeze_r=True).matrix
            _shift_commutator_in_place(D, n_x, s)
            worst = max(worst, gram_norm(D, out=D))
            del D  # freed before the next assembly
        return worst


def _shift_commutator_in_place(M: np.ndarray, n_x: int, steps: int) -> None:
    """T M - M T, written into M, for T the circular shift by `steps` x
    nodes acting on whole fibers: entry (i, j) becomes M[i - s, j] -
    M[i, j + s], indices mod n, for a shift of s = steps n / n_x rows.
    Row blocks are written bottom up through one block buffer, so every
    row is read before it is overwritten, except the s bottom rows that
    the top rows read: those are saved first."""
    n = M.shape[0]
    s = steps * (n // n_x) % n
    bottom = M[n - s :].copy()
    rows = max(1, _BLOCK // n)
    buf = np.empty((min(rows, n), n), dtype=complex)
    for lo, hi in ((s, n), (0, s)):
        for i1 in range(hi, lo, -rows):
            i0 = max(lo, i1 - rows)
            above, d = (M[i0 - s : i1 - s] if i0 >= s else bottom[i0:i1]), buf[: i1 - i0]
            np.subtract(above[:, : n - s], M[i0:i1, s:], out=d[:, : n - s])
            np.subtract(above[:, n - s :], M[i0:i1, :s], out=d[:, n - s :])
            M[i0:i1] = d


def _feasible_scales(base: float, h: float) -> int:
    """Rungs of a dyadic family starting at base whose smallest scale
    still spans 3 grid steps."""
    if base < 3.0 * h:
        return 0
    return int(np.floor(np.log2(base / (3.0 * h)))) + 1


def _cutoff_ladder(g: Geometry, z: float) -> tuple[tuple[float, ...], list[np.ndarray]]:
    """Dyadic localization ladder: x-cutoffs of base scale pi/2 around z
    on circle strata, collar cutoffs from r = 1 toward the tip on cones,
    their product on edges.
    Returns (lambda values, flat diagonal value vectors in the layout of
    g's operators). Ladders run as deep as the grid resolves, at most 16
    rungs on cones and edges; on edges the x-window holds at its
    smallest resolvable scale while the collar keeps shrinking.
    """
    lambdas: list[float] = []
    diags: list[np.ndarray] = []
    if isinstance(g, Circle):
        m = _feasible_scales(np.pi / 2.0, g.h_x)
        if m < 2:
            raise CalculusError("grid too coarse for a localization ladder")
        fam = cutoff_family(g, z, m, np.pi / 2.0)
        for i in range(len(fam)):
            lambdas.append(2.0**i)
            diags.append(axis_layout(g, "x").spread(fam[i]))
    elif isinstance(g, Cone):
        r_floor = float(np.exp(-g.T + 3.0 * g.h_t))  # collar support must stay on the grid
        for i in range(16):
            r1 = 1.0 / 2.0**i
            if r1 < r_floor:
                break
            lambdas.append(2.0**i)
            diags.append(axis_layout(g, "t").spread(collar_cutoff(g, r1)))
    elif isinstance(g, Edge):
        kx = _feasible_scales(np.pi / 2.0, g.circle.h_x)
        fam = cutoff_family(g.circle, z, kx, np.pi / 2.0) if kx >= 1 else None
        cone = g.cone
        r_floor = float(np.exp(-cone.T + 3.0 * cone.h_t))
        x_lay, t_lay = axis_layout(g, "x"), axis_layout(g, "t")
        for i in range(16):
            r1 = 1.0 / 2.0**i
            if r1 < r_floor:
                break
            phi_x = fam[min(i, kx - 1)] if fam is not None else np.ones(g.circle.n_x)
            vals = x_lay.spread(phi_x) * t_lay.spread(collar_cutoff(g, r1))
            lambdas.append(2.0**i)
            diags.append(vals)
    else:
        raise CalculusError(f"no localization ladder on {type(g).__name__}")
    if len(diags) < 2:
        raise CalculusError("grid too coarse for a localization ladder")
    return tuple(lambdas), diags


def infinitesimal(
    g: Geometry,
    expr: ExprLike,
    z: float = 0.0,
    v: float = 0.0,
) -> InfinitesimalOperator:
    """Infinitesimal operator at a stratum point z.

    Freezing happens at the symbol level: x goes to z, and on cone and
    edge geometries the coefficient r-slot goes to 0 while the operator
    arguments w = r v and eta = r xi stay live. The diagnostics sequence
    d_lambda = ||(A - A_z) Phi_lambda|| over the shrinking cutoff ladder
    must be non-increasing (10% jitter allowed) and end below 1e-3;
    failure is reported in the diagnostics, not raised.

    One operator-sized array is live at a time. The unfrozen operator A
    is measured first: when its norm reads the matrix (it has no mode
    blocks), the Gram is formed in A's own buffer and A is assembled
    again. A - A_z is then formed in A's buffer
    (`psdo.quantize.subtract_quantized`, which streams an x-free edge
    family's rows), and the frozen operator is assembled only when
    `InfinitesimalOperator.operator` is first read.
    """
    expr = as_node(expr)
    frozen_expr = substitute(expr, {"x": Const(float(z))})
    A = quantize(g, expr, v=v)
    if A._blocks is None:
        source_norm = gram_norm(A.matrix, out=A.matrix)
        del A  # the Gram's buffer goes before A is assembled again
        A = quantize(g, expr, v=v)
    else:
        source_norm = A.norm()
    Dm = subtract_quantized(A.matrix, g, frozen_expr, v=v, freeze_r=True)
    lambdas, diags = _cutoff_ladder(g, z)
    d_right = tuple(side_norm(Dm, w) for w in diags)
    non_inc = all(d_right[i + 1] <= 1.1 * d_right[i] + 1e-14 for i in range(len(d_right) - 1))
    final = d_right[-1]
    diag = ConvergenceDiagnostics(lambdas, d_right, final, non_inc, bool(final <= 1e-3), 1e-3)
    return InfinitesimalOperator(g, frozen_expr, float(v), diag, source_norm)

