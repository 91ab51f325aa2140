"""Quantization of symbols to dense matrices.

Kohn-Nirenberg convention throughout: the symbol is evaluated at the
output point, (A u)(x_j) = sum_k exp(i k x_j) a(x_j, k, v) u_hat(k).
On cone windows the same scheme runs in the cylinder coordinate t with
the Mellin covariable p_k = pi k / T; matrices are always expressed in
the flat (weighted) representation, so spectral norms and SVDs need no
further weighting. Interval-mode cones assemble periodically and then
restrict to the interior nodes, the t axis of their layout
(`psdo.geometry.axis_layout`); that restriction is the only place the
seam node t_0 is dropped.

Variable bindings used by every quantizer: x and xi on the circle axis,
r = exp(-t), w = v*r, eta = xi*r on cone axes, p the Mellin covariable,
v the edge parameter, t the base Fourier mode on circle-base cones
(0 on point-base ones).

This module is the only home of the Fourier phases that turn a symbol
into a matrix: `synthesis` builds every phase matrix E, `kn_assemble`
every Kohn-Nirenberg product E S F, `kn_circulant` its x-free form, and
`base_to_nodal` every conjugation of circle-base modes to nodal values.
The product has two forms, chosen by the axis kind its caller sets from
the geometry (`AxisKind`). Every axis is DFT-dual: circle x axes have
x_j = 2 pi j / n and integer modes in FFT order, and cone t axes
t_j p_k = -pi m + 2 pi j m / n, whose signs (-1)^m cancel in E F. So E F
is a function of l - j mod n, and the skew FFT needs no phase table:
row j of the product is the FFT of row j of the grid, shifted
cyclically by j places. Its phases are the FFT's own, exact to
rounding, where E's rounded products fl(x_j) k or fl(t_j) p_k carry an
error that grows with n (1.1e-13 relative at n = 1024, against 4.4e-16
for the FFT), and `synthesis` is not called. The skew takes every
interval cone's t axis (`op_mellin`, the fibers of `op_edge`, row-free
grids too: `psdo index` sections and the verify report's `sections` and
`cone-index` rows print only counts, gaps and rounded minima) and every
circle x axis with an x-dependent grid (`op_circle`, x-dependent
`op_edge`, `psdo.fredholm._op_interior_on_edge`). x-free circle grids
keep E and the matrix `_dft_matrix` (in `kn_assemble` and
`kn_circulant`), and periodic t axes and base axes keep E and E^H/n:
the canonical verify report prints those grids' assembly rounding
residues (the circle translation defect, the cone twisted-homogeneity
violation), so they move to the skew once those residues leave the
report (ROADMAP item 1a).

Memory contract: no dense assembly holds a whole symbol grid of its
own. `kn_assemble` works in one buffer P and streams the grid into it,
one block of j rows at a time, at most _BLOCK entries (2 MiB) or two
rows, whichever is more (three for one block of an odd row count;
`_row_blocks`), so besides P only one block's evaluation is live: two
blocks for a sum of x-by-xi terms (see `psdo.symexpr.evaluate`). Rows
wider than half a block occur only in the x-dependent `op_edge`, whose
blocks are fiber batches: one `_mellin_fibers` call per block of x
rows, so besides P one block's fibers and that call's own assembly are
live. A skew grid is written into P in the output's own order
(..., j, a, l, b), so P is the result and a caller's reshape to a
matrix makes no copy: one FFT along l transforms P in place after the
last block, and `_skew` shifts each (j, a) row of l b entries by j b
places through one buffer of at most one block (or one j row, if that
is wider). Periodic t axes also hold the analysis matrix F, taken from
the phases before the first block is multiplied in, and x-free circle
grids hold F (`_dft_matrix`, built after the product) and one row
block of the matmul.
Both kernels refuse a product with a non-finite entry before returning
it or handing a block on (`_require_finite`, one slice's sum at a
time): a finite symbol grid can still overflow in the sum over modes.
`kn_circulant` fills its preallocated output in blocks of j rows, so
besides the output only one block's contraction is live; handed a
consumer, it allocates no output at all and passes each block on
(`subtract_quantized` takes an x-free edge family's rows from M that
way). `_dft_matrix` transforms one identity slab at a time. Measured
under tracemalloc at a 1024^2 output: `op_circle(Circle(1024))` peaks
at 1.15x the output on an x-dependent symbol (P and one block; 1.27x
for a sum of two x-by-xi terms, 1.16x at q = 2 on Circle(512)) and at
2.25x on an x-free one (P, F, one slab and its transform), `op_mellin`
on an unbatched point cone with n_t = 1024 at 2.15x periodic (P, F and
one block) and at 2.02x interval (P and one block, then the interior
restriction's copy of 1023^2 entries while P is live), the x-dependent
`op_edge` on 16 x 64 at 1.278x (P, the fibers of two x rows and their
t-axis block; the shift buffer comes after the fibers are freed), the
x-free one at 1.19x (output, mode blocks, one block),
`psdo.fredholm._op_interior_on_edge` on 16 x 64 at 1.017x
(its output and P, 1/64 of it), and `_dft_matrix(1024)` at 1.25x. An
allocation estimate per dense matrix (ROADMAP item 7) can rely on
these multiples. Blocking and streaming keep the bits: every entry
sees the arithmetic of the one-shot product over the whole grid, and
the tests compare every call-site shape with the one-shot, unblocked
product.

The 2-D spectral norms (`spectral_norm`, `side_norm`, the translation
defect) go through one Gram kernel, `gram_norm`, under the same
contract: besides its m x m output it
holds at most two blocks, a conjugated copy of at most _BLOCK entries
of X and its diagonal Gram block. `spectral_norm` of a caller's 1024^2
matrix therefore peaks at one Gram plus two blocks, and where the
output is X's own buffer (`side_norm` on the factor it copies, the
translation defect on each commutator) at two blocks. Nothing is
copied outside numpy's allocator either: the eigenvalue step
(`psdo.blas.top_eigenvalue`, LAPACK's two-stage Hermitian solver)
works on the Gram in place, and LAPACK's own workspace is about
m (kd + 1) complex entries for its band width kd (its workspace query
gives 72,193 at m = 1024, 1.1 MiB), plus m eigenvalues. In a
fresh process an in-place 1024^2 `gram_norm` raises the peak RSS by
about 5 MiB; the `eigvalsh` fallback, used only when the solver is
missing, copies the 16 MiB Gram first. Stacked norms stay one
batched SVD (`spectral_norms`).

Where a phase table is used, operand order is fixed: the product is
np.multiply(S, E), S first (E being the phases copied into P).
Complex multiplication rounds through fused multiply-adds, so E S and
S E can differ in the last bit, most visibly on stride-0 grids (x-free,
xi-free or constant symbols). S first reproduces, bit for bit, the
einsum contractions the tests keep as oracles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from psdo.blas import narrow, top_eigenvalue
from psdo.geometry import (
    Circle,
    Cone,
    Edge,
    Geometry,
    GeometryError,
    axis_layout,
)
from psdo.symexpr import Node, evaluate, shape_of, variables_of


class QuantizeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Operator container


@dataclass
class DiscretizedOperator:
    """Dense matrix in the flat representation of a geometry.

    v is the edge-parameter value the operator was assembled at (None
    for parameter-independent constructions). The matrix dimension is
    pre * n * post of the geometry's layout; on an interval-mode cone or
    an edge over one, `interior`, the matrix is the interior-node
    restriction. x-free edge operators also keep their per-mode fiber
    blocks B_k: the matrix is U diag(B_k) U^H with U the unitary edge
    DFT, so the norm is the largest block norm. Derived operators carry
    no blocks.
    """

    geometry: Geometry
    v: Optional[float]
    matrix: np.ndarray
    _norm: Optional[float] = field(default=None, init=False, repr=False, compare=False)
    _blocks: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.matrix.shape[0]
        if self.matrix.ndim != 2 or self.matrix.shape[1] != n:
            raise QuantizeError(f"operator matrix must be square, got {self.matrix.shape}")
        lay = axis_layout(self.geometry)
        want = lay.pre * lay.n * lay.post
        if n != want:
            raise QuantizeError(f"matrix dimension {n} != geometry dimension {want}")

    @property
    def interior(self) -> bool:
        return self.dim != self.geometry.dim_total

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def norm(self) -> float:
        if self._norm is None:
            self._norm = spectral_norm(self.matrix if self._blocks is None else self._blocks)
        return self._norm

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.matrix, compute_uv=False)

    def adjoint(self) -> "DiscretizedOperator":
        return DiscretizedOperator(self.geometry, self.v, self.matrix.conj().T)


# ---------------------------------------------------------------------------
# Spectral norms


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack (..., m, n)."""
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def gram_norm(X: np.ndarray, out: np.ndarray) -> float:
    """Largest singular value of an m x n X with m <= n: sqrt(lambda_max)
    of the upper triangle of the conjugated Gram conj(X) X^T, formed in
    `out` (m x m) and read there in place by `psdo.blas.top_eigenvalue`.
    `out` may be X[:, :m] itself, which consumes X; 0.0 for a zero or
    empty X.

    The Gram is written one row block of at most _BLOCK entries of X at
    a time, first block first, and only on and above the diagonal, so
    the gemm does half the flops and a block only overwrites rows of X
    that no later block reads. Each block is copied, conjugated and
    scaled by 2^(-2e), with 2^e above the peak of |X|, before its rows
    are overwritten; the other factor is X itself, so the Gram is O(1)
    and sqrt(lambda_max) times 2^e is sigma_max to eps-relative accuracy
    (Golub & Van Loan, Matrix Computations, 8.6) for peaks up to 2^970,
    where the scaled block stays normal. A subnormal X is lifted by
    2^600 into a copy, whose Gram is formed in the copy instead.
    """
    m, n = X.shape
    rows = max(1, _BLOCK // max(n, 1))
    starts = range(0, m, rows)
    peak = max((float(np.abs(X[i : i + rows]).max(initial=0.0)) for i in starts), default=0.0)
    if peak == 0.0:
        return 0.0
    e = int(np.frexp(peak)[1])
    if e < -1021:  # subnormal peak: 2^-2e would overflow, so lift a copy
        X = X * 2.0**600
        return gram_norm(X, X[:, :m]) * 2.0**-600
    scale = 2.0**-e
    block = np.empty((min(rows, m), n), dtype=complex)
    diag = np.empty((len(block), len(block)), dtype=complex)
    for i0 in starts:
        i1 = min(i0 + rows, m)
        b = np.conjugate(X[i0:i1], out=block[: i1 - i0])
        b *= scale  # twice: 2^(-2e) itself may not be a double
        b *= scale
        d = np.matmul(b, X[i0:i1].T, out=diag[: i1 - i0, : i1 - i0])
        if i1 < m:
            np.matmul(b, X[i1:].T, out=out[i0:i1, i1:])
        out[i0:i1, i0:i1] = d
    del block, diag
    lam = top_eigenvalue(out)
    return math.sqrt(max(lam, 0.0)) / scale


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of a matrix, or of any matrix in a stack;
    0.0 for an empty stack. A matrix goes through `gram_norm` (as M^T
    when tall), with a fresh Gram of its smaller side: besides it, M
    stays untouched and at most two blocks are live. A stack takes one
    batched SVD."""
    if M.ndim == 2:
        X = M if M.shape[0] <= M.shape[1] else M.T
        return gram_norm(X, np.empty((len(X), len(X)), dtype=complex))
    return float(spectral_norms(M).max(initial=0.0))


def side_norm(M: np.ndarray, vals: np.ndarray) -> float:
    """||M diag(vals)||, using only the support of vals.

    On a support of k nodes the restricted factor is copied once, as
    the k x n rows diag(vals) M^T, and `gram_norm` forms its k x k Gram
    in that copy: besides it, at most two blocks are live.
    """
    idx = np.nonzero(np.abs(vals) > 1e-300)[0]
    if idx.size == 0:
        return 0.0
    X = M.T[idx]
    X *= vals[idx][:, None]
    return gram_norm(X, X[:, : len(idx)])


def _interior_nodes(g: Union[Cone, Edge]) -> np.ndarray:
    """Full-grid flat indices of the interior t nodes (all but the seam
    node t_0)."""
    cone = g if isinstance(g, Cone) else g.cone
    shape = (g.dim_total // cone.dim_total, cone.n_t, cone.dim_total // cone.n_t)
    return np.arange(g.dim_total).reshape(shape)[:, 1:, :].reshape(-1)


def _restrict_t_axis(A: np.ndarray, g: Union[Cone, Edge]) -> np.ndarray:
    """Matrices (..., d, d) assembled on g's full periodic grid, as
    operators on g: principal submatrices on the interior t nodes on an
    interval cone, A itself otherwise. The submatrices are copied by one
    basic slice into a fresh C-contiguous array, since callers hand the
    result to in-place kernels and a view would write through to A."""
    cone = g if isinstance(g, Cone) else g.cone
    if cone.boundary != "interval":
        return A
    pre, n, post = g.dim_total // cone.dim_total, cone.n_t, cone.dim_total // cone.n_t
    stack = A.shape[:-2]
    out = np.empty(stack + (pre * (n - 1) * post,) * 2, dtype=A.dtype)
    interior = A.reshape(stack + (pre, n, post) * 2)[..., :, 1:, :, :, 1:, :]
    out.reshape(interior.shape)[...] = interior
    return out


# ---------------------------------------------------------------------------
# Circle quantization


# complex entries in one block of a blocked product (2 MiB)
_BLOCK = 1 << 17


def _dft_matrix(n: int) -> np.ndarray:
    """F[k, j] = exp(-i k x_j)/n, modes in FFT order: the analysis matrix
    of circle x axes. Built in column blocks, each the FFT of one
    identity slab, so besides F one slab and its transform are live;
    a block is at most half of F, so the two never outgrow it."""
    Ft = np.empty((n, n), dtype=complex)
    rows = max(1, min(n // 2, _BLOCK // n))
    for j0 in range(0, n, rows):
        Ft[j0 : j0 + rows] = np.fft.fft(np.eye(min(rows, n - j0), n, j0, dtype=complex), axis=1)
    F = Ft.T
    F /= n
    return F


def synthesis(nodes: np.ndarray, covar: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Phase matrix E[j, k] = exp(i nodes_j covar_k), the one expression
    np.exp(np.multiply(1j * nodes[:, None], covar[None, :])), written
    into `out` when given."""
    # not np.outer: its float n x n temporary raises peak memory
    E = np.multiply(1j * nodes[:, None], covar[None, :], out=out)
    return np.exp(E, out=E)


def analysis_matrix(E: np.ndarray) -> np.ndarray:
    """Analysis matrix F = E^H / n of a phase table E with n node rows,
    conjugated once and divided in place: one n x n array, where
    E.conj().T / n made two, with the same ufuncs and the same bits."""
    F = np.conjugate(E).T
    F /= E.shape[0]
    return F


def _row_blocks(n: int, cap: int) -> list[slice]:
    """n rows in near-equal blocks of at most max(2, cap) rows, in order.
    A block holds at least two rows unless n is 1: one-row products
    round differently (a one-row matmul goes through gemv), so where
    cap < 3 an odd n takes one three-row block."""
    count = min(-(-n // max(2, cap)), max(1, n // 2))
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]


def _skew(P: np.ndarray) -> None:
    """Shift row j of every (j, a, l, b) block of P (..., n, a, n, b)
    cyclically by j places along l, in place: P[..., j, a, l, b] becomes
    P[..., j, a, (l - j) mod n, b].

    P is contiguous, so the (l, b) entries of one (j, a) row are one run
    of W = n b entries, and the shift moves it by j b entries. A block
    of j rows is copied twice, side by side, into one buffer of at most
    _BLOCK entries and at most P's size (one j row, if it is wider);
    row j0 + i of a block is then the window of its doubled copy that
    starts at column W - (j0 + i) b, so one strided view, whose j stride
    is b entries short of the buffer's, reads the whole block back
    shifted."""
    n, a, _, b = P.shape[-4:]
    W = n * b
    G = P.reshape(-1, n, a, W)
    unit = 2 * a * W  # one j row, doubled
    cap = max(unit, min(_BLOCK, G.size))
    rows = min(n, cap // unit)
    slabs = max(1, min(len(G), cap // (unit * rows)))
    H = np.empty((slabs, rows, a, 2 * W), dtype=complex)
    s0, s1, s2, s3 = H.strides
    for r0 in range(0, len(G), slabs):
        for j0 in range(0, n, rows):
            g = G[r0 : r0 + slabs, j0 : j0 + rows]
            h = H[: len(g), : g.shape[1]]
            h[..., :W] = g
            h[..., W:] = g
            g[...] = np.lib.stride_tricks.as_strided(
                h[..., W - j0 * b :], g.shape, (s0, s1 - b * s3, s2, s3), writeable=False
            )


def _require_finite(A: np.ndarray) -> None:
    """Refuse an assembled product with a non-finite entry. A finite
    symbol grid can still overflow in the product (a symbol near the
    largest float summed over its modes). A is read in slices along its
    first axis of about _BLOCK entries; a slice whose sum is finite has
    only finite entries, so only a slice whose sum is not (an entry, or
    the sum itself, overflowed) is tested entry by entry."""
    step = max(1, _BLOCK * len(A) // max(1, A.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(A), step):
            if not np.isfinite(A[i : i + step].sum()) and not np.isfinite(A[i : i + step]).all():
                raise QuantizeError("assembly produced a non-finite value: the Kohn-Nirenberg product overflowed")


class AxisKind(enum.Enum):
    """How `kn_assemble` analyses the axis of its nodes, set by each
    quantizer from its geometry. Every kind is DFT-dual (module
    docstring); the kinds differ only in which grids keep a phase
    table."""

    PERIODIC_T = enum.auto()  # periodic cone t axis: E and F = E^H/n
    CIRCLE_X = enum.auto()  # the skew FFT if row-dependent, else E and _dft_matrix
    INTERVAL_T = enum.auto()  # interval cone t axis: the skew FFT, row-free grids too


def kn_assemble(
    symbol: Callable[[slice], np.ndarray],
    nodes: np.ndarray,
    covar: np.ndarray,
    shape: tuple[int, ...],
    axis: AxisKind,
) -> np.ndarray:
    """Kohn-Nirenberg product sum_k E[j, k] S[..., j, k, a, b] F[k, l],
    shaped (..., j, a, l, b), with the symbol grid S of `shape` and
    E = synthesis(nodes, covar). `symbol(rows)` evaluates S on the j
    rows of a slice only, to anything that broadcasts to S[..., rows,
    :, :, :]. F is E^H/n; on a circle x axis, whose nodes are
    x_j = 2 pi j / n and whose modes are the integers m in FFT order,
    F[k, l] = exp(-i m_k x_l)/n.

    Everything happens in one buffer P, into which S is streamed: one
    block of j rows at a time (`_row_blocks`) is evaluated and written
    into the block's rows of P. A grid whose first block has stride 0
    along j does not depend on the row, so that one evaluation serves
    every row. `symbol` is dropped after the last block, so what only it
    holds is freed before the analysis step.

    The skew FFT (interval t axes, and circle x axes with an x-dependent
    grid) uses no phase table: E[j, k] F[k, l] = exp(-2 pi i m_k (l - j)
    / n) / n, so row j of the product is fft(S[j, :])/n shifted
    cyclically by j places (on a cone t axis t_j p_k = -pi m_k +
    2 pi j m_k / n, and the signs (-1)^m_k cancel in E F). P is laid
    out (..., j, a, k, b), the output's own order, and is returned
    itself: the blocks are copied into it unmultiplied, one in-place FFT
    along k analyses it, and `_skew` shifts its rows. The phases are
    exact: the FFT's twiddles replace the rounded products of E, whose
    error grows with n (about 1e-13 relative at n = 1024, against 4e-16
    here). On an interval cone P covers the whole periodic window, and
    `op_mellin`'s restriction to the interior nodes copies it: 2.02x the
    output at n_t = 1024, where the phase table's P and F took 2.15x.

    The phase table (periodic t axes, and x-free circle grids) sits in a
    P laid out (..., a, b, j, k), returned as a view in output order: E
    is written into P's first (j, k) slab and copied to the others (F is
    taken from the slab first), each block is multiplied into its rows,
    S first, and the rows take a matmul against F in row blocks written
    back into P; on x-free circle grids F is `_dft_matrix`, built once
    the last block is freed. Each entry sees the arithmetic of the
    one-shot product over the whole grid, so the bits are the same.
    These grids keep their phase tables because the canonical verify
    report prints their assembly rounding residues (the twisted
    homogeneity violation, the circle translation defect); they take
    the skew once ROADMAP item 1a moves those residues out of it.
    """
    lead, n, tail = shape[:-4], shape[-4], shape[-3:]
    blocks = _row_blocks(n, _BLOCK * n // max(1, math.prod(shape)))

    def grid(rows: slice) -> np.ndarray:
        return np.broadcast_to(symbol(rows), lead + (rows.stop - rows.start,) + tail)

    def first_block() -> tuple[list[slice], np.ndarray]:
        # the blocks to stream and the first one's grid: a grid with
        # stride 0 along j is row-free, and its first block serves every row
        S = grid(blocks[0])
        if S.strides[-4] == 0:
            return [slice(0, n)], np.broadcast_to(S[..., :1, :, :, :], shape)
        return blocks, S

    # a periodic t axis writes its phases first; the other kinds read
    # the first block first, which tells whether the grid depends on j
    S = None
    if axis is not AxisKind.PERIODIC_T:
        blocks, S = first_block()
    if axis is AxisKind.INTERVAL_T or (axis is AxisKind.CIRCLE_X and S.strides[-4] != 0):
        P = np.empty(lead + (n, shape[-2], shape[-3], shape[-1]), dtype=complex)  # (..., j, a, k, b)
        for js in blocks:
            P[..., js, :, :, :] = np.swapaxes(grid(js) if S is None else S, -3, -2)
            S = None
        symbol = None
        with np.errstate(over="ignore", invalid="ignore"):  # _require_finite reports it
            np.fft.fft(P, axis=-2, norm="forward", out=P)
        _require_finite(P)
        _skew(P)
        return P
    P = np.empty(lead + shape[-2:] + shape[-4:-2], dtype=complex)  # (..., a, b, j, k)
    slabs = P.reshape((-1,) + P.shape[-2:])
    E = synthesis(nodes, covar, out=slabs[0])
    if axis is AxisKind.PERIODIC_T:
        F = analysis_matrix(E)
    slabs[1:] = E
    if S is None:
        blocks, S = first_block()
    for js in blocks:
        if S is None:
            S = grid(js)
        Pj = P[..., js, :]
        np.multiply(np.moveaxis(S, (-2, -1), (-4, -3)), Pj, out=Pj)
        S = None
    symbol = None
    rows = P.reshape(-1, shape[-3])
    if axis is AxisKind.CIRCLE_X:
        # x-free grids keep the DFT matrix: the FFT rounds differently,
        # and the verify report prints these grids' assembly residues
        # (the circle translation defect). They join the FFT when
        # ROADMAP item 1 takes those residues out of the report.
        F = _dft_matrix(shape[-3])
    blocks = _row_blocks(len(rows), _BLOCK // shape[-3])
    out = np.empty((-(-len(rows) // len(blocks)), shape[-3]), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # _require_finite reports it
        for js in blocks:
            r = rows[js]
            r[...] = np.matmul(r, F, out=out[: len(r)])
    F = out = None  # F is P's size on t axes: freed before the check
    _require_finite(P)
    return np.moveaxis(P, (-2, -1), (-4, -2))


def kn_circulant(
    E: np.ndarray,
    B: np.ndarray,
    F: np.ndarray,
    consume: Optional[Callable[[slice, np.ndarray], None]] = None,
) -> Optional[np.ndarray]:
    """x-free Kohn-Nirenberg product sum_k E[j, k] B[..., k, a, b] F[k, l],
    shaped (..., j, a, l, b). Kept apart from kn_assemble: broadcasting
    B over j there contracts in another order and changes bits.

    The product is formed in blocks of j rows of about _BLOCK entries,
    one einsum each, so besides the output only one block's contraction
    is live. With `consume` no output is allocated: each block is
    written into one block buffer and handed to consume(rows, block)
    before the next overwrites it, and None is returned. On 1 x 1
    blocks a block of one or three j rows rounds differently from the
    whole einsum; the step gets that small only for l > 2^15.
    """
    j = E.shape[0]
    shape = B.shape[:-3] + (j,) + B.shape[-2:-1] + (F.shape[1],) + B.shape[-1:]
    step = max(1, _BLOCK * j // math.prod(shape))
    if consume is None:
        out = np.empty(shape, dtype=complex)
    else:
        out, block = None, np.empty(shape[:-4] + (min(step, j),) + shape[-3:], dtype=complex)
    for j0 in range(0, j, step):
        rows = slice(j0, min(j0 + step, j))
        dest = block[..., : rows.stop - j0, :, :, :] if out is None else out[..., rows, :, :, :]
        with np.errstate(over="ignore", invalid="ignore"):  # _require_finite reports it
            np.einsum("jk,...kab,kl->...jalb", E[rows], B, F, optimize=True, out=dest)
        _require_finite(dest)
        if out is None:
            consume(rows, dest)
    return out


def base_to_nodal(base: Circle, B: np.ndarray) -> np.ndarray:
    """Base-mode blocks B[..., k, a, b] of a circle-base cone conjugated
    to the nodal basis of the base: kn_circulant with the base DFT pair
    E and E^H/n."""
    E = synthesis(base.x, base.modes.astype(float))
    return kn_circulant(E, B, analysis_matrix(E))


def op_circle(g: Circle, expr: Node, v: Optional[float] = None) -> DiscretizedOperator:
    """Kohn-Nirenberg quantization of a(x, xi, v) on the circle."""
    q = shape_of(expr)
    if q != g.q:
        raise QuantizeError(f"symbol shape {q} != geometry fiber {g.q}")
    n = g.n_x
    k = g.modes.astype(float)
    bindings = {"xi": k[None, :]}
    if v is not None:
        bindings["v"] = v
    used = variables_of(expr)
    if "v" in used and v is None:
        raise QuantizeError("symbol depends on v but no parameter value was given")
    A = kn_assemble(
        lambda js: evaluate(expr, {**bindings, "x": g.x[js, None]}), g.x, k, (n, n, q, q), AxisKind.CIRCLE_X
    )
    return DiscretizedOperator(g, v, A.reshape(n * q, n * q))


# ---------------------------------------------------------------------------
# Mellin quantization on a cone window


def _cone_bindings(
    r: np.ndarray,
    p: np.ndarray,
    v: float,
    xi: float,
    x_value: float,
    freeze_r: bool,
    mu: Optional[np.ndarray] = None,
) -> dict:
    """Bindings of a cone family at radial values r and Mellin
    covariables p, each already shaped to broadcast."""
    return {
        "r": np.zeros_like(r) if freeze_r else r,
        "w": v * r,
        "eta": xi * r,
        "p": p,
        "v": v,
        "x": x_value,
        "t": 0.0 if mu is None else mu,
    }


def _mellin_fibers(
    cone: Cone,
    expr: Node,
    v: Union[float, np.ndarray],
    xi: Union[float, np.ndarray],
    x_value: Union[float, np.ndarray],
    freeze_r: bool,
) -> np.ndarray:
    """Periodic Mellin fiber matrices of a cone family, one per edge
    point: v, xi and x_value broadcast to a batch shape B, and the result
    is (*B, d, d) with d = cone.dim_total.

    The whole batch takes one `kn_assemble` along t, which evaluates the
    (*B[, mu], t, p) grid in blocks of t rows; a circle base is then
    conjugated back to nodal representation by its DFT, batched the same
    way. Assembly covers the periodic window whatever the cone's
    boundary mode; an interval cone's t axis takes the skew FFT
    (`AxisKind.INTERVAL_T`), a periodic one the phase table.
    """
    v, xi, x_value = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (v, xi, x_value)))
    batch = xi.shape
    n_t, q = cone.n_t, cone.q
    if isinstance(cone.base, Circle):
        n_w = cone.base.n_x
        mu = cone.base.modes.astype(float).reshape(n_w, 1, 1)
        grid: tuple[int, ...] = (n_w, n_t, n_t)
    else:
        mu, grid = None, (n_t, n_t)
    pad = (1,) * len(grid)
    v, xi, x_value = (a.reshape(batch + pad) for a in (v, xi, x_value))
    r = cone.r.reshape(n_t, 1)

    def symbol(js: slice) -> np.ndarray:
        return evaluate(expr, _cone_bindings(r[js], cone.p, v, xi, x_value, freeze_r, mu=mu))

    axis = AxisKind.INTERVAL_T if cone.boundary == "interval" else AxisKind.PERIODIC_T
    A = kn_assemble(symbol, cone.t, cone.p, batch + grid + (q, q), axis)
    if mu is not None:
        # t-axis blocks per base mode, then the base DFT across modes
        m = n_t * q
        A = base_to_nodal(cone.base, A.reshape(batch + (n_w, m, m)))
        # (*B, l, j, a, l', s, e) -> rows (j, l, a), columns (s, l', e)
        A = np.moveaxis(A.reshape(batch + (n_w, n_t, q, n_w, n_t, q)), (-6, -3), (-5, -2))
    d = cone.dim_total
    return A.reshape(batch + (d, d))


def op_mellin(
    g: Cone,
    expr: Node,
    v: float = 0.0,
    xi: float = 0.0,
    x_value: float = 0.0,
    freeze_r: bool = False,
) -> DiscretizedOperator:
    """Mellin quantization of a cone family P(x, r, w, eta, p) on the window.

    Substitutions: r -> exp(-t) on the grid (or 0 with freeze_r, keeping
    w = v r and eta = xi r live), p -> the Mellin covariable. On a
    circle-base cone the family acts diagonally in base Fourier modes,
    with the mode index bound to the variable t; the result is
    conjugated back to nodal representation by the base DFT.

    Interval-mode cones assemble periodically and restrict to interior
    nodes; the support policy is enforced softly by checking that the
    family is nearly constant in r at the two window ends.
    """
    q = shape_of(expr)
    if q != g.q:
        raise QuantizeError(f"symbol shape {q} != geometry fiber {g.q}")
    A = _mellin_fibers(g, expr, v, xi, x_value, freeze_r)
    if g.boundary == "interval":
        _check_support_policy(g, expr, v, xi, x_value, freeze_r)
    return DiscretizedOperator(g, v, _restrict_t_axis(A, g))


def _check_support_policy(g: Cone, expr: Node, v: float, xi: float, x_value: float, freeze_r: bool) -> None:
    """Interval mode requires near-constancy in r at both window ends.

    Compares the family values at the two outermost r nodes of each end;
    variation beyond 1e-2 (relative to the family sup) means the support
    touches the boundary without being constant there.
    """
    if "r" not in variables_of(expr) and "w" not in variables_of(expr) and "eta" not in variables_of(expr):
        return
    n_t = g.n_t
    mu = None
    p = g.p.reshape(-1, 1)
    if isinstance(g.base, Circle):
        mu = g.base.modes.astype(float).reshape(1, -1)
        p = g.p.reshape(-1, 1, 1)
    # one evaluate over the four nodes: the two ends, then their neighbours
    r = g.r[[0, n_t - 1, 1, n_t - 2]].reshape((4,) + (1,) * p.ndim)
    vals = evaluate(expr, _cone_bindings(r, p, v, xi, x_value, freeze_r, mu))
    sup = float(np.max(np.abs(vals[:2]))) or 1.0
    if float(np.max(np.abs(vals[2:] - vals[:2]))) > 1e-2 * sup:
        raise QuantizeError("interval mode: family is not constant in r near the window boundary (support policy)")


# ---------------------------------------------------------------------------
# Edge quantization


def op_edge(g: Edge, expr: Node, v: float = 0.0, freeze_r: bool = False) -> DiscretizedOperator:
    """Quantize an edge family: one cone fiber per edge Fourier mode
    xi_k (with eta = r xi_k, w = r v), mixed along x by KN quantization.

    x-independent families produce block-circulant operators that are
    exactly block diagonal in edge modes; the operator keeps those mode
    blocks for its norm. Fibers are assembled on the periodic window
    whatever the cone's boundary mode; an interval cone restricts the
    result to interior nodes, with no support-policy check.
    """
    q = shape_of(expr)
    if q != g.q:
        raise QuantizeError(f"symbol shape {q} != geometry fiber {g.q}")
    cone, circ = g.cone, g.circle
    if "x" in variables_of(expr):
        # one fiber per (output x, mode) pair, batched per block of x rows
        n, d, xi = circ.n_x, cone.dim_total, circ.modes.astype(float)
        A = kn_assemble(
            lambda js: _mellin_fibers(cone, expr, v, xi[None, :], circ.x[js, None], freeze_r),
            circ.x,
            xi,
            (n, n, d, d),
            AxisKind.CIRCLE_X,
        )
        mode_blocks = None
    else:
        mode_blocks, A = _edge_circulant(g, expr, v, freeze_r)
    A = _restrict_t_axis(A.reshape(g.dim_total, g.dim_total), g)
    if mode_blocks is not None:
        mode_blocks = _restrict_t_axis(mode_blocks, cone)
    return DiscretizedOperator(g, v, A, _blocks=mode_blocks)


def _edge_blocks(g: Edge, expr: Node, v: float, freeze_r: bool) -> np.ndarray:
    """Periodic mode blocks of an x-free edge family, one cone fiber per
    edge mode."""
    return _mellin_fibers(g.cone, expr, v, g.circle.modes.astype(float), 0.0, freeze_r)


def _edge_circulant(
    g: Edge, expr: Node, v: float, freeze_r: bool, consume: Optional[Callable[[slice, np.ndarray], None]] = None
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Mode blocks of an x-free edge family (`_edge_blocks`) and their
    block-circulant product (`kn_circulant`, which hands its row blocks
    to `consume` instead when it is given)."""
    circ = g.circle
    B = _edge_blocks(g, expr, v, freeze_r)
    return B, kn_circulant(synthesis(circ.x, circ.modes.astype(float)), B, _dft_matrix(circ.n_x), consume)


def _x_free_edge(g: Geometry, expr: Node) -> bool:
    """Whether `quantize` takes expr on g as an x-free edge family, one
    that keeps its mode blocks."""
    return isinstance(g, Edge) and "x" not in variables_of(expr) and shape_of(expr) == g.q


def quantize(g: Geometry, expr: Node, v: Optional[float] = None, freeze_r: bool = False) -> DiscretizedOperator:
    """Geometry-dispatching quantizer, run on one OpenBLAS thread
    (`psdo.blas.narrow`; inside a command, whose scope is already open,
    it sets nothing)."""
    with narrow():
        if isinstance(g, Circle):
            return op_circle(g, expr, v)
        if isinstance(g, Cone):
            return op_mellin(g, expr, v=0.0 if v is None else v, freeze_r=freeze_r)
        if isinstance(g, Edge):
            return op_edge(g, expr, v=0.0 if v is None else v, freeze_r=freeze_r)
        raise GeometryError(f"cannot quantize on {type(g).__name__}")


def quantized_norm(g: Geometry, expr: Node, v: Optional[float] = None, freeze_r: bool = False) -> float:
    """quantize(g, expr, v, freeze_r).norm(), bit for bit. An x-free edge
    family's norm reads only its mode blocks, so only those are
    assembled (`_edge_blocks`, restricted to the interior nodes on an
    interval cone); any other family is quantized whole."""
    if not _x_free_edge(g, expr):
        return quantize(g, expr, v, freeze_r).norm()
    return spectral_norm(_restrict_t_axis(_edge_blocks(g, expr, 0.0 if v is None else v, freeze_r), g.cone))


def subtract_quantized(
    M: np.ndarray, g: Geometry, expr: Node, v: Optional[float] = None, freeze_r: bool = False
) -> np.ndarray:
    """M - quantize(g, expr, v, freeze_r).matrix, formed in M's buffer
    and returned.

    An x-free edge family is never held whole: `kn_circulant` hands each
    block of j rows of its periodic product to a consumer that subtracts
    them from M's rows (on an interval cone, their interior rows and
    columns), so besides M only the mode blocks and one block's
    contraction are live. Any other family is quantized whole first;
    so is a family of the wrong shape, whose `quantize` raises."""
    if not _x_free_edge(g, expr):
        return np.subtract(M, quantize(g, expr, v, freeze_r).matrix, out=M)
    keep = _interior_nodes(g) if g.cone.boundary == "interval" else np.arange(g.dim_total)
    if M.shape != (len(keep), len(keep)):
        raise QuantizeError(f"matrix shape {M.shape} != operator shape {(len(keep), len(keep))}")
    d = g.cone.dim_total

    def consume(js: slice, block: np.ndarray) -> None:
        f0 = js.start * d
        r0, r1 = np.searchsorted(keep, (f0, js.stop * d))
        rows = block.reshape(-1, g.dim_total)
        M[r0:r1] -= rows if len(keep) == g.dim_total else rows[np.ix_(keep[r0:r1] - f0, keep)]

    _edge_circulant(g, expr, 0.0 if v is None else v, freeze_r, consume)
    return M


# ---------------------------------------------------------------------------
# Parameter-dependent families


@dataclass
class NegligibleVerdict:
    """Result of testing sup_v ||D(v)|| (1+|v|)^N <= tau on a sample ladder."""

    order: int
    tau: float
    v_values: tuple[float, ...]
    norms: tuple[float, ...]
    sup_weighted: float
    accepted: bool


def negligible_test(
    build: Callable[[float], DiscretizedOperator],
    order: int,
    v_values: Sequence[float],
) -> NegligibleVerdict:
    """Decide whether a parameter family decays like (1+|v|)^-order:
    sup_v ||D(v)|| (1+|v|)^order <= tau = 50 over the samples v_values.

    `build` is a callable v -> operator. At least three parameter
    samples are required.
    """
    tau = 50.0
    vs = tuple(float(u) for u in v_values)
    if len(vs) < 3:
        raise QuantizeError("negligibility needs at least 3 parameter samples")
    norms = tuple(build(u).norm() for u in vs)
    sup_w = max(nm * (1.0 + abs(u)) ** order for u, nm in zip(vs, norms))
    return NegligibleVerdict(
        order=order,
        tau=tau,
        v_values=vs,
        norms=norms,
        sup_weighted=sup_w,
        accepted=bool(sup_w <= tau),
    )
