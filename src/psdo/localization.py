"""Desk-scale verification of the abstract localization principle:
local norms along shrinking cutoffs, continuity of center-indexed
operator families, gluing through partitions of unity and the partition
norm bound.

Everything runs along the default axis of the geometry (t on a cone,
x otherwise). Restricted norms follow the column convention: ||B||_Q is
the norm of B applied to vectors supported in the node set Q.
Neighborhoods are fitted just above the cover floor, so they cover the
axis (a partition of unity subordinate to them exists); families that
need finer center sets at small eps fail honestly instead of passing
vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from psdo.geometry import Geometry, axis_layout, cutoff_family, plateau_profile
from psdo.quantize import DiscretizedOperator, side_norm

__all__ = [
    "LocalizationError",
    "LocalFamily",
    "PartitionOfUnity",
    "partition_of_unity",
    "LocalNormReport",
    "local_norm",
    "ContinuityReport",
    "continuity_check",
    "glue",
    "PartitionBoundReport",
    "partition_bound_check",
]


class LocalizationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Families and partitions


@dataclass(frozen=True)
class LocalFamily:
    """Finite center set with one representative operator per center,
    every representative on the family's geometry."""

    geometry: Geometry
    centers: tuple[float, ...]
    operators: tuple[DiscretizedOperator, ...]

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(float(c) for c in self.centers))
        object.__setattr__(self, "operators", tuple(self.operators))
        if len(self.centers) != len(self.operators):
            raise LocalizationError("one representative operator per center")
        if len(self.centers) == 0:
            raise LocalizationError("a local family needs at least one center")
        for op in self.operators:
            if op.geometry != self.geometry:
                raise LocalizationError("representatives must share the geometry")
        axis_layout(self.geometry)

    def __len__(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class PartitionOfUnity:
    """Nonnegative node functions summing to one, each supported within
    the stated radius of its center."""

    geometry: Geometry
    centers: tuple[float, ...]
    radii: tuple[float, ...]
    eps: float
    functions: np.ndarray = field(repr=False)

    def __post_init__(self):
        lay = axis_layout(self.geometry)
        f = np.asarray(self.functions, dtype=float)
        if f.shape != (len(self.centers), lay.n):
            raise LocalizationError("partition shape mismatch")
        if float(f.min()) < -1e-15:
            raise LocalizationError("partition functions must be nonnegative")
        total = f.sum(axis=0)
        if float(np.max(np.abs(total - 1.0))) > 1e-12:
            raise LocalizationError("partition functions must sum to 1 at every node")
        for i, (c, r) in enumerate(zip(self.centers, self.radii)):
            outside = lay.distance(c) >= r
            if np.any(f[i][outside] > 0.0):
                raise LocalizationError(
                    f"function {i} is not subordinate to its radius-{r:g} neighborhood"
                )


def partition_of_unity(g: Geometry, centers: Sequence[float], eps: float) -> PartitionOfUnity:
    """Normalized plateau bumps at the centers.

    The radii are 1.05 times the cover floor (the largest distance from
    any node to its nearest center, doubled so plateaus overlap),
    uniform across centers. Every node then lies on the plateau of its
    nearest center's bump, so the bumps cover the axis.
    """
    lay = axis_layout(g)
    cs = tuple(float(c) for c in centers)
    dists = np.stack([lay.distance(c) for c in cs])
    floor = 2.0 * float(dists.min(axis=0).max())
    rs = tuple(1.05 * floor for _ in cs)
    bumps = np.stack([plateau_profile(d, r / 2.0, r) for d, r in zip(dists, rs)])
    return PartitionOfUnity(g, cs, rs, float(eps), bumps / bumps.sum(axis=0))


# ---------------------------------------------------------------------------
# Local norms


@dataclass(frozen=True)
class LocalNormReport:
    scales: tuple[float, ...]
    norms: tuple[float, ...]
    limit: float
    in_ideal: bool
    tol: float


def local_norm(A: DiscretizedOperator, x: float) -> LocalNormReport:
    """||A phi_s|| along a shrinking cutoff ladder at x; membership in
    the local ideal J_x is judged by the final value, against 1e-3.

    The ladder descends dyadically from a quarter of the axis span to
    the finest grid-resolvable scale.
    """
    lay = axis_layout(A.geometry)
    n_scales = max(2, int(np.floor(np.log2(lay.span / 4.0 / (3.0 * lay.step)))) + 1)
    ladder = cutoff_family(A.geometry, x, n_scales)
    norms = tuple(side_norm(A.matrix, lay.spread(ladder[i])) for i in range(len(ladder)))
    limit = norms[-1]
    return LocalNormReport(ladder.scales, norms, limit, limit <= 1e-3, 1e-3)


# ---------------------------------------------------------------------------
# Continuity and gluing


@dataclass(frozen=True)
class ContinuityReport:
    eps: float
    radii: tuple[float, ...]
    witnesses: np.ndarray = field(repr=False)
    passed: bool


def _pair_witnesses(
    F: LocalFamily, rs: Sequence[float]
) -> np.ndarray:
    """Matrix of ||A_i - A_j|| restricted to columns in the overlap of
    the two neighborhoods; zero when the overlap is empty."""
    lay = axis_layout(F.geometry)
    masks = [lay.distance(c) < r for c, r in zip(F.centers, rs)]
    m = len(F)
    W = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            overlap = masks[i] & masks[j]
            if not np.any(overlap):
                continue
            cols = lay.spread(overlap)
            D = F.operators[i].matrix - F.operators[j].matrix
            W[i, j] = W[j, i] = float(np.linalg.norm(D[:, cols], 2))
    return W


def continuity_check(F: LocalFamily, eps: float) -> ContinuityReport:
    """Verdict on the eps-continuity condition: all pairwise
    restricted norms over neighborhood overlaps stay <= eps.

    Witnesses only grow with the radius (larger overlaps, larger column
    sets), so the smallest radii satisfying the bound, whenever any do,
    are the smallest that keep the neighborhoods a cover: the radii are
    fitted there, 1.02 times the cover floor, whatever eps is.
    """
    lay = axis_layout(F.geometry)
    dists = np.stack([lay.distance(c) for c in F.centers])
    cover_floor = 2.0 * float(dists.min(axis=0).max())
    rs = tuple(1.02 * cover_floor for _ in F.centers)
    W = _pair_witnesses(F, rs)
    return ContinuityReport(float(eps), rs, W, bool(W.max() <= eps))


def glue(F: LocalFamily, P: PartitionOfUnity) -> DiscretizedOperator:
    """Sum phi_i A_i over the centers.

    Precondition: the family is P.eps-continuous on the partition's own
    neighborhoods; the glued operator then reproduces each local
    representative near its center up to 2 eps.
    """
    if P.centers != F.centers:
        raise LocalizationError("partition and family disagree on centers")
    W = _pair_witnesses(F, P.radii)
    if W.max() > P.eps:
        raise LocalizationError(
            f"family is not {P.eps:g}-continuous on the partition neighborhoods "
            f"(worst witness {W.max():.3g})"
        )
    lay = axis_layout(F.geometry)
    M = np.zeros_like(F.operators[0].matrix)
    for i, op in enumerate(F.operators):
        d = lay.spread(P.functions[i])
        M = M + d[:, None] * op.matrix
    return DiscretizedOperator(F.geometry, F.operators[0].v, M)


# ---------------------------------------------------------------------------
# Partition norm bound


@dataclass(frozen=True)
class PartitionBoundReport:
    lhs: float
    bound: float
    slack: float
    passed: bool
    tol: float


def partition_bound_check(
    fs: Sequence[np.ndarray],
    As: Sequence[DiscretizedOperator],
) -> PartitionBoundReport:
    """Check ||sum f_j A_j|| <= [max_x sum f_j(x)] max_j ||A_j||_{supp f_j},
    with the functions on the default axis of the geometry and a slack
    tolerance of 1e-12.

    The bound is not a theorem for arbitrary matrices; the report states
    the verdict and the slack, nothing more.
    """
    if len(fs) != len(As) or len(fs) == 0:
        raise LocalizationError("need matching nonempty function and operator lists")
    lay = axis_layout(As[0].geometry)
    stacked = np.stack([np.asarray(f, dtype=float) for f in fs])
    if stacked.shape[1] != lay.n:
        raise LocalizationError("functions must be per-node on the chosen axis")
    if float(stacked.min()) < 0.0:
        raise LocalizationError("negative f encountered")
    total = np.zeros_like(As[0].matrix)
    restricted = []
    for f, op in zip(stacked, As):
        total = total + lay.spread(f)[:, None] * op.matrix
        cols = lay.spread(f > 0.0)
        restricted.append(
            float(np.linalg.norm(op.matrix[:, cols], 2)) if np.any(cols) else 0.0
        )
    lhs = float(np.linalg.norm(total, 2))
    cover_max = float(stacked.sum(axis=0).max())
    bound = cover_max * max(restricted)
    slack = bound - lhs
    return PartitionBoundReport(lhs, bound, slack, bool(slack >= -1e-12), 1e-12)

