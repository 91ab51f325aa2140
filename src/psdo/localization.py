"""Desk-scale verification of the abstract localization principle:
local norms along shrinking cutoffs, continuity of center-indexed
operator families, gluing through partitions of unity and the partition
norm bound.

Restricted norms follow the column convention: ||B||_Q is the norm of B
applied to vectors supported in the node set Q. Continuity auto-fit
keeps the fitted neighborhoods a cover of the axis (a partition of
unity subordinate to them must exist), so it searches the smallest
dyadic radius at or above the cover floor; families that need finer
center sets at small eps fail honestly instead of passing vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from psdo.geometry import (
    CutoffFamily,
    Geometry,
    axis_layout,
    cutoff_family,
    plateau_profile,
)
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
    axis: str = "x"

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
        axis_layout(self.geometry, self.axis)

    def __len__(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class PartitionOfUnity:
    """Nonnegative node functions summing to one, each supported within
    the stated radius of its center."""

    geometry: Geometry
    axis: str
    centers: tuple[float, ...]
    radii: tuple[float, ...]
    eps: float
    functions: np.ndarray = field(repr=False)

    def __post_init__(self):
        lay = axis_layout(self.geometry, self.axis)
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


def partition_of_unity(
    g: Geometry,
    centers: Sequence[float],
    eps: float,
    radii: Optional[Sequence[float]] = None,
) -> PartitionOfUnity:
    """Normalized plateau bumps at the centers, along the default axis
    of g (t on a cone, x otherwise).

    Default radii are 1.05 times the cover floor (the largest distance
    from any node to its nearest center, doubled so plateaus overlap),
    uniform across centers.
    """
    lay = axis_layout(g)
    cs = tuple(float(c) for c in centers)
    dists = np.stack([lay.distance(c) for c in cs])
    if radii is None:
        floor = 2.0 * float(dists.min(axis=0).max())
        rs = tuple(1.05 * floor for _ in cs)
    else:
        rs = tuple(float(r) for r in radii)
        if len(rs) != len(cs):
            raise LocalizationError("one radius per center")
    bumps = np.stack([plateau_profile(d, r / 2.0, r) for d, r in zip(dists, rs)])
    total = bumps.sum(axis=0)
    if float(total.min()) <= 0.0:
        raise LocalizationError("neighborhoods do not cover the axis; enlarge radii")
    return PartitionOfUnity(g, lay.name, cs, rs, float(eps), bumps / total)


# ---------------------------------------------------------------------------
# Local norms


@dataclass(frozen=True)
class LocalNormReport:
    center: float
    scales: tuple[float, ...]
    norms: tuple[float, ...]
    limit: float
    in_ideal: bool
    tol: float


def local_norm(
    A: DiscretizedOperator,
    x: float,
    ladder: Optional[CutoffFamily] = None,
) -> LocalNormReport:
    """||A phi_s|| along a shrinking cutoff ladder at x; membership in
    the local ideal J_x is judged by the final value, against 1e-3.

    Without an explicit ladder, the ladder descends dyadically from a
    quarter of the axis span to the finest grid-resolvable scale.
    """
    g = A.geometry
    if ladder is None:
        lay = axis_layout(g)
        n_scales = max(2, int(np.floor(np.log2(lay.span / 4.0 / (3.0 * lay.step)))) + 1)
        ladder = cutoff_family(g, x, n_scales)
    elif abs(ladder.center - x) > 1e-12:
        raise LocalizationError("ladder must be centered at x")
    lay = axis_layout(g, ladder.axis_name)
    norms = tuple(side_norm(A.matrix, lay.spread(ladder[i]), "right") for i in range(len(ladder)))
    limit = norms[-1]
    return LocalNormReport(float(x), ladder.scales, norms, limit, limit <= 1e-3, 1e-3)


# ---------------------------------------------------------------------------
# Continuity and gluing


@dataclass(frozen=True)
class ContinuityReport:
    eps_ladder: tuple[float, ...]
    radii: dict
    witnesses: dict = field(repr=False)
    per_eps: dict
    passed: bool


def _pair_witnesses(
    F: LocalFamily, rs: Sequence[float]
) -> np.ndarray:
    """Matrix of ||A_i - A_j|| restricted to columns in the overlap of
    the two neighborhoods; zero when the overlap is empty."""
    lay = axis_layout(F.geometry, F.axis)
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


def continuity_check(
    F: LocalFamily,
    eps_ladder: Sequence[float] = (0.5, 0.25, 0.125),
    radii: Optional[Mapping[float, Sequence[float]]] = None,
) -> ContinuityReport:
    """Per-eps verdict on the continuity condition: all pairwise
    restricted norms over neighborhood overlaps stay <= eps.

    Radii come from the argument where it names the eps, and are
    otherwise auto-fitted. Witnesses only grow with the radius (larger
    overlaps, larger column sets), so the smallest radii satisfying the
    bound, whenever any do, are the smallest that keep the
    neighborhoods a cover; auto-fit evaluates exactly there.
    """
    lay = axis_layout(F.geometry, F.axis)
    dists = np.stack([lay.distance(c) for c in F.centers])
    cover_floor = 2.0 * float(dists.min(axis=0).max())
    fitted: dict = {}
    witnesses: dict = {}
    per_eps: dict = {}
    for eps in eps_ladder:
        eps = float(eps)
        if radii is not None and eps in radii:
            rs = tuple(float(r) for r in radii[eps])
        else:
            rs = tuple(1.02 * cover_floor for _ in F.centers)
        W = _pair_witnesses(F, rs)
        fitted[eps] = rs
        witnesses[eps] = W
        per_eps[eps] = bool(W.max() <= eps)
    return ContinuityReport(
        tuple(float(e) for e in eps_ladder),
        fitted,
        witnesses,
        per_eps,
        all(per_eps.values()),
    )


def glue(F: LocalFamily, P: PartitionOfUnity) -> DiscretizedOperator:
    """Sum phi_i A_i over the centers.

    Precondition: the family is P.eps-continuous on the partition's own
    neighborhoods; the glued operator then reproduces each local
    representative near its center up to 2 eps.
    """
    if P.centers != F.centers or P.axis != F.axis:
        raise LocalizationError("partition and family disagree on centers or axis")
    W = _pair_witnesses(F, P.radii)
    if W.max() > P.eps:
        raise LocalizationError(
            f"family is not {P.eps:g}-continuous on the partition neighborhoods "
            f"(worst witness {W.max():.3g})"
        )
    lay = axis_layout(F.geometry, F.axis)
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
    cover_max: float
    restricted_norms: tuple[float, ...]
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
    return PartitionBoundReport(
        lhs, cover_max, tuple(restricted), bound, slack, bool(slack >= -1e-12), 1e-12
    )

