"""Localization tests: partitions of unity, local norms, eps-continuity,
gluing and the partition norm bound.

The gluing ladder uses one fixed stock operator, 2 + 0.2 sin(x) chi(xi)
on a 64-node circle, with frozen-coefficient representatives at
equispaced centers. Center counts double as eps halves, so the measured
continuity witnesses (0.28, 0.15, 0.08) track eps while staying under
the gate at every rung. The gluing, continuity and partition-bound
tests also run along the t axis of a 32-node interval cone, whose
operators act on the 31 interior nodes, with the stock operator
2 + 0.2 chi(p) r / (1 + r) frozen in r.
"""

import math

import numpy as np
import pytest

from psdo.calculus import DiscretizedOperator
from psdo.geometry import Circle, Cone, Point, axis_layout, cutoff_family, plateau_profile
from psdo.localization import (
    LocalFamily,
    LocalizationError,
    continuity_check,
    glue,
    local_norm,
    partition_bound_check,
    partition_of_unity,
)
from psdo.quantize import op_circle, quantize, side_norm
from psdo.symexpr import Const, parse, substitute

STOCK = "2 + 0.2 * sin(x) * chi(xi)"
CENTER_COUNTS = {0.5: 8, 0.25: 16, 0.125: 32}
INTERVAL_CONE = Cone(Point(), T=4.0, n_t=32, boundary="interval")
GEOMETRIES = {"circle": Circle(64), "interval-cone": INTERVAL_CONE}
# name -> (stock symbol, its coefficient frozen at an axis point c)
STOCKS = {
    "circle": (STOCK, lambda c: {"x": Const(c)}),
    "interval-cone": ("2 + 0.2 * chi(p) * r / (1 + r)", lambda c: {"r": Const(math.exp(-c))}),
}


@pytest.fixture(scope="module")
def g64():
    return GEOMETRIES["circle"]


def axis_centers(g, n_c):
    """n_c equispaced centers on the default axis of g."""
    lay = axis_layout(g)
    if lay.periodic:
        return [2.0 * np.pi * i / n_c for i in range(n_c)]
    return [float(lay.nodes[0]) + (i + 0.5) * lay.span / n_c for i in range(n_c)]


def frozen_family(name, n_c):
    g, (src, frozen_at) = GEOMETRIES[name], STOCKS[name]
    centers = axis_centers(g, n_c)
    ops = [quantize(g, substitute(parse(src), frozen_at(c))) for c in centers]
    return LocalFamily(g, centers, ops, axis=axis_layout(g).name)


def outlier_family(g):
    F = frozen_family("circle", 8)
    ops = list(F.operators)
    ops[3] = DiscretizedOperator(g, ops[3].v, ops[3].matrix + np.eye(g.n_x))
    return LocalFamily(g, F.centers, ops)


# ---------------------------------------------------------------------------
# Partitions of unity


def test_partition_sums_to_one_and_is_subordinate(g64):
    centers = [2.0 * np.pi * i / 8 for i in range(8)]
    P = partition_of_unity(g64, centers, eps=0.5)
    total = P.functions.sum(axis=0)
    assert np.max(np.abs(total - 1.0)) <= 1e-12
    assert P.functions.min() >= -1e-15
    for f, c, r in zip(P.functions, P.centers, P.radii):
        d = np.abs(np.angle(np.exp(1j * (g64.x - c))))
        assert np.all(f[d >= r] == 0.0)


def test_partition_needs_covering_radii(g64):
    centers = [0.0, np.pi]
    with pytest.raises(LocalizationError, match="cover"):
        partition_of_unity(g64, centers, eps=0.5, radii=(0.1, 0.1))


def test_partition_radii_length_checked(g64):
    with pytest.raises(LocalizationError, match="one radius"):
        partition_of_unity(g64, [0.0, np.pi], eps=0.5, radii=(1.0,))


def test_local_family_validates_lengths(g64):
    A = op_circle(g64, parse("1"))
    with pytest.raises(LocalizationError, match="one representative"):
        LocalFamily(g64, [0.0, 1.0], [A])
    with pytest.raises(LocalizationError, match="at least one"):
        LocalFamily(g64, [], [])


def test_local_family_rejects_representative_on_other_geometry(g64):
    # a 64-node periodic cone operator has the dimension of a g64 operator
    B = quantize(Cone(Point(), T=4.0, n_t=64), parse("2 + 0*p"))
    assert B.dim == g64.dim_total
    with pytest.raises(LocalizationError, match="share the geometry"):
        LocalFamily(g64, [0.0, 1.0], [op_circle(g64, parse("1")), B])


# ---------------------------------------------------------------------------
# Local norms


def test_local_norm_zero_and_identity(g64):
    Z = op_circle(g64, parse("0"))
    rz = local_norm(Z, 0.0)
    assert rz.limit == 0.0
    assert rz.in_ideal

    I = op_circle(g64, parse("1"))
    ri = local_norm(I, 0.0)
    assert all(abs(v - 1.0) <= 1e-12 for v in ri.norms)
    assert not ri.in_ideal


def test_local_norm_vanishing_multiplier_decays():
    # (1 - cos x)^2 vanishes to fourth order at x = 0; each halving of
    # the cutoff scale should cut the local norm by better than 10x.
    g = Circle(128)
    A = op_circle(g, parse("(1 - cos(x))^2"))
    rep = local_norm(A, 0.0)
    assert len(rep.norms) == 4
    want = (2.767930e-01, 2.039967e-02, 1.328546e-03, 8.394016e-05)
    for got, ref in zip(rep.norms, want):
        assert abs(got - ref) <= 1e-4 * max(ref, 1e-6)
    for a, b in zip(rep.norms, rep.norms[1:]):
        assert b <= a / 10.0
    assert rep.in_ideal


def test_local_norm_explicit_ladder_reads_interior_columns():
    # the operator acts on t_1..t_31: each rung is the cutoff written out
    # on those nodes, with no shift onto the seam node t_0
    g = INTERVAL_CONE
    A = quantize(g, parse("2 + chi(p) + r / (1 + r)"))
    ladder = cutoff_family(g, center=0.5, n_scales=2, base_scale=2.0)
    rep = local_norm(A, 0.5, ladder)
    d = np.abs(g.t[1:] - 0.5)
    want = tuple(side_norm(A.matrix, plateau_profile(d, s / 2.0, s), "right") for s in (2.0, 1.0))
    assert rep.norms == want


def test_local_norm_rejects_offcenter_ladder(g64):
    A = op_circle(g64, parse("1"))
    ladder = cutoff_family(g64, center=1.0, n_scales=2)
    with pytest.raises(LocalizationError, match="centered"):
        local_norm(A, 0.0, ladder=ladder)


# ---------------------------------------------------------------------------
# eps-continuity


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_continuity_constant_family_passes_every_eps(name):
    g = GEOMETRIES[name]
    A = quantize(g, parse("3"))
    F = LocalFamily(g, axis_centers(g, 8), [A] * 8, axis=axis_layout(g).name)
    rep = continuity_check(F, eps_ladder=(0.5, 0.25, 0.125))
    assert rep.passed
    for eps in rep.eps_ladder:
        assert rep.witnesses[eps].max() == 0.0


def test_continuity_frozen_family_autofit():
    F = frozen_family("circle", 16)
    rep = continuity_check(F, eps_ladder=(0.25,))
    r = rep.radii[0.25][0]
    assert abs(r - 0.4006) <= 2e-3
    assert rep.witnesses[0.25].max() <= 0.16
    assert rep.passed


def test_continuity_flags_outlier_representative(g64):
    F = outlier_family(g64)
    rep = continuity_check(F, eps_ladder=(0.5,), radii={0.5: (1.7,) * 8})
    assert not rep.passed
    assert rep.witnesses[0.5].max() >= 1.0


# ---------------------------------------------------------------------------
# Gluing


def test_glue_constant_family_is_exact(g64):
    A = op_circle(g64, parse("3"))
    F = LocalFamily(g64, [2.0 * np.pi * i / 8 for i in range(8)], [A] * 8)
    P = partition_of_unity(g64, F.centers, eps=0.5)
    G = glue(F, P)
    assert np.linalg.norm(G.matrix - 3.0 * np.eye(g64.n_x), 2) <= 1e-12


# name -> bounds on (worst local norm, gap to the global quantization,
# Cauchy gap between rungs); the worst local norm measured 0.090 at
# every rung on the circle, and the interval cone measured 0.074, 1.9e-3
# and at most 0.011
GLUE_BOUNDS = {"circle": (0.12, 2e-3, 0.05), "interval-cone": (0.1, 2.5e-3, 0.02)}


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_glue_reproduces_representatives_locally(name):
    g = GEOMETRIES[name]
    worst_bound, gap_bound, cauchy_bound = GLUE_BOUNDS[name]
    A0 = quantize(g, parse(STOCKS[name][0]))
    glued = {}
    for eps, n_c in CENTER_COUNTS.items():
        F = frozen_family(name, n_c)
        rep = continuity_check(F, eps_ladder=(eps,))
        assert rep.passed, f"stock family not {eps}-continuous"
        P = partition_of_unity(g, F.centers, eps)
        G = glue(F, P)
        glued[eps] = G
        worst = 0.0
        for x_i, A_i in zip(F.centers, F.operators):
            D = DiscretizedOperator(g, G.v, G.matrix - A_i.matrix)
            worst = max(worst, local_norm(D, x_i).limit)
        # the gate is the guaranteed 2 eps
        assert worst <= worst_bound
        assert worst <= 2.0 * eps
    # refinement converges to the global quantization
    gap = np.linalg.norm(glued[0.125].matrix - A0.matrix, 2)
    assert gap <= gap_bound
    eps_values = sorted(CENTER_COUNTS)
    for i, e1 in enumerate(eps_values):
        for e2 in eps_values[i + 1:]:
            d = np.linalg.norm(glued[e1].matrix - glued[e2].matrix, 2)
            assert d <= cauchy_bound
            assert d <= max(2.0 * e1, 2.0 * e2)


def test_glue_rejects_discontinuous_family(g64):
    F = outlier_family(g64)
    P = partition_of_unity(g64, F.centers, eps=0.5)
    with pytest.raises(LocalizationError, match="continuous"):
        glue(F, P)


# ---------------------------------------------------------------------------
# Partition norm bound


def indicator_blocks(n, m):
    fs = []
    for j in range(m):
        f = np.zeros(n)
        f[j * (n // m):(j + 1) * (n // m)] = 1.0
        fs.append(f)
    return fs


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_partition_bound_single_function_is_tight(name):
    g = GEOMETRIES[name]
    covar = "xi" if isinstance(g, Circle) else "p"
    A = quantize(g, parse(f"2 + chi({covar})"))
    rep = partition_bound_check([np.ones(axis_layout(g).n)], [A])
    assert rep.passed
    assert abs(rep.slack) <= 1e-12


def test_partition_bound_exact_for_multipliers(g64):
    n = g64.n_x
    fs = indicator_blocks(n, 4)
    As = [
        DiscretizedOperator(g64, None, np.diag(np.cos((j + 1) * g64.x)).astype(complex))
        for j in range(4)
    ]
    rep = partition_bound_check(fs, As)
    assert rep.passed
    assert abs(rep.slack) <= 1e-12


def test_partition_bound_exact_for_scaled_common_unitary(g64):
    n = g64.n_x
    fs = indicator_blocks(n, 4)
    U = np.fft.fft(np.eye(n)) / np.sqrt(n)
    As = [DiscretizedOperator(g64, None, c * U) for c in (0.5, 1.5, 1.0, 2.0)]
    rep = partition_bound_check(fs, As)
    assert rep.passed
    assert abs(rep.slack) <= 1e-12


def test_partition_bound_fails_for_row_concentrated_rank_one(g64):
    # A_j = chi_j e^T keeps all its mass under diag(f_j), while the
    # column restriction in the bound only sees 1/sqrt(m) of e.
    n = g64.n_x
    fs = indicator_blocks(n, 4)
    e = np.ones(n) / np.sqrt(n)
    As = []
    for f in fs:
        chi = f / np.linalg.norm(f)
        As.append(DiscretizedOperator(g64, None, np.outer(chi, e).astype(complex)))
    rep = partition_bound_check(fs, As)
    assert not rep.passed
    assert abs(rep.lhs - 2.0) <= 1e-10
    assert abs(rep.bound - 0.5) <= 1e-10
    assert rep.slack < -0.1


def test_partition_bound_rejects_negative_functions(g64):
    A = op_circle(g64, parse("1"))
    f = -np.ones(g64.n_x)
    with pytest.raises(LocalizationError, match="negative"):
        partition_bound_check([f], [A])

