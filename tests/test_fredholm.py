"""Fredholm layer: winding oracle, finite sections with cut-artifact
attribution, tuple quantization, ellipticity verdicts, large-parameter
scans.

Index instances use the affine interpolation 1 + (g(p) - 1)/(1 + r):
identity at the far end, g at the tip, carrying the full winding of g.
The ladder scales T and N_t together (h_t = 0.1875) so the interval cut
recedes as sections grow; genuine near-null tails then decay
exponentially and counts stabilize.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from oracles import circle_analysis, full_svd_rows, load_bench_workloads
from psdo.fredholm import (
    SECTION_STEP,
    FredholmError,
    _contour,
    check_elliptic,
    extract_tuple,
    finite_section,
    interval_section,
    large_parameter_scan,
    quantize_tuple,
    winding_oracle,
)
from psdo.geometry import Circle, Cone, Edge, Point, collar_cutoff
from psdo.quantize import DiscretizedOperator, op_edge, op_mellin
from psdo.stock import elliptic_stock, index_stock, toeplitz_shift
from psdo.symbols import (
    ConeSymbolFamily,
    InteriorSymbol,
    SymbolTuple,
    compat_check,
    conormal,
    pushforward_edge,
)
from psdo.symexpr import EvalError, parse

CAYLEY = "(p - (0,1)) / (p + (0,1))"
MIRROR = "(p + (0,1)) / (p - (0,1))"


def affine_builder(g_expr: str):
    """1 + (g - 1)/(1 + r) on the fixed-step interval ladder."""

    def build(n_t: int) -> DiscretizedOperator:
        T = 0.1875 * n_t / 2.0
        cone = Cone(Point(), T=T, n_t=n_t, boundary="interval")
        return op_mellin(cone, parse(f"1 + (1 / (1 + r)) * ({g_expr} - 1)"))

    return build


# --- oracles ---------------------------------------------------------------


def test_oracle_winding_matches_quadrature():
    """For the Cayley factor, d(arg g)/dp = 2/(1+p^2); under p = tan u
    the integrand is the constant 2, so the full-line integral is
    exactly 2 pi and the winding must be exactly 1."""
    us = np.linspace(-np.arctan(1e6), np.arctan(1e6), 20001)
    integrand = 2.0 / (1.0 + np.tan(us) ** 2) * (1.0 / np.cos(us)) ** 2
    quad = np.trapezoid(integrand, us) / (2.0 * np.pi)
    assert abs(quad - 1.0) <= 1e-5
    rep = winding_oracle(CAYLEY)
    assert rep.winding == 1
    assert rep.residual <= 1e-5
    assert rep.closure_gap <= 1e-5


def test_oracle_toeplitz_cokernel_is_mode_zero():
    """Truncated shift: range misses mode 0 exactly, and the one-dim
    near-kernel e_{N/2-1} - e_{-N/2} is a Nyquist (cut) artifact."""
    A = toeplitz_shift(64)
    U, s, Vh = np.linalg.svd(A.matrix)
    assert s[-1] <= 1e-12
    assert s[-2] >= 0.999
    F = circle_analysis(64)
    cu = F @ U[:, -1]
    cv = F @ np.conj(Vh[-1])
    assert abs(cu[0]) ** 2 / np.sum(np.abs(cu) ** 2) >= 0.99
    k = Circle(64).modes
    nyq = np.abs(k) >= 0.9 * 32
    assert np.sum(np.abs(cv[nyq]) ** 2) / np.sum(np.abs(cv) ** 2) >= 0.99


def test_toeplitz_finite_section_index_minus_one():
    rep = finite_section(toeplitz_shift, sizes=(64, 128, 256))
    assert rep.determinate
    assert rep.rows() == [(64, 0, 1, -1), (128, 0, 1, -1), (256, 0, 1, -1)]
    assert rep.index == -1
    for st in rep.stats:
        assert st.artifacts == 1
        assert st.gap_ratio >= 1e12


# --- winding oracle behavior -----------------------------------------------


def test_winding_constant_is_zero():
    rep = winding_oracle("1 + 0*p")
    assert rep.winding == 0
    assert rep.residual == 0.0


def test_winding_square_doubles():
    assert winding_oracle(f"({CAYLEY})^2").winding == 2


def test_winding_homomorphism():
    g2 = "(p - (0,2)) / (p + (0,3))"
    w_sum = winding_oracle(CAYLEY).winding + winding_oracle(g2).winding
    assert winding_oracle(f"({CAYLEY}) * ({g2})").winding == w_sum


def test_winding_zero_crossing_raises():
    with pytest.raises(FredholmError, match="zero"):
        winding_oracle("p / (p + (0,1))")


def test_winding_open_contour_raises():
    with pytest.raises(FredholmError, match="close"):
        winding_oracle("p + (0,1)")


def test_winding_convention_recorded():
    rep = winding_oracle(CAYLEY)
    assert "+winding" in rep.index_convention
    assert "-p_max to +p_max" in rep.orientation


# --- finite sections on the cone -------------------------------------------


def test_index_ladder_cayley_plus_one():
    """Winding +1 tip symbol carries one genuine kernel vector; the
    pinned convention is index = +winding."""
    rep = finite_section(affine_builder(CAYLEY), sizes=(64, 128, 256), tau_coef=1e-4)
    assert rep.determinate
    assert rep.index == 1
    assert rep.rows() == [(64, 0, 0, 0), (128, 1, 0, 1), (256, 1, 0, 1)]
    assert rep.stats[-1].gap_ratio >= 1e9
    assert rep.stats[-1].artifacts == 1
    assert "+winding" in rep.convention


def test_index_ladder_mirror_minus_one():
    rep = finite_section(affine_builder(MIRROR), sizes=(64, 128, 256), tau_coef=1e-4)
    assert rep.determinate
    assert rep.index == -1
    assert rep.rows()[-1] == (256, 0, 1, -1)


def test_index_ladder_squared_plus_two():
    """The second kernel element decays slower in T: the |w| = 2 ladder
    starts at 128 and uses the looser rank cut."""
    rep = finite_section(affine_builder(f"({CAYLEY})^2"), sizes=(128, 256), tau_coef=1e-3)
    assert rep.determinate
    assert rep.index == 2
    assert rep.rows() == [(128, 2, 0, 2), (256, 2, 0, 2)]


def test_index_adjoint_flips_sign():
    base = affine_builder(CAYLEY)

    def badj(n_t: int) -> DiscretizedOperator:
        return base(n_t).adjoint()

    rep = finite_section(badj, sizes=(128, 256), tau_coef=1e-4)
    assert rep.determinate
    assert rep.index == -1


def test_tight_tau_reports_indeterminate():
    """Default rank cut sits below the T=6 truncation tail, so counts
    do not stabilize; the report must say so rather than guess."""
    rep = finite_section(affine_builder(CAYLEY), sizes=(64, 128, 256))
    assert rep.indeterminate
    assert not rep.determinate
    assert rep.index is None
    assert rep.kernel is None


def test_pure_multiplier_index_zero():
    """An invertible Mellin multiplier alone has well-conditioned
    sections: no interpolation, no index."""
    def build(n_t: int) -> DiscretizedOperator:
        T = 0.1875 * n_t / 2.0
        return op_mellin(Cone(Point(), T=T, n_t=n_t, boundary="interval"), parse(CAYLEY))

    rep = finite_section(build, sizes=(64, 128))
    assert rep.determinate
    assert rep.index == 0
    assert rep.stats[0].smallest[0] >= 0.8


def test_identity_sections_are_clean():
    rep = finite_section(lambda n: DiscretizedOperator(Circle(n), None, np.eye(n)), sizes=(32, 64))
    assert rep.determinate
    assert rep.index == 0
    assert rep.kernel == 0 and rep.cokernel == 0


def test_finite_section_needs_two_sizes():
    with pytest.raises(FredholmError):
        finite_section(toeplitz_shift, sizes=(64,))


@pytest.mark.parametrize("sizes", [(16, 16), (256, 128), (64, 128, 128)])
def test_finite_section_needs_strictly_increasing_sizes(sizes):
    with pytest.raises(FredholmError, match="strictly increase"):
        finite_section(toeplitz_shift, sizes=sizes)


@pytest.mark.parametrize("tau_coef", [0.0, -1.0, float("nan")])
def test_finite_section_needs_positive_tau_coef(tau_coef):
    with pytest.raises(FredholmError, match="tau_coef must be > 0"):
        finite_section(toeplitz_shift, sizes=(64, 128), tau_coef=tau_coef)


# --- values first, pairs only where they are read --------------------------


def section_rows(build, sizes, tau_coef):
    rep = finite_section(build, sizes=sizes, tau_coef=tau_coef)
    return [(s.size, s.kernel, s.cokernel, s.index, s.artifacts) for s in rep.stats]


def _adjoint_cayley(n_t: int) -> DiscretizedOperator:
    return affine_builder(CAYLEY)(n_t).adjoint()


LADDERS = [
    *((f"sections/{i.name}", i.build, (128, 256), 1e-6) for i in elliptic_stock()),
    ("toeplitz", toeplitz_shift, (64, 128, 256), 1e-6),
    *((f"cone-index/{i.name}", i.build, i.sizes, i.tau_coef) for i in index_stock()),
    ("cayley", affine_builder(CAYLEY), (64, 128, 256), 1e-4),
    ("mirror", affine_builder(MIRROR), (64, 128, 256), 1e-4),
    ("squared", affine_builder(f"({CAYLEY})^2"), (128, 256), 1e-3),
    ("adjoint", _adjoint_cayley, (128, 256), 1e-4),
    ("tight-tau", affine_builder(CAYLEY), (64, 128, 256), 1e-6),
]


@pytest.mark.parametrize("name, build, sizes, tau_coef", LADDERS, ids=[ladder[0] for ladder in LADDERS])
def test_values_first_matches_full_svd_classification(name, build, sizes, tau_coef):
    build = functools.lru_cache(maxsize=None)(build)
    assert section_rows(build, sizes, tau_coef) == full_svd_rows(build, sizes, tau_coef)


@pytest.mark.parametrize("seed", range(8))
def test_values_first_matches_full_svd_on_bench_tips(seed):
    # The cmd_index ladders of the index workload: default cone step,
    # the config's sizes and threshold.
    for cfg, _, _ in load_bench_workloads().index_configs(seed):
        expr = parse(cfg["symbol"])
        build = functools.lru_cache(maxsize=None)(
            lambda n_t: interval_section(expr, SECTION_STEP, n_t)
        )
        sizes, tau_coef = tuple(cfg.get("sizes", (64, 128, 256))), cfg.get("tau_coef", 1e-4)
        assert section_rows(build, sizes, tau_coef) == full_svd_rows(build, sizes, tau_coef)


def _spy_full_svds(monkeypatch) -> list:
    """Record the shape of every matrix np.linalg.svd factors with
    singular vectors."""
    shapes, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


def test_near_null_pairs_form_no_full_svd(monkeypatch):
    shapes = _spy_full_svds(monkeypatch)
    rep = finite_section(affine_builder(CAYLEY), sizes=(64, 128, 256), tau_coef=1e-4)
    assert rep.rows() == [(64, 0, 0, 0), (128, 1, 0, 1), (256, 1, 0, 1)]
    assert shapes == [(1, 1), (1, 1)]  # one Rayleigh-Ritz SVD per rung with a pair


@pytest.mark.parametrize("pivot", [0.0, 1e-310], ids=["zero-pivot", "overflowing-inverse"])
def test_singular_rung_takes_full_svd_and_counts_kernel(monkeypatch, pivot):
    """An exact zero column stops the LU at a zero pivot, and a subnormal
    one makes the inverse overflow; either way the rung falls back to
    the full SVD, and the mid-window null vector e_j counts on both
    sides."""

    def build(n_t: int) -> DiscretizedOperator:
        cone = Cone(Point(), T=SECTION_STEP * n_t / 2.0, n_t=n_t, boundary="interval")
        M = np.eye(n_t - 1, dtype=complex)
        M[:, n_t // 2] *= pivot
        return DiscretizedOperator(cone, None, M)

    if pivot == 0.0:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(build(32).matrix)
    else:
        assert not np.all(np.isfinite(np.linalg.inv(build(32).matrix)))
    shapes = _spy_full_svds(monkeypatch)
    rep = finite_section(build, sizes=(32, 64))
    assert shapes == [(31, 31), (63, 63)]
    assert rep.rows() == [(32, 1, 1, 0), (64, 1, 1, 0)]
    assert rep.determinate and rep.kernel == 1 and rep.cokernel == 1
    assert all(s.artifacts == 0 for s in rep.stats)


# --- circle-base winding ----------------------------------------------------

MODE_CAYLEY = "(p - (0,1)*(1 + 0.5*chi(t))) / (p + (0,1)*(1 + 0.5*chi(t)))"


@pytest.mark.parametrize("paired", [False, True], ids=["no-pair", "pair"])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_circle_base_contour_matches_nodal_determinant(n, paired):
    fam = conormal(ConeSymbolFamily(parse(MODE_CAYLEY), base=Circle(n)))
    if paired:
        fam = pushforward_edge(fam, "x + 0.2*sin(x)")
    u_max = math.atan(1e6)
    ps = np.tan(np.linspace(-u_max, u_max, 257))
    want = np.linalg.det(fam.value(ps))
    np.testing.assert_allclose(_contour(fam, 1e6, 257), want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_circle_base_tip_winds_once_per_mode(n):
    fam = conormal(ConeSymbolFamily(parse(MODE_CAYLEY), base=Circle(n)))
    assert winding_oracle(fam).winding == n
    assert winding_oracle(pushforward_edge(fam, "x + 0.2*sin(x)")).winding == n


# --- ellipticity verdicts ---------------------------------------------------


def test_check_elliptic_trivial_tuple():
    t = SymbolTuple(
        InteriorSymbol("1 + 0*xi"),
        ConeSymbolFamily("1 + 0*p"),
    )
    rep = check_elliptic(t)
    assert rep.overall
    assert abs(rep.interior_min - 1.0) <= 1e-12
    assert abs(rep.conormal_min - 1.0) <= 1e-12
    assert rep.large_p_pass


def test_check_elliptic_zero_at_origin_fails():
    """p = 0 sits on the odd conormal grid, so the degenerate point is
    hit exactly; the incompatible tuple also warns."""
    t = SymbolTuple(
        InteriorSymbol("1 + 0*xi"),
        ConeSymbolFamily("p / (p + (0,1))"),
    )
    with pytest.warns(UserWarning, match="compat"):
        rep = check_elliptic(t)
    assert not rep.overall
    assert rep.conormal_min <= 1e-12


def test_check_elliptic_extracted_tuple_clean():
    fam = ConeSymbolFamily(
        "(p + 0.2*(0,1)*w) / sqrt(1 + p^2 + 0.04*(w^2 + eta^2)) + 2"
    )
    t = extract_tuple(fam)
    assert compat_check(t).mismatch == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_elliptic(t)
    assert rep.overall
    assert rep.interior_min >= 1.0
    assert rep.conormal_min >= 1.0


# --- tuple quantization ------------------------------------------------------


@pytest.fixture(scope="module")
def small_edge():
    return Edge(Circle(16), Cone(Point(), T=6.0, n_t=32))


def test_quantize_tuple_identity(small_edge):
    t = SymbolTuple(
        InteriorSymbol("1 + 0*xi"),
        ConeSymbolFamily("1 + 0*p"),
    )
    A = quantize_tuple(t, small_edge)
    assert np.linalg.norm(A.matrix - np.eye(A.dim), 2) <= 1e-12


def test_quantize_tuple_roundtrip(small_edge):
    """Extract-then-quantize stays within a tenth of the direct
    quantization for a small-amplitude wedge dependence."""
    expr = "(p + 0.2*(0,1)*w) / sqrt(1 + p^2 + 0.04*(w^2 + eta^2)) + 2"
    fam = ConeSymbolFamily(expr)
    t = extract_tuple(fam)
    A0 = op_edge(small_edge, parse(expr), v=1.0)
    A1 = quantize_tuple(t, small_edge, v=1.0)
    gap = np.linalg.norm(A1.matrix - A0.matrix, 2)
    assert gap <= 0.1 * A0.norm()


def test_quantize_tuple_vanishing_interior(small_edge):
    """sigma0 flat to sixth order at the edge with zero conormal part:
    the quantization is negligible near the tip."""
    t = SymbolTuple(
        InteriorSymbol("(r^6 / (1 + r^6)) * chi(xi)"),
        ConeSymbolFamily("0 * p"),
    )
    assert compat_check(t).mismatch == 0.0
    A = quantize_tuple(t, small_edge)
    n_x, n_t = 16, 32
    phi = collar_cutoff(small_edge, 2.0**-6)
    small = np.broadcast_to(phi[None, :, None], (n_x, n_t, 1)).reshape(-1)
    assert np.linalg.norm(small[:, None] * A.matrix * small[None, :], 2) <= 1e-10


def test_quantize_tuple_rejects_incompatible(small_edge):
    t = SymbolTuple(
        InteriorSymbol("2 + 0*xi"),
        ConeSymbolFamily("1 + 0*p"),
    )
    with pytest.raises(FredholmError, match="compat"):
        quantize_tuple(t, small_edge)


def test_quantize_tuple_needs_edge_geometry(small_edge):
    t = SymbolTuple(
        InteriorSymbol("1 + 0*xi"),
        ConeSymbolFamily("1 + 0*p"),
    )
    with pytest.raises(FredholmError):
        quantize_tuple(t, Circle(16))


def test_extract_tuple_renames_wedge_slots(small_edge):
    """The interior slot reads the family at the edge (r = 0, p = 0)
    with w, eta renamed to the wedge variables v, xi."""
    fam = ConeSymbolFamily("(p + (0,1)*w) / sqrt(1 + p^2 + w^2 + eta^2) + 2")
    t = extract_tuple(fam)
    assert compat_check(t).mismatch == 0.0
    got = complex(np.asarray(t.sigma0.value(0.0, 3.0, 1.0)).reshape(-1)[0])
    want = 1.0j * 1.0 / np.sqrt(1.0 + 1.0 + 9.0) + 2.0
    assert abs(got - want) <= 1e-12


# --- large-parameter scans ---------------------------------------------------


def test_large_parameter_scan_elliptic_family():
    rep = large_parameter_scan(Circle(64), "(xi^2 + v^2 + 1) / (xi^2 + v^2 + 2)")
    assert rep.passed
    assert rep.s_min[0] >= 0.98
    assert rep.s_min[-1] >= 0.999
    assert rep.sphere_min >= 1.0 - 1e-6
    assert all(b >= 0.9 * a for a, b in zip(rep.s_min, rep.s_min[1:]))


def test_large_parameter_scan_decaying_family_fails():
    rep = large_parameter_scan(Circle(64), "1 / (1 + v^2) + 0*xi")
    assert not rep.passed
    assert rep.s_min[-1] <= 1e-3


def test_large_parameter_scan_non_finite_symbol_raises():
    # v = 0 at theta = 0 on the (xi, v)-sphere of the precheck
    with pytest.raises(EvalError, match="non-finite"):
        large_parameter_scan(Circle(32), "1 / v + 0*xi")


def test_large_parameter_scan_zero_symbol_reports_not_raises():
    rep = large_parameter_scan(Circle(32), "0*xi + 0*v")
    assert not rep.passed
    assert rep.s_min[0] <= 1e-12
