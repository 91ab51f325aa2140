"""Array-evaluated symbol sweeps hold the scalar loops they replace.

The winding contour, the conormal profile and the ellipticity spheres
are each one `evaluate` on the whole grid plus one stacked SVD or
determinant; their references in oracles.py are the per-point loops,
one scalar `evaluate` and one small SVD per grid point. Winding reports
and oracle errors match the callable form's loop, and
ConeSymbolFamily.value, min_singular and limit_drift on a stacked p grid
match one evaluation per p (`oracles.loop_value`, which calls neither
of value's paths).
"""

import warnings

import numpy as np
import pytest

from oracles import loop_contour, loop_sphere_min, loop_value, scalar_tip
from psdo.fredholm import (
    FredholmError,
    _contour,
    check_elliptic,
    extract_tuple,
    large_parameter_scan,
    winding_oracle,
)
from psdo.geometry import Circle
from psdo.stock import (
    CAYLEY,
    degenerate_stock,
    elliptic_stock,
    index_stock,
    parameter_family,
)
from psdo.symbols import ConeSymbolFamily, conormal, pushforward_edge
from psdo.symexpr import EvalError, parse, shape_of

TOEPLITZ_TIP = "(1 + (0,1)*p) / (1 - (0,1)*p)"
TIPS = [inst.tip for inst in index_stock()] + [
    TOEPLITZ_TIP,
    f"({CAYLEY}) * ((p - (0,2)) / (p + (0,3)))",
    "((p - (0.3)) - (0,1.2)) / ((p - (0.3)) + (0,1.2))",
]


# --- winding contour -------------------------------------------------------


@pytest.mark.parametrize("tip", TIPS)
def test_contour_matches_scalar_loop(tip):
    got = _contour(tip, 1e6, 4097)
    want = loop_contour(scalar_tip(tip))
    assert got.shape == want.shape == (4097,)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("tip", TIPS)
def test_winding_report_matches_scalar_loop(tip):
    got = winding_oracle(tip)
    want = winding_oracle(scalar_tip(tip))  # the callable form keeps its loop
    assert got.winding == want.winding
    assert got.residual == pytest.approx(want.residual, rel=0.0, abs=1e-12)
    assert got.min_abs == pytest.approx(want.min_abs, rel=1e-14)
    assert got.closure_gap == pytest.approx(want.closure_gap, rel=1e-10, abs=1e-15)


def test_p_free_tip_winds_zero():
    """The value has no p axis to broadcast from ("1 + 0*p" is covered
    in test_fredholm)."""
    rep = winding_oracle("1")
    assert rep.winding == 0
    assert rep.residual == 0.0
    assert rep.min_abs == 1.0
    assert rep.closure_gap == 0.0


@pytest.mark.parametrize(
    ("tip", "match"),
    [("p / (p + (0,1))", "zero"), ("p + (0,1)", "close")],
)
def test_oracle_errors_match_scalar_loop(tip, match):
    with pytest.raises(FredholmError, match=match) as got:
        winding_oracle(tip)
    with pytest.raises(FredholmError) as want:
        winding_oracle(scalar_tip(tip))
    assert str(got.value) == str(want.value)


def test_non_finite_tip_raises_eval_error():
    """p = 0 is on the grid, so 1/p is infinite there."""
    with pytest.raises(EvalError) as got:
        winding_oracle("1 / p")
    with pytest.raises(EvalError) as want:
        winding_oracle(scalar_tip("1 / p"))
    assert str(got.value) == str(want.value)


def test_matrix_dsl_tip_winds_by_determinant():
    """Entry [0, 0] of this tip is constant; its determinant is C."""
    tip = f"[[1, 0], [0, {CAYLEY}]]"
    assert winding_oracle(tip).winding == 1
    assert winding_oracle(ConeSymbolFamily(tip, q=2)).winding == 1
    assert winding_oracle(f"[[{CAYLEY}, 0.5], [0, {CAYLEY}]]").winding == 2
    assert winding_oracle(f"[[{CAYLEY}, 0], [0, 1 / ({CAYLEY})]]").winding == 0


def test_conormal_contour_is_stacked_determinant():
    c = ConeSymbolFamily(f"[[{CAYLEY} + 2, 0.2 / (1 + p^2)], [0, {CAYLEY}]]", q=2)
    got = _contour(c, 1e6, 513)
    want = loop_contour(lambda p: complex(np.linalg.det(loop_value(c, p))), n=513)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# --- conormal values ---------------------------------------------------------


def _conormals():
    circle = ConeSymbolFamily(
        "(p - (0,1)*(1 + 0.1*t^2)) / (p + (0,1)*(1 + 0.1*t^2)) + 2", base=Circle(8)
    )
    return {
        "point-q1": ConeSymbolFamily(f"{CAYLEY} + 2"),
        "point-q2": ConeSymbolFamily(
            f"[[{CAYLEY} + 2, 0.2 / (1 + p^2)], [0, 2 + 1 / (1 + p^2)]]", q=2
        ),
        "point-const": ConeSymbolFamily("1"),
        "circle": conormal(circle),
        "circle-const": ConeSymbolFamily("2", base=Circle(8)),
        "conj": conormal(pushforward_edge(circle, "x + 0.2*sin(x)")),
    }


PS = np.concatenate([np.linspace(-40.0, 40.0, 41), [0.1, -3e5, 1e9]])


@pytest.mark.parametrize("name", sorted(_conormals()))
def test_values_match_per_p_loop(name):
    c = _conormals()[name]
    got = c.value(PS)
    want = np.stack([loop_value(c, float(p)) for p in PS])
    d = c.base.n_x * c.q if isinstance(c.base, Circle) else c.q
    assert got.shape == want.shape == (PS.size, d, d)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
    np.testing.assert_array_equal(c.value(float(PS[3])), got[3])


@pytest.mark.parametrize("name", sorted(_conormals()))
def test_stacked_reductions_match_loops(name):
    c = _conormals()[name]
    s_min = [np.linalg.svd(loop_value(c, float(p)), compute_uv=False)[-1] for p in PS]
    np.testing.assert_allclose(c.min_singular(PS), s_min, rtol=1e-13, atol=1e-15)
    drift = max(
        float(np.linalg.norm(loop_value(c, s * 1e9) - loop_value(c, s * 1e6), 2))
        for s in (1.0, -1.0)
    )
    assert c.limit_drift() == pytest.approx(drift, rel=1e-10, abs=1e-14)


# --- ellipticity spheres -----------------------------------------------------


@pytest.mark.parametrize(
    "inst", elliptic_stock() + degenerate_stock(), ids=lambda inst: inst.name
)
def test_check_elliptic_matches_loops(inst):
    t = extract_tuple(inst.family)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = check_elliptic(t)
    interior = loop_sphere_min(t.sigma0.expr, 64, r=0.0)
    assert rep.interior_min == pytest.approx(interior, rel=1e-14, abs=1e-16)
    con = conormal(t.sigma1)
    profile = [
        np.linalg.svd(loop_value(con, float(p)), compute_uv=False)[-1]
        for p in np.linspace(-64.0, 64.0, 513)
    ]
    np.testing.assert_allclose(rep.conormal_profile, profile, rtol=1e-13, atol=1e-16)
    assert rep.conormal_min == pytest.approx(min(profile), rel=1e-13, abs=1e-16)


def test_parameter_family_sphere_matches_loop():
    g, expr = parameter_family()
    rep = large_parameter_scan(g, expr, lower_bound=0.5)
    assert rep.sphere_min == pytest.approx(loop_sphere_min(expr, 16), rel=1e-14)
    assert rep.passed


@pytest.mark.parametrize(
    "expr",
    [
        "(xi^2 + v^2 + 1) / (xi^2 + v^2 + 2)",
        "1 / (1 + v^2) + 0*xi",
        "0*xi + 0*v",
        "2 + sin(x) * xi / sqrt(1 + xi^2 + v^2)",
        "[[2 + cos(x), xi / sqrt(1 + xi^2 + v^2)], [0, 1]]",
    ],
)
def test_large_parameter_sphere_matches_loop(expr):
    e = parse(expr)
    rep = large_parameter_scan(Circle(32, q=shape_of(e)), e, v_values=(8.0, 16.0))
    want = loop_sphere_min(e, 16)
    assert rep.sphere_min == pytest.approx(want, rel=1e-14, abs=1e-16)
    assert rep.elliptic_with_parameter == (want >= 1e-6)
