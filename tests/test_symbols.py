"""Symbol classes: interior symbol validation, edge symbols and their
fibers, twisted homogeneity, conormal families, compatibility of
tuples, and pushforwards by circle diffeomorphisms, against mode-space
matrices built from the phase pairs of oracles.py."""

import numpy as np
import pytest

from oracles import phase_pair
from psdo.geometry import Circle, Cone, Point
from psdo.quantize import op_circle
from psdo.symbols import (
    ConeSymbolFamily,
    EdgeSymbol,
    InteriorSymbol,
    SymbolError,
    SymbolTuple,
    base_pullback,
    check_twisted_homogeneity,
    circle_inverse,
    compat_check,
    conormal,
    pushforward_edge,
    pushforward_interior,
)
from psdo.symexpr import evaluate, mul


# ---------------------------------------------------------------------------
# Oracles


def band_projector(c: Circle, k_max: int) -> np.ndarray:
    iFw, Fw = phase_pair(c.x, c.modes.astype(float))
    return iFw @ np.diag((np.abs(c.modes) <= k_max).astype(float)) @ Fw


def band_limited_probes(c: Circle, k_max: int, count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        coef = rng.normal(size=c.n_x) + 1j * rng.normal(size=c.n_x)
        coef[np.abs(c.modes) > k_max] = 0.0
        u = np.fft.ifft(coef) * c.n_x
        out.append(u / np.linalg.norm(u))
    return out


# ---------------------------------------------------------------------------
# Interior symbols


def test_interior_symbol_validation():
    with pytest.raises(SymbolError):
        InteriorSymbol("p")  # not an interior variable
    with pytest.raises(SymbolError):
        InteriorSymbol("chi(xi)", q=2)


# ---------------------------------------------------------------------------
# Edge symbols on point-base cones


def test_edge_symbol_identity():
    g = Cone(base=Point(), T=6.0, n_t=32)
    m = EdgeSymbol(ConeSymbolFamily("1"), g).at(x=0.0, xi=0.0, v=0.0).matrix
    assert np.max(np.abs(m - np.eye(g.n_t))) < 1e-12


def test_edge_symbol_mellin_multiplier_diagonal():
    g = Cone(base=Point(), T=6.0, n_t=32)
    m = EdgeSymbol(ConeSymbolFamily("p"), g).at(x=0.0, xi=0.0, v=0.0).matrix
    E, F = phase_pair(g.t, g.p)
    assert np.max(np.abs(F @ m @ E - np.diag(g.p))) < 1e-12


def test_edge_symbol_multiplication_operator():
    # P = w/(w + i) at v=1, xi=0 is multiplication by r/(r + i)
    g = Cone(base=Point(), T=6.0, n_t=32)
    m = EdgeSymbol(ConeSymbolFamily("w/(w + (0,1))"), g).at(x=0.0, xi=0.0, v=1.0).matrix
    oracle = np.diag(g.r / (g.r + 1j))
    assert np.max(np.abs(m - oracle)) < 1e-12


def test_edge_symbol_base_mismatch():
    fam = ConeSymbolFamily("p/(p+(0,1))", base=Circle(8))
    with pytest.raises(SymbolError):
        EdgeSymbol(fam, Cone(base=Point(), T=6.0, n_t=16))


def test_cone_family_validation():
    with pytest.raises(SymbolError):
        ConeSymbolFamily("t")  # mode variable without a circle base
    with pytest.raises(SymbolError):
        ConeSymbolFamily("xi")
    with pytest.raises(SymbolError):
        ConeSymbolFamily("[[p, 0], [0, p]]", base=Circle(8), q=2)


# ---------------------------------------------------------------------------
# Twisted homogeneity


def test_twisted_homogeneity_mellin_family():
    sig = EdgeSymbol(
        ConeSymbolFamily("(p - (0,1))/(p + (0,1))"),
        Cone(base=Point(), T=12.0, n_t=64),
    )
    rep = check_twisted_homogeneity(sig)
    assert rep.ks == tuple(range(1, 9))
    assert rep.max_violation <= 1e-10
    assert rep.passed


def test_twisted_homogeneity_two_sided_profile():
    # eta-dependence with equal limits at 0 and infinity stays exact
    # through the periodic seam
    sig = EdgeSymbol(
        ConeSymbolFamily("1 + eta^4/(1 + eta^8)"),
        Cone(base=Point(), T=12.0, n_t=64),
    )
    assert check_twisted_homogeneity(sig).max_violation <= 1e-10


def test_twisted_homogeneity_seam_leakage_is_real():
    # one-sided profiles disagree at the two window ends; the wrapped
    # nodes then violate the identity at O(1), and the report says so
    sig = EdgeSymbol(
        ConeSymbolFamily("chi(eta)"),
        Cone(base=Point(), T=12.0, n_t=64),
    )
    rep = check_twisted_homogeneity(sig)
    assert not rep.passed
    assert rep.max_violation > 1e-3


def test_twisted_homogeneity_needs_periodic_grid():
    sig = EdgeSymbol(
        ConeSymbolFamily("(p - (0,1))/(p + (0,1))"),
        Cone(base=Point(), T=12.0, n_t=64, boundary="interval"),
    )
    with pytest.raises(SymbolError):
        check_twisted_homogeneity(sig)


# ---------------------------------------------------------------------------
# Conormal symbols


def test_conormal_freezes_all_but_p():
    c = conormal(ConeSymbolFamily("p + w + eta^2 + x*r"))
    for p in (-2.0, 0.0, 3.5):
        assert abs(c.value(p)[0, 0] - p) < 1e-14


def test_conormal_mellin_quotient_unchanged():
    c = conormal(ConeSymbolFamily("(p - (0,1))/(p + (0,1))"))
    for p in (-4.0, 0.0, 1.0, 17.0):
        assert abs(c.value(p)[0, 0] - (p - 1j) / (p + 1j)) < 1e-14


def test_conormal_multiplicative():
    PA = ConeSymbolFamily("(p - (0,1))/(p + (0,1)) + w")
    PB = ConeSymbolFamily("p/(p + (0,2)) + eta")
    prod = ConeSymbolFamily(mul(PA.expr, PB.expr))
    cA, cB, cAB = conormal(PA), conormal(PB), conormal(prod)
    for p in (-3.0, 0.0, 1.7, 12.0):
        err = np.max(np.abs(cAB.value(p) - cA.value(p) @ cB.value(p)))
        assert err < 1e-12


def test_conormal_continuity_and_limits():
    c = conormal(ConeSymbolFamily("p/(p + (0,1))"))
    # |c(1e9) - c(1e6)| ~ 1e-6: converged to the frozen limit
    assert c.limit_drift(p_large=1e6, factor=1e3) < 1e-5


def test_conormal_circle_base_nodal_values():
    base = Circle(8)
    c = conormal(ConeSymbolFamily("(p - (0,1)*(1 + t^2))/(p + (0,1)*(1 + t^2))", base=base))
    iFw, Fw = phase_pair(base.x, base.modes.astype(float))
    mu = base.modes.astype(float)
    p0 = 1.3
    oracle = iFw @ np.diag((p0 - 1j * (1 + mu**2)) / (p0 + 1j * (1 + mu**2))) @ Fw
    assert np.max(np.abs(c.value(p0) - oracle)) < 1e-12


# ---------------------------------------------------------------------------
# Compatibility


def test_compat_trivial_tuple():
    t = SymbolTuple(InteriorSymbol("1"), ConeSymbolFamily("1"))
    rep = compat_check(t)
    assert rep.mismatch == 0.0
    assert rep.passed


def test_compat_constructed_violation():
    t = SymbolTuple(InteriorSymbol("1"), ConeSymbolFamily("2"))
    rep = compat_check(t)
    assert not rep.passed
    assert abs(rep.mismatch - 1.0) < 1e-12


def test_compat_matching_nontrivial_tuple():
    # interior symbol and family share the same equator limit; the 1/lam^2
    # correction from the +1 in the denominator sits far below tolerance
    sig0 = InteriorSymbol("(xi^2 - v^2)/(xi^2 + v^2)")
    fam = ConeSymbolFamily("(eta^2 - w^2)/(eta^2 + w^2 + 1)")
    rep = compat_check(SymbolTuple(sig0, fam))
    assert rep.passed


def test_symbol_tuple_fiber_mismatch():
    fam = ConeSymbolFamily("[[1, 0], [0, 1]]", q=2)
    with pytest.raises(SymbolError):
        SymbolTuple(InteriorSymbol("1"), fam)


def test_symbol_tuple_refuses_circle_base():
    # as extract_tuple, quantize_tuple and `psdo check` do: a circle-base
    # fiber has no q x q interior counterpart
    fam = ConeSymbolFamily("2 + chi(p)", base=Circle(8))
    with pytest.raises(SymbolError, match="point-base cone family, got a Circle base"):
        SymbolTuple(InteriorSymbol("2 + 0*xi"), fam)


# ---------------------------------------------------------------------------
# Interior pushforward


def test_pushforward_identity_map():
    a = InteriorSymbol("chi(xi)*exp((0,1)*x)")
    b = pushforward_interior(a, "x")
    xs = np.linspace(0.3, 6.0, 7)
    for x0 in xs:
        va = evaluate(a.expr, {"x": x0, "xi": 2.5})
        vb = evaluate(b.expr, {"x": x0, "xi": 2.5})
        assert np.max(np.abs(va - vb)) < 1e-12


def test_pushforward_rotation():
    a = InteriorSymbol("chi(xi)*exp((0,1)*x) + v/(xi + v + (0,1))")
    b = pushforward_interior(a, "x + 0.75")
    rng = np.random.default_rng(3)
    for _ in range(8):
        x0, xi0, v0 = rng.uniform(0.2, 6.0, size=3)
        va = evaluate(a.expr, {"x": x0 - 0.75, "xi": xi0, "v": v0})
        vb = evaluate(b.expr, {"x": x0, "xi": xi0, "v": v0})
        assert np.max(np.abs(va - vb)) < 1e-12


def test_pushforward_roundtrip_identity():
    f = "x + 0.3*sin(x)"
    finv = circle_inverse(f)
    a = InteriorSymbol("chi(xi)*exp((0,1)*x) + v/(xi + v + (0,1))")
    c = pushforward_interior(pushforward_interior(a, f), finv)
    rng = np.random.default_rng(11)
    for _ in range(12):
        x0, xi0, v0 = rng.uniform(0.2, 6.0, size=3)
        va = evaluate(a.expr, {"x": x0, "xi": xi0, "v": v0})
        vc = evaluate(c.expr, {"x": x0, "xi": xi0, "v": v0})
        assert np.max(np.abs(va - vc)) < 1e-10


def test_pushforward_rejects_critical_points():
    with pytest.raises(SymbolError):
        pushforward_interior(InteriorSymbol("chi(xi)"), "x + sin(x)")


def test_circle_inverse_rotation_exact():
    finv = circle_inverse("x + 0.75")
    xs = np.linspace(0.0, 6.0, 13)
    vals = evaluate(finv, {"x": xs}).reshape(-1)
    assert np.max(np.abs(vals - (xs - 0.75))) < 1e-14


def test_pushforward_egorov_intertwining():
    # op(a) V = V op(b) up to O(1/N) on band-limited probes, V the
    # half-density pullback; development-run residuals 2.11e-3 at N=64,
    # 1.06e-3 at N=128 (the dense conjugation V^{-1} op(a) V is not
    # computable: V is exponentially ill-conditioned above Nyquist)
    f = "x + 0.3*sin(x)"
    residuals = {}
    for n in (64, 128):
        g = Circle(n)
        a = InteriorSymbol(f"exp((0,1)*x)/(1 + (xi*{2.0 / n})^2)")
        b = pushforward_interior(a, f)
        A = op_circle(g, a.expr).matrix
        B = op_circle(g, b.expr).matrix
        V = base_pullback(g, f, polar=False)
        M = A @ V - V @ B
        residuals[n] = max(
            np.linalg.norm(M @ u) for u in band_limited_probes(g, n // 8, 20)
        )
    assert residuals[64] <= 2.5e-3
    assert residuals[128] <= 0.62 * residuals[64]


# ---------------------------------------------------------------------------
# Edge pushforward


def test_base_pullback_rotation_is_unitary_shift():
    c = Circle(16)
    Q = base_pullback(c, "x + 0.9", polar=True)
    G = base_pullback(c, "x + 0.9", polar=False)
    assert np.max(np.abs(Q - G)) < 1e-12
    assert np.max(np.abs(Q.conj().T @ Q - np.eye(16))) < 1e-12


def test_base_pullback_polar_matches_raw_on_low_modes():
    # development run: band gap 1.16e-3 at N=16, 6.12e-6 at N=32
    gaps = {}
    for n in (16, 32):
        c = Circle(n)
        Q = base_pullback(c, "x + 0.2*sin(x)", polar=True)
        G = base_pullback(c, "x + 0.2*sin(x)", polar=False)
        gaps[n] = np.linalg.norm((Q - G) @ band_projector(c, n // 8), 2)
    assert gaps[16] < 2e-3
    assert gaps[32] < 0.25 * gaps[16]


def test_pushforward_edge_identity():
    base = Circle(16)
    P = ConeSymbolFamily("(p - (0,1)*(1 + t^2))/(p + (0,1)*(1 + t^2))", base=base)
    Pid = pushforward_edge(P, "x")
    for p in (-2.0, 0.7):
        assert np.max(np.abs(conormal(Pid).value(p) - conormal(P).value(p))) < 1e-12


def test_pushforward_edge_rotation_preserves_singular_values():
    base = Circle(16)
    P = ConeSymbolFamily("(p - (0,1)*(1 + t^2))/(p + (0,1)*(1 + t^2))", base=base)
    Prot = pushforward_edge(P, "x + 0.9")
    for p in (-2.0, 0.0, 1.3):
        s0 = np.linalg.svd(conormal(P).value(p), compute_uv=False)
        s1 = np.linalg.svd(conormal(Prot).value(p), compute_uv=False)
        assert np.max(np.abs(s0 - s1)) < 1e-10


def test_pushforward_edge_smooth_diffeo_smin():
    base = Circle(16)
    P = ConeSymbolFamily("(p - (0,1)*(1 + t^2))/(p + (0,1)*(1 + t^2))", base=base)
    Pg = pushforward_edge(P, "x + 0.2*sin(x)")
    for p in (-2.0, 0.0, 1.3):
        s0 = np.linalg.svd(conormal(P).value(p), compute_uv=False)[-1]
        s1 = np.linalg.svd(conormal(Pg).value(p), compute_uv=False)[-1]
        assert abs(s0 - s1) <= 1.0 / base.n_x  # unitary pullback: actually ~1e-15
        assert abs(s0 - s1) < 1e-10


def test_pushforward_edge_conjugated_family_stays_twisted():
    base = Circle(16)
    P = ConeSymbolFamily("(p - (0,1)*(1 + t^2))/(p + (0,1)*(1 + t^2))", base=base)
    Pg = pushforward_edge(P, "x + 0.2*sin(x)")
    sig = EdgeSymbol(Pg, Cone(base=base, T=12.0, n_t=32))
    assert check_twisted_homogeneity(sig, ks=(1, 2, 3)).max_violation <= 1e-10


def test_pushforward_edge_requires_circle_base():
    with pytest.raises(SymbolError):
        pushforward_edge(ConeSymbolFamily("p"), "x + 0.1*sin(x)")


def test_pushforward_edge_rejects_folding_map():
    base = Circle(16)
    P = ConeSymbolFamily("(p - (0,1)*(1 + t^2))/(p + (0,1)*(1 + t^2))", base=base)
    with pytest.raises(SymbolError):
        pushforward_edge(P, "x + 1.1*sin(x)")
