"""The symbol calculus: composition remainders, symbol extraction and
its homomorphism, infinitesimal operators with their freezing ladders,
norms and memory, repeatability of the ladder, adjoints, and coherent
probes; the hand-built mode-space operators are Kohn-Nirenberg products
of oracles.py."""

import tracemalloc

import numpy as np
import pytest

from oracles import kn_product, phase_pair
from psdo.calculus import (
    CalculusError,
    NotTranslationInvariant,
    compose_symbols,
    extract_symbol,
    infinitesimal,
    probe_symbol,
)
from psdo.geometry import Circle, Cone, Edge, Point
from psdo.quantize import DiscretizedOperator, op_circle, op_edge, op_mellin, quantize, subtract_quantized
from psdo.stock import infinitesimal_stock
from psdo.symexpr import evaluate, mul, parse


# ---------------------------------------------------------------------------
# Oracles


def test_oracle_mode_shift_composition():
    # op(chi(xi)) op(e^{ix}) shifts every Fourier coefficient up one
    # mode (cyclically in FFT index order) and then applies chi: in
    # Kohn-Nirenberg form its symbol is e^{ix} times chi of the next mode
    # up, exactly (the mode that wraps, n/2 - 1 -> -n/2, gains
    # e^{-i n x_j} = 1). The closed-form symbol e^{ix} chi(xi+1) matches
    # away from the seam.
    g = Circle(128)
    n, k = g.n_x, g.modes.astype(float)
    lhs = op_circle(g, parse("chi(xi)")).matrix @ op_circle(g, parse("exp((0,1)*x)")).matrix
    E, F = phase_pair(g.x, k)
    up = np.roll(k, -1)
    S = np.exp(1j * g.x)[:, None, None, None] * (up / np.sqrt(1 + up**2))[None, :, None, None]
    oracle = kn_product(E, S, F).reshape(n, n)
    assert np.linalg.norm(lhs - oracle, 2) <= 1e-12
    # closed form agrees on mode content that stays below the seam
    rhs = op_circle(g, parse("exp((0,1)*x) * chi(xi + 1)")).matrix
    band = np.abs(k) <= n // 4
    P = E[:, band] @ F[band, :]
    assert np.linalg.norm((lhs - rhs) @ P, 2) <= 1e-12


def test_oracle_dft_conjugated_blocks_roundtrip():
    # Blocks conjugated into an operator by the block-circulant product
    # are recovered exactly.
    rng = np.random.default_rng(7)
    g = Circle(32, q=2)
    B = rng.standard_normal((32, 2, 2)) + 1j * rng.standard_normal((32, 2, 2))
    E, F = phase_pair(g.x, g.modes.astype(float))
    M = kn_product(E, B, F, row_free=True).reshape(64, 64)
    ex = extract_symbol(DiscretizedOperator(g, None, M))
    assert np.max(np.abs(ex.blocks - B)) <= 1e-12
    assert ex.max_offdiag <= 1e-12


# ---------------------------------------------------------------------------
# Composition


def test_multiplier_second_exact_every_order():
    # H2 independent of x: the product composes exactly and all the
    # higher expansion terms vanish symbolically.
    for n in (1, 2, 3):
        res = compose_symbols("exp((0,1)*x) * chi(xi)", "1 / (1 + xi^2)", n)
        assert max(res.remainder_norms) <= 1e-12


def test_multiplication_first_exact_at_order_one():
    res = compose_symbols("cos(x)", "xi / sqrt(1 + xi^2)", 1)
    assert max(res.remainder_norms) <= 1e-12


def test_chi_exp_remainder_slopes():
    bounds = {1: (-3.0, 1e-5), 2: (-4.5, 5e-7), 3: (-6.0, 1e-8)}
    for n, (slope_bound, tail_bound) in bounds.items():
        res = compose_symbols("chi(xi)", "exp((0,1) * x)", n)
        assert res.fitted_exponent <= slope_bound
        assert res.fitted_exponent <= -(n - 0.5)
        assert res.remainder_norms[-1] <= tail_bound
        assert res.xi_samples == (8.0, 16.0, 32.0, 64.0)


def test_expansion_is_symbolic_sum():
    res = compose_symbols("chi(xi)", "sin(x)", 2)
    xs = np.linspace(0.0, 2 * np.pi, 9)
    ks = np.array([-3.0, 0.0, 2.0, 17.0])
    got = evaluate(res.expansion, {"x": xs[:, None], "xi": ks[None, :]})
    chi = ks / np.sqrt(1 + ks**2)
    dchi = (1 + ks**2) ** -1.5
    want = chi * np.sin(xs[:, None]) + (-1j) * dchi * np.cos(xs[:, None])
    assert np.max(np.abs(got.reshape(9, 4) - want)) <= 1e-13


def test_truncation_order_validated():
    with pytest.raises(CalculusError):
        compose_symbols("chi(xi)", "sin(x)", 0)
    with pytest.raises(CalculusError):
        compose_symbols("chi(xi)", "sin(x)", 7)


# ---------------------------------------------------------------------------
# Extraction


def test_extract_identity():
    ex = extract_symbol(DiscretizedOperator(Circle(16), None, np.eye(16)))
    assert np.max(np.abs(ex.blocks.reshape(-1) - 1.0)) <= 1e-14
    assert ex.esssup_gap <= 1e-10


def test_extract_multiplier_blocks():
    g = Circle(64)
    ex = extract_symbol(op_circle(g, parse("xi / sqrt(1 + xi^2)")))
    k = g.modes.astype(float)
    assert np.max(np.abs(ex.blocks.reshape(-1) - k / np.sqrt(1 + k**2))) <= 1e-12
    assert ex.esssup_gap <= 1e-10
    assert ex.axis == "x"
    assert np.array_equal(ex.modes, k)


def test_extract_rejects_multiplication_operator():
    A = op_circle(Circle(64), parse("cos(x)"))
    with pytest.raises(NotTranslationInvariant) as info:
        extract_symbol(A)
    # cos splits into two shifted modes of weight 1/2
    assert abs(info.value.max_offdiag - 0.5) <= 1e-12
    assert isinstance(info.value, CalculusError)


def test_extract_cone_t_axis():
    cone = Cone(Point(), T=6.0, n_t=64)
    ex = extract_symbol(op_mellin(cone, parse("p / sqrt(1 + p^2)")))
    pk = cone.p
    assert ex.axis == "t"
    assert np.max(np.abs(ex.blocks.reshape(-1) - pk / np.sqrt(1 + pk**2))) <= 1e-12
    assert ex.esssup_gap <= 1e-10


def test_extract_edge_x_axis():
    edge = Edge(Circle(8), Cone(Point(), T=6.0, n_t=16))
    A = op_edge(edge, parse("(p + (0,1)*w) / (p + eta + (0,2)*(1 + w^2))"), v=1.0)
    ex = extract_symbol(A)  # an edge's default axis is x
    assert ex.axis == "x"
    assert ex.blocks.shape == (8, 16, 16)
    assert ex.max_offdiag <= 1e-12
    assert ex.esssup_gap <= 1e-10


def test_extract_interval_mode_rejected():
    cone = Cone(Point(), T=6.0, n_t=32, boundary="interval")
    A = op_mellin(cone, parse("p / sqrt(1 + p^2)"))
    with pytest.raises(CalculusError):
        extract_symbol(A)


# ---------------------------------------------------------------------------
# Symbol homomorphism


def test_homomorphism_exact_for_multipliers():
    g = Circle(64)
    m1, m2 = parse("chi(xi)"), parse("1 / (1 + xi^2)")
    ex = extract_symbol(DiscretizedOperator(g, None, op_circle(g, m1).matrix @ op_circle(g, m2).matrix))
    k = g.modes.astype(float)
    prod = evaluate(mul(m1, m2), {"xi": k}).reshape(-1)
    assert np.max(np.abs(ex.blocks.reshape(-1) - prod)) <= 1e-12


def test_homomorphism_exact_with_multiplier_factor():
    # One multiplier factor: the operator identity op(a) op(m) = op(a m)
    # holds exactly even for x-dependent a.
    g = Circle(64)
    a, m = parse("exp((0,1)*x) * (2 + cos(x)) * chi(xi)"), parse("1 / (1 + xi^2)")
    lhs = op_circle(g, a).matrix @ op_circle(g, m).matrix
    rhs = op_circle(g, mul(a, m)).matrix
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-12


def test_homomorphism_mode_scaled_error_halves():
    # Designed invariant pair: op(e^{ix} g1) op(e^{-ix} g2) is exactly
    # translation invariant, but its symbol is g1(xi-1) g2(xi), so the
    # gap to the pointwise product g1 g2 scales like the mode step 1/N.
    errs = {}
    for n in (64, 128, 256):
        g = Circle(n)
        a = parse(f"exp((0,1)*x) / (1 + (2*xi/{n})^2)")
        b = parse(f"exp(-(0,1)*x) * (1 + 0.5 / (1 + (2*xi/{n})^2))")
        ex = extract_symbol(DiscretizedOperator(g, None, op_circle(g, a).matrix @ op_circle(g, b).matrix))
        k = g.modes.astype(float)
        prod = evaluate(mul(a, b), {"x": 0.0, "xi": k}).reshape(-1)
        errs[n] = float(np.max(np.abs(ex.blocks.reshape(-1) - prod)))
    assert errs[64] <= 3.2e-2
    assert errs[128] <= 0.55 * errs[64]
    assert errs[256] <= 0.55 * errs[128]


# ---------------------------------------------------------------------------
# Infinitesimal operators


def test_frozen_input_is_fixed_point():
    g = Circle(64)
    res = infinitesimal(g, "chi(xi)", z=0.0)
    assert max(res.diagnostics.d_right) <= 1e-10
    assert res.diagnostics.converged
    assert np.array_equal(res.operator.matrix, op_circle(g, parse("chi(xi)")).matrix)


def test_freezing_pattern_product_symbol():
    # a(x, xi) = f(x) chi(xi) freezes to f(0) chi(xi)
    g = Circle(64)
    res = infinitesimal(g, "(2 + sin(x)) * chi(xi)", z=0.0)
    want = op_circle(g, parse("2 * chi(xi)")).matrix
    assert np.max(np.abs(res.operator.matrix - want)) <= 1e-14


def test_circle_flat_coefficient_converges():
    g = Circle(256)
    res = infinitesimal(g, "chi(xi) + (1 - cos(x))^2", z=0.0)
    d = res.diagnostics
    assert d.converged and d.non_increasing
    assert d.final <= 1e-3
    assert len(d.lambdas) >= 5
    assert res.translation_defect() <= 1e-10
    A = op_circle(g, parse("chi(xi) + (1 - cos(x))^2"))
    assert res.operator.norm() <= A.norm() * (1 + 1e-12)


def test_cone_collar_ladder_halves():
    cone = Cone(Point(), T=8.0, n_t=96)
    res = infinitesimal(cone, "chi(p) + r / (1 + r)")
    d = res.diagnostics
    assert d.converged and d.non_increasing
    assert d.final <= 1e-3
    ratios = [d.d_right[i + 1] / d.d_right[i] for i in range(1, len(d.d_right) - 1)]
    assert all(0.4 <= r <= 0.6 for r in ratios)
    assert res.translation_defect() == 0.0
    A = op_mellin(cone, parse("chi(p) + r / (1 + r)"))
    assert res.operator.norm() <= A.norm() * (1 + 1e-12)


def test_edge_ladder_converges():
    edge = Edge(Circle(16), Cone(Point(), T=8.0, n_t=64))
    expr = "(p + (0,1)*w) / sqrt(1 + p^2 + eta^2 + w^2) + r / (1 + r)"
    res = infinitesimal(edge, expr, z=0.0, v=1.0)
    d = res.diagnostics
    assert d.converged and d.non_increasing
    assert d.final <= 1e-3
    assert res.translation_defect() <= 1e-10
    A = op_edge(edge, parse(expr), v=1.0)
    assert res.operator.norm() <= A.norm() * (1 + 1e-12)
    assert res.source_norm == A.norm()


def test_stock_edge_freezing_holds_one_and_a_half_operators():
    # one 1024^2 array at a time: A's norm takes its Gram in A's buffer,
    # A - A_z streams A_z's rows into A's, and the translation defect
    # forms each commutator and its Gram in a fresh A_z. Each of those
    # phases stays under 1.5 operators (24 MiB): 22.5 and 21.4 MiB
    # measured. The frozen norm assembles only the 16 mode blocks (1 MiB)
    # and stays under a quarter operator (4 MiB): 2.45 MiB measured.
    g, expr, z = next(s for s in infinitesimal_stock() if isinstance(s[0], Edge))
    peaks = []
    tracemalloc.start()
    try:
        inst = infinitesimal(g, expr, z=z)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        inst.translation_defect()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        norm = inst.norm()
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert g.dim_total == 1024
    assert max(peaks[:2]) <= 1.5 * 1024**2 * 16
    assert peaks[2] <= 0.25 * 1024**2 * 16
    assert norm == inst.operator.norm()


def test_frozen_operator_is_the_frozen_quantization():
    # built on first read, from the frozen expression at the same v
    for g, expr, v in [
        (Circle(64), "(2 + sin(x)) * chi(xi)", 0.0),
        (Edge(Circle(8), Cone(Point(), T=8.0, n_t=32)), "chi(p) + r / (1 + r) + 0.1 * (1 - cos(x))^2 * chi(eta)", 1.5),
        (Edge(Circle(8), Cone(Point(), T=4.0, n_t=16, boundary="interval")), "chi(p) + 0.2 * sin(x) * chi(eta)", 0.5),
    ]:
        inst = infinitesimal(g, expr, z=0.3, v=v)
        want = quantize(g, inst.frozen_expr, v=v, freeze_r=True)
        assert np.array_equal(inst.operator.matrix, want.matrix)
        assert inst.operator is inst.operator
        # on edges the frozen family is x-free, and its norm comes from
        # the mode blocks alone, with the operator's bits
        assert inst.norm() == inst.operator.norm()


@pytest.mark.parametrize(
    "g",
    [
        Edge(Circle(16), Cone(Point(), T=8.0, n_t=64)),
        Edge(Circle(8, q=2), Cone(Point(), T=4.0, n_t=16, q=2, boundary="interval")),
        Edge(Circle(8), Cone(Circle(8), T=4.0, n_t=8, boundary="interval")),
    ],
)
def test_subtract_quantized_equals_whole_difference(g):
    # an x-free edge family streams its rows into M, over several row
    # blocks at 16 x 64; interval cones subtract interior rows only
    q2 = "[[chi(p) + r / (1 + r), 0.2 * w], [(0,0.3) * chi(eta), 2 + chi(p)]]"
    expr = parse(q2 if g.q == 2 else "chi(p) + r / (1 + r) + 0.3 * chi(eta) * chi(w)")
    M = quantize(g, parse("1 + 0.2 * sin(x)") if g.q == 1 else parse("[[1 + 0.2 * sin(x), 0], [0, 1]]"), v=1.5).matrix
    want = M - quantize(g, expr, v=1.5, freeze_r=True).matrix
    assert subtract_quantized(M, g, expr, v=1.5, freeze_r=True) is M
    assert np.array_equal(M, want)


def test_nonlocal_departure_reported_not_fatal():
    # f(x) chi(xi) leaks mass off the shrinking support, so the
    # right-placed diagnostics stall; this is reported, not raised.
    res = infinitesimal(Circle(64), "(2 + sin(x)) * chi(xi)", z=0.0)
    d = res.diagnostics
    assert not d.converged
    assert d.non_increasing


def test_ladder_respects_grid_resolution():
    with pytest.raises(CalculusError):
        infinitesimal(Circle(8), "chi(xi) + (1 - cos(x))^2", z=0.0)


# ---------------------------------------------------------------------------
# Repeatability


def test_consistency_identical_ladders():
    g = Circle(256)
    expr = "chi(xi) + (1 - cos(x))^2"
    a = infinitesimal(g, expr, z=0.0)
    b = infinitesimal(g, expr, z=0.0)
    assert a.diagnostics.d_right == b.diagnostics.d_right


# ---------------------------------------------------------------------------
# Adjoints


def test_adjoint_involution_exact():
    A = op_circle(Circle(64), parse("(2 + sin(x)) * chi(xi)"))
    assert np.array_equal(A.adjoint().adjoint().matrix, A.matrix)


def test_adjoint_of_multiplication_conjugates():
    g = Circle(32)
    A = op_circle(g, parse("exp((0,1) * x)")).adjoint()
    want = op_circle(g, parse("exp(-(0,1) * x)")).matrix
    assert np.max(np.abs(A.matrix - want)) <= 1e-14
    I = DiscretizedOperator(g, None, np.eye(32))
    assert np.array_equal(I.adjoint().matrix, I.matrix)


def test_adjoint_inner_product_oracle():
    # weighted inner product h_t sum conj(u) w r^(n+1) of natural
    # samples on a point-base cone (n = 0); matrices act on the flat
    # representation W u with W = r^(1/2), which makes the adjoint the
    # plain conjugate transpose
    rng = np.random.default_rng(3)
    cone = Cone(Point(), T=6.0, n_t=32)
    W = cone.r**0.5
    A = op_mellin(cone, parse("(p + (0,1)) / (p + 2*(0,1)) + r / (1 + r^2)"))
    As = A.adjoint()

    def inner(a, b):
        return cone.h_t * np.sum(np.conj(a) * b * cone.r)

    for _ in range(10):
        u = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) / W
        w = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) / W
        Au = (A.matrix @ (W * u)) / W
        Asw = (As.matrix @ (W * w)) / W
        assert abs(inner(Au, w) - inner(u, Asw)) <= 1e-12


# ---------------------------------------------------------------------------
# Coherent probes


def probe_sup_error(N: int) -> float:
    """Worst probe error for sin(x) chi(2 xi / N) over an (x0, k) grid
    away from the Nyquist seam."""
    g = Circle(N)
    s = 2.0 / N
    A = op_circle(g, parse(f"sin(x) * chi({s} * xi)"))
    worst = 0.0
    for x0 in g.x[:: N // 8]:
        for k in range(-N // 4, N // 4 + 1, N // 32):
            want = np.sin(x0) * (s * k) / np.sqrt(1.0 + (s * k) ** 2)
            got = probe_symbol(A, float(x0), int(k))
            worst = max(worst, abs(got - want))
    return worst


def test_probe_symbol_mode_scaled_error_halves():
    e64 = probe_sup_error(64)
    e128 = probe_sup_error(128)
    assert e64 <= 1.1 / 64
    assert e128 <= 0.62 * e64


def test_probe_symbol_multiplier_is_near_exact_off_transition():
    # constant-in-x symbols: the packet averages a locally linear
    # profile, so the quotient sits on the symbol to second order
    g = Circle(64)
    A = op_circle(g, parse("chi(0.03125 * xi)"))
    got = probe_symbol(A, 0.0, 0)
    assert abs(got - 0.0) <= 1e-2


def test_probe_symbol_needs_scalar_circle():
    cone = Cone(Point(), T=6.0, n_t=16)
    A = op_mellin(cone, parse("1 + 0*p"))
    with pytest.raises(CalculusError):
        probe_symbol(A, 0.0, 0)
