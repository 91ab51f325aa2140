"""Quantizers: op_circle, op_mellin and op_edge against the dense
references of oracles.py and against their defining identities (Fourier
multipliers, restrictions, mode blocks, adjoints, parameter families);
the memory contract of every dense assembly under tracemalloc; and
synthesis and the DFT matrix bit for bit against the full-table
expressions."""

import tracemalloc

import numpy as np
import pytest

from oracles import (
    assert_matches_oracle,
    assert_same_bits,
    circle_analysis,
    circle_reference,
    edge_reference,
    extract_reference,
    kron_flat_matrix,
    mellin_reference,
    phase_pair,
)
from psdo.fredholm import _op_interior_on_edge
from psdo.geometry import Circle, Cone, Edge, Point, axis_layout, cutoff_family
from psdo.quantize import (
    NegligibleVerdict,
    QuantizeError,
    _dft_matrix,
    _mellin_fibers,
    analysis_matrix,
    dyadic_ladder,
    kn_circulant,
    negligible_test,
    op_circle,
    op_edge,
    op_mellin,
    quantize,
    synthesis,
)
from psdo.symexpr import parse, evaluate


# ---------------------------------------------------------------------------


class TestOpCircle:
    def test_against_naive_oracle(self):
        g = Circle(16)
        expr = parse("exp((0,1)*x)*chi(xi)")
        want = circle_reference(g, expr)
        got = op_circle(g, expr).matrix
        assert np.max(np.abs(got - want)) < 1e-12

    def test_matrix_symbol_against_naive_oracle(self):
        g = Circle(8, q=2)
        expr = parse("[[chi(xi), exp((0,1)*x)],[0, 1]]")
        want = circle_reference(g, expr)
        got = op_circle(g, expr).matrix
        assert np.max(np.abs(got - want)) < 1e-12

    def test_x_independent_is_fourier_multiplier(self):
        g = Circle(32)
        D = extract_reference(op_circle(g, parse("chi(xi)")), 1, 32, 1, g.x, g.modes.astype(float))[..., 0, 0]
        assert np.max(np.abs(D - np.diag(np.diag(D)))) < 1e-12
        assert np.max(np.abs(np.diag(D) - evaluate(parse("chi(xi)"), {"xi": g.modes.astype(float)})[:, 0, 0])) < 1e-12

    def test_multiplication_times_multiplier_is_exact(self):
        # symbol a(x)b(xi) quantizes to the exact product diag(a) op(b)
        g = Circle(64)
        ab = op_circle(g, parse("exp((0,1)*x)*chi(xi)"))
        a = op_circle(g, parse("exp((0,1)*x)"))
        b = op_circle(g, parse("chi(xi)"))
        assert np.max(np.abs(ab.matrix - a.matrix @ b.matrix)) < 1e-13

    def test_parameter_required(self):
        g = Circle(8)
        with pytest.raises(QuantizeError):
            op_circle(g, parse("chi(v)*chi(xi)"))

    def test_shape_mismatch(self):
        g = Circle(8, q=2)
        with pytest.raises(QuantizeError):
            op_circle(g, parse("chi(xi)"))


class TestOpMellin:
    def test_unitary_multiplier(self):
        g = Cone(Point(), T=6.0, n_t=64)
        A = op_mellin(g, parse("(p-(0,1))/(p+(0,1))"))
        sv = A.singular_values()
        assert np.max(np.abs(sv - 1.0)) < 1e-10

    def test_against_naive_oracle(self):
        g = Cone(Point(), T=3.0, n_t=16)
        expr = parse("chi(p)/(1+r)")
        want = mellin_reference(g, expr)
        got = op_mellin(g, expr).matrix
        assert np.max(np.abs(got - want)) < 1e-12

    def test_pure_multiplier_is_diagonal_in_t_modes(self):
        g = Cone(Point(), T=4.0, n_t=32)
        D = extract_reference(op_mellin(g, parse("p")), 1, 32, 1, g.t, g.p)[..., 0, 0]
        assert np.max(np.abs(D - np.diag(np.diag(D)))) < 1e-9
        assert np.max(np.abs(np.sort(np.diag(D).real) - np.sort(g.p))) < 1e-9

    def test_w_multiplication_example(self):
        # P = w/(w+i) at v=1, xi=0 is multiplication by r/(r+i)
        g = Cone(Point(), T=6.0, n_t=64)
        A = op_mellin(g, parse("w/(w+(0,1))"), v=1.0).matrix
        want = np.diag(g.r / (g.r + 1j))
        assert np.max(np.abs(A - want)) < 1e-12

    def test_freeze_r_zeroes_explicit_slot_only(self):
        g = Cone(Point(), T=6.0, n_t=32)
        a = op_mellin(g, parse("r + w/(w+(0,1))"), v=1.0, freeze_r=True).matrix
        b = op_mellin(g, parse("w/(w+(0,1))"), v=1.0).matrix
        assert np.max(np.abs(a - b)) < 1e-14

    def test_interval_restriction_is_principal_submatrix(self):
        # of the periodic-window product: the skew FFT's, within the bound
        # of the exact-phase one
        gi = Cone(Point(), T=6.0, n_t=32, boundary="interval")
        expr = parse("(p-(0,1))/(p+(0,1))")
        Ap = _mellin_fibers(gi, expr, 0.0, 0.0, 0.0, False)
        Ai = op_mellin(gi, expr)
        assert Ai.interior
        assert Ai.matrix.shape == (31, 31)
        assert np.array_equal(Ai.matrix, Ap[1:, 1:])
        assert_matches_oracle(Ap, mellin_reference(gi, expr), expr, gi, x_axis=False)
        assert axis_layout(gi).n == 31 and np.array_equal(axis_layout(gi).nodes, gi.t[1:])

    def test_support_policy_violation(self):
        g = Cone(Point(), T=6.0, n_t=32, boundary="interval")
        with pytest.raises(QuantizeError):
            op_mellin(g, parse("sin(r)"))

    def test_circle_base_mode_diagonal(self):
        base = Circle(8)
        g = Cone(base, T=4.0, n_t=16)
        expr = parse("(p-(0,1)*(1+t^2))/(p+(0,1)*(1+t^2))")
        # conjugated to omega modes, the t axis kept: D[m1, m2] is (t, t')
        D = extract_reference(op_mellin(g, expr), 16, 8, 1, base.x, base.modes.astype(float))
        pt = Cone(Point(), T=4.0, n_t=16)
        for m_idx, mu in enumerate(base.modes):
            per_mode = op_mellin(pt, parse(f"(p-(0,1)*(1+{float(mu*mu+1)-1.0}))/(p+(0,1)*(1+{float(mu*mu+1)-1.0}))")).matrix
            assert np.max(np.abs(D[m_idx, m_idx] - per_mode)) < 1e-10
        # off-diagonal mode blocks vanish
        assert max(np.max(np.abs(D[m1, m2])) for m1 in range(8) for m2 in range(8) if m1 != m2) < 1e-10


class TestOpEdge:
    def test_x_independent_matches_fiber_mellin(self):
        circ = Circle(8)
        cone = Cone(Point(), T=4.0, n_t=16)
        g = Edge(circ, cone)
        expr = parse("chi(eta)*(p-(0,1))/(p+(0,1))")
        D = extract_reference(op_edge(g, expr, v=0.5), 1, 8, 16, circ.x, circ.modes.astype(float))
        for k_idx, k in enumerate(circ.modes):
            want = op_mellin(cone, expr, v=0.5, xi=float(k)).matrix
            assert np.max(np.abs(D[k_idx, k_idx] - want)) < 1e-12
        assert max(np.max(np.abs(D[k1, k2])) for k1 in range(8) for k2 in range(8) if k1 != k2) < 1e-12

    def test_chi_eta_against_dense_oracle(self):
        # 16 x 32 grid, v = 0
        g = Edge(Circle(16), Cone(Point(), T=6.0, n_t=32))
        A = op_edge(g, parse("chi(eta)"), v=0.0).matrix
        assert np.max(np.abs(A - edge_reference(g, parse("chi(eta)"))[0])) < 1e-12

    def test_x_dependent_against_dense_oracle(self):
        g = Edge(Circle(8), Cone(Point(), T=3.0, n_t=8))
        expr = parse("(1 + 0.5*sin(x))*chi(eta)*(p-(0,1))/(p+(0,1))")
        A = op_edge(g, expr, v=0.0).matrix
        assert np.max(np.abs(A - edge_reference(g, expr)[0])) < 1e-11

    def test_interval_mode_restricts_fiber(self):
        circ = Circle(8)
        cone = Cone(Point(), T=4.0, n_t=16, boundary="interval")
        g = Edge(circ, cone)
        A = op_edge(g, parse("(p-(0,1))/(p+(0,1))"), v=0.0)
        assert A.interior
        assert A.matrix.shape == (8 * 15, 8 * 15)


class TestInvariants:
    def test_commutator_locality_semiclassical(self):
        # || [op(a_N), f] || = O(1/N) for mode-scaled symbols; the scaled
        # profile must be smooth across the Nyquist seam (even profile)
        f_src = "1 + 0.5*sin(x)"
        norms = {}
        for n in (64, 128):
            g = Circle(n)
            a = parse(f"1/(1 + (xi*{2.0 / n})^2) * exp((0,1)*x)")
            A = op_circle(g, a).matrix
            Fm = np.diag(evaluate(parse(f_src), {"x": g.x})[:, 0, 0])
            norms[n] = np.linalg.norm(A @ Fm - Fm @ A, 2)
        assert norms[128] < 0.62 * norms[64]

    def test_parameter_lipschitz_decay(self):
        # ||A(v+d) - A(v)|| decays like (1 + |v|)^-1 for this family
        g = Circle(32)
        expr = parse("(xi + (0,1)*v)/sqrt(1 + xi^2 + v^2)")
        d = 0.25
        slopes = {}
        for v in (1.0, 8.0, 64.0):
            A1 = op_circle(g, expr, v=v).matrix
            A2 = op_circle(g, expr, v=v + d).matrix
            slopes[v] = np.linalg.norm(A2 - A1, 2) / d
        c = slopes[1.0] * (1 + 1.0)
        assert slopes[8.0] <= 1.5 * c / (1 + 8.0)
        assert slopes[64.0] <= 1.5 * c / (1 + 64.0)

    def test_localized_seminorm_dilation_invariant(self):
        # Delta a pure Mellin multiplier: conjugation by kappa is exact,
        # so the cutoff-localized seminorm is shift invariant
        from psdo.geometry import DilationAction

        g = Cone(Point(), T=6.0, n_t=128)
        Delta = op_mellin(g, parse("(p-(0,1))/(p+(0,1)) - 1"))
        fam = cutoff_family(g, center=0.0, n_scales=1, base_scale=2.0, axis_name="t")
        phi = np.diag(fam[0].astype(complex))
        base = np.linalg.norm(phi @ Delta.matrix @ phi, 2)
        for k in (4, 9):
            d = DilationAction(g, k)
            phi_l = np.diag(np.roll(fam[0], k).astype(complex))
            moved = np.linalg.norm(phi_l @ Delta.matrix @ phi_l, 2)
            assert abs(moved - base) < 1e-10 * max(1.0, base)
            # and the operator itself is dilation invariant
            K = kron_flat_matrix(d)
            assert np.max(np.abs(K @ Delta.matrix @ K.conj().T - Delta.matrix)) < 1e-10

    def test_identity_and_adjoint(self):
        g = Circle(16)
        A = op_circle(g, parse("exp((0,1)*x)*chi(xi)"))
        assert np.max(np.abs(A.adjoint().matrix - A.matrix.conj().T)) == 0.0


class TestFamilies:
    def test_dyadic_ladder(self):
        vs = dyadic_ladder(3)
        assert 0.0 in vs and 8.0 in vs and -8.0 in vs
        assert len(vs) == 9

    def test_negligible_accepts_decaying_family(self):
        g = Circle(16)
        expr = parse("exp(-abs(v))*chi(xi)")
        verdict = negligible_test(lambda v: op_circle(g, expr, v), order=4, tau=50.0)
        assert isinstance(verdict, NegligibleVerdict)
        assert verdict.accepted
        assert len(verdict.v_values) >= 3

    def test_negligible_rejects_identity(self):
        g = Circle(16)
        expr = parse("1 + 0*chi(xi)")
        verdict = negligible_test(lambda v: op_circle(g, expr, v), order=4, tau=50.0, v_values=dyadic_ladder())
        assert not verdict.accepted

    def test_negligible_needs_three_samples(self):
        g = Circle(16)
        expr = parse("chi(xi)")
        built = []

        def build(v):
            built.append(v)
            return op_circle(g, expr, v)

        with pytest.raises(QuantizeError):
            negligible_test(build, v_values=(0.0, 1.0))
        assert built == []  # the ladder is checked before any operator is built

    def test_quantize_dispatch(self):
        assert quantize(Circle(8), parse("chi(xi)")).matrix.shape == (8, 8)
        assert quantize(Cone(Point(), n_t=16), parse("chi(p)")).matrix.shape == (16, 16)
        g = Edge(Circle(8), Cone(Point(), n_t=16))
        assert quantize(g, parse("chi(eta)")).matrix.shape == (128, 128)


def test_kn_circulant_refuses_an_overflowing_product():
    # every entry sums two products of 1e308: inf, refused before a
    # block reaches the consumer
    E, B, F = np.ones((2, 2)), np.full((2, 1, 1), 1e308 + 0j), np.ones((2, 2))
    for consume in (None, lambda js, block: pytest.fail("an overflowing block was consumed")):
        with pytest.raises(QuantizeError, match="non-finite"):
            kn_circulant(E, B, F, consume)


@pytest.mark.parametrize("n", [8, 16, 64, 256, 1024])
def test_dft_matrix_bits_match_column_transform(n):
    assert np.array_equal(_dft_matrix(n), circle_analysis(n))


# bytes beside the arrays a memory contract counts: index arrays, small
# axis arrays and numpy's iteration buffers for broadcast operands
SMALL = 2**19


def traced_peak(build):
    """Traced peak of one call of build, after a warm-up call, and its
    result."""
    build()
    tracemalloc.start()
    try:
        out = build()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_op_circle_memory_budget():
    # kn_assemble's memory contract on an x-dependent circle grid: the
    # buffer P and one streamed block of the symbol grid (2 MiB), whose
    # rows the FFT analyses in place: 1.15x at 1024
    expr = parse("(2 + sin(x)) * chi(xi)")
    op_circle(Circle(8), expr)
    tracemalloc.start()
    try:
        A = op_circle(Circle(1024), expr).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * A.nbytes + SMALL


def test_point_cone_memory_budget():
    # at n_t = 1024, periodic t axes keep the analysis matrix F = E^H/n
    # beside P and one streamed block of the grid: 2.144x; interval ones
    # take the skew FFT in P, and the interior restriction copies P's
    # interior (0.998x) while P is live: 2.011x
    expr = parse("1.3 + 0.4*chi(p) + 0.2*r/(1 + r)")
    for boundary, multiple in [("periodic", 2.15), ("interval", 2.02)]:
        g = Cone(Point(), T=8.0, n_t=1024, boundary=boundary)
        peak, op = traced_peak(lambda: op_mellin(g, expr))
        assert peak <= multiple * op.matrix.nbytes + SMALL


def test_xdep_op_edge_memory_budget():
    # the x-dependent edge streams its fibers by blocks of two x rows
    # into P, in output order: P, one block's fibers (1/8 of P) and that
    # fiber call's own t-axis block, then the shift buffer (1/8 of P)
    # once the fibers are gone: 1.2783x
    g = Edge(Circle(16), Cone(Point(), T=6.0, n_t=64))
    expr = parse("1.2 + 0.5*chi(p) + 0.3*w/(1 + w) + 0.2*(1 - cos(x))*chi(eta)")
    peak, op = traced_peak(lambda: op_edge(g, expr, v=1.0))
    assert peak <= 1.30 * op.matrix.nbytes + SMALL


def test_interior_on_edge_memory_budget():
    # the output and P (1/64 of it); the shift buffer, at most P's
    # size, is gone before the output comes: 1.0163x
    g = Edge(Circle(16), Cone(Point(), T=6.0, n_t=64))
    expr = parse("1 + chi(xi)*cos(x) + r/(1 + r) + v*xi/(1 + xi^2)")
    peak, A = traced_peak(lambda: _op_interior_on_edge(g, expr, 2.0))
    assert peak <= 1.017 * A.nbytes + SMALL


def test_xfree_op_edge_memory_budget():
    # kn_circulant fills its output in blocks of j rows: the output, the
    # mode blocks (1/16 of it) and one 2 MiB block's contraction
    g = Edge(Circle(16), Cone(Point(), T=6.0, n_t=64))
    expr = parse("1.2 + 0.5*chi(p) + 0.3*w/(1 + w) + 0.2*chi(eta)")
    peak, op = traced_peak(lambda: op_edge(g, expr, v=1.0))
    assert peak <= 1.19 * op.matrix.nbytes + SMALL


def test_dft_matrix_memory_budget():
    # F plus one 2 MiB identity slab and its transform
    peak, F = traced_peak(lambda: _dft_matrix(1024))
    assert peak <= 1.25 * F.nbytes + SMALL


def test_evaluate_memory_budget():
    # a sum of x-by-xi terms: the running sum and the current term
    g = Circle(1024)
    expr = parse("1.5 + 0.5*cos(x)*chi(xi) + 0.3*sin(2*x)/(1 + (0.1*xi)^2) + (0,0.2)*exp((0,1)*x)*xi/(1 + xi^2)")
    bindings = {"x": g.x[:, None], "xi": g.modes.astype(float)[None, :]}
    peak, S = traced_peak(lambda: evaluate(expr, bindings))
    assert S.shape == (1024, 1024, 1, 1)
    assert peak <= 2 * S.nbytes + SMALL


# ---------------------------------------------------------------------------
# synthesis: the phase table against the full-table expression


def _odd_circle(n):
    return 2 * np.pi / n * np.arange(n), np.fft.fftfreq(n, d=1.0 / n)


def _cone_axes(base, boundary, T, n_t):
    g = Cone(base, T=T, n_t=n_t, boundary=boundary)
    return g.t, g.p


def _pushforward_nodes():
    # the nodes of symbols.base_pullback: a warped base circle
    c = Circle(64)
    return evaluate(parse("x + 0.3*sin(x) - 0.1*cos(2*x)"), {"x": c.x}).reshape(-1).real, c.modes.astype(float)


SIGNED_ZEROS = np.array([0.0, -0.0, 1.0, -1.0, 2.5e-308, 5e-324, -5e-324, 1e-310, -3.0])
SYNTHESIS_GRIDS = {
    **{f"circle-{n}": (Circle(n).x, Circle(n).modes.astype(float)) for n in (8, 16, 32, 64, 100, 128, 256, 512, 1024)},
    **{f"odd-{n}": _odd_circle(n) for n in (1, 3, 9, 17, 101, 255)},
    **{
        f"cone-{b}-{mode}-{T}-{n_t}": _cone_axes(base, mode, T, n_t)
        for b, base in (("point", Point()), ("circle", Circle(8)))
        for mode in ("periodic", "interval")
        for T, n_t in ((3.0, 16), (6.0, 64), (4.0, 256), (np.pi, 32))
    },
    "cone-interval-interior": (Cone(Point(), T=4.0, n_t=32, boundary="interval").t[1:], Cone(Point(), T=4.0, n_t=32).p),
    "random-normal": (np.random.default_rng(3).normal(scale=5.0, size=40), np.fft.fftfreq(24, d=1.0 / 24)),
    "random-wide": (np.random.default_rng(4).uniform(-1e6, 1e6, size=33), np.fft.fftfreq(33, d=1.0 / 33)),
    "pushforward": _pushforward_nodes(),
    "signed-zeros-modes": (SIGNED_ZEROS, Circle(16).modes.astype(float)),
    # p_1 = pi / 10 < 1: the subnormal nodes' phases round to zero
    "signed-zeros-p": (SIGNED_ZEROS, Cone(Point(), T=10.0, n_t=16).p),
    # covariables in no FFT order, and zero covariables of either sign
    "ascending": (Circle(8).x, np.arange(8.0)),
    "centered": (Circle(8).x, np.fft.fftshift(np.fft.fftfreq(9, d=1.0 / 9))),
    "shifted": (Circle(8).x, np.fft.fftfreq(8, d=1.0 / 8) + 0.5),
    **{
        f"zero-covar-{sign}-{name}": (nodes, np.array([0.0, 0.0, 1.0, -1.0, z]))
        for sign, z in (("pos", 0.0), ("neg", -0.0))
        for name, nodes in (("ones", np.ones(3)), ("signed-zeros", SIGNED_ZEROS))
    },
}


@pytest.mark.parametrize("nodes, covar", list(SYNTHESIS_GRIDS.values()), ids=list(SYNTHESIS_GRIDS))
def test_synthesis_bits_equal_full_table(nodes, covar):
    want = phase_pair(nodes, covar)[0]
    assert_same_bits(synthesis(nodes, covar), want)
    out = np.full(want.shape, np.nan, dtype=complex)
    assert synthesis(nodes, covar, out=out) is out
    assert_same_bits(out, want)


def test_synthesis_memory_budget():
    # exp runs in place on out; the only temporary is the length-n
    # vector 1j * nodes
    c = Circle(1024)
    k = c.modes.astype(float)
    out = np.empty((1024, 1024), dtype=complex)
    peak, _ = traced_peak(lambda: synthesis(c.x, k, out=out))
    assert peak < 2**20


@pytest.mark.parametrize("n", [8, 16, 1024])
def test_analysis_matrix_keeps_bits_in_one_array(n):
    # conj(E).T divided in place: E.conj().T / n's bits, one n x n array
    # where that expression peaked at two (32 MiB at 1024^2)
    c = Circle(n)
    E = synthesis(c.x, c.modes.astype(float))
    peak, F = traced_peak(lambda: analysis_matrix(E))
    assert np.array_equal(F, E.conj().T / n)
    assert peak < E.nbytes + SMALL
