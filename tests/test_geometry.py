"""Model geometries: construction and descriptors, the circle and cone
DFT pair against the definition's phase tables, translations,
dilations (group law, unitarity, radial rescaling), cutoff families,
and `axis_layout` and the interior restriction against the layouts
written out per geometry in oracles.py."""

import numpy as np
import pytest

from psdo.geometry import (
    Circle,
    Cone,
    CutoffFamily,
    DilationAction,
    Edge,
    GeometryError,
    Point,
    axis_layout,
    build_geometry,
    collar_cutoff,
    cutoff_family,
    describe_geometry,
    plateau_profile,
)
from oracles import (
    identity_dim,
    kron_flat_matrix,
    phase_pair,
    translation_matrix,
    written_out_interior,
    written_out_layout,
)
from psdo.quantize import _dft_matrix, _interior_nodes, synthesis


class TestBuild:
    def test_circle_weights(self):
        g = Circle(8)
        assert g.x[0] == 0.0
        assert g.x[-1] == pytest.approx(2 * np.pi - 2 * np.pi / 8)

    def test_odd_grid_rejected(self):
        with pytest.raises(GeometryError):
            Circle(9)

    def test_small_grid_rejected(self):
        with pytest.raises(GeometryError):
            Circle(4)

    def test_nonpositive_T_rejected(self):
        with pytest.raises(GeometryError):
            Cone(Point(), T=0.0)
        with pytest.raises(GeometryError):
            Cone(Point(), T=-2.0)
        # NaN, and windows whose nodes or covariables overflow
        for T in (float("nan"), float("inf"), 1e308, 1e-320):
            with pytest.raises(GeometryError):
                Cone(Point(), T=T, n_t=8)

    def test_descriptor_round_trip(self):
        descs = [
            {"kind": "circle", "n_x": 64, "q": 2},
            {"kind": "cone", "base": {"kind": "point"}, "T": 4.0, "n_t": 32, "boundary": "interval", "q": 1},
            {"kind": "cone", "base": {"kind": "circle", "n_x": 16}, "T": 6.0, "n_t": 64, "boundary": "periodic", "q": 1},
            {"kind": "edge", "n_x": 16, "cone": {"base": {"kind": "point"}, "T": 6.0, "n_t": 32, "boundary": "periodic", "q": 2}},
        ]
        for d in descs:
            g = build_geometry(d)
            assert build_geometry(describe_geometry(g)) == g

    def test_edge_fiber_mismatch(self):
        with pytest.raises(GeometryError):
            Edge(Circle(16, q=2), Cone(Point(), q=1))


class TestDFT:
    """The analysis and synthesis matrices of psdo.quantize against the
    definition's whole phase tables (`oracles.phase_pair`)."""

    def test_constant_has_unit_zero_mode(self):
        u = np.ones(16)
        assert (_dft_matrix(16) @ u)[0] == pytest.approx(1.0)

    def test_round_trip_against_naive_oracle(self):
        rng = np.random.default_rng(5)
        n = 32
        g = Circle(n)
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        naive = phase_pair(g.x, g.modes.astype(float))[1] @ u
        E = synthesis(g.x, g.modes.astype(float))
        for F in (_dft_matrix(n), E.conj().T / n):
            fast = F @ u
            assert np.max(np.abs(fast - naive)) < 1e-13
            assert np.max(np.abs(E @ fast - u)) < 1e-13

    def test_tdft_against_naive_oracle(self):
        rng = np.random.default_rng(6)
        g = Cone(Point(), T=3.0, n_t=16)
        f = rng.normal(size=16) + 1j * rng.normal(size=16)
        naive = phase_pair(g.t, g.p)[1] @ f
        E = synthesis(g.t, g.p)
        fast = E.conj().T / g.n_t @ f
        assert np.max(np.abs(fast - naive)) < 1e-13
        assert np.max(np.abs(E @ fast - f)) < 1e-13


class TestTranslation:
    def test_full_cycle_is_identity(self):
        n = 16
        t = translation_matrix(n, 1)
        acc = np.eye(n)
        for _ in range(n):
            acc = t @ acc
        assert np.array_equal(acc, np.eye(n))

    def test_commutes_with_fourier_multiplier(self):
        n = 32
        g = Circle(n)
        mult = np.fft.ifft(np.fft.fft(np.eye(n), axis=0) * (1.0 / (1.0 + g.modes**2))[:, None], axis=0)
        t = translation_matrix(n, 5)
        assert np.max(np.abs(t @ mult - mult @ t)) < 1e-12


class TestDilation:
    def test_identity_at_k0(self):
        g = Cone(Point(), T=6.0, n_t=64)
        d = DilationAction(g, 0)
        assert d.lam == pytest.approx(1.0)
        assert np.array_equal(kron_flat_matrix(d), np.eye(64))

    def test_group_law_and_unitarity_exact(self):
        g = Cone(Point(), T=6.0, n_t=64)
        M = np.random.default_rng(3).normal(size=(64, 64)) + 0j
        a, b = DilationAction(g, 5), DilationAction(g, 7)
        assert np.array_equal(a.conjugate(b.conjugate(M)), DilationAction(g, 12).conjugate(M))
        assert np.array_equal(DilationAction(g, -5).conjugate(a.conjugate(M)), M)
        K = kron_flat_matrix(a)
        assert np.array_equal(K @ K.conj().T, np.eye(64))

    def test_edge_action_leaves_x_alone(self):
        g = Edge(Circle(8), Cone(Point(), n_t=16))
        d = DilationAction(g, 2)
        m = kron_flat_matrix(d)
        assert m.shape == (8 * 16, 8 * 16)
        # block diagonal over x
        blocks = m.reshape(8, 16, 8, 16)
        for i in range(8):
            for j in range(8):
                if i != j:
                    assert np.max(np.abs(blocks[i, :, j, :])) == 0.0


class TestCutoffs:
    def test_profile_endpoints(self):
        d = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        out = plateau_profile(d, 1.0, 2.0)
        assert out[0] == 1.0 and out[1] == 1.0 and out[2] == 1.0
        assert 0 < out[3] < 1
        assert out[4] == 0.0

    def test_range_and_nesting_exact(self):
        g = Circle(256)
        fam = cutoff_family(g, center=np.pi, n_scales=4)
        assert isinstance(fam, CutoffFamily)
        assert np.all(fam.values >= 0.0) and np.all(fam.values <= 1.0)
        for i in range(len(fam) - 1):
            prod = fam[i] * fam[i + 1]
            assert np.max(np.abs(prod - fam[i + 1])) < 1e-12

    def test_too_small_scale_rejected(self):
        g = Circle(16)
        with pytest.raises(GeometryError):
            cutoff_family(g, center=0.0, n_scales=5)

    def test_collar_cutoff_support(self):
        g = Cone(Point(), T=6.0, n_t=64)
        phi = collar_cutoff(g, r1=1.0)
        assert phi[np.argmax(g.t)] == 1.0  # r smallest at t = +T end
        assert phi[np.argmin(g.t)] == 0.0  # far end
        assert np.all((phi >= 0) & (phi <= 1))

    def test_cone_t_axis_family(self):
        g = Cone(Point(), T=6.0, n_t=128)
        fam = cutoff_family(g, center=0.0, n_scales=3, base_scale=3.0, axis_name="t")
        for i in range(2):
            assert np.max(np.abs(fam[i] * fam[i + 1] - fam[i + 1])) < 1e-12


# ---------------------------------------------------------------------------
# Axis layouts

LAYOUT_GEOMETRIES = {
    "circle-q1": Circle(16),
    "circle-q2": Circle(16, q=2),
    "point-cone-periodic": Cone(Point(), T=4.0, n_t=16),
    "point-cone-interval": Cone(Point(), T=4.0, n_t=16, boundary="interval", q=2),
    "circle-base-cone": Cone(Circle(8), T=4.0, n_t=16, q=2),
    "edge-point-cone": Edge(Circle(8), Cone(Point(), T=4.0, n_t=16, boundary="interval")),
    "edge-circle-base-cone": Edge(Circle(8, q=2), Cone(Circle(8), T=4.0, n_t=8, q=2)),
    "edge-circle-base-interval": Edge(
        Circle(8, q=2), Cone(Circle(8), T=4.0, n_t=8, boundary="interval", q=2)
    ),
}


@pytest.mark.parametrize("g", LAYOUT_GEOMETRIES.values(), ids=LAYOUT_GEOMETRIES.keys())
def test_axis_layout_matches_written_out_formulas(g):
    for axis in ("x", "t"):
        want = written_out_layout(g, axis)
        if want is None:
            with pytest.raises(GeometryError, match=f"no '{axis}' axis"):
                axis_layout(g, axis)
            continue
        lay = axis_layout(g, axis)
        pre, n, post, covar, nodes, step, periodic = want
        assert (lay.name, lay.pre, lay.n, lay.post) == (axis, pre, n, post)
        assert lay.pre * lay.n * lay.post == identity_dim(g)
        assert np.array_equal(lay.covar, covar) and np.array_equal(lay.nodes, nodes)
        assert (lay.step, lay.periodic) == (step, periodic)
    default = axis_layout(g)
    assert default.name == ("t" if isinstance(g, Cone) else "x")
    with pytest.raises(GeometryError):
        axis_layout(g, "r")


@pytest.mark.parametrize("g", LAYOUT_GEOMETRIES.values(), ids=LAYOUT_GEOMETRIES.keys())
def test_interior_layout_bit_equal(g):
    dim, nodes = written_out_interior(g)
    interval = not isinstance(g, Circle) and (g if isinstance(g, Cone) else g.cone).boundary == "interval"
    lay = axis_layout(g)
    assert lay.pre * lay.n * lay.post == (dim if interval else g.dim_total)
    if nodes is not None:
        got = _interior_nodes(g)
        assert got.dtype == nodes.dtype and np.array_equal(got, nodes)
        assert got.size == dim


T_AXIS_GEOMETRIES = {k: g for k, g in LAYOUT_GEOMETRIES.items() if not isinstance(g, Circle)}


@pytest.mark.parametrize("g", T_AXIS_GEOMETRIES.values(), ids=T_AXIS_GEOMETRIES.keys())
def test_dilation_is_weighted_radial_rescaling(g):
    # kappa_lambda u(r) = lambda^((n+1)/2) u(lambda r) on natural samples,
    # n the base dimension: the flat matrix conjugated by W = r^((n+1)/2)
    # must give exactly that off the k wrapped seam nodes
    cone = g if isinstance(g, Cone) else g.cone
    n = 0 if isinstance(cone.base, Point) else 1
    e = (n + 1) / 2
    k = 3
    act = DilationAction(g, k)
    # the full periodic grid, seam node included on interval cones
    pre, post = g.dim_total // cone.dim_total, cone.dim_total // cone.n_t

    def spread(values):
        return np.broadcast_to(values[None, :, None], (pre, cone.n_t, post)).reshape(-1)

    # a smooth function of r, scaled per (pre, post) slot so that mixing
    # across edge nodes, base nodes or fiber components shows
    slot = 1.0 + np.arange(pre)[:, None, None] + 0.5j * np.arange(post)[None, None, :]

    def u(r):
        return (slot * (1.0 / (1.0 + r) + 0.25 * np.sin(r))[None, :, None]).reshape(-1)

    W = spread(cone.r**e)
    got = (kron_flat_matrix(act) @ (W * u(cone.r))) / W
    want = act.lam**e * u(act.lam * cone.r)
    off_seam = spread(np.arange(cone.n_t) >= k)
    assert off_seam.sum() == pre * (cone.n_t - k) * post
    np.testing.assert_allclose(got[off_seam], want[off_seam], rtol=1e-12, atol=0)
    assert not np.allclose(got[~off_seam], want[~off_seam], rtol=1e-6, atol=0)
