import numpy as np
import pytest

from psdo.geometry import (
    Circle,
    Cone,
    CutoffFamily,
    DilationAction,
    Edge,
    GeometryError,
    GridFunction,
    Point,
    axis_layout,
    build_geometry,
    collar_cutoff,
    cutoff_family,
    describe_geometry,
    plateau_profile,
    translation_matrix,
)
from psdo.quantize import _dft_matrix, _interior_nodes, interior_dim, synthesis


class TestBuild:
    def test_circle_weights(self):
        g = Circle(8)
        assert g.node_weight == pytest.approx(2 * np.pi / 8)
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

    def test_weight_exponent(self):
        assert Cone(Point()).weight_exponent == pytest.approx(0.5)
        assert Cone(Circle(16)).weight_exponent == pytest.approx(1.0)

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

    def test_w_isometry_on_gaussians(self):
        # weighted cone norm computed from natural samples equals the flat
        # cylinder norm; Gaussians in t at several centers and widths
        g = Cone(Point(), T=4.0, n_t=64)
        for c, s in [(0.0, 0.5), (1.0, 0.8), (-0.7, 0.3)]:
            vals = np.exp(-((g.t - c) ** 2) / (2 * s * s)).astype(complex)
            u = GridFunction(g, vals[:, None])
            # weighted norm straight from the r-representation:
            # sum |u(r_j)|^2 r_j^(n+1) h_t  with n = 0
            direct = np.sqrt(np.sum(np.abs(vals) ** 2 * g.r ** (g.n + 1) * g.h_t))
            assert abs(u.norm() - direct) < 1e-12 * max(1.0, direct)

    def test_flat_round_trip(self):
        g = Cone(Circle(16), T=6.0, n_t=32)
        rng = np.random.default_rng(0)
        u = GridFunction(g, rng.normal(size=g.axes_shape + (1,)) + 0j)
        v = GridFunction.from_flat(g, u.flat())
        assert np.allclose(v.values, u.values, atol=1e-14)


class TestDFT:
    """The analysis and synthesis matrices of psdo.quantize against the
    O(N^2) definition sums."""

    def test_constant_has_unit_zero_mode(self):
        u = np.ones(16)
        assert (_dft_matrix(16) @ u)[0] == pytest.approx(1.0)

    def test_round_trip_against_naive_oracle(self):
        # oracle first: O(N^2) definition sums
        rng = np.random.default_rng(5)
        n = 32
        g = Circle(n)
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        naive = np.array([np.sum(u * np.exp(-1j * k * g.x)) / n for k in g.modes])
        E = synthesis(g.x, g.modes.astype(float))
        for F in (_dft_matrix(n), E.conj().T / n):
            fast = F @ u
            assert np.max(np.abs(fast - naive)) < 1e-13
            assert np.max(np.abs(E @ fast - u)) < 1e-13

    def test_tdft_against_naive_oracle(self):
        rng = np.random.default_rng(6)
        g = Cone(Point(), T=3.0, n_t=16)
        f = rng.normal(size=16) + 1j * rng.normal(size=16)
        naive = np.array([np.sum(f * np.exp(-1j * p * g.t)) / g.n_t for p in g.p])
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
        assert np.array_equal(d.flat_matrix(), np.eye(64))

    def test_group_law_and_unitarity_exact(self):
        g = Cone(Point(), T=6.0, n_t=64)
        rel = DilationAction(g, 5).check_relations(other_k=7)
        assert rel["group_law"] == 0.0
        assert rel["unitarity"] == 0.0
        assert rel["mellin_commutation"] < 1e-12
        assert rel["radial_homogeneity_offseam"] < 1e-12

    def test_natural_apply_is_weighted_shift(self):
        g = Cone(Point(), T=6.0, n_t=64)
        rng = np.random.default_rng(1)
        u = GridFunction(g, (rng.normal(size=(64, 1)) + 0j))
        d = DilationAction(g, 3)
        v = d.apply(u)
        # norm preserved exactly (weights wrap consistently with the shift)
        assert abs(v.norm() - u.norm()) < 1e-12 * u.norm()
        # flat representation is the pure shift
        assert np.max(np.abs(v.flat() - np.roll(u.flat(), 3))) < 1e-12

    def test_edge_action_leaves_x_alone(self):
        g = Edge(Circle(8), Cone(Point(), n_t=16))
        d = DilationAction(g, 2)
        m = d.flat_matrix()
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
}


def _old_layout(g, axis):
    """(pre, n, post, covar, nodes, step, periodic) written out per geometry."""
    if axis == "x" and isinstance(g, Circle):
        return 1, g.n_x, g.q, g.modes.astype(float), g.x, g.h_x, True
    if axis == "x" and isinstance(g, Edge):
        c = g.circle
        return 1, c.n_x, g.cone.dim_total, c.modes.astype(float), c.x, c.h_x, True
    if axis == "t" and isinstance(g, Cone):
        return 1, g.n_t, g.dim_total // g.n_t, g.p, g.t, g.h_t, False
    if axis == "t" and isinstance(g, Edge):
        c = g.cone
        return g.circle.n_x, c.n_t, c.dim_total // c.n_t, c.p, c.t, c.h_t, False
    return None


def _old_interior(g):
    """(interior_dim, _interior_nodes) as written out per geometry."""
    if isinstance(g, Circle):
        return g.dim_total, None
    cone = g if isinstance(g, Cone) else g.cone
    pre = g.circle.n_x if isinstance(g, Edge) else 1
    post = g.dim_total // (pre * cone.n_t)
    nodes = np.arange(g.dim_total).reshape(pre, cone.n_t, post)[:, 1:, :].reshape(-1)
    return (cone.n_t - 1) * (g.dim_total // cone.n_t), nodes


@pytest.mark.parametrize("g", LAYOUT_GEOMETRIES.values(), ids=LAYOUT_GEOMETRIES.keys())
def test_axis_layout_matches_written_out_formulas(g):
    for axis in ("x", "t"):
        want = _old_layout(g, axis)
        if want is None:
            with pytest.raises(GeometryError, match=f"no '{axis}' axis"):
                axis_layout(g, axis)
            continue
        lay = axis_layout(g, axis)
        pre, n, post, covar, nodes, step, periodic = want
        assert (lay.name, lay.pre, lay.n, lay.post) == (axis, pre, n, post)
        assert lay.pre * lay.n * lay.post == g.dim_total
        assert np.array_equal(lay.covar, covar) and np.array_equal(lay.nodes, nodes)
        assert (lay.step, lay.periodic) == (step, periodic)
    default = axis_layout(g)
    assert default.name == ("t" if isinstance(g, Cone) else "x")
    with pytest.raises(GeometryError):
        axis_layout(g, "r")


@pytest.mark.parametrize("g", LAYOUT_GEOMETRIES.values(), ids=LAYOUT_GEOMETRIES.keys())
def test_interior_layout_bit_equal(g):
    dim, nodes = _old_interior(g)
    assert interior_dim(g) == dim
    if nodes is not None:
        got = _interior_nodes(g)
        assert got.dtype == nodes.dtype and np.array_equal(got, nodes)
        assert got.size == dim



def _written_out_w_diag(g):
    """The flat-representation weights as GridFunction used to build them:
    ones on a circle, the geometry's w_diag elsewhere."""
    return np.ones(g.axes_shape) if isinstance(g, Circle) else g.w_diag


@pytest.mark.parametrize("g", LAYOUT_GEOMETRIES.values(), ids=LAYOUT_GEOMETRIES.keys())
def test_grid_function_weights_bit_equal(g):
    w = _written_out_w_diag(g)[..., None]
    assert np.array_equal(g.w_diag[..., None], w)
    rng = np.random.default_rng(0)
    shape = g.axes_shape + (g.q,)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    u = GridFunction(g, vals)
    flat = (vals * w).reshape(-1)
    assert np.array_equal(u.flat(), flat)
    assert np.array_equal(GridFunction.from_flat(g, flat).values, flat.reshape(shape) / w)
    if not isinstance(g, Circle):
        lay = axis_layout(g, "t")
        rolled = np.roll((vals * w).reshape(lay.pre, lay.n, lay.post), 3, axis=1)
        assert np.array_equal(DilationAction(g, 3).apply(u).values, rolled.reshape(shape) / w)
