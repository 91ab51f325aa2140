"""Dense references for psdo's fast paths, one per fast path, and the
inputs the test modules share: test modules import from here and psdo
only (tests/test_surface.py holds that).

Each reference is the slow, obvious form of its fast path: whole phase
tables, one einsum over a whole grid, loops over fibers or points,
kron-built translations, full SVDs and norms. Where the fast path keeps
the reference's arithmetic the tests compare bit for bit; only the FFT
assembly (x-dependent circle x axes and interval cone t axes) is
compared, against exact phases, within `assert_matches_oracle`'s bound.
An einsum with optimize=True picks its
contraction order from the operand shapes, so each reference keeps the
contraction its comparison was made exact with.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from psdo.calculus import _cutoff_ladder
from psdo.fredholm import _collar_fraction
from psdo.geometry import Circle, Cone, DilationAction, Edge, Point, axis_layout
from psdo.quantize import _BLOCK, AxisKind, _dft_matrix, _interior_nodes, analysis_matrix, quantize, synthesis
from psdo.symexpr import BinOp, Call, Const, Neg, Pow, Var, evaluate, parse, shape_of, substitute, variables_of

# ---------------------------------------------------------------------------
# Shared inputs of the circle, fiber and streaming tests


def point_cone(n_t, **kw):
    return Cone(Point(), T=6.0, n_t=n_t, **kw)


def circle_base_cone(n_t, **kw):
    return Cone(Circle(8), T=5.0, n_t=n_t, **kw)


SCALAR = "1 + chi(xi)*exp(cos(x)) + (0,0.3)*sin(2*x)*xi/(1 + xi^2)"
MATRIX = "[[1 + chi(xi), 0.5*sin(x)], [(0,1)*cos(x)*chi(xi), 2 - chi(xi)]]"
X_DEP = "1 + 0.3*chi(p) + 0.2*w/(1+w) + 0.25*(1-cos(x))*chi(eta) + (0,0.1)*exp((0,1)*x)*r/(1+r)"
X_FREE = "1 + 0.3*chi(p) + 0.2*w/(1+w) + 0.25*chi(eta) + (0,0.1)*eta*r/(1+r)"
X_DEP_MU = "1 + 0.3*chi(p) + 0.2*w/(1+w) + 0.25*(1-cos(x))*chi(eta)*chi(t) + (0,0.1)*t*r/(1+r)"
X_DEP_Q2 = "[[1 + chi(p), 0.2*w*(1-sin(x))], [(0,0.3)*chi(eta), 2 + r/(1+r)]]"
X_FREE_Q2 = "[[1 + chi(p)*chi(t), 0.2*w], [(0,0.3)*chi(eta), 2 + eta*r/(1+r)]]"


# ---------------------------------------------------------------------------
# Fourier phases


def phase_pair(nodes: np.ndarray, covar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, F): the phase table E[j, k] = exp(i nodes_j covar_k), one np.exp
    of the whole product table, and F = E^H / n. Reference for
    `synthesis` and `analysis_matrix`, which write in place, and the
    phases of every t, base and warped axis below."""
    E = np.exp(np.multiply(1j * nodes[:, None], covar[None, :]))
    return E, E.conj().T / len(nodes)


def circle_phases(circ: Circle, expr) -> np.ndarray:
    """E[j, k] = exp(i m_k x_j) of a circle x axis: for an x-dependent
    symbol exact, exp(2 pi i ((j m_k) mod n) / n) from integers, as the
    FFT assembly has them; for an x-free one from the rounded products
    fl(x_j) m_k, as its DFT-matrix product has them."""
    if "x" not in variables_of(expr):
        return phase_pair(circ.x, circ.modes.astype(float))[0]
    n = circ.n_x
    return np.exp(2j * np.pi * ((np.arange(n)[:, None] * circ.modes[None, :]) % n) / n)


def cone_phases(cone: Cone) -> np.ndarray:
    """E[j, k] = exp(i t_j p_k) of a cone t axis: on an interval cone
    exact, exp(2 pi i ((j m_k) mod n) / n) (-1)^m_k from integers, since
    t_j p_k = -pi m_k + 2 pi j m_k / n and the FFT assembly has them so;
    on a periodic one from the rounded products fl(t_j) p_k, as its
    phase-table product has them."""
    if cone.boundary == "periodic":
        return phase_pair(cone.t, cone.p)[0]
    n = cone.n_t
    m = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    return np.exp(2j * np.pi * ((np.arange(n)[:, None] * m[None, :]) % n) / n) * (-1.0) ** m


def circle_analysis(n: int) -> np.ndarray:
    """F[k, l] = exp(-i m_k x_l) / n of a circle x axis, the FFT of the
    whole identity: `_dft_matrix`'s bits, built without its slabs."""
    return np.fft.fft(np.eye(n), axis=0) / n


def assert_matches_oracle(A: np.ndarray, want: np.ndarray, expr, cone=None, x_axis=True) -> None:
    """Quantizer output against its reference, `cone` being the cone along
    whose t axis the product was assembled, if any, and `x_axis` whether
    it has a circle x axis (a Mellin fiber binds x to one value): bit for
    bit on phase tables and the DFT-matrix product, that is where no x
    axis meets an x-dependent symbol and the cone, if any, is periodic;
    within max|A - want| <= 2e-15 max|want| where a circle x axis
    (x-dependent symbol) or an interval cone's t axis goes through the
    FFT and the row shift (worst measured 1.2e-15)."""
    fft_x = x_axis and "x" in variables_of(expr)
    if not fft_x and (cone is None or cone.boundary == "periodic"):
        assert np.array_equal(A, want)
    else:
        assert np.max(np.abs(A - want)) <= 2e-15 * np.max(np.abs(want))


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    """Equal bit for bit, signs of zeros included."""
    fa, fb = a.view(float), b.view(float)
    assert np.array_equal(fa, fb)
    assert np.array_equal(np.signbit(fa), np.signbit(fb))


# ---------------------------------------------------------------------------
# The Kohn-Nirenberg product


def kn_product(E: np.ndarray, S: np.ndarray, F: np.ndarray, row_free: bool = False) -> np.ndarray:
    """The Kohn-Nirenberg product sum_k E[j, k] S[..., j, k, a, b] F[k, l],
    shaped (..., j, a, l, b), by one einsum over the whole grid S
    (broadcast to its j and k axes); with row_free, S is the mode blocks
    S[..., k, a, b] of a grid free of j (block-circulant). Reference for
    `kn_assemble`, `kn_circulant` and `base_to_nodal`; slow because it
    holds the whole grid and every phase at once, where the kernels
    stream blocks of rows through one FFT or matmul."""
    if row_free:
        return np.einsum("jk,...kab,kl->...jalb", E, S, F, optimize=True)
    S = np.broadcast_to(S, np.broadcast_shapes(S.shape[:-2], (E.shape[0], F.shape[0])) + S.shape[-2:])
    return np.einsum("jk,...jkab,kl->...jalb", E, S, F, optimize=True)


def circle_reference(g: Circle, expr, v=None) -> np.ndarray:
    """The product on a circle's phases. Reference for `op_circle`."""
    n, q = g.n_x, g.q
    bindings = {"x": g.x[:, None], "xi": g.modes.astype(float)[None, :]}
    if v is not None:
        bindings["v"] = v
    S = evaluate(expr, bindings)
    return kn_product(circle_phases(g, expr), S, circle_analysis(n)).reshape(n * q, n * q)


def mellin_reference(cone: Cone, expr, v=0.0, xi=0.0, x_value=0.0, freeze_r=False) -> np.ndarray:
    """One periodic Mellin fiber, assembled alone: the product along t,
    then on a circle base the mode blocks conjugated to nodal values.
    Reference for `op_mellin` and the batched `_mellin_fibers`, which
    assemble every fiber of a batch in one streamed product. The t
    phases are `cone_phases`: exact on an interval cone."""
    n_t, q = cone.n_t, cone.q
    circle_base = isinstance(cone.base, Circle)
    shape = (n_t, 1, 1) if circle_base else (n_t, 1)
    r = cone.r.reshape(shape)
    bindings = {
        "r": np.zeros_like(r) if freeze_r else r,
        "w": v * r,
        "eta": xi * r,
        "p": cone.p.reshape((1, n_t, 1) if circle_base else (1, n_t)),
        "v": v,
        "x": x_value,
        "t": cone.base.modes.astype(float).reshape(1, 1, -1) if circle_base else 0.0,
    }
    E = cone_phases(cone)
    F = E.conj().T / n_t
    S = evaluate(expr, bindings)
    if not circle_base:
        return kn_product(E, S, F).reshape(n_t * q, n_t * q)
    base = cone.base
    n_w = base.n_x
    blocks = kn_product(E, np.moveaxis(np.broadcast_to(S, (n_t, n_t, n_w, q, q)), 2, 0), F)  # (m, j, a, l, b)
    iFw, Fw = phase_pair(base.x, base.modes.astype(float))
    A = kn_product(iFw, blocks.reshape(n_w, n_t * q, n_t * q), Fw, row_free=True)  # (l, (j a), n, (s e))
    A = np.moveaxis(A.reshape(n_w, n_t, q, n_w, n_t, q), (0, 3), (1, 4))
    return A.reshape(n_t * n_w * q, n_t * n_w * q)


def edge_reference(g: Edge, expr, v=0.0, freeze_r=False):
    """(matrix, mode blocks or None) of an edge operator, one
    `mellin_reference` fiber per (x, mode) pair (per mode if x-free) in a
    Python loop, mixed along x by the product. Reference for `op_edge`."""
    cone, circ = g.cone, g.circle
    n_x, d = circ.n_x, cone.dim_total
    xi = circ.modes.astype(float)
    E, F = circle_phases(circ, expr), circle_analysis(n_x)
    if "x" in variables_of(expr):
        blocks = np.empty((n_x, n_x, d, d), dtype=complex)
        for j in range(n_x):
            for k, xi_k in enumerate(xi):
                blocks[j, k] = mellin_reference(cone, expr, v, xi_k, circ.x[j], freeze_r)
        A, mode_blocks = kn_product(E, blocks, F), None
    else:
        blocks = np.empty((n_x, d, d), dtype=complex)
        for k, xi_k in enumerate(xi):
            blocks[k] = mellin_reference(cone, expr, v, xi_k, 0.0, freeze_r)
        A, mode_blocks = kn_product(E, blocks, F, row_free=True), blocks
    A = A.reshape(g.dim_total, g.dim_total)
    if cone.boundary == "interval":
        keep = _interior_nodes(g)
        A = A[np.ix_(keep, keep)]
        if mode_blocks is not None:
            fiber_keep = _interior_nodes(cone)
            mode_blocks = mode_blocks[:, fiber_keep[:, None], fiber_keep[None, :]]
    return A, mode_blocks


def interior_on_edge_reference(g: Edge, expr, v: float) -> np.ndarray:
    """An interior symbol on the edge grid: the whole product along x at
    every t node, written into a dense full-size matrix. Reference for
    `psdo.fredholm._op_interior_on_edge`."""
    circ, cone = g.circle, g.cone
    n, n_t = circ.n_x, cone.n_t
    bindings = {"x": circ.x[:, None, None], "xi": circ.modes.astype(float)[None, :, None], "r": cone.r, "v": v}
    S = np.moveaxis(np.broadcast_to(evaluate(expr, bindings), (n, n, n_t, g.q, g.q)), 2, 0)
    M = kn_product(circle_phases(circ, expr), S, circle_analysis(n))  # (t, j, a, l, b)
    full = np.zeros((n, n_t, g.q, n, n_t, g.q), dtype=complex)
    idx = np.arange(n_t)
    full[:, idx, :, :, idx, :] = M
    return full.reshape(g.dim_total, g.dim_total)


def one_shot_kn_assemble(symbol, nodes, covar, shape, axis):
    """`kn_assemble` without streaming: the whole grid evaluated at once,
    then (interval t axes and x-dependent circle grids) one FFT and one
    gather of the whole buffer, or (other grids) multiplied into the
    whole phase buffer and analysed by the row-blocked matmul. The bit
    reference for streaming: each entry sees the kernel's arithmetic,
    where `kn_product`'s einsum contracts in its own order."""
    S = np.broadcast_to(symbol(slice(0, shape[-4])), shape)
    circle_x = axis is AxisKind.CIRCLE_X
    fft = axis is AxisKind.INTERVAL_T or (circle_x and S.strides[-4] != 0)
    pshape = shape[:-4] + shape[-2:] + shape[-4:-2]
    P = np.empty(pshape, dtype=complex)
    if fft:
        P[...] = np.moveaxis(S, (-2, -1), (-4, -3))
        rows = P.reshape(-1, pshape[-1])
        np.fft.fft(rows, axis=-1, norm="forward", out=rows)
        j = np.arange(shape[-4])
        G = P[..., j[:, None], (j[None, :] - j[:, None]) % len(j)]  # row j shifted by j
        return np.moveaxis(G, (-2, -1), (-4, -2))
    slabs = P.reshape((-1,) + pshape[-2:])
    E = synthesis(nodes, covar, out=slabs[0])
    if not circle_x:
        F = analysis_matrix(E)
    slabs[1:] = E
    np.multiply(np.moveaxis(S, (-2, -1), (-4, -3)), P, out=P)
    del S
    rows = P.reshape(-1, pshape[-1])
    if circle_x:
        F = _dft_matrix(pshape[-1])
    n = len(rows)
    count = -(-n // max(4, _BLOCK // pshape[-1]))
    block = np.empty((-(-n // count), pshape[-1]), dtype=complex)
    for i in range(count):
        r = rows[n * i // count : n * (i + 1) // count]
        r[...] = np.matmul(r, F, out=block[: len(r)])
    return np.moveaxis(P, (-2, -1), (-4, -2))


def extract_reference(A, pre: int, n: int, post: int, nodes, covar) -> np.ndarray:
    """D[k, m] = F A E along one axis of n nodes, the (pre, post) axes
    kept, by one einsum over the whole matrix, shaped (k, m, pre post,
    pre post). Reference for `extract_symbol`, which forms only the
    diagonal blocks (its symbol) and the off-diagonal maximum."""
    E, F = phase_pair(np.asarray(nodes), np.asarray(covar))
    M = A.matrix.reshape(pre, n, post, pre, n, post)
    D = np.einsum("kj,ajbcld,lm->akbcmd", F, M, E, optimize=True)
    return D.transpose(1, 4, 0, 2, 3, 5).reshape(n, n, pre * post, pre * post)


# ---------------------------------------------------------------------------
# Geometry, evaluation and the calculus


def written_out_layout(g, axis):
    """(pre, n, post, covar, nodes, step, periodic) of an axis, written
    out case by case, or None where g has no such axis; interval cones
    keep t_1..t_{n_t-1}. Reference for `axis_layout`, which derives every
    case from one rule."""
    if isinstance(g, Circle):
        return (1, g.n_x, g.q, g.modes.astype(float), g.x, g.h_x, True) if axis == "x" else None
    c = g if isinstance(g, Cone) else g.cone
    t = c.t[1:] if c.boundary == "interval" else c.t
    if axis == "x" and isinstance(g, Edge):
        post = len(t) * (c.dim_total // c.n_t)
        return 1, g.circle.n_x, post, g.circle.modes.astype(float), g.circle.x, g.circle.h_x, True
    if axis == "t" and isinstance(g, Cone):
        return 1, len(t), g.dim_total // g.n_t, g.p, t, g.h_t, False
    if axis == "t" and isinstance(g, Edge):
        return g.circle.n_x, len(t), c.dim_total // c.n_t, c.p, t, c.h_t, False
    return None


def identity_dim(g):
    """Dimension of the identity quantized on g."""
    eye = parse("[[1, 0], [0, 1]]") if g.q == 2 else parse("1")
    return quantize(g, eye).dim


def written_out_interior(g):
    """(interior dimension, interior node indices or None), written out
    case by case. Reference for `_interior_nodes`."""
    if isinstance(g, Circle):
        return g.dim_total, None
    cone = g if isinstance(g, Cone) else g.cone
    pre = g.circle.n_x if isinstance(g, Edge) else 1
    post = g.dim_total // (pre * cone.n_t)
    nodes = np.arange(g.dim_total).reshape(pre, cone.n_t, post)[:, 1:, :].reshape(-1)
    return (cone.n_t - 1) * (g.dim_total // cone.n_t), nodes


def _ref_chi(s):
    return s / np.sqrt(1.0 + s * s)


_REF_FNS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "conj": np.conj,
    "re": lambda z: np.real(z).astype(complex),
    "im": lambda z: np.imag(z).astype(complex),
    "abs": lambda z: np.abs(z).astype(complex),
    "chi": _ref_chi,
}


def out_of_place_evaluate(e, b):
    """The tree evaluated out of place, every step allocating its result.
    Reference for `evaluate`, which writes into its intermediates."""
    if isinstance(e, Const):
        return np.asarray(e.value, dtype=complex)
    if isinstance(e, Var):  # a binding as evaluate takes it: a complex array, 0-d for a scalar
        return np.asarray(b[e.name], dtype=complex)
    if isinstance(e, Neg):
        return -out_of_place_evaluate(e.arg, b)
    if isinstance(e, Pow):
        base = out_of_place_evaluate(e.base, b)
        if shape_of(e.base) == 1:
            return base**e.n
        m = np.linalg.inv(base) if e.n < 0 else base
        out = m
        for _ in range(abs(e.n) - 1):
            out = out @ m
        return out
    if isinstance(e, Call):
        return _REF_FNS[e.fn](out_of_place_evaluate(e.arg, b))
    if isinstance(e, BinOp):
        va, vb = out_of_place_evaluate(e.a, b), out_of_place_evaluate(e.b, b)
        qa, qb = shape_of(e.a), shape_of(e.b)
        if e.op == "+":
            return va + vb
        if e.op == "-":
            return va - vb
        if e.op == "*":
            if qa > 1 and qb > 1:
                return va @ vb
            if qa > 1:
                return va * vb[..., None, None] if np.ndim(vb) else va * vb
            if qb > 1:
                return vb * va[..., None, None] if np.ndim(va) else vb * va
            return va * vb
        if qa > 1:
            return va / (vb[..., None, None] if np.ndim(vb) else vb)
        return va / vb
    q = len(e.rows)
    vals = [[out_of_place_evaluate(entry, b) for entry in row] for row in e.rows]
    shape = np.broadcast_shapes(*(np.shape(v) for row in vals for v in row))
    out = np.empty(shape + (q, q), dtype=complex)
    for i in range(q):
        for j in range(q):
            out[..., i, j] = np.broadcast_to(vals[i][j], shape)
    return out


def translation_matrix(n: int, steps: int) -> np.ndarray:
    """Circular shift by `steps` grid nodes: (T u)_j = u_{j-steps}."""
    return np.roll(np.eye(n), steps, axis=0)


def kron_flat_matrix(d: DilationAction) -> np.ndarray:
    """The dilation's flat matrix as a dense kron product of a t-axis
    translation with identities. Reference for `DilationAction.conjugate`,
    which permutes indices instead."""
    g = d.geometry
    blocks = [translation_matrix(d.cone.n_t, d.k)]
    if isinstance(d.cone.base, Circle):
        blocks.append(np.eye(d.cone.base.n_x))
    if isinstance(g, Edge):
        blocks = [np.eye(g.circle.n_x)] + blocks
    if g.q > 1:
        blocks.append(np.eye(g.q))
    out = blocks[0]
    for b in blocks[1:]:
        out = np.kron(out, b)
    return out


def translation_commutator(M: np.ndarray, n_x: int, steps: int) -> np.ndarray:
    """T M - M T for the translation T by `steps` x nodes, T built dense by
    np.kron from `translation_matrix`. T is a permutation, so each product
    is applied as the gather of rows or columns that T's ones select,
    the dense product's exact result without its n^3 work. Reference
    for `_shift_commutator_in_place` and the translation defect, which
    compute the shift from strides in place; slow in the dense T and the
    two whole copies."""
    T = np.kron(translation_matrix(n_x, steps), np.eye(M.shape[0] // n_x))
    return M[T.argmax(axis=1)] - M[:, T.argmax(axis=0)]


def twisted_loop_violations(sigma, ks) -> tuple[float, ...]:
    """`check_twisted_homogeneity`'s violations, one `at()` call per
    fiber. Reference for its batched fibers."""
    base_m = sigma.at(x=0.0, xi=1.0, v=1.0).matrix
    out = []
    for k in ks:
        act = DilationAction(sigma.cone, k)
        dilated = sigma.at(x=0.0, xi=act.lam, v=act.lam).matrix
        denom = max(1.0, float(np.linalg.norm(dilated, 2)))
        out.append(float(np.linalg.norm(dilated - act.conjugate(base_m), 2)) / denom)
    return tuple(out)


def dense_infinitesimal_detail(g, expr, z) -> str:
    """The `infinitesimal` suite's detail string from fresh operators,
    `translation_commutator` and full-matrix norms. Reference for the
    suite's streamed, in-place and mode-block norms."""
    A = quantize(g, expr)
    F = quantize(g, substitute(expr, {"x": Const(float(z))}), freeze_r=True).matrix
    _, diags = _cutoff_ladder(g, z)
    final = np.linalg.norm((A.matrix - F) * diags[-1][None, :], 2)
    tdef = 0.0
    if not isinstance(g, Cone):
        n_x = axis_layout(g, "x").n
        tdef = max(float(np.linalg.norm(translation_commutator(F, n_x, s), 2)) for s in (1, 3))
    return (
        f"final {final:.3e}, translation defect {tdef:.3e}, "
        f"norm {np.linalg.norm(F, 2):.4f} <= {np.linalg.norm(A.matrix, 2):.4f}"
    )


def dense_side(M: np.ndarray, vals: np.ndarray, side: str) -> float:
    """||M diag(vals)||_2 or ||diag(vals) M||_2 of the full product.
    Reference for `side_norm`, a Gram of the support's rows only."""
    return np.linalg.norm(M * vals[None, :] if side == "right" else vals[:, None] * M, 2)


# ---------------------------------------------------------------------------
# Finite sections and symbol sweeps


def full_svd_rows(build, sizes, tau_coef):
    """(size, kernel, cokernel, index, artifacts) per rung from one full
    SVD per rung. Reference for the values-first `finite_section`, whose
    near-null pairs come from inverse iteration."""
    rows = []
    for size in sizes:
        A = build(int(size))
        U, s, Vh = np.linalg.svd(A.matrix)
        dim = s.size
        count = int(np.sum(s <= tau_coef * float(s[0])))
        kernel = cokernel = artifacts = 0
        for i in range(dim - count, dim):
            v_genuine = _collar_fraction(np.conj(Vh[i]), A) < 0.5
            u_genuine = _collar_fraction(U[:, i], A) < 0.5
            kernel += int(v_genuine)
            cokernel += int(u_genuine)
            artifacts += int(not v_genuine) + int(not u_genuine)
        rows.append((int(size), kernel, cokernel, kernel - cokernel, artifacts))
    return rows


def scalar_tip(tip: str):
    """The tip as a scalar callable, one evaluate per point: the loop
    `winding_oracle` keeps for callables, reference for its array path."""
    expr = parse(tip)
    return lambda p: complex(np.asarray(evaluate(expr, {"p": p, "t": 0.0})).reshape(-1)[0])


def loop_contour(f, p_max: float = 1e6, n: int = 4097) -> np.ndarray:
    """f on `_contour`'s grid p = tan u, one call per node. Reference for
    `_contour`'s one evaluate and stacked determinant."""
    u_max = math.atan(p_max)
    return np.array([f(float(np.tan(u))) for u in np.linspace(-u_max, u_max, n)])


def loop_value(c, p: float) -> np.ndarray:
    """One fiber matrix of a cone family from one scalar evaluation.
    Reference for `ConeSymbolFamily.value` and `min_singular` on a whole
    p grid."""
    if isinstance(c.base, Point):
        m = np.asarray(evaluate(c.expr, {"p": p, "t": 0.0}), dtype=complex).reshape(c.q, c.q)
    else:
        modes = c.base.modes.astype(float)
        d = np.broadcast_to(evaluate(c.expr, {"p": p, "t": modes}).reshape(-1), modes.shape)
        iFw, Fw = phase_pair(c.base.x, modes)
        m = iFw @ np.diag(d.astype(complex)) @ Fw
    if c.conj is not None:
        L, R = c.conj(0.0)
        m = L @ m @ R
    return m


def loop_sphere_min(expr, n_x: int, n_sphere: int = 32, lam: float = 1e6, **fixed) -> float:
    """Smallest singular value on the (xi, v) sphere of radius lam at n_x
    base points, one evaluate and one SVD per point. Reference for the
    stacked spheres of `check_elliptic` and `large_parameter_scan`."""
    xs = 2.0 * np.pi * np.arange(n_x) / n_x
    thetas = 2.0 * np.pi * np.arange(n_sphere) / n_sphere
    worst = math.inf
    for x0 in xs:
        for th in thetas:
            b = {"x": x0, "xi": lam * np.cos(th), "v": lam * np.sin(th), **fixed}
            m = np.asarray(evaluate(expr, b), dtype=complex)
            m = m.reshape(m.shape[-1], m.shape[-1])
            worst = min(worst, float(np.linalg.svd(m, compute_uv=False)[-1]))
    return worst


def load_bench_workloads():
    """bench/workloads.py, loaded by path: the seeded configs the tests
    pin."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
