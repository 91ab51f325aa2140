"""Streamed Kohn-Nirenberg assembly: kn_assemble evaluates the symbol
grid one block of output rows at a time and holds the one-shot product
(`oracles.one_shot_kn_assemble`) bit for bit, at shapes that split into
several blocks, some of them unevenly. Its blocks partition the rows,
a row-free grid takes one evaluate, a pole raises from the block that
holds it as the one-shot product raises, and the support policy's one
evaluate matches four. (The accuracy of the FFT path against exact
phases is checked in test_fourier_home.py and test_fibers.py.)
"""

import math

import numpy as np
import pytest

import psdo.fredholm as fredholm_module
import psdo.quantize as quantize_module
from oracles import MATRIX, SCALAR, X_DEP, X_DEP_MU, X_DEP_Q2, assert_same_bits, one_shot_kn_assemble, point_cone
from psdo.fredholm import _op_interior_on_edge
from psdo.geometry import Circle, Cone, Edge, Point
from psdo.quantize import (
    _BLOCK,
    AxisKind,
    QuantizeError,
    _check_support_policy,
    _cone_bindings,
    kn_assemble,
    op_circle,
    op_edge,
    op_mellin,
)
from psdo.symexpr import EvalError, parse


CONE = "1.3 + 0.4*chi(p) + 0.2*r/(1 + r) + 0.1*w/(1 + w^2)"
EDGE = "1.2 + 0.5*chi(p) + 0.3*w/(1 + w) + 0.2*(1 - cos(x))*chi(eta)"
INTERIOR = "1 + chi(xi)*cos(x) + r/(1 + r) + v*xi/(1 + xi^2)"

# Each grid streams in near-equal blocks of rows: circle 1000 in 8 x
# 125 and circle 600 (q = 2) in 12 x 50; the point cones 768 in 153 and
# 154; the circle base in 4 x 40 t rows; the edges in blocks of four x
# rows over fibers streamed in t blocks of 8 and of 16 rows; the
# interior on an edge in 2 x 32 x rows. The last two shapes split
# unevenly too: circle 1002 in 125 and 126 rows, edge 18 x 64 in 3 and
# 4 x rows over t blocks of 5 and 6. The q = 2 edges stream 4 x 4 and
# 3 x 4 x rows. The one-shot product is the arithmetic the streamed one
# replaced: one fiber batch for the whole edge, and a buffer laid out
# (..., a, b, j, k) whose contiguous rows take the FFT.
STREAMED = {
    "circle-1000": lambda: op_circle(Circle(1000), parse(SCALAR)).matrix,
    "circle-600-q2": lambda: op_circle(Circle(600, q=2), parse(MATRIX)).matrix,
    "point-768-periodic": lambda: op_mellin(point_cone(768), parse(CONE), v=0.7).matrix,
    "point-768-interval": lambda: op_mellin(point_cone(768, boundary="interval"), parse(CONE), v=0.7).matrix,
    "circle-base-16x160": lambda: op_mellin(
        Cone(Circle(16), T=6.0, n_t=160), parse("1 + chi(p)*chi(t) + 0.3*r/(1 + r)*chi(t)")
    ).matrix,
    "edge-16x64": lambda: op_edge(Edge(Circle(16), point_cone(64)), parse(EDGE), v=1.1).matrix,
    "edge-12x48-interval": lambda: op_edge(Edge(Circle(12), point_cone(48, boundary="interval")), parse(EDGE), v=1.1).matrix,
    "interior-on-edge-64x48": lambda: _op_interior_on_edge(Edge(Circle(64), point_cone(48)), parse(INTERIOR), 2.0),
    "circle-1002": lambda: op_circle(Circle(1002), parse(SCALAR)).matrix,
    "edge-18x64": lambda: op_edge(Edge(Circle(18), point_cone(64)), parse(EDGE), v=1.1).matrix,
    "edge-q2-16x32": lambda: op_edge(Edge(Circle(16, q=2), point_cone(32, q=2)), parse(X_DEP_Q2), v=0.9).matrix,
    "edge-q2-12x24-interval": lambda: op_edge(
        Edge(Circle(12, q=2), point_cone(24, q=2, boundary="interval")), parse(X_DEP_Q2), v=0.9
    ).matrix,
}


@pytest.fixture
def one_shot(monkeypatch):
    """Switch every kn_assemble call site to the one-shot product."""

    def use():
        monkeypatch.setattr(quantize_module, "kn_assemble", one_shot_kn_assemble)
        monkeypatch.setattr(fredholm_module, "kn_assemble", one_shot_kn_assemble)

    return use


@pytest.mark.parametrize("name", list(STREAMED))
def test_streamed_assembly_equals_one_shot(name, one_shot):
    build = STREAMED[name]
    streamed = build()
    one_shot()
    assert_same_bits(streamed, build())


def test_blocks_partition_the_rows():
    # near-equal blocks of at most _BLOCK entries (or two rows, if a row
    # is wider than half a block) and at least two rows, in order, so an
    # odd count of wide rows takes one three-row block; a grid that fits
    # one block takes one call. A circle x axis has as many modes as
    # nodes, so wide rows come from the fiber axes.
    for shape, starts in [
        ((1024, 1024, 1, 1), list(range(0, 1024, 128))),
        ((1000, 1000, 1, 1), list(range(0, 1000, 125))),
        ((256, 256, 1, 1), [0]),
        ((7, 7, 96, 96), [0, 2, 4]),
        ((9, 9, 64, 64), [0, 3, 6]),
        ((8, 8, 128, 128), [0, 2, 4, 6]),
        ((1, 1, 8, 1), [0]),
    ]:
        n, width = shape[0], math.prod(shape[1:])
        seen = []

        def symbol(js, shape=shape):
            seen.append(js)
            return np.ones((js.stop - js.start,) + shape[1:])

        nodes, covar = 2 * np.pi * np.arange(n) / n, np.fft.fftfreq(n, 1.0 / n)
        kn_assemble(symbol, nodes, covar, shape, AxisKind.CIRCLE_X)
        assert [js.start for js in seen] == starts
        assert seen[-1].stop == n and all(a.stop == b.start for a, b in zip(seen, seen[1:]))
        assert all(js.stop - js.start >= min(2, n) for js in seen)
        wide = [js for js in seen if (js.stop - js.start) * width > max(_BLOCK, 2 * width)]
        assert all(js.stop - js.start == 3 for js in wide) and len(wide) <= n % 2


@pytest.fixture
def evaluate_calls(monkeypatch):
    """A list that grows by one at each evaluate call of psdo.quantize."""
    calls = []
    evaluate = quantize_module.evaluate
    monkeypatch.setattr(quantize_module, "evaluate", lambda *a, **k: calls.append(1) or evaluate(*a, **k))
    return calls


def test_row_free_grid_takes_one_evaluate(evaluate_calls):
    # the first block of an x-free grid has stride 0 along j: its one
    # evaluation serves every row
    op_circle(Circle(1024), parse("1 + chi(xi)"))
    assert len(evaluate_calls) == 1
    op_circle(Circle(1024), parse("1 + chi(xi)*cos(x)"))
    assert len(evaluate_calls) == 1 + 8


# Circle(1024) streams 8 blocks of 128 rows; each symbol is non-finite
# on one node only: x_0 = 0, x_512 = fl(pi) (cos is exactly -1 there)
# or x_1023
LAST_NODE = float(Circle(1024).x[-1])
POLES = {
    "first-block": ("1 / sin(x)", 0),
    "middle-block": ("1 / (1 + cos(x))", 4),
    "last-block": (f"1 / (x - {LAST_NODE!r})", 7),
}


@pytest.mark.parametrize("name", list(POLES))
def test_pole_in_one_block_raises_like_one_shot(name, evaluate_calls, one_shot):
    src, block = POLES[name]
    with pytest.raises(EvalError) as streamed:
        op_circle(Circle(1024), parse(src))
    assert len(evaluate_calls) == block + 1  # the blocks before the pole evaluated, none after
    one_shot()
    with pytest.raises(EvalError) as whole:
        op_circle(Circle(1024), parse(src))
    assert str(streamed.value) == str(whole.value)


# families on interval cones, three of which the support policy refuses:
# (cone, family, v, xi, x_value, freeze_r, raises)
SUPPORT = {
    "sin-r": (point_cone(32, boundary="interval"), "sin(r)", 0.0, 0.0, 0.0, False, True),
    "two-plus-sin-r": (point_cone(16, boundary="interval"), "2 + sin(r)", 0.0, 0.0, 0.0, False, True),
    "cone": (point_cone(32, boundary="interval"), CONE, 0.7, 0.0, 0.0, False, False),
    "freeze-r": (point_cone(32, boundary="interval"), "r + w/(w+(0,1))", 1.0, 0.0, 0.0, True, False),
    "x-dep": (point_cone(16, boundary="interval"), X_DEP, 0.5, 1.5, 0.8, False, False),
    "circle-base": (Cone(Circle(8), T=4.0, n_t=16, boundary="interval"), X_DEP_MU, 0.5, 2.0, 0.3, False, False),
    "q2": (Cone(Point(), T=4.0, n_t=16, boundary="interval", q=2), X_DEP_Q2, 0.5, 1.0, 0.2, False, True),
}


@pytest.mark.parametrize("name", list(SUPPORT))
def test_support_policy_one_evaluate_matches_four(name, monkeypatch):
    # the gate's one evaluate over the r nodes (0, n_t - 1, 1, n_t - 2)
    # against one scalar-r evaluate per node: values within a few ulp of
    # the values' sup, and the same verdict
    g, src, v, xi, x_value, freeze_r, raises = SUPPORT[name]
    expr = parse(src)
    one = []
    evaluate = quantize_module.evaluate
    monkeypatch.setattr(quantize_module, "evaluate", lambda *a: one.append(evaluate(*a)) or one[-1])
    try:
        _check_support_policy(g, expr, v, xi, x_value, freeze_r)
        raised = False
    except QuantizeError as exc:
        assert "support policy" in str(exc)
        raised = True
    mu, p = None, g.p.reshape(-1, 1)
    if isinstance(g.base, Circle):
        mu, p = g.base.modes.astype(float).reshape(1, -1), g.p.reshape(-1, 1, 1)
    nodes = [0, g.n_t - 1, 1, g.n_t - 2]
    four = np.stack(
        [
            np.broadcast_to(evaluate(expr, _cone_bindings(g.r[i], p, v, xi, x_value, freeze_r, mu)), one[0].shape[1:])
            for i in nodes
        ]
    )
    assert len(one) == 1 and one[0].shape == four.shape
    assert np.max(np.abs(one[0] - four)) <= 4 * np.finfo(float).eps * np.max(np.abs(four))
    sup = max(float(np.max(np.abs(four[i]))) for i in (0, 1)) or 1.0
    four_raises = any(float(np.max(np.abs(four[i + 2] - four[i]))) > 1e-2 * sup for i in (0, 1))
    assert raised == four_raises == raises
