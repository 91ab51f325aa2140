"""Model geometries and the grid-level unitaries acting on them.

Three geometries: a periodic circle, a model cone over a point or circle
base carried on a log-radial cylinder window [-T, T], and an edge (a
circle of cone fibers). All operator matrices in this package act on the
flat representation r^((n+1)/2) u of a grid function u on a cone over an
n-dimensional base: that scaling turns the weighted norm on the cone into
the uniform-weight norm on the cylinder, which is what makes plain SVDs
meaningful. Natural samples u(r_j) are not modelled.

Axis layouts (`axis_layout`) describe the flat index of the operators on
a geometry. Operators on an interval-mode cone, or on an edge over one,
act on the interior nodes t_1..t_{n_t-1} only, so there the t axis holds
those nodes; every per-node function a caller builds from a layout lines
up with the operator matrices without further restriction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

DEFAULT_T = 6.0


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Point:
    """Zero-dimensional cone base."""


@dataclass(frozen=True)
class Circle:
    """Periodic grid on [0, 2pi) with n_x nodes and fiber dimension q."""

    n_x: int
    q: int = 1

    def __post_init__(self):
        _check_grid_size("circle", self.n_x)
        _check_q(self.q)

    @property
    def h_x(self) -> float:
        return 2.0 * np.pi / self.n_x

    @cached_property
    def x(self) -> np.ndarray:
        return self.h_x * np.arange(self.n_x)

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer Fourier modes in FFT order: 0..N/2-1, -N/2..-1."""
        return np.fft.fftfreq(self.n_x, d=1.0 / self.n_x).astype(int)

    @property
    def axes_shape(self) -> tuple[int, ...]:
        return (self.n_x,)

    @property
    def dim_total(self) -> int:
        return self.n_x * self.q


@dataclass(frozen=True)
class Cone:
    """Model cone over a point or circle base.

    Carried on the cylinder grid t_j = -T + j h_t, h_t = 2T/n_t, with
    r = exp(-t); r -> 0 is the t -> +T end. boundary selects how
    operators treat the window: 'periodic' wraps, and on an 'interval'
    cone operators act on the interior nodes only (all but the seam node
    t_0 = -T), which is the t axis of its layout.
    """

    base: Union[Point, Circle]
    T: float = DEFAULT_T
    n_t: int = 64
    boundary: str = "periodic"
    q: int = 1

    def __post_init__(self):
        if not isinstance(self.base, (Point, Circle)):
            raise GeometryError(f"cone base must be Point or Circle, got {type(self.base).__name__}")
        if not self.T > 0:
            raise GeometryError(f"cone window T must be positive, got {self.T}")
        _check_grid_size("cone", self.n_t)
        # a finite 2T bounds every node |t_j|, and a finite n_t pi/T every
        # covariable |p_k|
        if not (math.isfinite(2.0 * self.T) and math.isfinite(self.n_t * math.pi / self.T)):
            raise GeometryError(f"cone window T = {self.T} gives a non-finite node or covariable grid")
        if self.boundary not in ("periodic", "interval"):
            raise GeometryError(f"boundary must be 'periodic' or 'interval', got {self.boundary!r}")
        _check_q(self.q)
        if isinstance(self.base, Circle) and self.base.q != 1:
            raise GeometryError("cone base circle carries no fiber; set q on the cone")

    @property
    def h_t(self) -> float:
        return 2.0 * self.T / self.n_t

    @cached_property
    def t(self) -> np.ndarray:
        return -self.T + self.h_t * np.arange(self.n_t)

    @cached_property
    def r(self) -> np.ndarray:
        return np.exp(-self.t)

    @cached_property
    def p(self) -> np.ndarray:
        """Mellin-line covariable grid p_k = pi k / T, FFT mode order."""
        return (np.pi / self.T) * np.fft.fftfreq(self.n_t, d=1.0 / self.n_t)

    @property
    def axes_shape(self) -> tuple[int, ...]:
        if isinstance(self.base, Circle):
            return (self.n_t, self.base.n_x)
        return (self.n_t,)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.axes_shape))

    @property
    def dim_total(self) -> int:
        return self.n_nodes * self.q


@dataclass(frozen=True)
class Edge:
    """Circle of cone fibers; x along the edge, (t[, omega]) in the fiber."""

    circle: Circle
    cone: Cone

    def __post_init__(self):
        if self.circle.q != self.cone.q:
            raise GeometryError(f"edge fiber dimensions disagree: circle q={self.circle.q}, cone q={self.cone.q}")

    @property
    def q(self) -> int:
        return self.cone.q

    @property
    def axes_shape(self) -> tuple[int, ...]:
        return self.circle.axes_shape + self.cone.axes_shape

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.axes_shape))

    @property
    def dim_total(self) -> int:
        return self.n_nodes * self.q


Geometry = Union[Circle, Cone, Edge]


@dataclass(frozen=True)
class AxisLayout:
    """One grid axis of a geometry in the flat index of its operators.

    The flat index factorizes as (pre, n, post) with the axis in the
    middle, so pre * n * post is the dimension of an operator on the
    geometry. nodes are the axis coordinates (x or t), covar the
    matching covariables (Fourier modes or Mellin p, the latter always
    on the full periodic window), step the node spacing. Interval cones
    keep only their interior nodes t_1..t_{n_t-1} on the t axis, and an
    edge over one counts only those in the post of its x axis.
    """

    name: str
    pre: int
    n: int
    post: int
    nodes: np.ndarray
    covar: np.ndarray
    step: float
    periodic: bool

    @property
    def span(self) -> float:
        return 2.0 * np.pi if self.periodic else float(self.nodes[-1] - self.nodes[0])

    def distance(self, center: float) -> np.ndarray:
        """Node distances to center, wrapped on a periodic axis."""
        d = np.abs(self.nodes - center)
        return np.minimum(d, 2.0 * np.pi - d) if self.periodic else d

    def spread(self, values: np.ndarray) -> np.ndarray:
        """Per-node axis values broadcast to the flat-representation diagonal."""
        shape = (self.pre, self.n, self.post)
        return np.broadcast_to(np.asarray(values)[None, :, None], shape).reshape(-1)


def axis_layout(g: Geometry, axis: Optional[str] = None) -> AxisLayout:
    """Layout of the x (circle) or t (cone) axis of g in the flat index
    of its operators; None picks t on a cone and x otherwise. A geometry
    without the axis raises GeometryError."""
    if axis is None:
        axis = "t" if isinstance(g, Cone) else "x"
    cone = g if isinstance(g, Cone) else g.cone if isinstance(g, Edge) else None
    if cone is not None:
        t = cone.t[1:] if cone.boundary == "interval" else cone.t
        per_t = cone.dim_total // cone.n_t
    if axis == "x" and isinstance(g, (Circle, Edge)):
        circ = g if isinstance(g, Circle) else g.circle
        post = g.q if cone is None else len(t) * per_t
        return AxisLayout("x", 1, circ.n_x, post, circ.x, circ.modes.astype(float), circ.h_x, True)
    if axis == "t" and cone is not None:
        pre = g.dim_total // cone.dim_total
        return AxisLayout("t", pre, len(t), per_t, t, cone.p, cone.h_t, False)
    raise GeometryError(f"{type(g).__name__} geometry has no {axis!r} axis")


def _check_grid_size(kind: str, n: int) -> None:
    if n % 2 != 0:
        raise GeometryError(f"{kind} grid size must be even, got {n}")
    if n < 8:
        raise GeometryError(f"{kind} grid size must be at least 8, got {n}")


def _check_q(q: int) -> None:
    if q < 1:
        raise GeometryError(f"fiber dimension q must be >= 1, got {q}")


def is_int(raw: object) -> bool:
    """The integer rule for config fields: an int, with bool refused."""
    return isinstance(raw, int) and not isinstance(raw, bool)


def is_number(raw: object) -> bool:
    """The number rule for config fields: a finite float, or an int
    within float range, with bool refused."""
    if isinstance(raw, float):
        return math.isfinite(raw)
    return is_int(raw) and abs(raw) <= sys.float_info.max


def _int_field(desc: dict, key: str, default: Optional[int] = None) -> int:
    raw = desc.get(key, default)
    if raw is None:
        raise GeometryError(f"{desc['kind']} descriptor needs {key!r}")
    if not is_int(raw):
        raise GeometryError(f"{desc['kind']} field {key!r} must be an int, got {raw!r}")
    return raw


def _float_field(desc: dict, key: str, default: float) -> float:
    raw = desc.get(key, default)
    if not is_number(raw):
        raise GeometryError(f"{desc['kind']} field {key!r} must be a finite number, got {raw!r}")
    return float(raw)


# The keys each descriptor kind accepts; any other key is a typo.
_DESCRIPTOR_KEYS = {
    "circle": frozenset({"kind", "n_x", "q"}),
    "point": frozenset({"kind"}),
    "cone": frozenset({"kind", "base", "T", "n_t", "boundary", "q"}),
    "edge": frozenset({"kind", "n_x", "cone"}),
}


def build_geometry(desc: dict) -> Geometry:
    """Build a geometry from a plain descriptor dict (the CLI config and
    container format share this schema). Missing, mistyped or unknown
    fields raise GeometryError.

    kinds: {"kind": "circle", "n_x": 64, "q": 1}
           {"kind": "cone", "base": {"kind": "point"} | {"kind": "circle", "n_x": 16},
            "T": 6.0, "n_t": 64, "boundary": "periodic", "q": 1}
           {"kind": "edge", "n_x": 16, "cone": {...cone fields...}}
    """
    if not isinstance(desc, dict) or "kind" not in desc:
        raise GeometryError("geometry descriptor must be a dict with a 'kind'")
    kind = desc["kind"]
    if not isinstance(kind, str) or kind not in _DESCRIPTOR_KEYS:
        raise GeometryError(f"unknown geometry kind {kind!r}")
    unknown = set(desc) - _DESCRIPTOR_KEYS[kind]
    if unknown:
        raise GeometryError(f"unknown {kind} descriptor keys: {sorted(unknown)}")
    if kind == "circle":
        return Circle(n_x=_int_field(desc, "n_x"), q=_int_field(desc, "q", 1))
    if kind == "point":
        return Point()
    if kind == "cone":
        base_desc = desc.get("base", {"kind": "point"})
        base = build_geometry(base_desc)
        if isinstance(base, Cone):
            raise GeometryError("cone base must be a point or circle")
        return Cone(
            base=base,
            T=_float_field(desc, "T", DEFAULT_T),
            n_t=_int_field(desc, "n_t", 64),
            boundary=desc.get("boundary", "periodic"),
            q=_int_field(desc, "q", 1),
        )
    # an edge
    if not isinstance(desc.get("cone"), dict):
        raise GeometryError("edge descriptor needs a 'cone' dict")
    cone = build_geometry({**desc["cone"], "kind": "cone"})
    circle = Circle(n_x=_int_field(desc, "n_x"), q=cone.q)
    return Edge(circle=circle, cone=cone)


def describe_geometry(g: Geometry) -> dict:
    """Inverse of build_geometry, up to defaulted fields."""
    if isinstance(g, Circle):
        return {"kind": "circle", "n_x": g.n_x, "q": g.q}
    if isinstance(g, Cone):
        base = {"kind": "point"} if isinstance(g.base, Point) else {"kind": "circle", "n_x": g.base.n_x}
        return {"kind": "cone", "base": base, "T": g.T, "n_t": g.n_t, "boundary": g.boundary, "q": g.q}
    if isinstance(g, Edge):
        c = describe_geometry(g.cone)
        c.pop("kind")
        return {"kind": "edge", "n_x": g.circle.n_x, "cone": c}
    raise GeometryError(f"not a geometry: {g!r}")


# ---------------------------------------------------------------------------
# Dilations


@dataclass(frozen=True)
class DilationAction:
    """Grid-admissible dilation kappa_lambda, lambda = exp(k h_t).

    Acts on flat-representation vectors as a circular t-shift by k
    nodes. Conjugated by W = r^((n+1)/2), this is u -> lambda^((n+1)/2)
    u(lambda r) off the k wrapped seam nodes. Exactly unitary for the
    weighted inner product, exact group law.
    """

    geometry: Union[Cone, Edge]
    k: int

    def __post_init__(self):
        if not isinstance(self.geometry, (Cone, Edge)):
            raise GeometryError("dilations act on cone or edge geometries")

    @property
    def cone(self) -> Cone:
        return self.geometry if isinstance(self.geometry, Cone) else self.geometry.cone

    @property
    def lam(self) -> float:
        return float(np.exp(self.k * self.cone.h_t))

    @property
    def _grid(self) -> tuple[int, int, int]:
        """(pre, n_t, post) of the full periodic grid, the seam node
        included whatever the boundary mode."""
        c, d = self.cone, self.geometry.dim_total
        return d // c.dim_total, c.n_t, c.dim_total // c.n_t

    def conjugate(self, M: np.ndarray) -> np.ndarray:
        """kappa M kappa^{-1} for a flat-representation matrix M, as a
        t-axis roll of its rows and columns."""
        return np.roll(M.reshape(self._grid * 2), (self.k, self.k), axis=(1, 4)).reshape(M.shape)


# ---------------------------------------------------------------------------
# Cutoff families


def plateau_profile(d: np.ndarray, a: float, b: float) -> np.ndarray:
    """1 for d <= a, 0 for d >= b, exp(1 - 1/(1-u^2)) in between (u = (d-a)/(b-a))."""
    if not b > a:
        raise GeometryError(f"profile needs b > a, got a={a}, b={b}")
    d = np.asarray(d, dtype=float)
    u = (d - a) / (b - a)
    out = np.zeros_like(d)
    out[u <= 0.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        out[mid] = np.exp(1.0 - 1.0 / (1.0 - u[mid] ** 2))
    return out


@dataclass
class CutoffFamily:
    """Nested dyadic cutoffs on the default axis of a geometry:
    phi_i phi_{i+1} = phi_{i+1} exactly."""

    scales: tuple[float, ...]
    values: np.ndarray  # (len(scales), axis length)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.scales)


def cutoff_family(
    g: Geometry,
    center: float,
    n_scales: int,
    base_scale: float | None = None,
) -> CutoffFamily:
    """Dyadic family phi_i supported in |d| <= s_i, s_i = base_scale / 2^i,
    plateau exactly 1 on |d| <= s_i/2, along the default axis of g (t on
    a cone, x otherwise). Smallest scale must be >= 3 grid steps.
    """
    lay = axis_layout(g)
    if base_scale is None:
        base_scale = lay.span / 4.0
    scales = tuple(base_scale / 2.0**i for i in range(n_scales))
    if scales[-1] < 3.0 * lay.step:
        raise GeometryError(
            f"smallest cutoff scale {scales[-1]:.3g} is below 3 grid steps ({3*lay.step:.3g})"
        )
    rows = [plateau_profile(lay.distance(center), s / 2.0, s) for s in scales]
    return CutoffFamily(scales, np.array(rows))


def collar_cutoff(g: Union[Cone, Edge], r1: float) -> np.ndarray:
    """phi(r) on the layout's t nodes: 1 for r <= r1/2 (near the tip),
    0 for r >= r1."""
    cone = g if isinstance(g, Cone) else g.cone
    if r1 <= 0:
        raise GeometryError("collar radius must be positive")
    n = axis_layout(g, "t").n
    d = np.log(cone.r)[cone.n_t - n :]  # = -t, increases toward the far end
    return plateau_profile(d, np.log(r1 / 2.0), np.log(r1))
