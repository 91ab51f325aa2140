"""The three benchmark workloads: seeded inputs, the operations of one
pass, and an oracle for each operation.

Every workload is a list of operations. An operation is a pair
(run, check): `run` is the timed call into psdo, `check` turns its
output into (attempted, failed) counts outside the timed region.
Calls go through module attributes looked up at call time
(`psdo.cli.main`, `psdo.quantize.quantize`), so the tracer's wrappers
see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path
from typing import Callable

import numpy as np

import psdo.cli
import psdo.quantize
from psdo.geometry import Circle, Cone, Edge, Point
from psdo.symexpr import parse

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_FILE = BENCH_DIR / "digests.json"

Operation = tuple[Callable[[], object], Callable[[object], tuple[int, int]]]


def call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = psdo.cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# battery: `psdo verify --seed S`


def battery_digest(stdout: str) -> str:
    """sha256 of the canonical payload of a `psdo verify` report."""
    report = json.loads(stdout)
    return hashlib.sha256(psdo.cli.canonical_report_bytes(report)).hexdigest()


def recorded_digest(seed: int) -> str | None:
    """The digest recorded for `seed` in digests.json (seeds 0..63), or
    None: other seeds are run without the digest check."""
    return json.loads(DIGESTS_FILE.read_text())["seeds"].get(str(seed))


def battery_ops(seed: int, work_dir: Path) -> list[Operation]:
    """One operation per pass: the full verify battery. Every check must
    pass; for a seed in digests.json the canonical payload must also
    match the digest recorded there."""
    recorded = recorded_digest(seed)

    def run() -> tuple[int, str]:
        return call_cli(["verify", "--seed", str(seed)])

    def check(out: tuple[int, str]) -> tuple[int, int]:
        code, text = out
        payload = json.loads(text)["result"]
        checks = [c for s in payload["suites"] for c in s["checks"]]
        failed = sum(not c["passed"] for c in checks)
        if code != psdo.cli.EXIT_OK or (
            recorded is not None and battery_digest(text) != recorded
        ):
            failed = len(checks)
        return len(checks), failed

    return [(run, check)]


# ---------------------------------------------------------------------------
# index: `psdo index --config cfg.json` on seeded cone index configs

# Cayley-type tips ((p - c) - i s) / ((p - c) + i s) wind +1 along the
# weight line; the square winds +2 and the inverse -1. All 192 configs of
# 64 (c, s) points in this range (the four corners plus 60 uniform
# draws) gave consistent verdicts. Narrower tips close their conormal
# gap too slowly: at s = 0.7 the ladder is honestly indeterminate.
TIP_C = (-1.5, 1.5)
TIP_S = (1.0, 1.4)

# A conormal zero of order 2 at p = 2: section minima keep falling, so
# the documented verdict is indeterminate (exit 4).
DEGENERATE_TIP = "(0.2*(p - 2) / (0.2*(p - 2) + (0,1)))^2"


def _cayley(c: float, s: float) -> str:
    return f"((p - ({c!r})) - (0,{s!r})) / ((p - ({c!r})) + (0,{s!r}))"


def _interpolated(tip: str) -> str:
    return f"1 + (1 / (1 + r)) * (({tip}) - 1)"


def index_configs(seed: int) -> list[tuple[dict, int, int | None]]:
    """(config, expected exit code, expected index) for one seeded tip,
    its square and its inverse, then the degenerate config."""
    rng = np.random.default_rng(seed)
    tip = _cayley(float(rng.uniform(*TIP_C)), float(rng.uniform(*TIP_S)))
    out: list[tuple[dict, int, int | None]] = []
    # The squared factor's second near-null vector decays slowly: it needs
    # the larger threshold and sections from 128 (as in the stock).
    for variant, winding, sizes, tau in (
        (tip, 1, [64, 128, 256], 1e-4),
        (f"({tip})^2", 2, [128, 256], 1e-3),
        (f"1 / ({tip})", -1, [64, 128, 256], 1e-4),
    ):
        cfg = {"symbol": _interpolated(variant), "tip": variant, "sizes": sizes, "tau_coef": tau}
        out.append((cfg, psdo.cli.EXIT_OK, winding))
    out.append(({"symbol": _interpolated(DEGENERATE_TIP)}, psdo.cli.EXIT_INDETERMINATE, None))
    return out


def index_ops(seed: int, work_dir: Path) -> list[Operation]:
    ops: list[Operation] = []
    for i, (cfg, want_code, want_index) in enumerate(index_configs(seed)):
        path = work_dir / f"index-{i}.json"
        path.write_text(json.dumps(cfg))

        def run(path: Path = path) -> tuple[int, str]:
            return call_cli(["index", "--config", str(path)])

        def check(out, want_code=want_code, want_index=want_index) -> tuple[int, int]:
            code, text = out
            ok = code == want_code
            if ok and want_index is not None:
                ok = json.loads(text)["result"].get("index") == want_index
            return 1, int(not ok)

        ops.append((run, check))
    return ops


# ---------------------------------------------------------------------------
# assemble: psdo.quantize.quantize over a fixed shape ladder

RTOL = 1e-10
ROW_BLOCK = 64  # rows of the operator checked at a time, to keep the oracle's memory small


def _chi(s):
    return s / np.sqrt(1.0 + s * s)


def _lit(x: float) -> str:
    return repr(float(x))


def _flat(*axes: np.ndarray) -> list[np.ndarray]:
    """Flat coordinates of a tensor-product grid, first axis slowest (the
    order of the flat representation)."""
    return [a.reshape(-1) for a in np.meshgrid(*axes, indexing="ij")]


def plane_wave_images(rows: np.ndarray, axes: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """rows @ W, where W is the full plane-wave matrix of a tensor grid:
    W[(j..), (k..)] = prod over axes of exp(i k x_j), column order as in the
    flat representation. `axes` holds (nodes x, covariables k) per axis.
    For uniform nodes x_j = x_0 + j h and k = 2 pi m / (n h), m in FFT
    order, the sum over j along an axis is n * ifft times exp(i k x_0)."""
    shape = tuple(len(x) for x, _ in axes)
    out = rows.reshape((rows.shape[0],) + shape)
    for axis, (x, k) in enumerate(axes, start=1):
        n, h = len(x), x[1] - x[0]
        if not (np.allclose(np.diff(x), h, rtol=1e-12, atol=0)
                and np.allclose(k * n * h / (2 * np.pi), np.fft.fftfreq(n, 1.0 / n),
                                rtol=0, atol=1e-9)):
            raise ValueError("grid is not a uniform DFT pair")
        phase = np.exp(1j * k * x[0]).reshape((n,) + (1,) * (len(axes) - axis))
        out = n * np.fft.ifft(out, axis=axis) * phase
    return out.reshape(rows.shape[0], -1)


def _circle_case(n: int, rng):
    a0, a1, a2 = rng.uniform(1.0, 2.0), rng.uniform(0.2, 0.8), rng.uniform(0.1, 0.5)
    sc = rng.uniform(0.05, 0.2)
    src = (
        f"{_lit(a0)} + {_lit(a1)} * cos(x) * chi(xi)"
        f" + {_lit(a2)} * sin(2 * x) / (1 + ({_lit(sc)} * xi)^2)"
    )
    g = Circle(n)
    x, k = g.x, g.modes.astype(float)

    def want(rows: slice) -> np.ndarray:
        xr = x[rows, None]
        a = a0 + a1 * np.cos(xr) * _chi(k) + a2 * np.sin(2 * xr) / (1 + (sc * k) ** 2)
        return np.exp(1j * k * xr) * a

    return g, src, None, [(x, k)], want


def _point_cone_case(n_t: int, rng):
    b0, b1, b2 = rng.uniform(1.0, 2.0), rng.uniform(0.2, 0.8), rng.uniform(0.1, 0.5)
    src = f"{_lit(b0)} + {_lit(b1)} * chi(p) + {_lit(b2)} * r / (1 + r)"
    g = Cone(Point(), T=8.0, n_t=n_t)
    p = g.p

    def want(rows: slice) -> np.ndarray:
        t, r = g.t[rows, None], g.r[rows, None]
        return np.exp(1j * p * t) * (b0 + b1 * _chi(p) + b2 * r / (1 + r))

    return g, src, None, [(g.t, p)], want


def _circle_cone_case(n_t: int, n_w: int, rng):
    b0, b1, b2 = rng.uniform(1.0, 2.0), rng.uniform(0.2, 0.8), rng.uniform(0.1, 0.5)
    src = f"{_lit(b0)} + {_lit(b1)} * chi(p) + {_lit(b2)} * r / (1 + r) * chi(t)"
    base = Circle(n_w)
    g = Cone(base, T=6.0, n_t=n_t)
    mu = base.modes.astype(float)
    t_flat, w_flat = _flat(g.t, base.x)  # rows: (t, omega)
    p_flat, mu_flat = _flat(g.p, mu)  # columns: (p, mu)

    def want(rows: slice) -> np.ndarray:
        t, w = t_flat[rows, None], w_flat[rows, None]
        r = np.exp(-t)
        val = b0 + b1 * _chi(p_flat) + b2 * r / (1 + r) * _chi(mu_flat)
        return np.exp(1j * (p_flat * t + mu_flat * w)) * val

    return g, src, None, [(g.t, g.p), (base.x, mu)], want


def _edge_case(n_x: int, n_t: int, x_dependent: bool, rng):
    d0, d1, d2, d3 = (rng.uniform(1.0, 2.0), rng.uniform(0.2, 0.8),
                      rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5))
    v = float(rng.uniform(0.5, 2.0))
    xfac = "(1 - cos(x)) * " if x_dependent else ""
    src = (
        f"{_lit(d0)} + {_lit(d1)} * chi(p) + {_lit(d2)} * w / (1 + w)"
        f" + {_lit(d3)} * {xfac}chi(eta)"
    )
    circ = Circle(n_x)
    cone = Cone(Point(), T=6.0, n_t=n_t)
    g = Edge(circ, cone)
    xi = circ.modes.astype(float)
    x_flat, t_flat = _flat(circ.x, cone.t)  # rows: (x, t)
    xi_flat, p_flat = _flat(xi, cone.p)  # columns: (xi, p)

    def want(rows: slice) -> np.ndarray:
        x, t = x_flat[rows, None], t_flat[rows, None]
        r = np.exp(-t)
        xf = (1 - np.cos(x)) if x_dependent else 1.0
        val = (d0 + d1 * _chi(p_flat) + d2 * (v * r) / (1 + v * r)
               + d3 * xf * _chi(xi_flat * r))
        return np.exp(1j * (xi_flat * x + p_flat * t)) * val

    return g, src, v, [(circ.x, xi), (cone.t, cone.p)], want


def assemble_cases(seed: int) -> list[tuple]:
    """Fixed shapes, seeded coefficients. Each case is (geometry, DSL
    source, v, plane-wave axes, oracle for a block of rows)."""
    rng = np.random.default_rng(seed)
    return [
        _circle_case(256, rng),
        _circle_case(512, rng),
        _circle_case(1024, rng),
        _point_cone_case(256, rng),
        _circle_cone_case(32, 16, rng),
        _edge_case(16, 64, False, rng),
        _edge_case(16, 32, True, rng),
    ]


def plane_wave_error(matrix: np.ndarray, axes, want) -> float:
    """Largest relative error, over every mode k, of the Kohn-Nirenberg
    plane-wave identity (A e_k)(x_j) = e^{i k x_j} a(x_j, k). Each column
    is measured against its own largest expected value."""
    n = matrix.shape[0]
    if matrix.shape != (n, n) or n != int(np.prod([len(x) for x, _ in axes])):
        raise ValueError(f"operator shape {matrix.shape} does not match the grid")
    err = np.zeros(n)
    scale = np.zeros(n)
    for r0 in range(0, n, ROW_BLOCK):
        rows = slice(r0, min(r0 + ROW_BLOCK, n))
        expected = want(rows)
        err = np.maximum(err, np.abs(plane_wave_images(matrix[rows], axes) - expected).max(axis=0))
        scale = np.maximum(scale, np.abs(expected).max(axis=0))
    return float(np.max(err / scale))


def assemble_ops(seed: int, work_dir: Path) -> list[Operation]:
    """Each operator is checked against the Kohn-Nirenberg plane-wave
    identity on every mode of its grid, with the symbol written out in
    numpy here rather than evaluated by psdo."""
    ops: list[Operation] = []
    for g, src, v, axes, want in assemble_cases(seed):
        expr = parse(src)

        def run(g=g, expr=expr, v=v):
            return psdo.quantize.quantize(g, expr, v=v)

        def check(op, axes=axes, want=want) -> tuple[int, int]:
            return 1, int(not plane_wave_error(op.matrix, axes, want) <= RTOL)

        ops.append((run, check))
    return ops


WORKLOADS: dict[str, Callable[[int, Path], list[Operation]]] = {
    "battery": battery_ops,
    "index": index_ops,
    "assemble": assemble_ops,
}
