"""Named verification suites: one battery per calculus invariant.

Each suite maps a seed to a SuiteResult with per-check verdicts and
fixed-precision detail strings. Only the randomized suites consume the
seed; the rest take it for interface uniformity, so a seed change can
alter randomized draws but never verdicts. Suites run one after another
in catalog order. Per-suite wall and CPU time and the measured values
the gates read (slopes, s_min values, (index, winding) pairs, ...) ride
on the SuiteResult outside the verdict payload, because the report
contract promises byte-identical payloads across runs; the acceptance
tests assert on those values instead of re-running the loops.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from psdo.calculus import (
    compose_symbols,
    extract_symbol,
    infinitesimal,
    probe_symbol,
)
from psdo.fredholm import (
    finite_section,
    large_parameter_scan,
    winding_oracle,
)
from psdo.geometry import Circle
from psdo.localization import (
    continuity_check,
    glue,
    local_norm,
    partition_bound_check,
    partition_of_unity,
)
from psdo.quantize import (
    DiscretizedOperator,
    negligible_test,
    op_circle,
)
from psdo.stock import (
    GLUING_COUNTS,
    degenerate_stock,
    elliptic_stock,
    gluing_families,
    homogeneity_stock,
    index_stock,
    infinitesimal_stock,
    negligible_stock,
    negligible_v_values,
    parameter_family,
    partition_stock,
    toeplitz_shift,
)
from psdo.symbols import check_twisted_homogeneity
from psdo.symexpr import parse, to_source

__all__ = [
    "VerifyError",
    "CheckResult",
    "SuiteResult",
    "VerifyReport",
    "SUITES",
    "suite_names",
    "run_suites",
]


class VerifyError(ValueError):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    passed: bool
    checks: tuple[CheckResult, ...]
    elapsed: float = 0.0  # wall seconds, set by run_suites; volatile, excluded from payloads
    cpu: float = 0.0  # process CPU seconds, all threads; set and excluded like elapsed
    measured: dict = field(default_factory=dict, repr=False)  # gate inputs, excluded from payloads


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    suites: tuple[SuiteResult, ...]
    passed: bool

    def payload(self) -> dict:
        """Deterministic content: everything except timings."""
        return {
            "seed": self.seed,
            "passed": self.passed,
            "suites": [
                {
                    "suite": s.suite,
                    "passed": s.passed,
                    "checks": [
                        {"name": c.name, "passed": c.passed, "detail": c.detail}
                        for c in s.checks
                    ],
                }
                for s in self.suites
            ],
        }

    def timings(self) -> dict:
        return {s.suite: round(s.elapsed, 6) for s in self.suites}

    def cpu_timings(self) -> dict:
        return {s.suite: round(s.cpu, 6) for s in self.suites}


def _result(suite: str, checks: list[CheckResult], **measured) -> SuiteResult:
    return SuiteResult(suite, all(c.passed for c in checks), tuple(checks), measured=measured)


# ---------------------------------------------------------------------------
# Suites


def suite_skruch(seed: int) -> SuiteResult:
    """Twisted homogeneity of the stock edge symbols under every
    grid-admissible dilation."""
    checks, reports = [], []
    for sigma in homogeneity_stock():
        rep = check_twisted_homogeneity(sigma)
        reports.append(rep)
        label = to_source(sigma.family.expr)[:40]
        checks.append(
            CheckResult(
                label,
                rep.passed and rep.max_violation <= 1e-10,
                f"max violation {rep.max_violation:.3e} over k in 1..8",
            )
        )
    return _result("skruch", checks, reports=tuple(reports))


def suite_composition(seed: int) -> SuiteResult:
    """Remainder decay of the truncated symbol product."""
    checks, results = [], []
    for n in (1, 2, 3):
        res = compose_symbols("chi(xi)", "exp((0,1) * x)", n)
        results.append(res)
        gate = -(n - 0.5)
        checks.append(
            CheckResult(
                f"order-{n}",
                res.fitted_exponent <= gate,
                f"fitted slope {res.fitted_exponent:.4f} <= {gate:.1f}, "
                f"tail norm {res.remainder_norms[-1]:.3e}",
            )
        )
    return _result("composition", checks, results=tuple(results))


def _probe_sup_error(n: int) -> float:
    g = Circle(n)
    s = 2.0 / n
    A = op_circle(g, parse(f"sin(x) * chi({s} * xi)"))
    worst = 0.0
    for x0 in g.x[:: n // 8]:
        for k in range(-n // 4, n // 4 + 1, n // 32):
            want = np.sin(x0) * (s * k) / np.sqrt(1.0 + (s * k) ** 2)
            got = probe_symbol(A, float(x0), int(k))
            worst = max(worst, abs(got - want))
    return worst


def suite_roundtrip(seed: int) -> SuiteResult:
    """Quantize-then-extract identity, exact for multipliers and
    first-order in 1/N for x-dependent symbols."""
    checks = []
    g = Circle(64)
    ex = extract_symbol(op_circle(g, parse("xi / sqrt(1 + xi^2)")))
    k = g.modes.astype(float)
    err = float(np.max(np.abs(ex.blocks.reshape(-1) - k / np.sqrt(1.0 + k**2))))
    checks.append(
        CheckResult(
            "multiplier-exact",
            err <= 1e-12,
            f"max block error {err:.3e} at N = 64",
        )
    )
    e64 = _probe_sup_error(64)
    e128 = _probe_sup_error(128)
    checks.append(
        CheckResult(
            "probe-halving",
            e64 <= 1.1 / 64 and e128 <= 0.62 * e64,
            f"sup error {e64:.4e} at N = 64, {e128:.4e} at N = 128, "
            f"ratio {e128 / e64:.3f}",
        )
    )
    return _result("roundtrip", checks, multiplier_error=err, e64=e64, e128=e128)


def suite_sections(seed: int) -> SuiteResult:
    """Finite sections: stable determinate verdicts on the elliptic
    stock, collapsing minima on the degenerate stock."""
    checks, elliptic, degenerate = [], [], []
    for inst in elliptic_stock():
        rep = finite_section(inst.build, sizes=(128, 256))
        elliptic.append(rep)
        rows = rep.rows()
        stable = all(r[1] == 0 and r[2] == 0 for r in rows)
        checks.append(
            CheckResult(
                f"elliptic/{inst.name}",
                rep.determinate and stable,
                f"rows {rows}",
            )
        )
    for inst in degenerate_stock():
        s128 = float(inst.build(128).singular_values()[-1])
        s256 = float(inst.build(256).singular_values()[-1])
        degenerate.append((s128, s256))
        checks.append(
            CheckResult(
                f"degenerate/{inst.name}",
                s256 < s128 and s256 < 1e-3,
                f"s_min {s128:.3e} at 128 -> {s256:.3e} at 256",
            )
        )
    return _result(
        "sections", checks, elliptic=tuple(elliptic), degenerate=tuple(degenerate)
    )


def suite_toeplitz(seed: int) -> SuiteResult:
    """Classical shift-projector index against the circle winding.

    The circle symbol exp(i theta) maps to (1 + ip)/(1 - ip) on the
    line; traversing x around the circle gives index = -winding, the
    orientation opposite to the cone convention.
    """
    w = winding_oracle("(1 + (0,1)*p) / (1 - (0,1)*p)").winding
    rep = finite_section(toeplitz_shift, sizes=(64, 128, 256))
    checks = []
    for row in rep.rows():
        n, kernel, cokernel, index = row
        checks.append(
            CheckResult(
                f"N={n}",
                rep.determinate and index == -w,
                f"kernel {kernel}, cokernel {cokernel}, index {index}, "
                f"winding {w}",
            )
        )
    return _result("toeplitz", checks, winding=w, report=rep)


def suite_cone_index(seed: int) -> SuiteResult:
    """Finite-section index equals +winding of the tip factor under the
    pinned orientation (p from -p_max to +p_max)."""
    checks, pairs = [], []
    for inst in index_stock():
        w = winding_oracle(inst.tip).winding
        rep = finite_section(inst.build, sizes=inst.sizes, tau_coef=inst.tau_coef)
        pairs.append((rep, w))
        checks.append(
            CheckResult(
                inst.name,
                rep.determinate and rep.index == w,
                f"index {rep.index}, winding {w}, rows {rep.rows()}",
            )
        )
    return _result("cone-index", checks, pairs=tuple(pairs))


def suite_partition_bound(seed: int) -> SuiteResult:
    """Randomized partition norm bound instances; seeded draws."""
    worst = 0.0
    count = 0
    for inst in partition_stock(seed=seed):
        rep = partition_bound_check(inst.functions, inst.operators)
        worst = min(worst, rep.slack)
        count += 1
    checks = [
        CheckResult(
            "random-instances",
            worst >= -1e-12,
            f"{count} instances, worst slack {worst:.3e}",
        )
    ]
    return _result("partition-bound", checks, count=count, worst=worst)


def suite_gluing(seed: int) -> SuiteResult:
    """Reproduction and Cauchy contracts for the gluing ladder."""
    checks = []
    glued, reproduction, cauchy = {}, {}, []
    families = gluing_families()
    for eps in sorted(GLUING_COUNTS, reverse=True):
        F = families[eps]
        cont = continuity_check(F, eps)
        P = partition_of_unity(F.geometry, F.centers, eps)
        G = glue(F, P)
        glued[eps] = G
        worst = 0.0
        for x_i, A_i in zip(F.centers, F.operators):
            D = DiscretizedOperator(F.geometry, G.v, G.matrix - A_i.matrix)
            worst = max(worst, local_norm(D, x_i).limit)
        reproduction[eps] = (cont, worst)
        checks.append(
            CheckResult(
                f"reproduction/eps={eps:g}",
                cont.passed and worst <= 2.0 * eps,
                f"witness {cont.witnesses.max():.4f}, "
                f"worst local norm {worst:.4f} <= {2.0 * eps:g}",
            )
        )
    eps_values = sorted(glued)
    for i, e1 in enumerate(eps_values):
        for e2 in eps_values[i + 1:]:
            d = float(np.linalg.norm(glued[e1].matrix - glued[e2].matrix, 2))
            gate = max(2.0 * e1, 2.0 * e2)
            cauchy.append((e1, e2, d))
            checks.append(
                CheckResult(
                    f"cauchy/{e1:g}-{e2:g}",
                    d <= gate,
                    f"gap {d:.4f} <= {gate:g}",
                )
            )
    return _result("gluing", checks, reproduction=reproduction, cauchy=tuple(cauchy))


def suite_large_parameter(seed: int) -> SuiteResult:
    """Invertibility of the parameter multiplier family for large v."""
    g, expr = parameter_family()
    rep = large_parameter_scan(g, expr)
    monotone = all(b >= 0.9 * a for a, b in zip(rep.s_min, rep.s_min[1:]))
    checks = [
        CheckResult(
            "multiplier-family",
            rep.passed and monotone and all(s >= 0.5 for s in rep.s_min),
            f"s_min {[f'{s:.4f}' for s in rep.s_min]} at |v| in 8..64",
        )
    ]
    return _result("large-parameter", checks, report=rep)


def suite_infinitesimal(seed: int) -> SuiteResult:
    """Freezing diagnostics: monotone decay, translation equivariance,
    and contraction on every model geometry."""
    checks, freezings = [], []
    for g, expr, z in infinitesimal_stock():
        inst = infinitesimal(g, expr, z=z)
        d = inst.diagnostics
        tdef = inst.translation_defect()
        norm, source_norm = inst.norm(), inst.source_norm
        contract = norm <= source_norm + 1e-12
        freezings.append((d, tdef, norm, source_norm))
        checks.append(
            CheckResult(
                type(g).__name__.lower(),
                d.non_increasing and d.final <= 1e-3 and tdef <= 1e-10 and contract,
                f"final {d.final:.3e}, translation defect {tdef:.3e}, "
                f"norm {norm:.4f} <= {source_norm:.4f}",
            )
        )
    return _result("infinitesimal", checks, freezings=tuple(freezings))


def suite_negligible(seed: int) -> SuiteResult:
    """Negligibility verdicts on seeded parameter draws."""
    smoothing, identity = negligible_stock()
    vs = negligible_v_values(seed)
    checks, smooth = [], []
    for order in (1, 2, 4):
        verdict = negligible_test(smoothing, order=order, v_values=vs)
        smooth.append(verdict)
        checks.append(
            CheckResult(
                f"smoothing/order-{order}",
                verdict.accepted,
                f"sup weighted {verdict.sup_weighted:.3f} <= {verdict.tau:g}",
            )
        )
    verdict = negligible_test(identity, order=4, v_values=vs)
    checks.append(
        CheckResult(
            "identity/order-4",
            not verdict.accepted,
            f"sup weighted {verdict.sup_weighted:.3e} > {verdict.tau:g}",
        )
    )
    return _result("negligible", checks, smoothing=tuple(smooth), identity=verdict)


SUITES: dict[str, Callable[[int], SuiteResult]] = {
    "skruch": suite_skruch,
    "composition": suite_composition,
    "roundtrip": suite_roundtrip,
    "sections": suite_sections,
    "toeplitz": suite_toeplitz,
    "cone-index": suite_cone_index,
    "partition-bound": suite_partition_bound,
    "gluing": suite_gluing,
    "large-parameter": suite_large_parameter,
    "infinitesimal": suite_infinitesimal,
    "negligible": suite_negligible,
}


def suite_names() -> tuple[str, ...]:
    return tuple(SUITES)


def run_suites(seed: int = 0, only: Optional[str] = None) -> VerifyReport:
    """Run the battery (or one suite) and collect a report."""
    if only is not None:
        if only not in SUITES:
            raise VerifyError(
                f"unknown suite {only!r}; known: {', '.join(SUITES)}"
            )
        names = [only]
    else:
        names = list(SUITES)
    results = []
    for name in names:
        t0, c0 = time.perf_counter(), time.process_time()
        res = SUITES[name](seed)
        results.append(
            replace(res, elapsed=time.perf_counter() - t0, cpu=time.process_time() - c0)
        )
    return VerifyReport(
        seed=seed,
        suites=tuple(results),
        passed=all(r.passed for r in results),
    )
