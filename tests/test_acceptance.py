"""End-to-end acceptance battery.

Twelve contract criteria, one pass/fail line each. Run with -s (or
look at captured output on failure) to see the lines:

    A01 twisted homogeneity: PASS  (...)
    ...
    A12 report determinism: PASS  (...)
"""

import json
import time

import numpy as np

from psdo.calculus import compose_symbols, extract_symbol, infinitesimal
from psdo.cli import canonical_report_bytes
from psdo.cli import main as cli_main
from psdo.fredholm import finite_section, large_parameter_scan, winding_oracle
from psdo.geometry import Circle
from psdo.localization import (
    continuity_check,
    glue,
    local_norm,
    partition_bound_check,
    partition_of_unity,
)
from psdo.quantize import DiscretizedOperator, negligible_test, op_circle
from psdo.stock import (
    GLUING_COUNTS,
    degenerate_stock,
    elliptic_stock,
    gluing_family,
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
from psdo.symexpr import parse
from psdo.verify import _probe_sup_error


def verdict(label: str, ok: bool, detail: str = "") -> None:
    line = f"{label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_a01_twisted_homogeneity():
    # Five stock edge symbols, dilations lambda = e^{k h_t} for k in
    # 1..8 on the N_t = 64 cone, violations at or below 1e-10, under 5s.
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for sigma in homogeneity_stock():
        rep = check_twisted_homogeneity(sigma)
        worst = max(worst, rep.max_violation)
        ok = ok and rep.passed
    elapsed = time.perf_counter() - t0
    ok = ok and worst <= 1e-10 and elapsed < 5.0
    verdict("A01 twisted homogeneity", ok, f"worst {worst:.2e}, {elapsed:.2f}s")


def test_a02_composition_remainder():
    # Remainder slope at or below -(N - 0.5) for the truncated product,
    # N in {1, 2, 3}, xi samples {8, 16, 32, 64}, N_x = 256, under 30s.
    t0 = time.perf_counter()
    slopes = []
    ok = True
    for n in (1, 2, 3):
        res = compose_symbols("chi(xi)", "exp((0,1) * x)", n)
        slopes.append(res.fitted_exponent)
        ok = ok and res.fitted_exponent <= -(n - 0.5)
        ok = ok and res.xi_samples == (8.0, 16.0, 32.0, 64.0)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    verdict(
        "A02 composition remainder",
        ok,
        "slopes " + ", ".join(f"{s:.2f}" for s in slopes) + f", {elapsed:.2f}s",
    )


def test_a03_symbol_extraction():
    # Multipliers extract exactly at N = 64; the x-dependent sup-mode
    # error is O(1/N), demonstrated by halving from N = 64 to N = 128.
    g = Circle(64)
    ex = extract_symbol(op_circle(g, parse("xi / sqrt(1 + xi^2)")))
    k = g.modes.astype(float)
    err = float(np.max(np.abs(ex.blocks.reshape(-1) - k / np.sqrt(1.0 + k**2))))
    e64 = _probe_sup_error(64)
    e128 = _probe_sup_error(128)
    ok = err <= 1e-12 and e64 <= 1.1 / 64 and e128 <= 0.62 * e64
    verdict(
        "A03 symbol extraction",
        ok,
        f"multiplier {err:.1e}, sup {e64:.1e} -> {e128:.1e}",
    )


def test_a04_section_stability():
    # Elliptic stock: determinate ladders with stable kernel/cokernel
    # at N in {128, 256}. Degenerate stock: s_min decreasing and below
    # 1e-3 at N = 256.
    ok = True
    details = []
    for inst in elliptic_stock():
        rep = finite_section(inst.build, sizes=(128, 256))
        rows = rep.rows()
        stable = rows[0][1:3] == rows[1][1:3]
        ok = ok and rep.determinate and stable
    worst = 0.0
    for inst in degenerate_stock():
        s128 = float(inst.build(128).singular_values()[-1])
        s256 = float(inst.build(256).singular_values()[-1])
        worst = max(worst, s256)
        ok = ok and s256 < s128 and s256 < 1e-3
    details.append(f"5 elliptic stable, degenerate s_min <= {worst:.1e}")
    verdict("A04 section stability", ok, details[0])


def test_a05_toeplitz_index():
    # Projector-built shift: index -1 at every N in {64, 128, 256},
    # matching the winding oracle under the circle traversal, under 30s.
    t0 = time.perf_counter()
    w = winding_oracle("(1 + (0,1)*p) / (1 - (0,1)*p)").winding
    rep = finite_section(toeplitz_shift, sizes=(64, 128, 256))
    rows = rep.rows()
    ok = (
        w == 1
        and rep.determinate
        and all(r[3] == -1 for r in rows)
        and all(r[3] == -w for r in rows)
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    verdict(
        "A05 toeplitz index",
        ok,
        f"index -1 at N = 64/128/256, winding {w}, {elapsed:.2f}s",
    )


def test_a06_cone_index():
    # Finite-section index equals the tip winding on the interval-mode
    # stock, |winding| in {1, 1, 2}, per the pinned orientation.
    ok = True
    pairs = []
    for inst in index_stock():
        w = winding_oracle(inst.tip).winding
        rep = finite_section(inst.build, sizes=inst.sizes, tau_coef=inst.tau_coef)
        pairs.append((rep.index, w))
        ok = ok and rep.determinate and rep.index == w
    ok = ok and sorted(abs(w) for _, w in pairs) == [1, 1, 2]
    verdict("A06 cone index", ok, f"(index, winding) pairs {pairs}")


def test_a07_partition_bound():
    # 100 seeded instances, no violation beyond 1e-12, under 5s.
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for inst in partition_stock(seed=0, count=100):
        rep = partition_bound_check(inst.functions, inst.operators)
        worst = min(worst, rep.slack)
        count += 1
    elapsed = time.perf_counter() - t0
    ok = count == 100 and worst >= -1e-12 and elapsed < 5.0
    verdict(
        "A07 partition bound",
        ok,
        f"{count} instances, worst slack {worst:.1e}, {elapsed:.2f}s",
    )


def test_a08_gluing():
    # Reproduction: local_norm(glued - A_i, x_i) <= 2 eps for eps in
    # {0.5, 0.25, 0.125}. Cauchy: ||glued(eps) - glued(delta)|| bounded
    # by max{2 eps, 2 delta}.
    ok = True
    glued = {}
    worsts = {}
    for eps in sorted(GLUING_COUNTS, reverse=True):
        F = gluing_family(eps)
        cont = continuity_check(F, eps_ladder=(eps,))
        P = partition_of_unity(F.geometry, F.centers, eps)
        G = glue(F, P)
        glued[eps] = G
        worst = 0.0
        for x_i, A_i in zip(F.centers, F.operators):
            D = DiscretizedOperator(
                F.geometry, G.v, G.matrix - A_i.matrix, interior=G.interior
            )
            worst = max(worst, local_norm(D, x_i).limit)
        worsts[eps] = worst
        ok = ok and cont.passed and worst <= 2.0 * eps
    eps_values = sorted(glued)
    for i, e1 in enumerate(eps_values):
        for e2 in eps_values[i + 1:]:
            d = float(np.linalg.norm(glued[e1].matrix - glued[e2].matrix, 2))
            ok = ok and d <= max(2.0 * e1, 2.0 * e2)
    verdict(
        "A08 gluing",
        ok,
        "local norms "
        + ", ".join(f"{w:.3f} <= {2 * e:g}" for e, w in sorted(worsts.items())),
    )


def test_a09_parameter_family():
    # Stock multiplier family: s_min(v) >= 0.5 and non-decreasing
    # within 10% at |v| in {8, 16, 32, 64}.
    g, expr = parameter_family()
    rep = large_parameter_scan(g, expr, lower_bound=0.5)
    monotone = all(b >= 0.9 * a for a, b in zip(rep.s_min, rep.s_min[1:]))
    ok = rep.passed and monotone and all(s >= 0.5 for s in rep.s_min)
    verdict(
        "A09 parameter family",
        ok,
        "s_min " + ", ".join(f"{s:.3f}" for s in rep.s_min),
    )


def test_a10_infinitesimal():
    # Freezing on every model geometry: d_lambda non-increasing with
    # final <= 1e-3, frozen operators translation-equivariant to 1e-10,
    # and ||i_z(A)|| <= ||A||.
    ok = True
    finals = []
    for g, expr, z in infinitesimal_stock():
        inst = infinitesimal(g, expr, z=z)
        d = inst.diagnostics
        A = inst.source
        tdef = inst.translation_defect()
        finals.append(d.final)
        ok = (
            ok
            and d.non_increasing
            and d.final <= 1e-3
            and tdef <= 1e-10
            and inst.operator.norm() <= A.norm() + 1e-12
        )
    verdict(
        "A10 infinitesimal",
        ok,
        "finals " + ", ".join(f"{f:.1e}" for f in finals),
    )


def test_a11_negligible():
    # Smoothing stock accepted at orders {1, 2, 4}, identity rejected,
    # and verdicts stable across seeds.
    smoothing, identity = negligible_stock()
    ok = True
    for seed in (0, 1, 17):
        vs = negligible_v_values(seed)
        for order in (1, 2, 4):
            ok = ok and negligible_test(smoothing, order=order, v_values=vs).accepted
        ok = ok and not negligible_test(identity, order=4, v_values=vs).accepted
    verdict("A11 negligible", ok, "orders 1/2/4 accepted, identity rejected, seeds 0/1/17")


def test_a12_report_determinism(tmp_path, capsys):
    # Two full verification runs produce byte-identical reports once
    # the volatile block (timestamp, timings) is set aside; under 10min.
    t0 = time.perf_counter()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0}))
    code1 = cli_main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r1")])
    code2 = cli_main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r2")])
    capsys.readouterr()
    a = json.loads((tmp_path / "r1" / "report.json").read_text())
    b = json.loads((tmp_path / "r2" / "report.json").read_text())
    elapsed = time.perf_counter() - t0
    identical = canonical_report_bytes(a) == canonical_report_bytes(b)
    ok = (
        code1 == 0
        and code2 == 0
        and identical
        and a["result"]["passed"]
        and a["volatile"]["timestamp"] != b["volatile"]["timestamp"]
        and elapsed < 600.0
    )
    verdict(
        "A12 report determinism",
        ok,
        f"canonical bytes identical, both exit 0, {elapsed:.1f}s",
    )
