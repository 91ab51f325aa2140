"""End-to-end acceptance battery.

Twelve contract criteria, one pass/fail line each. Run with -s (or
look at captured output on failure) to see the lines:

    A01 twisted homogeneity: PASS  (...)
    ...
    A12 report determinism: PASS  (...)

A01-A11 read the values the verify suites measured (SuiteResult.measured)
from one shared seed-0 battery run (the session fixture `battery` of
conftest.py); A11 adds seeds 1 and 17 of the
negligible suite. The time bounds of A01, A02 and A05 read the
suite's own CPU seconds (`SuiteResult.cpu`, all threads of the
process), which other processes on the machine do not inflate the way
they inflate its wall time; their verdicts print both. A07 and A12
read wall time.
"""

import hashlib
import json
import time
from pathlib import Path

from psdo.cli import canonical_report_bytes, make_report
from psdo.cli import main as cli_main
from psdo.verify import run_suites

DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"


def suite(battery, name):
    return next(s for s in battery.suites if s.suite == name)


def verdict(label: str, ok: bool, detail: str = "") -> None:
    line = f"{label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def timing(res) -> str:
    return f"{res.cpu:.2f}s cpu, {res.elapsed:.2f}s wall"


def test_a01_twisted_homogeneity(battery):
    # Five stock edge symbols, dilations lambda = e^{k h_t} for k in
    # 1..8 on the N_t = 64 cone, violations at or below 1e-10, under 5 CPU seconds.
    res = suite(battery, "skruch")
    worst = 0.0
    ok = True
    for rep in res.measured["reports"]:
        worst = max(worst, rep.max_violation)
        ok = ok and rep.passed
    ok = ok and len(res.measured["reports"]) == 5 and worst <= 1e-10 and res.cpu < 5.0
    verdict("A01 twisted homogeneity", ok, f"worst {worst:.2e}, {timing(res)}")


def test_a02_composition_remainder(battery):
    # Remainder slope at or below -(N - 0.5) for the truncated product,
    # N in {1, 2, 3}, xi samples {8, 16, 32, 64}, N_x = 256, under 30 CPU seconds.
    res = suite(battery, "composition")
    slopes = []
    ok = True
    for n, r in zip((1, 2, 3), res.measured["results"], strict=True):
        slopes.append(r.fitted_exponent)
        ok = ok and r.fitted_exponent <= -(n - 0.5)
        ok = ok and r.xi_samples == (8.0, 16.0, 32.0, 64.0)
    ok = ok and res.cpu < 30.0
    verdict(
        "A02 composition remainder",
        ok,
        "slopes " + ", ".join(f"{s:.2f}" for s in slopes) + f", {timing(res)}",
    )


def test_a03_symbol_extraction(battery):
    # Multipliers extract exactly at N = 64; the x-dependent sup-mode
    # error is O(1/N), demonstrated by halving from N = 64 to N = 128.
    m = suite(battery, "roundtrip").measured
    err, e64, e128 = m["multiplier_error"], m["e64"], m["e128"]
    ok = err <= 1e-12 and e64 <= 1.1 / 64 and e128 <= 0.62 * e64
    verdict(
        "A03 symbol extraction",
        ok,
        f"multiplier {err:.1e}, sup {e64:.1e} -> {e128:.1e}",
    )


def test_a04_section_stability(battery):
    # Elliptic stock: determinate ladders with stable kernel/cokernel
    # at N in {128, 256}. Degenerate stock: s_min decreasing and below
    # 1e-3 at N = 256.
    m = suite(battery, "sections").measured
    ok = len(m["elliptic"]) == 5 and len(m["degenerate"]) == 3
    for rep in m["elliptic"]:
        rows = rep.rows()
        stable = rows[0][1:3] == rows[1][1:3]
        ok = ok and rep.sizes == (128, 256) and rep.determinate and stable
    worst = 0.0
    for s128, s256 in m["degenerate"]:
        worst = max(worst, s256)
        ok = ok and s256 < s128 and s256 < 1e-3
    verdict("A04 section stability", ok, f"5 elliptic stable, degenerate s_min <= {worst:.1e}")


def test_a05_toeplitz_index(battery):
    # Projector-built shift: index -1 at every N in {64, 128, 256},
    # matching the winding oracle under the circle traversal, under 30 CPU seconds.
    res = suite(battery, "toeplitz")
    w, rep = res.measured["winding"], res.measured["report"]
    rows = rep.rows()
    ok = (
        w == 1
        and rep.determinate
        and rep.sizes == (64, 128, 256)
        and all(r[3] == -1 for r in rows)
        and all(r[3] == -w for r in rows)
    )
    ok = ok and res.cpu < 30.0
    verdict(
        "A05 toeplitz index",
        ok,
        f"index -1 at N = 64/128/256, winding {w}, {timing(res)}",
    )


def test_a06_cone_index(battery):
    # Finite-section index equals the tip winding on the interval-mode
    # stock, |winding| in {1, 1, 2}, per the pinned orientation.
    ok = True
    pairs = []
    for rep, w in suite(battery, "cone-index").measured["pairs"]:
        pairs.append((rep.index, w))
        ok = ok and rep.determinate and rep.index == w
    ok = ok and sorted(abs(w) for _, w in pairs) == [1, 1, 2]
    verdict("A06 cone index", ok, f"(index, winding) pairs {pairs}")


def test_a07_partition_bound(battery):
    # 100 seeded instances, no violation beyond 1e-12, under 5s.
    res = suite(battery, "partition-bound")
    count, worst = res.measured["count"], res.measured["worst"]
    elapsed = res.elapsed
    ok = count == 100 and worst >= -1e-12 and elapsed < 5.0
    verdict(
        "A07 partition bound",
        ok,
        f"{count} instances, worst slack {worst:.1e}, {elapsed:.2f}s",
    )


def test_a08_gluing(battery):
    # Reproduction: local_norm(glued - A_i, x_i) <= 2 eps for eps in
    # {0.5, 0.25, 0.125}. Cauchy: ||glued(eps) - glued(delta)|| bounded
    # by max{2 eps, 2 delta}.
    m = suite(battery, "gluing").measured
    ok = sorted(m["reproduction"]) == [0.125, 0.25, 0.5] and len(m["cauchy"]) == 3
    worsts = {}
    for eps, (cont, worst) in m["reproduction"].items():
        worsts[eps] = worst
        ok = ok and cont.passed and worst <= 2.0 * eps
    for e1, e2, d in m["cauchy"]:
        ok = ok and d <= max(2.0 * e1, 2.0 * e2)
    verdict(
        "A08 gluing",
        ok,
        "local norms "
        + ", ".join(f"{w:.3f} <= {2 * e:g}" for e, w in sorted(worsts.items())),
    )


def test_a09_parameter_family(battery):
    # Stock multiplier family: s_min(v) >= 0.5 and non-decreasing
    # within 10% at |v| in {8, 16, 32, 64}.
    rep = suite(battery, "large-parameter").measured["report"]
    monotone = all(b >= 0.9 * a for a, b in zip(rep.s_min, rep.s_min[1:]))
    ok = rep.passed and monotone and all(s >= 0.5 for s in rep.s_min)
    ok = ok and rep.v_values == (8.0, 16.0, 32.0, 64.0)
    verdict(
        "A09 parameter family",
        ok,
        "s_min " + ", ".join(f"{s:.3f}" for s in rep.s_min),
    )


def test_a10_infinitesimal(battery):
    # Freezing on every model geometry: d_lambda non-increasing with
    # final <= 1e-3, frozen operators translation-equivariant to 1e-10,
    # and ||i_z(A)|| <= ||A||.
    freezings = suite(battery, "infinitesimal").measured["freezings"]
    ok = len(freezings) == 3
    finals = []
    for d, tdef, frozen_norm, source_norm in freezings:
        finals.append(d.final)
        ok = (
            ok
            and d.non_increasing
            and d.final <= 1e-3
            and tdef <= 1e-10
            and frozen_norm <= source_norm + 1e-12
        )
    verdict(
        "A10 infinitesimal",
        ok,
        "finals " + ", ".join(f"{f:.1e}" for f in finals),
    )


def test_a11_negligible(battery):
    # Smoothing stock accepted at orders {1, 2, 4}, identity rejected,
    # and verdicts stable across seeds.
    runs = [suite(battery, "negligible")]
    runs += [run_suites(seed=seed, only="negligible").suites[0] for seed in (1, 17)]
    ok = True
    for res in runs:
        smoothing = res.measured["smoothing"]
        ok = ok and [v.order for v in smoothing] == [1, 2, 4]
        for v in smoothing:
            ok = ok and v.accepted
        identity = res.measured["identity"]
        ok = ok and identity.order == 4 and not identity.accepted
    verdict("A11 negligible", ok, "orders 1/2/4 accepted, identity rejected, seeds 0/1/17")


def seed0_digest(report) -> str:
    # The benchmark's byte oracle: the seed-0 payload, wrapped the way
    # `psdo verify` wraps it with an empty config, hashes to the digest
    # recorded in bench/digests.json.
    wrapped = make_report("verify", {}, 0, report.payload(), time.perf_counter())
    return hashlib.sha256(canonical_report_bytes(wrapped)).hexdigest()


def test_seed0_digest_matches_bench(battery):
    assert battery.passed
    assert seed0_digest(battery) == json.loads(DIGESTS.read_text())["seeds"]["0"]


def test_seed0_digest_matches_bench_at_default_threads():
    # The library path: the battery outside any command, so the BLAS
    # thread policy is not in force and OpenBLAS keeps its startup count.
    report = run_suites(seed=0)
    assert report.passed
    assert seed0_digest(report) == json.loads(DIGESTS.read_text())["seeds"]["0"]


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
