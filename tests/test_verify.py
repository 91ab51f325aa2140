"""Verification battery: its suite catalog, the single-suite filter,
payload determinism and shape, seeds that move draws but not verdicts,
and the `infinitesimal` suite's details against the dense reference
(`oracles.dense_infinitesimal_detail`)."""

import pytest

from oracles import dense_infinitesimal_detail
from psdo.stock import infinitesimal_stock
from psdo.verify import SUITES, VerifyError, run_suites, suite_names

EXPECTED_SUITES = (
    "skruch",
    "composition",
    "roundtrip",
    "sections",
    "toeplitz",
    "cone-index",
    "partition-bound",
    "gluing",
    "large-parameter",
    "infinitesimal",
    "negligible",
)


def test_suite_catalog():
    assert suite_names() == EXPECTED_SUITES
    assert tuple(SUITES) == EXPECTED_SUITES


def test_single_suite_filter():
    rep = run_suites(seed=0, only="skruch")
    assert rep.passed
    assert len(rep.suites) == 1
    assert rep.suites[0].suite == "skruch"
    assert len(rep.suites[0].checks) == 5


def test_unknown_suite_raises():
    with pytest.raises(VerifyError, match="unknown suite"):
        run_suites(only="no-such-suite")


def test_fast_suites_pass():
    # The cheap half of the battery; the full run lives in acceptance.
    for name in ("composition", "roundtrip", "toeplitz", "partition-bound"):
        rep = run_suites(seed=0, only=name)
        assert rep.passed, rep.payload()


def test_payload_deterministic():
    a = run_suites(seed=0, only="partition-bound").payload()
    b = run_suites(seed=0, only="partition-bound").payload()
    assert a == b


def test_payload_shape():
    rep = run_suites(seed=0, only="toeplitz")
    pay = rep.payload()
    assert set(pay) == {"seed", "passed", "suites"}
    suite = pay["suites"][0]
    assert set(suite) == {"suite", "passed", "checks"}
    for check in suite["checks"]:
        assert set(check) == {"name", "passed", "detail"}
        assert isinstance(check["detail"], str)
    # Wall time never leaks into the payload.
    assert "elapsed" not in str(pay)
    assert rep.timings().keys() == {"toeplitz"}


def test_seed_changes_draws_not_verdicts():
    a = run_suites(seed=0, only="partition-bound")
    b = run_suites(seed=11, only="partition-bound")
    assert a.passed and b.passed
    # Different seeds draw different instances, so details move.
    assert a.payload() != b.payload()


def test_infinitesimal_details_match_dense_oracle(battery):
    # Guards the canonical bytes of the suite's structured norm paths,
    # read from the shared seed-0 battery (conftest.py).
    rep = next(s for s in battery.suites if s.suite == "infinitesimal")
    got = [c.detail for c in rep.checks]
    want = [dense_infinitesimal_detail(g, expr, z) for g, expr, z in infinitesimal_stock()]
    assert got == want
