"""Command-line interface: exit codes, reports, containers, determinism,
the config schema as the one boundary, and `psdo index` verdicts that a
power-of-two scale of the symbol cannot move."""

import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import load_bench_workloads
from psdo.cli import (
    CONFIG_SCHEMA,
    CONTAINER_MAGIC,
    CONTAINER_VERSION,
    ConfigError,
    EXIT_COMPAT,
    EXIT_CONFIG,
    EXIT_ELLIPTIC,
    EXIT_INCONSISTENT,
    EXIT_INDETERMINATE,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    atomic_write,
    canonical_report_bytes,
    load_config,
    main,
    read_container,
)
from psdo.verify import suite_names

INDEX_WORKLOAD = load_bench_workloads()

SRC = Path(__file__).resolve().parent.parent / "src"
CONE = {"kind": "cone", "T": 6.0, "n_t": 64, "boundary": "interval"}
ELLIPTIC = "(p - (0,1)) / (p + (0,1)) + 2"
DEGENERATE = "(0.2*(p - 2) / (0.2*(p - 2) + (0,1)))^2"
AFFINE_CAYLEY = "1 + (1 / (1 + r)) * ((p - (0,1)) / (p + (0,1)) - 1)"


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, cfg, *flags):
    return main([command, "--config", write_cfg(tmp_path, "cfg.json", cfg), *flags])


# -- check ------------------------------------------------------------------


def test_check_elliptic_ok(tmp_path, capsys):
    code = run(tmp_path, "check", {"geometry": CONE, "symbol": ELLIPTIC})
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["command"] == "check"
    assert report["result"]["verdict"] == "elliptic"
    assert report["result"]["compat"]["passed"]
    assert report["result"]["ellipticity"]["overall"]
    assert set(report["volatile"]) == {"timestamp", "elapsed_s", "blas"}


def test_check_degenerate_exit_3(tmp_path, capsys):
    code = run(tmp_path, "check", {"geometry": CONE, "symbol": DEGENERATE})
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_ELLIPTIC
    assert report["result"]["verdict"] == "not elliptic"
    assert report["result"]["ellipticity"]["conormal_min"] <= 1e-12


def test_check_parse_error_exit_65(tmp_path, capsys):
    code = run(tmp_path, "check", {"geometry": CONE, "symbol": "1 + * 2"})
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert "parse error" in err
    assert "offset" in err  # position is part of the message


def test_check_overflowing_literal_exit_65(tmp_path, capsys):
    code = run(tmp_path, "check", {"geometry": CONE, "symbol": "1 + 1e400*chi(p)"})
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert "overflows to infinity at offset 4" in err


def test_check_incompatible_exit_2(tmp_path, capsys):
    # Interior override whose large-parameter limit disagrees with the
    # conormal family along the diagonal |xi| ~ |v|.
    cfg = {
        "geometry": CONE,
        "symbol": "2 + chi(p)",
        "interior": "2 + 0*xi + 0*v + chi(xi^2 + v^2)",
    }
    code = run(tmp_path, "check", cfg)
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_COMPAT
    assert report["result"]["verdict"] == "incompatible"
    assert not report["result"]["compat"]["passed"]


def test_check_missing_symbol_exit_64(tmp_path, capsys):
    code = run(tmp_path, "check", {"geometry": CONE})
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "geometry, message",
    [
        (
            {"kind": "cone", "base": {"kind": "circle", "n_x": 8}, "T": 4.0, "n_t": 32},
            "tuple extraction supports point-base cone fibers only",
        ),
        ({"kind": "circle", "n_x": 8}, "this command needs a cone geometry"),
    ],
    ids=["circle-base-cone", "circle"],
)
def test_check_unsupported_geometry_exit_64(tmp_path, capsys, geometry, message):
    code = run(tmp_path, "check", {"geometry": geometry, "symbol": "2 + chi(p)"})
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""


# -- config loading ---------------------------------------------------------


def test_unknown_config_key_exit_64(tmp_path, capsys):
    code = run(tmp_path, "check", {"geometry": CONE, "symbol": "2", "frog": 1})
    assert code == EXIT_CONFIG
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_config_file_exit_64(tmp_path, capsys):
    code = main(["check", "--config", str(tmp_path / "absent.json")])
    assert code == EXIT_CONFIG


def test_malformed_json_exit_64(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", "--config", str(path)]) == EXIT_CONFIG


def test_config_must_be_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(Exception, match="JSON object"):
        load_config(str(path))


# -- quantize ---------------------------------------------------------------


def test_quantize_roundtrip_bit_exact(tmp_path, capsys):
    cfg = {
        "geometry": {"kind": "circle", "n_x": 32},
        "symbol": "2 + 0.3 * sin(x) * chi(xi)",
        "v": 1.5,
    }
    out = tmp_path / "q"
    code = run(tmp_path, "quantize", cfg, "--out", str(out))
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "written"

    target = out / "operator.psdo"
    assert target.read_bytes()[:4] == CONTAINER_MAGIC
    desc, mat = read_container(str(target))
    assert desc["geometry"]["kind"] == "circle"
    assert desc["v"] == 1.5
    assert desc["dim"] == mat.shape[0] == report["result"]["dim"]

    from psdo.geometry import Circle
    from psdo.quantize import op_circle
    from psdo.symexpr import parse

    direct = op_circle(Circle(32), parse(cfg["symbol"]), 1.5)
    assert mat.dtype == np.complex128
    assert np.array_equal(mat, direct.matrix)


def test_quantize_prints_the_norm_to_12_digits(tmp_path, capsys):
    # an eps-level change in the norm's arithmetic moves no canonical
    # byte unless it crosses a rounding boundary; the raw value stays
    # in the volatile block
    from psdo.geometry import Circle
    from psdo.quantize import op_circle
    from psdo.symexpr import parse

    cfg = {"geometry": {"kind": "circle", "n_x": 64}, "symbol": "2 + 0.3 * sin(x) * chi(xi)"}
    assert run(tmp_path, "quantize", cfg, "--out", str(tmp_path / "q")) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    raw = op_circle(Circle(64), parse(cfg["symbol"])).norm()
    assert report["volatile"]["norm"] == raw
    assert report["result"]["norm"] == float(f"{raw:.12g}")
    assert report["result"]["norm"] != raw  # raw carries more than 12 digits
    assert set(report["volatile"]) == {"timestamp", "elapsed_s", "blas", "norm"}


def test_quantize_rewrite_byte_identical(tmp_path, capsys):
    cfg = {"geometry": {"kind": "circle", "n_x": 16}, "symbol": "2 + chi(xi)"}
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(tmp_path, "quantize", cfg, "--out", str(out1))
    run(tmp_path, "quantize", cfg, "--out", str(out2))
    capsys.readouterr()
    assert (out1 / "operator.psdo").read_bytes() == (out2 / "operator.psdo").read_bytes()


def test_quantize_io_error_exit_74(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    cfg = {"geometry": {"kind": "circle", "n_x": 8}, "symbol": "2"}
    code = run(tmp_path, "quantize", cfg, "--out", str(blocker / "sub"))
    assert code == EXIT_IO


@pytest.mark.parametrize(
    "geometry, message",
    [
        ({"kind": "circle"}, "circle descriptor needs 'n_x'"),
        ({"kind": "circle", "n_x": "abc"}, "circle field 'n_x' must be an int, got 'abc'"),
        ({"kind": "circle", "n_x": 32.5}, "circle field 'n_x' must be an int, got 32.5"),
        ({"kind": "cone", "T": "x"}, "cone field 'T' must be a finite number, got 'x'"),
        ({"kind": "cone", "T": 10**400}, "cone field 'T' must be a finite number, got 1000"),
        ({"kind": "edge", "n_x": 16}, "edge descriptor needs a 'cone' dict"),
        ({"kind": "cone", "nt": 256}, "unknown cone descriptor keys: ['nt']"),
        (
            {"kind": "edge", "n_x": 16, "q": 2, "cone": {"n_t": 16}},
            "unknown edge descriptor keys: ['q']",
        ),
    ],
    ids=[
        "circle-no-n_x",
        "n_x-string",
        "n_x-float",
        "T-string",
        "T-huge-int",
        "edge-no-cone",
        "cone-typo-nt",
        "edge-typo-q",
    ],
)
def test_quantize_bad_geometry_exit_64(tmp_path, capsys, geometry, message):
    cfg = {"geometry": geometry, "symbol": "2 + chi(xi)"}
    code = run(tmp_path, "quantize", cfg, "--out", str(tmp_path / "q"))
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert f"config error: {message}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "q" / "operator.psdo").exists()


@pytest.mark.parametrize(
    "field, message",
    [
        ({"v": "abc"}, "config field 'v' must be a finite number, got 'abc'"),
        ({"v": True}, "config field 'v' must be a finite number, got True"),
        ({"v": None}, "config field 'v' must be a finite number, got None"),
        ({"out": 5}, "config field 'out' must be a directory path, got 5"),
        ({"out": ""}, "config field 'out' must be a directory path, got ''"),
        ({"format": "xml"}, "config field 'format' must be 'report' or 'csv', got 'xml'"),
        ({"symbol": ["a"]}, "config field 'symbol' must be a DSL source string, got ['a']"),
        ({"symbol": None}, "config field 'symbol' must be a DSL source string, got None"),
    ],
    ids=["v-string", "v-bool", "v-null", "out-int", "out-empty", "format-xml", "symbol-list", "symbol-null"],
)
def test_quantize_bad_field_exit_64(tmp_path, capsys, field, message):
    cfg = {"geometry": {"kind": "circle", "n_x": 8}, "symbol": "2 + chi(xi)", **field}
    code = run(tmp_path, "quantize", cfg, "--out", str(tmp_path / "q"))
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert f"config error: {message}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "q" / "operator.psdo").exists()


@pytest.mark.parametrize(
    "geometry, symbol",
    [
        ({"kind": "circle", "n_x": 32}, "1 / (xi)"),
        # eta = xi r vanishes on the xi = 0 fiber of the batched edge path
        ({"kind": "edge", "n_x": 8, "cone": {"n_t": 16}}, "(1 + 0.1 * sin(x)) / eta"),
        # one non-finite node in the first, a middle and the last of the
        # eight row blocks the assembly streams
        ({"kind": "circle", "n_x": 1024}, "1 / sin(x)"),
        ({"kind": "circle", "n_x": 1024}, "1 / (1 + cos(x))"),
        ({"kind": "circle", "n_x": 1024}, f"1 / (x - {2 * math.pi / 1024 * 1023!r})"),
    ],
    ids=["circle", "edge", "circle-first-block", "circle-middle-block", "circle-last-block"],
)
def test_quantize_non_finite_symbol_exit_64(tmp_path, capsys, geometry, symbol):
    cfg = {"geometry": geometry, "symbol": symbol}
    code = run(tmp_path, "quantize", cfg, "--out", str(tmp_path / "q"))
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert "config error: evaluation produced a non-finite value" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "q" / "operator.psdo").exists()


@pytest.mark.parametrize(
    "geometry, symbol, message",
    [
        # finite on the grid; the FFT of the x axis overflows
        ({"kind": "circle", "n_x": 8}, "1e308*cos(x)", "assembly produced a non-finite value"),
        # h_t = 2T/n_t overflows
        ({"kind": "cone", "T": 1e308, "n_t": 8}, "1", "cone window T = 1e+308 gives a non-finite node"),
    ],
    ids=["assembly-overflow", "cone-T-overflow"],
)
def test_quantize_overflow_exit_64_before_writing(tmp_path, capsys, geometry, symbol, message):
    code = run(tmp_path, "quantize", {"geometry": geometry, "symbol": symbol}, "--out", str(tmp_path / "q"))
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith(f"config error: {message}") and "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "q" / "operator.psdo").exists()


def test_quantize_overflowing_symbol_names_overflow(tmp_path, capsys):
    # no division and no log: a finite factor times a finite grid overflows
    cfg = {"geometry": {"kind": "circle", "n_x": 8}, "symbol": "1.7e308*(2+chi(xi))"}
    code = run(tmp_path, "quantize", cfg, "--out", str(tmp_path / "q"))
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == (
        "config error: evaluation produced a non-finite value (overflow, division by zero or log branch violation)\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "q" / "operator.psdo").exists()


def test_quantize_empty_out_writes_nothing(tmp_path, capsys, monkeypatch):
    # "" names no directory; quantize would write into the working one
    monkeypatch.chdir(tmp_path)
    cfg = {"geometry": {"kind": "circle", "n_x": 8}, "symbol": "2", "out": ""}
    assert run(tmp_path, "quantize", cfg) == EXIT_CONFIG
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == ["cfg.json"]


def _container(desc: bytes, body: bytes = b"", length=None) -> bytes:
    length = len(desc) if length is None else length
    return CONTAINER_MAGIC + struct.pack("<II", CONTAINER_VERSION, length) + desc + body


MALFORMED_CONTAINERS = {
    "bad-magic": (b"NOPE" + b"\x00" * 32, "magic"),
    "six-bytes": (CONTAINER_MAGIC + b"\x01\x00", "header truncated"),
    "version": (CONTAINER_MAGIC + struct.pack("<II", 99, 2) + b"{}", "version 99"),
    "length-past-data": (_container(b'{"dim":0}', length=50), "descriptor truncated"),
    "not-json": (_container(b"dim=1"), "not JSON"),
    "not-utf8": (_container(b"\xff\xfe"), "not JSON"),
    "deep-nesting": (_container(b"[" * 100000), "not JSON"),
    "empty-descriptor": (_container(b"{}"), "dim must be an int"),
    "list-descriptor": (_container(b"[1]"), "dim must be an int"),
    "dim-negative": (_container(b'{"dim":-1}'), "dim must be an int"),
    "dim-float": (_container(b'{"dim":1.0}', b"\x00" * 16), "dim must be an int"),
    "dim-string": (_container(b'{"dim":"1"}', b"\x00" * 16), "dim must be an int"),
    "dim-bool": (_container(b'{"dim":true}', b"\x00" * 16), "dim must be an int"),
    "payload-short": (_container(b'{"dim":2}', b"\x00" * 48), "payload truncated"),
}


@pytest.mark.parametrize("case", MALFORMED_CONTAINERS)
def test_container_rejects_malformed(tmp_path, case):
    data, message = MALFORMED_CONTAINERS[case]
    path = tmp_path / "bad.psdo"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match=message):
        read_container(str(path))


def test_container_reads_empty_operator(tmp_path):
    path = tmp_path / "empty.psdo"
    path.write_bytes(_container(b'{"dim":0}'))
    desc, mat = read_container(str(path))
    assert desc == {"dim": 0} and mat.shape == (0, 0)


# -- index ------------------------------------------------------------------


def test_index_cayley_consistent_exit_0(tmp_path, capsys):
    cfg = {"geometry": CONE, "symbol": AFFINE_CAYLEY, "sizes": [64, 128, 256]}
    out = tmp_path / "idx"
    code = run(tmp_path, "index", cfg, "--out", str(out))
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    res = report["result"]
    assert res["determinate"]
    assert res["index"] == res["winding"] == 1
    assert res["verdict"] == "consistent"
    csv_text = (out / "sections.csv").read_text()
    assert csv_text.splitlines()[0] == "N,kernel,cokernel,index"
    assert csv_text.splitlines()[-1] == "256,1,0,1"


def test_index_default_tip_freezes_v(tmp_path, capsys):
    # the sections quantize the symbol at v = 0, and so does the default tip
    cfg = {"geometry": CONE, "symbol": "1 + (1 / (1 + r)) * (((p - (0,1)) / (p + (0,1))) - 1) + 0*v"}
    code = run(tmp_path, "index", cfg)
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["result"]["index"] == report["result"]["winding"] == 1


def test_index_identity_exit_0(tmp_path, capsys):
    cfg = {"geometry": CONE, "symbol": "1 + 0*p", "sizes": [64, 128]}
    code = run(tmp_path, "index", cfg)
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["result"]["index"] == report["result"]["winding"] == 0


def test_index_degenerate_exit_4(tmp_path, capsys):
    cfg = {"geometry": CONE, "symbol": DEGENERATE, "sizes": [128, 256]}
    code = run(tmp_path, "index", cfg)
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_INDETERMINATE
    assert report["result"]["verdict"] == "indeterminate"


def test_index_mismatched_tip_exit_5(tmp_path, capsys):
    # Sections converge to index 1 but the declared tip winds twice.
    cfg = {
        "geometry": CONE,
        "symbol": AFFINE_CAYLEY,
        "sizes": [64, 128, 256],
        "tip": "((p - (0,1)) / (p + (0,1)))^2",
    }
    code = run(tmp_path, "index", cfg)
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_INCONSISTENT
    assert report["result"]["verdict"] == "inconsistent"
    assert report["result"]["winding"] == 2


CIRCLE_BASE_CONE = {"kind": "cone", "base": {"kind": "circle", "n_x": 8}, "T": 6.0, "n_t": 32, "boundary": "interval"}
SHORT_LADDER = {"sizes": [32, 64], "tau_coef": 0.01}


# The four configs of the index benchmark workload at seed 0 (one seeded
# Cayley tip, its square, its inverse, and the degenerate tip), with the
# exit codes and rows the full-SVD finite sections gave.
BENCH_TIP = "((p - (0.4108850619643629)) - (0,1.1079146855055482)) / ((p - (0.4108850619643629)) + (0,1.1079146855055482))"
BENCH_INDEX_CASES = [
    (
        {"symbol": f"1 + (1 / (1 + r)) * (({BENCH_TIP}) - 1)", "tip": BENCH_TIP,
         "sizes": [64, 128, 256], "tau_coef": 0.0001},
        EXIT_OK,
        [[64, 0, 0, 0], [128, 1, 0, 1], [256, 1, 0, 1]],
    ),
    (
        {"symbol": f"1 + (1 / (1 + r)) * ((({BENCH_TIP})^2) - 1)", "tip": f"({BENCH_TIP})^2",
         "sizes": [128, 256], "tau_coef": 0.001},
        EXIT_OK,
        [[128, 2, 0, 2], [256, 2, 0, 2]],
    ),
    (
        {"symbol": f"1 + (1 / (1 + r)) * ((1 / ({BENCH_TIP})) - 1)", "tip": f"1 / ({BENCH_TIP})",
         "sizes": [64, 128, 256], "tau_coef": 0.0001},
        EXIT_OK,
        [[64, 0, 0, 0], [128, 0, 1, -1], [256, 0, 1, -1]],
    ),
    (
        {"symbol": f"1 + (1 / (1 + r)) * (({DEGENERATE}) - 1)"},
        EXIT_INDETERMINATE,
        [[64, 0, 0, 0], [128, 0, 0, 0], [256, 0, 0, 0]],
    ),
]


@pytest.mark.parametrize("cfg, want_code, want_rows", BENCH_INDEX_CASES, ids=["tip", "square", "inverse", "degenerate"])
def test_index_bench_configs_pin_codes_and_rows(tmp_path, capsys, cfg, want_code, want_rows):
    code = run(tmp_path, "index", cfg)
    res = json.loads(capsys.readouterr().out)["result"]
    assert code == want_code
    assert res["rows"] == want_rows


def test_index_circle_base_tip_winds_in_every_mode(tmp_path, capsys):
    # every one of the 8 base modes carries the Cayley factor: one kernel
    # vector and one turn of the tip per mode
    cfg = {"geometry": CIRCLE_BASE_CONE, "symbol": AFFINE_CAYLEY, **SHORT_LADDER}
    code = run(tmp_path, "index", cfg)
    res = json.loads(capsys.readouterr().out)["result"]
    assert code == EXIT_OK
    assert res["rows"] == [[32, 8, 0, 8], [64, 8, 0, 8]]
    assert res["index"] == res["winding"] == 8
    assert res["verdict"] == "consistent"


def _index_run(directory, tip: str, scale: float = 1.0) -> tuple[int, list]:
    """Exit code and rows of `psdo index` on the interpolated tip, the
    symbol and the tip both scaled by `scale`."""
    pre = "" if scale == 1.0 else f"{scale!r} * "
    cfg = {"symbol": f"{pre}(1 + (1 / (1 + r)) * (({tip}) - 1))", "tip": f"{pre}({tip})", "sizes": [128, 256], "tau_coef": 1e-3}
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["index", "--config", write_cfg(directory, "cfg.json", cfg)])
    return code, json.loads(out.getvalue())["result"]["rows"]


@st.composite
def _cayley_products(draw):
    """(k - l, tip, j): a product of k Cayley factors and l inverse ones
    (k, l <= 2), centres and widths in the index workload's ranges, and
    an exponent j for the scale 2^j."""
    k, l = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    factors = []
    for i in range(k + l):
        c, s = draw(st.floats(*INDEX_WORKLOAD.TIP_C)), draw(st.floats(*INDEX_WORKLOAD.TIP_S))
        cayley = f"((p - ({c!r})) - (0,{s!r})) / ((p - ({c!r})) + (0,{s!r}))"
        factors.append(f"({cayley})" if i < k else f"(1 / ({cayley}))")
    return k - l, " * ".join(factors) or "1", draw(st.integers(-30, 30))


@settings(max_examples=10)
@example((1, "(p - (0,1)) / (p + (0,1))", -24))
@given(_cayley_products())
def test_index_is_the_winding_at_every_power_of_two_scale(tmp_path_factory, case):
    # A power of two scales every value of the symbol, the sections and
    # the contour exactly, so the rows and the verdict cannot move; a
    # single factor always decides (exit 0).
    winding, tip, j = case
    directory = tmp_path_factory.mktemp("index")
    code, rows = _index_run(directory, tip)
    assert code in (EXIT_OK, EXIT_INDETERMINATE)
    assert code == EXIT_OK or "*" in tip
    if code == EXIT_OK:
        assert rows[-1][3] == winding
    assert _index_run(directory, tip, 2.0**j) == (code, rows)


@st.composite
def _diagonal_cayley_tips(draw):
    """(k, l, g1, g2): g1 and g2 each a Cayley factor or its inverse,
    centres and widths in the index workload's ranges, k of them Cayley
    factors and l inverse ones."""
    factors, k = [], 0
    for _ in range(2):
        c, s = draw(st.floats(*INDEX_WORKLOAD.TIP_C)), draw(st.floats(*INDEX_WORKLOAD.TIP_S))
        inverse = draw(st.booleans())
        cayley = INDEX_WORKLOAD._cayley(c, s)
        factors.append(f"(1 / ({cayley}))" if inverse else f"({cayley})")
        k += not inverse
    return (k, 2 - k, *factors)


@settings(max_examples=8)
@example((1, 1, "((p - (0,1)) / (p + (0,1)))", "(1 / ((p - (0,1)) / (p + (0,1))))"))
@given(_diagonal_cayley_tips())
def test_index_adds_over_diagonal_tips(tmp_path_factory, case):
    # q = 2 sections of diag(g1, g2), each entry interpolated as the index
    # workload does: kernel and cokernel add over the diagonal, one
    # kernel vector per Cayley factor and one cokernel vector per
    # inverse, so the index is the sum of the windings
    k, l, g1, g2 = case
    cfg = {
        "geometry": {"kind": "cone", "T": 6.0, "n_t": 64, "boundary": "interval", "q": 2},
        "symbol": f"[[{INDEX_WORKLOAD._interpolated(g1)}, 0], [0, {INDEX_WORKLOAD._interpolated(g2)}]]",
        "tip": f"[[{g1}, 0], [0, {g2}]]",
        "sizes": [128, 256],
        "tau_coef": 1e-3,
    }
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["index", "--config", write_cfg(tmp_path_factory.mktemp("index"), "cfg.json", cfg)])
    assert code in (EXIT_OK, EXIT_INDETERMINATE)
    if code == EXIT_OK:
        assert [row[1:] for row in json.loads(out.getvalue())["result"]["rows"]] == [[k, l, k - l]] * 2


@pytest.mark.parametrize(
    "field",
    [{"symbol": AFFINE_CAYLEY + " + 0*t"}, {"tip": "(p - (0,1)) / (p + (0,1)) + 0*t"}],
    ids=["symbol", "tip"],
)
def test_index_mode_variable_on_point_base_exit_64(tmp_path, capsys, field):
    point_cone = {"kind": "cone", "T": 6.0, "n_t": 32, "boundary": "interval"}
    cfg = {"geometry": point_cone, "symbol": AFFINE_CAYLEY, **SHORT_LADDER, **field}
    assert run(tmp_path, "index", cfg) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "config error: mode variable t requires a Circle base\n"
    assert captured.out == ""


def test_index_needs_interval_cone(tmp_path, capsys):
    cfg = {"geometry": {"kind": "circle", "n_x": 32}, "symbol": "2"}
    assert run(tmp_path, "index", cfg) == EXIT_CONFIG


def test_index_csv_stdout(tmp_path, capsys):
    cfg = {"geometry": CONE, "symbol": "1 + 0*p", "sizes": [64, 128]}
    code = run(tmp_path, "index", cfg, "--format", "csv")
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines() == [
        "N,kernel,cokernel,index",
        "64,0,0,0",
        "128,0,0,0",
    ]


def test_index_single_size_exit_64(tmp_path, capsys):
    cfg = {"geometry": CONE, "symbol": "1 + 0*p", "sizes": [64]}
    assert run(tmp_path, "index", cfg) == EXIT_CONFIG
    assert "two sizes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "symbol, field, message",
    [
        # the last two rungs agree by construction
        ("1 + 0*p", {"sizes": [16, 16]}, "finite-section sizes must strictly increase, got [16, 16]"),
        ("1 + 0*p", {"sizes": [256, 128]}, "finite-section sizes must strictly increase, got [256, 128]"),
        # no near-null pair below a non-positive tau: every gap reads open
        (DEGENERATE, {"sizes": [128, 256], "tau_coef": -1}, "finite-section tau_coef must be > 0, got -1.0"),
        (DEGENERATE, {"sizes": [128, 256], "tau_coef": 0}, "finite-section tau_coef must be > 0, got 0.0"),
    ],
    ids=["sizes-equal", "sizes-decreasing", "tau_coef-negative", "tau_coef-zero"],
)
def test_index_undecidable_ladder_exit_64(tmp_path, capsys, symbol, field, message):
    cfg = {"geometry": CONE, "symbol": symbol, **field}
    assert run(tmp_path, "index", cfg) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "field, message",
    [
        ({"tau_coef": "x"}, "config field 'tau_coef' must be a finite number, got 'x'"),
        ({"tau_coef": False}, "config field 'tau_coef' must be a finite number, got False"),
        ({"sizes": [64, 65.5]}, "config field 'sizes' must be a list of ints, got [64, 65.5]"),
        ({"sizes": "64"}, "config field 'sizes' must be a list of ints, got '64'"),
        ({"tip": 7}, "config field 'tip' must be a DSL source string, got 7"),
    ],
    ids=["tau_coef-string", "tau_coef-bool", "sizes-float", "sizes-string", "tip-int"],
)
def test_index_bad_field_exit_64(tmp_path, capsys, field, message):
    cfg = {"geometry": CONE, "symbol": "1 + 0*p", **field}
    assert run(tmp_path, "index", cfg) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: {message}" in captured.err
    assert captured.out == ""


# -- one schema boundary -----------------------------------------------------

# Any JSON value: null, bools, arbitrary ints, floats with NaN and the
# infinities (which Python's json module reads and writes), strings and
# nested containers.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _is_finite_number(raw):
    if isinstance(raw, float):
        return math.isfinite(raw)
    return type(raw) is int and abs(raw) <= sys.float_info.max


def _not_str(raw):
    return not isinstance(raw, str)


# Each field's documented rule, written out independently of the table.
_OUTSIDE = {
    "seed": _JSON.filter(lambda raw: not (type(raw) is int and raw >= 0)),
    "geometry": _JSON.filter(
        lambda raw: not (isinstance(raw, dict) and raw.get("kind") in ("circle", "cone", "edge", "point"))
    )
    | st.text(min_size=1, max_size=4).filter(lambda k: k not in {*CONE, "base", "q"}).map(lambda k: {**CONE, k: 1}),
    "symbol": _JSON.filter(_not_str),
    "interior": _JSON.filter(_not_str),
    "v": _JSON.filter(lambda raw: not _is_finite_number(raw)),
    "sizes": _JSON.filter(
        lambda raw: not (isinstance(raw, list) and all(type(n) is int for n in raw))
    ),
    "tau_coef": _JSON.filter(lambda raw: not _is_finite_number(raw)),
    "tip": _JSON.filter(_not_str),
    "only": _JSON.filter(lambda raw: raw not in suite_names()),
    "out": _JSON.filter(_not_str) | st.just(""),
    "format": _JSON.filter(lambda raw: raw not in ("report", "csv")),
}

# Values inside each rule. A symbol that does not parse is inside the
# schema: parse errors (65) come after schema errors (64).
_SOURCES = st.sampled_from([ELLIPTIC, "2 + chi(xi)", "1 + * 2"])
_INSIDE = {
    "seed": st.integers(min_value=0),
    "geometry": st.sampled_from([CONE, {"kind": "circle", "n_x": 8}, {"kind": "edge", "n_x": 8, "cone": {"n_t": 16}}]),
    "symbol": _SOURCES,
    "interior": _SOURCES,
    "v": st.floats(allow_nan=False, allow_infinity=False),
    "sizes": st.lists(st.integers(8, 64), max_size=3),
    "tau_coef": st.floats(allow_nan=False, allow_infinity=False),
    "tip": _SOURCES,
    "only": st.sampled_from(suite_names()),
    "out": st.just("out"),
    "format": st.sampled_from(["report", "csv"]),
}


def test_schema_strategies_cover_every_field():
    assert set(_OUTSIDE) == set(_INSIDE) == set(CONFIG_SCHEMA)


@st.composite
def _bad_configs(draw):
    """A config with at least one field outside its rule (an unknown key
    counts as one), the other fields inside theirs."""
    bad = draw(st.lists(st.sampled_from([*_OUTSIDE, "unknown key"]), min_size=1, unique=True))
    good = draw(st.sets(st.sampled_from(sorted(_INSIDE)))) - set(bad)
    cfg = {key: draw(_INSIDE[key]) for key in sorted(good)}
    for key in bad:
        if key == "unknown key":
            cfg[draw(st.text(max_size=6).filter(lambda k: k not in CONFIG_SCHEMA))] = draw(_JSON)
        else:
            cfg[key] = draw(_OUTSIDE[key])
    return cfg


def _not_dispatched(*args):
    raise AssertionError("a config outside the schema reached a command")


@given(_bad_configs())
def test_config_outside_schema_exits_64_before_dispatch(cfg):
    commands = {f"cmd_{c}": _not_dispatched for c in ("check", "quantize", "index", "verify")}
    with tempfile.TemporaryDirectory() as d, mock.patch.multiple("psdo.cli", **commands):
        if cfg.get("out") == "out":
            cfg["out"] = os.path.join(d, "out")
        path = os.path.join(d, "cfg.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        for command in ("check", "quantize", "index", "verify"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, "--config", path])
            assert code == EXIT_CONFIG
            assert out.getvalue() == ""
            assert err.getvalue().startswith("config error: ")
        assert os.listdir(d) == ["cfg.json"]


# -- verify -----------------------------------------------------------------


def test_verify_single_suite(tmp_path, capsys):
    code = main(["verify", "--only", "partition-bound"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["result"]["passed"]
    assert [s["suite"] for s in report["result"]["suites"]] == ["partition-bound"]
    assert "timings" in report["volatile"]


def test_verify_reports_cpu_time_per_suite(capsys):
    main(["verify", "--only", "toeplitz"])
    volatile = json.loads(capsys.readouterr().out)["volatile"]
    assert volatile["cpu_timings"].keys() == volatile["timings"].keys() == {"toeplitz"}
    assert volatile["cpu_timings"]["toeplitz"] > 0.0


def test_verify_reports_canonically_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "v.json", {"only": "partition-bound"})
    main(["verify", "--config", cfg, "--out", str(tmp_path / "r1")])
    main(["verify", "--config", cfg, "--out", str(tmp_path / "r2")])
    capsys.readouterr()
    a = json.loads((tmp_path / "r1" / "report.json").read_text())
    b = json.loads((tmp_path / "r2" / "report.json").read_text())
    assert canonical_report_bytes(a) == canonical_report_bytes(b)


def test_verify_unknown_suite_exit_64(tmp_path, capsys):
    assert main(["verify", "--only", "nonsense"]) == EXIT_CONFIG
    assert "unknown suite" in capsys.readouterr().err


def test_verify_csv_quotes_commas(tmp_path, capsys):
    code = main(["verify", "--only", "skruch", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "suite,check,passed"
    assert all(line.endswith(",true") for line in lines[1:])
    # Check labels containing commas stay one field.
    assert any('"' in line for line in lines[1:])


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "v.json", {"seed": 3, "only": "partition-bound"})
    main(["verify", "--config", cfg, "--seed", "9"])
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 9
    assert report["result"]["seed"] == 9


def test_negative_seed_flag_exit_64(capsys):
    assert main(["verify", "--seed", "-1", "--only", "partition-bound"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: seed must be an int >= 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("seed", ["abc", -3, 1.5, True, None])
def test_invalid_config_seed_exit_64(tmp_path, capsys, seed):
    cfg = {"seed": seed, "only": "partition-bound"}
    assert run(tmp_path, "verify", cfg) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: seed must be an int >= 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "field, message",
    [
        ({"out": 5}, "config field 'out' must be a directory path, got 5"),
        ({"out": ""}, "config field 'out' must be a directory path, got ''"),
        ({"only": None}, "config field 'only' must be a suite name"),
    ],
    ids=["out-int", "out-empty", "only-null"],
)
def test_verify_bad_field_exit_64(tmp_path, capsys, field, message):
    cfg = {"only": "partition-bound", **field}
    assert run(tmp_path, "verify", cfg) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: {message}" in captured.err
    assert captured.out == ""


def test_invalid_seed_rejected_before_dispatch(tmp_path, capsys):
    # check would otherwise run its scans and exit 0
    cfg = {"geometry": CONE, "symbol": ELLIPTIC, "seed": -1}
    assert run(tmp_path, "check", cfg) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["verify", "--bogus"], "unrecognized arguments: --bogus"),
        (["index", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["quantize", "--out", ""], "argument --out: must be a directory path, got ''"),
    ],
    ids=["seed", "unknown-flag", "format", "out-empty"],
)
def test_usage_error_exit_64(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_CONFIG
    assert message in captured.err
    assert "usage: psdo" in captured.err
    assert captured.out == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == EXIT_OK
    assert "usage: psdo" in capsys.readouterr().out


# -- atomic writes ----------------------------------------------------------


def test_atomic_write_no_temp_residue(tmp_path):
    target = tmp_path / "out.bin"
    atomic_write(str(target), b"payload")
    assert target.read_bytes() == b"payload"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    atomic_write(str(target), b"new")
    assert target.read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["out.bin"]


# -- cold start -------------------------------------------------------------

# Runs each argv of a JSON list through main in one fresh interpreter and
# prints, per call, its exit code, its stderr and the psdo modules loaded
# after it; "import" lists those loaded by `import psdo.cli` alone.
_COLD_START = """
import json, sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import psdo.cli

def loaded():
    return sorted(m for m in sys.modules if m == "psdo" or m.startswith("psdo."))

calls = [{"import": loaded()}]
for argv in json.loads(sys.argv[1]):
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = psdo.cli.main(argv)
    calls.append({"code": code, "err": err.getvalue(), "loaded": loaded()})
print(json.dumps(calls))
"""


def test_commands_import_only_what_they_run(tmp_path):
    # the shape error runs while no command module is loaded, and the
    # "only" rule before anything has loaded psdo.verify
    cfgs = {
        "shape": {"geometry": {"kind": "circle", "n_x": 8}, "symbol": "[[1, 0], [0, 2]]"},
        "quantize": {"geometry": {"kind": "circle", "n_x": 8}, "symbol": "1 + chi(xi)"},
        "index": {"geometry": CONE, "symbol": AFFINE_CAYLEY},
        "only": {"only": "nonsense"},
        "incompatible": {"geometry": CONE, "symbol": "2 + chi(p)", "interior": "2 + 0*xi + 0*v + chi(xi^2 + v^2)"},
    }
    paths = {name: write_cfg(tmp_path, f"{name}.json", cfg) for name, cfg in cfgs.items()}
    out = str(tmp_path / "out")
    argvs = [
        ["quantize", "--config", paths["shape"], "--out", out],
        ["quantize", "--config", paths["quantize"], "--out", out],
        ["index", "--config", paths["index"]],
        ["verify", "--config", paths["only"]],
        ["check", "--config", paths["incompatible"]],
        ["verify", "--only", "nonsense"],
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, json.dumps(argvs)], env=env, capture_output=True, text=True, check=True
    )
    start, shape, quantize, index, only, incompatible, unknown = json.loads(proc.stdout)
    assert start["import"] == ["psdo", "psdo.blas", "psdo.cli", "psdo.geometry", "psdo.quantize", "psdo.symexpr"]
    assert (shape["code"], shape["err"]) == (EXIT_CONFIG, "config error: symbol shape 2 != geometry fiber 1\n")
    assert quantize["code"] == EXIT_OK
    assert not {"psdo.fredholm", "psdo.symbols"} & set(quantize["loaded"])
    assert index["code"] == EXIT_OK
    assert not {"psdo.verify", "psdo.calculus", "psdo.localization", "psdo.stock"} & set(index["loaded"])
    suites = ", ".join(suite_names())
    assert only["code"] == EXIT_CONFIG
    assert only["err"] == f"config error: config field 'only' must be a suite name ({suites}), got 'nonsense'\n"
    assert incompatible["code"] == EXIT_COMPAT
    assert unknown["code"] == EXIT_CONFIG
    assert "unknown suite" in unknown["err"]
