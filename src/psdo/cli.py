"""Command line driver.

Four commands share one JSON config file:

    psdo check    --config cfg.json
    psdo quantize --config cfg.json [--out DIR]
    psdo index    --config cfg.json [--format csv]
    psdo verify   [--config cfg.json] [--seed N] [--only SUITE]

The config schema is the table CONFIG_SCHEMA below: each field, its
rule and what the rule asks. Every field is optional unless the command
requires it. load_config checks every present field against the table
once, before any command runs and whatever the command, so a field
error exits 64 even for a command that does not read the field. JSON
null is outside every rule: write a field's default, or leave it out.
Schema errors (64) are reported before DSL parse errors (65).

Reports are JSON. Everything outside the "volatile" block (timestamp,
wall and CPU times, the BLAS thread policy, the unrounded norm of
`psdo quantize`) is deterministic for a fixed config and seed;
byte-identity is checked on the report with that block removed. Files
are written atomically (temp file in the target directory, then
rename).

Exit codes: 0 ok, 2 compatibility failure, 3 ellipticity failure,
4 indeterminate sections, 5 index/oracle inconsistency, 64 config or
schema error (also a command-line usage error, and a symbol that is
non-finite or unbound on the grid it is evaluated on), 65 DSL parse
error (message carries the byte offset), 74 output I/O error.
Verification failures exit 1; --help exits 0.

Every command runs on one OpenBLAS thread; psdo.blas states the policy
and when it is off, and the report names it as "volatile.blas".
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import struct
import sys
import tempfile
import time
import warnings
from datetime import datetime, timezone
from typing import Callable, Optional

import numpy as np

# Only the modules every command uses are imported here; the command
# modules (fredholm, symbols, verify) are imported where they run,
# because a fresh interpreter pays for every module it imports.
from psdo.blas import narrow
from psdo.geometry import (
    Cone,
    GeometryError,
    build_geometry,
    describe_geometry,
    is_int,
    is_number,
)
from psdo.quantize import QuantizeError, quantize
from psdo.symexpr import EvalError, ParseError, parse, shape_of

__all__ = [
    "CONFIG_SCHEMA",
    "CONTAINER_MAGIC",
    "CONTAINER_VERSION",
    "ConfigError",
    "EXIT_OK",
    "EXIT_COMPAT",
    "EXIT_ELLIPTIC",
    "EXIT_INDETERMINATE",
    "EXIT_INCONSISTENT",
    "EXIT_FAIL",
    "EXIT_CONFIG",
    "EXIT_PARSE",
    "EXIT_IO",
    "canonical_report_bytes",
    "cmd_check",
    "cmd_index",
    "cmd_quantize",
    "cmd_verify",
    "main",
    "read_container",
    "write_container",
]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_COMPAT = 2
EXIT_ELLIPTIC = 3
EXIT_INDETERMINATE = 4
EXIT_INCONSISTENT = 5
EXIT_CONFIG = 64
EXIT_PARSE = 65
EXIT_IO = 74

CONTAINER_MAGIC = b"PSDO"
CONTAINER_VERSION = 1


class ConfigError(ValueError):
    pass


def _is_str(raw: object) -> bool:
    return isinstance(raw, str)


def _check_seed(raw: object) -> bool:
    """The seed rule, shared by --seed and the config field."""
    if not is_int(raw) or raw < 0:
        raise ConfigError(f"seed must be an int >= 0, got {raw!r}")
    return True


def _suite_names() -> list[str]:
    from psdo.verify import suite_names

    return suite_names()


# field -> (rule, what the rule asks). A rule returns false for a value
# outside it, or raises an error that names the field itself. What a rule
# asks may be a callable, called only to build the error. Defaults live
# with the command that reads the field.
CONFIG_SCHEMA: dict[str, tuple[Callable[[object], object], str | Callable[[], str]]] = {
    "seed": (_check_seed, "an int >= 0"),
    "geometry": (build_geometry, "a geometry descriptor, see psdo.geometry.build_geometry"),
    "symbol": (_is_str, "a DSL source string"),
    # check only; lets a config carry an incompatible tuple
    "interior": (_is_str, "a DSL source string"),
    "v": (is_number, "a finite number"),
    "sizes": (lambda raw: isinstance(raw, list) and all(map(is_int, raw)), "a list of ints"),
    "tau_coef": (is_number, "a finite number"),
    # index only; default is the symbol. Either is read as a family on the
    # cone's base with x = r = w = eta = v frozen to 0 (psdo.symbols.conormal)
    "tip": (_is_str, "a DSL source string"),
    "only": (
        lambda raw: raw in _suite_names(),
        lambda: f"a suite name ({', '.join(_suite_names())})",
    ),
    "out": (lambda raw: isinstance(raw, str) and raw != "", "a directory path"),
    "format": (lambda raw: raw in ("report", "csv"), "'report' or 'csv'"),
}


# ---------------------------------------------------------------------------
# Config and report plumbing


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - set(CONFIG_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, raw in cfg.items():
        rule, asks = CONFIG_SCHEMA[key]
        if not rule(raw):
            asks = asks() if callable(asks) else asks
            raise ConfigError(f"config field {key!r} must be {asks}, got {raw!r}")
    return cfg


def config_digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def make_report(command: str, cfg: dict, seed: int, result: dict, t0: float) -> dict:
    return {
        "command": command,
        "config_digest": config_digest(cfg),
        "seed": seed,
        "result": result,
        "volatile": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "elapsed_s": round(time.perf_counter() - t0, 6),
        },
    }


def canonical_report_bytes(report: dict) -> bytes:
    """Deterministic serialization: the volatile block is dropped."""
    body = {k: v for k, v in report.items() if k != "volatile"}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def atomic_write(path: str, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".psdo-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Binary container


def write_container(path: str, op) -> None:
    """magic, u32 LE version, u32 LE descriptor length, descriptor JSON,
    then the matrix row-major as little-endian (re, im) float64 pairs."""
    desc = {
        "geometry": describe_geometry(op.geometry),
        "v": op.v,
        "interior": bool(op.interior),
        "dim": int(op.matrix.shape[0]),
    }
    blob = json.dumps(desc, sort_keys=True, separators=(",", ":")).encode()
    payload = op.matrix.astype("<c16").tobytes(order="C")
    data = (
        CONTAINER_MAGIC
        + struct.pack("<I", CONTAINER_VERSION)
        + struct.pack("<I", len(blob))
        + blob
        + payload
    )
    atomic_write(path, data)


def read_container(path: str) -> tuple[dict, np.ndarray]:
    """The descriptor and matrix of a container; ConfigError on any
    malformed file."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != CONTAINER_MAGIC:
        raise ConfigError("not a PSDO container (bad magic)")
    if len(data) < 12:
        raise ConfigError("container header truncated")
    version, length = struct.unpack_from("<II", data, 4)
    if version != CONTAINER_VERSION:
        raise ConfigError(f"unsupported container version {version}")
    if len(data) < 12 + length:
        raise ConfigError("container descriptor truncated")
    try:
        desc = json.loads(data[12 : 12 + length].decode("utf-8"))
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, deep nesting
        raise ConfigError(f"container descriptor is not JSON: {e}") from None
    n = desc.get("dim") if isinstance(desc, dict) else None
    if type(n) is not int or n < 0:
        raise ConfigError(f"container dim must be an int >= 0, got {n!r}")
    body = data[12 + length :]
    if len(body) != n * n * 16:
        raise ConfigError("container payload truncated")
    matrix = np.frombuffer(body, dtype="<c16").reshape(n, n).copy()
    return desc, matrix


# ---------------------------------------------------------------------------
# Commands


def _require(cfg: dict, key: str) -> object:
    if key not in cfg:
        raise ConfigError(f"config needs {key!r} for this command")
    return cfg[key]


def _probe_cone(cfg: dict) -> Cone:
    desc = cfg.get(
        "geometry", {"kind": "cone", "T": 6.0, "n_t": 64, "boundary": "interval"}
    )
    g = build_geometry(desc)
    if not isinstance(g, Cone):
        raise ConfigError("this command needs a cone geometry")
    return g


def cmd_check(cfg: dict) -> tuple[dict, int]:
    """compat_check then check_elliptic on the configured tuple."""
    from psdo.fredholm import check_elliptic, extract_tuple
    from psdo.symbols import ConeSymbolFamily, InteriorSymbol, SymbolTuple, compat_check

    cone = _probe_cone(cfg)
    expr = parse(_require(cfg, "symbol"))
    fam = ConeSymbolFamily(expr, base=cone.base, q=shape_of(expr))
    t = extract_tuple(fam)
    if "interior" in cfg:
        t = SymbolTuple(InteriorSymbol(parse(cfg["interior"]), q=fam.q), fam)
    comp = compat_check(t)
    result: dict = {
        "compat": {
            "mismatch": comp.mismatch,
            "tol": comp.tol,
            "passed": comp.passed,
        }
    }
    if not comp.passed:
        result["verdict"] = "incompatible"
        return result, EXIT_COMPAT
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # compat already gated above
        ell = check_elliptic(t)
    result["ellipticity"] = {
        "interior_min": ell.interior_min,
        "conormal_min": ell.conormal_min,
        "large_p_pass": ell.large_p_pass,
        "overall": ell.overall,
    }
    if not ell.overall:
        result["verdict"] = "not elliptic"
        return result, EXIT_ELLIPTIC
    result["verdict"] = "elliptic"
    return result, EXIT_OK


def cmd_quantize(cfg: dict, out_dir: Optional[str]) -> tuple[dict, int, dict]:
    """Quantize the configured symbol and write the container. The
    report prints the norm rounded to 12 significant digits, so that an
    eps-level change in how it is computed moves no canonical byte; the
    raw value goes to the volatile block."""
    g = build_geometry(_require(cfg, "geometry"))
    expr = parse(_require(cfg, "symbol"))
    op = quantize(g, expr, float(cfg["v"]) if "v" in cfg else None)
    target = os.path.join(out_dir or ".", "operator.psdo")
    try:
        os.makedirs(out_dir or ".", exist_ok=True)
        write_container(target, op)
        with open(target, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
    except OSError as e:
        return {"verdict": "io-error", "error": str(e)}, EXIT_IO, {}
    norm = op.norm()
    result = {
        "container": target,
        "sha256": digest,
        "dim": int(op.matrix.shape[0]),
        "norm": float(f"{norm:.12g}"),
        "verdict": "written",
    }
    return result, EXIT_OK, {"norm": norm}


def cmd_index(cfg: dict) -> tuple[dict, int]:
    """Finite-section ladder with the winding oracle cross-check."""
    from psdo.fredholm import FredholmError, finite_section, interval_section, winding_oracle
    from psdo.symbols import ConeSymbolFamily, conormal

    cone = _probe_cone(cfg)
    if cone.boundary != "interval":
        raise ConfigError("index needs an interval-mode cone geometry")
    expr = parse(_require(cfg, "symbol"))
    # Coarser than the raw finite_section default so slowly-closing conormal
    # gaps read as indeterminate rather than feeding the oracle a zero crossing.
    rep = finite_section(
        lambda n_t: interval_section(expr, cone.h_t, n_t, cone.base, cone.q),
        sizes=tuple(cfg.get("sizes", [64, 128, 256])),
        tau_coef=float(cfg.get("tau_coef", 1e-4)),
    )
    rows = rep.rows()
    result: dict = {
        "rows": [list(r) for r in rows],
        "determinate": rep.determinate,
        "convention": rep.convention,
    }
    if not rep.determinate:
        result["verdict"] = "indeterminate"
        return result, EXIT_INDETERMINATE
    tip = ConeSymbolFamily(parse(cfg["tip"]) if "tip" in cfg else expr, base=cone.base, q=cone.q)
    try:
        w = winding_oracle(conormal(tip))
    except FredholmError as e:
        result["verdict"] = "inconsistent"
        result["oracle_error"] = str(e)
        return result, EXIT_INCONSISTENT
    result["winding"] = w.winding
    result["orientation"] = w.orientation
    if rep.index != w.winding:
        result["verdict"] = "inconsistent"
        return result, EXIT_INCONSISTENT
    result["index"] = rep.index
    result["verdict"] = "consistent"
    return result, EXIT_OK


def index_csv(result: dict) -> str:
    lines = ["N,kernel,cokernel,index"]
    for row in result["rows"]:
        lines.append(",".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def cmd_verify(cfg: dict, seed: int, only: Optional[str]) -> tuple[dict, int, dict]:
    """Run the suite battery; per-suite wall and CPU timings go to the
    volatile block."""
    from psdo.verify import run_suites

    rep = run_suites(seed=seed, only=only)
    code = EXIT_OK if rep.passed else EXIT_FAIL
    return rep.payload(), code, {"timings": rep.timings(), "cpu_timings": rep.cpu_timings()}


def verify_csv(result: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["suite", "check", "passed"])
    for s in result["suites"]:
        for c in s["checks"]:
            w.writerow([s["suite"], c["name"], str(c["passed"]).lower()])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Entry point


def _config_errors() -> tuple[type[Exception], ...]:
    """The error classes that exit EXIT_CONFIG. Built only when an error
    reaches main; a class whose module is not loaded cannot have been
    raised, so it is left out and nothing is imported for it."""
    errors = [ConfigError, EvalError, GeometryError, QuantizeError]
    for module, name in (
        ("psdo.fredholm", "FredholmError"),
        ("psdo.symbols", "SymbolError"),
        ("psdo.verify", "VerifyError"),
    ):
        if module in sys.modules:
            errors.append(getattr(sys.modules[module], name))
    return tuple(errors)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit EXIT_CONFIG; argparse's own 2 is EXIT_COMPAT."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _out_flag(raw: str) -> str:
    """--out follows the rule of the config field it overrides."""
    rule, asks = CONFIG_SCHEMA["out"]
    if not rule(raw):
        raise argparse.ArgumentTypeError(f"must be {asks}, got {raw!r}")
    return raw


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    p = _ArgumentParser(prog="psdo", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("check", "quantize", "index", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--only", default=None)
        sp.add_argument("--out", default=None, type=_out_flag)
        sp.add_argument("--format", choices=("report", "csv"), default=None)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config) if args.config else {}
        if args.seed is not None:
            _check_seed(args.seed)
    except (ConfigError, GeometryError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    out_dir = args.out if args.out is not None else cfg.get("out")
    fmt = args.format if args.format is not None else cfg.get("format", "report")
    only = args.only if args.only is not None else cfg.get("only")

    volatile: dict = {}
    try:
        with narrow() as blas:
            if args.command == "check":
                result, code = cmd_check(cfg)
            elif args.command == "quantize":
                result, code, volatile = cmd_quantize(cfg, out_dir)
            elif args.command == "index":
                result, code = cmd_index(cfg)
            else:
                result, code, volatile = cmd_verify(cfg, seed, only)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except _config_errors() as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    report = make_report(args.command, cfg, seed, result, t0)
    report["volatile"].update(volatile, blas=blas)

    try:
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            atomic_write(
                os.path.join(out_dir, "report.json"),
                json.dumps(report, indent=2).encode() + b"\n",
            )
            if args.command == "index":
                atomic_write(
                    os.path.join(out_dir, "sections.csv"), index_csv(result).encode()
                )
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO

    if fmt == "csv" and args.command == "index":
        sys.stdout.write(index_csv(result))
    elif fmt == "csv" and args.command == "verify":
        sys.stdout.write(verify_csv(result))
    else:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
