"""Symbol expressions.

A small language for the complex-valued (and square-matrix-valued)
coefficient functions the calculus quantizes. Variables are fixed by
convention: x, xi for the circle and its dual, r, t, p for the cone
radial coordinate, cylinder coordinate and Mellin covariable, v, w, eta
for the edge parameter and the scaled fiber arguments. Complex literals
are written (re, im). Matrices are [[...],[...]] with scalar entries.

The module provides parsing, exact symbolic differentiation, vectorized
evaluation over numpy grids, substitution, and a printer whose output
reparses to an identical tree.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass, field
from typing import Union

import numpy as np

VARIABLES = ("x", "xi", "r", "t", "p", "v", "w", "eta")
FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "conj", "re", "im", "abs", "chi")


class ParseError(ValueError):
    """Raised on malformed source. Carries the byte offset and, when the
    failure is a missing token, what was expected there."""

    def __init__(self, message: str, pos: int, expected: str | None = None):
        self.pos = pos
        self.expected = expected
        detail = f"{message} at offset {pos}"
        if expected is not None:
            detail += f" (expected {expected})"
        super().__init__(detail)


class EvalError(ValueError):
    pass


class DiffError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: complex
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    a: "Node"
    b: "Node"
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Pow:
    base: "Node"
    n: int
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Mat:
    rows: tuple[tuple["Node", ...], ...]
    pos: int = field(default=-1, compare=False, repr=False)


Node = Union[Const, Var, Neg, BinOp, Pow, Call, Mat]

# Public entry points take either DSL source or a parsed tree.
ExprLike = Union[Node, str]


# ---------------------------------------------------------------------------
# Smart constructors. Used by the parser (sign folding) and by diff
# (keeps derivative trees from accumulating dead zeros and ones).


def _is_const(e: Node, v: complex | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def neg(e: Node, pos: int = -1) -> Node:
    if isinstance(e, Const):
        return Const(-e.value, pos)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e, pos)


def add(a: Node, b: Node) -> Node:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return BinOp("+", a, b)


def sub(a: Node, b: Node) -> Node:
    if _is_const(b, 0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(a, 0):
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Node, b: Node) -> Node:
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0.0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return BinOp("*", a, b)


def div(a: Node, b: Node) -> Node:
    if _is_const(b, 1):
        return a
    if _is_const(a, 0):
        return Const(0.0)
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        return Const(a.value / b.value)
    return BinOp("/", a, b)


def pow_(a: Node, n: int) -> Node:
    if n == 1:
        return a
    if n == 0:
        return Const(1.0)
    if isinstance(a, Const) and (a.value != 0 or n > 0):
        return Const(a.value**n)
    return Pow(a, n)


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()\[\],]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    toks = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            stripped = src[i:].lstrip()
            if not stripped:
                break
            bad = len(src) - len(stripped)
            raise ParseError(f"unexpected character {src[bad]!r}", bad)
        if m.lastgroup == "num":
            toks.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            toks.append(("name", m.group("name"), m.start("name")))
        else:
            toks.append(("op", m.group("op"), m.start("op")))
        i = m.end()
    toks.append(("end", "", len(src)))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> tuple[str, str, int]:
        kind, val, pos = self.peek()
        if kind == "op" and val == text:
            return self.next()
        raise ParseError(f"got {val!r}" if kind != "end" else "unexpected end of input", pos, expected=repr(text))

    def at_op(self, *texts: str) -> bool:
        kind, val, _ = self.peek()
        return kind == "op" and val in texts

    # expr := sum
    def parse_expr(self) -> Node:
        return self.parse_sum()

    def parse_sum(self) -> Node:
        e = self.parse_prod()
        while self.at_op("+", "-"):
            _, op, pos = self.next()
            rhs = self.parse_prod()
            e = BinOp(op, e, rhs, pos)
        return e

    def parse_prod(self) -> Node:
        e = self.parse_unary()
        while self.at_op("*", "/"):
            _, op, pos = self.next()
            rhs = self.parse_unary()
            e = BinOp(op, e, rhs, pos)
        return e

    def parse_unary(self) -> Node:
        if self.at_op("-"):
            _, _, pos = self.next()
            return neg(self.parse_unary(), pos)
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        if self.at_op("^"):
            _, _, pos = self.next()
            n = self.parse_int_exponent()
            if n in (0, 1):
                return pow_(base, n)
            return Pow(base, n, pos)
        return base

    def parse_int_exponent(self) -> int:
        sign = 1
        if self.at_op("-"):
            self.next()
            sign = -1
        kind, val, pos = self.peek()
        if kind != "num" or ("." in val or "e" in val or "E" in val):
            raise ParseError("exponent must be an integer literal", pos, expected="integer")
        self.next()
        return sign * int(val)

    def parse_atom(self) -> Node:
        kind, val, pos = self.peek()
        if kind == "num":
            self.next()
            value = float(val)
            if math.isinf(value):
                raise ParseError("numeric literal overflows to infinity", pos, expected="finite number")
            return Const(complex(value), pos)
        if kind == "name":
            self.next()
            if val in FUNCTIONS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return Call(val, arg, pos)
            if val in VARIABLES:
                return Var(val, pos)
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            self.next()
            first = self.parse_expr()
            if self.at_op(","):
                self.next()
                _, _, pos2 = self.peek()
                second = self.parse_expr()
                re_part = self._literal_value(first, pos)
                im_part = self._literal_value(second, pos2)
                self.expect(")")
                return Const(complex(re_part, im_part), pos)
            self.expect(")")
            return first
        if kind == "op" and val == "[":
            return self.parse_matrix()
        raise ParseError(f"got {val!r}" if kind != "end" else "unexpected end of input", pos, expected="expression")

    @staticmethod
    def _literal_value(e: Node, pos: int) -> float:
        # components of a (re, im) literal must fold to real numbers
        if isinstance(e, Const) and e.value.imag == 0:
            return e.value.real
        raise ParseError("complex literal components must be numeric", pos, expected="number")

    def parse_matrix(self) -> Node:
        _, _, pos = self.expect("[")
        rows: list[tuple[Node, ...]] = []
        while True:
            self.expect("[")
            row: list[Node] = []
            while True:
                row.append(self.parse_expr())
                if self.at_op(","):
                    self.next()
                    continue
                break
            self.expect("]")
            rows.append(tuple(row))
            if self.at_op(","):
                self.next()
                continue
            break
        self.expect("]")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ParseError("matrix rows have unequal lengths", pos)
        if len(rows) != width:
            raise ParseError(f"matrix must be square, got {len(rows)}x{width}", pos)
        return Mat(tuple(rows), pos)


def parse(src: str) -> Node:
    """Parse source into an AST and validate shapes.

    Raises ParseError (with byte offset) on syntax errors, unknown
    identifiers, non-integer exponents, numeric literals that overflow
    to infinity, and shape mismatches.
    """
    p = _Parser(src)
    e = p.parse_expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    shape_of(e)
    return e


def as_node(expr: ExprLike) -> Node:
    """Parse DSL source; pass an already parsed tree through."""
    return parse(expr) if isinstance(expr, str) else expr


# ---------------------------------------------------------------------------
# Shape analysis. q = 1 for scalar expressions, the matrix dimension
# otherwise. Mixed shapes are allowed exactly where matrix algebra
# allows them (scalar*matrix, matrix/scalar, matrix products).


def shape_of(e: Node) -> int:
    if isinstance(e, (Const, Var)):
        return 1
    if isinstance(e, Neg):
        return shape_of(e.arg)
    if isinstance(e, Pow):
        return shape_of(e.base)
    if isinstance(e, Call):
        return _call_shape(e, shape_of(e.arg))
    if isinstance(e, BinOp):
        return _binop_shape(e, shape_of(e.a), shape_of(e.b))
    if isinstance(e, Mat):
        for row in e.rows:
            for entry in row:
                if shape_of(entry) != 1:
                    raise ParseError("matrix entries must be scalar", e.pos)
        return len(e.rows)
    raise TypeError(f"not a node: {e!r}")


def _call_shape(e: Call, qa: int) -> int:
    if qa != 1 and e.fn not in ("conj", "re", "im", "abs"):
        raise ParseError(f"{e.fn} takes a scalar argument", e.pos)
    return qa


def _binop_shape(e: BinOp, qa: int, qb: int) -> int:
    if e.op in ("+", "-"):
        if qa != qb:
            raise ParseError(f"shape mismatch in {e.op!r}: {qa} vs {qb}", e.pos)
        return qa
    if e.op == "*":
        if qa == 1:
            return qb
        if qb == 1:
            return qa
        if qa != qb:
            raise ParseError(f"shape mismatch in product: {qa} vs {qb}", e.pos)
        return qa
    # division: denominator must be scalar
    if qb != 1:
        raise ParseError("division by a matrix", e.pos)
    return qa


def variables_of(e: Node) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, (Neg, Pow)):
        return variables_of(e.arg if isinstance(e, Neg) else e.base)
    if isinstance(e, Call):
        return variables_of(e.arg)
    if isinstance(e, BinOp):
        return variables_of(e.a) | variables_of(e.b)
    if isinstance(e, Mat):
        out: frozenset[str] = frozenset()
        for row in e.rows:
            for entry in row:
                out = out | variables_of(entry)
        return out
    raise TypeError(f"not a node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation


def _chi(s: np.ndarray) -> np.ndarray:
    """s / sqrt(1 + s^2), with one temporary of s's shape."""
    if np.ndim(s) == 0:
        return s / np.sqrt(1.0 + s * s)
    t = s * s
    np.add(1.0, t, out=t)
    np.sqrt(t, out=t)
    return np.divide(s, t, out=t)


# functions that may write their result into an owned argument
_UFUNCS = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt, "conj": np.conj}
_OTHER_FNS = {
    "re": lambda z: np.real(z).astype(complex),
    "im": lambda z: np.imag(z).astype(complex),
    "abs": lambda z: np.abs(z).astype(complex),
    "chi": _chi,
}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _into(owned: bool, v: np.ndarray, shape: tuple[int, ...]) -> np.ndarray | None:
    """v as the output buffer of a result shaped `shape`, or None when v
    may not be written: a binding, a constant, a scalar or another shape.
    One-element arrays stay out too: a one-element complex product
    written in place rounds through another loop."""
    if owned and isinstance(v, np.ndarray) and v.size > 1 and v.shape == shape:
        return v
    return None


def _ev(e: Node, b: dict[str, np.ndarray]) -> tuple[np.ndarray, bool, int]:
    """Value of e, whether the evaluator owns it, and e's shape q (as
    `shape_of`, checked on the way up). An owned value is a fresh array
    that nothing else refers to, so the step that consumes it may write
    its result there. The ufunc and the operand order are those of the
    out-of-place expression, so the bits are too."""
    if isinstance(e, Const):
        return np.asarray(e.value, dtype=complex), False, 1
    if isinstance(e, Var):
        try:
            return b[e.name], False, 1
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        a, owned, q = _ev(e.arg, b)
        out = _into(owned, a, np.shape(a))
        return (-a if out is None else np.negative(a, out=out)), True, q
    if isinstance(e, Pow):
        base, owned, q = _ev(e.base, b)
        if q == 1:
            # out of place: numpy's power fast paths pick another loop with out=
            return base**e.n, True, q
        m = base
        if e.n < 0:
            m = np.linalg.inv(m)
        out = m
        for _ in range(abs(e.n) - 1):
            out = out @ m
        return out, owned or out is not base, q
    if isinstance(e, Call):
        a, owned, qa = _ev(e.arg, b)
        q = _call_shape(e, qa)
        if e.fn in _UFUNCS:
            return _UFUNCS[e.fn](a, out=_into(owned, a, np.shape(a))), True, q
        return _OTHER_FNS[e.fn](a), True, q
    if isinstance(e, BinOp):
        (va, oa, qa), (vb, ob, qb) = _ev(e.a, b), _ev(e.b, b)
        q = _binop_shape(e, qa, qb)
        if e.op in ("+", "-") or qa == qb == 1:
            shape = np.broadcast_shapes(np.shape(va), np.shape(vb))
            out = _into(oa, va, shape)
            if out is None:
                out = _into(ob, vb, shape)
            if out is not None:
                return _BINARY[e.op](va, vb, out=out), True, q
        # out of place by the operators: on numpy scalars they round
        # through scalar arithmetic, not through the ufunc loops
        if e.op == "+":
            return va + vb, True, q
        if e.op == "-":
            return va - vb, True, q
        if e.op == "*":
            if qa > 1 and qb > 1:
                return va @ vb, True, q
            if qa > 1:  # matrix * scalar
                return (va * vb[..., None, None] if np.ndim(vb) else va * vb), True, q
            if qb > 1:  # scalar * matrix
                return (vb * va[..., None, None] if np.ndim(va) else vb * va), True, q
            return va * vb, True, q
        if e.op == "/":
            if qa > 1:
                return va / (vb[..., None, None] if np.ndim(vb) else vb), True, q
            return va / vb, True, q
    if isinstance(e, Mat):
        entries = [[_ev(entry, b) for entry in row] for row in e.rows]
        if any(qe != 1 for row in entries for _, _, qe in row):
            raise ParseError("matrix entries must be scalar", e.pos)
        q = len(e.rows)
        shape = np.broadcast_shapes(*(np.shape(v) for row in entries for v, _, _ in row))
        out = np.empty(shape + (q, q), dtype=complex)
        for i in range(q):
            for j in range(q):
                out[..., i, j] = np.broadcast_to(entries[i][j][0], shape)
        return out, True, q
    raise TypeError(f"not a node: {e!r}")


def evaluate(e: Node, bindings: dict[str, object], as_matrix: bool = True, check: bool = True) -> np.ndarray:
    """Evaluate over numpy-broadcastable bindings.

    Returns a complex array. With as_matrix=True (default) the result has
    trailing axes (q, q), scalars promoted to (..., 1, 1). With check=True
    a non-finite result (overflow, division by zero, log branch point)
    raises EvalError rather than propagating inf/nan.

    Memory: an intermediate the evaluator made is overwritten by the step
    that consumes it whenever it already has that step's shape, and the
    bindings are never written. So a sum of terms, each the product of
    an x-factor and a xi-factor, peaks at two output-sized arrays (the
    running sum and the current term) whatever the number of terms.
    """
    b = {k: np.asarray(val, dtype=complex) for k, val in bindings.items()}
    with np.errstate(all="ignore"):
        out, _, q = _ev(e, b)
    out = np.asarray(out, dtype=complex)
    if as_matrix and q == 1:
        out = out[..., None, None]
    if as_matrix and q > 1 and out.ndim < 2:
        out = np.broadcast_to(out, (q, q)).copy()
    if check and not np.all(np.isfinite(out)):
        raise EvalError("evaluation produced a non-finite value (overflow, division by zero or log branch violation)")
    return out


# ---------------------------------------------------------------------------
# Differentiation. Exact on the holomorphic core; conj/re/im pass the
# derivative through entrywise (coefficients in this calculus use them
# only on holomorphic arguments); abs is rejected.


def diff(e: Node, var: str) -> Node:
    if var not in VARIABLES:
        raise DiffError(f"unknown variable {var!r}")
    return _d(e, var)


def _d(e: Node, v: str) -> Node:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == v else 0.0)
    if isinstance(e, Neg):
        return neg(_d(e.arg, v))
    if isinstance(e, BinOp):
        da, db = _d(e.a, v), _d(e.b, v)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.b), mul(e.a, db))
        num = sub(mul(da, e.b), mul(e.a, db))
        return div(num, pow_(e.b, 2))
    if isinstance(e, Pow):
        inner = mul(Const(float(e.n)), pow_(e.base, e.n - 1))
        return mul(inner, _d(e.base, v))
    if isinstance(e, Call):
        du = _d(e.arg, v)
        u = e.arg
        if e.fn == "exp":
            return mul(Call("exp", u), du)
        if e.fn == "log":
            return div(du, u)
        if e.fn == "sin":
            return mul(Call("cos", u), du)
        if e.fn == "cos":
            return neg(mul(Call("sin", u), du))
        if e.fn == "sqrt":
            return div(du, mul(Const(2.0), Call("sqrt", u)))
        if e.fn == "chi":
            # chi'(s) = (1+s^2)^(-3/2)
            slope = div(Const(1.0), Call("sqrt", pow_(add(Const(1.0), pow_(u, 2)), 3)))
            return mul(slope, du)
        if e.fn == "conj":
            return Call("conj", du)
        if e.fn == "re":
            return Call("re", du)
        if e.fn == "im":
            return Call("im", du)
        raise DiffError(f"{e.fn} is not differentiable here")
    if isinstance(e, Mat):
        return Mat(tuple(tuple(_d(entry, v) for entry in row) for row in e.rows), e.pos)
    raise TypeError(f"not a node: {e!r}")


# ---------------------------------------------------------------------------
# Substitution (used for coefficient freezing and pushforwards)


def substitute(e: Node, repl: dict[str, Node]) -> Node:
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return repl.get(e.name, e)
    if isinstance(e, Neg):
        return neg(substitute(e.arg, repl))
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.a, repl), substitute(e.b, repl))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, repl), e.n)
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, repl))
    if isinstance(e, Mat):
        return Mat(tuple(tuple(substitute(entry, repl) for entry in row) for row in e.rows))
    raise TypeError(f"not a node: {e!r}")


# ---------------------------------------------------------------------------
# Printing. to_source(parse(s)) reparses to an AST equal to parse(s).

_PREC_SUM, _PREC_PROD, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Node) -> int:
    if isinstance(e, Const):
        # a real constant prints with its sign, -0.0 included
        if e.value.imag == 0 and math.copysign(1.0, e.value.real) < 0:
            return _PREC_UNARY
        return _PREC_ATOM
    if isinstance(e, (Var, Call, Mat)):
        return _PREC_ATOM
    if isinstance(e, Neg):
        return _PREC_UNARY
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_PROD if e.op in ("*", "/") else _PREC_SUM


def _fmt_real(v: float) -> str:
    # a non-finite value, which no literal parses to, prints as its repr
    # ("inf", "nan"), and parsing that raises ParseError
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return repr(float(v))
    return repr(v)


def _src(e: Node, ctx: int) -> str:
    p = _prec(e)
    if isinstance(e, Const):
        z = e.value
        if z.imag == 0:
            s = _fmt_real(z.real)
        else:
            s = f"({_fmt_real(z.real)}, {_fmt_real(z.imag)})"
            p = _PREC_ATOM
        return f"({s})" if p < ctx else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        s = "-" + _src(e.arg, _PREC_UNARY)
        return f"({s})" if p < ctx else s
    if isinstance(e, BinOp):
        if e.op in ("+", "-"):
            s = f"{_src(e.a, _PREC_SUM)} {e.op} {_src(e.b, _PREC_PROD)}"
        else:
            s = f"{_src(e.a, _PREC_PROD)}{e.op}{_src(e.b, _PREC_UNARY)}"
        return f"({s})" if p < ctx else s
    if isinstance(e, Pow):
        base = _src(e.base, _PREC_ATOM)
        s = f"{base}^{e.n}" if e.n >= 0 else f"{base}^-{abs(e.n)}"
        return f"({s})" if p < ctx else s
    if isinstance(e, Call):
        return f"{e.fn}({_src(e.arg, _PREC_SUM)})"
    if isinstance(e, Mat):
        rows = ", ".join("[" + ", ".join(_src(x, _PREC_SUM) for x in row) + "]" for row in e.rows)
        return f"[{rows}]"
    raise TypeError(f"not a node: {e!r}")


def to_source(e: Node) -> str:
    return _src(e, _PREC_SUM)
