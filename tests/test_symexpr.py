"""The symbol DSL: parsing and its errors, printing that parses back
(on fixed, generated and token-string inputs), evaluation, derivatives
and substitution, and `evaluate`'s in-place buffer reuse bit for bit
against the out-of-place reference in oracles.py."""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oracles import out_of_place_evaluate
from psdo.symexpr import (
    FUNCTIONS,
    VARIABLES,
    BinOp,
    Call,
    Const,
    DiffError,
    EvalError,
    Mat,
    ParseError,
    Pow,
    Var,
    diff,
    evaluate,
    neg,
    parse,
    shape_of,
    substitute,
    to_source,
    variables_of,
)


def ev1(src, **bindings):
    # scalar evaluate -> python complex
    out = evaluate(parse(src), bindings)
    return complex(out.reshape(-1)[0])


class TestParse:
    def test_mellin_quotient_at_zero(self):
        # (p - i)/(p + i) at p = 0 is -1
        val = ev1("(p-(0,1))/(p+(0,1))", p=0.0)
        assert abs(val - (-1.0)) < 1e-15

    def test_oscillation_times_cutoff(self):
        val = ev1("exp((0,1)*x)*chi(xi)", x=np.pi / 2, xi=1000.0)
        oracle = 1j * (1000.0 / np.sqrt(1.0 + 1000.0**2))
        assert abs(val - oracle) < 1e-15
        # chi saturates: off the unit imaginary by ~5e-7 relative
        assert abs(val - 1j) < 2e-6
        assert abs(val - 1j) > 1e-7

    def test_complex_literal_negative_parts(self):
        assert ev1("(-1.5, 2.0)") == complex(-1.5, 2.0)

    def test_precedence_power_over_unary_minus(self):
        # -x^2 is -(x^2)
        assert ev1("-x^2", x=3.0) == -9.0

    def test_negative_exponent(self):
        assert abs(ev1("x^-2", x=4.0) - 1.0 / 16.0) < 1e-16

    def test_matrix_value(self):
        out = evaluate(parse("[[1, x],[0, 1]]^2"), {"x": 2.0})
        assert out.shape[-2:] == (2, 2)
        assert np.allclose(out[..., :, :], np.array([[1, 4], [0, 1]]))

    def test_matrix_scalar_mix(self):
        out = evaluate(parse("chi(xi)*[[1,0],[0,1]]"), {"xi": 1000.0})
        c = 1000.0 / np.sqrt(1.0 + 1e6)
        assert np.allclose(out, c * np.eye(2))

    def test_shape_of(self):
        assert shape_of(parse("x + xi")) == 1
        assert shape_of(parse("[[x,0],[0,x]]")) == 2

    def test_variables_of(self):
        assert variables_of(parse("chi(eta)*w + p")) == frozenset({"eta", "w", "p"})


class TestParseErrors:
    def test_unknown_identifier_offset(self):
        with pytest.raises(ParseError) as ei:
            parse("x + bogus")
        assert ei.value.pos == 4

    def test_unclosed_paren(self):
        with pytest.raises(ParseError) as ei:
            parse("(p")
        assert ei.value.expected == "')'"

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError) as ei:
            parse("x^2.5")
        assert ei.value.pos == 2

    def test_non_square_matrix(self):
        with pytest.raises(ParseError):
            parse("[[x, xi]]")

    def test_ragged_matrix(self):
        with pytest.raises(ParseError):
            parse("[[x, xi],[x]]")

    def test_shape_mismatch_add(self):
        with pytest.raises(ParseError):
            parse("[[1,0],[0,1]] + x")

    def test_matrix_division(self):
        with pytest.raises(ParseError):
            parse("x/[[1,0],[0,1]]")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("x 3")

    def test_function_argument_shape(self):
        with pytest.raises(ParseError):
            parse("exp([[x,0],[0,x]])")

    def test_complex_literal_nonnumeric(self):
        with pytest.raises(ParseError):
            parse("(x, 1)")

    @pytest.mark.parametrize(
        "src, pos",
        [("1e400", 0), ("x + 2*1e400", 6), ("(1, 1e999)", 4), ("[[1, 0], [0, 1" + "0" * 400 + "]]", 13)],
        ids=["exponent", "in-product", "complex-part", "400-digits"],
    )
    def test_overflowing_literal_rejected_with_position(self, src, pos):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.pos == pos
        assert "overflows to infinity" in str(exc.value)

    def test_underflowing_literal_is_zero(self):
        assert parse("1e-400") == Const(0j)


class TestEval:
    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            evaluate(parse("x + xi"), {"x": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            evaluate(parse("1/x"), {"x": 0.0})

    def test_log_branch_point(self):
        with pytest.raises(EvalError):
            evaluate(parse("log(x)"), {"x": 0.0})

    def test_broadcast_shapes(self):
        e = parse("exp((0,1)*x)*chi(xi)")
        x = np.linspace(0, 1, 8)[:, None]
        xi = np.arange(5)[None, :]
        out = evaluate(e, {"x": x, "xi": xi})
        assert out.shape == (8, 5, 1, 1)

    def test_deterministic(self):
        e = parse("exp((0,1)*x)*chi(xi)")
        a = evaluate(e, {"x": 0.3, "xi": 2.0})
        b = evaluate(e, {"x": 0.3, "xi": 2.0})
        assert np.array_equal(a, b)

    def test_functions_against_numpy(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=4) + 0.5
        for src, fn in [
            ("exp(x)", np.exp),
            ("log(x)", np.log),
            ("sin(x)", np.sin),
            ("cos(x)", np.cos),
            ("sqrt(x)", np.sqrt),
        ]:
            out = evaluate(parse(src), {"x": z})[..., 0, 0]
            assert np.allclose(out, fn(z.astype(complex)), rtol=0, atol=1e-15)

    def test_conj_re_im_abs(self):
        z = 1.5 - 2.0j
        assert ev1("conj(x)", x=z) == np.conj(z)
        assert ev1("re(x)", x=z) == z.real
        assert ev1("im(x)", x=z) == z.imag
        assert ev1("abs(x)", x=z) == abs(z)


SMOOTH_SOURCES = [
    "(p-(0,1))/(p+(0,1))",
    "exp((0,1)*x)*chi(xi)",
    "chi(x*xi)",
    "sqrt(1 + x^2)*cos(xi)",
    "x^3 - 2*x + 1/(x+2)",
    "log(2 + x^2)",
    "chi(eta)^2 + chi(eta)",
]


class TestDiff:
    @pytest.mark.parametrize("src", SMOOTH_SOURCES)
    def test_matches_central_differences(self, src):
        e = parse(src)
        rng = np.random.default_rng(11)
        h = 1e-5
        for var in sorted(variables_of(e)):
            de = diff(e, var)
            for _ in range(5):
                pt = {name: rng.uniform(0.4, 1.6) for name in sorted(variables_of(e))}
                hi = dict(pt)
                lo = dict(pt)
                hi[var] = pt[var] + h
                lo[var] = pt[var] - h
                num = (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)
                sym = evaluate(de, pt)
                scale = max(1.0, float(np.max(np.abs(sym))))
                assert np.max(np.abs(num - sym)) / scale < 1e-7

    def test_chi_slope_formula(self):
        # d chi = (1+s^2)^(-3/2)
        de = diff(parse("chi(x)"), "x")
        for s in [0.0, 0.7, -2.0, 10.0]:
            want = (1 + s * s) ** -1.5
            got = complex(evaluate(de, {"x": s}).reshape(-1)[0])
            assert abs(got - want) < 1e-14

    def test_linearity_random(self):
        rng = np.random.default_rng(3)
        f, g = parse("chi(x*xi)"), parse("exp((0,1)*x)*cos(xi)")
        a, b = 1.7, -0.6
        comb = BinOp("+", BinOp("*", Const(a), f), BinOp("*", Const(b), g))
        d_comb = diff(comb, "x")
        for _ in range(10):
            pt = {"x": rng.uniform(0.1, 2), "xi": rng.uniform(0.1, 2)}
            lhs = evaluate(d_comb, pt)
            rhs = a * evaluate(diff(f, "x"), pt) + b * evaluate(diff(g, "x"), pt)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_product_rule_random(self):
        rng = np.random.default_rng(4)
        f, g = parse("chi(x*xi)"), parse("exp((0,1)*x)*cos(xi)")
        prod = BinOp("*", f, g)
        d_prod = diff(prod, "x")
        for _ in range(10):
            pt = {"x": rng.uniform(0.1, 2), "xi": rng.uniform(0.1, 2)}
            lhs = evaluate(d_prod, pt)
            rhs = evaluate(diff(f, "x"), pt) * evaluate(g, pt) + evaluate(f, pt) * evaluate(diff(g, "x"), pt)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_matrix_entrywise(self):
        de = diff(parse("[[x^2, x],[1, 2*x]]"), "x")
        out = evaluate(de, {"x": 3.0})
        assert np.allclose(out, np.array([[6.0, 1.0], [0.0, 2.0]]))

    def test_abs_rejected(self):
        with pytest.raises(DiffError):
            diff(parse("abs(x)"), "x")

    def test_unknown_variable_rejected(self):
        with pytest.raises(DiffError):
            diff(parse("x"), "y")


ROUND_TRIP_SOURCES = SMOOTH_SOURCES + [
    "-x^2",
    "x - -3.0*xi",
    "(0,1)*p",
    "(-1.5, 2.0)",
    "[[chi(eta), w/(w+(0,1))],[0, (p-(0,1))/(p+(0,1))]]",
    "x^-2 + (x+1)^3",
    "1/(2*x)",
    "x - (xi - 1)",
    "conj(exp((0,1)*x))",
    "(-0)^-1",
]


class TestRoundTrip:
    @pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
    def test_print_parse_identity(self, src):
        e = parse(src)
        assert parse(to_source(e)) == e

    @pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
    def test_diff_trees_survive_round_trip(self, src):
        e = parse(src)
        for var in sorted(variables_of(e)) or ["x"]:
            de = diff(e, var)
            assert parse(to_source(de)) == de


# Trees in the form the parser builds: negation goes through the parser's
# sign-folding `neg`, and exponents 0 and 1 fold away.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LEAVES = st.one_of(
    st.builds(lambda re, im: Const(complex(re, im)), _FINITE, st.just(0.0) | _FINITE),
    st.sampled_from(VARIABLES).map(Var),
)


def _square(children, n):
    return st.lists(st.tuples(*[children] * n), min_size=n, max_size=n).map(lambda rows: Mat(tuple(rows)))


def _branches(children):
    return st.one_of(
        children.map(neg),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Pow, children, st.sampled_from([-4, -3, -2, -1, 2, 3, 4])),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
        st.integers(1, 3).flatmap(lambda n: _square(children, n)),
    )


@given(st.recursive(_LEAVES, _branches, max_leaves=12))
def test_print_parse_identity_on_generated_trees(e):
    try:
        shape_of(e)
    except ParseError:
        assume(False)
    assert parse(to_source(e)) == e


@pytest.mark.parametrize(
    "e",
    [
        Const(complex(float("inf"))),
        Const(complex(float("-inf"))),
        Const(complex(float("nan"))),
        Const(complex(1.0, float("-inf"))),
        BinOp("*", Var("x"), Const(complex(float("inf")))),
        Mat(((Const(complex(float("nan"))),),)),
    ],
)
def test_to_source_is_total_on_non_finite_constants(e):
    # no literal parses to a non-finite value, so the printed source
    # names one ("inf", "nan") and parsing it back raises
    src = to_source(e)
    assert "inf" in src or "nan" in src
    with pytest.raises(ParseError):
        parse(src)


# Token strings over the whole lexicon: literals that overflow, underflow
# or are integral, every identifier class, every operator
_TOKENS = st.sampled_from(
    ["0", "1", "2.5", ".5", "3e2", "1e400", "1e-400", "9" * 320, *VARIABLES, *FUNCTIONS, "foo"]
    + list("+-*/^()[],")
)


@given(st.lists(_TOKENS, max_size=14), st.sampled_from(["", " "]))
def test_token_strings_round_trip_or_raise_parse_error(tokens, sep):
    try:
        e = parse(sep.join(tokens))
    except ParseError:
        return
    assert parse(to_source(e)) == e


class TestSubstitute:
    def test_freeze_variable(self):
        e = parse("chi(x*xi)")
        frozen = substitute(e, {"x": Const(2.0)})
        assert variables_of(frozen) == frozenset({"xi"})
        a = evaluate(frozen, {"xi": 0.7})
        b = evaluate(e, {"x": 2.0, "xi": 0.7})
        assert np.allclose(a, b)

    def test_composition_substitution(self):
        e = parse("x^2")
        f = parse("x + 1")
        assert np.allclose(evaluate(substitute(e, {"x": f}), {"x": 2.0}), 9.0)


# --- buffer reuse in evaluate ------------------------------------------------


# Every binding shape broadcasts with every other; complex arrays are
# handed to the evaluator as they are, so a stray write would show.
# Values come from a seeded generator: full mantissas, so a change of
# rounding shows too. Half the cases keep to one-element shapes, where
# a product written in place rounds differently.
_BINDING_SHAPES = [(), (1,), (3, 1), (1, 4), (3, 4)]


@st.composite
def _array_bindings(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = draw(st.sampled_from([_BINDING_SHAPES, _BINDING_SHAPES[:2]]))
    out = {}
    for name in VARIABLES:
        shape = draw(st.sampled_from(shapes))
        out[name] = rng.uniform(-2.0, 2.0, shape) + 1j * rng.uniform(-2.0, 2.0, shape)
    return out


_EVAL_LEAVES = st.one_of(
    st.sampled_from(VARIABLES).map(Var),
    st.floats(-3.0, 3.0).map(lambda v: Const(complex(v))),
)


@st.composite
def _eval_trees(draw):
    """Several generated terms joined by + - * /, so that most steps
    consume an intermediate the evaluator made."""
    terms = draw(st.lists(st.recursive(_EVAL_LEAVES, _branches, max_leaves=6), min_size=2, max_size=6))
    e = terms[0]
    for term in terms[1:]:
        e = BinOp(draw(st.sampled_from("+-*/")), e, term)
    return e


# a 0-d binding, drawn as a numpy scalar: x * x of two scalars rounds
# apart from the ufunc loop evaluate runs on 0-d arrays, so the
# reference must take the binding as evaluate takes it
@example(BinOp("*", Var("x"), Var("x")), {"x": np.complex128(complex(0.5478467492858172, -0.9208531449445188))})
@given(_eval_trees(), _array_bindings())
def test_evaluate_bits_equal_out_of_place_evaluation(e, bindings):
    try:
        q = shape_of(e)
    except ParseError:
        assume(False)
    before = {k: v.copy() for k, v in bindings.items()}
    with np.errstate(all="ignore"):
        try:
            want = np.asarray(out_of_place_evaluate(e, bindings), dtype=complex)
        except (np.linalg.LinAlgError, ZeroDivisionError, OverflowError) as err:
            with pytest.raises(type(err)):
                evaluate(e, bindings)
            return
    if q == 1:  # evaluate promotes a scalar result to (..., 1, 1)
        want = want[..., None, None]
    if np.all(np.isfinite(want)):
        got = evaluate(e, bindings)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        with pytest.raises(EvalError, match="non-finite"):
            evaluate(e, bindings)
    for k, v in bindings.items():
        assert np.array_equal(v, before[k], equal_nan=True), k
