"""Parser, evaluator and derivative checks for scalar expressions."""

import itertools
import math
import re
import struct

import exports_oracle
import hyperdual_oracle as oracle
import numpy as np
import pytest
from expression_strategies import TREES, W_TREES
from hypothesis import given, settings

from riemdyn import expression as ex
from riemdyn.errors import EvalDomainError, ParseError, UnboundVariableError

EVALUATE_CASES = [
    ("2^3^2", {}, 512.0),
    ("-x1^2", {"x1": 3.0}, -9.0),
    ("2*-x1", {"x1": 3.0}, -6.0),
    ("(x1+1)*x2", {"x1": 3.0, "x2": 2.0}, 8.0),
    ("x1/x2/2", {"x1": 3.0, "x2": 2.0}, 0.75),
    ("x1 - x2 - 1", {"x1": 10.0, "x2": 3.0}, 6.0),
    ("0^0", {}, 1.0),
    ("exp(log(x1))", {"x1": 2.5}, 2.5),
    ("sqrt(x1^2)", {"x1": 4.0}, 4.0),
    ("sinh(x1) - (exp(x1) - exp(-x1))/2", {"x1": 0.7}, 0.0),
]

DOMAIN_ERROR_CASES = [
    ("log(x1)", {"x1": -1.0}),
    ("sqrt(x1)", {"x1": -2.0}),
    ("1/x1", {"x1": 0.0}),
    ("0^x1", {"x1": -1.0}),
    ("(-2)^x1", {"x1": 0.5}),
]

ROUND_TRIP_SOURCES = [
    "x1^2 + 3*x2",
    "sin(x1)*cos(x2) - x1/x2",
    "exp(-x1^2/2)*sqrt(x2+3)",
    "(x1 - x2)^3/(1 + x1^2)",
    "log(x2 + 3) + tan(x1/4)",
    "cosh(x1)*sinh(x2/2)",
    "x1^x2",
    "2*-x1 + x2^-2",
]

FD_SOURCES = [
    "x1^2*x2 + sin(x1*x2)",
    "exp(x1)*cos(x2) + x1^3",
    "sqrt(x1^2 + x2^2 + 1)",
    "x1^x2",
    "log(1 + x1^2) - x2/x1",
]

# Every expression of this file, plus three that stress powers and sqrt.
ORACLE_SOURCES = sorted(
    {source for source, _, _ in EVALUATE_CASES}
    | {source for source, _ in DOMAIN_ERROR_CASES}
    | set(ROUND_TRIP_SOURCES)
    | set(FD_SOURCES)
    | {
        "-2^2",
        "sin(x1*x2)*exp(x1) + x2^3/x1",
        "x1^2*x2",
        "x1^3",
        "x1 + w",
        "x3",
        "x1*w^2",
        "x2 + x1*x10",
        "x1 + x2",
    }
    | {"x1^x2", "(x1^2)^0.5", "sqrt(x1^2+x2^2)"}
)


@pytest.mark.parametrize("source, env, expected", EVALUATE_CASES)
def test_evaluate(source, env, expected):
    value = ex.evaluate_env(ex.parse(source), env)
    assert value == pytest.approx(expected, abs=1e-15)


def test_power_binds_tighter_than_unary_minus():
    assert ex.evaluate_env(ex.parse("-2^2"), {}) == -4.0


@pytest.mark.parametrize(
    "source, offset, expected_tokens",
    [
        ("2*+x1", 2, ("'('", "'-'", "number", "variable or function name")),
        ("", 0, ("'('", "'-'", "number", "variable or function name")),
        ("foo(x1)", 0, ("cos", "cosh", "exp", "log", "sin", "sinh", "sqrt", "tan")),
        ("(x1", 3, ("')'",)),
        ("1..2", 2, ("'*'", "'+'", "'-'", "'/'", "'^'", "end of input")),
        ("x1 + 1e400", 5, ("finite number",)),
        # A refused variable is found as a token, not inside a function or a longer name.
        ("exp(e)", 4, ("x<k>",)),
        ("sin(x1)+sin(s)", 12, ("x<k>",)),
        ("x1*ww+w", 6, ("x<k>",)),
        ("x3x + x3", 6, ("x1", "x2")),
    ],
)
def test_parse_error_offsets(source, offset, expected_tokens):
    """Each bad source through coordinate_expr over two coordinates: parse's errors come first."""
    with pytest.raises(ParseError) as info:
        ex.coordinate_expr(source, 2)
    assert info.value.offset == offset
    assert info.value.expected == expected_tokens


@pytest.mark.parametrize("source, env", DOMAIN_ERROR_CASES)
def test_eval_domain_errors(source, env):
    with pytest.raises(EvalDomainError):
        ex.evaluate_env(ex.parse(source), env)


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_unparse_round_trip(source):
    """unparse output must reparse to the same values everywhere."""
    expr = ex.parse(source)
    again = ex.parse(exports_oracle.unparse(expr))
    rng = np.random.default_rng(42)
    for _ in range(25):
        env = {"x1": rng.uniform(0.2, 2.0), "x2": rng.uniform(0.2, 2.0)}
        assert ex.evaluate_env(again, env) == ex.evaluate_env(expr, env)


@pytest.mark.parametrize("source", FD_SOURCES)
def test_partials_match_finite_differences(source):
    expr = ex.parse(source)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(0.3, 1.8, 2)
        first = ex._central_differences(lambda y: ex.evaluate(expr, y), x)
        second = ex._second_differences(lambda y: ex.evaluate(expr, y), x)
        for exact, fd in zip(ex.gradient(expr, x), first, strict=True):
            assert abs(exact - fd) < 1e-6 * max(1.0, abs(exact))
        for q in range(2):
            for r in range(2):
                exact = exports_oracle.second_partial(expr, x, q, r)
                assert abs(exact - second[q, r]) < 2e-4 * max(1.0, abs(exact))


def test_second_partials_symmetric():
    expr = ex.parse("sin(x1*x2)*exp(x1) + x2^3/x1")
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(0.4, 1.6, 2)
        ab = exports_oracle.second_partial(expr, x, 0, 1)
        ba = exports_oracle.second_partial(expr, x, 1, 0)
        assert ab == pytest.approx(ba, rel=1e-13)


def test_known_derivatives():
    expr = ex.parse("x1^2*x2")
    x = np.array([3.0, 2.0])
    assert ex.gradient(expr, x) == [12.0, 9.0]
    assert exports_oracle.second_partial(expr, x, 0, 0) == 4.0
    assert exports_oracle.second_partial(expr, x, 0, 1) == 6.0


def test_power_derivative_at_zero_base():
    # d/dx (x^3) at x = 0 exists and is 0; the hyper-dual path must not
    # divide by the base.
    expr = ex.parse("x1^3")
    assert ex.gradient(expr, np.array([0.0])) == [0.0]
    assert exports_oracle.second_partial(expr, np.array([0.0]), 0, 0) == 0.0


def test_coordinate_expr_rejects_foreign_variables():
    with pytest.raises(Exception):
        ex.coordinate_expr("x1 + w", dim=2)
    with pytest.raises(Exception):
        ex.coordinate_expr("x3", dim=2)


@pytest.mark.parametrize(
    "source, offset",
    [("exp(e)", 4), ("sin(x1)+sin(s)", 12), ("x1*ww+w", 3), ("x3x + x3", 6), ("sin(sin)", 4)],
)
def test_profile_expr_error_offsets(source, offset):
    with pytest.raises(ParseError) as info:
        ex.profile_expr(source, 2)
    assert info.value.offset == offset


def test_profile_expr_allows_fiber_variable():
    expr = ex.profile_expr("x1*w^2")
    assert ex.evaluate_env(expr, {"x1": 2.0, "w": 3.0}) == 18.0


def test_variables_collected_sorted():
    expr = ex.parse("x2 + x1*x10")
    assert expr.variables == ("x1", "x10", "x2")


# ---------------------------------------------------------------------------
# The compiled route against the tree-walking oracle

_EPS = math.ulp(1.0)
_EDGE_VALUES = (-2.0, -1.0, -0.5, 0.0, 0.5, 2.0)
_RANDOM_BOXES = ((0.2, 2.0), (0.3, 1.8), (0.4, 1.6))
_UNRELATED = "y"  # a seed no expression contains
_DOMAIN_CLASSES = (EvalDomainError, UnboundVariableError)


def _routes(expr):
    """(label, compiled route, oracle route, seeds) for the value and every partial."""
    seeds = expr.variables + (_UNRELATED,)
    yield "value", ex.evaluate_env, oracle.evaluate_env, ()
    for s in seeds:
        yield f"d/d{s}", exports_oracle.partial_env, oracle.partial_env, (s,)
    for s, t in itertools.product(seeds, seeds):
        yield f"d2/d{s}d{t}", exports_oracle.second_partial_env, oracle.second_partial_env, (s, t)


def _check_against_oracle(expr, env, skip_other_errors=False):
    for label, compiled, reference, seeds in _routes(expr):
        try:
            ref = reference(expr, env, *seeds)
        except _DOMAIN_CLASSES as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                compiled(expr, env, *seeds)
            continue
        except (ArithmeticError, ValueError):
            if skip_other_errors:
                continue
            raise
        got = compiled(expr, env, *seeds)
        where = f"{label} of {expr.source!r} at {env}"
        if math.isnan(ref):
            assert math.isnan(got), where
        elif not seeds:
            assert got == ref, (where, got, ref)  # plain values match bit for bit
        else:  # equal infinities agree, though their difference is NaN
            assert got == ref or abs(got - ref) <= 4.0 * _EPS * max(1.0, abs(ref)), (where, got, ref)


def test_underflowing_squares_are_domain_errors():
    # The derivative of a quotient and the curvature of log divide by a square
    # that underflows to zero here. Both routes refuse it, and the derivatives
    # that need no square still run.
    quotient = ex.parse("x1/(x2*1e-200)")
    env = {"x1": 1.0, "x2": 0.4}
    log = ex.parse("log(x1)")
    tiny = {"x1": 1e-170}
    for route in (exports_oracle, oracle):
        with pytest.raises(EvalDomainError, match="underflows to zero"):
            route.partial_env(quotient, env, "x2")
        with pytest.raises(EvalDomainError, match="underflows to zero"):
            route.second_partial_env(quotient, env, "x2", "x2")
        with pytest.raises(EvalDomainError, match="underflows to zero"):
            route.second_partial_env(log, tiny, "x1", "x1")
        assert route.partial_env(quotient, env, "x1") == pytest.approx(2.5e200, rel=1e-15)
        assert route.partial_env(log, tiny, "x1") == pytest.approx(1e170, rel=1e-15)
    _check_against_oracle(quotient, env)
    _check_against_oracle(log, tiny)


def test_sqrt_curvature_at_a_tiny_argument_is_a_domain_error():
    # sqrt(a) * a underflows to zero for a below about 1e-216; the slope does not.
    expr = ex.parse("sqrt(x1)")
    tiny = {"x1": 1e-220}
    for route in (exports_oracle, oracle):
        with pytest.raises(EvalDomainError, match="underflows to zero"):
            route.second_partial_env(expr, tiny, "x1", "x1")
        assert route.partial_env(expr, tiny, "x1") == pytest.approx(5e109, rel=1e-15)
    with pytest.raises(EvalDomainError, match="underflows to zero"):
        exports_oracle.partial_and_second_env(expr, tiny, "x1")
    _check_against_oracle(expr, tiny)


def _oracle_points(names):
    for values in itertools.product(_EDGE_VALUES, repeat=len(names)):
        yield dict(zip(names, values))
    rng = np.random.default_rng(11)
    for lo, hi in _RANDOM_BOXES:
        for _ in range(20):
            yield dict(zip(names, rng.uniform(lo, hi, len(names))))


@pytest.mark.parametrize("source", ORACLE_SOURCES)
def test_compiled_matches_hyperdual_oracle(source):
    expr = ex.parse(source)
    for env in _oracle_points(expr.variables):
        _check_against_oracle(expr, env)
        for missing in expr.variables:
            unbound = {k: v for k, v in env.items() if k != missing}
            _check_against_oracle(expr, unbound)


def test_plain_value_division_is_correctly_rounded():
    assert ex.evaluate(ex.parse("x1/10"), [3.0]) == 3.0 / 10.0
    assert ex.evaluate(ex.parse("x1/x2"), [1e-300, 1e-310]) == 1e-300 / 1e-310


# (template, {variable: replacement}) pairs, the catalog profiles among them.
SUBSTITUTE_CASES = [
    ("w^2/2 + w^4/10", {"w": "exp(-x1/4)*w"}),
    ("exp(-2*f)*w^2/2", {"f": "x1/3 + x2/5"}),
    ("w*exp(-f)", {"f": "sin(x1)*x2"}),
    ("w^2/2 - U", {"U": "sin(x1) + x2^2/2"}),
    ("x1/x2 - sqrt(x2)", {"x2": "x1^2 + 1"}),
    ("-x1^x2", {"x1": "x2 + 1", "x2": "-x1"}),
]


def _substituted(template, parts):
    return ex.substitute(ex.parse(template), {k: ex.parse(v) for k, v in parts.items()})


@pytest.mark.parametrize("template, parts", SUBSTITUTE_CASES)
def test_substitute_matches_hyperdual_oracle(template, parts):
    composed = _substituted(template, parts)
    for env in _oracle_points(composed.variables):
        _check_against_oracle(composed, env)


@pytest.mark.parametrize("template, parts", SUBSTITUTE_CASES)
def test_substitute_source_reparses_to_the_same_tree(template, parts):
    composed = _substituted(template, parts)
    assert composed.source == exports_oracle.unparse(composed)
    assert ex.parse(composed.source).root == composed.root


def test_substitute_replaces_every_variable_at_once():
    # x1 and x2 swap roles in one pass; the inserted trees are not rewritten again.
    assert _substituted("-x1^x2", {"x1": "x2 + 1", "x2": "-x1"}).root == ex.parse("-(x2+1)^-x1").root
    assert _substituted("w^2/2", {"w": "C*w"}).root == ex.parse("(C*w)^2/2").root


def test_substitute_leaves_other_variables_alone():
    expr = ex.parse("x1 + w*x2")
    composed = ex.substitute(expr, {"x1": ex.parse("x3^2")})
    assert composed.variables == ("w", "x2", "x3")
    env = {"w": 0.7, "x2": -1.3, "x3": 1.9}
    assert ex.evaluate_env(composed, env) == 1.9**2 + 0.7 * -1.3
    assert exports_oracle.partial_env(composed, env, "x2") == 0.7
    assert ex.substitute(expr, {}).root == expr.root
    assert ex.substitute(expr, {"y": ex.parse("x1")}).root == expr.root


def _nodes(node):
    yield node
    for child in (getattr(node, "operand", None), getattr(node, "arg", None),
                  getattr(node, "left", None), getattr(node, "right", None)):
        if child is not None:
            yield from _nodes(child)


_PROPERTY_POINTS = ({"x1": 0.7, "x2": 1.3}, {"x1": -1.5, "x2": 0.4}, {"x1": 0.0, "x2": 2.0})


@settings(max_examples=150, derandomize=True, deadline=None)
@given(TREES)
def test_round_trip_keeps_compiled_derivatives(root):
    seen = set()
    ex._collect_variables(root, seen)
    expr = ex.ScalarExpr(root=root, source=ex._unparse(root), variables=tuple(sorted(seen)))
    again = ex.parse(exports_oracle.unparse(expr))
    for env in _PROPERTY_POINTS:
        try:
            finite = all(math.isfinite(oracle._eval(n, env)) for n in _nodes(root))
        except _DOMAIN_CLASSES:
            finite = True  # both routes must raise; checked below
        except (ArithmeticError, ValueError):
            finite = False
        if not finite:
            continue  # hyper-dual zero components turn into NaN past infinities
        for label, compiled, _, seeds in _routes(expr):
            try:
                want = compiled(expr, env, *seeds)
            except _DOMAIN_CLASSES as exc:
                with pytest.raises(type(exc)):
                    compiled(again, env, *seeds)
                continue
            got = compiled(again, env, *seeds)
            assert got == want or (math.isnan(got) and math.isnan(want)), label
        _check_against_oracle(expr, env, skip_other_errors=True)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(TREES, TREES)
def test_substitute_reparses_for_random_trees(outer, inner):
    expr, part = (ex._expr(root, ex._unparse(root)) for root in (outer, inner))
    composed = ex.substitute(expr, {"x1": part})
    assert ex.parse(composed.source).root == composed.root


def _outcome(fn, *args):
    """("value", result), or ("raised", error type, message)."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # noqa: BLE001 - every error must be reproduced
        return ("raised", type(exc), str(exc))


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(W_TREES)
def test_partial_and_second_equal_the_separate_calls_bit_for_bit(root):
    expr = ex._expr(root, ex._unparse(root))
    for w in (0.7, -1.5, 0.0, 2.5):
        env = {"w": w}
        first = _outcome(exports_oracle.partial_env, expr, env, "w")
        second = _outcome(exports_oracle.second_partial_env, expr, env, "w", "w")
        both = _outcome(exports_oracle.partial_and_second_env, expr, env, "w")
        if first[0] == "raised":
            assert both == first  # the first partial's error comes first
        elif second[0] == "raised":
            assert both == second
        else:
            assert both[0] == "value", both
            assert _bits(both[1][0]) == _bits(first[1]), (expr.source, w)
            assert _bits(both[1][1]) == _bits(second[1]), (expr.source, w)


def test_partial_and_second_keep_the_first_partial_where_the_exponent_is_stationary():
    # At w = 0 the exponent 3 + w*w has a zero slope and a non-zero curvature,
    # so the (w, w) pair takes the variable-exponent rule and the w pair the
    # constant one; they round differently.
    expr = ex.parse("(2.5 + w)^(3 + w*w)")
    env = {"w": 0.0}
    assert exports_oracle.partial_and_second_env(expr, env, "w") == (
        exports_oracle.partial_env(expr, env, "w"),
        exports_oracle.second_partial_env(expr, env, "w", "w"),
    )


# ---------------------------------------------------------------------------
# Constant exponents resolved while compiling

_CONST_EXPONENTS = (0.0, 1.0, 2.0, 3.0, 4.0, 10.0, 400.0, 0.5, 1.5, -1.0, -2.0, -0.5, 1e-300)
_POWER_BASES = (
    0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 1.0, -1.0, -3.0, 1e200, -1e200, math.inf, -math.inf,
    math.nan,
)


def _power_rules(a, r):
    """(d/dw, d2/dw2) of w^r at w = a from the run-time helpers, in the compiled code's order."""
    d1 = _first_power_rule(a, r)
    d2 = ex._pow_deriv_coeff(a, r, 2)
    return d1, d2 * 1.0 * 1.0


def _first_power_rule(a, r):
    """d/dw of w^r at w = a from the run-time helpers; the curvature is not formed."""
    ex._pow_val(a, r)
    return ex._pow_deriv_coeff(a, r, 1) * 1.0


def _bit_outcome(fn, *args):
    """_outcome with each float as its bytes, so NaNs and signed zeros compare exactly."""
    got = _outcome(fn, *args)
    if got[0] == "raised":
        return got
    value = got[1]
    return ("value", tuple(map(_bits, value)) if isinstance(value, tuple) else _bits(value))


@pytest.mark.parametrize("r", _CONST_EXPONENTS)
def test_constant_powers_match_the_runtime_helpers_bit_for_bit(r):
    # w^-2 parses with a unary minus on the constant; the Num tree holds -2 itself.
    trees = (ex.parse(f"w^{r!r}"), ex._expr(ex.Binary("^", ex.Var("w"), ex.Num(r)), "w^r"))
    for expr, a in itertools.product(trees, _POWER_BASES):
        env = {"w": a}
        where = (expr.source, a)
        assert _bit_outcome(ex.evaluate_env, expr, env) == _bit_outcome(ex._pow_val, a, r), where
        # The second partial runs all three helpers; the first leaves out d2.
        both = _bit_outcome(_power_rules, a, r)
        second = both if both[0] == "raised" else ("value", both[1][1])
        assert _bit_outcome(exports_oracle.partial_env, expr, env, "w") == _bit_outcome(
            _first_power_rule, a, r
        ), where
        assert _bit_outcome(exports_oracle.second_partial_env, expr, env, "w", "w") == second, where
        assert _bit_outcome(exports_oracle.partial_and_second_env, expr, env, "w") == both, where


@pytest.mark.parametrize("source", ["w^1.5", "w^1.25", "w^x1"])
def test_a_first_partial_leaves_out_a_power_curvature_that_is_singular_at_zero(source):
    # d/dw w^r = r w^(r - 1) is 0 at w = 0 for 1 < r < 2; only r (r - 1) w^(r - 2) is singular.
    expr = ex.parse(source)
    env = {"w": 0.0, "x1": 1.5}
    assert _bits(exports_oracle.partial_env(expr, env, "w")) == _bits(0.0)
    with pytest.raises(EvalDomainError, match="is singular at zero"):
        exports_oracle.second_partial_env(expr, env, "w", "w")


@pytest.mark.parametrize("a, value, slope", [(1e3, math.inf, math.inf), (-1e3, -math.inf, math.inf)])
def test_sinh_and_its_slope_overflow_to_infinities_of_their_sign(a, value, slope):
    """sinh is odd and cosh even, in values and in the slopes each gives the
    other; an overflow in a slope is an infinity too, not an OverflowError."""
    env = {"x1": a}
    for source, want, want_slope in (("sinh(x1)", value, slope), ("cosh(x1)", math.inf, value)):
        expr = ex.parse(source)
        assert ex.evaluate_env(expr, env) == want
        assert exports_oracle.partial_env(expr, env, "x1") == want_slope
        assert oracle.partial_env(expr, env, "x1") == want_slope
        assert oracle.evaluate_env(expr, env) == want


def test_constant_powers_compile_without_the_runtime_helpers():
    expr = ex.parse("w^2/2 + w^4/10")
    env = {"w": 0.7}
    ex.evaluate_env(expr, env)
    exports_oracle.partial_env(expr, env, "w")
    exports_oracle.second_partial_env(expr, env, "w", "w")
    exports_oracle.partial_and_second_env(expr, env, "w")
    assert len(expr._code) == 4
    for fn in expr._code.values():
        assert not {"_pow_val", "_pow_deriv_coeff"} & set(fn.__code__.co_names)
    # An exponent known only at run time keeps them.
    variable = ex.parse("w^x1")
    ex.evaluate_env(variable, {"w": 0.7, "x1": 2.0})
    (fn,) = variable._code.values()
    assert "_pow_val" in fn.__code__.co_names


def _unread_locals(source):
    """The locals that generated source assigns and never reads."""
    written, read = set(), set()
    for line in source.splitlines():
        target = re.match(r"\s*(?:try: |except OverflowError: )?(t\d+) = ", line)
        if target:
            written.add(target.group(1))
            line = line[target.end() :]
        read.update(re.findall(r"\bt\d+\b", line))
    return written - read


def test_the_phi_inversion_code_keeps_no_unread_local():
    """The (w), (w, w) pair code of w^2/2 + w^4/10 computed w^4, with a pow call,
    and three sums toward phi's value, which it never returns."""
    source, _ = ex._source(ex.parse("w^2/2 + w^4/10"), (("w",), ("w", "w")))
    assert _unread_locals(source) == set()
    assert source.count("_pow(") == 3


@pytest.mark.parametrize(
    "source",
    ["w^2/2 + w^4/10", "sqrt(x1)*x2 + x1^1.5", "log(x1)/x2 - x2^-2", "(2.5 + w)^(3 + w*w)", "exp(-x1/4)"],
)
def test_dropping_unread_locals_keeps_every_run_time_test_in_order(source):
    expr = ex.parse(source)
    pairs = ((), *((name,) for name in expr.variables), tuple(expr.variables[:1] * 2))
    emitter = ex._Emitter(expr.variables)
    results = [emitter.result(expr.root, *pair) for pair in pairs]
    kept = ex._read_lines(emitter.lines, results, emitter.namespace)

    def tests(lines):
        return [line for line in lines if re.match(r"\s*(if |else:|try: t\d+ = _pow_val)", line)]

    assert tests(kept) == tests(emitter.lines)
    # An unconditional local still unread is one whose right-hand side may
    # raise, such as a run-time division; a branch's locals all stay.
    unread = _unread_locals("\n".join(kept + [f"    return {', '.join(results)}"]))
    for line in kept:
        target = re.fullmatch(r"    (t\d+) = (.+)", line)
        if target and target.group(1) in unread:
            assert not ex._cannot_raise(target.group(2), emitter.namespace), line
