"""Scalar expression language for chart data.

Expressions are real-valued formulas over named variables. Coordinate
formulas use x1, x2, ... while fiber profiles add the fiber variable "w".
The grammar supports +, -, *, /, ^ (right associative, real exponents),
unary minus, parentheses, decimal and scientific literals, and the
functions sin, cos, tan, exp, log, sqrt, cosh, sinh. Precedence from
tightest to loosest: ^, unary -, * /, + -. substitute composes
expressions by replacing variables with trees; evaluate_fiber and
gradient also bind the fiber variable.

Values and exact first and mixed second partials are compiled once per
expression and seed pair, on first use, into straight-line Python code:
the forward-mode hyper-dual arithmetic unrolled over the tree by source
transformation, with components that are always zero dropped, constant
exponents resolved while compiling, unread arithmetic left out, and every
domain check kept.
One function may return several seed pairs at once, as the phi' and
phi'' pair that the fiberwise Hamiltonian's phi' inversion reads from one
call. The hyper-dual tree walker these functions replace lives on in
tests/ as the oracle they are compared against.

_central_differences and _second_differences are the package's one
first- and one second-difference stencil, and the step rule lives beside
them: h = eps^(1/3) max(1, |y|) for first and eps^(1/4) max(1, |y|) for
second differences (Nocedal & Wright, Numerical Optimization, 2nd ed.,
section 8.1). Every finite-difference derivative in manifold and
extended_fields goes through them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import EvalDomainError, FDStepError, ParseError, UnboundVariableError

__all__ = [
    "ScalarExpr",
    "parse",
    "coordinate_expr",
    "profile_expr",
    "substitute",
    "evaluate",
    "evaluate_fiber",
    "evaluate_env",
    "gradient",
    "FUNCTION_NAMES",
]

FUNCTION_NAMES = ("cos", "cosh", "exp", "log", "sin", "sinh", "sqrt", "tan")

_EPS = math.ulp(1.0)
_FD_STEP_SCALE = _EPS ** (1.0 / 3.0)
_FD2_STEP_SCALE = _EPS ** 0.25


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Num | Var | Unary | Binary | Call


@dataclass(frozen=True)
class ScalarExpr:
    """A parsed expression together with its source and variable set."""

    root: Node
    source: str
    variables: tuple[str, ...]
    # Position in a coordinate array of each variable: -1 for the fiber
    # variable "w", -2 for any other non-coordinate.
    _slots: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # Compiled functions by their tuple of seed pairs, built on first use
    # (see _code).
    _code: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        slots = []
        for name in self.variables:
            m = re.fullmatch(r"x([1-9]\d*)", name)
            slots.append(int(m.group(1)) - 1 if m else -1 if name == "w" else -2)
        object.__setattr__(self, "_slots", tuple(slots))


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    start: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {source[pos]!r} at offset {pos}",
                offset=pos,
                expected=("number", "name", "operator", "'('", "')'"),
            )
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append(_Token(m.lastgroup, m.group(), m.start()))
    tokens.append(_Token("end", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_ATOM_EXPECTED = ("number", "variable or function name", "'('", "'-'")


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, expected: tuple[str, ...]) -> ParseError:
        tok = self.peek()
        shown = tok.text if tok.kind != "end" else "end of input"
        return ParseError(
            f"{message}, got {shown!r} at offset {tok.start}",
            offset=tok.start,
            expected=expected,
        )

    def parse(self) -> Node:
        node = self.expr()
        if self.peek().kind != "end":
            raise self.fail(
                "trailing input after expression",
                expected=("'+'", "'-'", "'*'", "'/'", "'^'", "end of input"),
            )
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> Node:
        if self.peek().text == "-":
            self.advance()
            return Unary(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek().text == "^":
            self.advance()
            # Right associative; the exponent may carry its own unary minus.
            return Binary("^", base, self.factor())
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            value = float(tok.text)
            if math.isinf(value):
                raise ParseError(
                    f"number {tok.text!r} at offset {tok.start} is not finite",
                    offset=tok.start,
                    expected=("finite number",),
                )
            self.advance()
            return Num(value)
        if tok.kind == "ident":
            self.advance()
            if self.peek().text == "(":
                if tok.text not in FUNCTION_NAMES:
                    raise ParseError(
                        f"unknown function {tok.text!r} at offset {tok.start}",
                        offset=tok.start,
                        expected=FUNCTION_NAMES,
                    )
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Call(tok.text, arg)
            return Var(tok.text)
        if tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise self.fail("expected a value", expected=_ATOM_EXPECTED)

    def expect(self, text: str) -> None:
        if self.peek().text != text:
            raise self.fail(f"expected {text!r}", expected=(f"'{text}'",))
        self.advance()


def _collect_variables(node: Node, seen: set[str]) -> None:
    if isinstance(node, Var):
        seen.add(node.name)
    elif isinstance(node, Unary):
        _collect_variables(node.operand, seen)
    elif isinstance(node, Binary):
        _collect_variables(node.left, seen)
        _collect_variables(node.right, seen)
    elif isinstance(node, Call):
        _collect_variables(node.arg, seen)


def parse(source: str) -> ScalarExpr:
    """Parse source text into a ScalarExpr.

    Raises ParseError with the byte offset of the first bad token and
    the set of tokens that would have been legal there.
    """
    return _expr(_Parser(source).parse(), source)


def _expr(root: Node, source: str) -> ScalarExpr:
    seen: set[str] = set()
    _collect_variables(root, seen)
    return ScalarExpr(root=root, source=source, variables=tuple(sorted(seen)))


def _variable_offset(source: str, name: str) -> int:
    """Offset of the first token of source that is the variable name, not a longer name or a function."""
    tokens = _tokenize(source)
    return next(
        tok.start
        for tok, after in zip(tokens, tokens[1:])
        if tok.kind == "ident" and tok.text == name and after.text != "("
    )


def coordinate_expr(source: str | ScalarExpr, dim: int | None = None) -> ScalarExpr:
    """Parse an expression restricted to coordinate variables x1..xn; a ScalarExpr passes unchecked."""
    if isinstance(source, ScalarExpr):
        return source
    expr = parse(source)
    for name in expr.variables:
        m = re.fullmatch(r"x([1-9]\d*)", name)
        if m is None:
            raise ParseError(
                f"variable {name!r} is not a coordinate (expected x1, x2, ...)",
                offset=_variable_offset(expr.source, name),
                expected=("x<k>",),
            )
        if dim is not None and int(m.group(1)) > dim:
            raise ParseError(
                f"variable {name!r} exceeds chart dimension {dim}",
                offset=_variable_offset(expr.source, name),
                expected=tuple(f"x{k}" for k in range(1, dim + 1)),
            )
    return expr


def profile_expr(source: str | ScalarExpr, dim: int | None = None) -> ScalarExpr:
    """Parse an expression over x1..xn plus the fiber variable w; a ScalarExpr passes unchecked."""
    if isinstance(source, ScalarExpr):
        return source
    expr = parse(source)
    for name in expr.variables:
        if name == "w":
            continue
        m = re.fullmatch(r"x([1-9]\d*)", name)
        if m is None or (dim is not None and int(m.group(1)) > dim):
            raise ParseError(
                f"variable {name!r} not allowed here (expected 'w' or x1..x{dim or 'n'})",
                offset=_variable_offset(expr.source, name),
                expected=("w", "x<k>"),
            )
    return expr


# ---------------------------------------------------------------------------
# Unparser

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node: Node) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary):
        return _PREC["neg"]
    return 5


def _unparse(node: Node) -> str:
    if isinstance(node, Num):
        text = repr(node.value)
        return text[:-2] if text.endswith(".0") else text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_unparse(node.arg)})"
    if isinstance(node, Unary):
        inner = _unparse(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Binary):
        lp, rp = _prec(node.left), _prec(node.right)
        left = _unparse(node.left)
        right = _unparse(node.right)
        if node.op == "^":
            # The grammar only allows an atom on the left of ^.
            if lp < 5:
                left = f"({left})"
            if rp < _PREC["neg"]:
                right = f"({right})"
        else:
            if lp < _PREC[node.op]:
                left = f"({left})"
            if rp <= _PREC[node.op]:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


def _substitute(node: Node, roots: Mapping[str, Node]) -> Node:
    if isinstance(node, Var):
        return roots.get(node.name, node)
    if isinstance(node, Unary):
        return Unary(_substitute(node.operand, roots))
    if isinstance(node, Binary):
        return Binary(node.op, _substitute(node.left, roots), _substitute(node.right, roots))
    if isinstance(node, Call):
        return Call(node.func, _substitute(node.arg, roots))
    return node


def substitute(expr: ScalarExpr, mapping: Mapping[str, ScalarExpr]) -> ScalarExpr:
    """expr with each variable named in mapping replaced by that expression's tree.

    Variables not in mapping are kept. The result's source is the unparsed
    composed tree, so it reparses to the same tree.
    """
    root = _substitute(expr.root, {name: sub.root for name, sub in mapping.items()})
    return _expr(root, _unparse(root))


# ---------------------------------------------------------------------------
# Scalar rules shared by the compiled code


_ZERO_TO_NEGATIVE = "zero raised to a negative power"


def _negative_base_error(base: float, exponent: float) -> EvalDomainError:
    return EvalDomainError(f"negative base {base!r} with non-integer exponent {exponent!r}")


def _singular_at_zero_error(r: float) -> EvalDomainError:
    return EvalDomainError(f"derivative of x^{r} is singular at zero")


def _pow_val(base: float, exponent: float) -> float:
    if base == 0.0 and exponent == 0.0:
        return 1.0
    if base == 0.0 and exponent < 0.0:
        raise EvalDomainError(_ZERO_TO_NEGATIVE)
    if base < 0.0 and exponent != round(exponent):
        raise _negative_base_error(base, exponent)
    try:
        return math.pow(base, exponent)
    except OverflowError:
        return math.inf


def _pow_deriv_coeff(a: float, r: float, order: int) -> float:
    """d^order/da^order of a^r for order 1 or 2, as coeff * a^(r - order), handled at a = 0."""
    coeff = r if order == 1 else r * (r - 1.0)
    if coeff == 0.0:
        return 0.0
    if a == 0.0:
        power = r - order
        if power > 0.0:
            return 0.0
        if power == 0.0:
            return coeff
        raise _singular_at_zero_error(r)
    return coeff * _pow_val(a, r - order)


def _overflow_to_inf(fn):
    """fn with an OverflowError turned into an infinity of fn's sign: a's for sinh, + for exp and cosh."""

    def value(a: float) -> float:
        try:
            return fn(a)
        except OverflowError:
            return math.copysign(math.inf, a) if fn is math.sinh else math.inf

    return value


def _log_val(a: float) -> float:
    if a <= 0.0:
        raise EvalDomainError(f"log of non-positive value {a!r}")
    return math.log(a)


def _sqrt_val(a: float) -> float:
    if a < 0.0:
        raise EvalDomainError(f"sqrt of negative value {a!r}")
    return math.sqrt(a)


def _nonzero_product(a: float, b: float) -> float:
    """a * b for a derivative to divide by, refused when it underflows to zero."""
    product = a * b
    if product == 0.0:
        raise EvalDomainError(f"product of {a!r} and {b!r} underflows to zero in a derivative")
    return product


def _pow_base_error(base: float) -> EvalDomainError:
    return EvalDomainError(f"variable exponent requires a positive base, got {base!r}")


# ---------------------------------------------------------------------------
# Compilation to straight-line derivative code
#
# For each seed pair (s, t) the hyper-dual arithmetic (f, df/ds, df/dt,
# d2f/dsdt) is unrolled over the tree, in the tree walker's evaluation
# order, into one flat Python function (source transformation, Griewank &
# Walther, "Evaluating Derivatives", SIAM 2008, ch. 6). A component that is
# zero for every input is dropped while compiling; one that is zero only at
# some inputs keeps the run-time tests the hyper-dual rules make on it
# (sqrt at zero, an exponent whose derivative may vanish). So every domain
# check runs at the same point of the evaluation, and a partial with respect
# to a variable the expression lacks still runs the value's checks.
#
# A numeric constant exponent, with its unary minus folded in, is resolved
# while compiling: the tests of _pow_val and _pow_deriv_coeff on the
# exponent, and the coefficients r and r(r - 1), are decided here, and only
# the tests on the base and the math.pow calls are written (d/dw of w^4 is
# 0.0 if w == 0.0 else 4.0 * math.pow(w, 3.0); d2/dw2 of w^2 is 2.0). Any
# other exponent is known only at run time and calls the two helpers.
#
# One function can also hold the code of several seed pairs, written one
# after the other, and return a tuple with one result per pair. Each result
# is then exactly what its pair's own function returns: the pairs' run-time
# tests differ (the (w, w) pair tests d2f/dw2 as well as df/dw), so df/dw is
# not read off the (w, w) pair's first component.
#
# A component is None (zero), the seed literal "1.0", or the name of a
# local: vK for the K-th variable, cK for the K-th numeric constant, tK for
# a temporary. Generated source holds no user text: variables are bound by
# position and constants come from a table.
#
# Every local is assigned once and every runtime function is pure, so an
# unconditional line whose right-hand side was already written reuses the
# earlier local instead (common subexpressions, across the seed pairs of
# one function too), a run-time test already written unconditionally is
# not written again, and a test on the seed literal or on a non-zero
# constant divisor is decided while compiling. Last, _read_lines drops each
# unconditional assignment that nothing reads and that cannot raise, float
# arithmetic with no run-time divisor or a guarded math.pow call: the
# derivative pairs of w^2/2 + w^4/10 no longer compute w^4 and the sums
# toward the value they never return. None of these changes a result or
# the order of the checks.

_SEED = "1.0"
_DERIV_AT_ZERO = "derivative of sqrt at zero"

# Value of each function, and its first and second derivatives as source
# templates over the argument {a}, the value {f} and the first derivative
# {d1}. They repeat the hyper-dual chain rules term for term.
_CALLS = {
    "sin": ("_sin", "_cos({a})", "-{f}"),
    "cos": ("_cos", "-_sin({a})", "-{f}"),
    "tan": ("_tan", "1.0 + {f} * {f}", "2.0 * {f} * {d1}"),
    "exp": ("_exp_val", "{f}", "{f}"),
    "log": ("_log_val", "1.0 / {a}", "-1.0 / _nonzero_product({a}, {a})"),
    "sqrt": ("_sqrt_val", "0.5 / {f}", "-0.25 / _nonzero_product({f}, {a})"),
    "cosh": ("_cosh_val", "_sinh_val({a})", "{f}"),
    "sinh": ("_sinh_val", "_cosh_val({a})", "{f}"),
}

_RUNTIME = {
    "_sin": math.sin,
    "_cos": math.cos,
    "_tan": math.tan,
    "_exp_val": _overflow_to_inf(math.exp),
    "_cosh_val": _overflow_to_inf(math.cosh),
    "_sinh_val": _overflow_to_inf(math.sinh),
    "_log_val": _log_val,
    "_sqrt_val": _sqrt_val,
    "_pow_val": _pow_val,
    "_pow_deriv_coeff": _pow_deriv_coeff,
    "_pow": math.pow,
    "_inf": math.inf,
    "_negative_base_error": _negative_base_error,
    "_singular_at_zero_error": _singular_at_zero_error,
    "_nonzero_product": _nonzero_product,
    "_pow_base_error": _pow_base_error,
    "_domain": EvalDomainError,
}


class _Emitter:
    """Writes the straight-line code of one or more (seed1, seed2) pairs."""

    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables
        self.seeds: tuple[str | None, str | None] = (None, None)
        self.namespace = dict(_RUNTIME)
        self.namespace["_unbound"] = lambda k: UnboundVariableError(
            f"variable {variables[k]!r} is not bound"
        )
        self.lines: list[str] = []
        self.depth = 1
        self.bound: set[int] = set()
        self.count = 0
        # The local of each right-hand side written unconditionally, and of each constant.
        self.written: dict[str, str] = {}
        self.consts: dict[str, str] = {}
        # Each run-time test written unconditionally.
        self.tested: set[str] = set()

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def check(self, test: str, error: str) -> None:
        """if test: raise error, left out after the same unconditional test: it passed there."""
        text = f"if {test}: raise {error}"
        if text not in self.tested:
            self.line(text)
            if self.depth == 1:
                self.tested.add(text)

    def fresh(self) -> str:
        self.count += 1
        return f"t{self.count}"

    def tmp(self, rhs: str) -> str:
        """A local holding rhs: a new one, or the one already holding it unconditionally."""
        name = self.written.get(rhs)
        if name is None:
            name = self.fresh()
            self.line(f"{name} = {rhs}")
            if self.depth == 1:
                self.written[rhs] = name
        return name

    def constant(self, c) -> float | None:
        """The value of the component c if it is a numeric constant, else None."""
        return self.namespace[c] if c is not None and c.startswith("c") else None

    def const(self, value: float) -> str:
        key = value.hex()
        name = self.consts.get(key)
        if name is None:
            name = self.consts[key] = f"c{self.count}"
            self.count += 1
            self.namespace[name] = value
        return name

    # -- component arithmetic --------------------------------------------

    def neg(self, c):
        return None if c is None else self.tmp(f"-{c}")

    def prod(self, *factors):
        """Product text, or None if any factor is zero."""
        if any(f is None for f in factors):
            return None
        return " * ".join(factors)

    def total(self, *terms):
        """Left-to-right sum of the non-zero terms in a local, None if all are zero."""
        kept = [t for t in terms if t is not None]
        return self.tmp(" + ".join(kept)) if kept else None

    def sub(self, x, y):
        if y is None:
            return x
        if x is None:
            return self.neg(y)
        return self.tmp(f"{x} - {y}")

    def nonzero_test(self, comps):
        """Source of a run-time test that some component is non-zero.

        None if all are zero, "True" if one is the seed literal.
        """
        live = [c for c in comps if c is not None]
        if _SEED in live:
            return "True"
        return " or ".join(f"{c} != 0.0" for c in live) if live else None

    # -- hyper-dual rules ------------------------------------------------

    def mul(self, u, v):
        ua, u1, u2, u12 = u
        va, v1, v2, v12 = v
        return (
            self.tmp(f"{ua} * {va}"),
            self.total(self.prod(u1, va), self.prod(ua, v1)),
            self.total(self.prod(u2, va), self.prod(ua, v2)),
            self.total(
                self.prod(u12, va), self.prod(u1, v2), self.prod(u2, v1), self.prod(ua, v12)
            ),
        )

    def div(self, u, v):
        va, v1, v2, v12 = v
        if not self.constant(va):  # a non-zero constant divisor needs no test
            self.check(f"{va} == 0.0", "_domain('division by zero')")
        if self.seeds == (None, None):
            # The plain value divides directly, so it is correctly rounded.
            return (self.tmp(f"{u[0]} / {va}"), None, None, None)
        inv = [self.tmp(f"1.0 / {va}"), None, None, None]
        if v1 is not None or v2 is not None or v12 is not None:
            bb = self.tmp(f"_nonzero_product({va}, {va})")
            inv[1] = v1 and self.tmp(f"-{v1} / {bb}")
            inv[2] = v2 and self.tmp(f"-{v2} / {bb}")
            cross = self.prod("2.0", v1, v2)
            if cross is not None and v12 is not None:
                inv[3] = self.tmp(f"({cross} / {va} - {v12}) / {bb}")
            elif cross is not None:
                inv[3] = self.tmp(f"{cross} / {va} / {bb}")
            elif v12 is not None:
                inv[3] = self.tmp(f"-{v12} / {bb}")
        return self.mul(u, inv)

    def chain(self, u, f, d1, d2):
        """Lift a scalar function with value f, slope d1 and curvature d2 (None if unused)."""
        _, u1, u2, u12 = u
        return (
            f,
            self.total(self.prod(d1, u1)),
            self.total(self.prod(d1, u2)),
            self.total(self.prod(d1, u12), self.prod(d2, u1, u2)),
        )

    def call(self, func, u):
        ua, u1, u2, u12 = u
        value_fn, d1_src, d2_src = _CALLS[func]
        f = self.tmp(f"{value_fn}({ua})")
        needs_deriv = self.nonzero_test((u1, u2, u12))
        if needs_deriv is None:
            return (f, None, None, None)

        def lifted():
            d1 = self.tmp(d1_src.format(a=ua, f=f))
            # d2 is left out when unused: for log and sqrt it divides by a
            # product that underflows to zero at tiny arguments, which must
            # not stop a derivative that does not need d2.
            d2 = d2_src.format(a=ua, f=f, d1=d1)
            d2 = self.tmp(d2) if u1 is not None and u2 is not None else None
            return self.chain(u, f, d1, d2)

        if func != "sqrt":
            return lifted()

        def at_zero():
            self.line(f"if {needs_deriv}: raise _domain('{_DERIV_AT_ZERO}')")
            return (f, None, None, None)

        return self.branch(f"{ua} == 0.0", at_zero, lifted)

    def const_power(self, u, r):
        ua = u[0]
        exponent = self.constant(r)
        resolved = exponent is not None and math.isfinite(exponent)
        if resolved:
            f = self.resolved_pow_val(ua, exponent)
        else:
            f = self.tmp(f"_pow_val({ua}, {r})")
        needs_deriv = self.nonzero_test(u[1:])
        if needs_deriv is None:
            return (f, None, None, None)

        def lifted():
            # d2 is left out when unused, as in call: for 1 < r < 2 it is
            # singular at a = 0, where the first partial is 0.
            used = u[1] is not None and u[2] is not None
            if resolved:
                d1 = self.resolved_pow_deriv(ua, exponent, 1)
                d2 = self.resolved_pow_deriv(ua, exponent, 2) if used else None
            else:
                d1 = self.tmp(f"_pow_deriv_coeff({ua}, {r}, 1)")
                d2 = self.tmp(f"_pow_deriv_coeff({ua}, {r}, 2)") if used else None
            return self.chain(u, f, d1, d2)

        return self.branch(needs_deriv, lifted, lambda: (f, None, None, None))

    # -- constant exponents ----------------------------------------------
    #
    # _pow_val and _pow_deriv_coeff with the exponent r known while compiling:
    # every test on r alone is decided here, and only the tests on the base a
    # are written, in the helpers' order. Values are the same math.pow call
    # with the same overflow to inf, so the bits and errors do not change.

    def pow_call(self, a, p: float) -> str:
        """math.pow(a, p) in a local, inf where it overflows."""
        key = f"_pow({a}, {self.const(p)})"
        name = self.written.get(key)
        if name is None:
            name = self.fresh()
            self.line(f"try: {name} = {key}")
            self.line(f"except OverflowError: {name} = _inf")
            if self.depth == 1:
                self.written[key] = name
        return name

    def negative_base_test(self, a, p: float) -> None:
        if p != round(p):
            self.check(f"{a} < 0.0", f"_negative_base_error({a}, {self.const(p)})")

    def resolved_pow_val(self, a, r: float) -> str:
        """_pow_val(a, r)."""
        if r == 0.0:
            return self.const(1.0)  # math.pow(a, 0.0) is 1.0 for every a, NaN too
        if r < 0.0:
            self.check(f"{a} == 0.0", f"_domain('{_ZERO_TO_NEGATIVE}')")
        self.negative_base_test(a, r)
        return self.pow_call(a, r)

    def resolved_pow_deriv(self, a, r: float, order: int) -> str:
        """_pow_deriv_coeff(a, r, order)."""
        coeff = r if order == 1 else r * (r - 1.0)
        if coeff == 0.0:
            return self.const(0.0)
        power = r - order
        if power == 0.0:
            return self.const(coeff)  # coeff at a = 0, coeff * 1.0 elsewhere
        if power < 0.0:
            self.check(f"{a} == 0.0", f"_singular_at_zero_error({self.const(r)})")
        self.negative_base_test(a, power)
        # At a = 0 with a positive power, math.pow gives a signed zero and
        # _pow_deriv_coeff returns 0.0.
        scaled = f"{self.const(coeff)} * {self.pow_call(a, power)}"
        return self.tmp(scaled if power < 0.0 else f"0.0 if {a} == 0.0 else {scaled}")

    def var_power(self, u, v):
        self.line(f"if {u[0]} <= 0.0: raise _pow_base_error({u[0]})")
        return self.call("exp", self.mul(v, self.call("log", u)))

    def power(self, u, v):
        variable = self.nonzero_test(v[1:])
        if variable is None:
            return self.const_power(u, v[0])
        return self.branch(
            variable, lambda: self.var_power(u, v), lambda: self.const_power(u, v[0])
        )

    def branch(self, test, then, otherwise):
        """if test: then() else: otherwise(), merging their components."""
        if test == "True":
            return then()
        arms = []
        outer_lines = self.lines
        self.depth += 1
        for build in (then, otherwise):
            self.lines = []
            arms.append((self.lines, build()))
        self.lines = outer_lines
        merged = []
        for k in range(4):
            first, second = arms[0][1][k], arms[1][1][k]
            merged.append(first if first == second else self.fresh())
        self.depth -= 1
        self.line(f"if {test}:")
        for index, (lines, comps) in enumerate(arms):
            if index:
                self.line("else:")
            self.lines.extend(lines)
            for name, c in zip(merged, comps):
                if name != c:
                    self.lines.append("    " * (self.depth + 1) + f"{name} = {c or '0.0'}")
        return tuple(merged)

    # -- tree walk -------------------------------------------------------

    def result(self, root: Node, seed1: str | None = None, seed2: str | None = None) -> str:
        """Write the code of one seed pair; the source of its f, df/ds or d2f/dsdt."""
        self.seeds = (seed1, seed2)
        comps = self.visit(root)
        return (comps[0] if seed1 is None else comps[1] if seed2 is None else comps[3]) or "0.0"

    def visit(self, node: Node):
        if isinstance(node, Num):
            return (self.const(node.value), None, None, None)
        if isinstance(node, Var):
            k = self.variables.index(node.name)
            v = f"v{k}"
            if k not in self.bound:
                self.bound.add(k)
                self.line(f"if {v} is None: raise _unbound({k})")
                self.line(f"{v} = float({v})")
            seed1, seed2 = self.seeds
            return (
                v,
                _SEED if node.name == seed1 else None,
                _SEED if node.name == seed2 else None,
                None,
            )
        if isinstance(node, Unary):
            if isinstance(node.operand, Num):  # negation is exact, so it is folded
                return (self.const(-node.operand.value), None, None, None)
            return tuple(self.neg(c) for c in self.visit(node.operand))
        if isinstance(node, Call):
            return self.call(node.func, self.visit(node.arg))
        u = self.visit(node.left)
        v = self.visit(node.right)
        if node.op == "+":
            return tuple(self.total(x, y) for x, y in zip(u, v))
        if node.op == "-":
            return tuple(self.sub(x, y) for x, y in zip(u, v))
        if node.op == "*":
            return self.mul(u, v)
        if node.op == "/":
            return self.div(u, v)
        return self.power(u, v)


# An unconditional line of the generated code that _read_lines may drop:
# "tK = rhs", or the guarded math.pow call that pow_call writes on two lines.
_ASSIGNMENT = re.compile(r"    (t\d+) = (.+)")
_GUARDED_POW = re.compile(r"    except OverflowError: (t\d+) = _inf")
_NAME = re.compile(r"[A-Za-z_]\w*")
_RHS_TOKEN = re.compile(r"[A-Za-z_]\w*|\d+\.\d+|==|!=|<=|>=|\S")
_ARITHMETIC = {"+", "-", "*", "/", "(", ")", "==", "!=", "<", ">", "<=", ">=", "if", "else"}


def _cannot_raise(rhs: str, namespace: dict) -> bool:
    """Whether rhs is float arithmetic that cannot raise: locals, constants and
    literals under + - * and comparisons, dividing only by a non-zero constant."""
    tokens = _RHS_TOKEN.findall(rhs)
    for tok, after in zip(tokens, tokens[1:] + [""]):
        if tok == "/":
            if not (re.fullmatch(r"c\d+", after) and namespace[after] != 0.0):
                return False
        elif not (tok in _ARITHMETIC or re.fullmatch(r"[tvc]\d+|\d+\.\d+", tok)):
            return False
    return True


def _read_lines(lines: list[str], results: list[str], namespace: dict) -> list[str]:
    """lines without the unconditional assignments that nothing reads and that cannot raise.

    Such an assignment is float arithmetic (_cannot_raise) or the guarded
    math.pow call, whose base the run-time tests before it have already
    checked. Every other line stays, every run-time test among them, in
    its order; one backward pass finds what is read, the code being
    straight-line but for forward branches.
    """
    read = set(_NAME.findall(", ".join(results)))
    kept = []
    drop_try = False
    for line in reversed(lines):
        if drop_try:  # the "try:" line of a guarded pow dropped below
            drop_try = False
            continue
        pow_line = _GUARDED_POW.fullmatch(line)
        if pow_line and pow_line.group(1) not in read:
            drop_try = True
            continue
        assignment = _ASSIGNMENT.fullmatch(line)
        if (
            assignment
            and assignment.group(1) not in read
            and _cannot_raise(assignment.group(2), namespace)
        ):
            continue
        kept.append(line)
        read.update(_NAME.findall(line))
    return kept[::-1]


def _source(expr: ScalarExpr, pairs: tuple[tuple[str, ...], ...]) -> tuple[str, dict]:
    """The generated source of _compile and the namespace it runs in."""
    emitter = _Emitter(expr.variables)
    results = [emitter.result(expr.root, *pair) for pair in pairs]
    params = ", ".join(f"v{k}" for k in range(len(expr.variables)))
    body = _read_lines(emitter.lines, results, emitter.namespace)
    source = "\n".join([f"def compiled({params}):", *body, f"    return {', '.join(results)}", ""])
    return source, emitter.namespace


def _compile(expr: ScalarExpr, pairs: tuple[tuple[str, ...], ...]):
    """The function of expr's variables returning f, df/ds or d2f/dsdt of each seed pair.

    A pair holds no, one or two seeds. One pair gives a float, several a
    tuple in the order of pairs.
    """
    source, namespace = _source(expr, pairs)
    exec(compile(source, "<riemdyn.expression>", "exec"), namespace)
    # Popped so the function and its globals do not form a reference cycle.
    return namespace.pop("compiled")


def _code(expr: ScalarExpr, *pairs: tuple[str, ...]):
    """The compiled function of one or more seed pairs, built on first use.

    A pair is a tuple of no, one or two seed names: () for the value,
    (s,) for df/ds and (s, t) for d2f/dsdt. The function takes expr's
    variables by position, in the order of expr.variables.
    """
    fn = expr._code.get(pairs)
    if fn is None:
        fn = expr._code[pairs] = _compile(expr, pairs)
    return fn


def _env_args(expr: ScalarExpr, env: Mapping[str, float]) -> list:
    """Arguments of a compiled function: each variable's value, None if unbound."""
    return [env.get(name) for name in expr.variables]


def _coord_args(expr: ScalarExpr, x, w: float | None = None) -> list:
    """Arguments of a compiled function with x1..xn taken from the array x and "w" bound to w."""
    n = len(x)
    return [x[k] if 0 <= k < n else w if k == -1 else None for k in expr._slots]


# ---------------------------------------------------------------------------
# Evaluation and exact derivatives


def evaluate_env(expr: ScalarExpr, env: Mapping[str, float]) -> float:
    """Evaluate with variables bound by name."""
    return _code(expr, ())(*_env_args(expr, env))


def evaluate(expr: ScalarExpr, x) -> float:
    """Evaluate with x1..xn bound to the entries of x (0-based array)."""
    return _code(expr, ())(*_coord_args(expr, x))


def evaluate_fiber(expr: ScalarExpr, x, w: float, *seeds: str) -> float:
    """Value, or exact partial by one or two named seeds, with x1..xn from x and "w" bound to w."""
    return _code(expr, seeds)(*_coord_args(expr, x, w))


def gradient(expr: ScalarExpr, x, w: float | None = None, seed: str | None = None) -> list[float]:
    """All first partials d/dx^q for q = 0..len(x)-1, with the fiber variable "w" at w.

    With a seed, each partial is differentiated by that variable too.
    """
    args = _coord_args(expr, x, w)
    seeds = () if seed is None else (seed,)
    return [_code(expr, (f"x{q + 1}", *seeds))(*args) for q in range(len(x))]


# ---------------------------------------------------------------------------
# Central differences


def _central_differences(fn, y: np.ndarray, inside=None) -> np.ndarray:
    """First central differences of fn along each axis of y, derivative axis last.

    The step along axis q is eps^(1/3) max(1, |y^q|). With inside, both
    points of each stencil must pass it, or FDStepError names the axis.
    """
    columns = []
    for q in range(len(y)):
        h = _FD_STEP_SCALE * max(1.0, abs(y[q]))
        hi, lo = y.copy(), y.copy()
        hi[q] += h
        lo[q] -= h
        if inside is not None and not (inside(hi) and inside(lo)):
            raise FDStepError(f"central-difference stencil leaves the domain at {y!r}, axis {q}")
        columns.append((fn(hi) - fn(lo)) / (2.0 * h))
    return np.stack(columns, axis=-1)


def _second_differences(fn, y: np.ndarray) -> np.ndarray:
    """(n, n) second central differences of the scalar fn at y, step eps^(1/4) max(1, |y^q|)."""
    n = len(y)
    shifts = np.diag(_FD2_STEP_SCALE * np.maximum(1.0, np.abs(y)))

    def val(shift):
        return fn(y + shift)

    out = np.empty((n, n))
    center = val(np.zeros(n))
    for a, ea in enumerate(shifts):
        out[a, a] = (val(ea) - 2.0 * center + val(-ea)) / (ea[a] ** 2)
        for b in range(a + 1, n):
            eb = shifts[b]
            out[a, b] = out[b, a] = (
                val(ea + eb) - val(ea - eb) - val(-ea + eb) + val(-ea - eb)
            ) / (4.0 * ea[a] * eb[b])
    return out
