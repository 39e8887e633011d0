"""Reference evaluators for riemdyn.expression, kept as test oracles.

The package evaluates every expression through code compiled once per
expression and seed pair. These are the tree walkers it replaced:
``_eval`` for plain values and the hyper-dual evaluator ``_eval_hd``
(Fike & Alonso, AIAA 2011-886) for exact first and mixed second partials.
The tests compare the compiled route against them, by name
through expression.evaluate_env and exports_oracle's partial_env and
second_partial_env. Like the compiled
code, a quotient's derivative and the curvatures of log and sqrt divide by
a product only when the derivative needs it, and refuse a product that
underflows to zero; the curvature of a power is formed only when needed too.
"""

from __future__ import annotations

import math
from typing import Mapping

from riemdyn.errors import EvalDomainError, UnboundVariableError
from riemdyn.expression import (
    Call,
    Node,
    Num,
    Unary,
    Var,
    _nonzero_product,
    _pow_deriv_coeff,
    _pow_val,
)

__all__ = ["evaluate_env", "partial_env", "second_partial_env"]


def _call_val(func: str, a: float) -> float:
    if func == "log":
        if a <= 0.0:
            raise EvalDomainError(f"log of non-positive value {a!r}")
        return math.log(a)
    if func == "sqrt":
        if a < 0.0:
            raise EvalDomainError(f"sqrt of negative value {a!r}")
        return math.sqrt(a)
    try:
        return getattr(math, func)(a)
    except OverflowError:
        return math.copysign(math.inf, a) if func == "sinh" else math.inf


def _eval(node: Node, env: Mapping[str, float]) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return float(env[node.name])
        except KeyError:
            raise UnboundVariableError(f"variable {node.name!r} is not bound") from None
    if isinstance(node, Unary):
        return -_eval(node.operand, env)
    if isinstance(node, Call):
        return _call_val(node.func, _eval(node.arg, env))
    left = _eval(node.left, env)
    right = _eval(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if right == 0.0:
            raise EvalDomainError("division by zero")
        return left / right
    return _pow_val(left, right)


def evaluate_env(expr, env: Mapping[str, float]) -> float:
    """Plain value by walking the tree."""
    return _eval(expr.root, env)


# Hyper-dual forward-mode derivatives
#
# A hyper-dual number tracks (f, df/ds, df/dt, d2f/dsdt) along two seed
# directions s and t, giving exact first and mixed second derivatives in
# one evaluation pass.


class _HD:
    __slots__ = ("a", "a1", "a2", "a12")

    def __init__(self, a: float, a1: float = 0.0, a2: float = 0.0, a12: float = 0.0):
        self.a = a
        self.a1 = a1
        self.a2 = a2
        self.a12 = a12


def _hd_add(u: _HD, v: _HD) -> _HD:
    return _HD(u.a + v.a, u.a1 + v.a1, u.a2 + v.a2, u.a12 + v.a12)


def _hd_sub(u: _HD, v: _HD) -> _HD:
    return _HD(u.a - v.a, u.a1 - v.a1, u.a2 - v.a2, u.a12 - v.a12)


def _hd_mul(u: _HD, v: _HD) -> _HD:
    return _HD(
        u.a * v.a,
        u.a1 * v.a + u.a * v.a1,
        u.a2 * v.a + u.a * v.a2,
        u.a12 * v.a + u.a1 * v.a2 + u.a2 * v.a1 + u.a * v.a12,
    )


def _hd_div(u: _HD, v: _HD) -> _HD:
    if v.a == 0.0:
        raise EvalDomainError("division by zero")
    b = v.a
    if v.a1 == 0.0 and v.a2 == 0.0 and v.a12 == 0.0:
        return _hd_mul(u, _HD(1.0 / b))
    bb = _nonzero_product(b, b)
    inv = _HD(
        1.0 / b,
        -v.a1 / bb,
        -v.a2 / bb,
        (2.0 * v.a1 * v.a2 / b - v.a12) / bb,
    )
    return _hd_mul(u, inv)


def _hd_chain(u: _HD, f: float, d1: float, d2: float) -> _HD:
    """Lift a scalar function with value f, slope d1, curvature d2 at u.a."""
    return _HD(
        f,
        d1 * u.a1,
        d1 * u.a2,
        d1 * u.a12 + d2 * u.a1 * u.a2,
    )


def _hd_call(func: str, u: _HD) -> _HD:
    a = u.a
    val = _call_val(func, a)
    needs_deriv = u.a1 != 0.0 or u.a2 != 0.0 or u.a12 != 0.0
    if func == "sin":
        return _hd_chain(u, val, math.cos(a), -val)
    if func == "cos":
        return _hd_chain(u, val, -math.sin(a), -val)
    if func == "tan":
        sec2 = 1.0 + val * val
        return _hd_chain(u, val, sec2, 2.0 * val * sec2)
    if func == "exp":
        return _hd_chain(u, val, val, val)
    # The curvatures of log and sqrt are only formed when both seeds reach the argument.
    both_seeds = u.a1 != 0.0 and u.a2 != 0.0
    if func == "log":
        d2 = -1.0 / _nonzero_product(a, a) if both_seeds else 0.0
        return _hd_chain(u, val, 1.0 / a, d2)
    if func == "sqrt":
        if a == 0.0:
            if needs_deriv:
                raise EvalDomainError("derivative of sqrt at zero")
            return _HD(0.0)
        d2 = -0.25 / _nonzero_product(val, a) if both_seeds else 0.0
        return _hd_chain(u, val, 0.5 / val, d2)
    if func == "cosh":
        return _hd_chain(u, val, _call_val("sinh", a), val)
    if func == "sinh":
        return _hd_chain(u, val, _call_val("cosh", a), val)
    raise EvalDomainError(f"unknown function {func!r}")


def _hd_pow(u: _HD, node_right: Node, v: _HD) -> _HD:
    if isinstance(node_right, Num) or (v.a1 == 0.0 and v.a2 == 0.0 and v.a12 == 0.0):
        r = v.a
        val = _pow_val(u.a, r)
        needs_deriv = u.a1 != 0.0 or u.a2 != 0.0 or u.a12 != 0.0
        if not needs_deriv:
            return _HD(val)
        d1 = _pow_deriv_coeff(u.a, r, 1)
        # As for log and sqrt, the curvature is only formed when both seeds reach the base.
        d2 = _pow_deriv_coeff(u.a, r, 2) if u.a1 != 0.0 and u.a2 != 0.0 else 0.0
        return _hd_chain(u, val, d1, d2)
    if u.a <= 0.0:
        raise EvalDomainError(
            f"variable exponent requires a positive base, got {u.a!r}"
        )
    return _hd_call("exp", _hd_mul(v, _hd_call("log", u)))


def _eval_hd(node: Node, env: Mapping[str, _HD]) -> _HD:
    if isinstance(node, Num):
        return _HD(node.value)
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnboundVariableError(f"variable {node.name!r} is not bound") from None
    if isinstance(node, Unary):
        u = _eval_hd(node.operand, env)
        return _HD(-u.a, -u.a1, -u.a2, -u.a12)
    if isinstance(node, Call):
        return _hd_call(node.func, _eval_hd(node.arg, env))
    left = _eval_hd(node.left, env)
    right = _eval_hd(node.right, env)
    if node.op == "+":
        return _hd_add(left, right)
    if node.op == "-":
        return _hd_sub(left, right)
    if node.op == "*":
        return _hd_mul(left, right)
    if node.op == "/":
        return _hd_div(left, right)
    return _hd_pow(left, node.right, right)


def _hd_env(env: Mapping[str, float], seed1: str | None, seed2: str | None) -> dict[str, _HD]:
    out = {}
    for name, value in env.items():
        out[name] = _HD(
            float(value),
            1.0 if name == seed1 else 0.0,
            1.0 if name == seed2 else 0.0,
        )
    return out


def partial_env(expr, env: Mapping[str, float], name: str) -> float:
    """Exact first partial with respect to a named variable."""
    return _eval_hd(expr.root, _hd_env(env, name, None)).a1


def second_partial_env(
    expr, env: Mapping[str, float], name1: str, name2: str
) -> float:
    """Exact mixed second partial with respect to two named variables."""
    return _eval_hd(expr.root, _hd_env(env, name1, name2)).a12
