"""Hypothesis strategies for random expression trees, shared by the property tests.

TREES draws trees over the coordinates x1 and x2, W_TREES trees over the
fiber variable w alone. Both draw from up to 6 leaves, non-negative
constants below 10 among them, joined by negation, the five binary
operators and every named function.
"""

from __future__ import annotations

from hypothesis import strategies as st

from riemdyn import expression as ex

__all__ = ["TREES", "W_TREES"]


def _trees(variable_leaves):
    leaves = st.one_of(
        variable_leaves,
        st.floats(min_value=0.0, max_value=10.0).map(lambda v: ex.Num(abs(v))),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(ex.Unary),
            st.builds(ex.Binary, st.sampled_from("+-*/^"), sub, sub),
            st.builds(ex.Call, st.sampled_from(ex.FUNCTION_NAMES), sub),
        ),
        max_leaves=6,
    )


TREES = _trees(st.sampled_from([ex.Var("x1"), ex.Var("x2")]))
W_TREES = _trees(st.just(ex.Var("w")))
