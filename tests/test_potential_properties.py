"""Property tests of array evaluation of potential expressions.

One evaluator serves scalars and arrays, so an expression evaluated over an
array must give, point by point, the bits that evaluating each point alone
gives, and fail at the first point that fails alone, with its message.  The
box-size search samples the potential through this path, so its O(N) trace
must still equal the trace of the assembled matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import BasisKind, EvaluationError, HamiltonianSpec, assemble, parse
from fraclap.hamiltonian import _trace_of
from fraclap.potential import FUNCTIONS, BinOp, Call, Constant, Neg, Number, PotentialExpr, Variable

leaves = st.one_of(
    st.just(Variable()),
    st.floats(-4.0, 4.0).map(Number),
    st.sampled_from([Number(0.0), Number(0.5), Number(2.0), Variable(), Constant("pi")]),
)


def _extend(children):
    return st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), children),
    )


# trees that depend on x, so the points differ in value and in failure
trees = st.recursive(leaves, _extend, max_leaves=12).filter(lambda t: "Variable" in repr(t))
# grid-like points, with the values where the domain checks bite
points = st.lists(
    st.one_of(st.floats(-6.0, 6.0), st.sampled_from([0.0, -1.0, 1.0, -2.0, 0.5])),
    min_size=1,
    max_size=24,
)


def _pointwise(expr, xs):
    """Values at each point alone, or the first failing point's error."""
    values = []
    for x in xs:
        try:
            values.append(expr.evaluate(x))
        except EvaluationError as exc:
            return None, exc
    return np.array(values), None


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _assert_same_outcome(expr, xs):
    want, first_error = _pointwise(expr, xs)
    if first_error is None:
        got = expr.evaluate(np.array(xs))
        assert got.shape == (len(xs),)
        np.testing.assert_array_equal(_bits(got), _bits(want))
    else:
        with pytest.raises(EvaluationError) as exc_info:
            expr.evaluate(np.array(xs))
        assert str(exc_info.value) == str(first_error)
        assert exc_info.value.x == first_error.x


@settings(max_examples=300, deadline=None)
@given(trees, points)
def test_array_matches_pointwise_bit_for_bit(tree, xs):
    _assert_same_outcome(PotentialExpr(tree, ""), xs)


@settings(max_examples=200, deadline=None)
@given(trees, points, st.data())
def test_failure_names_first_failing_point(tree, xs, data):
    # 1 / (x - c) with c one of the points fails at that point at least;
    # a failure of the random subtree at an earlier point must win
    c = data.draw(st.sampled_from(xs))
    pole = BinOp("/", Number(1.0), BinOp("-", Variable(), Number(c)))
    op = data.draw(st.sampled_from(["+", "*"]))
    expr = PotentialExpr(BinOp(op, tree, pole), "")
    with pytest.raises(EvaluationError):
        expr.evaluate(np.array(xs))
    _assert_same_outcome(expr, xs)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(BasisKind)),
    N=st.integers(2, 60),
    L=st.floats(0.5, 20.0),
    alpha=st.floats(0.5, 3.0),
    beta=st.floats(0.5, 4.0),
)
def test_trace_of_matches_assembled_trace(kind, N, L, alpha, beta):
    spec = HamiltonianSpec(alpha=alpha, potential=parse(f"abs(x)^{beta!r}"), kind=kind, N=N)
    assert _trace_of(spec, L) == pytest.approx(np.trace(assemble(spec, L).entries), rel=1e-12)
