"""Markov invariance and the sign law of the trace invariant on random
braids (hypothesis).

compute_ts must give one value for a braid, its conjugates and its positive
and negative stabilizations, over every Table-1 row with both signs; and a
row's sign '-' must multiply that value by -1 once per closure component.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from ybtrace.braid import BraidWord, conjugate, stabilize
from ybtrace.eyb import table1_entries
from ybtrace.invariant import compute_ts

PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)

OPERATORS = {
    f"{e.rmatrix}/{e.row}{sign}": e.build(sign)
    for e in table1_entries()
    for sign in "+-"
}


def letters(strands, max_size, min_size=0):
    """Words of generators sigma_k^(+-1), 1 <= k < strands."""
    if strands < 2:
        return st.just(())
    letter = st.tuples(st.integers(1, strands - 1), st.sampled_from([1, -1]))
    return st.lists(letter, min_size=min_size, max_size=max_size).map(
        lambda w: tuple(k * s for k, s in w))


@st.composite
def braids(draw):
    strands = draw(st.integers(1, 3))
    return BraidWord(strands, draw(letters(strands, 6)))


@PROPERTY
@given(name=st.sampled_from(sorted(OPERATORS)), b=braids(), data=st.data())
def test_invariant_under_conjugation_and_stabilization(name, b, data):
    op = OPERATORS[name]
    value = compute_ts(op, b).value
    by = data.draw(letters(b.strands, 2))
    assert compute_ts(op, conjugate(b, by)).value == value
    sign = data.draw(st.sampled_from([1, -1]))
    assert compute_ts(op, stabilize(b, sign)).value == value


@settings(PROPERTY, max_examples=30)
@given(strands=st.integers(2, 4), data=st.data())
def test_minus_sign_negates_once_per_component(strands, data):
    """T_-(L) = (-1)^c T_+(L), c the number of components, on all 23 rows."""
    b = BraidWord(strands, data.draw(letters(strands, 8, min_size=1)))
    odd = b.closure_components() % 2
    for e in table1_entries():
        plus = compute_ts(OPERATORS[f"{e.rmatrix}/{e.row}+"], b).value
        minus = compute_ts(OPERATORS[f"{e.rmatrix}/{e.row}-"], b).value
        assert minus == (-plus if odd else plus), (e.rmatrix, e.row)
