"""Markov invariance of the trace invariant on random braids (hypothesis).

compute_ts must give one value for a braid, its conjugates and its positive
and negative stabilizations, over every Table-1 row with both signs.
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


def letters(strands, max_size):
    """Words of generators sigma_k^(+-1), 1 <= k < strands."""
    if strands < 2:
        return st.just(())
    letter = st.tuples(st.integers(1, strands - 1), st.sampled_from([1, -1]))
    return st.lists(letter, max_size=max_size).map(lambda w: tuple(k * s for k, s in w))


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
