"""Markov invariance, the sign law and the Table-1 tags of the trace
invariant on random braids (hypothesis).

compute_ts must give one value for a braid, its conjugates and its positive
and negative stabilizations, over every Table-1 row with both signs; a
row's sign '-' must multiply that value by -1 once per closure component;
and with sign '+' every row's tag but 'jones' must hold on every closure.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from ybtrace.braid import BraidWord, NamedLink, conjugate, stabilize
from ybtrace.eyb import table1_entries
from ybtrace.invariant import _tag_expectation, compute_ts
from ybtrace.ring import format_scalar

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


@settings(PROPERTY, max_examples=60)
@given(strands=st.integers(2, 4), data=st.data())
def test_every_tag_but_jones_holds_on_random_braids(strands, data):
    """The 22 rows not tagged 'jones', sign '+'; the knot-only tags assert
    nothing on a link."""
    b = BraidWord(strands, data.draw(letters(strands, 8, min_size=1)))
    link = NamedLink(str(b), b, b.closure_components())
    entries = [e for e in table1_entries() if e.tag != "jones"]
    assert len(entries) == 22
    for e in entries:
        op = OPERATORS[f"{e.rmatrix}/{e.row}+"]
        raw = compute_ts(op, b).value
        expected, matched = _tag_expectation(e.tag, op, link, raw, op.ctx)
        assert matched is not False, (e.rmatrix, e.row, e.tag, expected, format_scalar(raw))
