"""Braid words, closure combinatorics, Markov moves, named links."""

import random

import pytest

from ybtrace.braid import (
    BraidWord,
    KNOT_NAMES,
    LINK_NAMES,
    NAMED_LINKS,
    braid_stats,
    conjugate,
    destabilize,
    disjoint_union,
    get_named_braid,
    parse_braid,
    stabilize,
)
from ybtrace.errors import (
    CannotDestabilize,
    ParseError,
    StrandBoundViolation,
    UnknownName,
)


def test_parse_defaults_strand_count():
    b = parse_braid("1 1 1")
    assert b.strands == 2 and b.letters == (1, 1, 1)
    b = parse_braid("1 -2 1 -2")
    assert b.strands == 3
    b = parse_braid("", strands=1)
    assert b.strands == 1 and b.letters == ()


def test_parse_rejects_bad_tokens():
    with pytest.raises(ParseError):
        parse_braid("1 x")
    with pytest.raises(ParseError):
        parse_braid("0")
    with pytest.raises(StrandBoundViolation):
        parse_braid("3", strands=2)


def test_word_validation():
    with pytest.raises(StrandBoundViolation):
        BraidWord(2, (2,))
    with pytest.raises(StrandBoundViolation):
        BraidWord(0)


def test_a_bool_strand_count_is_refused_as_bool_letters_are():
    """A bool is an int to Python, but ``True True True``, the text of
    ``BraidWord(2, (True, True, True))`` if it were accepted, is no braid."""
    for strands in (True, False):
        with pytest.raises(StrandBoundViolation) as info:
            BraidWord(strands)
        assert str(info.value) == f"invalid strand count {strands}"
    with pytest.raises(ParseError):
        parse_braid("True True True")


def test_writhe_is_the_signed_letter_count_on_seeded_words():
    rng = random.Random(24)
    for _ in range(300):
        strands = rng.randint(1, 6)
        letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                   for _ in range(rng.randint(0, 12) if strands > 1 else 0)]
        b = BraidWord(strands, iter(letters))
        count = sum(k > 0 for k in letters) - sum(k < 0 for k in letters)
        assert b.writhe == count, letters
        assert parse_braid(str(b), strands).writhe == count
        assert stabilize(b, -1).writhe == count - 1
        assert conjugate(b, (1, -1, 1)[:strands - 1]).writhe == count


def test_stats_hopf():
    w, perm, comps = braid_stats(parse_braid("1 1"))
    assert w == 2
    assert perm == (0, 1)
    assert comps == 2


def test_stats_trefoil():
    w, perm, comps = braid_stats(parse_braid("1 1 1"))
    assert w == 3
    assert perm == (1, 0)
    assert comps == 1


def test_stats_figure_eight():
    w, _, comps = braid_stats(parse_braid("1 -2 1 -2"))
    assert w == 0
    assert comps == 1


def test_permutation_braid_relation():
    lhs = parse_braid("1 2 1").permutation()
    rhs = parse_braid("2 1 2").permutation()
    assert lhs == rhs


def test_markov_moves():
    tre = parse_braid("1 1 1")
    up = stabilize(tre, +1)
    assert up.strands == 3 and up.letters == (1, 1, 1, 2)
    assert destabilize(up) == tre
    down = stabilize(tre, -1)
    assert down.letters == (1, 1, 1, -2)
    assert destabilize(down) == tre
    with pytest.raises(CannotDestabilize):
        destabilize(tre)
    with pytest.raises(CannotDestabilize):
        destabilize(BraidWord(3, (2, 1, 2)))


def test_conjugation_preserves_closure_data():
    b = parse_braid("1 1")
    g = conjugate(b, (1,))
    assert g.letters == (1, 1, 1, -1)
    assert g.writhe == b.writhe
    assert g.closure_components() == b.closure_components()


def test_disjoint_union_shifts_letters():
    hopf = parse_braid("1 1")
    both = disjoint_union(hopf, hopf)
    assert both.strands == 4
    assert both.letters == (1, 1, 3, 3)
    assert both.closure_components() == 4


def test_disjoint_union_component_additivity():
    for a_name in ("3_1", "2^2_1"):
        for b_name in ("4_1", "5^2_1"):
            a = get_named_braid(a_name)
            b = get_named_braid(b_name)
            union = disjoint_union(a.braid, b.braid)
            assert union.closure_components() == a.components + b.components


def test_named_catalog_is_consistent():
    assert set(NAMED_LINKS) == set(KNOT_NAMES) | set(LINK_NAMES)
    for name in NAMED_LINKS:
        link = get_named_braid(name)
        assert link.braid.closure_components() == link.components
        expected = 1 if name in KNOT_NAMES else 2
        assert link.components == expected


def test_named_words_match_registry():
    assert get_named_braid("5_2").braid.letters == (2, 2, -1, 2, 1, 1)
    assert get_named_braid("6^2_3").braid.letters == (2, -1, 2, -3, 2, 1, 2, -3)
    unknot = get_named_braid("0_1")
    assert unknot.braid.strands == 1 and unknot.braid.letters == ()


def test_named_accepts_superscript_form():
    assert get_named_braid("2²_1").name == "2^2_1"
    with pytest.raises(UnknownName):
        get_named_braid("7_1")
