"""Dressings: assembly, compatibility conditions, extended operators, presets."""

import json
import random
import re
from pathlib import Path

import pytest

from oracles import ybe_residuals
from test_invariant import _mixed_words, _random_words

from ybtrace.braid import get_named_braid, parse_braid
from ybtrace.catalog import check_ybe, get_rmatrix, restricted_matrix
from ybtrace.dressing import (
    DiagonalDressingSpec,
    diagonal_spec_from_json,
    diagonal_spec_to_json,
    dress_diagonal,
    dressed_eyb,
    preset_dressings,
    preset_names,
)
from ybtrace.errors import (
    ConditionViolation,
    ContextMismatch,
    DimensionMismatch,
    ParseError,
    PreconditionViolation,
    UnknownName,
)
from ybtrace.eyb import EnhancedOperator, get_table1_entry, verify_eyb
from ybtrace.invariant import compute_ts, unknot_value
from ybtrace.ring import ScalarContext, context_from_json
from ybtrace.tensor import SquareMatrix, matrix_substitute

INPUTS = Path(__file__).resolve().parent / "inputs"


def _jones_ctx(extra=()):
    return ScalarContext(("p", "q") + tuple(extra), (("sqrt_pq", "p*q"),))


def _base_in(ctx, name="R2.1"):
    return matrix_substitute(get_rmatrix(name).matrix, {}, ctx)


def test_unit_weights_always_dress():
    ctx = _jones_ctx()
    spec = DiagonalDressingSpec(ctx, 3, (1, 3))
    dressed = dress_diagonal(_base_in(ctx), spec, check=True)
    assert dressed.side == 9
    assert ybe_residuals(dressed, 3) == {}


def test_preset_weights_satisfy_conditions():
    preset = preset_dressings("d3_R21")
    assert check_ybe(preset.matrix)
    assert ybe_residuals(preset.matrix, 3) == {}
    assert verify_eyb(preset.eyb)


def test_incompatible_weights_raise_and_break_ybe():
    ctx = ScalarContext(("p", "q", "u", "v"), (("sqrt_pq", "p*q"),))
    spec = DiagonalDressingSpec(
        ctx, 3, (1, 3), {(1, 2): "u", (2, 1): "v"}
    )
    with pytest.raises(ConditionViolation) as err:
        dress_diagonal(_base_in(ctx), spec, check=True)
    assert err.value.indices is not None
    # independent confirmation: the assembled matrix really violates the YBE
    unchecked = dress_diagonal(_base_in(ctx), spec, check=False)
    assert ybe_residuals(unchecked, 3) != {}


def test_every_preset_assembles_and_verifies():
    for name in preset_names():
        preset = preset_dressings(name)
        assert check_ybe(preset.matrix)
        assert verify_eyb(preset.eyb)
        assert preset.eyb.alpha == preset.ctx.parse(
            "sqrt_pq^-1" if name == "d3_R21" else "sqrt_pq"
        )


def test_preset_d3_r21_weight_diagonal():
    preset = preset_dressings("d3_R21")
    mu = preset.eyb.mu
    ctx = preset.ctx
    assert mu == SquareMatrix.diagonal(ctx, ["sqrt_pq", "1", "sqrt_pq^-1"])
    assert unknot_value(preset.eyb) == ctx.parse("sqrt_pq + 1 + sqrt_pq^-1")


def test_trivially_dressed_invariants_are_unchanged():
    from ybtrace.braid import NAMED_LINKS

    ctx = _jones_ctx()
    base_op = get_table1_entry("R2.1", 1).build(ctx=ctx)
    spec = DiagonalDressingSpec(ctx, 3, (1, 3), {(2, 2): "q"})
    dressed = dress_diagonal(_base_in(ctx), spec)
    op = dressed_eyb(base_op, dressed, spec, mode="trivial")
    assert verify_eyb(op)
    for name in NAMED_LINKS:
        braid = get_named_braid(name).braid
        assert compute_ts(op, braid).value == compute_ts(base_op, braid).value


def test_nontrivial_padding_requires_matching_diagonal():
    ctx = _jones_ctx(("a",))
    base_op = get_table1_entry("R2.1", 1).build(ctx=ctx)
    spec = DiagonalDressingSpec(ctx, 3, (1, 3), {(2, 2): "a"})
    dressed = dress_diagonal(_base_in(ctx), spec)
    with pytest.raises(PreconditionViolation):
        dressed_eyb(base_op, dressed, spec, mode="nontrivial")


def test_nontrivial_negative_sign_padding():
    ctx = _jones_ctx()
    base_op = get_table1_entry("R2.1", 1).build(ctx=ctx)
    spec = DiagonalDressingSpec(ctx, 3, (1, 3), {(2, 2): "-sqrt_pq^-1"})
    dressed = dress_diagonal(_base_in(ctx), spec)
    op = dressed_eyb(base_op, dressed, spec, mode="nontrivial", sign="-")
    assert verify_eyb(op)
    assert op.mu.get(1, 1) == -ctx.one()


def test_d3_r22_preset_gives_one_everywhere():
    from ybtrace.braid import NAMED_LINKS

    preset = preset_dressings("d3_R22")
    for name in NAMED_LINKS:
        braid = get_named_braid(name).braid
        assert compute_ts(preset.eyb, braid).value == preset.ctx.one()
        assert compute_ts(preset.eyb, braid, normalized=True).value == preset.ctx.one()


def test_d4_r22_preset_on_knots_and_hopf():
    preset = preset_dressings("d4_R22")
    ctx = preset.ctx
    for name in ("3_1", "4_1"):
        braid = get_named_braid(name).braid
        assert compute_ts(preset.eyb, braid, normalized=True).value == ctx.one()
    hopf = compute_ts(preset.eyb, parse_braid("1 1"), normalized=True).value
    assert hopf == ctx.parse("1 + h*g*p^-1*q^-1")


def test_spec_json_round_trips():
    preset = preset_dressings("d3_R21")
    obj = diagonal_spec_to_json(preset.spec)
    assert obj["N"] == 3 and obj["J"] == [1, 3]
    again = diagonal_spec_from_json(preset.ctx, obj)
    assert again.s == preset.spec.s


def test_spec_validation():
    ctx = _jones_ctx()
    with pytest.raises(ValueError):
        DiagonalDressingSpec(ctx, 3, (1, 3), {(1, 3): "q"})
    with pytest.raises(ValueError):
        DiagonalDressingSpec(ctx, 3, (1, 1, 3))


def test_a_spec_that_names_one_pair_by_two_keys_is_refused():
    ctx = _jones_ctx()
    with pytest.raises(ParseError, match=re.escape(
            "spec.s: keys '3,1' and '03,1' name the same pair (3, 1)")):
        diagonal_spec_from_json(ctx, {"N": 4, "J": [1], "s": {"3,1": "p", "03,1": "q"}})


def test_a_bad_index_subset_is_refused_by_the_spec_and_its_json_form():
    ctx = _jones_ctx()
    for j in ((1, 1), (0, 2), (1, 5)):
        with pytest.raises(ValueError, match="bad index subset"):
            DiagonalDressingSpec(ctx, 3, j)
        with pytest.raises(ParseError, match="bad index subset"):
            diagonal_spec_from_json(ctx, {"N": 3, "J": list(j)})


def test_weights_outside_the_dimension_are_refused():
    ctx = _jones_ctx()
    for pair in ((0, 2), (2, 4), (7, 9)):
        with pytest.raises(ValueError, match=r"lies outside 1\.\.3"):
            DiagonalDressingSpec(ctx, 3, (1, 3), {pair: "q"})


def test_weights_are_read_as_matrix_entries_and_refused_from_another_context():
    """An int weight is read as a matrix entry is, and a Scalar of another
    context is refused when the spec is built, not later inside a product;
    a Scalar of an equal context is kept."""
    ctx = _jones_ctx()
    spec = DiagonalDressingSpec(ctx, 3, (1, 3), {(1, 2): -1, (2, 1): _jones_ctx().gen("q")})
    assert spec.s == {(1, 2): -ctx.one(), (2, 1): ctx.gen("q")}
    with pytest.raises(ValueError) as err:
        DiagonalDressingSpec(ctx, 3, (1, 3), {(2, 3): 0})
    assert str(err.value) == "swap weight for (2, 3) must be invertible"
    with pytest.raises(ContextMismatch, match=re.escape("swap weight for (1, 2) lies in")):
        DiagonalDressingSpec(ctx, 3, (1, 3), {(1, 2): ScalarContext(("q",)).gen("q")})


def test_dressed_eyb_refuses_a_weight_or_a_matrix_of_the_wrong_side():
    """A base weight of side other than |J|, or a dressed matrix of side
    other than N^2, raises DimensionMismatch in either mode, checked or
    not: a wider weight once raised a bare IndexError, and a narrower one
    or a wrong matrix gave an operator unchecked."""
    ctx = _jones_ctx()
    base_op = get_table1_entry("R2.1", 1).build(ctx=ctx)
    cases = (
        (DiagonalDressingSpec(ctx, 3, (1,)), 9, "base weight has side 2, not |J| = 1"),
        (DiagonalDressingSpec(ctx, 4, (1, 2, 3)), 16, "base weight has side 2, not |J| = 3"),
        (DiagonalDressingSpec(ctx, 3, (1, 3)), 4, "dressed matrix has side 4, not N^2 = 9"),
    )
    for spec, side, message in cases:
        for mode in ("trivial", "nontrivial"):
            for check in (True, False):
                with pytest.raises(DimensionMismatch) as err:
                    dressed_eyb(base_op, SquareMatrix.identity(ctx, side), spec, mode=mode,
                                check=check)
                assert str(err.value) == message


def test_dressed_eyb_refuses_a_weight_a_mode_or_an_operator_it_cannot_take():
    """Nontrivial padding of a diagonal dressing over a base weight that is
    not diagonal, a mode that is neither trivial nor nontrivial, and, when
    checked, an extended operator that fails an enhancement condition."""
    ctx = _jones_ctx()
    base_op = get_table1_entry("R2.1", 1).build(ctx=ctx)
    spec = DiagonalDressingSpec(ctx, 3, (1, 3), {(2, 2): "q"})
    dressed = dress_diagonal(_base_in(ctx), spec)
    sheared = EnhancedOperator(base_op.r, SquareMatrix.from_rows(ctx, [[1, 1], [0, 1]]),
                               base_op.alpha, base_op.beta)
    with pytest.raises(PreconditionViolation) as err:
        dressed_eyb(sheared, dressed, spec, mode="nontrivial")
    assert str(err.value) == "nontrivial diagonal dressing requires a diagonal base weight"
    with pytest.raises(UnknownName) as err:
        dressed_eyb(base_op, dressed, spec, mode="both")
    assert str(err.value) == "mode must be 'trivial' or 'nontrivial', got 'both'"
    # the identity weight fails the partial-trace condition on R2.1's R
    plain = EnhancedOperator(base_op.r, SquareMatrix.identity(ctx, 2), base_op.alpha, base_op.beta)
    with pytest.raises(PreconditionViolation) as err:
        dressed_eyb(plain, dressed, spec, mode="trivial")
    assert str(err.value) == "dressed operator fails condition trace2"
    unchecked = dressed_eyb(plain, dressed, spec, mode="trivial", check=False)
    assert verify_eyb(unchecked).condition == "trace2"


def test_dressed_eyb_refuses_a_sign_other_than_plus_or_minus_before_any_work():
    """In either mode, and ahead of the mode check; the nontrivial mode once
    took any sign but '+' as '-' and failed on the padding instead."""
    preset = preset_dressings("d3_R21")
    base_op = get_table1_entry("R2.1", 1).build(ctx=preset.ctx)
    for mode in ("trivial", "nontrivial", "both"):
        with pytest.raises(UnknownName) as err:
            dressed_eyb(base_op, preset.matrix, preset.spec, mode=mode, sign="x")
        assert str(err.value) == "sign must be '+' or '-', got 'x'"


def test_d3_r21_separates_two_links_that_jones_and_d4_r22_do_not():
    """Two 4-component closures on 4 strands with one normalized R2.1/1
    value: the d3_R21 dressing tells them apart and d4_R22 does not."""
    a, b = parse_braid("-1 3 -1 3", 4), parse_braid("-1 1 -3 2 3 -2 -3 2", 4)
    assert a.closure_components() == b.closure_components() == 4
    jones = get_table1_entry("R2.1", 1).build()
    assert compute_ts(jones, a, normalized=True).value == compute_ts(jones, b, normalized=True).value
    d3, d4 = (preset_dressings(name).eyb for name in ("d3_R21", "d4_R22"))
    assert compute_ts(d3, a).value != compute_ts(d3, b).value
    assert compute_ts(d4, a).value == compute_ts(d4, b).value


def _knots_and_braids():
    """The named knots and 20 distinct seeded knots of 2 to 4 strands; the
    named links and 20 seeded braids of 2 to 4 strands."""
    from ybtrace.braid import KNOT_NAMES, NAMED_LINKS

    words = [b for b in _random_words(random.Random(5), 200, 4, 8) if b.strands > 1]
    seeded = list(dict.fromkeys(b for b in words if b.closure_components() == 1
                                and len(b.letters) > 1))[:20]
    knots = [get_named_braid(name).braid for name in KNOT_NAMES] + seeded
    assert len(knots) == 25 and all(b.closure_components() == 1 for b in knots)
    braids = [get_named_braid(name).braid for name in NAMED_LINKS] + words[:20]
    return knots, braids


def test_a_nontrivial_diagonal_dressing_adds_n_minus_j_on_knots():
    """The paper's third claim on knots: a diagonal dressing carries each
    label outside J along its strand, so a knot's dressed trace is the base
    operator's raw value plus one sector per outside label, each
    s_aa^w beta^n alpha^-w beta^-n = 1 in nontrivial mode, where s_aa =
    alpha and mu is padded with beta: N - |J| on every preset.  With sign
    '-', s_aa = -alpha and the padding -beta, each outside sector gives
    (-1)^(w+n) = -1 on a knot.  Trivial mode pads mu with zeros and gives
    the base value on every braid.  The spec of ``tests/inputs/dress_spec.json``,
    built as ``dress --file`` builds it over R2.1/1, adds N - |J| = 1."""
    knots, braids = _knots_and_braids()
    for name in preset_names():
        preset = preset_dressings(name)
        base = get_table1_entry(preset.base_rmatrix, preset.base_row).build(ctx=preset.ctx)
        outside = preset.spec.n - len(preset.spec.j)
        for b in knots:
            expected = compute_ts(base, b).value + outside
            assert compute_ts(preset.eyb, b).value == expected, (name, b)
        trivial = dressed_eyb(base, preset.matrix, preset.spec, mode="trivial")
        for b in braids:
            assert compute_ts(trivial, b).value == compute_ts(base, b).value, (name, b)
    ctx = _jones_ctx()
    base = get_table1_entry("R2.1", 1).build(ctx=ctx)
    spec = DiagonalDressingSpec(ctx, 3, (1, 3), {(2, 2): "-sqrt_pq^-1"})
    op = dressed_eyb(base, dress_diagonal(_base_in(ctx), spec), spec, mode="nontrivial", sign="-")
    for b in knots:
        assert compute_ts(op, b).value == compute_ts(base, b).value - 1, b
    ctx = context_from_json(json.loads((INPUTS / "dress_context.json").read_text()))
    spec = diagonal_spec_from_json(ctx, json.loads((INPUTS / "dress_spec.json").read_text()))
    entry = get_table1_entry("R2.1", 1)
    base = entry.build(ctx=ctx)
    dressed = dress_diagonal(restricted_matrix(entry.rmatrix, entry.restrictions, ctx), spec)
    op = dressed_eyb(base, dressed, spec, mode="nontrivial", sign="+")
    assert spec.n - len(spec.j) == 1
    for b in knots:
        assert compute_ts(op, b).value == compute_ts(base, b).value + 1, b


def _linking_number(braid):
    """Half the signed count of the crossings between two components of the
    closure, the components followed position by position."""
    where = list(range(braid.strands))
    for letter in braid.letters:
        i = abs(letter) - 1
        where[i], where[i + 1] = where[i + 1], where[i]
    ends = {start: position for position, start in enumerate(where)}
    component, first = {}, 0
    for start in range(braid.strands):
        position = start
        while position not in component:
            component[position] = first
            position = ends[position]
        first += 1
    count, where = 0, list(range(braid.strands))
    for letter in braid.letters:
        i = abs(letter) - 1
        if component[where[i]] != component[where[i + 1]]:
            count += 1 if letter > 0 else -1
        where[i], where[i + 1] = where[i + 1], where[i]
    assert count % 2 == 0
    return count // 2


def test_d4_r22_is_two_plus_twice_a_power_of_gh_over_pq_on_two_component_links():
    """On a 2-component link the J sector of d4_R22 is 0 and the outside
    and mixed sectors leave 2 + 2 (gh/(pq))^lk, lk the linking number: on
    the Hopf link and 80 seeded 2-component links of 2 to 4 strands with
    letters of both signs."""
    preset = preset_dressings("d4_R22")
    ratio = preset.ctx.parse("g*h*p^-1*q^-1")
    links = [b for b in _mixed_words(random.Random(11), 400, 4, 8)
             if b.closure_components() == 2][:80]
    assert len(links) == 80
    assert _linking_number(parse_braid("1 1")) == 1
    for b in [parse_braid("1 1")] + links:
        expected = 2 + 2 * ratio ** _linking_number(b)
        assert compute_ts(preset.eyb, b).value == expected, b
