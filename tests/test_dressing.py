"""Dressings: assembly, compatibility conditions, extended operators, presets."""

import random
import re

import pytest

from oracles import ybe_residuals
from test_invariant import _random_words

from ybtrace.braid import get_named_braid, parse_braid
from ybtrace.catalog import check_ybe, get_rmatrix
from ybtrace.dressing import (
    BlockDressingSpec,
    DiagonalDressingSpec,
    diagonal_spec_from_json,
    diagonal_spec_to_json,
    dress_block,
    dress_diagonal,
    dressed_eyb,
    preset_dressings,
    preset_names,
)
from ybtrace.errors import ConditionViolation, ParseError, PreconditionViolation, UnknownName
from ybtrace.eyb import EnhancedOperator, get_table1_entry, verify_eyb
from ybtrace.invariant import compute_ts, unknot_value
from ybtrace.ring import ScalarContext
from ybtrace.tensor import SquareMatrix, invert, matrix_substitute


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


def test_block_identity_dressing():
    ctx = _jones_ctx()
    spec = BlockDressingSpec(ctx, 3, (1, 3))
    dressed = dress_block(_base_in(ctx), spec, check=True)
    assert check_ybe(dressed)


def test_block_diagonal_f_with_inverse_g():
    ctx = ScalarContext(("p", "q", "u", "v"), (("sqrt_pq", "p*q"),))
    f = SquareMatrix.diagonal(ctx, ["u", "v"])
    spec = BlockDressingSpec(ctx, 3, (1, 3), f, invert(f))
    dressed = dress_block(_base_in(ctx), spec, check=True)
    assert ybe_residuals(dressed, 3) == {}


def test_block_noncommuting_f_rejected():
    ctx = _jones_ctx(("u", "v"))
    shear = SquareMatrix.from_rows(ctx, [[1, 1], [0, 1]])
    diag = SquareMatrix.diagonal(ctx, ["u", "v"])
    swap = SquareMatrix.from_rows(ctx, [[0, 1], [1, 0]])
    cases = (
        (shear, invert(shear), "F (x) F does not commute with the base", (0, 1)),
        (None, shear, "G (x) G does not commute with the base", (0, 1)),
        (swap, diag, "F (x) F does not commute with the base", (1, 1)),
        (diag, diag, "mixed F/G exchange fails", (1, 1)),
    )
    for f, g, message, index in cases:
        spec = BlockDressingSpec(ctx, 3, (1, 3), f, g)
        with pytest.raises(ConditionViolation) as err:
            dress_block(_base_in(ctx), spec, check=True)
        assert str(err.value) == f"{message} at indices {index}"
        assert err.value.indices == index


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
    with pytest.raises(ValueError):
        BlockDressingSpec(ctx, 3, (1, 3), f={(1, 2): "q"})


def test_a_spec_that_names_one_pair_by_two_keys_is_refused():
    ctx = _jones_ctx()
    with pytest.raises(ParseError, match=re.escape(
            "spec.s: keys '3,1' and '03,1' name the same pair (3, 1)")):
        diagonal_spec_from_json(ctx, {"N": 4, "J": [1], "s": {"3,1": "p", "03,1": "q"}})


def test_block_spec_checks_j_and_block_sides_like_a_diagonal_spec():
    ctx = _jones_ctx()
    for j in ((1, 1), (0, 2), (1, 5)):
        for spec_class in (DiagonalDressingSpec, BlockDressingSpec):
            with pytest.raises(ValueError, match="bad index subset"):
                spec_class(ctx, 3, j)
        with pytest.raises(ParseError, match="bad index subset"):
            diagonal_spec_from_json(ctx, {"N": 3, "J": list(j)})
    one, two = SquareMatrix.identity(ctx, 1), SquareMatrix.identity(ctx, 2)
    for blocks in ((one, two), (two, one)):
        with pytest.raises(ValueError, match=r"has side ., not \|J\| = 2"):
            BlockDressingSpec(ctx, 3, (1, 3), *blocks)


def test_weights_outside_the_dimension_are_refused():
    ctx = _jones_ctx()
    for pair in ((0, 2), (2, 4), (7, 9)):
        with pytest.raises(ValueError, match=r"lies outside 1\.\.3"):
            DiagonalDressingSpec(ctx, 3, (1, 3), {pair: "q"})
        with pytest.raises(ValueError, match=r"lies outside 1\.\.3"):
            BlockDressingSpec(ctx, 3, (1, 3), f={pair: "q"})


def test_nontrivial_block_padding_needs_commuting_blocks_and_alpha_weights():
    ctx = _jones_ctx()
    base_op = get_table1_entry("R2.1", 1).build(ctx=ctx)
    shear = SquareMatrix.from_rows(ctx, [[1, 1], [0, 1]])
    cases = (
        (BlockDressingSpec(ctx, 3, (1, 3), shear), "F must commute with the base weight"),
        (BlockDressingSpec(ctx, 3, (1, 3), g_block=shear), "G must commute with the base weight"),
        (BlockDressingSpec(ctx, 3, (1, 3), f={(2, 2): "q"}),
         "f_22 must equal +alpha for nontrivial padding"),
    )
    for spec, message in cases:
        dressed = dress_block(_base_in(ctx), spec, check=False)
        with pytest.raises(PreconditionViolation) as err:
            dressed_eyb(base_op, dressed, spec, mode="nontrivial")
        assert str(err.value) == message
    spec = BlockDressingSpec(ctx, 3, (1, 3), f={(2, 2): "sqrt_pq^-1"})
    op = dressed_eyb(base_op, dress_block(_base_in(ctx), spec), spec, mode="nontrivial")
    assert verify_eyb(op) and op.mu.get(1, 1) == base_op.beta


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
    """The named knots and 14 distinct seeded knots of 2 to 4 strands; the
    named links and 20 seeded braids of 2 to 4 strands."""
    from ybtrace.braid import KNOT_NAMES, NAMED_LINKS

    words = [b for b in _random_words(random.Random(5), 100, 4, 8) if b.strands > 1]
    seeded = list(dict.fromkeys(b for b in words if b.closure_components() == 1
                                and len(b.letters) > 1))[:14]
    knots = [get_named_braid(name).braid for name in KNOT_NAMES] + seeded
    assert len(knots) == 19 and all(b.closure_components() == 1 for b in knots)
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
    the base value on every braid."""
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
