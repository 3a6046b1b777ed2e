"""Dressings: assembly, compatibility conditions, extended operators, presets."""

import pytest

from oracles import ybe_residuals

from ybtrace.braid import get_named_braid, parse_braid
from ybtrace.catalog import check_ybe, get_rmatrix
from ybtrace.dressing import (
    BlockDressingSpec,
    DiagonalDressingSpec,
    block_spec_from_json,
    block_spec_to_json,
    diagonal_spec_from_json,
    diagonal_spec_to_json,
    dress_block,
    dress_diagonal,
    dressed_eyb,
    preset_dressings,
    preset_names,
)
from ybtrace.errors import ConditionViolation, ParseError, PreconditionViolation
from ybtrace.eyb import get_table1_entry, verify_eyb
from ybtrace.invariant import compute_ts, unknot_value
from ybtrace.ring import ScalarContext
from ybtrace.tensor import SquareMatrix, invert, matrix_substitute, matrix_to_json


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
    assert check_ybe(preset.matrix, 3)
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
        assert check_ybe(preset.matrix, preset.spec.n)
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
    assert check_ybe(dressed, 3)


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
    ctx = _jones_ctx()
    block = BlockDressingSpec(ctx, 3, (1, 3), f={(2, 2): "q"})
    back = block_spec_from_json(ctx, block_spec_to_json(block))
    assert back.f == block.f and back.f_block == block.f_block


def test_spec_validation():
    ctx = _jones_ctx()
    with pytest.raises(ValueError):
        DiagonalDressingSpec(ctx, 3, (1, 3), {(1, 3): "q"})
    with pytest.raises(ValueError):
        DiagonalDressingSpec(ctx, 3, (1, 1, 3))
    with pytest.raises(ValueError):
        BlockDressingSpec(ctx, 3, (1, 3), f={(1, 2): "q"})


def test_block_spec_checks_j_and_block_sides_like_a_diagonal_spec():
    ctx = _jones_ctx()
    for j in ((1, 1), (0, 2), (1, 5)):
        for spec_class in (DiagonalDressingSpec, BlockDressingSpec):
            with pytest.raises(ValueError, match="bad index subset"):
                spec_class(ctx, 3, j)
        for loader in (diagonal_spec_from_json, block_spec_from_json):
            with pytest.raises(ParseError, match="bad index subset"):
                loader(ctx, {"N": 3, "J": list(j)})
    one, two = SquareMatrix.identity(ctx, 1), SquareMatrix.identity(ctx, 2)
    for blocks in ((one, two), (two, one)):
        with pytest.raises(ValueError, match=r"has side ., not \|J\| = 2"):
            BlockDressingSpec(ctx, 3, (1, 3), *blocks)
    with pytest.raises(ParseError, match="spec: G has side 1"):
        block_spec_from_json(ctx, {"N": 3, "J": [1, 3], "G": matrix_to_json(one)})


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
