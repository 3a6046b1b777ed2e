"""Dressed operators by color sectors, against an oracle that keeps the
diagonal insertions.

The graded R of a diagonal dressing is a weighted swap on every pair of
labels with one outside the block J, so ``compute_ts`` sums over the
colorings of the closure's components by the outside labels and J, and
evaluates J's sectors by ``compute_ts`` of the block operator op_J on the
word of J's strands, each crossing of J with an outside label a constant
(``invariant._graded``, ``invariant._coloring_trace``).
``oracles.dressed_sectors`` evaluates each sector on J's strands with the
crossings' diagonal weights inserted as they come, with no gauge, and the
whole word's matrix (``_matrix_path``) closes the dressed operator itself.
"""

import json
import random
from pathlib import Path

import pytest

from oracles import dressed_sectors
from test_invariant import _block_operator, _matrix_path, _mixed_words, _outcome, _route, _torus

from ybtrace import invariant
from ybtrace.braid import NAMED_LINKS, BraidWord, get_named_braid
from ybtrace.dressing import (
    diagonal_spec_from_json, dress_diagonal, dressed_eyb, preset_dressings, preset_names,
)
from ybtrace.errors import ExponentOverflow, PreconditionViolation, StrandBoundViolation
from ybtrace.eyb import EnhancedOperator, get_table1_entry
from ybtrace.catalog import restricted_matrix
from ybtrace.invariant import compute_ts
from ybtrace.ring import context_from_json, pow_int
from ybtrace.tables import _target
from ybtrace.tensor import MAX_STATES, SquareMatrix

INPUTS = Path(__file__).resolve().parent / "inputs"
# the dressings of R2.2/1, whose block operator closes to 0, but for the
# spec-file ones, labelled "R2.2 ..."
VANISHING_BLOCKS = ("d3_R22", "d4_R22", "d4")


def _block(spec):
    return [j - 1 for j in spec.j]


def _spec_file_dressings():
    """(label, operator, block) for ``tests/inputs/dress_spec.json`` built as
    ``dress --file`` builds it over R2.1/1 and R2.2/1 with each sign, in
    both modes; the compatibility and enhancement checks are skipped, as
    ``--no-check`` skips them, since the spec's weights are R2.1's.  R2.2/1
    in nontrivial mode is refused: its s_22 is not alpha."""
    ctx = context_from_json(json.loads((INPUTS / "dress_context.json").read_text()))
    spec = diagonal_spec_from_json(ctx, json.loads((INPUTS / "dress_spec.json").read_text()))
    ops = []
    for name in ("R2.1", "R2.2"):
        entry = get_table1_entry(name, 1)
        dressed = dress_diagonal(restricted_matrix(entry.rmatrix, entry.restrictions, ctx), spec,
                                 check=False)
        for sign in "+-":
            for mode in ("trivial", "nontrivial"):
                base = entry.build(sign, ctx=ctx)
                if name == "R2.2" and mode == "nontrivial":
                    with pytest.raises(PreconditionViolation):
                        dressed_eyb(base, dressed, spec, mode=mode, sign=sign, check=False)
                    continue
                op = dressed_eyb(base, dressed, spec, mode=mode, sign=sign, check=False)
                ops.append((f"{name} {mode} {sign}", op, _block(spec)))
    return ops


def _dressings():
    """The presets, the collapsed ``d3`` and ``d4`` operators of tables 2-4,
    the spec-file dressings, and d3_R21 with alpha negated and beta = 2, a
    unit other than 1, whose sectors each carry beta^(k - n)."""
    ops = [(name, preset_dressings(name).eyb, _block(preset_dressings(name).spec))
           for name in preset_names()]
    ops += [(collapse, _target(collapse)[1], _block(preset_dressings(preset).spec))
            for collapse, preset in (("d3", "d3_R21"), ("d4", "d4_R22"))]
    ops += _spec_file_dressings()
    d3 = preset_dressings("d3_R21").eyb
    ops.append(("d3_R21, -alpha, beta 2", EnhancedOperator(d3.r, d3.mu, -d3.alpha, 2 * d3.beta),
                [0, 2]))
    return ops


def _words():
    """The named links, 40 seeded words of 1 to 5 strands with letters of
    both signs, and T(p, p+1) for p <= 4."""
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += [BraidWord(1), BraidWord(3), BraidWord(2, (-1,)), BraidWord(4, (3,))]
    words += _mixed_words(random.Random(38), 36, 5, 8)
    return words + [_torus(p, p + 1) for p in range(2, 5)]


def _by_sectors(op, block, b):
    """alpha^-w beta^-n times the sum of the oracle's sectors."""
    sectors = dressed_sectors(op, block, b)
    total = sum(sectors.values(), op.ctx.zero())
    return pow_int(op.alpha, -b.writhe) * total * pow_int(op.beta, -b.strands), sectors


def test_compute_ts_matches_the_sector_oracle_and_the_matrix_path_on_every_dressing():
    """Every dressing takes the sector route and matches the oracle's
    sectors and the whole word's matrix on the named links, seeded mixed
    words and torus knots; each sector of a vanishing-block preset with a
    J component is 0."""
    words = _words()
    for label, op, block in _dressings():
        vanishing = label in VANISHING_BLOCKS or label.startswith("R2.2")
        for b in words:
            value = compute_ts(op, b).value
            summed, sectors = _by_sectors(op, block, b)
            assert value == summed, (label, b)
            assert value == _matrix_path(op, b), (label, b)
            if vanishing:
                assert all(v.is_zero() for colors, v in sectors.items() if None in colors), b
        assert _route(op) == "sectors", label
        assert _route(_block_operator(op)) == ("vanishing" if vanishing else "closure")


def test_torus_knots_up_to_the_strand_cap_match_the_sector_oracle():
    """T(p, p+1) up to the strand cap, 6 strands at base 4 and 7 at base 3,
    against the oracle, which works at base 2 on J's strands; the whole
    word's matrix joins below 1024 states."""
    for label, op, block in _dressings()[:5]:  # the presets and the collapsed operators
        base = op.base_dim
        cap = max(n for n in range(1, 13) if base ** n <= MAX_STATES)
        for p in range(5, cap + 1):
            b = _torus(p, p + 1)
            value = compute_ts(op, b).value
            assert value == _by_sectors(op, block, b)[0], (label, p)
            if base ** p <= 1024:
                assert value == _matrix_path(op, b), (label, p)
        with pytest.raises(StrandBoundViolation):
            compute_ts(op, _torus(cap + 1, cap + 2))


def _fresh_preset(name):
    """A fresh operator equal to the preset's, with nothing kept on it."""
    op = preset_dressings(name).eyb
    return EnhancedOperator(op.r, op.mu, op.alpha, op.beta)


def test_the_vanishing_block_presets_need_no_state_sum_up_to_the_cap(monkeypatch):
    """With the half-word closure patched to raise, d4_R22 and d3_R22 still
    answer the named links and seeded words of up to the strand cap, as the
    oracle does; 7 strands of d4_R22 still raise StrandBoundViolation,
    every time, keeping only the verdict."""
    def refuse(*args):
        raise AssertionError("a state sum ran")

    rng = random.Random(6)
    for name, cap in (("d4_R22", 6), ("d3_R22", 7)):
        op = _fresh_preset(name)
        words = [get_named_braid(link).braid for link in NAMED_LINKS]
        words += [b for b in _mixed_words(rng, 60, cap, 12) if b.closure_components() <= 3][:20]
        words.append(_torus(cap, cap + 1))
        assert max(b.strands for b in words) == cap
        expected = {b: _by_sectors(op, _block(preset_dressings(name).spec), b)[0] for b in words}
        monkeypatch.setattr(invariant, "_half_word_closure", refuse)
        for b in words:
            assert compute_ts(op, b).value == expected[b], (name, b)
        monkeypatch.undo()
    op = _fresh_preset("d4_R22")
    monkeypatch.setattr(invariant, "_half_word_closure", refuse)
    for _ in range(2):
        with pytest.raises(StrandBoundViolation, match="4\\^7 states, above the cap"):
            compute_ts(op, _torus(7, 8))
    assert set(op._closure) == {"route"} and _route(op) == "sectors"


def _with_swaps(op, weights):
    """``op`` with R's swap entries R[(ab), (ba)] replaced by ``weights``,
    {(a, b): text}."""
    base, ctx = op.base_dim, op.ctx
    entries = dict(op.r.entries)
    for (a, b), text in weights.items():
        entries[a * base + b, b * base + a] = ctx.parse(text)
    return EnhancedOperator(SquareMatrix(ctx, op.r.side, entries), op.mu, op.alpha, op.beta)


def _non_commuting_block():
    """Base 4 with J = {0, 1, 2}: R_J swaps and sends (02) to (11) too, and
    the outside label 3 has g_3 = (1, 1, p) with P_3 = 1, so that
    g_3 (x) g_3 does not commute with R_J: g_3(1)^2 = 1, g_3(0) g_3(2) = p."""
    ctx = preset_dressings("d3_R21").ctx
    one = ctx.one()
    entries = {(a * 4 + b, b * 4 + a): one for a in range(4) for b in range(4)}
    entries[1 * 4 + 1, 0 * 4 + 2] = ctx.parse("q")
    entries[2 * 4 + 3, 3 * 4 + 2] = ctx.parse("p")
    entries[3 * 4 + 2, 2 * 4 + 3] = ctx.parse("p^-1")
    mu = SquareMatrix.diagonal(ctx, [one, ctx.parse("q"), ctx.parse("a"), ctx.parse("b")])
    return EnhancedOperator(SquareMatrix(ctx, 16, entries), mu, one, one)


def _gate_witnesses():
    """One operator per gate condition that fails it alone: (condition,
    operator).  The first three change d3_R21's swaps with the outside
    label 1 (g_1 = R[(x1), (1x)], h_1 = R[(1x), (x1)] over J = {0, 2})."""
    d3 = preset_dressings("d3_R21").eyb
    ctx = d3.ctx
    unit_beta = EnhancedOperator(d3.r, SquareMatrix.diagonal(ctx, [
        ctx.parse("1+p") * d3.mu.get(x, x) for x in range(3)]), d3.alpha, ctx.parse("1+p"))
    return [
        ("P_o constant", _with_swaps(d3, {(2, 1): "b*y"})),
        ("g_o (x) g_o commutes with R_J", _non_commuting_block()),
        ("unit weights", _with_swaps(d3, {(0, 1): "(1+b)*y", (2, 1): "(1+b)"})),
        ("unit beta", unit_beta),
    ]


def test_an_operator_failing_one_condition_of_the_sector_gate_keeps_the_state_sum():
    """Each witness fails exactly one condition: P_o varies over J, g_o (x)
    g_o does not commute with R_J, a weight is no unit, beta is no unit.
    Each keeps the half-word closure, with the closure's value and the
    whole word's matrix's, or their error (R^-1 leaves the ring with a
    weight that is no unit), on the named links, seeded mixed words and
    torus knots."""
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += _mixed_words(random.Random(9), 20, 4, 7) + [_torus(p, p + 1) for p in (2, 3, 4)]
    for condition, op in _gate_witnesses():
        values = 0
        for b in words:
            got = _outcome(lambda: compute_ts(op, b).value)
            assert got == _outcome(lambda: invariant._closure(op, b, 0)), (condition, b)
            assert got == _outcome(lambda: _matrix_path(op, b)), (condition, b)
            values += got[0] == "value"
        assert values >= 9, condition
        assert _route(op) == "closure", condition


def test_a_vanishing_block_colors_no_component(monkeypatch):
    """d4, d3_R22 and d4_R22, fresh, with ``_block_trace`` patched to raise:
    their J colorings are dropped before they are enumerated, as every J
    sector is 0, and the named links, seeded mixed words and T(p, p+1)
    give the sector oracle's values."""
    def refuse(*args):
        raise AssertionError("a J sector was taken")

    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += _mixed_words(random.Random(39), 12, 4, 8) + [_torus(p, p + 1) for p in (2, 3, 4)]
    ops = [(name, op, block) for name, op, block in _dressings() if name in VANISHING_BLOCKS]
    assert [name for name, _, _ in ops] == ["d3_R22", "d4_R22", "d4"]
    expected = {(name, b): _by_sectors(op, block, b)[0] for name, op, block in ops for b in words}
    monkeypatch.setattr(invariant, "_block_trace", refuse)
    for name, op, _ in ops:
        fresh = EnhancedOperator(op.r, op.mu, op.alpha, op.beta)
        for b in words:
            assert compute_ts(fresh, b).value == expected[name, b], (name, b)
        assert _route(_block_operator(fresh)) == "vanishing", name


def test_a_vanishing_block_raises_no_power_of_alpha_for_a_sub_word():
    """d3_R22 with R and alpha scaled by lambda = a^800, but for the outside
    label's own weight R[(11), (11)]: its J sectors still vanish, and its
    value on a word of writhe 5 whose J-colorable component has writhe 7
    is lambda^-5 times d3_R22's, which the whole word's matrix gives.
    Before J colorings were dropped, that component's sector raised
    ExponentOverflow, from alpha^-7 on the block operator's route, though
    the sector is 0."""
    d3 = _fresh_preset("d3_R22")
    ctx = d3.ctx
    lam = ctx.gen("a", 800)
    entries = {key: x if key == (4, 4) else lam * x for key, x in d3.r.entries.items()}
    op = EnhancedOperator(SquareMatrix(ctx, 9, entries), d3.mu, lam * d3.alpha, d3.beta)
    b = BraidWord(3, (1,) * 7 + (-2, -2))
    assert (b.writhe, b.closure_components()) == (5, 2)
    value = compute_ts(op, b).value
    assert value == pow_int(lam, -5) * compute_ts(d3, b).value
    assert compute_ts(d3, b).value == _matrix_path(d3, b) != 0
    op_j = _block_operator(op)
    assert _route(op_j) == "vanishing"
    with pytest.raises(ExponentOverflow):
        compute_ts(op_j, BraidWord(2, (1,) * 7))
