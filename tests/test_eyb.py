"""Enhanced operators: conditions, the registry rows, variants."""

import re

import pytest

from ybtrace import eyb, invariant
from ybtrace.braid import NAMED_LINKS, BraidWord, get_named_braid
from ybtrace.eyb import (
    EnhancedOperator,
    TABLE1,
    eyb_from_json,
    eyb_to_json,
    get_table1_entry,
    get_table1_eyb,
    sign_variants,
    verify_eyb,
)
from ybtrace.errors import DimensionMismatch, NotAUnit, ParseError, UnknownName, UnknownRow
from ybtrace.invariant import alexander_nabla, classification_report, compute_ts
from ybtrace.ring import ScalarContext, pow_int
from ybtrace.tables import run_table
from ybtrace.tensor import SquareMatrix, invert, kron, matadd, matmul, scalar_scale


def test_registry_covers_all_cases():
    assert len(TABLE1) == 23
    per_matrix = {}
    for entry in TABLE1:
        per_matrix[entry.rmatrix] = per_matrix.get(entry.rmatrix, 0) + 1
    assert per_matrix == {
        "R3.1": 4, "R2.1": 5, "R2.2": 3, "R2.3": 1,
        "R1.1": 5, "R1.2": 3, "R1.3": 1, "R1.4": 1,
    }


@pytest.mark.parametrize("entry", TABLE1, ids=lambda e: f"{e.rmatrix}-r{e.row}")
@pytest.mark.parametrize("sign", ["+", "-"])
def test_every_row_verifies(entry, sign):
    assert verify_eyb(entry.build(sign))


def test_jones_row_values():
    op = get_table1_eyb("R2.1", 1)
    ctx = op.ctx
    assert op.mu == SquareMatrix.diagonal(ctx, ["sqrt_pq", "sqrt_pq^-1"])
    assert op.alpha == ctx.parse("sqrt_pq^-1")
    assert verify_eyb(op)


def test_r22_alexander_row():
    op = get_table1_eyb("R2.2", 1)
    ctx = op.ctx
    assert op.mu == SquareMatrix.diagonal(ctx, ["sqrt_pq^-1", "-sqrt_pq^-1"])
    assert op.alpha == ctx.parse("sqrt_pq")
    assert verify_eyb(op)


def test_r31_first_row_applies_restriction():
    op = get_table1_eyb("R3.1", 1)
    # s was replaced by 1, so the corner entry is 1 and s is gone
    assert "s" not in op.ctx.generators
    assert op.r.get(3, 3) == op.ctx.one()
    assert op.mu == SquareMatrix.identity(op.ctx, 2)


def test_r12_first_row_uses_sqrt_q():
    op = get_table1_eyb("R1.2", 1)
    ctx = op.ctx
    assert op.mu == SquareMatrix.diagonal(ctx, ["sqrt_q^-1", "-sqrt_q^-1"])
    assert op.alpha == ctx.gen("sqrt_q")


def test_r13_row_shape():
    op = get_table1_eyb("R1.3", 1)
    ctx = op.ctx
    assert op.mu.get(0, 1) == ctx.parse("-(1+q)")
    assert op.mu.get(1, 0).is_zero()


def test_wrong_alpha_fails_trace_condition():
    entry = get_table1_entry("R2.1", 1)
    op = entry.build()
    wrong = EnhancedOperator(op.r, op.mu, op.ctx.one(), op.beta)
    verdict = verify_eyb(wrong)
    assert not verdict
    assert verdict.condition == "trace2"
    assert not verdict.residual.is_zero()


@pytest.mark.parametrize("rmatrix, row, alpha, beta, condition, residual", [
    ("R2.1", 1, "1", "1", "trace2",
     {(0, 0): "1 - sqrt_pq", (1, 1): "p^-1*q^-1 - p^-1*q^-1*sqrt_pq"}),
    ("R2.1", 1, "2*sqrt_pq^-1", "1/2", "trace2-inverse",
     {(0, 0): "3/4*p*q", (1, 1): "3/4"}),
    ("R1.1", 2, "2*i", "1", "trace2",
     {(0, 0): "(1-i) + (1-i)*q", (0, 1): "(1-i)*sqrt_1mq2",
      (1, 0): "(1-i)*sqrt_1mq2", (1, 1): "(1-i) + (-1+i)*q"}),
])
def test_failing_condition_pins_the_residual(rmatrix, row, alpha, beta, condition, residual):
    op = get_table1_eyb(rmatrix, row)
    verdict = verify_eyb(
        EnhancedOperator(op.r, op.mu, op.ctx.parse(alpha), op.ctx.parse(beta)))
    assert verdict.condition == condition
    assert verdict.residual == SquareMatrix(
        op.ctx, 2, {key: op.ctx.parse(text) for key, text in residual.items()})


def test_alpha_must_be_invertible():
    op = get_table1_eyb("R2.1", 1)
    bad = EnhancedOperator(op.r, op.mu, op.ctx.parse("1 + p"), op.beta)
    with pytest.raises(NotAUnit):
        verify_eyb(bad)
    zero_beta = EnhancedOperator(op.r, op.mu, op.alpha, op.ctx.zero())
    with pytest.raises(NotAUnit, match="beta must be nonzero"):
        verify_eyb(zero_beta)


def test_unknown_row():
    with pytest.raises(UnknownRow):
        get_table1_eyb("R2.1", 9)


def test_sign_variants_verify_and_involute():
    op = get_table1_eyb("R2.1", 1)
    s1, s2, s3 = sign_variants(op)
    for variant in (s1, s2, s3):
        assert verify_eyb(variant)
    again, _, _ = sign_variants(s1)
    assert again.r == op.r and again.mu == op.mu
    assert again.alpha == op.alpha and again.beta == op.beta


def test_intertwining_rows():
    """``intertwine`` is set on the 14 rank-one rows: (mu x mu) R = c (mu x mu)
    for both signs, with c a unit.  On every row and sign it is set exactly
    where compute_ts finds an eigenvalue of R for v (x) v, and equals it."""
    expectations = {
        ("R3.1", 3): "1",
        ("R3.1", 4): "s",
        ("R2.1", 2): "1", ("R2.1", 3): "1", ("R2.1", 4): "1", ("R2.1", 5): "1",
        ("R2.2", 2): "1",
        ("R2.2", 3): "-p*q",
        ("R1.1", 2): "2", ("R1.1", 3): "2", ("R1.1", 4): "2", ("R1.1", 5): "2",
        ("R1.2", 2): "1", ("R1.2", 3): "1",
    }
    for entry in TABLE1:
        c_text = expectations.get((entry.rmatrix, entry.row))
        assert entry.intertwine == c_text, (entry.rmatrix, entry.row)
        for sign in "+-":
            op = entry.build(sign, ctx=entry.context())
            compute_ts(op, BraidWord(2, (1,)))
            verdict = invariant._structure(op)
            if c_text is None:
                assert verdict.route != "closed form", (entry.rmatrix, entry.row, sign)
                continue
            c = op.ctx.parse(c_text)
            assert c.is_unit() and verdict == invariant._Structure("closed form", c)
            mumu = kron(op.mu, op.mu)
            lhs = matmul(mumu, op.r)
            rhs = scalar_scale(mumu, c)
            assert lhs == rhs


def test_beta_rescaling_keeps_validity():
    for key in (("R2.1", 1), ("R2.1", 4), ("R1.3", 1), ("R1.2", 2)):
        entry = get_table1_entry(*key)
        ctx = entry.context()
        unit = ctx.gen(ctx.generators[0], -1)
        op = entry.build()
        assert verify_eyb(EnhancedOperator(op.r, scalar_scale(op.mu, unit), op.alpha,
                                           op.beta * unit))


def test_eyb_json_round_trip():
    op = get_table1_eyb("R2.2", 1)
    obj = eyb_to_json(op)
    assert obj["restrictions"] == []
    back = eyb_from_json(op.ctx, obj)
    assert back.r == op.r and back.mu == op.mu
    assert back.alpha == op.alpha and back.beta == op.beta


def test_eyb_from_json_refuses_a_position_listed_twice():
    op = get_table1_eyb("R2.2", 1)
    for key in ("r", "mu"):
        obj = eyb_to_json(op)
        listed = obj[key]["entries"]
        listed.append([*listed[0][:2], {"terms": [{"re": "7"}]}])
        with pytest.raises(ParseError, match=re.escape(
                f"operator.{key}: matrix.entries[{len(listed) - 1}]: position "
                f"({listed[0][0]}, {listed[0][1]}) is listed already at matrix.entries[0]")):
            eyb_from_json(op.ctx, obj)


def test_failing_commute_condition_returns_its_residual():
    op = get_table1_eyb("R2.1", 1)
    mu = SquareMatrix.from_rows(op.ctx, [[1, 1], [0, 1]])
    verdict = verify_eyb(EnhancedOperator(op.r, mu, op.alpha, op.beta))
    assert not verdict
    assert verdict.condition == "commute"
    mumu = kron(mu, mu)
    assert verdict.residual == matadd(matmul(op.r, mumu), scalar_scale(matmul(mumu, op.r), -1))
    assert not verdict.residual.is_zero()


def test_singular_r_failing_trace2_returns_a_verdict():
    # R commutes with mu (x) mu but is singular: the trace condition fails
    # before R would be inverted, so no NonInvertible is raised
    ctx = ScalarContext(("q",))
    r = SquareMatrix(ctx, 4, {(0, 0): ctx.one()})
    verdict = verify_eyb(EnhancedOperator(r, SquareMatrix.identity(ctx, 2), ctx.one(), ctx.one()))
    assert not verdict
    assert verdict.condition == "trace2"
    assert verdict.residual == SquareMatrix(ctx, 2, {(1, 1): ctx.scalar(-1)})


def test_eyb_from_json_refuses_a_dense_r_before_parsing(monkeypatch):
    from ybtrace import tensor

    def no_parsing(*args):
        raise AssertionError("a scalar was parsed")

    ctx = ScalarContext(("p", "q"))
    one = {"terms": [{"re": "1"}]}
    dense = {"side": 256, "entries": [[r, c, one] for r in range(256) for c in range(256)]}
    obj = {"r": dense, "mu": {"side": 16, "entries": []}, "alpha": one, "beta": one}
    monkeypatch.setattr(tensor, "scalar_from_json", no_parsing)
    with pytest.raises(DimensionMismatch, match="above the cap of 16384"):
        eyb_from_json(ctx, obj)


# -- the shared operators of Table1Entry.build -----------------------------------


def test_build_shares_one_operator_per_row_and_sign():
    for entry in TABLE1:
        for sign in "+-":
            op = get_table1_eyb(entry.rmatrix, entry.row, sign)
            assert op is get_table1_eyb(entry.rmatrix, entry.row, sign)
            assert op is entry.build(sign)
        assert entry.build("+") is not entry.build("-")


def test_build_with_beta_or_ctx_is_fresh_over_the_given_context():
    entry = get_table1_entry("R2.1", 1)
    ctx = ScalarContext(("p", "q", "x"), (("sqrt_pq", "p*q"),))
    wider = entry.build("-", ctx=ctx)
    assert wider is not entry.build("-", ctx=ctx)
    assert wider.ctx is ctx and wider.r.ctx is ctx and wider.alpha.ctx is ctx
    own = entry.build("-", ctx=entry.context())
    assert own is not entry.build("-") and own == entry.build("-")


def test_bad_sign_raises_every_time_and_stores_nothing():
    entry = get_table1_entry("R1.3", 1)
    before = dict(eyb._shared_ops)
    for _ in range(2):
        with pytest.raises(UnknownName, match="sign must be"):
            entry.build("x")
        with pytest.raises(UnknownName, match="sign must be"):
            get_table1_eyb("R1.3", 1, "")
    assert eyb._shared_ops == before


def test_shared_operators_survive_the_tables_and_match_fresh_builds():
    """Every caller through build(sign) leaves the shared operators as built,
    and they give the fresh operators' values on the named links and keep the
    fresh operators' closure constants: the route's one verdict, the
    unknot value's powers per strand count of the rank-one weights, the
    half-word closure's weight rows per strand and kept slot count, beta^k
    for k closed slots on every route, the transposed crossings and the
    coloring sum's terms of R^-1.  Each kept constant is replayed on the
    fresh operator by itself, by the call that keeps it, so whatever ran
    before on the shared operators, the two keep the same constants."""
    for sign in "+-":
        classification_report(sign=sign)
    for which in (2, 3, 4):
        assert run_table(which).ok
    alexander_nabla(get_named_braid("4_1").braid)
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    for entry in TABLE1:
        for sign in "+-":
            shared = entry.build(sign)
            fresh = entry.build(sign, ctx=entry.context())
            assert shared is not fresh
            assert shared.r == fresh.r and shared.mu == fresh.mu
            assert shared.alpha == fresh.alpha and shared.beta == fresh.beta
            if shared.r._inverse is not None:
                assert shared.r._inverse == invert(fresh.r)
            for word in words:
                assert compute_ts(shared, word).value == compute_ts(fresh, word).value
            for key in shared._closure:
                if key[0] == "unknot":  # the closed form's unknot^n
                    compute_ts(fresh, BraidWord(key[1]))
                elif key[0] == "rows":  # kept by the half-word closure alone
                    n, keep = key[1:]
                    invariant._half_word_closure(fresh, BraidWord(n), keep, fresh.base_dim ** n)
                elif key[0] == "transpose":
                    invariant._pullback(fresh, key[1])
                elif key == "route":  # the one verdict
                    invariant._structure(fresh)
                elif key[0] == "weights":  # the coloring sum's terms of R^-1
                    invariant._kept(fresh, key, invariant._inverse_weights, fresh,
                                    invariant._structure(fresh).params)
                elif key[0] == "beta":  # kept by the closure and the coloring sum alike
                    invariant._kept(fresh, key, pow_int, fresh.beta, key[1])
                else:
                    assert key == "unknot", key
            assert shared._closure == fresh._closure
