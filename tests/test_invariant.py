"""Trace invariants, annihilating relations, skein sums, the one-variable
regularized invariant, classification."""

import pytest

from oracles import (
    conway_in_t,
    conway_polynomial,
    equal_up_to_unit,
    kron_power,
    trace_product,
)

from ybtrace import invariant
from ybtrace.braid import (
    NAMED_LINKS,
    BraidWord,
    conjugate,
    get_named_braid,
    parse_braid,
    stabilize,
)
from ybtrace.dressing import preset_dressings, preset_names
from ybtrace.errors import NotDivisible
from ybtrace.eyb import get_table1_entry, get_table1_eyb, table1_entries
from ybtrace.invariant import (
    ANNIHILATING_RELATIONS,
    SkeinFamily,
    alexander_nabla,
    braid_representation,
    check_skein_family,
    classification_report,
    compute_ts,
    get_relation,
    unknot_value,
    verify_annihilating,
)
from ybtrace.ring import ScalarContext, pow_int, substitute, try_div_exact
from ybtrace.tensor import SquareMatrix


@pytest.fixture(scope="module")
def jones():
    return get_table1_eyb("R2.1", 1)


def _collapse(value):
    target = ScalarContext(("t", "q"))
    return substitute(value, {"p": target.parse("t*q^-1")}, target), target


def test_unknot_value_jones(jones):
    raw = compute_ts(jones, BraidWord(1)).value
    assert raw == jones.ctx.parse("sqrt_pq + sqrt_pq^-1")
    assert raw == unknot_value(jones)


def test_trefoil_jones(jones):
    res = compute_ts(jones, parse_braid("1 1 1"), normalized=True)
    collapsed, target = _collapse(res.value)
    assert collapsed == target.parse("t + t^3 - t^4")


def test_figure_eight_jones(jones):
    res = compute_ts(jones, parse_braid("1 -2 1 -2"), normalized=True)
    collapsed, target = _collapse(res.value)
    assert collapsed == target.parse("t^-2 - t^-1 + 1 - t + t^2")


def test_unknot_via_one_crossing_word(jones):
    # the registry braid for the unknot and a stabilized representative agree
    direct = compute_ts(jones, BraidWord(1)).value
    stabilized = compute_ts(jones, parse_braid("1")).value
    assert direct == stabilized


def test_alexander_row_vanishes():
    op = get_table1_eyb("R2.2", 1)
    assert compute_ts(op, parse_braid("1 1 1")).value.is_zero()
    assert compute_ts(op, parse_braid("1 1")).value.is_zero()
    with pytest.raises(NotDivisible):
        compute_ts(op, parse_braid("1 1 1"), normalized=True)


def test_two_power_row_counts_components():
    op = get_table1_eyb("R2.3", 1)
    value = compute_ts(op, parse_braid("1 1")).value
    assert value == op.ctx.scalar(4)
    value = compute_ts(op, parse_braid("1 1 1")).value
    assert value == op.ctx.scalar(2)


def test_verify_annihilating_registry():
    for name, spec in ANNIHILATING_RELATIONS.items():
        ctx = spec.context()
        assert verify_annihilating(spec.matrix(ctx), spec.coeffs(ctx)), name


def test_verify_annihilating_specific_forms():
    ctx = ScalarContext(("p", "q"))
    r21 = get_relation("R2.1").matrix(ctx)
    assert verify_annihilating(
        r21, {1: ctx.one(), 0: ctx.parse("p*q-1"), -1: ctx.parse("-p*q")}
    )
    ident = SquareMatrix.identity(ctx, 4)
    assert verify_annihilating(ident, {1: ctx.one(), 0: ctx.parse("-1")})
    broken = verify_annihilating(r21, {1: ctx.one(), 0: ctx.one()})
    assert not broken
    assert not broken.residual.is_zero()


def test_skein_family_jones(jones):
    # the three-term relation, base one positive crossing on two strands
    ctx = jones.ctx
    fam = SkeinFamily(
        parse_braid("1 1"), 1,
        ((1, ctx.one()), (0, ctx.parse("p*q-1")), (-1, ctx.parse("-p*q"))),
    )
    assert check_skein_family(jones, fam)


def test_skein_family_r31():
    op = get_table1_eyb("R3.1", 1)
    ctx = op.ctx
    fam = SkeinFamily(
        parse_braid("1 -2 1", 3), 2,
        ((2, ctx.one()), (1, ctx.parse("-1")), (0, ctx.parse("-p*q")),
         (-1, ctx.parse("p*q"))),
    )
    assert check_skein_family(op, fam)


def test_skein_family_zero_coefficients(jones):
    fam = SkeinFamily(
        parse_braid("1"), 1, ((1, jones.ctx.zero()), (0, jones.ctx.zero()))
    )
    verdict = check_skein_family(jones, fam)
    assert verdict and verdict.residual is None


def test_skein_family_insert_position(jones):
    ctx = jones.ctx
    terms = ((1, ctx.one()), (0, ctx.parse("p*q-1")), (-1, ctx.parse("-p*q")))
    for at in (0, 1, 2):
        fam = SkeinFamily(parse_braid("1 1"), 1, terms, insert_at=at)
        assert check_skein_family(jones, fam)


def test_jones_against_bracket_state_sum():
    # independent oracle: planar bracket state sum, no matrices involved.
    # The '-' companion row is the bracket-normalized convention (normalized
    # values differ from the '+' row by (-1)^(components-1)), and matches
    # the oracle exactly under t -> A^-4.
    from oracles import bracket_jones
    from ybtrace.eyb import get_table1_eyb as build_row

    ctx_a = ScalarContext(("A",))
    op_minus = build_row("R2.1", 1, sign="-")
    target = ScalarContext(("t", "q"))
    bind = {"p": target.parse("t*q^-1")}
    for name in ("0_1", "3_1", "4_1", "5_2", "2^2_1", "5^2_1", "6^2_3"):
        link = get_named_braid(name)
        collapsed = substitute(
            compute_ts(op_minus, link.braid, normalized=True).value, bind, target
        )
        in_a = substitute(
            collapsed, {"t": ctx_a.parse("A^-4"), "q": ctx_a.one()}, ctx_a
        )
        oracle = bracket_jones(ctx_a, link.braid.strands, link.braid.letters)
        assert in_a == oracle, name
        # and the '+' row differs by exactly the companion sign
        plus = substitute(
            compute_ts(build_row("R2.1", 1), link.braid, normalized=True).value,
            bind, target,
        )
        plus_in_a = substitute(
            plus, {"t": ctx_a.parse("A^-4"), "q": ctx_a.one()}, ctx_a
        )
        sign = ctx_a.scalar((-1) ** (link.components - 1))
        assert plus_in_a == sign * oracle, name


# -- the regularized one-variable invariant ------------------------------------


def test_nabla_unknot():
    assert alexander_nabla(BraidWord(1)) == ScalarContext(("t",)).one()


def test_nabla_known_values_up_to_unit():
    ctx = ScalarContext(("t",))
    cases = {
        "2^2_1": "t - t^-1",
        "3_1": "t^2 - 1 + t^-2",
        "4_1": "3 - t^2 - t^-2",
        "5_1": "t^4 - t^2 + 1 - t^-2 + t^-4",
        "5_2": "2*t^2 - 3 + 2*t^-2",
    }
    for name, text in cases.items():
        value = alexander_nabla(get_named_braid(name).braid)
        assert equal_up_to_unit(value, ctx.parse(text)), name


def test_nabla_matches_skein_recursion_oracle():
    ctx = ScalarContext(("t",))
    for name in ("3_1", "4_1", "5_1", "5_2", "2^2_1"):
        braid = get_named_braid(name).braid
        oracle = conway_in_t(ctx, conway_polynomial(braid.strands, braid.letters))
        assert equal_up_to_unit(alexander_nabla(braid), oracle), name


def test_nabla_satisfies_skein_relation():
    ctx = ScalarContext(("t",))
    z = ctx.parse("t - t^-1")
    for name in ("3_1", "4_1", "2^2_1", "5_2"):
        base = get_named_braid(name).braid
        plus = BraidWord(base.strands, base.letters + (1,))
        minus = BraidWord(base.strands, base.letters + (-1,))
        lhs = alexander_nabla(plus) - alexander_nabla(minus)
        assert lhs == z * alexander_nabla(base), name


def test_nabla_markov_invariance():
    for name in ("3_1", "4_1", "5^2_1"):
        base = get_named_braid(name).braid
        reference = alexander_nabla(base)
        assert alexander_nabla(stabilize(base, +1)) == reference
        assert alexander_nabla(stabilize(base, -1)) == reference
        assert alexander_nabla(conjugate(base, (1, -1 if base.strands > 2 else 1))) == reference
        assert alexander_nabla(conjugate(base, (1,))) == reference


def test_nabla_split_links_vanish():
    assert alexander_nabla(parse_braid("2 2", 3)).is_zero()
    assert alexander_nabla(BraidWord(2)).is_zero()


# -- classification --------------------------------------------------------------


def test_classification_report_all_match():
    rows = classification_report()
    assert len(rows) == 23 * 11
    assert all(row["match"] != "no" for row in rows)


def test_classification_specific_rows():
    entries = [get_table1_entry("R2.2", 1), get_table1_entry("R3.1", 1),
               get_table1_entry("R1.3", 1)]
    rows = classification_report(entries=entries)
    by_key = {(r["rmatrix"], r["row"], r["link"]): r for r in rows}
    for name in ("3_1", "2^2_1", "6^2_3"):
        assert by_key[("R2.2", 1, name)]["value"] == "0"
        assert by_key[("R2.2", 1, name)]["match"] == "yes"
    assert by_key[("R3.1", 1, "5_2")]["match"] == "yes"
    assert by_key[("R3.1", 1, "2^2_1")]["match"] == "n/a"
    assert by_key[("R1.3", 1, "3_1")]["value"] == "2"
    assert by_key[("R1.3", 1, "6^2_1")]["value"] == "4"


def test_raw_invariant_result_fields(jones):
    braid = parse_braid("1 1 1")
    res = compute_ts(jones, braid)
    assert not res.normalized
    assert res.braid is braid
    assert res.unknot_value == unknot_value(jones)
    norm = compute_ts(jones, braid, normalized=True)
    assert norm.normalized
    assert norm.value * norm.unknot_value == res.value


def test_compute_ts_matches_kronecker_oracle(monkeypatch):
    """Every row with both signs and the presets, over the named links, against
    alpha^-w beta^-n Tr(rep mu^(x n)) with mu^(x n) formed as a Kronecker power.

    The two signs share R, so each representation is built once and handed to
    compute_ts through a cache.
    """
    reps = {}

    def cached(r, b, base=None):
        key = (frozenset(r.entries.items()), b)
        if key not in reps:
            reps[key] = braid_representation(r, b, base)
        return reps[key]

    monkeypatch.setattr(invariant, "braid_representation", cached)
    ops = [(f"{e.rmatrix}/{e.row}{sign}", e.build(sign))
           for e in table1_entries() for sign in "+-"]
    ops += [(name, preset_dressings(name).eyb) for name in preset_names()]
    for label, op in ops:
        for name in NAMED_LINKS:
            b = get_named_braid(name).braid
            n = b.strands
            raw = trace_product(cached(op.r, b, op.base_dim), kron_power(op.mu, n))
            expected = pow_int(op.alpha, -b.writhe) * try_div_exact(raw, pow_int(op.beta, n))
            assert compute_ts(op, b).value == expected, (label, name)
