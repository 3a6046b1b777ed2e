"""Trace invariants, annihilating relations, skein sums, the one-variable
regularized invariant, classification."""

import json
import random
from pathlib import Path

import pytest

from oracles import (
    conway_in_t,
    conway_polynomial,
    equal_up_to_unit,
    kron_power,
    nabla_by_burau,
    trace_product,
    weighted_trace_sequential,
)
from test_acceptance import _shift_mu

from ybtrace import eyb, invariant, ring, tensor
from ybtrace.braid import (
    KNOT_NAMES,
    NAMED_LINKS,
    BraidWord,
    NamedLink,
    conjugate,
    get_named_braid,
    parse_braid,
    stabilize,
)
from ybtrace.catalog import TransformSpec, check_ybe, restricted_matrix, transform_rmatrix
from ybtrace.dressing import (
    DiagonalDressingSpec, dress_diagonal, dressed_eyb, preset_dressings, preset_names,
)
from ybtrace.errors import (
    DimensionMismatch, ExponentOverflow, InverseOutsideRing, NonInvertible, NotAUnit,
    NotDivisible, ProportionalityFailure, StrandBoundViolation,
)
from ybtrace.eyb import (
    EnhancedOperator, get_table1_entry, get_table1_eyb, sign_variants, table1_entries,
    verify_eyb,
)
from ybtrace.invariant import (
    ANNIHILATING_RELATIONS,
    SkeinFamily,
    alexander_nabla,
    braid_representation,
    check_skein_family,
    classification_report,
    compute_ts,
    get_relation,
    open_trace,
    rank_one_factors,
    unknot_value,
    verify_annihilating,
)
from ybtrace.ring import PackedVector, ScalarContext, pow_int, substitute, try_div_exact
from ybtrace.tables import run_table
from ybtrace.tensor import (
    MAX_ENTRIES, SquareMatrix, invert, kron, matadd, matmul, scalar_scale,
)


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


# -- torus knots against closed forms --------------------------------------------

COPRIME_TORUS = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (5, 6),
                 (6, 7), (7, 8))


def _torus(p, q):
    """T(p, q) as the closure of (sigma_1 ... sigma_(p-1))^q."""
    return BraidWord(p, tuple(range(1, p)) * q)


def test_jones_matches_the_torus_knot_closed_form(jones):
    """V(T(p,q)) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)
    (Jones, Ann. of Math. 126, 1987)."""
    for p, q in COPRIME_TORUS:
        value, ctx = _collapse(compute_ts(jones, _torus(p, q), normalized=True).value)
        closed = ctx.parse(f"t^{(p - 1) * (q - 1) // 2}") * try_div_exact(
            ctx.parse(f"1 - t^{p + 1} - t^{q + 1} + t^{p + q}"), ctx.parse("1 - t^2"))
        assert value == closed, (p, q)


def test_nabla_matches_the_torus_knot_closed_form():
    """Delta(T(p,q)) = (x^(pq) - 1)(x - 1) / ((x^p - 1)(x^q - 1)) at x = t^2."""
    ctx = ScalarContext(("t",))
    for p, q in COPRIME_TORUS:
        closed = try_div_exact(ctx.parse(f"(t^{2 * p * q} - 1)*(t^2 - 1)"),
                               ctx.parse(f"(t^{2 * p} - 1)*(t^{2 * q} - 1)"))
        assert equal_up_to_unit(alexander_nabla(_torus(p, q)), closed), (p, q)


# -- the Burau oracle of alexander_nabla --------------------------------------------


def _by_exponent(value):
    """{t-exponent: int} of a Scalar in t with integral exponents and
    coefficients."""
    out = {}
    for (doubled,), (re, im) in value.terms.items():
        assert doubled % 2 == 0 and im == 0 and re.denominator == 1
        out[doubled // 2] = int(re)
    return out


def test_alexander_nabla_is_the_burau_determinant():
    """The named links, T(p, p+1) for p = 2..6 and seeded braids of 1 to 6
    strands with letters of both signs."""
    rng = random.Random(5)
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += [_torus(p, p + 1) for p in range(2, 7)]
    words += _random_words(rng, 30, 5, 9) + _mixed_words(rng, 6, 6, 10)
    assert max(b.strands for b in words) == 6
    for b in words:
        assert _by_exponent(alexander_nabla(b)) == nabla_by_burau(b.strands, b.letters), b


def test_the_burau_oracle_gives_the_alexander_polynomials_of_the_named_knots():
    """Up to a unit, nabla is Delta(t^2): the trefoil's 1 - x + x^2 and the
    figure eight's -1 + 3x - x^2, x = t^2, and 1 on the unknot."""
    def up_to_unit(poly):
        low = min(poly)
        sign = 1 if poly[low] > 0 else -1
        return {e - low: sign * c for e, c in poly.items()}

    expected = {"0_1": {0: 1}, "3_1": {0: 1, 2: -1, 4: 1}, "4_1": {0: 1, 2: -3, 4: 1}}
    for name, poly in expected.items():
        b = get_named_braid(name).braid
        assert name in KNOT_NAMES
        assert up_to_unit(nabla_by_burau(b.strands, b.letters)) == poly, name


# -- the open-strand closure ----------------------------------------------------

# the three alexander-zero rows, each with the substitution that makes its
# variable x = t^2
ALEXANDER_ROWS = {("R2.2", 1): {"p": "t^2", "q": "1"}, ("R1.1", 1): {"q": "t"},
                  ("R1.2", 1): {"q": "t^2"}}


def test_open_trace_of_each_alexander_row_matches_the_skein_oracle():
    """The paper's second claim: both signs, on the named links and on seeded
    words of up to five strands, equal the skein oracle and the Burau
    determinant up to a unit +-t^k, and with sign '-' the Burau determinant
    exactly."""
    ctx = ScalarContext(("t",))
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += _random_words(random.Random(11), 40, 5, 8)
    oracles = [conway_in_t(ctx, conway_polynomial(b.strands, b.letters)) for b in words]
    burau = [sum((ctx.scalar(c) * ctx.gen("t", e)
                  for e, c in nabla_by_burau(b.strands, b.letters).items()), ctx.zero())
             for b in words]
    for (rmatrix, row), texts in ALEXANDER_ROWS.items():
        bindings = {g: ctx.parse(text) for g, text in texts.items()}
        for sign in "+-":
            op = get_table1_eyb(rmatrix, row, sign=sign)
            for b, oracle, determinant in zip(words, oracles, burau):
                value = substitute(open_trace(op, b), bindings, ctx)
                assert equal_up_to_unit(value, oracle), (rmatrix, row, sign, b)
                assert equal_up_to_unit(value, determinant), (rmatrix, row, sign, b)
                assert sign == "+" or value == determinant, (rmatrix, row, b)


def test_open_trace_refuses_a_partial_closure_off_the_identity():
    """R2.1/2, d3_R21 and R1.4/1's R with mu = diag(1, q), which is not
    enhanced, leave no multiple of the identity on the trefoil's first
    strand."""
    trefoil = get_named_braid("3_1").braid
    row = get_table1_eyb("R1.4", 1)
    unenhanced = EnhancedOperator(row.r, SquareMatrix.diagonal(row.ctx, [1, "q"]), row.alpha,
                                  row.beta)
    assert not verify_eyb(unenhanced)
    for op in (get_table1_eyb("R2.1", 2), preset_dressings("d3_R21").eyb, unenhanced):
        with pytest.raises(ProportionalityFailure,
                           match="^partial closure is not a multiple of the identity$"):
            open_trace(op, trefoil)
    for rmatrix, row in ALEXANDER_ROWS:
        assert not open_trace(get_table1_eyb(rmatrix, row), trefoil).is_zero()


# -- the half-word closure against the whole word's matrix ------------------------

# n = 1, empty words, one-letter words (an empty left half) and negative
# letters in either half
EDGE_WORDS = [BraidWord(1), BraidWord(2), BraidWord(4), BraidWord(2, (1,)),
              BraidWord(2, (-1,)), BraidWord(3, (-2,)), BraidWord(3, (-1, 2)),
              BraidWord(3, (1, -2)), BraidWord(4, (-3, -1, 2, 2)),
              BraidWord(4, (1, 3, -2, -2, 1)), BraidWord(5, (1, -2, 3, -4, 2, -3)),
              BraidWord(5, (-4, -4, 1, 3, -2, 2, 1))]


def _assert_half_word_closure(op, words, label):
    """The half-word closure of every word, all slots closed and slots 2..n
    closed, equals the whole word's matrix path, and raises
    ProportionalityFailure on exactly the same inputs; returns how many
    raised."""
    failures = 0
    for b in words:
        for keep, closure in ((0, lambda: invariant._closure(op, b, 0)),
                              (1, lambda: open_trace(op, b))):
            try:
                expected = _matrix_path(op, b, keep)
            except ProportionalityFailure:
                failures += 1
                with pytest.raises(ProportionalityFailure):
                    closure()
                continue
            assert closure() == expected, (label, keep, b)
    return failures


def test_half_word_closure_matches_the_whole_words_matrix_on_every_operator():
    """All 23 rows with both signs on the named links, the edge words and
    seeded words of 2 to 5 strands; the three presets (base 3 and 4) on the
    named links of up to three strands and seeded words of 2 or 3.  Each
    seeded word has letters of both signs."""
    rng = random.Random(16)
    links = [get_named_braid(name).braid for name in NAMED_LINKS]
    words = links + EDGE_WORDS + _mixed_words(rng, 6, 5, 8)
    failures = 0
    for entry in table1_entries():
        for sign in "+-":
            label = f"{entry.rmatrix}/{entry.row}{sign}"
            failures += _assert_half_word_closure(entry.build(sign), words, label)
    small = [b for b in links + EDGE_WORDS if b.strands <= 3]
    for name in preset_names():
        op = preset_dressings(name).eyb
        failures += _assert_half_word_closure(
            op, small + _mixed_words(rng, 6, 3, 6), name)
    assert failures > 0


def test_half_word_closure_keeps_no_rows_above_the_entry_cap():
    """The weight rows of a dense rank-two mu on 8 strands hold 4^8 entries
    for the full closure and 2 * 4^7 for the open one, above MAX_ENTRIES:
    they are built row by row and not kept, and the values still match."""
    jones = get_table1_eyb("R2.1", 1)
    mu = SquareMatrix.from_rows(jones.ctx, [["1", "p"], ["2", "q"]])
    assert rank_one_factors(mu) is None
    op = EnhancedOperator(jones.r, mu, jones.alpha, jones.beta)
    assert 4 ** 8 > MAX_ENTRIES >= 4 ** 7
    b = BraidWord(8, (3, -5))
    assert compute_ts(op, b).value == _matrix_path(op, b)
    assert open_trace(op, b) == _matrix_path(op, b, 1)
    assert ("rows", 8, 0) not in op._closure and ("rows", 8, 1) not in op._closure
    for key, kept in op._closure.items():
        size = len(kept.entries) if isinstance(kept, SquareMatrix) else (
            len(kept) if isinstance(kept, (dict, PackedVector)) else 1)
        assert size <= MAX_ENTRIES, key
    # seven strands fit, and their full closure's rows are kept
    b = BraidWord(7, (3, -5))
    assert compute_ts(op, b).value == _matrix_path(op, b)
    assert len(op._closure[("rows", 7, 0)]) == 4 ** 7


def test_kept_embeddings_are_keyed_by_slot_and_bounded():
    """Every Table-1 row with both signs, on the named links and seeded words
    of 2 to 5 strands: R and R^-1 keep their embeddings under (i, n) only,
    never under a word, at most MAX_ENTRIES entries in total, and each is
    the embedding built afresh."""
    rng = random.Random(19)
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += [b for b in _random_words(rng, 16, 5, 8) if b.strands >= 2]
    assert {b.strands for b in words} >= {2, 3, 4, 5}
    kept = 0
    for entry in table1_entries():
        for sign in "+-":
            op = entry.build(sign, ctx=entry.context())
            for b in words:
                compute_ts(op, b)
                try:
                    open_trace(op, b)
                except ProportionalityFailure:
                    pass
            base = op.base_dim
            for m in (op.r, op.r._inverse):
                embeddings = (m._embeddings if m is not None else None) or {}
                assert sum(len(e.entries) for e in embeddings.values()) <= MAX_ENTRIES
                for (i, n), e in embeddings.items():
                    assert 1 <= i < n <= 5, (i, n)
                    assert e == kron(kron(SquareMatrix.identity(op.ctx, base ** (i - 1)), m),
                                     SquareMatrix.identity(op.ctx, base ** (n - i - 1)))
                kept += len(embeddings)
    assert kept > 0


def test_a_weight_of_side_one_is_refused():
    ctx = ScalarContext(("q",))
    one = SquareMatrix.identity(ctx, 1)
    op = EnhancedOperator(one, one, ctx.one(), ctx.one())
    for closure in (compute_ts, open_trace):
        with pytest.raises(DimensionMismatch, match="side 1 has no slot to close"):
            closure(op, BraidWord(3, (1, -2)))


def test_a_weight_whose_side_squared_is_not_rs_side_is_refused_on_every_route():
    """R of side 9 (base 3) with a weight of side 2: verify_eyb's refusal,
    before the closed form (a rank-one weight), the closure (rank two) and
    the open trace, and nothing is kept on the operator."""
    ctx = ScalarContext(("q",))
    r = SquareMatrix.identity(ctx, 9)
    b = BraidWord(3, (1, 2))
    message = r"^mu has side 2, so mu \(x\) mu does not match R's side 9$"
    for mu in (SquareMatrix.diagonal(ctx, [1, 0]), SquareMatrix.diagonal(ctx, [1, 2])):
        op = EnhancedOperator(r, mu, ctx.one(), ctx.one())
        for route in (lambda: verify_eyb(op), lambda: compute_ts(op, b),
                      lambda: open_trace(op, b)):
            with pytest.raises(DimensionMismatch, match=message):
                route()
        assert op._closure == {}


def test_the_base_of_a_representation_is_worked_out_of_rs_side():
    ctx = ScalarContext(("q",))
    b = BraidWord(3, (1, -2))
    assert braid_representation(SquareMatrix.identity(ctx, 9), b) == SquareMatrix.identity(ctx, 27)
    op = EnhancedOperator(SquareMatrix.identity(ctx, 9), SquareMatrix.identity(ctx, 3),
                          ctx.one(), ctx.one())
    assert compute_ts(op, b).value == 27 and open_trace(op, b) == 9
    with pytest.raises(DimensionMismatch, match="side 3 is not a perfect square"):
        braid_representation(SquareMatrix.identity(ctx, 3), BraidWord(2, ()))


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

    def cached(r, b):
        key = (frozenset(r.entries.items()), b)
        if key not in reps:
            reps[key] = braid_representation(r, b)
        return reps[key]

    monkeypatch.setattr(invariant, "braid_representation", cached)
    ops = [(f"{e.rmatrix}/{e.row}{sign}", e.build(sign))
           for e in table1_entries() for sign in "+-"]
    ops += [(name, preset_dressings(name).eyb) for name in preset_names()]
    for label, op in ops:
        for name in NAMED_LINKS:
            b = get_named_braid(name).braid
            n = b.strands
            raw = trace_product(cached(op.r, b), kron_power(op.mu, n))
            expected = pow_int(op.alpha, -b.writhe) * try_div_exact(raw, pow_int(op.beta, n))
            assert compute_ts(op, b).value == expected, (label, name)


# -- rank-one weights ------------------------------------------------------------

RANK_ONE_ROWS = [("R3.1", 3), ("R3.1", 4), ("R2.1", 2), ("R2.1", 3), ("R2.1", 4),
                 ("R2.1", 5), ("R2.2", 2), ("R2.2", 3), ("R1.1", 2), ("R1.1", 3),
                 ("R1.1", 4), ("R1.1", 5), ("R1.2", 2), ("R1.2", 3)]
WEIGHTED_SWAP_ROWS = [("R3.1", 1), ("R3.1", 2), ("R2.3", 1), ("R1.3", 1)]
# the alexander-zero rows, whose Tr(mu) is 0
VANISHING_ROWS = [("R2.2", 1), ("R1.2", 1), ("R1.1", 1)]
# the rows whose R has one entry per column at label maps other than a swap
LABEL_MAP_ROWS = [("R1.4", 1)]
# the route compute_ts takes for each row, with either sign
ROUTES = {(e.rmatrix, e.row): "closure" for e in table1_entries()}
ROUTES.update(dict.fromkeys(RANK_ONE_ROWS, "closed form"))
ROUTES.update(dict.fromkeys(WEIGHTED_SWAP_ROWS + LABEL_MAP_ROWS, "coloring"))
ROUTES.update(dict.fromkeys(VANISHING_ROWS, "vanishing"))


def _route(op):
    """The route that compute_ts takes for ``op``, by its one verdict."""
    return invariant._structure(op).route


def _block_operator(op):
    """The block operator op_J of an operator on the sector route."""
    return invariant._structure(op).params[2][0]


def _matrix_path(op, b, keep=0):
    """alpha^-w beta^-(n - keep) times the multiple of the identity that
    ``oracles.weighted_trace_sequential`` leaves on strands 1..keep of the
    whole word's representation matrix, closed over the other strands;
    keep=0 gives alpha^-w beta^-n Tr(rep mu^(x n)).  ProportionalityFailure
    when what is left is not such a multiple."""
    n = b.strands
    rep = braid_representation(op.r, b)
    left = weighted_trace_sequential(rep, op.mu, range(keep + 1, n + 1))
    raw = left.get(0, 0)
    if left != SquareMatrix.diagonal(left.ctx, [raw] * left.side):
        raise ProportionalityFailure("not a multiple of the identity")
    return pow_int(op.alpha, -b.writhe) * try_div_exact(raw, pow_int(op.beta, n - keep))


def _random_words(rng, count, max_strands, max_letters):
    words = []
    for _ in range(count):
        strands = rng.randint(1, max_strands)
        size = rng.randint(0, max_letters) if strands > 1 else 0
        words.append(BraidWord(strands, tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(size))))
    return words


def _mixed_words(rng, count, max_strands, max_letters):
    """Seeded words of 2 to ``max_strands`` strands and 2 to ``max_letters``
    letters, at least one of each sign."""
    words = []
    for _ in range(count):
        strands = rng.randint(2, max_strands)
        size = rng.randint(2, max_letters)
        signs = [1, -1] + [rng.choice((1, -1)) for _ in range(size - 2)]
        rng.shuffle(signs)
        words.append(BraidWord(strands, tuple(
            sign * rng.randint(1, strands - 1) for sign in signs)))
    return words


def _assert_factors(mu, factors):
    u, v, piv = factors
    outer = SquareMatrix(mu.ctx, mu.side, {(r, c): x * y for r, x in u.items()
                                           for c, y in v.items()})
    assert scalar_scale(mu, piv) == outer


def _rank_one_operator_without_c():
    """A fresh operator on R1.1's R, over row 2's ring, whose rank-one weight
    [[1, 1], [0, 0]] takes the half-word closure: v (x) v = (1, 1, 1, 1) is
    not a left eigenvector of R.  It is not enhanced, which compute_ts does
    not need."""
    entry = get_table1_entry("R1.1", 2)
    op = entry.build(ctx=entry.context())
    mu = SquareMatrix.from_rows(op.ctx, [[1, 1], [0, 0]])
    return EnhancedOperator(op.r, mu, op.alpha, op.beta)


def test_rank_one_rows_are_the_fourteen_const_one_rows():
    assert len(RANK_ONE_ROWS) == 14
    for e in table1_entries():
        for sign in "+-":
            mu = e.build(sign).mu
            factors = rank_one_factors(mu)
            if (e.rmatrix, e.row) in RANK_ONE_ROWS:
                assert e.tag == "const-1"
                _assert_factors(mu, factors)
            else:
                assert factors is None, (e.rmatrix, e.row, sign)
    for name in preset_names():
        assert rank_one_factors(preset_dressings(name).eyb.mu) is None, name


def test_rank_one_factors_refuses_a_full_pattern_of_rank_two():
    ctx = ScalarContext(("p", "q"))
    assert rank_one_factors(SquareMatrix.from_rows(ctx, [[1, 1], [1, 2]])) is None
    assert rank_one_factors(SquareMatrix.from_rows(ctx, [[1, 0], [0, 0]])) is not None
    assert rank_one_factors(SquareMatrix.from_rows(ctx, [[0, 0], [0, 0]])) is None
    mu = SquareMatrix.from_rows(ctx, [["p", "p*q"], ["1+q", "q+q^2"]])
    _assert_factors(mu, rank_one_factors(mu))


def test_only_rank_one_weights_leave_the_matrix_path(monkeypatch):
    """The closed form and the coloring sum build no representation matrix;
    the half-word closure, and every open trace, build that of the right
    half of the word only.  Each of the 23 rows with either sign, fresh,
    takes the route that ROUTES pins, and each preset the sector route:
    d3_R21's J sector, R2.1/1 on the whole knot, builds the right half of
    its word on R_J, and d3_R22 and d4_R22, whose J sectors vanish, build
    no matrix."""
    built = []

    def spy(r, b):
        built.append(b)
        return braid_representation(r, b)

    monkeypatch.setattr(invariant, "braid_representation", spy)
    b = get_named_braid("5_2").braid
    half = BraidWord(b.strands, b.letters[len(b.letters) // 2:])
    assert half.letters == (2, 1, 1)
    ops = [(ROUTES[e.rmatrix, e.row], e.build(sign, ctx=e.context()))
           for e in table1_entries() for sign in "+-"]
    assert preset_names() == ("d3_R21", "d3_R22", "d4_R22")
    ops += [("sectors", preset_dressings(name).eyb) for name in preset_names()]
    d3_r21 = preset_dressings("d3_R21").eyb
    for route, op in ops:
        built.clear()
        compute_ts(op, b)
        assert _route(op) == route
        if route == "sectors":
            assert _route(_block_operator(op)) == (
                "closure" if op is d3_r21 else "vanishing")
            assert built == ([half] if op is d3_r21 else [])
        else:
            assert built == ([half] if route == "closure" else [])
    assert sorted(route for route, _ in ops).count("coloring") == 10
    assert sorted(route for route, _ in ops).count("vanishing") == 6
    built.clear()
    open_trace(get_table1_eyb("R1.2", 1), b)
    assert built == [half]


def test_rank_one_weights_match_matrix_path():
    """The 14 rank-one rows with both signs, which take the closed form, and
    R1.1's R with a rank-one weight that takes the half-word closure, on the
    named links and on seeded words of up to five strands with both letter
    signs."""
    rng = random.Random(5)
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += _mixed_words(rng, 8, 5, 8)
    ops = [((rmatrix, row, sign), get_table1_eyb(rmatrix, row, sign=sign))
           for rmatrix, row in RANK_ONE_ROWS for sign in "+-"]
    ops.append(("closure", _rank_one_operator_without_c()))
    for label, op in ops:
        for b in words:
            assert compute_ts(op, b).value == _matrix_path(op, b), (label, b)
    assert _route(ops[-1][1]) == "closure"
    assert all(_route(op) == "closed form" for _, op in ops[:-1])


def _images(op, m, kappa):
    """The similarity (Q = [[1, m], [0, 1]] and the unit kappa), transpose and
    shift images of an enhanced operator of side 2, each with its weight
    data carried along, so that each is enhanced again."""
    ctx = op.ctx
    q = SquareMatrix.from_rows(ctx, [[1, m], [0, 1]])
    return {
        "similarity": EnhancedOperator(
            transform_rmatrix(op.r, TransformSpec("similarity", kappa=kappa, q=q)),
            matmul(matmul(q, op.mu), invert(q)), kappa * op.alpha, op.beta),
        "transpose": EnhancedOperator(
            transform_rmatrix(op.r, TransformSpec("transpose")),
            op.mu.transpose(), op.alpha, op.beta),
        "shift": EnhancedOperator(
            transform_rmatrix(op.r, TransformSpec("shift", n=1)),
            _shift_mu(op.mu, 1), op.alpha, op.beta),
    }


def test_images_of_the_rank_one_rows_keep_the_closed_form():
    """The similarity, transpose and shift images of the 14 rank-one rows,
    with both signs, find an eigenvalue and equal the matrix path on the
    named links and on seeded words of up to five strands."""
    rng = random.Random(20)
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += _random_words(rng, 6, 5, 8)
    for rmatrix, row in RANK_ONE_ROWS:
        for sign in "+-":
            op = get_table1_eyb(rmatrix, row, sign=sign)
            kappa = op.ctx.gen(op.ctx.generators[-1], rng.choice((-1, 1)))
            for kind, image in _images(op, rng.choice((1, -1, 2)), kappa).items():
                label = (rmatrix, row, sign, kind)
                assert verify_eyb(image), label
                for b in words:
                    assert compute_ts(image, b).value == _matrix_path(image, b), (label, b)
                verdict = invariant._structure(image)
                assert verdict.route == "closed form" and verdict.params.is_unit(), label


def test_every_enhanced_rank_one_weight_the_library_builds_has_a_unit_eigenvalue():
    """The 14 rank-one rows with both signs, each rescaled by beta = g and
    1 + g for the row's first generator g, its three sign variants, its
    similarity image (Q = [[1, 2], [0, 1]], kappa = the last generator's
    inverse), its transpose image and its trivial diagonal dressing into
    N = 3 with J = (1, 3): each is enhanced, keeps a rank-one weight and
    has a unit eigenvalue c, so the closed form takes all of them."""
    checked = 0
    for rmatrix, row in RANK_ONE_ROWS:
        entry = get_table1_entry(rmatrix, row)
        for sign in "+-":
            op = entry.build(sign)
            ctx = op.ctx
            g = ctx.gen(ctx.generators[0])
            kappa = ctx.gen(ctx.generators[-1], -1)
            images = _images(op, 2, kappa)
            spec = DiagonalDressingSpec(ctx, 3, (1, 3))
            rescaled = [EnhancedOperator(op.r, scalar_scale(op.mu, b), op.alpha, op.beta * b)
                        for b in (g, 1 + g)]
            ops = [op, *rescaled,
                   *sign_variants(op), images["similarity"], images["transpose"],
                   dressed_eyb(op, dress_diagonal(op.r, spec), spec, mode="trivial")]
            for k, enhanced in enumerate(ops):
                label = (rmatrix, row, sign, k)
                assert verify_eyb(enhanced), label
                assert rank_one_factors(enhanced.mu) is not None, label
                c = invariant._eigenvalue(enhanced)
                assert c is not None and c.is_unit(), label
                checked += 1
    assert checked == 14 * 2 * 9


def test_rank_one_weights_match_matrix_path_in_base_three():
    """A seeded side-9 R (the rows of a unipotent matrix permuted, so it
    inverts in the ring) with a rank-one weight that has no eigenvalue c,
    so that the half-word closure takes it; no Yang-Baxter equation is
    needed for the trace."""
    rng = random.Random(3)
    ctx = ScalarContext(("p", "q"))
    monomials = ["0", "0", "1", "-1", "2", "p", "q^-1", "p*q", "1+q"]
    for trial in range(3):
        upper = [["1" if r == c else (rng.choice(monomials) if c > r else "0")
                  for c in range(9)] for r in range(9)]
        rng.shuffle(upper)
        r = SquareMatrix.from_rows(ctx, upper)
        u = [rng.choice(monomials) for _ in range(3)]
        v = [rng.choice(monomials[2:]) for _ in range(3)]
        mu = SquareMatrix.from_rows(ctx, [[f"({a})*({b})" for b in v] for a in u])
        op = EnhancedOperator(r, mu, ctx.parse("p"), ctx.parse("q^-1"))
        factors = rank_one_factors(mu)
        _assert_factors(mu, factors)
        for b in _random_words(rng, 5, 4, 5):
            assert compute_ts(op, b).value == _matrix_path(op, b), (trial, b)
        assert _route(op) == "closure", trial


def test_rank_one_push_refuses_a_state_space_above_the_cap(monkeypatch):
    def refuse(*args):
        raise AssertionError("a vector was pushed")

    monkeypatch.setattr(invariant, "pack", refuse)
    monkeypatch.setattr(invariant, "push_at", refuse)
    for op in (get_table1_eyb("R1.1", 2), _rank_one_operator_without_c()):
        with pytest.raises(StrandBoundViolation, match="2\\^40 states, above the cap"):
            compute_ts(op, BraidWord(40, (1,)))


def test_failing_annihilating_relation_returns_the_sum_as_residual():
    ctx = ScalarContext(("p", "q"))
    r = get_relation("R2.1").matrix(ctx)
    rinv = invert(r)
    ident = SquareMatrix.identity(ctx, 4)
    cases = (
        ({1: ctx.one(), 0: ctx.one()}, matadd(r, ident)),
        ({2: ctx.one(), -2: ctx.parse("p"), 0: ctx.scalar(-1)},
         matadd(matadd(matmul(r, r), scalar_scale(matmul(rinv, rinv), ctx.parse("p"))),
                scalar_scale(ident, -1))),
    )
    for relation, residual in cases:
        verdict = verify_annihilating(r, relation)
        assert not verdict
        assert verdict.residual == residual


def test_failing_skein_family_returns_the_sum_as_residual(jones):
    ctx = jones.ctx
    fam = SkeinFamily(parse_braid("1 1"), 1, ((2, ctx.one()), (-1, ctx.parse("p"))))
    verdict = check_skein_family(jones, fam)
    assert not verdict
    expected = (pow_int(jones.alpha, 2) * compute_ts(jones, parse_braid("1 1 1 1")).value
                + ctx.parse("p") * pow_int(jones.alpha, -1)
                * compute_ts(jones, parse_braid("1 1 -1")).value)
    assert verdict.residual == expected


def test_compute_ts_inverts_each_operator_once(monkeypatch):
    pieces = []
    original = tensor._invert_piece

    def counted(work, rows, cols, n):
        pieces.append(rows)
        return original(work, rows, cols, n)

    monkeypatch.setattr(tensor, "_invert_piece", counted)
    word = get_named_braid("4_1").braid
    assert any(k < 0 for k in word.letters)
    # R1.1's R with a rank-one weight takes the half-word closure, R1.4/1
    # and R1.3/1 the coloring sum, R2.2/1 the vanishing route.  Fresh
    # operators: the shared ones may already keep R's inverse.
    rows = [get_table1_entry(*key) for key in (("R1.4", 1), ("R1.3", 1), ("R2.2", 1))]
    for make, route in ((_rank_one_operator_without_c, "closure"),
                        *((lambda e=e: e.build(ctx=e.context()), ROUTES[e.rmatrix, e.row])
                          for e in rows)):
        op = make()
        pieces.clear()
        compute_ts(op, get_named_braid("5_1").braid)  # no negative letter
        assert pieces == []
        first = compute_ts(op, word).value
        inverted = len(pieces)
        assert inverted > 0
        assert compute_ts(op, word).value == first
        assert len(pieces) == inverted
        assert _route(op) == route
    # the closed form never inverts R
    entry = get_table1_entry("R2.1", 2)
    op = entry.build(ctx=entry.context())
    pieces.clear()
    compute_ts(op, word)
    assert pieces == [] and _route(op) == "closed form"


def _spy(monkeypatch, calls, module, name):
    """Count the calls of ``module.name`` in ``calls[name]``."""
    original = getattr(module, name)
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_alexander_nabla_builds_and_inverts_its_operator_once(monkeypatch):
    calls = {}
    _spy(monkeypatch, calls, eyb, "restricted_matrix")
    _spy(monkeypatch, calls, tensor, "_invert_piece")
    _spy(monkeypatch, calls, ring, "parse_scalar")
    _spy(monkeypatch, calls, ring.ScalarContext, "__init__")
    word = get_named_braid("4_1").braid
    assert any(k < 0 for k in word.letters)
    first = alexander_nabla(word)
    calls.update(dict.fromkeys(calls, 0))
    assert alexander_nabla(word) == first
    # nor is its target ring or the binding q = t^-2 made again
    assert calls == dict.fromkeys(calls, 0)
    # the spies see a fresh build and its inversion
    entry = get_table1_entry("R1.2", 1)
    compute_ts(entry.build(ctx=entry.context()), word)
    assert calls["restricted_matrix"] == 1 and calls["_invert_piece"] > 0


def test_run_table_parses_its_goldens_and_bindings_once(monkeypatch):
    for which in (1, 2, 3, 4):
        assert run_table(which).ok
    calls = {}
    _spy(monkeypatch, calls, ring, "parse_scalar")
    _spy(monkeypatch, calls, ring.ScalarContext, "__init__")
    for which in (1, 2, 3, 4):
        assert run_table(which).ok
        assert calls == {"parse_scalar": 0, "__init__": 0}, which


def test_compute_ts_keeps_its_closure_constants_per_operator_and_strand_count(monkeypatch):
    calls = {}
    trefoil, figure_eight, cinquefoil = (
        get_named_braid(name).braid for name in ("3_1", "4_1", "5_1"))
    expected = {b: _matrix_path(_rank_one_operator_without_c(), b) for b in (trefoil, cinquefoil)}
    for name in ("rank_one_factors", "unknot_value", "_weight_rows", "pack"):
        _spy(monkeypatch, calls, invariant, name)
    built = {"rank_one_factors": 1, "unknot_value": 1, "_weight_rows": 1, "pack": 1}
    op = _rank_one_operator_without_c()
    first = compute_ts(op, trefoil, normalized=True)
    # the unknot value Tr(mu) / beta is 1, so the normalized value is the raw one
    assert first.unknot_value == op.ctx.one() and first.value == expected[trefoil]
    assert calls == built
    calls.update(dict.fromkeys(calls, 0))
    # the same strand count, by the same word or another
    assert compute_ts(op, trefoil, normalized=True) == first
    assert compute_ts(op, cinquefoil).value == expected[cinquefoil]
    assert calls == dict.fromkeys(calls, 0)
    # another strand count packs its own weight rows
    assert figure_eight.strands != trefoil.strands
    compute_ts(op, figure_eight)
    assert calls == dict(built, rank_one_factors=0, unknot_value=0)
    # and a fresh build of the same row computes everything again
    calls.update(dict.fromkeys(calls, 0))
    assert compute_ts(_rank_one_operator_without_c(), trefoil, normalized=True) == first
    assert calls == built
    # the matrix path keeps its verdict that mu is not rank one
    jones = get_table1_entry("R2.1", 1)
    op = jones.build(ctx=jones.context())
    first = compute_ts(op, trefoil)
    calls.update(dict.fromkeys(calls, 0))
    assert compute_ts(op, trefoil) == first
    assert calls == dict.fromkeys(calls, 0)


def test_the_matrix_path_keeps_beta_powers_per_closed_slot_count(monkeypatch):
    powers = []
    original = invariant.pow_int
    monkeypatch.setattr(invariant, "pow_int",
                        lambda x, k: powers.append((x, k)) or original(x, k))
    entry = get_table1_entry("R2.1", 1)
    op = entry.build(ctx=entry.context())
    assert rank_one_factors(op.mu) is None
    trefoil, figure_eight = (get_named_braid(name).braid for name in ("3_1", "4_1"))
    first = compute_ts(op, trefoil).value
    assert (op.beta, 2) in powers
    assert op._closure[("beta", 2)] == original(op.beta, 2)
    powers.clear()
    # the same slot count, by the same word or another: alpha^-w only
    assert compute_ts(op, trefoil).value == first
    compute_ts(op, get_named_braid("5_1").braid)
    assert [x for x, _ in powers] == [op.alpha, op.alpha]
    # three closed slots, and two again through the open trace of 3 strands
    compute_ts(op, figure_eight)
    assert (op.beta, 3) in powers
    powers.clear()
    open_trace(op, figure_eight)
    assert [x for x, _ in powers] == [op.alpha]
    # the rows of 1^(x keep) (x) mu^(x k) per strand count n and kept slot
    # count keep, and the transposed crossings of the left halves' letters:
    # the trefoil's is positive, the figure eight's (1, -2) both
    assert set(op._closure) == {
        "route", "unknot", ("beta", 2), ("beta", 3), ("rows", 2, 0), ("rows", 3, 0),
        ("rows", 3, 1), ("transpose", True), ("transpose", False)}
    assert op._closure["route"] == invariant._Structure("closure", None)
    assert op._closure[("transpose", True)] == op.r.transpose()
    assert op._closure[("transpose", False)] == invert(op.r).transpose()
    for n, keep in ((2, 0), (3, 0), (3, 1)):
        weight = kron(SquareMatrix.identity(op.ctx, 2 ** keep), kron_power(op.mu, n - keep))
        assert op._closure[("rows", n, keep)].unpack() == {
            r * 2 ** n + c: x for (r, c), x in weight.entries.items()}, (n, keep)


def test_a_second_push_builds_no_crossing_table(monkeypatch):
    """The half-word closure of a rank-one weight without an eigenvalue c
    tabulates each transposed crossing it keeps once, on its first call."""
    built = []
    original = tensor._crossing_table
    monkeypatch.setattr(tensor, "_crossing_table", lambda r: built.append(r) or original(r))
    op = _rank_one_operator_without_c()
    word = get_named_braid("4_1").braid
    assert rank_one_factors(op.mu) is not None and any(k < 0 for k in word.letters)
    first = compute_ts(op, word).value
    # the left half (1, -2) pulls back through R^T and (R^-1)^T, each tabulated once
    kept = [op._closure[("transpose", positive)] for positive in (True, False)]
    assert len(built) == 2 and {id(r) for r in built} == {id(r) for r in kept}
    built.clear()
    assert compute_ts(op, word).value == first
    compute_ts(op, get_named_braid("5_2").braid)
    assert built == []


def test_the_closed_form_pushes_nothing_and_checks_each_operator_once(monkeypatch):
    """A rank-one row whose v (x) v is a left eigenvector of R packs, pushes,
    inverts and tabulates nothing, and divides only to find its eigenvalue
    and its unknot value, once per operator; the unknot value's n-th power
    is kept per strand count."""
    words = [get_named_braid(name).braid for name in ("3_1", "4_1", "5_2", "2^2_1")]
    assert any(k < 0 for b in words for k in b.letters)
    rows = [get_table1_entry(rmatrix, row) for rmatrix, row in (("R2.1", 2), ("R1.1", 2))]
    expected = {(e, b): _matrix_path(e.build(ctx=e.context()), b) for e in rows for b in words}
    calls = {}
    for module, name in ((invariant, "_eigenvalue"), (invariant, "pack"), (invariant, "push_at"),
                         (invariant, "try_div_exact"), (tensor, "_invert_piece"),
                         (tensor, "_crossing_table")):
        _spy(monkeypatch, calls, module, name)
    for entry in rows:
        op = entry.build(ctx=entry.context())
        calls.update(dict.fromkeys(calls, 0))
        for b in words:
            assert compute_ts(op, b).value == expected[entry, b], (entry.rmatrix, b)
        assert calls == dict(dict.fromkeys(calls, 0), _eigenvalue=1, try_div_exact=2)
        calls.update(dict.fromkeys(calls, 0))
        for b in words:
            assert compute_ts(op, b).value == expected[entry, b], (entry.rmatrix, b)
        assert calls == dict.fromkeys(calls, 0)
        assert set(op._closure) == {"route", "unknot", ("unknot", 2), ("unknot", 3)}
        assert op._closure["route"] == invariant._Structure(
            "closed form", op.ctx.parse(entry.intertwine))
        for n in (2, 3):
            assert op._closure[("unknot", n)] == pow_int(unknot_value(op), n)


def test_each_route_is_decided_once_per_operator(monkeypatch):
    """A fresh operator per route: R3.1/1 (coloring), the d3_R21 preset
    (sectors, its block operator R2.1/1 on the closure), R2.2/1 (vanishing)
    and R2.1/1 (closure).  On a first pass over the named links each gate
    runs at most once per operator or per R, and on a second pass none
    runs; both passes give the same values."""
    seen = {}  # per gate, the id of each operator or R it ran on
    for name in ("_eigenvalue", "_graded", "_is_hecke", "check_ybe", "verify_eyb"):
        original, seen[name] = getattr(invariant, name), []

        def counted(x, *args, original=original, calls=seen[name]):
            calls.append(id(x))
            return original(x, *args)

        monkeypatch.setattr(invariant, name, counted)
    preset = preset_dressings("d3_R21").eyb
    ops = {"coloring": get_table1_entry("R3.1", 1), "vanishing": get_table1_entry("R2.2", 1),
           "closure": get_table1_entry("R2.1", 1)}
    ops = {route: e.build(ctx=e.context()) for route, e in ops.items()}
    ops["sectors"] = EnhancedOperator(preset.r, preset.mu, preset.alpha, preset.beta)
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    first = {route: [compute_ts(op, b).value for b in words] for route, op in ops.items()}
    for name, calls in seen.items():
        assert len(calls) == len(set(calls)), name
    assert len(seen["_eigenvalue"]) == 5  # the four operators and op_J
    assert len(seen["verify_eyb"]) == len(seen["_is_hecke"]) == 1
    for name in seen:
        seen[name].clear()
    for route, op in ops.items():
        assert [compute_ts(op, b).value for b in words] == first[route], route
        assert _route(op) == route
    assert _route(_block_operator(ops["sectors"])) == "closure"
    assert seen == dict.fromkeys(seen, [])


def test_the_closed_form_overflows_where_the_push_does():
    """R3.1/4 has c = alpha = s: c^w alpha^-w is 1 up to 4095 letters of
    either sign, and at 4096 one of the two powers leaves the exponent range,
    as the half-word closure's pulled rows or alpha's power do."""
    entry = get_table1_entry("R3.1", 4)
    op = entry.build(ctx=entry.context())
    routes = (lambda b: compute_ts(op, b).value,
              lambda b: invariant._closure(op, b, 0))
    for letter in (1, -1):
        for route in routes:
            assert route(BraidWord(2, (letter,) * 4095)) == op.ctx.one()
            with pytest.raises(ExponentOverflow):
                route(BraidWord(2, (letter,) * 4096))
    assert op._closure["route"] == invariant._Structure("closed form", op.ctx.gen("s"))


def test_the_closed_form_refuses_a_non_unit_alpha_where_the_push_does():
    """R2.1/2's R and mu with alpha = 1 + p: alpha^-w needs a unit at
    writhe 2, and is (1 + p)^2 at writhe -2, in closed form and by the
    half-word closure."""
    entry = get_table1_entry("R2.1", 2)
    row = entry.build(ctx=entry.context())
    op = EnhancedOperator(row.r, row.mu, row.ctx.parse("1 + p"), row.beta)
    for route in (lambda b: compute_ts(op, b).value,
                  lambda b: invariant._closure(op, b, 0)):
        with pytest.raises(NotAUnit):
            route(BraidWord(2, (1, 1)))
        assert route(BraidWord(2, (-1, -1))) == op.ctx.parse("1 + 2*p + p^2")
    assert op._closure["route"] == invariant._Structure("closed form", op.ctx.one())


def test_a_warm_classification_pushes_nothing_for_the_rank_one_rows(monkeypatch):
    """Every push_at call of a warm classification_report comes from the
    rows outside these: the 14 in closed form and the four weighted swaps
    push nothing."""
    report = classification_report()
    calls = {}
    _spy(monkeypatch, calls, invariant, "push_at")
    assert classification_report() == report
    total = calls["push_at"]
    assert total > 0
    pushless = [get_table1_entry(rmatrix, row)
                for rmatrix, row in RANK_ONE_ROWS + WEIGHTED_SWAP_ROWS]
    calls["push_at"] = 0
    classification_report(pushless)
    assert calls["push_at"] == 0
    classification_report([e for e in table1_entries() if e not in pushless])
    assert calls["push_at"] == total


def test_classification_report_warm_equals_cold_and_the_goldens(monkeypatch):
    golden = Path(__file__).resolve().parent / "golden"
    monkeypatch.setattr(eyb, "_shared_ops", {})
    calls = {}
    for spied in ("rank_one_factors", "unknot_value", "_weight_rows", "pack"):
        _spy(monkeypatch, calls, invariant, spied)
    for sign, name in (("+", "classify_plus.json"), ("-", "classify_minus.json")):
        cold = classification_report(sign=sign)
        assert calls["rank_one_factors"] == calls["unknot_value"] == len(table1_entries())
        calls.update(dict.fromkeys(calls, 0))
        warm = classification_report(sign=sign)
        assert calls == dict.fromkeys(calls, 0)
        assert warm == cold
        assert cold == json.loads((golden / name).read_text())


def test_tags_build_no_scalar_on_a_cell(monkeypatch):
    """On a const-1, a const-0, a knots-1 and a jones cell, ``_tag_expectation``
    compares with an int or with the kept unknot value: it calls neither
    ``ScalarContext.scalar`` nor ``ScalarContext.one``, and neither does a
    two-power-l cell, which answers as the comparison with 2^l built in the
    ring does."""
    links = [get_named_braid(name) for name in ("0_1", "3_1", "4_1", "2^2_1", "6^2_3")]
    cells = []
    # no row is tagged const-0; an alexander-zero row's values are all 0
    for tag, row_tag in (("const-1", "const-1"), ("const-0", "alexander-zero"),
                         ("knots-1", "knots-1"), ("jones", "jones"),
                         ("two-power-l", "two-power-l")):
        op = next(e for e in table1_entries() if e.tag == row_tag).build()
        cells += [(tag, op, link, compute_ts(op, link.braid).value) for link in links]
    calls = {}
    for name in ("scalar", "one"):
        _spy(monkeypatch, calls, ScalarContext, name)
    found = {(tag, link.name): invariant._tag_expectation(tag, op, link, raw)
             for tag, op, link, raw in cells}
    assert calls == {"scalar": 0, "one": 0}
    assert found["const-1", "3_1"] == ("1", True) and found["const-0", "4_1"] == ("0", True)
    assert found["knots-1", "4_1"] == ("1 (knots)", True)
    assert found["knots-1", "2^2_1"] == ("-", None)
    assert found["jones", "0_1"] == ("1", True) and found["jones", "3_1"] == ("nontrivial", True)
    for tag, op, link, raw in cells:
        if tag == "two-power-l":
            assert found[tag, link.name] == (
                f"2^{link.components}", raw == pow_int(op.ctx.scalar(2), link.components))


def test_a_braid_over_the_strand_cap_is_refused_every_time_and_keeps_nothing(monkeypatch):
    """A fresh operator on each route, given braids with a negative letter
    over the strand cap: compute_ts raises StrandBoundViolation every time,
    as ``invariant._closure`` does, with one message per base.  Nothing but
    the operator's one verdict is kept, R is not inverted, and no power is
    raised and no weight row built or packed.  The verdicts are decided
    first, as the sector gate raises a power."""
    def refuse(*args):
        raise AssertionError("a power was raised or a weight row built or packed")

    monkeypatch.setattr(invariant, "_weight_rows", refuse)
    monkeypatch.setattr(invariant, "pack", refuse)
    cases = []
    for rmatrix, row, route in (("R1.1", 2, "closed form"), ("R3.1", 1, "coloring"),
                                ("R1.4", 1, "coloring"), ("R2.2", 1, "vanishing"),
                                ("R2.1", 1, "closure")):
        entry = get_table1_entry(rmatrix, row)
        cases.append((entry.build(ctx=entry.context()), route, 13))
    d3 = preset_dressings("d3_R21").eyb
    r = SquareMatrix(d3.ctx, d3.r.side, d3.r.entries)  # the preset's R may keep its inverse
    cases.append((EnhancedOperator(r, d3.mu, d3.alpha, d3.beta), "sectors", 8))
    verdicts = [invariant._structure(op) for op, _, _ in cases]
    assert [verdict.route for verdict in verdicts] == [route for _, route, _ in cases]
    monkeypatch.setattr(invariant, "pow_int", refuse)
    for (op, _, strands), verdict in zip(cases, verdicts):
        base = op.base_dim
        for n in (strands, 40):
            b = BraidWord(n, (1, -2, n - 1))
            message = f"{n} strands of dimension {base} need {base}^{n} states, above the cap of 4096"
            for route in (lambda: compute_ts(op, b), lambda: invariant._closure(op, b, 0)):
                for _ in range(2):
                    with pytest.raises(StrandBoundViolation) as raised:
                        route()
                    assert str(raised.value) == message
        assert op._closure == {"route": verdict}
        assert op.r._inverse is None


def test_the_coloring_sum_refuses_a_braid_over_the_strand_cap_and_keeps_nothing(monkeypatch):
    """R1.3/1 on 13 strands needs 2^13 states: compute_ts raises
    StrandBoundViolation every time, as the half-word closure does, and
    keeps nothing but its verdict; R is not inverted."""
    def refuse(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(invariant, "pow_int", refuse)
    entry = get_table1_entry("R1.3", 1)
    op = entry.build(ctx=entry.context())
    b = BraidWord(13, (1, -2, 12))
    for route in (lambda: compute_ts(op, b), lambda: invariant._closure(op, b, 0)):
        for _ in range(2):
            with pytest.raises(StrandBoundViolation, match="2\\^13 states, above the cap"):
                route()
    assert op._closure == {"route": invariant._Structure("coloring", invariant._graded(op))}
    assert op.r._inverse is None


# -- the coloring sum of the weighted swaps ----------------------------------------



def _charge(state, base):
    """The sum of the digits of ``state`` in ``base``."""
    total = 0
    while state:
        state, digit = divmod(state, base)
        total += digit
    return total


def _charge_moves(op):
    """The directions, True for up, in which R's and mu's entries change the
    charge."""
    base = op.base_dim
    return {_charge(r, base) > _charge(c, base) for m in (op.r, op.mu)
            for r, c in m.entries if _charge(r, base) != _charge(c, base)}


def _graded_operator(op):
    """``op`` with the entries of R and mu that change the charge deleted."""
    base = op.base_dim

    def graded(m):
        return SquareMatrix(op.ctx, m.side, {
            (r, c): x for (r, c), x in m.entries.items()
            if _charge(r, base) == _charge(c, base)})

    return EnhancedOperator(graded(op.r), graded(op.mu), op.alpha, op.beta)


def _assert_every_route_agrees(op, words, label):
    for b in words:
        value = compute_ts(op, b).value
        assert value == invariant._closure(op, b, 0) == _matrix_path(op, b), (label, b)


def test_compute_ts_matches_the_closure_and_the_matrix_path_on_every_route():
    """compute_ts against the half-word closure and the whole word's matrix:
    the 23 rows with both signs, the similarity, transpose and shift images
    of the weighted-swap rows, on the named links, seeded words of 2 to 5
    strands and T(p, p+1) for p <= 4; on the weighted-swap rows and their
    images, more seeded words of 2 to 4 strands, and on the rows
    themselves T(5, 6), and with sign + T(6, 7) and T(7, 8); the three
    presets on words of up to three strands.  Each seeded word has letters
    of both signs.  The images move the charge one way at most, so they
    take the coloring sum too."""
    rng = random.Random(31)
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += _mixed_words(rng, 8, 5, 8) + [_torus(p, p + 1) for p in range(2, 5)]
    # links whose components cross each other under letters of both signs
    mixed = _mixed_words(rng, 24, 4, 10)
    assert sum(b.closure_components() > 1 and len({k > 0 for k in b.letters}) == 2
               for b in mixed) >= 8
    triangular = 0  # images whose charge-changing entries the route grades away
    for entry in table1_entries():
        for sign in "+-":
            op = entry.build(sign, ctx=entry.context())
            label = (entry.rmatrix, entry.row, sign)
            swap = (entry.rmatrix, entry.row) in WEIGHTED_SWAP_ROWS
            torus = [_torus(p, p + 1) for p in range(5, 8 if sign == "+" else 6)]
            _assert_every_route_agrees(op, words + (mixed + torus) * swap, label)
            assert _route(op) == ROUTES[entry.rmatrix, entry.row], label
            if swap:
                kappa = op.ctx.gen(op.ctx.generators[-1], rng.choice((-1, 1)))
                for kind, image in _images(op, rng.choice((1, -1, 2)), kappa).items():
                    moves = len(_charge_moves(image))
                    assert moves <= 1, (label, kind)
                    triangular += moves
                    _assert_every_route_agrees(image, words + mixed, (label, kind))
                    assert _route(image) == "coloring", (label, kind)
    assert triangular >= 8
    small = [b for b in words if b.strands <= 3]
    for name in preset_names():
        _assert_every_route_agrees(preset_dressings(name).eyb, small, name)


def test_an_operator_moving_the_charge_both_ways_declines_the_coloring_sum():
    """R3.1/1's weighted swap with an entry that raises the charge, R[11, 00],
    under a weight with one that lowers it, mu[0, 1]: no filtration makes it
    a weighted swap, so it takes the half-word closure, and its values (which
    the graded operator's do not give) still match."""
    row = get_table1_eyb("R3.1", 1)
    ctx = row.ctx
    r = matadd(row.r, SquareMatrix(ctx, 4, {(3, 0): ctx.parse("p")}))
    mu = SquareMatrix.from_rows(ctx, [[1, "q"], [0, 1]])
    op = EnhancedOperator(r, mu, row.alpha, row.beta)
    assert _charge_moves(op) == {True, False}
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    graded = _graded_operator(op)
    differ = 0
    for b in words:
        value = compute_ts(op, b).value
        assert value == _matrix_path(op, b), b
        differ += value != compute_ts(graded, b).value
    assert _route(op) == "closure"
    assert _route(graded) == "coloring" and differ > 0


def test_a_singular_weighted_swap_raises_what_the_closure_raises():
    """A weighted swap with a zero weight is singular, and one with the
    weight 1 + q inverts outside the ring: a negative letter raises
    NonInvertible, or InverseOutsideRing, by the coloring sum as by the
    half-word closure and the open trace, with one message, every time;
    positive words invert nothing and match."""
    ctx = ScalarContext(("q",))
    b = BraidWord(3, (1, -2, 1))
    positive = [BraidWord(3, (1, 2, 1)), BraidWord(2, (1, 1)), get_named_braid("5_1").braid]
    for weight, error in (("0", NonInvertible), ("1 + q", InverseOutsideRing)):
        r = SquareMatrix.from_rows(ctx, [[1, 0, 0, 0], [0, 0, "q", 0],
                                         [0, weight, 0, 0], [0, 0, 0, "q^-1"]])
        mu = SquareMatrix.diagonal(ctx, [1, "q"])
        fresh = [EnhancedOperator(r, mu, ctx.one(), ctx.one()) for _ in range(3)]
        messages = set()
        for route in (lambda: compute_ts(fresh[0], b), lambda: invariant._closure(fresh[1], b, 0),
                      lambda: open_trace(fresh[2], b)):
            for _ in range(2):
                with pytest.raises(error) as raised:
                    route()
                messages.add(str(raised.value))
        assert len(messages) == 1, messages
        assert _route(fresh[0]) == "coloring"
        op = EnhancedOperator(SquareMatrix(ctx, 4, dict(r.entries)), mu, ctx.one(), ctx.one())
        for word in positive:
            assert compute_ts(op, word).value == _matrix_path(op, word), (weight, word)
        assert op.r._inverse is None and ("transpose", False) not in op._closure


def _outcome(route):
    """("value", the route's value) or ("error", the type it raised)."""
    try:
        return "value", route()
    except (NotDivisible, NonInvertible, InverseOutsideRing, NotAUnit,
            ProportionalityFailure) as exc:
        return "error", type(exc)


def _unknot_outside_the_ring():
    """Two operators, not enhanced, whose Tr(mu)/beta is not in the ring but
    whose raw values are: (operator, word, raw value).  The first takes the
    half-word closure, the second the coloring sum."""
    ctx = ScalarContext(("q",), (("s", "1-q^2"),))
    r = SquareMatrix(ctx, 4, {(2, 1): ctx.one(), (3, 0): ctx.parse("s/2"),
                              (3, 2): ctx.parse("(1+q)/2")})
    mu = SquareMatrix.from_rows(ctx, [["(1+q)/2", "s/2"], [0, 1]])
    closure = EnhancedOperator(r, mu, ctx.scalar(-1), ctx.parse("1+q"))
    pq = ScalarContext(("p", "q"), (("r", "p*q"),))
    r = SquareMatrix(pq, 4, {(1, 2): pq.gen("p"), (2, 1): pq.one(), (3, 3): pq.gen("q")})
    mu = SquareMatrix.diagonal(pq, [pq.gen("r", -1), 0])
    coloring = EnhancedOperator(r, mu, pq.gen("q"), pq.parse("1+q"))
    return [(closure, BraidWord(4, (3, 1, 2, 2)), ctx.parse("1/32 - q/32")),
            (coloring, BraidWord(2, (1, 1)), pq.zero())]


def test_a_raw_value_does_not_need_the_unknot_value_in_the_ring():
    """compute_ts divides a raw value by beta^n only: where Tr(mu)/beta is
    not in the ring it returns the raw value with unknot_value None, and a
    normalized call raises NotDivisible, every time."""
    routes = []
    for op, b, raw in _unknot_outside_the_ring():
        with pytest.raises(NotDivisible):
            unknot_value(op)
        assert _matrix_path(op, b) == raw
        for _ in range(2):
            result = compute_ts(op, b)
            assert (result.value, result.normalized, result.unknot_value) == (raw, False, None)
            with pytest.raises(NotDivisible):
                compute_ts(op, b, normalized=True)
        routes.append(_route(op))
    assert routes == ["closure", "coloring"]


# rings of the seeded operators below: units, other entry texts and betas,
# which are no unit
_SWEEP_RINGS = [
    (ScalarContext(("q",), (("s", "1-q^2"),)), ["1", "-1", "q", "q^-1", "-q"],
     ["s", "s/2", "(1+q)/2", "1-q", "2*s*q"], ["1+q", "1-q", "q+s"]),
    (ScalarContext(("p", "q"), (("r", "p*q"),)), ["1", "-1", "p", "q", "r", "r^-1"],
     ["1-p*q", "p+q", "1+r", "2*r"], ["1+q", "p+q", "1+r"]),
    (ScalarContext(("x",)), ["1", "-1", "i", "i*x", "x", "x^-1"],
     ["1+i*x", "1-x", "1/2", "x+x^2"], ["1+x", "1+i*x", "x+x^2"]),
]


def _seeded_operator(rng, ctx, units, others, betas):
    """A base-2 operator, not enhanced: R a weighted swap (with
    charge-raising entries or not) or six-vertex, both with unit weights
    where the determinant needs them, or sparse; mu diagonal, rank one,
    triangular or dense, two times in three beta times such a matrix;
    alpha a signed monomial or 1; beta no unit."""
    def pick(texts):
        return ctx.parse(rng.choice(texts))

    entries = units + others
    shape = rng.choice(("swap", "swap", "six-vertex", "six-vertex", "sparse"))
    if shape == "swap":
        r = {key: pick(units) for key in ((0, 0), (1, 2), (2, 1), (3, 3))}
        r.update((key, pick(others)) for key in rng.choice(([], [(3, 0)], [(1, 0), (3, 1)])))
    elif shape == "six-vertex":
        r = {key: pick(units) for key in ((0, 0), (1, 2), (2, 1), (3, 3))}
        r.update((key, pick(entries)) for key in rng.choice(([(2, 2)], [(1, 1), (2, 2)])))
    else:
        keys = [(i, j) for i in range(4) for j in range(4)]
        r = {key: pick(entries) for key in rng.sample(keys, rng.randint(3, 7))}
    beta = ctx.parse(rng.choice(betas))
    scale = beta if rng.random() < 2 / 3 else ctx.one()
    kind = rng.choice(("diagonal", "rank one", "triangular", "dense"))
    if kind == "rank one":
        u, v = ([pick(entries), pick(entries) * rng.randint(0, 1)] for _ in range(2))
        rows = [[scale * u[i] * v[j] for j in range(2)] for i in range(2)]
    else:
        rows = [[scale * pick(entries) for _ in range(2)] for _ in range(2)]
        if kind != "dense":
            rows[1][0] = ctx.zero()
        if kind == "diagonal":
            rows[0][1] = ctx.zero()
    alpha = rng.choice((1, -1)) * ctx.gen(ctx.generators[0], rng.randint(-1, 1))
    return EnhancedOperator(SquareMatrix(ctx, 4, r), SquareMatrix.from_rows(ctx, rows), alpha, beta)


def test_seeded_operators_that_are_not_enhanced_match_the_matrix_path():
    """150 seeded base-2 operators that verify_eyb does not accept, over a
    ring with a root whose radicand has a 1, one with the root of a product
    and one with i, on words of 2 to 4 strands with letters of both signs:
    compute_ts and open_trace give the whole word's matrix value, or raise
    the same error type.  The one exception is documented on compute_ts:
    the closed form inverts no R, so on an R that is not invertible in the
    ring it gives a value (or NotDivisible, for an unknot value outside the
    ring) where the matrix path raises for a negative letter.  One raw
    value has an unknot value outside the ring."""
    rng = random.Random(37)
    values, closed, outside, routes = 0, 0, 0, set()
    for k in range(150):
        op = _seeded_operator(rng, *_SWEEP_RINGS[k % 3])
        assert not verify_eyb(op)
        for b in _mixed_words(rng, 3, 4, 6):
            for keep, route in ((0, lambda: compute_ts(op, b).value),
                                (1, lambda: open_trace(op, b))):
                got, want = _outcome(route), _outcome(lambda: _matrix_path(op, b, keep))
                if got != want:  # the closed form on an R not invertible in the ring
                    assert want[1] in (NonInvertible, InverseOutsideRing), (k, b, keep)
                    assert got[0] == "value" or got[1] is NotDivisible, (k, b, keep)
                    assert _route(op) == "closed form", (k, b, keep)
                    closed += 1
                    continue
                values += got[0] == "value"
                # a raw value whose unknot value is not in the ring, which is not kept
                outside += keep == 0 and got[0] == "value" and "unknot" not in op._closure
        routes.add(_route(op))
    assert values >= 250 and closed > 0 and outside > 0
    assert routes == {"closed form", "coloring", "closure"}


def test_each_row_triangular_in_one_direction_equals_its_graded_operator():
    """ROADMAP item 13, step 1.  The 17 rows whose R and mu move the charge
    one way at most, with both signs, equal their graded operators (the
    charge-changing entries deleted) on the named links and seeded words;
    R1.1/1-5 and R1.4/1 move it both ways.  The graded R preserves the
    charge; for R2.3/1 and R1.3/1 it is the swap P with mu = +-1, and for
    R1.2/1-3 it is R2.2's R at p = 1."""
    rng = random.Random(13)
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += _random_words(rng, 12, 4, 8)
    triangular = 0
    for entry in table1_entries():
        for sign in "+-":
            op = entry.build(sign)
            label = (entry.rmatrix, entry.row, sign)
            if len(_charge_moves(op)) > 1:
                assert entry.rmatrix in ("R1.1", "R1.4"), label
                continue
            triangular += 1
            graded = _graded_operator(op)
            assert _charge_moves(graded) == set(), label
            for b in words:
                assert compute_ts(op, b).value == compute_ts(graded, b).value, (label, b)
            if entry.rmatrix in ("R2.3", "R1.3"):
                assert graded.r == SquareMatrix.from_rows(
                    op.ctx, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]), label
                assert graded.mu == SquareMatrix.diagonal(op.ctx, [int(f"{sign}1")] * 2), label
            if entry.rmatrix == "R1.2":
                assert graded.r == restricted_matrix("R2.2", (("p", "1"),), op.ctx), label
    assert triangular == 17 * 2


def test_the_weighted_swap_rows_keep_their_tags_on_every_braid():
    """On seeded braids of 1 to 8 strands, and on the similarity images of
    the rows: R3.1/1 gives the unknot value on every knot (knots-1), R3.1/2
    gives 0 on every knot (knots-0), and R2.3/1 and R1.3/1 give
    2^components (two-power-l)."""
    rng = random.Random(8)
    words = _random_words(rng, 300, 8, 14)
    links = [NamedLink(str(b), b, b.closure_components()) for b in words]
    assert sum(link.components == 1 for link in links) >= 40
    for rmatrix, row in WEIGHTED_SWAP_ROWS:
        entry = get_table1_entry(rmatrix, row)
        op = entry.build()
        ctx = op.ctx
        image = _images(op, 2, ctx.gen(ctx.generators[-1], -1))["similarity"]
        for enhanced in (op, image):
            asserted = 0
            for link in links:
                raw = compute_ts(enhanced, link.braid).value
                _, matched = invariant._tag_expectation(entry.tag, enhanced, link, raw)
                assert matched is not False, (rmatrix, row, link.name)
                asserted += matched is not None
            assert _route(enhanced) == "coloring"
            assert asserted >= 40, (rmatrix, row)


# -- the vanishing route of the alexander-zero rows --------------------------------


def _flip(op):
    """``op`` with R's two slots exchanged and its weight data kept."""
    return EnhancedOperator(transform_rmatrix(op.r, TransformSpec("flip")),
                            op.mu, op.alpha, op.beta)


def test_the_vanishing_route_matches_the_matrix_path():
    """The three alexander-zero rows with both signs and their similarity,
    transpose, shift and flip images, against the whole word's matrix: the
    named links, 30 seeded words with letters of both signs and T(p, p+1)
    for p <= 5.  Every image but the flips of R2.2/1 and R1.2/1, which are
    not enhanced, takes the route and gives 0; those two stay on the
    half-word closure and match too."""
    rng = random.Random(37)
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += _mixed_words(rng, 30, 4, 8) + [_torus(p, p + 1) for p in range(2, 6)]
    taken = []
    for rmatrix, row in VANISHING_ROWS:
        for sign in "+-":
            op = get_table1_eyb(rmatrix, row, sign=sign)
            kappa = op.ctx.gen(op.ctx.generators[-1], rng.choice((-1, 1)))
            images = dict(_images(op, rng.choice((1, -1, 2)), kappa), flip=_flip(op))
            for kind, image in [("row", op), *images.items()]:
                label = (rmatrix, row, sign, kind)
                for b in words:
                    value = compute_ts(image, b).value
                    assert value == _matrix_path(image, b), (label, b)
                    assert value.is_zero() or _route(image) != "vanishing", (label, b)
                if _route(image) == "vanishing":
                    taken.append(label)
                else:
                    assert kind == "flip" and rmatrix != "R1.1", label
                    assert not verify_eyb(image), label
    assert len(taken) == 3 * 2 * 5 - 4


def _conjugated_r31():
    """R3.1 at s = -1 with mu = diag(1, -1) and alpha = beta = 1, conjugated
    by Q = [[1, 1], [1, 2]]: enhanced, with Tr(mu) = 0, neither rank one nor
    graded, and R has four distinct eigenvalues, so no quadratic relation."""
    ctx = ScalarContext(("p", "q"))
    q = SquareMatrix.from_rows(ctx, [[1, 1], [1, 2]])
    qq = kron(q, q)
    r = matmul(matmul(qq, restricted_matrix("R3.1", (("s", "-1"),), ctx)), invert(qq))
    mu = matmul(matmul(q, SquareMatrix.diagonal(ctx, [1, -1])), invert(q))
    return EnhancedOperator(r, mu, ctx.one(), ctx.one())


def _jones_r_with_a_traceless_weight():
    """R2.1's R, which meets the braid relation and R^2 = (1 - pq) R + pq,
    with mu = diag(1, -1): Tr(mu) = 0, but the operator is not enhanced."""
    op = get_table1_eyb("R2.1", 1)
    return EnhancedOperator(op.r, SquareMatrix.diagonal(op.ctx, [1, -1]), op.alpha, op.beta)


def _is_hecke_or_refused(r):
    """``invariant._is_hecke``, with a refusal inside it read as False."""
    try:
        return invariant._is_hecke(r)
    except NotDivisible:
        return False


def test_an_operator_failing_one_condition_of_the_gate_keeps_the_state_sum():
    """Each operator has Tr(mu) = 0 and a nonzero value, and meets every
    condition of the gate but one: the quadratic relation for the
    conjugated R3.1, the enhancement for R2.1's R with diag(1, -1).  Each
    keeps the verdict that the gate fails and matches the matrix path."""
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += _mixed_words(random.Random(19), 10, 4, 6)
    hopf = get_named_braid("2^2_1").braid
    quadratic, enhancement = _conjugated_r31(), _jones_r_with_a_traceless_weight()
    for op, enhanced, hecke in ((quadratic, True, False), (enhancement, False, True)):
        assert tensor.trace(op.mu).is_zero()
        assert check_ybe(op.r) and bool(verify_eyb(op)) is enhanced
        assert _is_hecke_or_refused(op.r) is hecke
        for b in words:
            assert compute_ts(op, b).value == _matrix_path(op, b), b
        assert op._closure["route"] == invariant._Structure("closure", None)
        assert not compute_ts(op, hopf).value.is_zero()
    assert compute_ts(quadratic, hopf).value == quadratic.ctx.parse("2 - 2*p*q")


def test_a_refusal_inside_the_gate_means_no():
    """R1.1/1 with alpha = 1 + q: verify_eyb refuses the alpha that is no
    unit inside the gate, which reads as no, so compute_ts raises NotAUnit
    at writhe 2 and gives a value at writhe -2, as the closure does."""
    row = get_table1_entry("R1.1", 1)
    row = row.build(ctx=row.context())
    op = EnhancedOperator(row.r, row.mu, row.ctx.parse("1 + q"), row.beta)
    with pytest.raises(NotAUnit):
        verify_eyb(op)
    for route in (lambda b: compute_ts(op, b).value, lambda b: invariant._closure(op, b, 0)):
        with pytest.raises(NotAUnit):
            route(BraidWord(2, (1, 1)))
        assert route(BraidWord(2, (-1, -1))) == _matrix_path(op, BraidWord(2, (-1, -1)))
    assert op._closure["route"] == invariant._Structure("closure", None)


def test_the_quadratic_check_of_a_diagonal_r_reads_two_unequal_entries():
    """A diagonal R is quadratic with a unit c0 when its entries take at
    most two values whose product is a unit: c1 is their sum, or twice the
    one value.  Three values, or a value whose square is no unit, fail; so
    does an R with an off-diagonal entry and three eigenvalues."""
    ctx = ScalarContext(("q",))
    for values, hecke in ((["q", "-q^-1", "q", "q"], True), (["q"] * 4, True),
                          (["q", 1, 2, "q"], False), (["1+q"] * 4, False)):
        assert invariant._is_hecke(SquareMatrix.diagonal(ctx, values)) is hecke, values
    swap = SquareMatrix.from_rows(ctx, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert invariant._is_hecke(swap)
    assert not invariant._is_hecke(matadd(swap, SquareMatrix.diagonal(ctx, [0, 0, 0, 1])))


def test_the_alexander_zero_rows_vanish_above_the_state_sums_reach(monkeypatch):
    """With the half-word closure patched to raise, the three rows with both
    signs give 0 on T(11, 12) and on a seeded 12-strand, 60-letter word with
    letters of both signs.  On 13 strands the strand cap still refuses,
    every time, and a fresh operator keeps nothing but its verdict: R is
    not inverted for the negative letter."""
    def refuse(*args):
        raise AssertionError("a state sum ran")

    monkeypatch.setattr(invariant, "_half_word_closure", refuse)
    rng = random.Random(12)
    signs = [1, -1] * 30
    rng.shuffle(signs)
    mixed = BraidWord(12, tuple(sign * rng.randint(1, 11) for sign in signs))
    over = [_torus(13, 14), BraidWord(13, (1, -2, 12))]
    for rmatrix, row in VANISHING_ROWS:
        entry = get_table1_entry(rmatrix, row)
        for sign in "+-":
            op = entry.build(sign, ctx=entry.context())
            for b in over:
                for _ in range(2):
                    with pytest.raises(StrandBoundViolation, match="2\\^13 states"):
                        compute_ts(op, b)
            assert op._closure == {"route": invariant._Structure("vanishing", None)}
            assert op.r._inverse is None
            for b in (_torus(11, 12), mixed):
                assert compute_ts(op, b).value.is_zero(), (rmatrix, row, sign, b)
