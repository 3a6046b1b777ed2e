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
    trace_product,
)
from test_acceptance import _shift_mu

from ybtrace import eyb, invariant, ring, tensor
from ybtrace.braid import (
    NAMED_LINKS,
    BraidWord,
    conjugate,
    get_named_braid,
    parse_braid,
    stabilize,
)
from ybtrace.catalog import TransformSpec, transform_rmatrix
from ybtrace.dressing import preset_dressings, preset_names
from ybtrace.errors import (
    DimensionMismatch, ExponentOverflow, NotAUnit, NotDivisible, ProportionalityFailure,
    StrandBoundViolation,
)
from ybtrace.eyb import (
    EnhancedOperator, get_table1_entry, get_table1_eyb, table1_entries, verify_eyb,
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
    MAX_ENTRIES, SquareMatrix, invert, kron, matadd, matmul, scalar_scale, weighted_trace,
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


# -- the open-strand closure ----------------------------------------------------

# the three alexander-zero rows, each with the substitution that makes its
# variable x = t^2
ALEXANDER_ROWS = {("R2.2", 1): {"p": "t^2", "q": "1"}, ("R1.1", 1): {"q": "t"},
                  ("R1.2", 1): {"q": "t^2"}}


def test_open_trace_of_each_alexander_row_matches_the_skein_oracle():
    """Both signs, on the named links and on seeded words of up to five strands."""
    ctx = ScalarContext(("t",))
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += _random_words(random.Random(11), 40, 5, 8)
    oracles = [conway_in_t(ctx, conway_polynomial(b.strands, b.letters)) for b in words]
    for (rmatrix, row), bindings in ALEXANDER_ROWS.items():
        for sign in "+-":
            op = get_table1_eyb(rmatrix, row, sign=sign)
            for b, oracle in zip(words, oracles):
                value = substitute(open_trace(op, b), bindings, ctx)
                assert equal_up_to_unit(value, oracle), (rmatrix, row, sign, b)


def test_open_trace_refuses_a_partial_closure_off_the_identity():
    trefoil = get_named_braid("3_1").braid
    for op in (get_table1_eyb("R2.1", 2), preset_dressings("d3_R21").eyb):
        with pytest.raises(ProportionalityFailure, match="not a multiple of the identity"):
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
    seeded words of up to five strands; the three presets (base 3 and 4) on
    the named links of up to three strands and seeded words of up to three."""
    rng = random.Random(16)
    links = [get_named_braid(name).braid for name in NAMED_LINKS]
    words = links + EDGE_WORDS + _random_words(rng, 6, 5, 8)
    failures = 0
    for entry in table1_entries():
        for sign in "+-":
            label = f"{entry.rmatrix}/{entry.row}{sign}"
            failures += _assert_half_word_closure(entry.build(sign), words, label)
    small = [b for b in links + EDGE_WORDS if b.strands <= 3]
    for name in preset_names():
        op = preset_dressings(name).eyb
        failures += _assert_half_word_closure(
            op, small + _random_words(rng, 6, 3, 6), name)
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
    of 2 to 5 strands: R and R^-1 keep their embeddings under (i, n, base)
    only, never under a word, at most MAX_ENTRIES entries in total, and
    each is the embedding built afresh."""
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
            for m in (op.r, op.r._inverse):
                embeddings = (m._embeddings if m is not None else None) or {}
                assert sum(len(e.entries) for e in embeddings.values()) <= MAX_ENTRIES
                for key, e in embeddings.items():
                    i, n, base = key
                    assert base == op.base_dim and 1 <= i < n <= 5, key
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


# -- the rank-one push ------------------------------------------------------------

RANK_ONE_ROWS = [("R3.1", 3), ("R3.1", 4), ("R2.1", 2), ("R2.1", 3), ("R2.1", 4),
                 ("R2.1", 5), ("R2.2", 2), ("R2.2", 3), ("R1.1", 2), ("R1.1", 3),
                 ("R1.1", 4), ("R1.1", 5), ("R1.2", 2), ("R1.2", 3)]


def _matrix_path(op, b, keep=0):
    """alpha^-w beta^-(n - keep) times the multiple of the identity that
    ``weighted_trace`` leaves on strands 1..keep of the whole word's
    representation matrix, closed over the other strands; keep=0 gives
    alpha^-w beta^-n Tr(rep mu^(x n)).  ProportionalityFailure when what is
    left is not such a multiple."""
    n = b.strands
    rep = braid_representation(op.r, b, op.base_dim)
    left = weighted_trace(rep, op.mu, range(keep + 1, n + 1))
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


def _assert_factors(mu, factors):
    u, v, piv = factors
    outer = SquareMatrix(mu.ctx, mu.side, {(r, c): x * y for r, x in u.items()
                                           for c, y in v.items()})
    assert scalar_scale(mu, piv) == outer


def _pushed_operator():
    """A fresh operator on R1.1's R, over row 2's ring, whose rank-one weight
    [[1, 1], [0, 0]] takes the push: v (x) v = (1, 1, 1, 1) is not a left
    eigenvector of R.  It is not enhanced, which compute_ts does not need."""
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
    """A weight of rank one builds no representation matrix; any other, and
    every open trace, builds that of the right half of the word only."""
    built = []

    def spy(r, b, base=None):
        built.append(b)
        return braid_representation(r, b, base)

    monkeypatch.setattr(invariant, "braid_representation", spy)
    b = get_named_braid("5_2").braid
    half = BraidWord(b.strands, b.letters[len(b.letters) // 2:])
    assert half.letters == (2, 1, 1)
    ops = [get_table1_eyb(m, row) for m in ("R2.1", "R3.1", "R1.1") for row in (1, 2)]
    ops += [preset_dressings(name).eyb for name in preset_names()]
    for op in ops:
        built.clear()
        compute_ts(op, b)
        assert built == ([] if rank_one_factors(op.mu) else [half])
    built.clear()
    open_trace(get_table1_eyb("R1.2", 1), b)
    assert built == [half]


def test_rank_one_push_matches_matrix_path():
    """The 14 rank-one rows with both signs, which take the closed form, and
    R1.1's R with a rank-one weight that is pushed, on the named links and
    on seeded words of up to five strands with both letter signs."""
    rng = random.Random(5)
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += _random_words(rng, 8, 5, 8)
    ops = [((rmatrix, row, sign), get_table1_eyb(rmatrix, row, sign=sign))
           for rmatrix, row in RANK_ONE_ROWS for sign in "+-"]
    ops.append(("pushed", _pushed_operator()))
    for label, op in ops:
        for b in words:
            assert compute_ts(op, b).value == _matrix_path(op, b), (label, b)
    assert ops[-1][1]._closure["eigen"] is None
    assert all(op._closure["eigen"] is not None for _, op in ops[:-1])


def _images(op, m, kappa):
    """The similarity (Q = [[1, m], [0, 1]] and the unit kappa), transpose and
    shift images of an enhanced operator of side 2, each with its weight
    data carried along, so that each is enhanced again."""
    ctx = op.ctx
    q = SquareMatrix.from_rows(ctx, [[1, m], [0, 1]])
    return {
        "similarity": EnhancedOperator(
            transform_rmatrix(op.r, TransformSpec("similarity", kappa=kappa, q=q), 2),
            matmul(matmul(q, op.mu), invert(q)), kappa * op.alpha, op.beta),
        "transpose": EnhancedOperator(
            transform_rmatrix(op.r, TransformSpec("transpose"), 2),
            op.mu.transpose(), op.alpha, op.beta),
        "shift": EnhancedOperator(
            transform_rmatrix(op.r, TransformSpec("shift", n=1), 2),
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
                assert image._closure["eigen"].is_unit(), label


def test_rank_one_push_matches_matrix_path_in_base_three():
    """A seeded side-9 R (the rows of a unipotent matrix permuted, so it
    inverts in the ring) with a rank-one weight; no Yang-Baxter equation is
    needed for the identity Tr(rep u^(x n) v^(x n)^T) = (v^(x n))^T rep u^(x n)."""
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


def test_rank_one_push_refuses_a_state_space_above_the_cap(monkeypatch):
    def refuse(*args):
        raise AssertionError("a vector was pushed")

    monkeypatch.setattr(invariant, "pack", refuse)
    monkeypatch.setattr(invariant, "push_at", refuse)
    for op in (get_table1_eyb("R1.1", 2), _pushed_operator()):
        with pytest.raises(StrandBoundViolation, match="2\\^40 states, above the cap"):
            compute_ts(op, BraidWord(40, (1,)))


def test_failing_annihilating_relation_returns_the_sum_as_residual():
    ctx = ScalarContext(("p", "q"))
    r = get_relation("R2.1").matrix(ctx)
    rinv = invert(r)
    ident = SquareMatrix.identity(ctx, 4)
    cases = (
        ({1: ctx.one(), 0: ctx.one()}, matadd(r, ident)),
        ({2: "1", -2: "p", 0: -1},
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
    # R1.1's R with a rank-one weight pushes it; R1.3/1 builds the
    # representation matrix.  Fresh operators: the shared ones may already
    # keep R's inverse.
    matrix_row = get_table1_entry("R1.3", 1)
    for make, pushed in ((_pushed_operator, True),
                         (lambda: matrix_row.build(ctx=matrix_row.context()), False)):
        op = make()
        assert (rank_one_factors(op.mu) is not None) == pushed
        pieces.clear()
        compute_ts(op, get_named_braid("5_1").braid)  # no negative letter
        assert pieces == []
        first = compute_ts(op, word).value
        inverted = len(pieces)
        assert inverted > 0
        assert compute_ts(op, word).value == first
        assert len(pieces) == inverted


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
    expected = {b: _matrix_path(_pushed_operator(), b) for b in (trefoil, cinquefoil)}
    for name in ("rank_one_factors", "unknot_value", "_tensor_power"):
        _spy(monkeypatch, calls, invariant, name)
    op = _pushed_operator()
    first = compute_ts(op, trefoil, normalized=True)
    # the unknot value Tr(mu) / beta is 1, so the normalized value is the raw one
    assert first.unknot_value == op.ctx.one() and first.value == expected[trefoil]
    assert calls == {"rank_one_factors": 1, "unknot_value": 1, "_tensor_power": 2}
    calls.update(dict.fromkeys(calls, 0))
    # the same strand count, by the same word or another
    assert compute_ts(op, trefoil, normalized=True) == first
    assert compute_ts(op, cinquefoil).value == expected[cinquefoil]
    assert calls == dict.fromkeys(calls, 0)
    # another strand count makes its own tensor powers
    assert figure_eight.strands != trefoil.strands
    compute_ts(op, figure_eight)
    assert calls == {"rank_one_factors": 0, "unknot_value": 0, "_tensor_power": 2}
    # and a fresh build of the same row computes everything again
    calls.update(dict.fromkeys(calls, 0))
    assert compute_ts(_pushed_operator(), trefoil, normalized=True) == first
    assert calls == {"rank_one_factors": 1, "unknot_value": 1, "_tensor_power": 2}
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
        "factors", "unknot", ("beta", 2), ("beta", 3), ("rows", 2, 0), ("rows", 3, 0),
        ("rows", 3, 1), ("transpose", True), ("transpose", False)}
    assert op._closure[("transpose", True)] == op.r.transpose()
    assert op._closure[("transpose", False)] == invert(op.r).transpose()
    for n, keep in ((2, 0), (3, 0), (3, 1)):
        weight = kron(SquareMatrix.identity(op.ctx, 2 ** keep), kron_power(op.mu, n - keep))
        assert op._closure[("rows", n, keep)].unpack() == {
            r * 2 ** n + c: x for (r, c), x in weight.entries.items()}, (n, keep)


def test_a_second_push_builds_no_crossing_table(monkeypatch):
    built = []
    original = tensor._crossing_table
    monkeypatch.setattr(tensor, "_crossing_table", lambda r: built.append(r) or original(r))
    op = _pushed_operator()
    word = get_named_braid("4_1").braid
    assert rank_one_factors(op.mu) is not None and any(k < 0 for k in word.letters)
    first = compute_ts(op, word).value
    # R and its inverse, each once
    assert len(built) == 2 and {id(r) for r in built} == {id(op.r), id(invert(op.r))}
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
        assert set(op._closure) == {"factors", "eigen", "unknot", ("unknot", 2), ("unknot", 3)}
        assert op._closure["eigen"] == op.ctx.parse(entry.intertwine)
        for n in (2, 3):
            assert op._closure[("unknot", n)] == pow_int(unknot_value(op), n)


def test_the_closed_form_overflows_where_the_push_does():
    """R3.1/4 has c = alpha = s: c^w alpha^-w is 1 up to 4095 letters of
    either sign, and at 4096 one of the two powers leaves the exponent range,
    as the pushed vector or alpha's power does."""
    entry = get_table1_entry("R3.1", 4)
    op = entry.build(ctx=entry.context())
    factors = rank_one_factors(op.mu)
    routes = (lambda b: compute_ts(op, b).value,
              lambda b: invariant._pushed_trace(op, b, *factors))
    for letter in (1, -1):
        for route in routes:
            assert route(BraidWord(2, (letter,) * 4095)) == op.ctx.one()
            with pytest.raises(ExponentOverflow):
                route(BraidWord(2, (letter,) * 4096))
    assert op._closure["eigen"] == op.ctx.gen("s")


def test_the_closed_form_refuses_a_non_unit_alpha_where_the_push_does():
    """R2.1/2's R and mu with alpha = 1 + p: alpha^-w needs a unit at
    writhe 2, and is (1 + p)^2 at writhe -2, on both routes."""
    entry = get_table1_entry("R2.1", 2)
    row = entry.build(ctx=entry.context())
    op = EnhancedOperator(row.r, row.mu, row.ctx.parse("1 + p"), row.beta)
    factors = rank_one_factors(op.mu)
    for route in (lambda b: compute_ts(op, b).value,
                  lambda b: invariant._pushed_trace(op, b, *factors)):
        with pytest.raises(NotAUnit):
            route(BraidWord(2, (1, 1)))
        assert route(BraidWord(2, (-1, -1))) == op.ctx.parse("1 + 2*p + p^2")
    assert op._closure["eigen"] == op.ctx.one()


def test_a_warm_classification_pushes_nothing_for_the_rank_one_rows(monkeypatch):
    """Every push_at call of a warm classification_report comes from the nine
    rows whose weight is not rank one: their half-word closures."""
    report = classification_report()
    calls = {}
    _spy(monkeypatch, calls, invariant, "push_at")
    assert classification_report() == report
    total = calls["push_at"]
    assert total > 0
    rank_one = [get_table1_entry(rmatrix, row) for rmatrix, row in RANK_ONE_ROWS]
    calls["push_at"] = 0
    classification_report(rank_one)
    assert calls["push_at"] == 0
    classification_report([e for e in table1_entries() if e not in rank_one])
    assert calls["push_at"] == total


def test_classification_report_warm_equals_cold_and_the_goldens(monkeypatch):
    golden = Path(__file__).resolve().parent / "golden"
    monkeypatch.setattr(eyb, "_shared_ops", {})
    calls = {}
    for spied in ("rank_one_factors", "unknot_value", "_tensor_power"):
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
    def refuse(*args):
        raise AssertionError("a tensor power was built")

    monkeypatch.setattr(invariant, "_tensor_power", refuse)
    for rmatrix, row in (("R1.1", 2), ("R2.1", 1)):
        entry = get_table1_entry(rmatrix, row)
        op = entry.build(ctx=entry.context())
        for _ in range(2):
            with pytest.raises(StrandBoundViolation, match="2\\^40 states"):
                compute_ts(op, BraidWord(40, (1,)))
        assert set(op._closure) <= {"factors"}
