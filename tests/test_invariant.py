"""Trace invariants, annihilating relations, skein sums, the one-variable
regularized invariant, classification."""

import random

import pytest

from oracles import (
    conway_in_t,
    conway_polynomial,
    equal_up_to_unit,
    kron_power,
    trace_product,
)

from ybtrace import eyb, invariant, ring, tensor
from ybtrace.braid import (
    NAMED_LINKS,
    BraidWord,
    conjugate,
    get_named_braid,
    parse_braid,
    stabilize,
)
from ybtrace.dressing import preset_dressings, preset_names
from ybtrace.errors import NotDivisible, ProportionalityFailure, StrandBoundViolation
from ybtrace.eyb import EnhancedOperator, get_table1_entry, get_table1_eyb, table1_entries
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
from ybtrace.ring import ScalarContext, pow_int, substitute, try_div_exact
from ybtrace.tensor import SquareMatrix, invert, matadd, matmul, scalar_scale, weighted_trace


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

COPRIME_TORUS = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (5, 6))


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


def _matrix_path(op, b):
    """alpha^-w beta^-n Tr(rep mu^(x n)) from the representation matrix."""
    n = b.strands
    rep = braid_representation(op.r, b, op.base_dim)
    raw = weighted_trace(rep, op.mu, range(1, n + 1)).get(0, 0)
    return pow_int(op.alpha, -b.writhe) * try_div_exact(raw, pow_int(op.beta, n))


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
    built = []

    def spy(r, b, base=None):
        built.append(b)
        return braid_representation(r, b, base)

    monkeypatch.setattr(invariant, "braid_representation", spy)
    b = get_named_braid("5_2").braid
    ops = [get_table1_eyb(m, row) for m in ("R2.1", "R3.1", "R1.1") for row in (1, 2)]
    ops += [preset_dressings(name).eyb for name in preset_names()]
    for op in ops:
        built.clear()
        compute_ts(op, b)
        assert built == ([] if rank_one_factors(op.mu) else [b])


def test_rank_one_push_matches_matrix_path():
    """The 14 rank-one rows with both signs on the named links and on seeded
    words of up to five strands with both letter signs."""
    rng = random.Random(5)
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    words += _random_words(rng, 8, 5, 8)
    for rmatrix, row in RANK_ONE_ROWS:
        for sign in "+-":
            op = get_table1_eyb(rmatrix, row, sign=sign)
            for b in words:
                assert compute_ts(op, b).value == _matrix_path(op, b), (rmatrix, row, sign, b)


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

    monkeypatch.setattr(invariant, "apply_at", refuse)
    op = get_table1_eyb("R1.1", 2)
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
    # R2.1/2 pushes its rank-one weight; R1.3/1 builds the representation matrix.
    # Fresh operators: the shared ones may already keep R's inverse.
    for name, row, pushed in (("R2.1", 2, True), ("R1.3", 1, False)):
        entry = get_table1_entry(name, row)
        op = entry.build(ctx=entry.context())
        assert (rank_one_factors(op.mu) is not None) == pushed
        pieces.clear()
        first = compute_ts(op, word).value
        inverted = len(pieces)
        assert inverted > 0
        assert compute_ts(op, word).value == first
        assert len(pieces) == inverted


def test_alexander_nabla_builds_and_inverts_its_operator_once(monkeypatch):
    calls = {"restricted_matrix": 0, "_invert_piece": 0, "parse_scalar": 0, "__init__": 0}

    def spy(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(eyb, "restricted_matrix")
    spy(tensor, "_invert_piece")
    spy(ring, "parse_scalar")
    spy(ring.ScalarContext, "__init__")
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
