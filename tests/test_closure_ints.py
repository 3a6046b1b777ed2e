"""The closure's int route against the half-word closure behind it.

``invariant._closure`` takes an operator whose ring has one generator and
no root to ``invariant._closure_on_ints`` first: mu's entries and the kept
transposes of R and R^-1 become ``ring.kronecker`` ints, and the rows of
1^(x keep) (x) mu^(x k) are pushed through every letter on ints.  Where the
map does not apply it returns None, and the half-word closure runs
(``invariant._half_word_closure``).  Values, errors and messages must be
the half-word closure's, and the whole word's matrix path's; the operators
the tables and ``alexander_nabla`` use must never need the half-word
closure, and the others must never reach the int route.
"""

import random
from fractions import Fraction

import pytest

from oracles import nabla_by_burau
from test_invariant import (
    INT_ROWS, ROUTES, _images, _matrix_path, _mixed_words, _random_words, _torus,
)

from ybtrace import invariant
from ybtrace.braid import KNOT_NAMES, NAMED_LINKS, BraidWord, get_named_braid
from ybtrace.dressing import preset_dressings, preset_names
from ybtrace.errors import (
    ExponentOverflow, InverseOutsideRing, NonInvertible, ProportionalityFailure, YbtraceError,
)
from ybtrace.eyb import EnhancedOperator, get_table1_entry
from ybtrace.invariant import alexander_nabla, classification_report, open_trace
from ybtrace.ring import MAX_EXPONENT, MAX_KRONECKER_BITS, Scalar, ScalarContext
from ybtrace.tables import run_table
from ybtrace.tensor import SquareMatrix, matmul

# closure rows whose ring has two generators or a root
EXACT_ROWS = (("R2.1", 1), ("R1.2", 1), ("R2.2", 1))


def _fresh(rmatrix, row, sign="+"):
    """A Table-1 operator of its own, so that the closure constants a
    direct ``_closure`` call keeps stay off the shared one."""
    entry = get_table1_entry(rmatrix, row)
    return entry.build(sign, ctx=entry.context())


def _outcome(route):
    try:
        return route()
    except YbtraceError as exc:
        return type(exc), str(exc)


def _refuse(*args, **kwargs):
    raise AssertionError("a route this test rules out ran")


def _taken(monkeypatch):
    """A list that grows on each int route by whether ``ring.kronecker``
    mapped its entries."""
    taken, original = [], invariant.kronecker

    def counted(*args, **kwargs):
        mapped = original(*args, **kwargs)
        taken.append(mapped is not None)
        return mapped

    monkeypatch.setattr(invariant, "kronecker", counted)
    return taken


def _assert_as_exact(monkeypatch, op, words, label, matrix=True):
    """Each word's closure, all slots closed and slots 2..n closed, takes the
    int route and gives the half-word closure's value or error and message,
    with ``kronecker`` patched to return None, and the whole word's matrix
    path's value or error class."""
    taken = _taken(monkeypatch)
    for b in words:
        for keep in (0, 1):
            ints = _outcome(lambda: invariant._closure(op, b, keep))
            assert taken == [True], (label, keep, b)
            taken.clear()
            with monkeypatch.context() as patch:
                patch.setattr(invariant, "kronecker", lambda *args, **kwargs: None)
                exact = _outcome(lambda: invariant._closure(op, b, keep))
            assert ints == exact, (label, keep, b)
            if matrix:
                expected = _outcome(lambda: _matrix_path(op, b, keep))
                assert (ints[0] if isinstance(ints, tuple) else ints) == (
                    expected[0] if isinstance(expected, tuple) else expected), (label, keep, b)
    monkeypatch.undo()


def _laurent(ctx, rng, spread=2):
    """A seeded Scalar in one generator x with 1 to 3 terms, exponents in
    [-spread, spread] and coefficients in +-1..3 over 1..3."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[(2 * rng.randint(-spread, spread),)] = Fraction(
            rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 3))
    return Scalar(ctx, terms)


def _unit(ctx, rng):
    return Scalar(ctx, {(2 * rng.randint(-2, 2),): Fraction(rng.choice((1, -1)),
                                                              rng.randint(1, 3))})


def _seeded_operator(ctx, rng, base=2):
    """An operator over ``ctx`` whose R = L M is invertible in the ring: L
    unit lower triangular with seeded Laurent entries, M a permutation
    matrix times seeded units.  mu is a seeded dense or sparse matrix of
    Laurent entries; alpha and beta are seeded units.  It is not enhanced."""
    side = base * base
    lower = SquareMatrix(ctx, side, {
        **{(i, i): ctx.one() for i in range(side)},
        **{(i, j): _laurent(ctx, rng) for i in range(side) for j in range(i)
           if rng.random() < 0.3}})
    perm = list(range(side))
    rng.shuffle(perm)
    monomial = SquareMatrix(ctx, side, {(i, perm[i]): _unit(ctx, rng) for i in range(side)})
    mu = SquareMatrix(ctx, base, {(i, j): _laurent(ctx, rng) for i in range(base)
                                  for j in range(base) if i == j or rng.random() < 0.5})
    return EnhancedOperator(matmul(lower, monomial), mu, _unit(ctx, rng), _unit(ctx, rng))


EDGE_WORDS = [BraidWord(1), BraidWord(2), BraidWord(3), BraidWord(2, (1,)), BraidWord(2, (-1,)),
              BraidWord(3, (1, -2)), BraidWord(3, (-2, -2, -1))]


def test_the_int_route_matches_the_half_word_closure_and_the_matrix_path(monkeypatch):
    """R1.1/1 and R1.4/1 with both signs and their similarity, transpose and
    shift images, the operator of ``alexander_nabla``, and seeded operators
    over one generator with rational and Laurent entries (base 2 and 3, not
    enhanced, so many open traces fail): the named links, edge words (one
    strand, no letters, single letters of both signs), seeded words with
    letters of both signs and T(p, p+1) for p <= 4, all closed and slots
    2..n closed.  T(5, 6) and T(6, 7) against the half-word closure only,
    on R1.4/1 and the Alexander operator.  A dense operator with no
    cancellation on positive words of up to three strands."""
    rng = random.Random(34)
    links = [get_named_braid(name).braid for name in NAMED_LINKS]
    words = links + EDGE_WORDS + _mixed_words(rng, 6, 4, 8) + [
        _torus(p, p + 1) for p in range(2, 5)]
    alexander_nabla(BraidWord(1))
    nabla = invariant._nabla_operator[0]
    ops = [((rmatrix, row, sign), _fresh(rmatrix, row, sign))
           for rmatrix, row in INT_ROWS for sign in "+-"]
    for label, op in list(ops):
        q = op.ctx.gen("q")
        for kind, image in _images(op, q, q ** -1).items():
            ops.append(((label, kind), image))
    ops.append(("nabla", nabla))
    x = ScalarContext(("x",))
    ops += [(("seeded", k), _seeded_operator(x, rng)) for k in range(4)]
    for label, op in ops:
        _assert_as_exact(monkeypatch, op, words, label)
    three = _seeded_operator(x, rng, base=3)
    _assert_as_exact(monkeypatch, three, [b for b in words if b.strands <= 3], "base 3")
    long = [_torus(p, p + 1) for p in (5, 6)]
    for label, op in (("R1.4", _fresh("R1.4", 1)), ("nabla", nabla)):
        _assert_as_exact(monkeypatch, op, long, label, matrix=False)
    # every entry x and every weight 1, so nothing cancels: the trace is
    # 2^k 4^L x^L, whose coefficient grows with the letters as the count does
    dense = EnhancedOperator(SquareMatrix.from_rows(x, [["x"] * 4] * 4),
                             SquareMatrix.from_rows(x, [[1, 1], [1, 1]]), x.one(), x.one())
    positive = [b for b in words if b.strands <= 3 and all(k > 0 for k in b.letters)]
    assert max(len(b.letters) for b in positive) >= 8
    _assert_as_exact(monkeypatch, dense, positive, "dense")
    failed = 0
    for _, op in ops[-4:]:
        for b in links:
            try:
                open_trace(op, b)
            except ProportionalityFailure:
                failed += 1
    assert failed > 0


def test_rows_past_the_entry_cap_are_pushed_one_at_a_time(monkeypatch):
    """A dense mu over one generator: on 8 strands its rows hold 4^8
    entries, above MAX_ENTRIES, so both routes push them one row per
    batch; on 7 strands in one batch.  The values match."""
    ctx = ScalarContext(("q",))
    r = _fresh("R1.4", 1).r
    mu = SquareMatrix.from_rows(ctx, [["1", "q"], ["2", "q^-1"]])
    op = EnhancedOperator(r, mu, ctx.one(), ctx.one())
    words = [BraidWord(8, (3, -5)), BraidWord(7, (3, -5, 1))]
    _assert_as_exact(monkeypatch, op, words, "dense", matrix=False)


def test_the_tables_and_alexander_nabla_never_need_the_half_word_closure(monkeypatch):
    """Every R1.1/1 and R1.4/1 cell of Table 1, each a one-cell
    classification as the tables benchmark asks for it, matches and reaches
    neither closure: R1.1/1 takes the vanishing route, R1.4/1 the coloring
    sum.  ``alexander_nabla`` on the named links takes the int route and
    matches.  R2.1/1, R1.2/1, R2.2/1, the presets and the collapsed
    operators of tables 2-4 never reach the int route."""
    links = [get_named_braid(name) for name in NAMED_LINKS]
    expected = {(row["rmatrix"], row["row"], row["link"]): row for row in classification_report()}
    monkeypatch.setattr(invariant, "_half_word_closure", _refuse)
    assert [ROUTES[key] for key in INT_ROWS] == ["vanishing", "coloring"]
    for rmatrix, row in INT_ROWS:
        entry = get_table1_entry(rmatrix, row)
        with monkeypatch.context() as patch:
            patch.setattr(invariant, "_closure_on_ints", _refuse)
            for link in links:
                cell, = classification_report(entries=[entry], links=[link])
                assert cell == expected[rmatrix, row, link.name]
                assert cell["match"] != "no"
    for link in links:
        value = alexander_nabla(link.braid)
        assert {e // 2: re for (e,), (re, _) in value.terms.items()} == nabla_by_burau(
            link.braid.strands, link.braid.letters), link.name
    monkeypatch.undo()
    monkeypatch.setattr(invariant, "_closure_on_ints", _refuse)
    for rmatrix, row in EXACT_ROWS:
        entry = get_table1_entry(rmatrix, row)
        for sign in "+-":
            op = entry.build(sign, ctx=entry.context())
            for link in links:
                invariant.compute_ts(op, link.braid)
    small = [get_named_braid(name).braid for name in ("3_1", "4_1", "2^2_1")]
    for preset in preset_names():
        for b in small:
            invariant.compute_ts(preset_dressings(preset).eyb, b)
    for which in (2, 3, 4):
        assert run_table(which).ok


def test_the_exponent_gate_sends_far_exponents_to_the_half_word_closure(monkeypatch):
    """R with the entry x^200 at (00, 00) on sigma_1^L: L + 2 factors of
    doubled exponent 400 pass the gate up to L = 18 and are refused from
    L = 19; the half-word closure then gives x^(200 L) up to L = 20 and
    ExponentOverflow at L = 21, where x^4200 leaves the range."""
    ctx = ScalarContext(("x",))
    r = SquareMatrix.from_rows(ctx, [["x^200", 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                                     [0, 0, 0, 1]])
    mu = SquareMatrix.diagonal(ctx, [1, 0])
    op = EnhancedOperator(r, mu, ctx.one(), ctx.one())
    assert (18 + 2) * 400 < 2 * MAX_EXPONENT <= (19 + 2) * 400
    taken = _taken(monkeypatch)
    for length, took in ((18, True), (19, False), (20, False)):
        b = BraidWord(2, (1,) * length)
        taken.clear()
        value = invariant._closure(op, b, 0)
        assert value == ctx.gen("x", 200 * length) and taken == [took], length
    taken.clear()
    with pytest.raises(ExponentOverflow):
        invariant._closure(op, BraidWord(2, (1,) * 21), 0)
    assert taken == [False]


def test_a_word_past_the_bit_cap_takes_the_half_word_closure(monkeypatch):
    """R1.1/1's open trace of sigma_1^L maps within MAX_KRONECKER_BITS at
    L = 102 and not at L = 103: both give the half-word closure's value."""
    op = _fresh("R1.1", 1)
    taken = _taken(monkeypatch)
    for length, took in ((102, True), (103, False)):
        b = BraidWord(2, (1,) * length)
        taken.clear()
        value = invariant._closure(op, b, 1)
        assert taken == [took], length
        with monkeypatch.context() as patch:
            patch.setattr(invariant, "kronecker", lambda *args, **kwargs: None)
            assert invariant._closure(op, b, 1) == value
    assert MAX_KRONECKER_BITS == 1 << 16


def test_a_singular_or_non_unit_r_raises_on_a_negative_letter_as_the_closure_does(monkeypatch):
    """R1.4/1's R with its (01, 01) entry 0 is singular, and with 1 + q
    there its determinant is not a unit: a negative letter raises
    NonInvertible, or InverseOutsideRing, with the half-word closure's
    message, every time; positive words take the int route, invert
    nothing and match."""
    ctx = ScalarContext(("q",))
    for weight, error in (("0", NonInvertible), ("1 + q", InverseOutsideRing)):
        r = SquareMatrix.from_rows(ctx, [[0, 0, 0, "q"], [0, weight, 0, 0], [0, 0, 1, 0],
                                         ["q", 0, 0, 0]])
        mu = SquareMatrix.diagonal(ctx, [1, 1])
        messages = []
        for kronecker in (invariant.kronecker, lambda *args, **kwargs: None):
            monkeypatch.setattr(invariant, "kronecker", kronecker)
            op = EnhancedOperator(r, mu, ctx.one(), ctx.one())
            for _ in range(2):
                with pytest.raises(error) as raised:
                    invariant._closure(op, BraidWord(3, (1, -2, 1)), 0)
                messages.append(str(raised.value))
        assert len(set(messages)) == 1, messages
        monkeypatch.undo()
        op = EnhancedOperator(SquareMatrix(ctx, 4, dict(r.entries)), mu, ctx.one(), ctx.one())
        taken = _taken(monkeypatch)
        for b in (BraidWord(3, (1, 2, 1)), get_named_braid("5_1").braid):
            assert invariant._closure(op, b, 0) == _matrix_path(op, b)
        assert taken == [True, True]
        assert op.r._inverse is None and ("transpose", False) not in op._closure
        monkeypatch.undo()


def test_an_operator_that_is_not_enhanced_fails_the_open_trace_on_ints(monkeypatch):
    """R1.4/1's R with mu = diag(1, q): the open trace of the trefoil is no
    multiple of the identity, on ints as by the half-word closure, with
    the same message."""
    row = _fresh("R1.4", 1)
    ctx = row.ctx
    op = EnhancedOperator(row.r, SquareMatrix.diagonal(ctx, [1, "q"]), row.alpha, row.beta)
    trefoil = get_named_braid("3_1").braid
    taken = _taken(monkeypatch)
    with pytest.raises(ProportionalityFailure) as ints:
        open_trace(op, trefoil)
    assert taken == [True]
    monkeypatch.setattr(invariant, "kronecker", lambda *args, **kwargs: None)
    with pytest.raises(ProportionalityFailure) as exact:
        open_trace(op, trefoil)
    assert str(ints.value) == str(exact.value) == (
        "partial closure is not a multiple of the identity")


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
