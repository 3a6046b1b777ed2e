"""Sparse matrices: products, embeddings, traces, exact inversion."""

import functools
import itertools
import random
import re
from fractions import Fraction

import pytest

from ybtrace.catalog import get_rmatrix
from ybtrace.errors import (
    DimensionMismatch,
    InverseOutsideRing,
    NonInvertible,
    ParseError,
    PositionOutOfRange,
)
from ybtrace.ring import ScalarContext
from ybtrace.tensor import (
    MAX_ENTRIES,
    SquareMatrix,
    Verdict,
    embed_generator,
    invert,
    kron,
    matadd,
    matmul,
    matmul_sub,
    matrix_from_json,
    matrix_to_json,
    scalar_scale,
    trace,
)

from oracles import (
    apply_at, kron_power, matsub, partial_trace, trace_product, weighted_trace_sequential,
)


@pytest.fixture
def ctx():
    return ScalarContext(("p", "q"), (("sqrt_pq", "p*q"),))


def test_from_rows_and_diagonal_take_the_same_entry_types(ctx):
    """A Scalar, text, an int and a Fraction are entries of both constructors;
    a float is refused by name."""
    values = [1, Fraction(1, 2), "q", ctx.parse("p - 1")]
    side = len(values)
    rows = [[values[r] if r == c else 0 for c in range(side)] for r in range(side)]
    assert SquareMatrix.from_rows(ctx, rows) == SquareMatrix.diagonal(ctx, values)
    assert SquareMatrix.diagonal(ctx, values).entries == {
        (0, 0): ctx.one(), (1, 1): ctx.scalar(Fraction(1, 2)), (2, 2): ctx.parse("q"),
        (3, 3): ctx.parse("p - 1")}
    for build in (lambda: SquareMatrix.diagonal(ctx, [1, 0.5]),
                  lambda: SquareMatrix.from_rows(ctx, [[1, 0], [0, 0.5]])):
        with pytest.raises(TypeError, match="not float"):
            build()


def _identity(ctx, side):
    return SquareMatrix.identity(ctx, side)


def test_kron_identities(ctx):
    i2 = _identity(ctx, 2)
    assert kron(i2, i2) == _identity(ctx, 4)
    d = SquareMatrix.diagonal(ctx, ["p", "q"])
    assert kron(d, i2) == SquareMatrix.diagonal(ctx, ["p", "p", "q", "q"])


def test_kron_weight_expansion(ctx):
    # oracle: expand the four diagonal entries by hand
    mu = SquareMatrix.diagonal(ctx, ["sqrt_pq", "sqrt_pq^-1"])
    product = kron(mu, mu)
    values = ["p*q", "1", "1", "p^-1*q^-1"]
    expected = {}
    for a in range(2):
        for b in range(2):
            expected[(2 * a + b, 2 * a + b)] = ctx.parse(values[2 * a + b])
    assert product == SquareMatrix(ctx, 4, expected)


def test_matmul_identity_and_inverse(ctx):
    r = get_rmatrix("R2.1").matrix
    assert matmul(r, invert(r)) == _identity(r.ctx, 4)
    x = SquareMatrix.from_rows(ctx, [[1, "p"], [0, "q"]])
    assert matmul(_identity(ctx, 2), x) == x


def test_r13_is_an_involution():
    r = get_rmatrix("R1.3").matrix
    assert matmul(r, r) == _identity(r.ctx, 4)
    assert invert(r) == r


def test_embed_edge_cases(ctx):
    r = get_rmatrix("R2.1").matrix
    assert embed_generator(r, 1, 2) == r
    assert embed_generator(_identity(ctx, 4), 2, 3) == _identity(ctx, 8)
    with pytest.raises(PositionOutOfRange):
        embed_generator(r, 3, 3)


def test_embed_matches_kron_oracle():
    r = get_rmatrix("R2.1").matrix
    i2 = _identity(r.ctx, 2)
    assert embed_generator(r, 2, 3) == kron(i2, r)
    assert embed_generator(r, 1, 3) == kron(r, i2)
    assert embed_generator(r, 2, 4) == kron(i2, kron(r, i2))


@pytest.mark.parametrize("base, arity", [(2, 2), (2, 4), (3, 3)])
def test_apply_at_matches_embedded_product(base, arity):
    """apply_at(r, i, n, vec) is the embedded r times vec, at every slot."""
    ctx = ScalarContext(("p", "q"), (("sqrt_1mq2", "1-q^2"),))
    rng = random.Random(base * 10 + arity)
    side = base ** arity
    texts = ["0", "p", "q^-1", "1-q", "sqrt_1mq2", "-1/2", "i*p^2"]
    r = SquareMatrix.from_rows(
        ctx, [[rng.choice(texts) for _ in range(base * base)] for _ in range(base * base)])
    vec = {s: ctx.parse(rng.choice(texts[1:])) for s in rng.sample(range(side), side // 2)}
    column = SquareMatrix(ctx, side, {(s, 0): x for s, x in vec.items()})
    for i in range(1, arity):
        image = matmul(embed_generator(r, i, arity), column)
        assert apply_at(r, i, arity, vec) == {s: x for (s, _), x in image.entries.items()}
    with pytest.raises(PositionOutOfRange):
        apply_at(r, arity, arity, vec)


def test_apply_at_pushes_vectors_packed_above_the_n_slots_in_one_call():
    """Digits above the n slots pass through, so vectors packed under keys
    index * base^n + state are pushed as one vector."""
    ctx = ScalarContext(("p", "q"))
    rng = random.Random(16)
    base, arity = 3, 3
    side = base ** arity
    texts = ["0", "p", "q^-1", "1-q", "-1/2", "i*p^2"]
    r = SquareMatrix.from_rows(
        ctx, [[rng.choice(texts) for _ in range(base * base)] for _ in range(base * base)])
    vecs = [{s: ctx.parse(rng.choice(texts[1:])) for s in rng.sample(range(side), 5)}
            for _ in range(4)]
    packed = {k * side + s: x for k, vec in enumerate(vecs) for s, x in vec.items()}
    for i in range(1, arity):
        assert apply_at(r, i, arity, packed) == {
            k * side + s: x for k, vec in enumerate(vecs)
            for s, x in apply_at(r, i, arity, vec).items()}


def test_embeddings_are_kept_per_slot_up_to_the_entry_cap():
    """A dense base-2 crossing (16 entries) embedded into 12 slots stores
    MAX_ENTRIES entries: ``embedding`` keeps it, and builds a second slot on
    every call, because together they would pass the cap.  Into 13 slots
    the embedding is refused before anything is built or kept, and
    ``embed_generator`` itself keeps nothing."""
    ctx = ScalarContext(("q",))
    r = SquareMatrix(ctx, 4, {(a, b): ctx.gen("q", a - b) for a in range(4) for b in range(4)})
    assert embed_generator(r, 1, 3) == kron(r, _identity(ctx, 2)) and not r._embeddings
    with pytest.raises(DimensionMismatch, match="above the cap"):
        r.embedding(1, 13)
    assert not r._embeddings
    first = r.embedding(1, 12)
    assert len(first.entries) == MAX_ENTRIES and first == embed_generator(r, 1, 12)
    assert r._embeddings == {(1, 12): first} and r.embedding(1, 12) is first
    second = r.embedding(2, 12)
    assert r.embedding(2, 12) is not second and r.embedding(2, 12) == second
    with pytest.raises(DimensionMismatch, match="above the cap"):
        r.embedding(5, 13)
    # nothing more fits, however small; on a fresh copy it is kept
    small = r.embedding(2, 3)
    assert small == kron(_identity(ctx, 2), r) and list(r._embeddings) == [(1, 12)]
    r = SquareMatrix(ctx, 4, r.entries)
    small = r.embedding(2, 3)
    assert r.embedding(2, 3) is small and list(r._embeddings) == [(2, 3)]


def test_library_built_matrices_are_the_checked_ones():
    """matmul, matmul_sub, invert and embed_generator build their results
    without the public checks: the same entries, in the same (row, column)
    order, as the public constructor gives, and no zero."""
    r = get_rmatrix("R1.1").matrix
    ctx = r.ctx
    rinv = invert(r)
    results = [matmul(r, rinv), matmul(r, r), matmul_sub(r, r, r, r), matmul_sub(r, rinv, rinv, r),
               rinv, embed_generator(r, 2, 3), embed_generator(rinv, 1, 4)]
    assert results[0] == _identity(ctx, 4) and results[2].entries == {}
    for got in results:
        checked = SquareMatrix(ctx, got.side, dict(reversed(list(got.entries.items()))))
        assert got == checked and list(got.entries) == list(checked.entries)
        assert all(not v.is_zero() for v in got.entries.values())
    # the public constructor still checks both
    with pytest.raises(DimensionMismatch, match="outside side"):
        SquareMatrix(ctx, 2, {(0, 2): ctx.one()})
    assert SquareMatrix(ctx, 2, {(1, 1): ctx.zero(), (0, 0): ctx.one()}).entries == {
        (0, 0): ctx.one()}


def test_matmul_keeps_the_row_index_of_its_right_operand():
    r = get_rmatrix("R2.1").matrix
    a, b = embed_generator(r, 1, 3), embed_generator(r, 2, 3)
    first = matmul(a, b)
    rows = b._row_index
    assert rows is not None and a._row_index is None
    assert matmul(a, b) == first and b._row_index is rows


def test_far_commutativity_of_embeddings():
    for name in ("R3.1", "R2.1", "R2.2", "R2.3", "R1.1", "R1.2", "R1.3", "R1.4"):
        r = get_rmatrix(name).matrix
        a = embed_generator(r, 1, 4)
        b = embed_generator(r, 3, 4)
        assert matmul(a, b) == matmul(b, a)


def test_trace_of_weights(ctx):
    mu = SquareMatrix.diagonal(ctx, ["sqrt_pq", "sqrt_pq^-1"])
    assert trace(mu) == ctx.parse("sqrt_pq + sqrt_pq^-1")


def test_partial_trace_reproduces_weight(ctx):
    # slot-2 contraction of R (mu x mu) is alpha beta mu for the first
    # R2.1 operator row
    r = get_rmatrix("R2.1").matrix
    from ybtrace.tensor import matrix_substitute

    r = matrix_substitute(r, {}, ctx)
    mu = SquareMatrix.diagonal(ctx, ["sqrt_pq", "sqrt_pq^-1"])
    closed = matmul(weighted_trace_sequential(r, mu, [2]), mu)
    assert closed == scalar_scale(mu, ctx.parse("sqrt_pq^-1"))


def test_partial_trace_full_contraction(ctx):
    m = SquareMatrix.from_rows(ctx, [["p", 1], [0, "q"]])
    total = weighted_trace_sequential(m, _identity(ctx, 2), [1])
    assert total.side == 1
    assert total.get(0, 0) == trace(m)


def test_partial_trace_composes(ctx):
    rng = random.Random(5)
    entries = {}
    for _ in range(8):
        entries[(rng.randrange(4), rng.randrange(4))] = ctx.parse(
            f"{rng.randint(1, 5)}*p^{rng.randint(-1, 1)}"
        )
    m = SquareMatrix(ctx, 4, entries)
    one = _identity(ctx, 2)
    once = weighted_trace_sequential(m, one, [2])
    assert weighted_trace_sequential(once, one, [1]).get(0, 0) == trace(m)
    assert weighted_trace_sequential(m, one, [1, 2]).get(0, 0) == trace(m)


def test_trace_cyclicity_random(ctx):
    rng = random.Random(11)
    for _ in range(20):
        a_entries, b_entries = {}, {}
        for _ in range(6):
            a_entries[(rng.randrange(4), rng.randrange(4))] = ctx.parse(
                f"{rng.randint(-3, 3)}*q^{rng.randint(-1, 2)}"
            )
            b_entries[(rng.randrange(4), rng.randrange(4))] = ctx.parse(
                f"{rng.randint(-3, 3)}*p^{rng.randint(-1, 2)}"
            )
        a = SquareMatrix(ctx, 4, a_entries)
        b = SquareMatrix(ctx, 4, b_entries)
        mu = SquareMatrix(ctx, 2, {k: b_entries[k] for k in b_entries if max(k) < 2})
        assert trace(matmul(a, b)) == trace(matmul(b, a))
        assert weighted_trace_sequential(a, mu, [1, 2]).get(0, 0) == trace(matmul(a, kron(mu, mu)))


def _weight_operator(mu, slots, arity):
    """mu on the given slots and the identity on the others, as one matrix."""
    one = _identity(mu.ctx, mu.side)
    return functools.reduce(kron, [mu if s in slots else one for s in range(1, arity + 1)])


@pytest.mark.parametrize("base, arity", [(2, 3), (2, 4), (3, 3)])
def test_weighted_trace_matches_kronecker_oracle(base, arity):
    """The sequential weighted trace, the reference for verify_eyb's trace
    conditions and the matrix path of the invariant tests, on every slot set
    against the trace of the product with a Kronecker power."""
    ctx = ScalarContext(("p", "q"), (("sqrt_1mq2", "1-q^2"),))
    rng = random.Random(base * 10 + arity)
    side = base ** arity
    texts = ["p", "q^-1", "1-q", "sqrt_1mq2", "2*p*sqrt_1mq2 + q", "-1/2", "i*p^2"]
    a = SquareMatrix(ctx, side, {
        (rng.randrange(side), rng.randrange(side)): ctx.parse(rng.choice(texts))
        for _ in range(3 * side)
    })
    diagonal = SquareMatrix.diagonal(ctx, [rng.choice(texts) for _ in range(base)])
    dense = SquareMatrix.from_rows(
        ctx, [[rng.choice(texts) for _ in range(base)] for _ in range(base)])
    for mu in (diagonal, dense):
        for size in range(arity + 1):
            for slots in itertools.combinations(range(1, arity + 1), size):
                expected = partial_trace(
                    matmul(a, _weight_operator(mu, slots, arity)), slots, base)
                assert weighted_trace_sequential(a, mu, slots) == expected, slots
        full = weighted_trace_sequential(a, mu, range(1, arity + 1))
        assert full.side == 1
        assert full.get(0, 0) == trace_product(a, kron_power(mu, arity))


def test_invert_diagonal_monomials(ctx):
    d = SquareMatrix.diagonal(ctx, ["p", "q^-1", "sqrt_pq"])
    inv = invert(d)
    assert matmul(d, inv) == _identity(ctx, 3)


def test_invert_r21_satisfies_its_relation():
    r = get_rmatrix("R2.1").matrix
    ctx = r.ctx
    rinv = invert(r)
    # R^{-1} = (R + (pq-1) I) / (pq)
    shifted = matadd(r, scalar_scale(_identity(ctx, 4), ctx.parse("p*q-1")))
    assert scalar_scale(rinv, ctx.parse("p*q")) == shifted


def test_invert_dense_binomial_matrix_needs_adjugate():
    r = get_rmatrix("R1.1").matrix
    assert matmul(r, invert(r)) == _identity(r.ctx, 4)


def test_every_catalog_matrix_inverts_exactly():
    for name in ("R3.1", "R2.1", "R2.2", "R2.3", "R1.1", "R1.2", "R1.3", "R1.4"):
        r = get_rmatrix(name).matrix
        assert matmul(r, invert(r)) == _identity(r.ctx, 4), name


def test_invert_singular():
    ctx = ScalarContext(("q",))
    m = SquareMatrix.from_rows(ctx, [["q", "q"], ["q", "q"]])
    with pytest.raises(NonInvertible):
        invert(m)


def test_invert_outside_ring():
    ctx = ScalarContext(("q",))
    m = SquareMatrix.diagonal(ctx, ["1+q"] * 5)
    with pytest.raises(InverseOutsideRing):
        invert(m)


def test_invert_keeps_the_inverse_but_not_a_failure():
    ctx = ScalarContext(("q",))
    m = SquareMatrix.from_rows(ctx, [["q", "1"], [0, "q^-1"]])
    assert invert(m) is invert(m)
    for bad, error in ((SquareMatrix.from_rows(ctx, [["q", "q"], ["q", "q"]]), NonInvertible),
                       (SquareMatrix.diagonal(ctx, ["1+q"] * 2), InverseOutsideRing)):
        for _ in range(2):
            with pytest.raises(error):
                invert(bad)


def test_large_invert_via_unit_pivots():
    ctx = ScalarContext(("q",))
    entries = {}
    side = 6
    for k in range(side):
        entries[(k, (k + 1) % side)] = ctx.parse(f"q^{k - 2}")
    m = SquareMatrix(ctx, side, entries)
    assert matmul(m, invert(m)) == _identity(ctx, side)


def test_dimension_mismatch(ctx):
    a = _identity(ctx, 2)
    b = _identity(ctx, 3)
    with pytest.raises(DimensionMismatch):
        matmul(a, b)
    with pytest.raises(DimensionMismatch):
        matadd(a, b)
    with pytest.raises(DimensionMismatch, match="rows are not square"):
        SquareMatrix.from_rows(ctx, [[1, 0], [0]])


def test_json_round_trip(ctx):
    m = SquareMatrix.from_rows(ctx, [["p", 0], ["sqrt_pq^-1", "1-q"]])
    obj = matrix_to_json(m)
    assert obj["side"] == 2
    assert [e[:2] for e in obj["entries"]] == sorted(e[:2] for e in obj["entries"])
    assert matrix_from_json(ctx, obj) == m


def test_a_position_listed_twice_is_refused(ctx):
    """Listed twice, with another value or the same one, a position is a
    ParseError naming both listings, not the last listing kept."""
    one, five = {"terms": [{"re": "1"}]}, {"terms": [{"re": "5"}]}
    for second in (one, five):
        obj = {"side": 4, "entries": [[1, 1, one], [0, 0, five], [2, 2, one], [0, 0, second]]}
        with pytest.raises(ParseError, match=re.escape(
                "matrix.entries[3]: position (0, 0) is listed already at matrix.entries[1]")):
            matrix_from_json(ctx, obj)


def _unimodular(ctx, side, rng):
    """A dense matrix whose determinant is a unit: a diagonal of units times
    elementary row operations with Laurent multipliers, which over a root
    context may carry the root."""
    gens = ctx.generators
    units = [
        ctx.parse(rng.choice(["1", "-1", "i", "2", "-1/3"]))
        * ctx.gen(rng.choice(gens), rng.randint(-2, 2))
        for _ in range(side)
    ]
    m = SquareMatrix.diagonal(ctx, units)
    for _ in range(2 * side if side > 1 else 0):
        r, c = rng.sample(range(side), 2)
        mult = " + ".join(
            f"{rng.randint(-3, 3)}*{name}^{rng.randint(-1 if name in gens else 0, 2)}"
            for name in rng.sample(ctx.names, min(2, len(ctx.names)))
        )
        entries = {(k, k): ctx.one() for k in range(side)}
        entries[(r, c)] = ctx.parse(mult)
        m = matmul(SquareMatrix(ctx, side, entries), m)
    return m


def _permuted_block_sum(ctx, side, rng):
    """Unimodular blocks placed under independent row and column permutations."""
    rows = rng.sample(range(side), side)
    cols = rng.sample(range(side), side)
    entries = {}
    start = 0
    while start < side:
        size = rng.randint(1, min(3, side - start))
        block = _unimodular(ctx, size, rng)
        for (r, c), v in block.entries.items():
            entries[(rows[start + r], cols[start + c])] = v
        start += size
    return SquareMatrix(ctx, side, entries)


def _assert_inverse(m):
    inv = invert(m)
    ident = _identity(m.ctx, m.side)
    assert matmul(m, inv) == ident
    assert matmul(inv, m) == ident


def test_invert_block_with_unit_determinant_beside_identity():
    # det [[1+p, 1/2], [1-p, 1/2]] = p is a unit, though no pivot of the
    # block is; the identity beside it must not change that
    ctx = ScalarContext(("p", "q"))
    entries = {
        (0, 0): ctx.parse("1+p"),
        (0, 1): ctx.parse("1/2"),
        (1, 0): ctx.parse("1-p"),
        (1, 1): ctx.parse("1/2"),
    }
    entries.update({(k, k): ctx.one() for k in range(2, 5)})
    _assert_inverse(SquareMatrix(ctx, 5, entries))


@pytest.mark.parametrize("side", range(2, 9))
def test_invert_seeded_unimodular_matrices(side):
    rng = random.Random(side)
    contexts = [ScalarContext(("p", "q")), ScalarContext(("q",), (("sqrt_1mq2", "1-q^2"),))]
    # x*x = q*q has zero divisors, where the elimination of a dense block of
    # side 5 or more can leave the ring (test_division.py pins one)
    if side <= 4:
        contexts.append(ScalarContext(("q",), (("x", "q^2"),)))
    for ctx in contexts:
        _assert_inverse(_unimodular(ctx, side, rng))
        _assert_inverse(_permuted_block_sum(ctx, side, rng))


def test_invert_block_with_non_unit_determinant():
    ctx = ScalarContext(("q",))
    entries = {(0, 0): ctx.parse("q"), (0, 1): ctx.one(), (1, 0): ctx.parse("-1"),
               (1, 1): ctx.one()}  # det = q + 1
    entries.update({(k, k): ctx.one() for k in range(2, 5)})
    with pytest.raises(InverseOutsideRing):
        invert(SquareMatrix(ctx, 5, entries))


def test_invert_singular_block_and_non_square_piece():
    ctx = ScalarContext(("p", "q"))
    singular = SquareMatrix.from_rows(
        ctx, [[1, 0, 0], [0, "p", "q"], [0, "p^2", "p*q"]]
    )
    with pytest.raises(NonInvertible):
        invert(singular)
    # rows 0 and 1 meet only column 0; row 2 meets columns 1 and 2
    lopsided = SquareMatrix.from_rows(ctx, [[1, 0, 0], ["p", 0, 0], [0, 1, "q"]])
    with pytest.raises(NonInvertible):
        invert(lopsided)


def test_matsub_stores_the_nonzero_differences(ctx):
    a = SquareMatrix.from_rows(ctx, [["p", 1], [0, "q"]])
    b = SquareMatrix.from_rows(ctx, [["p", 0], ["q", 1]])
    diff = matsub(a, b)
    assert diff == matadd(a, scalar_scale(b, -1))
    assert diff.entries == {(0, 1): ctx.one(), (1, 0): ctx.parse("-q"),
                            (1, 1): ctx.parse("q - 1")}
    assert matsub(a, a).is_zero()
    with pytest.raises(DimensionMismatch):
        matsub(a, _identity(ctx, 3))


def test_verdict_is_truthy_exactly_when_it_holds():
    assert Verdict(True) and not Verdict(False, "commute")
    assert Verdict(True).residual is None and Verdict(True).index is None
