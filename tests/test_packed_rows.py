"""The Yang-Baxter check against the embedding route it replaced.

``catalog.check_ybe`` builds the rows of R12 and R23 from R's entries by
index arithmetic and takes P = R12 R23 and the residual P R12 - R23 P on
the ints of ``ring.kronecker`` (Kronecker substitution).  Where that map
does not apply, its fallback embeds R12 and R23 as matrices and takes P by
``matmul`` and the residual by ``matmul_sub``.
``oracles.check_ybe_by_embedding`` is the check as it was, the same
embedding route, and so the reference of the integer route: both must give
the same Verdict, with the same smallest index and the same residual Scalar,
and raise the same errors, on the catalog, on every image the ``verify``
benchmark builds, on the dressed presets, on seeded perturbed and rooted
matrices and on the edge cases of the integer route.  The inputs that take
the fallback are checked against ``test_dot._check_ybe_sequential`` too,
which sums the products one at a time and shares no kernel with it.
"""

import functools
import random
from fractions import Fraction

import pytest

import oracles
from test_dot import CONTEXTS, _assert_same, _check_ybe_sequential, _random_matrix, _transformed

from ybtrace import catalog, eyb, ring, tensor
from ybtrace.dressing import preset_dressings
from ybtrace.errors import ContextMismatch, DimensionMismatch, ExponentOverflow, YbtraceError
from ybtrace.ring import MAX_EXPONENT, Scalar, ScalarContext, kronecker
from ybtrace.tensor import SquareMatrix


def _outcome(fn, *args):
    """The Verdict fn returns, or the class and message of the error it raises."""
    try:
        return fn(*args)
    except YbtraceError as exc:
        return type(exc), str(exc)


def _assert_same_check(r):
    """check_ybe(r) against the embedding route; returns the Verdict."""
    got = _outcome(catalog.check_ybe, r)
    want = _outcome(oracles.check_ybe_by_embedding, r)
    assert got == want, r.entries
    if not isinstance(got, tuple) and not got:
        _assert_same(got.residual, want.residual)
    return got


def _assert_same_as_sequential(r, got):
    """check_ybe's outcome ``got`` on r against the products summed one at a
    time: the same verdict and index, and the same residual Scalar, or an
    error of the same class."""
    try:
        want = _check_ybe_sequential(r)
    except YbtraceError as exc:
        assert isinstance(got, tuple) and got[0] is type(exc), r.entries
        return
    assert (got.ok, got.index) == want[:2], r.entries
    if not got:
        _assert_same(got.residual, want[2])


def _refuse_fallback(monkeypatch):
    def refuse(*args):
        raise AssertionError("the fallback ran")

    monkeypatch.setattr(catalog, "embed_generator", refuse)


@functools.cache
def _operators():
    return [(sign, e.build(sign)) for e in eyb.table1_entries() for sign in "+-"]


def test_catalog_rows_and_presets_pass_as_on_the_embedding_route():
    matrices = [catalog.get_rmatrix(name).matrix for name in catalog.CATALOG_NAMES]
    matrices += [op.r for _, op in _operators()]
    assert len(matrices) == 8 + 46
    for r in matrices:
        assert _assert_same_check(r)
    for name, base in (("d3_R21", 3), ("d4_R22", 4)):
        r = preset_dressings(name).matrix
        assert r.side == base * base and _assert_same_check(r)


def test_every_image_the_verify_benchmark_builds_passes_as_on_the_embedding_route(monkeypatch):
    _refuse_fallback(monkeypatch)  # and all on the integer route
    rng = random.Random(20261019)
    images = [r for sign, op in _operators() for r in _transformed(op, sign, rng)]
    assert len(images) == 46 * 4
    for r in images:
        assert _assert_same_check(r)


def test_perturbed_matrices_name_the_same_index_and_residual():
    rng = random.Random(23)
    matrices = [op.r for _, op in _operators()]
    matrices += [preset_dressings(name).matrix for name in ("d3_R21", "d4_R22")]
    failed = 0
    for r in matrices:
        ctx = r.ctx
        for _ in range(2):
            entries = dict(r.entries)
            key = rng.choice(sorted(entries))
            step = ctx.scalar(rng.choice((1, -1, Fraction(1, 2))))
            entries[key] = entries[key] + step * ctx.gen(rng.choice(ctx.generators))
            if rng.random() < 0.5:  # and one position that was zero
                side = r.side
                entries[(rng.randrange(side), rng.randrange(side))] = ctx.gen(ctx.generators[0])
            verdict = _assert_same_check(SquareMatrix(ctx, r.side, entries))
            failed += not verdict
    assert failed > 3 * len(matrices) // 2


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_seeded_rooted_matrices_match_the_embedding_route(name):
    ctx = CONTEXTS[name]
    rng = random.Random(19)
    outcomes = set()
    for _ in range(40):
        r = _random_matrix(rng, ctx, 4)
        verdict = _assert_same_check(r)
        _assert_same_as_sequential(r, verdict)
        outcomes.add(bool(verdict))
    assert False in outcomes


def test_a_product_that_needs_a_settle_grows_the_denominator(monkeypatch):
    """s*s = q/2 + i*r/3 is settled over a larger denominator, and a check
    whose P holds it names the residual of the embedding route."""
    ctx = CONTEXTS["radicand-with-denominator"]
    settled = []
    original = ring._settle

    def counted(*args):
        settled.append(args[0])
        return original(*args)

    monkeypatch.setattr(ring, "_settle", counted)
    s = ctx.gen("s")
    r = SquareMatrix(ctx, 4, {(k, k): s for k in range(4)})
    assert _assert_same_check(r)  # s * Id solves the equation
    one = ctx.one()
    r = SquareMatrix(ctx, 4, {(0, 0): one, (1, 2): s, (2, 1): s, (2, 2): one, (3, 3): one})
    settled.clear()
    verdict = catalog.check_ybe(r)
    assert settled and verdict.index == (4, 4) and verdict.residual == s * s
    assert verdict.residual._den == 6
    assert _assert_same_check(r) == verdict
    _assert_same_as_sequential(r, verdict)


def test_errors_and_refusals_are_those_of_the_embedding_route():
    ctx = ScalarContext(("q",))
    q = ctx.gen("q")
    # products past the exponent range, on the diagonal and off it
    for big in (ctx.gen("q", MAX_EXPONENT - 1), ctx.gen("q", -MAX_EXPONENT)):
        for entries in ({(0, 0): big, (1, 1): big, (2, 2): q, (3, 3): q},
                        {(0, 0): big, (1, 2): q, (2, 1): q, (3, 3): q}):
            r = SquareMatrix(ctx, 4, entries)
            assert _assert_same_check(r)[0] is ExponentOverflow
    # an entry of another context
    other = ScalarContext(("q", "p"))
    foreign = SquareMatrix(ctx, 4, {(0, 0): q, (1, 1): other.gen("p")})
    assert _assert_same_check(foreign)[0] is ContextMismatch
    # a side that is no square, a base whose cube is above the state cap,
    # and a dense matrix above the entry cap
    one = ctx.one()
    for r in (SquareMatrix(ctx, 3, {(0, 0): one}), SquareMatrix(ctx, 289, {(0, 0): one}),
              SquareMatrix(ctx, 256, {(r, c): one for r in range(256) for c in range(8)})):
        assert _assert_same_check(r)[0] is DimensionMismatch


def test_a_passing_check_embeds_and_multiplies_no_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("a matrix kernel was called")

    for module, name in ((tensor, "embed_generator"), (tensor, "matmul"),
                         (tensor, "matmul_sub"), (catalog, "embed_generator"),
                         (catalog, "matmul"), (catalog, "matmul_sub"),
                         (tensor.SquareMatrix, "embedding")):
        monkeypatch.setattr(module, name, refuse)
    assert all(catalog.check_ybe(op.r) for _, op in _operators())
    r = _operators()[0][1].r
    assert not catalog.check_ybe(SquareMatrix(r.ctx, 4, {**r.entries, (0, 3): r.ctx.one()}))


# -- the integer route -------------------------------------------------------------


def _fallback_calls(monkeypatch):
    """A list that grows by one on each run of ``check_ybe``'s fallback, whose
    one ``matmul`` forms P."""
    calls = []
    original = catalog.matmul

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(catalog, "matmul", counted)
    return calls


def _weighted_flip(ctx, base, weights):
    """The flip x (x) y -> y (x) x times weights[(x, y)] (1 when missing): a
    solution for any weights, whose triple products use the weight of one
    pair thrice only on the diagonal x = y = z."""
    one = ctx.one()
    return SquareMatrix(ctx, base * base, {(y * base + x, x * base + y): weights.get((x, y), one)
                                           for x in range(base) for y in range(base)})


# a 4x4 sign pattern whose residual at the smallest index is -16: -(2 * 2**3),
# the bound that sets the slot width
_FULL_WIDTH = ((1, -1, 1, -1), (1, -1, -1, 1), (-1, -1, -1, -1), (1, -1, 1, 1))


def _edge_cases():
    pq = ScalarContext(("p", "q"))
    p, q = pq.gen("p"), pq.gen("q")
    rooted = ScalarContext(("p", "q"), (("sqrt_pq", "p*q"),))  # a root no entry uses
    cases = []
    for big in (10 ** 30, -10 ** 30):
        for unit in (pq.one(), pq.parse("q^(1/2)"), p * q ** -1):
            cases.append(SquareMatrix.from_rows(
                pq, [[big * c * unit for c in row] for row in _FULL_WIDTH]))
    half = pq.parse("p^(1/2)*q^(-3/2)")
    cases.append(_weighted_flip(pq, 2, {(0, 1): half, (1, 0): half * q, (1, 1): p - q}))
    cases.append(SquareMatrix.from_rows(
        pq, [["1/2", 0, 0, 0], [0, 0, "q/3", 0], [0, "p/5", "1-p*q/7", 0], [0, 0, 0, "-1/6"]]))
    cases.append(SquareMatrix.from_rows(
        pq, [["p^(1/2)/2", 0, 0, 1], [0, 0, "q^(3/2)/3", 0], [0, 1, "1-p/4", 0], [0, 0, 0, 1]]))
    cases += [SquareMatrix(pq, 4, {}), SquareMatrix.identity(pq, 4),
              SquareMatrix.identity(rooted, 4)]
    for base, ctx in ((3, pq), (4, pq), (2, rooted)):
        gens = [ctx.gen(name, k) for name in ("p", "q") for k in (-1, 1, 2)]
        rng = random.Random(base)
        weights = {(x, y): ctx.scalar(rng.choice((1, -1, Fraction(2, 3)))) * rng.choice(gens)
                   for x in range(base) for y in range(base) if rng.random() < 0.7}
        flip = _weighted_flip(ctx, base, weights)
        cases.append(flip)
        for _ in range(3):
            entries = dict(flip.entries)
            key = (rng.randrange(base * base), rng.randrange(base * base))
            entries[key] = entries.get(key, ctx.zero()) + rng.choice(gens)
            cases.append(SquareMatrix(ctx, base * base, entries))
    return cases


def test_edge_cases_of_the_integer_route_match_the_embedding_route(monkeypatch):
    calls = _fallback_calls(monkeypatch)
    verdicts = [_assert_same_check(r) for r in _edge_cases()]
    assert calls == []  # every case took the integer route
    assert True in map(bool, verdicts) and False in map(bool, verdicts)
    # the sign pattern's residuals fill the slot width: one term of 16 * 10**90
    for verdict in verdicts[:6]:
        assert [abs(re) for re, _ in verdict.residual.terms.values()] == [16 * 10 ** 90]


def test_exponents_at_the_gate_take_the_integer_route_and_past_it_the_matrix_one(monkeypatch):
    """A doubled exponent of +-2730 is the largest whose triple stays inside
    the doubled range [-2 * MAX_EXPONENT, 2 * MAX_EXPONENT); one half step
    past it the matrix route runs, and raises ExponentOverflow exactly when
    a triple product leaves the range."""
    ctx = ScalarContext(("q",))
    calls = _fallback_calls(monkeypatch)
    edge, past = 2 * MAX_EXPONENT // 3, 2 * MAX_EXPONENT // 3 + 1  # doubled
    assert 3 * edge < 2 * MAX_EXPONENT <= 3 * past
    for sign in (1, -1):
        at_gate = ctx.monomial(1, {"q": Fraction(sign * edge, 2)})
        assert _assert_same_check(_weighted_flip(ctx, 2, {(0, 0): at_gate}))
        assert calls == []
        beyond = ctx.monomial(1, {"q": Fraction(sign * past, 2)})
        # used at most twice by any triple product: the matrix route passes it
        r = _weighted_flip(ctx, 2, {(0, 1): beyond})
        got = _assert_same_check(r)
        assert got and len(calls) == 1
        _assert_same_as_sequential(r, got)
        # used thrice on the diagonal: the matrix route raises
        r = _weighted_flip(ctx, 2, {(0, 0): beyond})
        got = _assert_same_check(r)
        assert got[0] is ExponentOverflow
        _assert_same_as_sequential(r, got)
        calls.clear()


def test_every_catalog_row_and_table1_operator_passes_without_the_fallback(monkeypatch):
    _refuse_fallback(monkeypatch)
    matrices = [catalog.get_rmatrix(name).matrix for name in catalog.CATALOG_NAMES]
    matrices += [op.r for _, op in _operators()]
    assert all(catalog.check_ybe(r) for r in matrices)


def test_rooted_gaussian_over_cap_and_edge_matrices_take_the_matrix_route(monkeypatch):
    rooted = CONTEXTS["R1.1"]
    ctx = ScalarContext(("q",))
    wide = {(0, 0): ctx.gen("q", 1000), (1, 1): ctx.gen("q", -1000),
            (0, 1): ctx.parse("q^(1/2)")}  # radix 3 * 4000 + 1 slots of 6 bits
    cases = [
        SquareMatrix(rooted, 4, {(k, k): rooted.gen("sqrt_1mq2") for k in range(4)}),
        SquareMatrix(ctx, 4, {(k, k): ctx.i() for k in range(4)}),
        _weighted_flip(ctx, 2, wide),
        _weighted_flip(ctx, 2, {(1, 1): ctx.gen("q", -MAX_EXPONENT + 1)}),
    ]
    calls = _fallback_calls(monkeypatch)
    for r in cases:
        assert kronecker(r.ctx, r.entries, 16) is None
        calls.clear()
        _assert_same_as_sequential(r, _assert_same_check(r))
        assert len(calls) == 1, r.entries
    # the dressed presets: their sqrt_pq weight keeps them off the integer route
    for name, base in (("d3_R21", 3), ("d3_R22", 3), ("d4_R22", 4)):
        r = preset_dressings(name).matrix
        assert r.side == base * base and kronecker(r.ctx, r.entries, 2 * base ** 3) is None
        calls.clear()
        got = catalog.check_ybe(r)
        assert got and len(calls) == 1, name
        _assert_same_as_sequential(r, got)


def _root_free_scalar(rng, ctx):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(-4, 4) for _ in ctx.generators) + (0,) * len(ctx.root_names)
        terms[exps] = Fraction(rng.choice((1, -1)) * rng.choice((1, 2, 5, 1000)),
                               rng.choice((1, 1, 2, 3)))
    return Scalar(ctx, terms)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_the_int_of_a_triple_product_reads_back_as_the_product(name):
    ctx = CONTEXTS[name]
    # one product of a monomial's cube: its coefficient N^3 fills the slot width
    monomial = ctx.monomial(Fraction(-10 ** 30, 7), {ctx.generators[0]: Fraction(1, 2)})
    ints, read, _ = kronecker(ctx, {0: monomial}, 1)
    _assert_same(read(ints[0] ** 3), monomial * monomial * monomial)
    rng = random.Random(29)
    for _ in range(40):
        entries = {k: _root_free_scalar(rng, ctx) for k in range(rng.randint(1, 6))}
        ints, read, _ = kronecker(ctx, entries, 2)
        assert ints.keys() == entries.keys()
        _assert_same(read(0), ctx.zero())
        for _ in range(5):
            a, b, c, d, e, f = (rng.choice(list(entries)) for _ in range(6))
            x, y, z = entries[a], entries[b], entries[c]
            _assert_same(read(ints[a] * ints[b] * ints[c]), x * y * z)
            _assert_same(read(ints[a] * ints[b] * ints[c] - ints[d] * ints[e] * ints[f]),
                         x * y * z - entries[d] * entries[e] * entries[f])
