"""``ring.dot`` against the sum of products it replaces, and the contractions
built on it against the sequential ones in ``oracles``.

``dot`` must give the very Scalar that adding x * y one pair at a time
gives: equal, with the same text and the same numerators over the same
denominator.  Random scalars carry R1.1's root sqrt(1 - q^2), a root whose
radicand has a denominator and an ``i``, half-integer exponents and
coefficients with denominators.
"""

import functools
import random
from fractions import Fraction

import pytest

import oracles

from ybtrace import catalog, eyb, invariant, tensor
from ybtrace.braid import BraidWord
from ybtrace.errors import ContextMismatch, ExponentOverflow
from ybtrace.ring import MAX_EXPONENT, Scalar, ScalarContext, dot, format_scalar

CONTEXTS = {
    "R1.1": ScalarContext(("q",), (("sqrt_1mq2", "1-q^2"),)),
    "radicand-with-denominator": ScalarContext(("p", "q"), (("r", "1-q^2"), ("s", "q/2 + i*r/3"))),
    "unit-root": ScalarContext(("t",), (("u", "-t"),)),
}


def _random_scalar(rng, ctx):
    ngens = len(ctx.generators)
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(-6, 6) for _ in range(ngens))  # doubled: odd is a half
        exps += tuple(rng.choice((0, 0, 2, 4)) for _ in ctx.root_names)
        re = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
        im = Fraction(rng.randint(-2, 2), rng.choice((1, 2))) if rng.random() < 0.4 else 0
        terms[exps] = (re, im)
    return Scalar(ctx, terms)


def _sequential(ctx, pairs):
    total = ctx.zero()
    for x, y in pairs:
        total = total + x * y
    return total


def _assert_same(got, want):
    assert got == want
    assert format_scalar(got) == format_scalar(want)
    assert (got._nums, got._den) == (want._nums, want._den)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_dot_is_the_sequential_sum(name):
    ctx = CONTEXTS[name]
    rng = random.Random(20261018)
    for _ in range(300):
        pairs = [(_random_scalar(rng, ctx), _random_scalar(rng, ctx))
                 for _ in range(rng.randint(1, 5))]
        _assert_same(dot(ctx, pairs), _sequential(ctx, pairs))
        # the same products again with one factor negated: the sum cancels to 0
        cancelled = pairs + [(-x, y) for x, y in pairs]
        _assert_same(dot(ctx, cancelled), ctx.zero())
        _assert_same(dot(ctx, cancelled[:-1]), _sequential(ctx, cancelled[:-1]))


def test_dot_of_no_pairs_is_zero():
    ctx = CONTEXTS["R1.1"]
    _assert_same(dot(ctx, []), ctx.zero())


def test_dot_rescales_for_halves_and_settles_roots():
    ctx = CONTEXTS["R1.1"]
    half, root = ctx.parse("1/2"), ctx.gen("sqrt_1mq2")
    third_i = ctx.parse("i/3*q^(1/2)")
    pairs = [(half, ctx.gen("q")), (root, root), (third_i, third_i), (half, root)]
    _assert_same(dot(ctx, pairs), _sequential(ctx, pairs))
    assert format_scalar(dot(ctx, pairs)) == "1 + 1/2*sqrt_1mq2 + 7/18*q - q^2"


def _outcome(fn):
    try:
        return fn()
    except ExponentOverflow as exc:
        return type(exc), str(exc)


def test_dot_overflows_where_the_sequential_sum_does():
    ctx = ScalarContext(("q",))
    q = ctx.gen("q")
    for big, small in ((ctx.gen("q", MAX_EXPONENT - 1), q),
                       (ctx.gen("q", -MAX_EXPONENT), q ** -1)):
        pairs = [(q, q), (big, small)]
        got = _outcome(lambda: dot(ctx, pairs))
        assert got == _outcome(lambda: _sequential(ctx, pairs))
        assert got[0] is ExponentOverflow


def test_dot_refuses_a_pair_from_another_context():
    ctx = CONTEXTS["R1.1"]
    other = ScalarContext(("p", "q"))
    x, y = ctx.gen("q"), other.gen("q")
    with pytest.raises(ContextMismatch):
        x * y
    for pairs in ([(x, y)], [(y, x)], [(x, x), (y, y)]):
        with pytest.raises(ContextMismatch):
            dot(ctx, pairs)
    # an equal context declared again is the same ring
    twin = ScalarContext(("q",), (("sqrt_1mq2", "1-q^2"),))
    _assert_same(dot(ctx, [(twin.gen("q"), x)]), x * x)


# -- contractions against the sequential oracles ---------------------------------


@functools.cache
def _operators():
    return [e.build(sign) for e in eyb.table1_entries() for sign in "+-"]


def _embedded(r):
    return tensor.embed_generator(r, 1, 3), tensor.embed_generator(r, 2, 3)


def _similarity_factors(op, sign):
    """kron(Q, Q) and its inverse for the benchmark's elementary similarity."""
    ctx = op.ctx
    one, g = ctx.one(), ctx.gen(ctx.generators[0])
    slot = (0, 1) if sign == "+" else (1, 0)
    q = tensor.SquareMatrix(ctx, 2, {(0, 0): one, (1, 1): one, slot: g})
    q_inv = tensor.SquareMatrix(ctx, 2, {(0, 0): one, (1, 1): one, slot: -g})
    return tensor.kron(q, q), tensor.kron(q_inv, q_inv)


def _assert_same_matrix(got, want):
    assert got == want
    assert list(got.entries) == list(want.entries)
    for key, value in got.entries.items():
        _assert_same(value, want.entries[key])


def test_matmul_is_the_sequential_product_on_every_row():
    for k, op in enumerate(_operators()):
        r, rinv = op.r, tensor.invert(op.r)
        qq, qq_inv = _similarity_factors(op, "+-"[k % 2])
        r12, r23 = _embedded(r)
        cases = [(r, r), (r, rinv), (r, tensor.kron(op.mu, op.mu)), (op.mu, op.mu),
                 (qq, r), (tensor.matmul(qq, r), qq_inv),
                 (r12, r23), (tensor.matmul(r12, r23), r12)]
        for a, b in cases:
            _assert_same_matrix(tensor.matmul(a, b), oracles.matmul_sequential(a, b))


def test_weighted_trace_is_the_sequential_one_on_every_row():
    for op in _operators():
        r12, r23 = _embedded(op.r)
        rep = tensor.matmul(r12, r23)
        for a, slots in ((op.r, [1]), (op.r, [2]), (op.r, [1, 2]),
                         (rep, [2, 3]), (rep, [1, 3]), (rep, [1, 2, 3])):
            _assert_same_matrix(tensor.weighted_trace(a, op.mu, slots),
                                oracles.weighted_trace_sequential(a, op.mu, slots))


def test_seeded_words_push_and_multiply_as_the_sequential_ones():
    rng = random.Random(20261018)
    for op in _operators():
        rinv = tensor.invert(op.r)
        entries = list(op.r.entries.values())
        for _ in range(2):
            word = BraidWord(3, tuple(rng.choice((1, 2, -1, -2)) for _ in range(5)))
            gens = [(op.r if k > 0 else rinv, abs(k)) for k in word.letters]
            rep = functools.reduce(oracles.matmul_sequential,
                                   (tensor.embed_generator(g, i, 3) for g, i in gens))
            _assert_same_matrix(invariant.braid_representation(op.r, word), rep)
            vec = {state: rng.choice(entries) for state in range(rep.side)}
            for g, i in gens:
                pushed = tensor.apply_at(g, i, 3, vec)
                want = oracles.apply_at_sequential(g, i, 3, vec)
                assert list(pushed) == list(want)
                for state, value in pushed.items():
                    _assert_same(value, want[state])
                vec = pushed


def _check_ybe_sequential(r):
    """check_ybe's (ok, index, residual), with products summed one at a time."""
    r12, r23 = _embedded(r)
    mm = oracles.matmul_sequential
    diff = tensor.matsub(mm(mm(r12, r23), r12), mm(mm(r23, r12), r23))
    if diff.is_zero():
        return True, None, None
    index = min(diff.entries)
    return False, index, diff.entries[index]


def test_check_ybe_names_the_same_index_and_residual_on_broken_matrices():
    rng = random.Random(7)
    broken_count = 0
    for name in catalog.CATALOG_NAMES:
        r = catalog.get_rmatrix(name).matrix
        ctx = r.ctx
        for _ in range(3):
            entries = dict(r.entries)
            key = rng.choice(sorted(entries))
            entries[key] = entries[key] + ctx.gen(rng.choice(ctx.generators))
            broken = tensor.SquareMatrix(ctx, r.side, entries)
            verdict = catalog.check_ybe(broken)
            ok, index, residual = _check_ybe_sequential(broken)
            assert (verdict.ok, verdict.index) == (ok, index)
            if not ok:
                _assert_same(verdict.residual, residual)
                broken_count += 1
    assert broken_count >= 2 * len(catalog.CATALOG_NAMES)
