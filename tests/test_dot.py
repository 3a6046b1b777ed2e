"""``ring.dot`` against the sum of products it replaces, ``ring.dot_entries``
and the packed vector's contraction against one ``dot`` per key, the
contractions built on them against the sequential ones and the earlier
residual and push routes in ``oracles``, and the front ends of
``ring.join`` against the push and keyed loop it replaced.

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
from ybtrace.dressing import preset_dressings
from ybtrace.errors import ContextMismatch, DimensionMismatch, ExponentOverflow
from ybtrace.ring import (
    MAX_EXPONENT, PackedVector, Scalar, ScalarContext, contract, dot, dot_entries,
    format_scalar, pack, push,
)

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
                pushed = oracles.apply_at(g, i, 3, vec)
                want = oracles.apply_at_sequential(g, i, 3, vec)
                assert list(pushed) == list(want)
                for state, value in pushed.items():
                    _assert_same(value, want[state])
                vec = pushed


def _check_ybe_sequential(r):
    """check_ybe's (ok, index, residual), with products summed one at a time."""
    r12, r23 = _embedded(r)
    mm = oracles.matmul_sequential
    diff = oracles.matsub(mm(mm(r12, r23), r12), mm(mm(r23, r12), r23))
    if diff.is_zero():
        return True, None, None
    index = min(diff.entries)
    return False, index, diff.entries[index]


def test_check_ybe_names_the_same_index_and_residual_on_broken_matrices():
    rng = random.Random(7)
    broken_count = 0
    # the base-2 catalog, then the base-3 and base-4 dressed presets
    matrices = [catalog.get_rmatrix(name).matrix for name in catalog.CATALOG_NAMES]
    matrices += [preset_dressings(name).matrix for name in ("d3_R21", "d4_R22")]
    for r in matrices:
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
    assert broken_count >= 2 * len(matrices)


def test_verify_eyb_names_the_same_commute_residual_on_broken_weights():
    rng = random.Random(11)
    for op in _operators():
        ctx = op.ctx
        entries = dict(op.mu.entries)
        key = (rng.randrange(2), rng.randrange(2))
        entries[key] = entries.get(key, ctx.zero()) + ctx.gen(rng.choice(ctx.generators))
        mu = tensor.SquareMatrix(ctx, 2, entries)
        mumu = tensor.kron(mu, mu)
        mm = oracles.matmul_sequential
        want = oracles.matsub(mm(op.r, mumu), mm(mumu, op.r))
        verdict = eyb.verify_eyb(eyb.EnhancedOperator(op.r, mu, op.alpha, op.beta))
        if want.is_zero():
            assert verdict.condition != "commute"
        else:
            assert verdict.condition == "commute"
            _assert_same_matrix(verdict.residual, want)


# -- matmul_sub against the difference of the sequential products ----------------


def _random_matrix(rng, ctx, side):
    entries = {(rng.randrange(side), rng.randrange(side)): _random_scalar(rng, ctx)
               for _ in range(rng.randint(0, 2 * side))}
    return tensor.SquareMatrix(ctx, side, entries)


def test_matmul_sub_is_the_difference_of_the_sequential_products():
    rng = random.Random(20261018)
    mm = oracles.matmul_sequential
    for ctx in CONTEXTS.values():
        for _ in range(80):
            side = rng.choice((2, 3, 4, 8))
            a, b, c, d = (_random_matrix(rng, ctx, side) for _ in range(4))
            # operands shared between the products, as check_ybe passes them,
            # and a second product that cancels part of the first
            near_b = tensor.matadd(b, _random_matrix(rng, ctx, side))
            for args in ((a, b, c, d), (a, b, b, a), (a, b, a, near_b)):
                got = tensor.matmul_sub(*args)
                _assert_same_matrix(got, oracles.matsub(mm(*args[:2]), mm(*args[2:])))
                _assert_same_matrix(got, oracles.matmul_sub_by_pairs(*args))
            assert tensor.matmul_sub(a, b, a, b).entries == {}


def _transformed(op, sign, rng):
    """op.r under each of the benchmark's four YBE-preserving transformations:
    the elementary similarity with a seeded +-g and kappa = +-g, g the row's
    first generator and the slot of Q set by the sign, then transpose, shift
    and flip."""
    ctx = op.ctx
    g = ctx.gen(ctx.generators[0])
    one = ctx.one()
    slot = (0, 1) if sign == "+" else (1, 0)
    q = tensor.SquareMatrix(ctx, 2, {(0, 0): one, (1, 1): one,
                                     slot: ctx.scalar(rng.choice((1, -1))) * g})
    kappa = ctx.scalar(rng.choice((1, -1))) * g
    specs = (catalog.TransformSpec("similarity", kappa=kappa, q=q),
             catalog.TransformSpec("transpose"), catalog.TransformSpec("shift", n=1),
             catalog.TransformSpec("flip"))
    return [catalog.transform_rmatrix(op.r, t) for t in specs]


def test_ybe_residual_of_every_transformed_row_matches_both_oracles():
    rng = random.Random(20261018)
    mm = oracles.matmul_sequential
    perturbed = broken_count = 0
    for e in eyb.table1_entries():
        for sign in "+-":
            op = e.build(sign)
            ctx = op.ctx
            for r in _transformed(op, sign, rng):
                # as is, then with one stored entry moved by +-1 and by +-1/2
                cases = [r]
                for step in (1, Fraction(1, 2)):
                    entries = dict(r.entries)
                    key = rng.choice(sorted(entries))
                    entries[key] = entries[key] + ctx.scalar(rng.choice((1, -1)) * step)
                    cases.append(tensor.SquareMatrix(ctx, r.side, entries))
                for k, case in enumerate(cases):
                    r12, r23 = _embedded(case)
                    p = tensor.matmul(r12, r23)
                    got = tensor.matmul_sub(p, r12, r23, p)
                    _assert_same_matrix(got, oracles.matmul_sub_by_pairs(p, r12, r23, p))
                    _assert_same_matrix(
                        got, oracles.matsub(mm(mm(r12, r23), r12), mm(mm(r23, r12), r23)))
                    verdict = catalog.check_ybe(case)
                    ok, index, residual = _check_ybe_sequential(case)
                    assert (verdict.ok, verdict.index) == (ok, index)
                    if k == 0:
                        assert ok and got.is_zero()
                        continue
                    perturbed += 1
                    if not ok:
                        _assert_same(verdict.residual, residual)
                        broken_count += 1
    # some entries can move without breaking the equation; most cannot
    assert perturbed == len(eyb.table1_entries()) * 2 * 4 * 2
    assert broken_count > 3 * perturbed // 4


def test_matmul_sub_checks_every_operand_before_any_product(monkeypatch):
    ctx = CONTEXTS["R1.1"]
    q = ctx.gen("q")
    good = tensor.SquareMatrix(ctx, 2, {(0, 0): q, (0, 1): q, (1, 1): q})
    wider = tensor.SquareMatrix(ctx, 3, {(0, 0): q, (2, 2): q})
    other_ctx = ScalarContext(("q",))
    other = tensor.SquareMatrix(other_ctx, 2, {(0, 0): other_ctx.gen("q")})

    def no_product(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(Scalar, "__mul__", no_product)
    monkeypatch.setattr(Scalar, "__neg__", no_product)
    monkeypatch.setattr(tensor, "dot", no_product)
    monkeypatch.setattr(tensor, "dot_entries", no_product)
    for bad, error in ((wider, DimensionMismatch), (other, ContextMismatch)):
        for slot in range(4):
            args = [good] * 4
            args[slot] = bad
            with pytest.raises(error):
                tensor.matmul_sub(*args)


def test_matmul_sub_raises_for_an_overflow_that_cancels_and_for_a_foreign_entry():
    ctx = ScalarContext(("q",))
    q = ctx.gen("q")
    for big, small in ((ctx.gen("q", MAX_EXPONENT - 1), q),
                       (ctx.gen("q", -MAX_EXPONENT), q ** -1)):
        # a*b - a*b is zero, but its products leave the exponent range
        a = tensor.SquareMatrix(ctx, 2, {(0, 0): big, (0, 1): q, (1, 1): q})
        b = tensor.SquareMatrix(ctx, 2, {(0, 0): small, (1, 0): q, (1, 1): q})
        for matmul_sub in (tensor.matmul_sub, oracles.matmul_sub_by_pairs):
            with pytest.raises(ExponentOverflow):
                matmul_sub(a, b, a, b)
    # a matrix over ctx that holds a scalar of another context
    other = ScalarContext(("q", "p"))
    good = tensor.SquareMatrix(ctx, 2, {(0, 0): q, (1, 1): q})
    foreign = tensor.SquareMatrix(ctx, 2, {(0, 0): q, (1, 1): other.gen("p")})
    for slot in range(4):
        args = [good] * 4
        args[slot] = foreign
        for matmul_sub in (tensor.matmul_sub, oracles.matmul_sub_by_pairs):
            with pytest.raises(ContextMismatch):
                matmul_sub(*args)


def test_contract_and_weighted_trace_raise_for_an_overflow_that_cancels():
    """The push's contraction, the sequential weighted trace and verify_eyb's
    trace condition on Scalars raise where products leave the exponent
    range, though their sum cancels."""
    ctx = ScalarContext(("q",))
    q = ctx.gen("q")
    for big, small in ((ctx.gen("q", MAX_EXPONENT - 1), q),
                       (ctx.gen("q", -MAX_EXPONENT), q ** -1)):
        # big*small - big*small is zero in its key, but both products leave the range
        with pytest.raises(ExponentOverflow):
            contract(pack(ctx, {0: big, 1: q}), {0: [(0, small), (0, -small)], 1: [(1, q)]})
        a = tensor.SquareMatrix(ctx, 4, {(0, 0): big, (1, 1): -big, (2, 2): q})
        mu = tensor.SquareMatrix(ctx, 2, {(0, 0): small, (1, 1): small})
        with pytest.raises(ExponentOverflow):
            oracles.weighted_trace_sequential(a, mu, [2])
        # base 3: R's entries at ((0 s), (0 s)) for s = 1, 2 meet mu[0, 0] mu[s, s]
        # = 1 in R (mu x mu) and (mu x mu) R, so R commutes with mu (x) mu in
        # range, and Tr_2(R (1 x mu)) sums big*small - big*small at (0, 0)
        r = tensor.SquareMatrix(ctx, 9, {(1, 1): big, (2, 2): -big})
        mu = tensor.SquareMatrix.diagonal(ctx, [small ** -1, small, small])
        op = eyb.EnhancedOperator(r, mu, ctx.one(), ctx.one())
        assert tensor.matmul_sub(r, tensor.kron(mu, mu), tensor.kron(mu, mu), r).is_zero()
        with pytest.raises(ExponentOverflow):
            eyb.verify_eyb(op)


# -- dot_entries against one dot per key -------------------------------------------


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_dot_entries_is_one_dot_per_key(name):
    ctx = CONTEXTS[name]
    rng = random.Random(20261018)
    for _ in range(200):
        plus, minus = ([(rng.randrange(4), _random_scalar(rng, ctx), _random_scalar(rng, ctx))
                        for _ in range(rng.randint(0, 8))] for _ in range(2))
        got = dot_entries(ctx, plus, minus)
        for key in range(4):
            want = dot(ctx, [(x, y) for k, x, y in plus if k == key]
                       + [(-x, y) for k, x, y in minus if k == key])
            if want.is_zero():
                assert key not in got
            else:
                _assert_same(got[key], want)
        # the same triples on both sides cancel in every key
        assert dot_entries(ctx, plus + minus, minus + plus) == {}
    assert dot_entries(ctx, [], []) == {}


# -- verify_eyb's failing verdicts against the matrix route -------------------------


def _trace_residual(y, mu, c):
    """The trace condition's residual as verify_eyb formed it before it took one
    residual call: Tr_2(Y (1 x mu)) mu - c mu by matmul, scalar_scale and matsub."""
    return oracles.matsub(tensor.matmul(oracles.weighted_trace_sequential(y, mu, [2]), mu),
                         tensor.scalar_scale(mu, c))


def test_verify_eyb_fails_each_condition_with_the_matrix_routes_residual():
    for op in _operators():
        ctx = op.ctx
        g = ctx.gen(ctx.generators[0])
        # commute: g added to an off-diagonal entry of mu; one of the two breaks it
        for key in ((1, 0), (0, 1)):
            entries = dict(op.mu.entries)
            entries[key] = entries.get(key, ctx.zero()) + g
            mu = tensor.SquareMatrix(ctx, 2, entries)
            verdict = eyb.verify_eyb(eyb.EnhancedOperator(op.r, mu, op.alpha, op.beta))
            if verdict.condition == "commute":
                break
        assert verdict.condition == "commute"
        mumu = tensor.kron(mu, mu)
        _assert_same_matrix(verdict.residual, oracles.matmul_sub_by_pairs(op.r, mumu, mumu, op.r))
        _assert_same_matrix(verdict.residual, oracles.matsub(tensor.matmul(op.r, mumu),
                                                            tensor.matmul(mumu, op.r)))
        # trace2: alpha times g; trace2-inverse: alpha times g and beta over g,
        # so alpha*beta holds and alpha^-1*beta is off by g^-2
        for condition, alpha, beta in (("trace2", op.alpha * g, op.beta),
                                       ("trace2-inverse", op.alpha * g, op.beta * g ** -1)):
            verdict = eyb.verify_eyb(eyb.EnhancedOperator(op.r, op.mu, alpha, beta))
            assert verdict.condition == condition
            y, c = ((op.r, alpha * beta) if condition == "trace2"
                    else (tensor.invert(op.r), alpha ** -1 * beta))
            _assert_same_matrix(verdict.residual, _trace_residual(y, op.mu, c))
            assert not verdict.residual.is_zero()


# -- the packed push against the pair-list and sequential oracles -------------------


def _random_vector(rng, ctx, states):
    """A sparse vector of nonzero random scalars over ``states`` indices."""
    vec = {s: _random_scalar(rng, ctx) for s in rng.sample(range(states), rng.randint(1, states))}
    return {s: x for s, x in vec.items() if not x.is_zero()}


def _pushes(r, i, n, vec):
    """The image of vec by every route: push_at on the packed vector,
    apply_at, and the two oracles."""
    return (tensor.push_at(r, i, n, pack(r.ctx, vec)).unpack(),
            oracles.apply_at(r, i, n, vec),
            oracles.apply_at_by_pairs(r, i, n, vec),
            oracles.apply_at_sequential(r, i, n, vec))


def _assert_same_vectors(got, want):
    assert list(got) == list(want)
    for state, value in got.items():
        _assert_same(value, want[state])


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_push_at_and_apply_at_are_the_pair_list_and_sequential_pushes(name):
    """Random crossings of base 2 and 3 at every slot of 2 to 4 slots, on
    vectors of the n slots and on vectors packed above them (index *
    base^n + state); the images agree entry by entry and in order."""
    ctx = CONTEXTS[name]
    rng = random.Random(20261019)
    for _ in range(40):
        base = rng.choice((2, 2, 3))
        n = rng.randint(2, 3 if base == 3 else 4)
        r = _random_matrix(rng, ctx, base * base)
        states = base ** n
        vec = _random_vector(rng, ctx, states)
        above = {k * states + s: x for k in range(3) for s, x in _random_vector(rng, ctx, states).items()}
        for i in range(1, n):
            for v in (vec, above):
                routes = _pushes(r, i, n, v)
                for want in routes[1:]:
                    _assert_same_vectors(routes[0], want)


def test_push_settles_guard_bits_as_the_oracles_do():
    """i * i, a root squared onto a radicand with a denominator (which puts
    the whole vector over a larger denominator), and an overflowing product
    that cancels, which still raises."""
    ctx = CONTEXTS["radicand-with-denominator"]
    i, s, q = ctx.i(), ctx.gen("s"), ctx.gen("q")
    r = tensor.SquareMatrix(ctx, 4, {(0, 0): i, (1, 0): s, (2, 1): q + s, (1, 2): s,
                                     (3, 3): ctx.scalar(2)})
    vec = {0: i + q, 1: s * q, 3: ctx.parse("p/5"), 4: 3 * s}
    packed = tensor.push_at(r, 1, 3, pack(ctx, vec))
    routes = _pushes(r, 1, 3, vec)
    for want in routes[1:]:
        _assert_same_vectors(packed.unpack(), want)
    assert packed == pack(ctx, routes[3]) and len(packed) == len(routes[3])
    # a product past the exponent range that cancels in its output state
    plain = ScalarContext(("q",))
    big, q = plain.gen("q", MAX_EXPONENT - 1), plain.gen("q")
    r = tensor.SquareMatrix(plain, 4, {(0, 0): big, (0, 1): big, (3, 3): q})
    for route in (lambda v: tensor.push_at(r, 1, 2, pack(plain, v)),
                  lambda v: oracles.apply_at(r, 1, 2, v),
                  lambda v: oracles.apply_at_by_pairs(r, 1, 2, v),
                  lambda v: oracles.apply_at_sequential(r, 1, 2, v)):
        with pytest.raises(ExponentOverflow):
            route({0: q, 1: -q, 3: q})


def test_push_refuses_a_scalar_of_another_context():
    ctx, other = CONTEXTS["R1.1"], ScalarContext(("q",))
    q = ctx.gen("q")
    r = tensor.SquareMatrix(ctx, 4, {(0, 0): q, (1, 2): q, (2, 1): q, (3, 3): q})
    foreign_vec = {0: q, 2: other.gen("q")}
    foreign_r = tensor.SquareMatrix(ctx, 4, {(0, 0): q, (3, 3): other.gen("q")})
    routes = (lambda r, v: tensor.push_at(r, 1, 2, pack(ctx, v)),
              lambda r, v: oracles.apply_at(r, 1, 2, v),
              lambda r, v: oracles.apply_at_by_pairs(r, 1, 2, v),
              lambda r, v: oracles.apply_at_sequential(r, 1, 2, v))
    for route in routes:
        for args in ((r, foreign_vec), (foreign_r, {0: q, 3: q})):
            with pytest.raises(ContextMismatch):
                route(*args)
    # a vector of one context pushed by the crossing of another
    with pytest.raises(ContextMismatch):
        tensor.push_at(r, 1, 2, pack(other, {0: other.gen("q")}))


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_contract_is_one_dot_per_key(name):
    ctx = CONTEXTS[name]
    rng = random.Random(20261020)
    for _ in range(150):
        vec = _random_vector(rng, ctx, 6)
        pairs = {s: [(rng.randrange(3), _random_scalar(rng, ctx)) for _ in range(rng.randint(0, 3))]
                 for s in range(8) if rng.random() < 0.7}
        got = contract(pack(ctx, vec), pairs)
        for key in range(3):
            want = dot(ctx, [(vec[s], y) for s, listed in pairs.items() if s in vec
                             for k, y in listed if k == key])
            if want.is_zero():
                assert key not in got
            else:
                _assert_same(got[key], want)
    with pytest.raises(ContextMismatch):
        contract(pack(ctx, {0: ctx.one()}), {0: [(0, ScalarContext(("z",)).one())]})
    assert contract(pack(ctx, {}), {0: [(0, ctx.one())]}) == {}


def test_a_packed_vector_is_its_nonzero_entries():
    ctx = CONTEXTS["R1.1"]
    vec = {3: ctx.parse("1/2*q"), 0: ctx.zero(), 5: ctx.parse("sqrt_1mq2/3 - 1")}
    packed = pack(ctx, vec)
    assert isinstance(packed, PackedVector) and len(packed) == 2
    assert list(packed.unpack()) == [3, 5]
    assert packed.unpack() == {3: vec[3], 5: vec[5]}
    assert packed == pack(ctx, {5: vec[5], 3: vec[3]}) != pack(ctx, {3: vec[3]})


# -- the join's front ends against the kernels they replace ----------------------


def _old_push(vec, table, right):
    return oracles.push_by_offset_table(vec, oracles.offset_crossing_table(table), right)


def _assert_same_packed(got, want):
    """The same entries in the same order, none of them zero."""
    assert len(got) == len(want)
    _assert_same_vectors(got.unpack(), want.unpack())


def _assert_same_sums(got, want):
    assert list(got) == list(want)
    for key, value in got.items():
        _assert_same(value, want[key])


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_the_join_front_ends_are_the_kernels_they_replace(name):
    """``push``, ``contract`` and ``dot_entries`` against the parent's packed
    push and keyed loop (``oracles``) on seeded packed vectors, crossings
    and triples, zeros and mixed denominators included, and with every
    minus triple's terms listed on the plus side as well."""
    ctx = CONTEXTS[name]
    rng = random.Random(20261021)
    for _ in range(120):
        base = rng.choice((2, 3))
        r = _random_matrix(rng, ctx, base * base)
        table = tensor._crossing_table(r)
        vec = pack(ctx, _random_vector(rng, ctx, base ** 3))
        for right in (1, base):
            _assert_same_packed(push(vec, table, right), _old_push(vec, table, right))
        pairs = {s: [(rng.randrange(3), _random_scalar(rng, ctx)) for _ in range(rng.randint(0, 3))]
                 for s in range(base ** 3) if rng.random() < 0.7}
        _assert_same_sums(contract(vec, pairs), oracles.contract_by_keyed_sums(vec, pairs))
        plus, minus = ([(rng.randrange(4), _random_scalar(rng, ctx), _random_scalar(rng, ctx))
                        for _ in range(rng.randint(0, 8))] for _ in range(2))
        for args in ((plus, minus), (minus, plus), (plus + minus, minus)):
            _assert_same_sums(dot_entries(ctx, *args),
                              oracles.dot_entries_by_keyed_sums(ctx, *args))


def test_the_join_settles_i_squared_and_roots_that_grow_the_denominator():
    """i * i turns into a sign, and s * s into s's radicand q/2 + i*r/3, whose
    denominator puts every key over a larger one; one key keeps no guard
    bit and has to be rescaled with the others."""
    ctx = CONTEXTS["radicand-with-denominator"]
    i, s, r, q = ctx.i(), ctx.gen("s"), ctx.gen("r"), ctx.gen("q")
    plus = [(0, i, i), (0, s, s), (1, ctx.parse("q/5"), q), (2, r, r),
            (2, s, i * s)]
    minus = [(1, q, q), (2, ctx.parse("1/7"), ctx.one())]
    got = dot_entries(ctx, plus, minus)
    _assert_same_sums(got, oracles.dot_entries_by_keyed_sums(ctx, plus, minus))
    _assert_same(got[0], ctx.parse("-1 + q/2 + i*r/3"))
    vec = pack(ctx, {0: s, 1: i, 2: ctx.parse("p/3")})
    pairs = {0: [(0, s)], 1: [(0, i), (1, q)], 2: [(1, ctx.one())]}
    _assert_same_sums(contract(vec, pairs), oracles.contract_by_keyed_sums(vec, pairs))
    m = tensor.SquareMatrix(ctx, 4, {(0, 0): s, (1, 1): i, (2, 3): q, (3, 3): ctx.parse("1/3")})
    table = tensor._crossing_table(m)
    image = push(vec, table, 1)
    _assert_same_packed(image, _old_push(vec, table, 1))
    assert image._den % 2 == 0  # s * s brought its radicand's 1/2


def test_the_join_raises_for_a_cancelling_overflow_and_a_foreign_scalar():
    ctx = ScalarContext(("q",))
    q = ctx.gen("q")
    other = ScalarContext(("z",)).one()
    for big, small in ((ctx.gen("q", MAX_EXPONENT - 1), q),
                       (ctx.gen("q", -MAX_EXPONENT), q ** -1)):
        # big * small leaves the exponent range, but cancels in its key
        for entries in (lambda: dot_entries(ctx, [(0, big, small)], [(0, big, small)]),
                        lambda: oracles.dot_entries_by_keyed_sums(
                            ctx, [(0, big, small)], [(0, big, small)])):
            with pytest.raises(ExponentOverflow):
                entries()
        vec = pack(ctx, {0: big, 1: -big})
        m = tensor.SquareMatrix(ctx, 4, {(0, 0): small, (0, 1): small, (3, 3): q})
        table = tensor._crossing_table(m)
        for route in (lambda: push(vec, table, 1), lambda: _old_push(vec, table, 1),
                      lambda: contract(vec, {0: [(0, small)], 1: [(0, small)]}),
                      lambda: oracles.contract_by_keyed_sums(
                          vec, {0: [(0, small)], 1: [(0, small)]})):
            with pytest.raises(ExponentOverflow):
                route()
    for triples in ([(0, q, other)], [(0, other, q)]):
        for entries in (dot_entries, oracles.dot_entries_by_keyed_sums):
            with pytest.raises(ContextMismatch):
                entries(ctx, triples, [])
            with pytest.raises(ContextMismatch):
                entries(ctx, [], triples)
    for route in (contract, oracles.contract_by_keyed_sums):
        with pytest.raises(ContextMismatch):
            route(pack(ctx, {0: q}), {0: [(0, q), (1, other)]})
        assert route(pack(ctx, {0: q}), {}) == {} == route(pack(ctx, {}), {0: [(0, q)]})
    table = tensor._crossing_table(tensor.SquareMatrix(ctx, 4, {(0, 0): q}))
    for route in (push, _old_push):
        assert len(route(pack(ctx, {}), table, 1)) == 0
        with pytest.raises(ContextMismatch):
            route(pack(CONTEXTS["R1.1"], {0: CONTEXTS["R1.1"].one()}), table, 1)
    assert dot_entries(ctx, [], []) == {} == oracles.dot_entries_by_keyed_sums(ctx, [], [])
