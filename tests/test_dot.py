"""``ring.dot`` against the sum of products it replaces, ``ring.dot_entries``
against one ``dot`` per key, and the contractions built on them against the
sequential ones and the earlier residual route in ``oracles``.

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
from ybtrace.ring import MAX_EXPONENT, Scalar, ScalarContext, dot, dot_entries, format_scalar

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
        want = tensor.matsub(mm(op.r, mumu), mm(mumu, op.r))
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
                _assert_same_matrix(got, tensor.matsub(mm(*args[:2]), mm(*args[2:])))
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
                        got, tensor.matsub(mm(mm(r12, r23), r12), mm(mm(r23, r12), r23)))
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
    return tensor.matsub(tensor.matmul(tensor.weighted_trace(y, mu, [2]), mu),
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
        _assert_same_matrix(verdict.residual, tensor.matsub(tensor.matmul(op.r, mumu),
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
