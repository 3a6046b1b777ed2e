"""The Yang-Baxter check on packed rows against the embedding route it replaced.

``catalog.check_ybe`` packs R's entries once, builds the rows of R12 and
R23 by index arithmetic and takes P = R12 R23 and the residual
P R12 - R23 P with ``ring.mul_rows``.  ``oracles.check_ybe_by_embedding``
is the check as it was: R12 and R23 embedded as matrices, P by ``matmul``
and the residual by ``matmul_sub``.  Both must give the same Verdict, with
the same smallest index and the same residual Scalar, and raise the same
errors, on the catalog, on every image the ``verify`` benchmark builds, on
the dressed presets and on seeded perturbed and rooted matrices.
"""

import functools
import random
from fractions import Fraction

import pytest

import oracles
from test_dot import CONTEXTS, _assert_same, _random_matrix, _transformed

from ybtrace import catalog, eyb, ring, tensor
from ybtrace.dressing import preset_dressings
from ybtrace.errors import ContextMismatch, DimensionMismatch, ExponentOverflow, YbtraceError
from ybtrace.ring import MAX_EXPONENT, PackedVector, ScalarContext, mul_rows, pack_rows
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


def test_every_image_the_verify_benchmark_builds_passes_as_on_the_embedding_route():
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
        outcomes.add(bool(verdict))
    assert False in outcomes


def test_a_product_that_needs_a_settle_grows_the_denominator(monkeypatch):
    """s*s = q/2 + i*r/3: a product of packed rows holding it is settled over
    a larger denominator, and a check whose P holds it names the residual of
    the embedding route."""
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
    settled.clear()
    packed = pack_rows(ctx, {(0, 0): s})
    p, den = mul_rows(ctx, [(1, packed, packed)])
    assert settled and den % 6 == 0
    assert PackedVector(ctx, p[0], den).unpack() == {0: s * s}
    one = ctx.one()
    r = SquareMatrix(ctx, 4, {(0, 0): one, (1, 2): s, (2, 1): s, (2, 2): one, (3, 3): one})
    settled.clear()
    verdict = catalog.check_ybe(r)
    assert settled and verdict.index == (4, 4) and verdict.residual == s * s
    assert _assert_same_check(r) == verdict


def test_mul_rows_is_the_matrix_product_and_residual():
    rng = random.Random(20261019)
    for ctx in CONTEXTS.values():
        for _ in range(30):
            side = rng.choice((2, 3, 4))
            a, b, c, d = (_random_matrix(rng, ctx, side) for _ in range(4))
            packed = [pack_rows(ctx, m.entries) for m in (a, b, c, d)]
            for products, want in (
                    ([(1, packed[0], packed[1])], tensor.matmul(a, b)),
                    ([(1, packed[0], packed[1]), (-1, packed[2], packed[3])],
                     tensor.matmul_sub(a, b, c, d)),
                    ([(1, packed[0], packed[1]), (-1, packed[0], packed[1])],
                     SquareMatrix(ctx, side, {}))):
                rows, den = mul_rows(ctx, products)
                got = {(row, col): x for row, entries in rows.items()
                       for col, x in PackedVector(ctx, entries, den).unpack().items()}
                assert got == want.entries
                for key, x in got.items():
                    _assert_same(x, want.entries[key])
            # the output is an operand again
            ab = mul_rows(ctx, [(1, packed[0], packed[1])])
            rows, den = mul_rows(ctx, [(1, ab, packed[2])])
            want = tensor.matmul(tensor.matmul(a, b), c)
            assert {(row, col): x for row, entries in rows.items()
                    for col, x in PackedVector(ctx, entries, den).unpack().items()} == want.entries


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
                         (tensor, "matmul_sub"), (catalog, "matmul"),
                         (tensor.SquareMatrix, "embedding")):
        monkeypatch.setattr(module, name, refuse)
    assert all(catalog.check_ybe(op.r) for _, op in _operators())
    r = _operators()[0][1].r
    assert not catalog.check_ybe(SquareMatrix(r.ctx, 4, {**r.entries, (0, 3): r.ctx.one()}))
