"""verify_eyb's integer route against the exact path behind it.

``eyb.verify_eyb`` decides an operator of base 2 whose R holds no root on
the ints of ``ring.kronecker`` first (``eyb._holds_on_ints``), and sends
every other operator, and every one those ints do not show to pass, to the
exact path (``eyb._exact_conditions``).  The operators the ``verify``
benchmark checks must never need the exact path; perturbed and edge-case
operators must get the exact path's verdict, residual, error and message;
a passing check reads no int back; and the kernel's degree-5 and rooted
maps must read back as the Scalar sums.
"""

import json
import random
from fractions import Fraction

import pytest

import oracles
from test_dot import CONTEXTS, _assert_same, _assert_same_matrix

from ybtrace import catalog, eyb
from ybtrace.cli import main
from ybtrace.dressing import preset_dressings
from ybtrace.errors import (
    ContextMismatch, DimensionMismatch, ExponentOverflow, InverseOutsideRing, NonInvertible,
    NotAUnit, YbtraceError,
)
from ybtrace.eyb import EnhancedOperator, eyb_to_json, get_table1_eyb, verify_eyb
from ybtrace.ring import MAX_EXPONENT, MAX_KRONECKER_BITS, Scalar, ScalarContext, kronecker
from ybtrace.tensor import SquareMatrix, embed_generator, kron, matmul, matmul_sub, scalar_scale

# the off-diagonal slot of the benchmark similarity's Q, by the row's sign
SLOTS = {"+": (0, 1), "-": (1, 0)}


def _table1():
    return [(sign, e.build(sign)) for e in eyb.table1_entries() for sign in "+-"]


def _candidates(op, sign, rng):
    """The similarity, transpose and shift images of op that the ``verify``
    benchmark checks, built as its ``_candidate`` builds them: Q elementary
    with a seeded +-g at the sign's slot, kappa a seeded +-g, g the row's
    first generator; the shift adds 1 to each tensor digit."""
    ctx = op.ctx
    m, kappa = (ctx.scalar(rng.choice((1, -1))) * ctx.gen(ctx.generators[0]) for _ in range(2))
    one = ctx.one()
    q = SquareMatrix(ctx, 2, {(0, 0): one, (1, 1): one, SLOTS[sign]: m})
    q_inv = SquareMatrix(ctx, 2, {(0, 0): one, (1, 1): one, SLOTS[sign]: -m})
    r = matmul(matmul(kron(q, q), op.r), kron(q_inv, q_inv))
    mu = matmul(matmul(q, op.mu), q_inv)

    def shifted(a, flip):
        return SquareMatrix(ctx, a.side,
                            {(i ^ flip, j ^ flip): v for (i, j), v in a.entries.items()})

    return [EnhancedOperator(scalar_scale(r, kappa), mu, kappa * op.alpha, op.beta),
            EnhancedOperator(op.r.transpose(), op.mu.transpose(), op.alpha, op.beta),
            EnhancedOperator(shifted(op.r, 3), shifted(op.mu, 1), op.alpha, op.beta)]


def _exact_calls(monkeypatch):
    """A list that grows by one on each run of the exact path."""
    calls, original = [], eyb._exact_conditions

    def counted(op, mumu):
        calls.append(op)
        return original(op, mumu)

    monkeypatch.setattr(eyb, "_exact_conditions", counted)
    return calls


def _outcome(op):
    try:
        return verify_eyb(op)
    except YbtraceError as exc:
        return type(exc), str(exc)


def _assert_as_exact(monkeypatch, op):
    """verify_eyb(op) against the exact path alone: the same Verdict with the
    same residual, or the same error and message.  Returns the outcome."""
    got = _outcome(op)
    with monkeypatch.context() as patched:
        patched.setattr(eyb, "_holds_on_ints", lambda op, mumu: False)
        want = _outcome(op)
    assert got == want, (op.r.entries, op.mu.entries, op.alpha, op.beta)
    if not isinstance(got, tuple) and not got:
        _assert_same_matrix(got.residual, want.residual)
    return got


def test_the_verify_benchmark_operators_and_table1_never_take_the_exact_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the exact path ran")

    monkeypatch.setattr(eyb, "_exact_conditions", refuse)
    ops = [op for _, op in _table1()]
    for seed in (1, 2, 3):
        rng = random.Random(f"verify-{seed}")  # the benchmark's seeding
        ops += [c for sign, op in _table1() for c in _candidates(op, sign, rng)]
    assert len(ops) == 46 + 3 * 138
    for op in ops:
        assert verify_eyb(op)


def test_wider_bases_and_a_rooted_r_take_the_exact_path_once(monkeypatch):
    calls = _exact_calls(monkeypatch)
    ops = [preset_dressings(name).eyb for name in ("d3_R21", "d3_R22", "d4_R22")]
    # R1.2 row 1 with R and alpha times sqrt_q, whose radicand q is a unit:
    # every condition still holds, and R holds a root
    op = get_table1_eyb("R1.2", 1)
    root = op.ctx.gen("sqrt_q")
    ops.append(EnhancedOperator(scalar_scale(op.r, root), op.mu, root * op.alpha, op.beta))
    for op in ops:
        calls.clear()
        assert verify_eyb(op) and len(calls) == 1


def _unit(rng, ctx):
    return ctx.scalar(rng.choice((-1, 2, Fraction(1, 3)))) * ctx.gen(
        rng.choice(ctx.generators), rng.choice((-1, 1)))


def _perturbed(rng, op):
    """op with one seeded entry of R or mu, alpha or beta changed; alpha
    stays a unit."""
    ctx = op.ctx
    part = rng.choice(("r", "r", "mu", "alpha", "beta"))
    delta = _unit(rng, ctx)
    if part == "alpha":
        return EnhancedOperator(op.r, op.mu, op.alpha * delta, op.beta)
    if part == "beta":
        return EnhancedOperator(op.r, op.mu, op.alpha, op.beta + delta)
    a = getattr(op, part)
    key = (rng.randrange(a.side), rng.randrange(a.side))
    a = SquareMatrix(ctx, a.side, {**a.entries, key: a.get(*key) + delta})
    return EnhancedOperator(a, op.mu, op.alpha, op.beta) if part == "r" else \
        EnhancedOperator(op.r, a, op.alpha, op.beta)


def test_perturbed_rows_get_the_exact_paths_verdict_and_residual(monkeypatch):
    rng = random.Random(33)
    seen = set()
    for e in eyb.table1_entries():
        op = e.build()
        for _ in range(12):
            got = _assert_as_exact(monkeypatch, _perturbed(rng, op))
            seen.add(got[0].__name__ if isinstance(got, tuple) else got.condition)
    assert {"commute", "trace2", "trace2-inverse", None} <= seen, seen


def test_flipped_rows_get_the_exact_paths_verdict_and_residual(monkeypatch):
    """The flip swaps R's tensor slots, so it meets the trace conditions on
    slot 1, and fails them on slot 2 wherever the slots differ."""
    conditions = set()
    for _, op in _table1():
        swapped = {(2 * (i % 2) + i // 2, 2 * (j % 2) + j // 2): v
                   for (i, j), v in op.r.entries.items()}
        flipped = EnhancedOperator(SquareMatrix(op.ctx, 4, swapped), op.mu, op.alpha, op.beta)
        got = _assert_as_exact(monkeypatch, flipped)
        conditions.add(got.condition)
    assert {None, "trace2"} <= conditions, conditions


def test_edge_operators_raise_or_return_what_the_exact_path_does(monkeypatch):
    op = get_table1_eyb("R1.3", 1)
    ctx = op.ctx
    one, q = ctx.one(), ctx.gen("q")
    zero_mu = SquareMatrix(ctx, 2, {})
    scaled = scalar_scale(op.r, ctx.parse("1 + q"))
    other = ScalarContext(("p", "q"))
    cases = {
        # all three ints vanish; det R is 0, then (1 + q)^4: invert raises
        "singular": (EnhancedOperator(SquareMatrix(ctx, 4, {(0, 0): one}), zero_mu, one, one),
                     NonInvertible),
        "non-unit det": (EnhancedOperator(SquareMatrix.diagonal(ctx, [1 + q] * 4), zero_mu,
                                          one, one), InverseOutsideRing),
        "R times 1 + q": (EnhancedOperator(scaled, op.mu, op.alpha, op.beta * (1 + q)),
                          InverseOutsideRing),
        "alpha not a unit": (EnhancedOperator(op.r, op.mu, 1 + q, op.beta), NotAUnit),
        "beta zero": (EnhancedOperator(op.r, op.mu, op.alpha, ctx.zero()), NotAUnit),
        "contexts": (EnhancedOperator(SquareMatrix.identity(other, 4), op.mu, op.alpha, op.beta),
                     ContextMismatch),
        # alpha^-1 leaves the exponent range while forming N; the exact path
        # stops at trace2 first
        "N overflows": (EnhancedOperator(op.r, op.mu, q ** -MAX_EXPONENT, op.beta), "trace2"),
    }
    for name, (case, want) in cases.items():
        got = _assert_as_exact(monkeypatch, case)
        assert (got[0] if isinstance(got, tuple) else got.condition) == want, name


@pytest.mark.parametrize("roots, e, k, exact_calls, want", [
    ((), 455, 0, 0, True), ((), -455, 0, 0, True), ((), 456, 0, 1, True),
    ((), -456, 0, 1, True), ((("s", "q"),), 409, 0, 0, True),
    ((("s", "q"),), 410, 0, 1, True), ((), 1500, 1500, 1, ExponentOverflow)])
def test_the_exponent_gate_sends_only_far_exponents_to_the_exact_path(monkeypatch, roots, e, k,
                                                                      exact_calls, want):
    """R = q^e 1, mu = q^k 1, alpha = q^e and beta = 2 q^k pass.  With k = 0,
    P and N hold q^(+-e), doubled +-2 e, and the gate's reach is 9 plus one
    per root, so the ints stop at |e| = 456 without a root and at 410 with
    one, where that many times 2 e leaves the exponent range.  At e = k =
    1500 forming P leaves it, and so does RM on the exact path."""
    ctx = ScalarContext(("q",), roots)
    r, mu = (SquareMatrix.diagonal(ctx, [ctx.gen("q", p)] * n) for p, n in ((e, 4), (k, 2)))
    op = EnhancedOperator(r, mu, ctx.gen("q", e), 2 * ctx.gen("q", k))
    calls = _exact_calls(monkeypatch)
    got = _assert_as_exact(monkeypatch, op)
    assert len(calls) == exact_calls + 1  # and one more for the reference
    assert got.ok if want is True else got[0] is want


def test_a_weight_of_side_one_is_refused_before_any_product(monkeypatch, capsys, tmp_path):
    ctx = ScalarContext(("q",))
    one = SquareMatrix.identity(ctx, 1)
    op = EnhancedOperator(one, one, ctx.one(), ctx.one())

    def refuse(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(eyb, "kron", refuse)
    message = "a weight of side 1 has no slot to close"
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        verify_eyb(op)
    paths = []
    for name, obj in (("ctx.json", {"generators": ["q"]}), ("op.json", eyb_to_json(op))):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(obj))
    code = main(["eyb-verify", "--file", str(paths[1]), "--context", str(paths[0])])
    captured = capsys.readouterr()
    assert (code, captured.err, captured.out) == (1, f"error: {message}\n", "")


def _reads(monkeypatch):
    """A list that grows by the int on each read back to a Scalar by
    ``check_ybe`` or ``verify_eyb``."""
    reads = []

    def mapped(*args):
        got = kronecker(*args)
        if got is None:
            return None
        ints, read, *rest = got

        def counted(v):
            reads.append(v)
            return read(v)

        return (ints, counted, *rest)

    for module in (catalog, eyb):
        monkeypatch.setattr(module, "kronecker", mapped)
    return reads


# R = 2 E00 + 2 E31 - q E32 + 2 E33: the only nonzero entry of its residual
# is at (7, 5), in the last row of the check's scan
_LAST_ROW_ONLY = {(0, 0): "2", (3, 1): "2", (3, 2): "-q", (3, 3): "2"}


def _last_row_only():
    ctx = ScalarContext(("q",))
    return SquareMatrix(ctx, 4, {key: ctx.parse(v) for key, v in _LAST_ROW_ONLY.items()})


def test_a_passing_check_reads_no_int_back_and_a_failing_ybe_check_one(monkeypatch):
    reads = _reads(monkeypatch)
    ops = [op for _, op in _table1()]
    for seed in (1, 2, 3):
        rng = random.Random(f"verify-{seed}")
        ops += [c for sign, op in _table1() for c in _candidates(op, sign, rng)]
    assert len(ops) == 46 + 3 * 138
    for op in ops:
        assert catalog.check_ybe(op.r) and verify_eyb(op)
    assert reads == []
    r = _last_row_only()
    got = catalog.check_ybe(r)
    assert got == oracles.check_ybe_by_embedding(r) and got.index == (7, 5)
    assert len(reads) == 1 and got.residual == r.ctx.parse("-8 - 4*q")


def _cancelling(ctx):
    """An operator whose RM holds, at (0, 2), two products that cancel where
    MR stores none, and whose MR does so at (2, 0): with mu = [[0, 1], [-1,
    -1]], this R commutes with mu (x) mu, and both traces are -mu."""
    rows = [[1, 2, 0, 2], [-2, -3, 0, -2], [0, 0, -1, 0], [2, 2, 0, 1]]
    q = ctx.gen("q")
    r = SquareMatrix(ctx, 4, {(i, j): q * v for i, row in enumerate(rows)
                              for j, v in enumerate(row) if v})
    mu = SquareMatrix(ctx, 2, {(0, 1): ctx.one(), (1, 0): -ctx.one(), (1, 1): -ctx.one()})
    return EnhancedOperator(r, mu, q, -ctx.one())


def test_the_sparse_kernels_edge_cases_get_the_exact_paths_verdicts(monkeypatch):
    """Each case against the exact path and its R against the embedding
    route; an operator that passes never takes the exact path."""
    ctx = ScalarContext(("q",))
    one, q = ctx.one(), ctx.gen("q")
    zero_mu = SquareMatrix(ctx, 2, {})
    corner = SquareMatrix(ctx, 2, {(0, 0): one})  # mu of rank one: M holds one entry
    # q on the first state, a swap of the middle two and q^-1 on the last
    block = SquareMatrix(ctx, 4, {(0, 0): q, (1, 2): one, (2, 1): one, (3, 3): q ** -1})
    cancelling = _cancelling(ctx)
    dense = _candidates(get_table1_eyb("R1.1", 2), "+", random.Random("verify-1"))[0]
    assert len(dense.r.entries) == 16 and len(dense.mu.entries) == 4
    cases = {
        "RM cancels where MR is empty": (cancelling, True),
        "MR cancels where RM is empty": (EnhancedOperator(
            cancelling.r.transpose(), cancelling.mu.transpose(), q, -one), True),
        "an empty row": (EnhancedOperator(
            SquareMatrix.diagonal(ctx, [1, 1, 1, 0]), corner, one, one), NonInvertible),
        "mu of rank one": (EnhancedOperator(block, corner, q, one), True),
        "mu of rank one, beta off": (EnhancedOperator(block, corner, q, 2 * one), "trace2"),
        "a dense R": (dense, True),
        "a dense R with R off": (EnhancedOperator(
            SquareMatrix(dense.ctx, 4, {**dense.r.entries,
                                        (3, 0): dense.r.get(3, 0) + dense.ctx.gen("q")}),
            dense.mu, dense.alpha, dense.beta), "commute"),
        "a det of one term": (EnhancedOperator(
            SquareMatrix.diagonal(ctx, [q, 1, 1, -1]), zero_mu, one, one), True),
        # det q - 1 is the int 2^width - 1: two digits, the lower one -1
        "a det of two terms": (EnhancedOperator(
            SquareMatrix.diagonal(ctx, [q - 1, 1, 1, 1]), zero_mu, one, one),
            InverseOutsideRing),
        "a det of two terms, reversed": (EnhancedOperator(
            SquareMatrix.diagonal(ctx, [1 - q, 1, 1, 1]), zero_mu, one, one),
            InverseOutsideRing),
    }
    calls = _exact_calls(monkeypatch)
    for name, (op, want) in cases.items():
        calls.clear()
        got = _assert_as_exact(monkeypatch, op)
        assert (got[0] if isinstance(got, tuple) else got.condition or got.ok) == want, name
        assert len(calls) == (1 if want is True else 2), name  # one for the reference
        r_got = catalog.check_ybe(op.r)
        assert r_got == oracles.check_ybe_by_embedding(op.r), name
    r = _last_row_only()
    r12, r23 = embed_generator(r, 1, 3), embed_generator(r, 2, 3)
    p = matmul(r12, r23)
    assert list(matmul_sub(p, r12, r23, p).entries) == [(7, 5)]
    assert catalog.check_ybe(r) == oracles.check_ybe_by_embedding(r)


# -- the kernel ---------------------------------------------------------------


def _scalar(rng, ctx, roots):
    """A seeded Scalar with no i; a root's exponent is 0 or 1 when ``roots``, else 0."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = tuple(rng.choice((-1, 1)) for _ in ctx.generators)
        exps += tuple(rng.choice((0, 2)) if roots else 0 for _ in ctx.root_names)
        terms[exps] = Fraction(rng.choice((1, -1)) * rng.choice((1, 3, 7)),
                               rng.choice((1, 2, 5)))
    return Scalar(ctx, terms)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_the_int_of_a_sum_of_degree_5_products_with_one_rooted_factor_reads_back(name):
    ctx = CONTEXTS[name]
    rng = random.Random(33)
    for _ in range(25):
        plain = {k: _scalar(rng, ctx, False) for k in range(rng.randint(1, 4))}
        rooted = {10 + k: _scalar(rng, ctx, True) for k in range(rng.randint(1, 3))}
        entries = {**plain, **rooted}
        ints, read, _ = kronecker(ctx, entries, 4, 5, 5, rooted)
        total, want = 0, ctx.zero()
        for _ in range(4):
            keys = [rng.choice(list(plain)) for _ in range(4)]
            keys.append(rng.choice(list(rooted if rng.random() < 0.7 else plain)))
            sign = rng.choice((1, -1))
            product, value = sign, ctx.scalar(sign)
            for key in keys:
                product, value = product * ints[key], value * entries[key]
            total, want = total + product, want + value
            _assert_same(read(product), value)
        _assert_same(read(total), want)
    # the root's digit round-trips alone, and a root outside ``rooted`` refuses the map
    root = ctx.gen(ctx.root_names[-1])
    ints, read, _ = kronecker(ctx, {0: root, 1: ctx.one()}, 1, 5, 5, (0,))
    _assert_same(read(ints[0] * ints[1] ** 4), root)
    assert kronecker(ctx, {0: root}, 1, 5) is None


def test_i_the_bit_cap_and_the_exponent_gate_refuse_the_map():
    ctx = CONTEXTS["R1.1"]
    q = ctx.gen("q")
    assert kronecker(ctx, {0: ctx.i()}, 1, 5, 10, (0,)) is None
    # products of five of q^(+-300) and q^(1/2) span 6001 exponent slots
    # of more than 100 bits
    wide = {0: q ** 300 * 10 ** 6, 1: q ** -300, 2: ctx.parse("q^(1/2)")}
    assert 6001 * 100 > MAX_KRONECKER_BITS and kronecker(ctx, wide, 1, 5) is None
    for degree, reach, fits in ((5, None, 1638), (5, 10, 819)):  # doubled exponents
        for power in (fits, -fits):
            assert kronecker(ctx, {0: ctx.parse(f"q^({power}/2)")}, 1, degree, reach)
        for power in (fits + 1, -fits - 1):
            assert kronecker(ctx, {0: ctx.parse(f"q^({power}/2)")}, 1, degree, reach) is None
    # with rooted entries the radicands' terms count against the gate too
    far = ScalarContext(("q",), (("s", "q^500"),))
    entries = {0: far.gen("q"), 1: far.gen("s")}
    assert kronecker(far, entries, 1, 5, 10, (1,)) is None
    assert kronecker(far, {0: far.gen("q")}, 1, 5, 10)
