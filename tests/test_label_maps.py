"""R with one entry per column at label maps, on the coloring sum, against
the half-word closure and the whole word's matrix.

An R whose entry of column (c, d) sits at row (phi(d), psi(c)), for
permutations phi and psi of the labels, sends each state to one state, so
``compute_ts`` sums over the colorings of the closure's components that
their monodromy fixes (``invariant._graded``, ``invariant._coloring_trace``).
A negative letter takes the inverse maps, at R^-1's weights.  Row R1.4/1
has phi = psi = the swap of 0 and 1, an involution, so only the seeded
base-3 operators, whose phi and psi are 3-cycles, tell a map from its
inverse.
"""

import random

from test_invariant import (
    _flip, _images, _matrix_path, _mixed_words, _outcome, _route, _torus,
)

from ybtrace import invariant
from ybtrace.braid import NAMED_LINKS, BraidWord, get_named_braid
from ybtrace.errors import ExponentOverflow
from ybtrace.eyb import EnhancedOperator, get_table1_entry
from ybtrace.invariant import compute_ts
from ybtrace.ring import MAX_EXPONENT, ScalarContext
from ybtrace.tensor import MAX_STATES, SquareMatrix

# weights that are units, with coefficients other than +-1, and others
UNITS = ["1", "-1", "2", "x", "-x^-1", "3*x^2", "x/2", "-2*x^-3"]
OTHERS = ["1+x", "x-2", "x^2+x^-1"]


def _by_half_word_closure(op, b):
    """alpha^-w beta^-n Tr(rep mu^(x n)) by the half-word closure, with its
    refusals: the strand cap, then R^-1 for a negative letter."""
    invariant._slots(op, b.strands)
    return invariant._weighted(op, b, invariant._half_word_closure(op, b, 0), b.strands)


def _one_entry_per_column(op):
    columns = [c for _, c in op.r.entries]
    return len(columns) == len(set(columns))


def _row_operators():
    """R1.4/1 with both signs and those of its similarity, transpose, shift
    and flip images that keep one entry per column."""
    ops = []
    entry = get_table1_entry("R1.4", 1)
    for sign in "+-":
        op = entry.build(sign, ctx=entry.context())
        q = op.ctx.gen("q")
        ops.append((("R1.4", sign), op))
        images = {**_images(op, q, q ** -1), "flip": _flip(op)}
        ops += [(("R1.4", sign, kind), image) for kind, image in images.items()
                if _one_entry_per_column(image)]
    return ops


def _cycle(rng):
    """One of the two 3-cycles of the labels 0, 1, 2."""
    return rng.choice(((1, 2, 0), (2, 0, 1)))


def _seeded_operator(rng, ctx):
    """A base-3 operator whose R has the entry of column (c, d) at row
    (phi(d), psi(c)), phi and psi 3-cycles, each weight a seeded unit, one
    time in four with one weight that is no unit and one time in six with
    one column empty; mu diagonal with seeded entries, one of them at times
    0 or no unit; alpha a seeded unit, beta 1 or 2.  It is not enhanced."""
    phi, psi = _cycle(rng), _cycle(rng)
    entries = {(phi[d] * 3 + psi[c], c * 3 + d): ctx.parse(rng.choice(UNITS))
               for c in range(3) for d in range(3)}
    keys = sorted(entries)
    if rng.random() < 0.25:
        entries[rng.choice(keys)] = ctx.parse(rng.choice(OTHERS))
    if rng.random() < 1 / 6:
        del entries[rng.choice(keys)]
    mu = [ctx.parse(rng.choice(UNITS)) for _ in range(3)]
    if rng.random() < 0.5:
        mu[rng.randrange(3)] = ctx.parse(rng.choice(OTHERS + ["0"]))
    alpha = ctx.parse(rng.choice(UNITS))
    beta = ctx.scalar(rng.choice((1, 1, 2)))
    return EnhancedOperator(SquareMatrix(ctx, 9, entries), SquareMatrix.diagonal(ctx, mu),
                            alpha, beta)


def test_label_maps_match_the_half_word_closure_and_the_matrix_path():
    """R1.4/1 with both signs and its images that keep one entry per column,
    and 24 seeded base-3 operators at 3-cycles: the named links, seeded words
    with letters of both signs and T(p, p+1), for p up to 10 at base 2 and
    up to 5 at base 3, give the half-word closure's value or error, and the
    whole word's matrix's up to 256 states.  Two seeded operators go on to
    T(7, 8), at the strand cap of base 3 (``test_r14_never_reaches_a_state_sum``
    takes R1.4/1 to T(12, 13)).  Each takes the coloring sum at label maps
    other than the identity."""
    rng = random.Random(39)
    links = [get_named_braid(name).braid for name in NAMED_LINKS]
    ops = _row_operators()
    assert {label[2] for label, _ in ops if len(label) == 3} == {"transpose", "shift", "flip"}
    ctx = ScalarContext(("x",))
    ops += [(("seeded", k), _seeded_operator(rng, ctx)) for k in range(24)]
    assert 3 ** 7 <= MAX_STATES < 3 ** 8
    values = errors = 0
    for label, op in ops:
        base = op.base_dim
        top = 10 if base == 2 else 7 if label[1] < 2 else 5
        words = links + _mixed_words(rng, 8, 4, 9) + [BraidWord(1), BraidWord(2, (-1,))]
        words += [_torus(p, p + 1) for p in range(2, top + 1) if p != 6 or base == 2]
        for b in words:
            got = _outcome(lambda: compute_ts(op, b).value)
            assert got == _outcome(lambda: _by_half_word_closure(op, b)), (label, b)
            if base ** b.strands <= 256:
                assert got == _outcome(lambda: _matrix_path(op, b)), (label, b)
            values += got[0] == "value"
            errors += got[0] == "error"
        assert _route(op) == "coloring", label
        assert invariant._structure(op).params[3] is not None, label
    assert values > 700 and errors > 20


def test_r14_never_reaches_a_state_sum(monkeypatch):
    """R1.4/1 with both signs takes the coloring sum: with the half-word
    closure patched to raise, the named links give the whole word's
    matrix's value, the knots the unknot value, as the knots-1 tag asks,
    and so does T(12, 13), at the strand cap."""
    def refuse(*args):
        raise AssertionError("a state sum ran")

    monkeypatch.setattr(invariant, "_half_word_closure", refuse)
    entry = get_table1_entry("R1.4", 1)
    for sign in "+-":
        op = entry.build(sign, ctx=entry.context())
        unknot = compute_ts(op, BraidWord(1)).value
        for name in NAMED_LINKS:
            link = get_named_braid(name)
            value = compute_ts(op, link.braid).value
            assert value == _matrix_path(op, link.braid), (sign, name)
            if link.components == 1:
                assert value == unknot, (sign, name)
        assert compute_ts(op, _torus(12, 13)).value == unknot, sign
        assert _route(op) == "coloring", sign


def _value_or_overflow(route):
    try:
        return route()
    except ExponentOverflow:
        return ExponentOverflow


def test_past_the_key_bound_the_weights_multiply_as_scalars():
    """R1.4/1's R with q^400 for q: on sigma_1^k, (k + 2) times the doubled
    exponent 800 stays below MAX_EXPONENT, the bound of the keyed products,
    up to k = 3 and not from k = 4, where every weight multiplies as a
    Scalar.  The values are the half-word closure's, and the whole word's
    matrix's up to k = 10, on both sides and with a negative letter added;
    sigma_1^12 meets q^4800, past the exponent range, and raises
    ExponentOverflow as the closure does."""
    entry = get_table1_entry("R1.4", 1)
    row = entry.build(ctx=entry.context())
    ctx = row.ctx
    r = SquareMatrix.from_rows(ctx, [[0, 0, 0, "q^400"], [0, 1, 0, 0], [0, 0, 1, 0],
                                     ["q^400", 0, 0, 0]])
    op = EnhancedOperator(r, row.mu, row.alpha, row.beta)
    assert (3 + 2) * 800 < MAX_EXPONENT <= (4 + 2) * 800
    for k in range(1, 14):
        for b in (BraidWord(2, (1,) * k), BraidWord(3, (1,) * k + (-2,))):
            got = _value_or_overflow(lambda: compute_ts(op, b).value)
            assert got == _value_or_overflow(lambda: _by_half_word_closure(op, b)), b
            if k <= 10:  # the whole word's matrix meets q^4400 on sigma_1^11
                assert got == _matrix_path(op, b), b
    assert _value_or_overflow(lambda: compute_ts(op, BraidWord(2, (1,) * 12))) is ExponentOverflow
    assert _route(op) == "coloring"
