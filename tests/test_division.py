"""Powers, unit inverses and exact division against the checked routes they
replace.

``ring.pow_int`` raises a root-free monomial by key arithmetic and inverts
any other unit that way before squaring, and ``ring.try_div_exact``
returns the numerator for a divisor of 1, multiplies by that inverse for any
other unit and takes the long division's zero remainder as the proof of a
root-free divisor's quotient.  ``oracles.pow_int_by_terms`` squares by
Scalar products after rebuilding any inverse from its exponent tuple, and
``oracles.checked_try_div_exact`` rationalizes, long-divides and multiplies
back on every divisor.  The fast paths are compared with them and with the
term-dict oracles, on seeded scalars and on every division the tables and
the inversion of seeded blocks make.
"""

import random
from fractions import Fraction

import pytest

import oracles
from oracles import terms_of
from test_tensor import _identity, _unimodular

from ybtrace import eyb, invariant, ring, tables, tensor
from ybtrace.errors import (
    ExponentOverflow, InverseOutsideRing, NonInvertible, NotAUnit, NotDivisible, YbtraceError,
)
from ybtrace.invariant import classification_report
from ybtrace.ring import MAX_EXPONENT, ScalarContext, pow_int, try_div_exact
from ybtrace.tables import run_table
from ybtrace.tensor import invert

# r*r = 1 - q^2 is not a unit; s*s = q + i*r/2 uses r.  u*u = t and
# w*w = -2*t^-1*u are units, so monomials in them are too.  x*x = q^2 is a
# square, so x - q is a zero divisor.
CTX_ROOTS = ScalarContext(("p", "q"), (("r", "1-q^2"), ("s", "q + i*r/2")))
CTX_UNITS = ScalarContext(("t",), (("u", "t"), ("w", "-2*t^-1*u")))
CTX_SQUARE = ScalarContext(("q",), (("x", "q^2"),))
CONTEXTS = [CTX_ROOTS, CTX_UNITS, CTX_SQUARE]
IDS = ["roots", "units", "square"]

COEFFS = ["1", "-1", "2", "-1/3", "1/2", "i", "-2*i", "(1+i)/2", "3-i"]


def _outcome(fn, *args):
    """The value fn returns, or the class of the error it raises."""
    try:
        return fn(*args)
    except (YbtraceError, ZeroDivisionError) as exc:
        return type(exc)


def _as_terms(got):
    """An outcome with its Scalar value read as a term dict."""
    return got if isinstance(got, type) else terms_of(got)


def _monomial(rng, ctx, edge=0.0, roots=True):
    """A random monomial, with roots when ``roots`` is true; with probability
    ``edge`` one generator sits at an end of the exponent range."""
    exps = {g: rng.randint(-3, 3) for g in ctx.generators}
    if rng.random() < edge:
        exps[rng.choice(ctx.generators)] = rng.choice((-MAX_EXPONENT, MAX_EXPONENT - 1))
    for name in ctx.root_names if roots else ():
        exps[name] = rng.choice((0, 1))
    return ctx.parse(rng.choice(COEFFS)) * ctx.monomial(1, exps)


def _sum(rng, ctx, terms, roots=True):
    total = ctx.zero()
    for _ in range(terms):
        total = total + _monomial(rng, ctx, roots=roots)
    return total


def _kind(den):
    """The route try_div_exact takes for the divisor ``den``."""
    if den == den.ctx.one():
        return "one"
    if den.is_unit():
        return "unit"
    if ring._root_mask(den):
        return "root"
    return "plain"


def _check_division(num, den):
    """try_div_exact(num, den) against both division oracles (the term-dict
    one has no exponent range); returns its outcome."""
    got = _outcome(try_div_exact, num, den)
    assert got == _outcome(oracles.checked_try_div_exact, num, den), (num, den)
    if got is not ExponentOverflow:
        want = _outcome(oracles.terms_try_div_exact, num.ctx, terms_of(num), terms_of(den))
        assert _as_terms(got) == want, (num, den)
    return got


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
def test_negative_powers_match_the_term_route(ctx):
    rng = random.Random(15)
    seen = set()
    for trial in range(300):
        x = _monomial(rng, ctx, edge=0.1) if trial % 5 else _sum(rng, ctx, rng.randint(0, 2))
        k = rng.randint(-3, -1)
        got = _outcome(pow_int, x, k)
        assert got == _outcome(oracles.pow_int_by_terms, x, k), (x, k)
        if got is not ExponentOverflow:  # the term dicts have no exponent range
            assert _as_terms(got) == _outcome(oracles.terms_pow_int, ctx, terms_of(x), k)
        if isinstance(got, type):
            seen.add(got)
        elif x.is_unit():
            (exps, coeff), = terms_of(x).items()
            seen.update(feature for feature, present in (
                ("i", coeff.im), ("half", Fraction(coeff.re).denominator == 2),
                ("root", any(exps[len(ctx.generators):]))) if present)
    assert {"i", "half", NotAUnit, ExponentOverflow} <= seen
    if ctx is not CTX_ROOTS:  # r's radicand 1 - q^2 is not a unit
        assert "root" in seen


def _edge_powers(ctx, rng):
    """(monomial, k) pairs with one generator's exponent e times k at and
    next to each end of the exponent range, e a whole or half integer."""
    for g in ctx.generators:
        for e in (1, -1, Fraction(1, 2), Fraction(-3, 2), 3):
            x = ctx.parse(rng.choice(COEFFS)) * ctx.monomial(1, {g: e})
            for end in (MAX_EXPONENT, -MAX_EXPONENT):
                k = int(end / e)
                for step in (-1, 0, 1):
                    yield x, k + step


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
def test_monomial_powers_match_the_squaring_route(ctx):
    """pow_int on seeded monomials, root-free ones by key arithmetic and the
    others by squaring, with i and half exponents in their coefficients and
    exponents, powers of both signs and powers at the range's edge."""
    rng = random.Random(20)
    cases = list(_edge_powers(ctx, rng))
    for trial in range(300):
        x = _monomial(rng, ctx, edge=0.1, roots=trial % 4 == 0)
        if trial % 3 == 0:
            x = x * ctx.monomial(1, {rng.choice(ctx.generators): Fraction(1, 2)})
        cases.append((x, rng.choice((rng.randint(-7, 7), rng.randint(-600, 600)))))
    seen = set()
    for x, k in cases:
        got = _outcome(pow_int, x, k)
        assert got == _outcome(oracles.pow_int_by_terms, x, k), (x, k)
        if got is not ExponentOverflow and abs(k) < 100:  # no exponent range there
            assert _as_terms(got) == _outcome(oracles.terms_pow_int, ctx, terms_of(x), k)
        (exps, coeff), = terms_of(x).items()
        seen.update(feature for feature, present in (
            ("i", coeff.im), ("half", any(e % 2 for e in exps)), ("negative", k < 0),
            ("root", any(exps[len(ctx.generators):])), (got, isinstance(got, type)),
            ("edge", not isinstance(got, type) and max(map(abs, terms_of(got).popitem()[0]))
             >= 2 * MAX_EXPONENT - 2)) if present)
    assert {"i", "half", "negative", "root", "edge", ExponentOverflow} <= seen


def _repeated(x, k):
    """x^k as |k| products of x, or of the squaring route's x^-1."""
    factor = x if k > 0 else oracles.pow_int_by_terms(x, -1)
    result = x.ctx.one()
    for _ in range(abs(k)):
        result = result * factor
    return result


def _first(holds, low=1, high=1 << 15):
    """The least k in [low, high) with holds(k), for a predicate that stays
    true once it holds; high when none."""
    while low < high:
        mid = (low + high) // 2
        low, high = (low, mid) if holds(mid) else (mid + 1, high)
    return low


def test_every_rows_alpha_and_c_raise_by_key_arithmetic_as_the_products_do():
    """alpha and the closed form's c of the 23 rows with both signs, among
    them R2.1/1's p^-1*q^-1*sqrt_pq, R2.2/1's sqrt_pq and R1.2/1's sqrt_q,
    whose roots pow_int raises by key arithmetic (``ring._rooted_power``):
    x^k equals |k| products for -12 <= k <= 12.  Where the key route hands
    over to squaring, and at each end of the exponent range, the outcome,
    a value or ExponentOverflow, is the squaring route's and that of one
    more product, x^(k-1) times x (or x^-1): a product settles a root's
    square before it tests the range."""
    values = []
    for entry in eyb.table1_entries():
        for sign in "+-":
            op = entry.build(sign, ctx=entry.context())
            c = invariant._eigenvalue(op)
            values += [op.alpha] + ([c] if c is not None else [])
    rooted = [x for x in values if ring._root_mask(x)]
    assert len(rooted) == 6
    for x in values:
        for k in range(-12, 13):
            assert pow_int(x, k) == _repeated(x, k), (x, k)
    for x in values:
        if not any(any(exps[:len(x.ctx.generators)]) for exps in terms_of(x)):
            continue  # a constant has no end of the range
        m = min(x._nums) & ~1
        roots = m & x.ctx._layout.root_fields
        for sign in (1, -1):
            edge = _first(lambda k: _outcome(oracles.pow_int_by_terms, x, sign * k)
                          is ExponentOverflow)
            ks = [edge - 2, edge - 1, edge, edge + 1]
            if roots:
                handover = _first(lambda k: ring._rooted_power(x, sign * k, m, roots) is None, 2)
                assert 2 < handover < edge, (x, sign)
                ks += [handover - 1, handover]
            factor = x if sign > 0 else oracles.pow_int_by_terms(x, -1)
            for k in ks:
                got = _outcome(pow_int, x, sign * k)
                assert got == _outcome(oracles.pow_int_by_terms, x, sign * k), (x, sign * k)
                assert (got is ExponentOverflow) == (k >= edge), (x, sign * k)
                if k - 1 < edge:
                    product = _outcome(lambda: pow_int(x, sign * (k - 1)) * factor)
                    assert product == got, (x, sign * k)


def test_a_product_settles_a_roots_square_before_it_tests_the_range():
    """R2.1/1's alpha = p^-1*q^-1*sqrt_pq: alpha^8191 * alpha is
    alpha^8192 = p^-4096*q^-4096, in range, though p and q leave the range
    until sqrt_pq^2 is replaced by p*q, by a product, by ``ring.dot`` and
    by ``ring.contract``.  Products whose result is out of range still
    raise ExponentOverflow, with a root's square or without."""
    alpha = eyb.get_table1_eyb("R2.1", 1).alpha
    ctx = alpha.ctx
    high, top = pow_int(alpha, 8191), ctx.parse("p^-4096*q^-4096")
    assert high == ctx.parse("p^-4096*q^-4096*sqrt_pq")
    assert high * alpha == alpha * high == pow_int(alpha, 8192) == top
    assert ring.dot(ctx, [(high, alpha)]) == top
    assert ring.contract(ring.pack(ctx, {0: high}), {0: [("x", alpha)]}) == {"x": top}
    for product in (lambda: top * alpha, lambda: high * high, lambda: top * ctx.gen("p", -1),
                    lambda: ring.dot(ctx, [(high, alpha * alpha)])):
        with pytest.raises(ExponentOverflow):
            product()


def test_the_inverse_refuses_the_one_exponent_it_cannot_negate():
    ctx = CTX_UNITS
    low = ctx.monomial(1, {"t": -MAX_EXPONENT})
    high = ctx.monomial(1, {"t": MAX_EXPONENT - 1})
    for x in (low, low * ctx.gen("u"), ctx.parse("i/2") * low):
        with pytest.raises(ExponentOverflow):
            pow_int(x, -1)
        with pytest.raises(ExponentOverflow):
            oracles.pow_int_by_terms(x, -1)
    assert pow_int(high, -1) == ctx.monomial(1, {"t": 1 - MAX_EXPONENT})
    assert pow_int(ctx.gen("t", 1 - MAX_EXPONENT), -1) == high
    # the root's inverse is root * radicand^-1: u^-1 = u * t^-1
    assert pow_int(ctx.gen("u"), -1) == ctx.gen("u") * ctx.gen("t", -1)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
def test_each_division_route_matches_the_checked_division(ctx):
    rng = random.Random(1015)
    outcomes = {}
    for trial in range(400):
        kind = ("one", "unit", "plain", "root")[trial % 4]
        if kind == "one":
            den = ctx.one()
        elif kind == "unit":
            den = _monomial(rng, ctx)
        elif kind == "plain":
            den = _sum(rng, ctx, rng.randint(2, 3), roots=False)
        else:
            den = _sum(rng, ctx, rng.randint(1, 3))
        num = _sum(rng, ctx, rng.randint(0, 3))
        if rng.random() < 0.5:
            num = num * den
        got = _check_division(num, den)
        if not den.is_zero():
            outcomes.setdefault(_kind(den), set()).add(
                got if isinstance(got, type) else "exact")
        if _kind(den) == "one" and not num.is_zero():
            assert got is num
    assert outcomes["one"] == outcomes["unit"] == {"exact"}
    assert {"exact", NotDivisible} <= outcomes["plain"]
    if ctx is not CTX_UNITS:  # there every monomial with a root is a unit
        assert {"exact", NotDivisible} <= outcomes["root"]


def test_division_at_the_exponent_edge_and_by_zero_divisors():
    ctx = CTX_SQUARE
    low = ctx.gen("q", -MAX_EXPONENT)
    one_plus = ctx.parse("1 + q")
    cases = [
        (low, ctx.gen("q")),  # a unit divisor
        (low * one_plus, ctx.gen("q") * one_plus),  # a root-free non-unit
        (low * ctx.gen("x"), ctx.gen("q") * ctx.gen("x")),  # a root
    ]
    for num, den in cases:
        assert _check_division(num, den) is ExponentOverflow
    # x - q times x + q is 0, so neither divides anything
    assert _check_division(ctx.parse("x + q"), ctx.parse("x - q")) is NotDivisible
    assert _check_division(ctx.parse("2*x + q"), ctx.parse("x + 2*q")) == ctx.parse("q^-1*x")
    assert _check_division(ctx.parse("1 + q"), ctx.parse("x + q^2")) is NotDivisible
    assert _check_division(ctx.parse("3*q^2"), ctx.parse("x + 2*q")) == ctx.parse("2*q - x")


def test_int_and_fraction_numerators_join_the_divisor_context():
    ctx = ScalarContext(("t",))
    t = ctx.gen("t")
    assert try_div_exact(2, t) == ctx.parse("2*t^-1")
    assert try_div_exact(Fraction(1, 2), ctx.scalar(3)) == ctx.scalar(Fraction(1, 6))
    assert try_div_exact(0, ctx.parse("1 + t")) == ctx.zero()
    with pytest.raises(NotDivisible):
        try_div_exact(1, ctx.parse("1 + t"))
    for num, den in ((2, 3), (Fraction(1, 2), 2), ("t", t), (2.0, t), (None, t)):
        with pytest.raises(TypeError):
            try_div_exact(num, den)


def _spy_divisions(monkeypatch, census):
    """Check each division invariant and tensor make against the oracles,
    counting the divisor kinds in ``census``."""
    def checked(num, den):
        census[_kind(den)] = census.get(_kind(den), 0) + 1
        got = _check_division(num, den)
        if isinstance(got, type):
            raise got("the division failed")
        return got

    monkeypatch.setattr(invariant, "try_div_exact", checked)
    monkeypatch.setattr(tensor, "try_div_exact", checked)


def test_every_division_of_the_tables_matches_the_checked_division(monkeypatch):
    # fresh shared operators, collapsed operators and nabla image: kept ones
    # from an earlier test would skip the divisions that build them
    monkeypatch.setattr(eyb, "_shared_ops", {})
    monkeypatch.setattr(tables, "_targets", {})
    monkeypatch.setattr(invariant, "_nabla_operator", [])
    census = {}
    _spy_divisions(monkeypatch, census)
    for sign in "+-":
        classification_report(sign=sign)
    for which in (2, 3, 4):
        assert run_table(which).ok
    assert set(census) == {"one", "unit", "plain", "root"}, census


def test_every_division_of_a_block_inversion_matches_the_checked_division(monkeypatch):
    census = {}
    _spy_divisions(monkeypatch, census)
    ctx = ScalarContext(("q",), (("sqrt_1mq2", "1-q^2"),))
    rng = random.Random(2)
    # blocks of side 2 and 3 invert by cofactors: each divides 1 by its unit det
    for side in (2, 3):
        for _ in range(4):
            invert(_unimodular(ctx, side, rng))
    assert census == {"unit": 8}, census
    # blocks of side 9 and 10 take elimination, which divides by its pivots
    census.clear()
    for side in (9, 10):
        for _ in range(2):
            invert(_unimodular(ctx, side, rng))
    assert {"plain", "root"} <= set(census), census


# -- small pieces by cofactors against elimination ---------------------------------


def _invert_fresh(m, monkeypatch, cut=None):
    """invert on a fresh copy of m with pieces up to side ``cut`` by cofactors
    (0: all by elimination; None: the library's cut), or the class of the
    error it raises."""
    with monkeypatch.context() as patch:
        if cut is not None:
            patch.setattr(tensor, "_COFACTOR_SIDE", cut)
        return _outcome(invert, tensor.SquareMatrix(m.ctx, m.side, m.entries))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
def test_cofactors_match_elimination_on_seeded_unimodular_blocks(ctx, monkeypatch):
    rng = random.Random(4)
    for side in (1, 2, 3, 4):
        for _ in range(5):
            m = _unimodular(ctx, side, rng)
            got = _invert_fresh(m, monkeypatch, 4)
            assert got == _invert_fresh(m, monkeypatch, 0), m.entries
            assert tensor.matmul(m, got) == _identity(ctx, side)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
def test_both_inversion_routes_raise_the_same_errors(ctx, monkeypatch):
    g = ctx.generators[-1]
    cases = {
        "non-unit det": [[g, 1], [-1, 1]],
        "non-unit entry": [["1+" + g]],
        "non-unit det of side 3": [[g, 1, 0], [0, g, 1], [1, 0, g]],
        "singular": [[1, 0, 0], [0, g, g + "^2"], [0, g + "^-1", 1]],
        "singular of side 4": [[g, 1, 0, 0], [1, g, 0, 1], [g + "+1", g + "+1", 0, 1],
                               [0, 0, 1, 1]],
        "non-square piece": [[1, 0, 0], [g, 0, 0], [0, 1, g]],
    }
    if ctx is CTX_SQUARE:  # x - q is a zero divisor, and x*x - q*q is zero
        cases.update({"zero det": [["x", "q"], ["q", "x"]],
                      "zero-divisor det": [["x", 1], ["q", 1]],
                      "two-term unit": [["1/2*q + 1/2 + 1/2*x - 1/2*q^-1*x", 1], [0, 1]]})
    errors = set()
    for name, rows in cases.items():
        m = tensor.SquareMatrix.from_rows(ctx, rows)
        got = _invert_fresh(m, monkeypatch, 4)
        assert got == _invert_fresh(m, monkeypatch, 0), name
        errors.add(got if isinstance(got, type) else "inverse")
    assert {InverseOutsideRing, NonInvertible} <= errors


def test_a_unit_det_piece_divides_only_1_by_its_unit_det(monkeypatch):
    divisions = []
    original = tensor.try_div_exact

    def spied(num, den):
        divisions.append((num, den))
        return original(num, den)

    def refuse(*args):
        raise AssertionError("a piece of side at most 4 was eliminated")

    monkeypatch.setattr(tensor, "try_div_exact", spied)
    monkeypatch.setattr(tensor, "_bareiss_row", refuse)
    rng = random.Random(6)
    for ctx in CONTEXTS:
        for side in (1, 2, 3, 4):
            m = _unimodular(ctx, side, rng)
            divisions.clear()
            inv = invert(m)
            # one division per piece, and each cofactor times its quotient
            assert len(divisions) == len(tensor._pieces(m))
            assert all(num == ctx.one() and den.is_unit() for num, den in divisions)
            assert tensor.matmul(m, inv) == _identity(ctx, side)


def _chained(m, side):
    """m of side 5, continued to ``side`` by 1s on the diagonal and on the
    superdiagonal from (4, 5): one piece whose det is m's."""
    one = CTX_SQUARE.one()
    return tensor.SquareMatrix(CTX_SQUARE, side, {
        **m.entries, **{(k, k): one for k in range(5, side)},
        **{(k, k + 1): one for k in range(4, side - 1)}})


def test_elimination_leaves_the_ring_where_cofactors_do_not(monkeypatch):
    """A unimodular block of side 5 over a ring with zero divisors (x*x = q*q):
    its det is a unit, but an exact division of the elimination has no
    quotient.  Chained to sides 5-8 it is one piece that ``invert`` takes
    by cofactors, never entering elimination; chained to side 9 it is
    eliminated and raises InverseOutsideRing, though cofactors invert it.
    With pieces above side 4 eliminated (a patched _COFACTOR_SIDE) the
    side-5 block raises InverseOutsideRing too.  The same block with a row
    scaled by 1 + q, whose det is no unit, raises it both ways."""
    def refuse(*args):
        raise AssertionError("a piece of side at most 8 was eliminated")

    rng = random.Random(5)
    m = [_unimodular(CTX_SQUARE, 5, rng) for _ in range(3)][2]
    with monkeypatch.context() as patch:
        patch.setattr(tensor, "_bareiss_row", refuse)
        for side in (5, 6, 7, 8):
            block = _chained(m, side)
            assert len(tensor._pieces(block)) == 1
            inverse = _invert_fresh(block, monkeypatch)
            assert (tensor.matmul(block, inverse) == tensor.matmul(inverse, block)
                    == _identity(CTX_SQUARE, side))
    for cut in (4, 0):
        assert _invert_fresh(m, monkeypatch, cut) is InverseOutsideRing
    block = _chained(m, 9)
    assert len(tensor._pieces(block)) == 1
    assert _invert_fresh(block, monkeypatch) is InverseOutsideRing
    assert tensor.matmul(block, _invert_fresh(block, monkeypatch, 9)) == _identity(CTX_SQUARE, 9)
    scaled = tensor.SquareMatrix(CTX_SQUARE, 5, {
        (r, c): v * CTX_SQUARE.parse("1 + q") if r == 0 else v for (r, c), v in m.entries.items()})
    for cut in (4, None):
        assert _invert_fresh(scaled, monkeypatch, cut) is InverseOutsideRing
