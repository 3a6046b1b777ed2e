"""Scalar ring: canonical forms, root reduction, division, parsing."""

import json
import math
import random
import re
import time
from fractions import Fraction

import pytest

import oracles

from ybtrace import ring
from ybtrace.errors import ContextMismatch, NotAUnit, NotDivisible, ParseError
from ybtrace.ring import (
    Scalar,
    ScalarContext,
    context_from_json,
    format_scalar,
    pow_int,
    scalar_from_json,
    scalar_to_json,
    substitute,
    try_div_exact,
)


@pytest.fixture
def ctx_t():
    return ScalarContext(("t",))


@pytest.fixture
def ctx_pq():
    return ScalarContext(("p", "q"), (("sqrt_pq", "p*q"),))


def test_additive_inverse(ctx_t):
    t = ctx_t.gen("t")
    assert (t + (-t)).is_zero()


def test_half_exponent_composition(ctx_t):
    half = ctx_t.gen("t", Fraction(1, 2))
    assert half * half == ctx_t.gen("t")


def test_root_square_reduces():
    ctx = ScalarContext(("q",), (("r", "1-q^2"),))
    r = ctx.gen("r")
    assert r * r == ctx.parse("1 - q^2")


def test_root_reduction_with_higher_powers():
    ctx = ScalarContext(("q",), (("r", "1-q^2"),))
    r = ctx.gen("r")
    assert pow_int(r, 4) == ctx.parse("(1-q^2)^2")
    assert pow_int(r, 3) == ctx.parse("(1-q^2)") * r


def test_pow_int_monomial_inverse(ctx_pq):
    pq = ctx_pq.parse("p*q")
    assert pow_int(pq, -1) == ctx_pq.parse("p^-1*q^-1")


def test_pow_int_root_square(ctx_pq):
    root = ctx_pq.gen("sqrt_pq")
    assert pow_int(root, 2) == ctx_pq.parse("p*q")


def test_pow_int_rejects_non_monomial(ctx_t):
    with pytest.raises(NotAUnit):
        pow_int(ctx_t.parse("1 + t"), -1)


def test_pow_int_root_inverse_needs_unit_radicand():
    ctx = ScalarContext(("q",), (("r", "1+q"),))
    with pytest.raises(NotAUnit):
        pow_int(ctx.gen("r"), -1)


def test_pow_zero_is_one(ctx_t):
    assert pow_int(ctx_t.parse("1 + t"), 0) == ctx_t.one()


def test_substitute_parameter_collapse(ctx_pq):
    target = ScalarContext(("t", "q"))
    value = substitute(
        ctx_pq.parse("p*q + p^2*q^2"), {"p": target.parse("t*q^-1")}, target
    )
    assert value == target.parse("t + t^2")


def test_substitute_empty_is_identity(ctx_pq):
    x = ctx_pq.parse("sqrt_pq + p - 2")
    assert substitute(x, {}) == x


def test_substitute_product_collapse():
    ctx = ScalarContext(("t", "a", "b", "y"))
    target = ScalarContext(("t", "s", "b", "y"))
    value = substitute(
        ctx.parse("a*b*y*t^(1/2)"), {"a": target.parse("s*b^-1*y^-1")}, target
    )
    assert value == target.parse("s*t^(1/2)")


def test_substitute_root_image(ctx_pq):
    target = ScalarContext(("t", "q"))
    value = substitute(ctx_pq.gen("sqrt_pq"), {"p": target.parse("t*q^-1")}, target)
    assert value == target.parse("t^(1/2)")


def test_substitute_accepts_text_bindings(ctx_pq):
    target = ScalarContext(("t", "q"))
    value = substitute(ctx_pq.parse("p*q"), {"p": "t*q^-1"}, target)
    assert value == target.gen("t")


def test_substitute_negative_exponent_needs_unit(ctx_t):
    ctx = ScalarContext(("u",))
    with pytest.raises(NotAUnit):
        substitute(ctx.parse("u^-1"), {"u": ctx_t.parse("1 + t")}, ctx_t)


def test_div_difference_of_squares(ctx_t):
    num = ctx_t.parse("t - t^-1")
    den = ctx_t.parse("t^(1/2) - t^(-1/2)")
    assert try_div_exact(num, den) == ctx_t.parse("t^(1/2) + t^(-1/2)")


def test_div_by_one(ctx_t):
    x = ctx_t.parse("3 - t + t^2")
    assert try_div_exact(x, ctx_t.one()) == x


def test_div_by_monomial(ctx_t):
    assert try_div_exact(ctx_t.parse("1 + t"), ctx_t.gen("t")) == ctx_t.parse(
        "t^-1 + 1"
    )


def test_div_failure(ctx_t):
    with pytest.raises(NotDivisible):
        try_div_exact(ctx_t.parse("1 + t"), ctx_t.parse("1 + t^2"))


def test_div_coerces_an_int_or_fraction_divisor_and_refuses_others(ctx_t):
    x = ctx_t.parse("3 - t + t^2")
    assert try_div_exact(x, 2) == ctx_t.parse("3/2 - t/2 + t^2/2")
    assert try_div_exact(x, Fraction(-3, 4)) == try_div_exact(x, ctx_t.scalar(Fraction(-3, 4)))
    assert try_div_exact(ctx_t.zero(), 5) == ctx_t.zero()
    with pytest.raises(ZeroDivisionError):
        try_div_exact(x, 0)
    for divisor in ("q", 2.0, None):
        with pytest.raises(TypeError):
            try_div_exact(x, divisor)


def test_div_with_root_denominator(ctx_pq):
    den = ctx_pq.parse("sqrt_pq + sqrt_pq^-1")
    num = ctx_pq.parse("sqrt_pq*(1 + p*q)")
    assert try_div_exact(num, den) == ctx_pq.parse("p*q")


def test_parse_half_exponents_round_trip(ctx_t):
    x = ctx_t.parse("t^(1/2) + t^(-1/2)")
    assert len(x.terms) == 2
    assert ctx_t.parse(format_scalar(x)) == x


def test_parse_polynomial(ctx_t):
    ctx = ScalarContext(("q",))
    x = ctx.parse("1 - 2*q - q^2")
    assert format_scalar(x) == "1 - 2*q - q^2"


def test_parse_error_position(ctx_t):
    with pytest.raises(ParseError):
        ctx_t.parse("q^")
    with pytest.raises(ParseError):
        ctx_t.parse("t + %")
    with pytest.raises(ParseError):
        ctx_t.parse("t t")


def test_parse_imaginary(ctx_t):
    x = ctx_t.parse("i*t - i")
    assert x * x == ctx_t.parse("-(t^2 - 2*t + 1)")


def test_context_mismatch(ctx_t, ctx_pq):
    with pytest.raises(ContextMismatch):
        ctx_t.gen("t") + ctx_pq.gen("p")


def test_context_validation():
    with pytest.raises(ValueError):
        ScalarContext(("t", "t"))
    with pytest.raises(ValueError):
        ScalarContext(("i",))
    with pytest.raises(ValueError):
        ScalarContext(("t",), (("r", "0"),))


CONSTANTS = ScalarContext(())


def test_constant_scalar_inverse():
    c = CONSTANTS.scalar(1, 2)
    assert c * pow_int(c, -1) == CONSTANTS.one()


def _random_rational(rng):
    """Zero, a small or a 70-bit numerator, over a denominator in 1..12."""
    kind = rng.random()
    if kind < 0.2:
        return Fraction(0)
    bound = 6 if kind < 0.6 else 2**70
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 12))


def _assert_matches_oracle(got, want):
    """The constant Scalar ``got`` equals the oracle's ``want``, is stored in
    lowest terms, and reads back each part as an int exactly when integral."""
    assert got._den > 0 and math.gcd(got._den, *got._nums.values()) == 1, got
    assert got.terms == ({(): (want.re, want.im)} if want else {})
    for part, oracle_part in zip(got.terms.get((), (0, 0)), (want.re, want.im)):
        assert type(part) is (int if oracle_part.denominator == 1 else Fraction)
    assert got.is_zero() == (not want)


def test_comparing_with_an_int_answers_as_comparing_with_its_scalar():
    """``x == n`` for an int n reads x's terms and builds no Scalar; it
    answers as ``x == ctx.scalar(n)`` does, from either side."""
    ctx = ScalarContext(("q",), (("r", "1-q^2"),))
    values = [ctx.parse(text) for text in (
        "0", "1", "-1", "2", "-3", "1/2", "i", "1+i", "2*i", "q", "q^0*2", "r", "2 + q", "2*q^-1")]
    values.append(ctx.scalar(10 ** 20))
    for x in values:
        for n in (0, 1, -1, 2, -3, 10 ** 20):
            assert (x == n) == (x == ctx.scalar(n)) == (n == x) != (x != n), (x, n)
    assert ctx.parse("q^0*2") == 2 and ctx.scalar(10 ** 20) == 10 ** 20


def test_constant_scalars_match_fraction_oracle():
    """Constant Scalars, given as (re, im) or through ``scalar``, against the
    oracle's Fraction arithmetic, inverse and square root."""
    rng = random.Random(20261018)
    for _ in range(5000):
        re1, im1, re2, im2 = (_random_rational(rng) for _ in range(4))
        x, y = CONSTANTS.scalar(re1, im1), Scalar(CONSTANTS, {(): (re2, im2)})
        ox, oy = oracles.GaussianRational(re1, im1), oracles.GaussianRational(re2, im2)
        _assert_matches_oracle(x, ox)
        _assert_matches_oracle(y, oy)
        _assert_matches_oracle(x + y, ox + oy)
        _assert_matches_oracle(x - y, ox - oy)
        _assert_matches_oracle(-x, -ox)
        _assert_matches_oracle(x * y, ox * oy)
        if ox:
            _assert_matches_oracle(pow_int(x, -1), ox.inverse())
        else:
            with pytest.raises(NotAUnit):
                pow_int(x, -1)
        for z, oz in ((x, ox), (x * x, ox * ox), (-(x * x), -(ox * ox))):
            oracle_root = oz.sqrt()
            if oz and oracle_root is not None:
                _assert_matches_oracle(ring._pow_half(z, 1), oracle_root)
            else:  # zero has no half power either
                with pytest.raises(NotAUnit):
                    ring._pow_half(z, 1)
        assert (x == y) == (ox == oy)
        same = (x + y) - y
        assert same == x and hash(same) == hash(x)
        assert (x * y == y * x) and hash(x * y) == hash(y * x)


def test_json_round_trip(ctx_pq):
    x = ctx_pq.parse("sqrt_pq^-1 + i*p^(3/2) - 2*q")
    obj = scalar_to_json(x)
    assert scalar_from_json(ctx_pq, obj) == x
    exps = {k for term in obj["terms"] for k in term["exps"]}
    assert exps <= {"p", "q", "sqrt_pq"}


def test_json_writes_a_doubled_exponent_as_an_integer_or_a_half():
    ctx = ScalarContext(("a", "b", "c", "d"))
    x = Scalar(ctx, {(-3, -2, 1, 4): 1})
    (term,) = scalar_to_json(x)["terms"]
    assert term["exps"] == {"a": "-3/2", "b": "-1", "c": "1/2", "d": "2"}
    assert [str(Fraction(d, 2)) for d in (-3, -2, 1, 4)] == list(term["exps"].values())
    assert scalar_from_json(ctx, scalar_to_json(x)) == x


# -- randomized properties ----------------------------------------------------


def _random_scalar(rng, ctx, max_terms=6):
    terms = []
    nroots = len(ctx.root_names)
    for _ in range(rng.randint(0, max_terms)):
        coeff = oracles.GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), 1) if rng.random() < 0.25 else 0,
        )
        exps = [rng.randint(-4, 4) for _ in ctx.generators]
        exps += [2 * rng.randint(0, 1) for _ in range(nroots)]
        terms.append((tuple(exps), coeff))
    return Scalar(ctx, oracles.pairs(oracles.terms_canonical(ctx, terms)))


def test_ring_axioms_randomized():
    rng = random.Random(20240521)
    ctx = ScalarContext(("p", "q"), (("sqrt_pq", "p*q"),))
    for _ in range(1000):
        a = _random_scalar(rng, ctx)
        b = _random_scalar(rng, ctx)
        c = _random_scalar(rng, ctx, max_terms=3)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_canonical_form_uniqueness():
    rng = random.Random(99)
    ctx = ScalarContext(("p", "q"), (("sqrt_pq", "p*q"),))
    for _ in range(300):
        a = _random_scalar(rng, ctx)
        b = _random_scalar(rng, ctx)
        assert ((a - b).is_zero()) == (format_scalar(a) == format_scalar(b))


def test_root_reduction_confluence():
    rng = random.Random(7)
    ctx = ScalarContext(("q",), (("r", "1-q^2"),))
    factors = [ctx.parse(text) for text in ("r", "q*r", "r - q", "1 + r", "q^-1*r")]
    reference = None
    for _ in range(20):
        order = factors[:]
        rng.shuffle(order)
        product = ctx.one()
        for f in order:
            product = product * f
        if reference is None:
            reference = product
        assert product == reference


def test_division_round_trip_randomized():
    rng = random.Random(4242)
    ctx = ScalarContext(("p", "q"), (("sqrt_pq", "p*q"),))
    done = 0
    while done < 200:
        a = _random_scalar(rng, ctx, max_terms=4)
        b = _random_scalar(rng, ctx, max_terms=3)
        if b.is_zero():
            continue
        assert try_div_exact(a * b, b) == a
        done += 1


def test_json_loaders_name_the_malformed_field(ctx_pq):
    good = scalar_to_json(ctx_pq.parse("1/2*p - sqrt_pq"))
    cases = {
        "abc": "scalar.terms[0].re",
        "1e999999999": "scalar.terms[0].re",  # Fraction would expand it
        " 1": "scalar.terms[0].re",
        "1/0": "scalar.terms[0].re",
    }
    for text, field in cases.items():
        obj = json.loads(json.dumps(good))
        obj["terms"][0]["re"] = text
        with pytest.raises(ParseError, match=re.escape(field)):
            scalar_from_json(ctx_pq, obj)
    # a root's exponent other than 0 or 1 would expand a power of its radicand
    obj = json.loads(json.dumps(good))
    obj["terms"][1]["exps"]["sqrt_pq"] = "99999"
    with pytest.raises(ParseError, match="root's exponent"):
        scalar_from_json(ctx_pq, obj)
    with pytest.raises(ParseError, match="unknown generator"):
        scalar_from_json(ctx_pq, {"terms": [{"re": "1", "exps": {"z": "1"}}]})
    with pytest.raises(ParseError, match="missing field 'terms'"):
        scalar_from_json(ctx_pq, {})


def test_context_json_errors_are_parse_errors():
    for obj in (
        {"generators": ["q", "q"]},
        {"generators": [1]},
        {"generators": ["q"], "roots": [{"name": "s"}]},
        {"generators": ["q"], "roots": [{"name": "s", "radicand": "0"}]},
        {"generators": ["q"], "roots": [{"name": "s", "radicand": "s^2"}]},
        {"generators": ["q"], "roots": [{"name": "s", "radicand": "q +"}]},
    ):
        with pytest.raises(ParseError, match="context"):
            context_from_json(obj)


def test_parser_refuses_oversized_text_at_once():
    ctx = ScalarContext(("p", "q"), (("sqrt_1mq2", "1-q^2"),))
    for text in ("(1+q)^99999", "sqrt_1mq2^99999", "((1+q)^64)^64", "(1+p+q)^60",
                 "2^99999", "(9^999)^999", "9" * 2000, "(" * 200 + "q" + ")" * 200,
                 "-" * 2000 + "q"):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            ctx.parse(text)
        assert time.perf_counter() - start < 1, text[:20]
    # the bounds leave room: a product step under MAX_TERMS term pairs parses
    assert len(ctx.parse("(1+q)^100").terms) == 101
    assert len(ctx.parse("sqrt_1mq2^100").terms) == 51
    assert ctx.parse("(" * 50 + "q" + ")" * 50) == ctx.parse("q")
    with pytest.raises(ParseError):
        ScalarContext(("q",), (("r", "(1+q)^99999"),))


# -- exponent range -------------------------------------------------------------


def test_exponent_text_beyond_the_range_is_a_parse_error(ctx_pq):
    from ybtrace.ring import MAX_EXPONENT

    assert format_scalar(ctx_pq.parse(f"q^{MAX_EXPONENT - 1}")) == f"q^{MAX_EXPONENT - 1}"
    assert format_scalar(ctx_pq.parse(f"q^-{MAX_EXPONENT}")) == f"q^-{MAX_EXPONENT}"
    assert ctx_pq.parse(f"q^({2 * MAX_EXPONENT - 1}/2)") == ctx_pq.gen(
        "q", Fraction(2 * MAX_EXPONENT - 1, 2))
    for text in (f"q^{MAX_EXPONENT}", f"q^(-{MAX_EXPONENT + 1})", "q^1" + "0" * 50,
                 f"q^({2 * MAX_EXPONENT}/2)", f"(p*q^64)^{MAX_EXPONENT // 64}",
                 f"q^{MAX_EXPONENT - 1}*q", f"p^-{MAX_EXPONENT}/2*p^-1", "1^99999"):
        with pytest.raises(ParseError):
            ctx_pq.parse(text)


def test_exponent_json_beyond_the_range_is_a_parse_error(ctx_pq):
    from ybtrace.ring import MAX_EXPONENT

    good = {"terms": [{"re": "1", "exps": {"q": str(-MAX_EXPONENT)}}]}
    assert scalar_from_json(ctx_pq, good) == ctx_pq.gen("q", -MAX_EXPONENT)
    for etext in (str(MAX_EXPONENT), f"{2 * MAX_EXPONENT + 1}/2", "1" + "0" * 50):
        obj = {"terms": [{"re": "1", "exps": {"p": "1", "q": etext}}]}
        with pytest.raises(ParseError, match=re.escape("scalar.terms[0].exps.q")):
            scalar_from_json(ctx_pq, obj)


def test_products_past_the_exponent_range_raise_instead_of_wrapping(ctx_pq):
    from ybtrace.errors import ExponentOverflow, YbtraceError
    from ybtrace.ring import MAX_EXPONENT

    assert issubclass(ExponentOverflow, YbtraceError)
    x, squarings = ctx_pq.parse("-2*q*sqrt_pq"), 0
    while True:
        try:
            y = x * x
        except ExponentOverflow:
            break
        x, squarings = y, squarings + 1
    # (q*sqrt_pq)^(2^k) = p^(2^(k-1)) q^(3*2^(k-1)) stays in range up to k = 11
    assert squarings == 11
    assert x == pow_int(ctx_pq.parse("2*p^(1/2)*q^(3/2)"), 2 ** 11)
    q = ctx_pq.gen("q")
    for fn in (lambda: pow_int(q, MAX_EXPONENT), lambda: pow_int(q, -MAX_EXPONENT - 1),
               lambda: pow_int(ctx_pq.gen("q", -MAX_EXPONENT), -1),
               lambda: ctx_pq.gen("p", MAX_EXPONENT - 1) * ctx_pq.parse("p + q"),
               lambda: ctx_pq.gen("p", -MAX_EXPONENT) * ctx_pq.parse("q - p^(-1/2)"),
               lambda: try_div_exact(ctx_pq.gen("q", MAX_EXPONENT - 1), q ** -1),
               lambda: ctx_pq.gen("q", MAX_EXPONENT)):
        with pytest.raises(ExponentOverflow):
            fn()
    edge = ctx_pq.gen("p", MAX_EXPONENT - 1) * ctx_pq.gen("q", -MAX_EXPONENT)
    assert format_scalar(edge) == f"p^{MAX_EXPONENT - 1}*q^-{MAX_EXPONENT}"
