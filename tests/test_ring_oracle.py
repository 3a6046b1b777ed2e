"""The packed scalar ring against the term-dict arithmetic it replaced.

``oracles.terms_*`` compute over {doubled exponent tuple: GaussianRational}
dicts, with the oracle's own Fraction-based GaussianRational: the
representation ``Scalar`` had before its terms became packed int keys over
one shared denominator.  ``oracles.terms_of`` and ``oracles.pairs`` convert
between the two.  Random scalars cover two adjoined roots
(the second radicand uses the first), ``i``, half-integer and negative
exponents and coefficients with denominators.
"""

import random
import re
from fractions import Fraction

import pytest

import oracles
from oracles import GaussianRational, pairs, terms_of

from ybtrace import ring
from ybtrace.errors import ContextMismatch, NotAUnit, UnknownName, YbtraceError
from ybtrace.ring import (
    Scalar,
    ScalarContext,
    format_scalar,
    pow_int,
    scalar_to_json,
    substitute,
    try_div_exact,
)

# r*r = 1 - q^2 and s*s = q + i*r/2; u and w square to units, so monomials
# in them have negative powers
CTX_ROOTS = ScalarContext(("p", "q"), (("r", "1-q^2"), ("s", "q + i*r/2")))
CTX_UNITS = ScalarContext(("t",), (("u", "t"), ("w", "-2*t^-1*u")))
# radicands that use an earlier root that is not the first, and two that
# use the same one
CTX_NESTED = ScalarContext(("q",), (("t", "q"), ("r", "1+q"), ("s", "r")))
CTX_SHARED = ScalarContext(("q",), (("r", "1+q"), ("s", "r"), ("u", "r")))


def _random_terms(rng, ctx, max_terms=5):
    """A canonical term dict, built by the oracle from random raw terms."""
    ngens = len(ctx.generators)
    raw = []
    for _ in range(rng.randint(0, max_terms)):
        re = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 6)))
        im = Fraction(rng.randint(-3, 3), rng.choice((1, 2))) if rng.random() < 0.3 else 0
        exps = [rng.randint(-5, 5) for _ in range(ngens)]
        exps += [rng.choice((0, 0, 2, 4)) for _ in ctx.root_names]
        raw.append((tuple(exps), GaussianRational(re, im)))
    return oracles.terms_canonical(ctx, raw)


def _random_monomial(rng, ctx):
    ngens = len(ctx.generators)
    exps = [rng.randint(-3, 3) for _ in range(ngens)]
    exps += [rng.choice((0, 2)) for _ in ctx.root_names]
    coeff = GaussianRational(Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))),
                             rng.choice((0, 0, 1)))
    return oracles.terms_canonical(ctx, [(tuple(exps), coeff)])


def _outcome(fn, *args):
    """The value fn returns, or the class of the library error it raises."""
    try:
        return fn(*args)
    except (YbtraceError, ZeroDivisionError) as exc:
        return type(exc)


@pytest.mark.parametrize("ctx", [CTX_ROOTS, CTX_UNITS, CTX_NESTED, CTX_SHARED],
                         ids=["roots", "units", "nested", "shared"])
def test_arithmetic_matches_term_dict_oracle(ctx):
    rng = random.Random(20261018)
    for _ in range(400):
        ta, tb = _random_terms(rng, ctx), _random_terms(rng, ctx)
        a, b = Scalar(ctx, pairs(ta)), Scalar(ctx, pairs(tb))
        assert terms_of(a) == ta and a.term_count() == len(ta)
        assert terms_of(a + b) == oracles.terms_add(ta, tb)
        assert terms_of(a - b) == oracles.terms_sub(ta, tb)
        assert terms_of(-a) == oracles.terms_neg(ta)
        assert terms_of(a * b) == oracles.terms_mul(ctx, ta, tb)
        assert terms_of(a * 3) == oracles.terms_mul(ctx, ta, terms_of(ctx.scalar(3)))
        k = rng.randint(0, 3)
        assert terms_of(pow_int(a, k)) == oracles.terms_pow_int(ctx, ta, k)
        assert (a == b) == (ta == tb)


def test_a_root_square_reduced_into_an_earlier_root_settles_that_root():
    """Reducing s^2 = r adds to r's field, which may already hold r^2: the
    field that reached 4 is the one reduced, and no field carries into the
    next.  (r s)^2 = (1 + q) r, and (r s u)^2 = (1 + q)^2."""
    r_s = CTX_NESTED.parse("r*s")
    for square in (r_s * r_s, pow_int(r_s, 2), ring.dot(CTX_NESTED, [(r_s, r_s)])):
        assert square == CTX_NESTED.parse("r + q*r")
    r_s_u = CTX_SHARED.parse("r*s*u")
    assert r_s_u * r_s_u == CTX_SHARED.parse("1 + 2*q + q^2")


@pytest.mark.parametrize("ctx", [CTX_ROOTS, CTX_UNITS], ids=["roots", "units"])
def test_view_and_input_forms_match_term_dict_oracle(ctx):
    """``x.terms`` gives (re, im) pairs, each part an int exactly when
    integral, that rebuild x; ``monomial`` takes an int, a Fraction or a
    pair; text and JSON agree with the oracle's."""
    rng = random.Random(20261020)
    for _ in range(400):
        ta = _random_terms(rng, ctx)
        x = Scalar(ctx, pairs(ta))
        view = x.terms
        assert Scalar(ctx, view) == x
        for exps, (re, im) in view.items():
            for part in (re, im):
                assert type(part) is (int if Fraction(part).denominator == 1 else Fraction)
            coeff = (re, im) if im else re
            powers = {name: Fraction(d, 2) for name, d in zip(ctx.names, exps)}
            want = oracles.terms_canonical(ctx, [(exps, GaussianRational(re, im))])
            assert terms_of(ctx.monomial(coeff, powers)) == want
        assert format_scalar(x) == oracles.terms_format(ctx, ta)
        assert scalar_to_json(x) == oracles.terms_to_json(ctx, ta)


def _random_raw(rng, ctx):
    """Raw {doubled exponent tuple: GaussianRational} terms: root exponents
    negative, 2 or more, or fractional, and some zero coefficients."""
    ngens = len(ctx.generators)
    raw = {}
    for _ in range(rng.randint(1, 4)):
        exps = [rng.randint(-4, 4) for _ in range(ngens)]
        exps += [rng.choice((0, 0, 2, 2, 4, 6, 8) if rng.random() < 0.85 else (-6, -4, -2, 1, -3))
                 for _ in ctx.root_names]
        raw[tuple(exps)] = GaussianRational(Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
                                            rng.choice((0, 0, 1)))
    return raw


@pytest.mark.parametrize("ctx", [CTX_ROOTS, CTX_UNITS], ids=["roots", "units"])
def test_construction_matches_term_dict_oracle(ctx):
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(400):
        raw = _random_raw(rng, ctx)
        want = _outcome(oracles.terms_canonical, ctx, list(raw.items()))
        assert _outcome(lambda: terms_of(Scalar(ctx, pairs(raw)))) == want, raw
        exps, coeff = rng.choice(list(raw.items()))
        powers = {name: Fraction(d, 2) for name, d in zip(ctx.names, exps)}
        got = _outcome(lambda: terms_of(ctx.monomial((coeff.re, coeff.im), powers)))
        assert got == _outcome(oracles.terms_canonical, ctx, [(exps, coeff)]), (exps, coeff)
        outcomes.add(want if isinstance(want, type) else bool(want))
    assert outcomes == {True, False, NotAUnit}


@pytest.mark.parametrize("ctx", [CTX_ROOTS, CTX_UNITS], ids=["roots", "units"])
def test_negative_powers_match_term_dict_oracle(ctx):
    rng = random.Random(7)
    for _ in range(200):
        tm = _random_monomial(rng, ctx)
        k = rng.randint(-4, -1)
        got = _outcome(lambda: terms_of(pow_int(Scalar(ctx, pairs(tm)), k)))
        assert got == _outcome(oracles.terms_pow_int, ctx, tm, k)


@pytest.mark.parametrize("ctx", [CTX_ROOTS, CTX_UNITS], ids=["roots", "units"])
def test_exact_division_matches_term_dict_oracle(ctx, monkeypatch):
    rng = random.Random(4242)
    quotients = 0
    for _ in range(150):
        ta, tb = _random_terms(rng, ctx, 4), _random_terms(rng, ctx, 3)
        if rng.random() < 0.5:
            ta = oracles.terms_mul(ctx, ta, tb)
        a, b = Scalar(ctx, pairs(ta)), Scalar(ctx, pairs(tb))
        got = _outcome(lambda: terms_of(try_div_exact(a, b)))
        assert got == _outcome(oracles.terms_try_div_exact, ctx, ta, tb)
        quotients += isinstance(got, dict)
    assert quotients > 50
    # monomial divisors: a unit (i and halves in the coefficient, roots of
    # the unit radicands of CTX_UNITS) is one multiplication by its inverse,
    # and a root of a radicand that is not a unit takes the long division
    long_divisions = []
    laurent_div = ring._laurent_div
    monkeypatch.setattr(ring, "_laurent_div",
                        lambda *args: long_divisions.append(args) or laurent_div(*args))
    rng = random.Random(4343)
    units, seen, general = 0, set(), 0
    for _ in range(150):
        ta, tb = _random_terms(rng, ctx, 4), _random_monomial(rng, ctx)
        if rng.random() < 0.5:
            ta = oracles.terms_mul(ctx, ta, tb)
        a, b = Scalar(ctx, pairs(ta)), Scalar(ctx, pairs(tb))
        long_divisions.clear()
        got = _outcome(lambda: terms_of(try_div_exact(a, b)))
        assert got == _outcome(oracles.terms_try_div_exact, ctx, ta, tb)
        if a.is_zero():
            continue
        (exps, coeff), = tb.items()
        if b.is_unit():
            units += 1
            assert not long_divisions and isinstance(got, dict)
            seen.update(feature for feature, present in (
                ("i", coeff.im), ("half", Fraction(coeff.re).denominator == 2),
                ("root", any(exps[len(ctx.generators):]))) if present)
        else:
            general += 1
            assert long_divisions and any(exps[len(ctx.generators):])
    if ctx is CTX_UNITS:
        assert units >= 100 and seen == {"i", "half", "root"}
    else:
        assert units >= 20 and seen == {"i", "half"} and general >= 60


def test_substitute_matches_term_dict_oracle():
    rng = random.Random(99)
    ctx = CTX_ROOTS
    images = ["4*p^2*q^-2", "-p^-1", "2*q", "1 + p", "i*p^(1/2)", "q^-1"]
    for _ in range(200):
        ta = _random_terms(rng, ctx, 4)
        bindings = {name: ctx.parse(rng.choice(images))
                    for name in rng.sample(ctx.generators, rng.randint(0, 2))}
        got = _outcome(lambda: terms_of(substitute(Scalar(ctx, pairs(ta)), bindings, ctx)))
        assert got == _outcome(oracles.terms_substitute, ctx, ta, bindings, ctx)


# (source ring, target ring, images a bound generator is drawn from): p is
# always bound, q half the time.  Roots map to the target's declared roots or
# to exact monomial roots; images have half exponents and i, and some are
# not units, carry a root or have no square root
SUBSTITUTIONS = (
    (CTX_ROOTS,
     ScalarContext(("t", "q"), (("rr", "1-q^2"), ("ss", "q + i*rr/2"))),
     {"p": ["t^(1/2)", "-i*t^-1", "2*t*q^-1", "t^(1/2)*q^(-3/2)/3", "1 + t", "rr*t"],
      "q": ["-q", "q^-1"]}),
    (ScalarContext(("p", "q"), (("sqrt_pq", "p*q"),)),
     ScalarContext(("t", "q")),
     {"p": ["t*q^-1", "4*t^3*q^-1", "-t*q^-1", "i*t*q^-1", "t^(1/2)*q^-1", "1 + t"]}),
)


def test_substitute_into_another_ring_matches_term_dict_oracle():
    """One accumulator over one denominator and one power per generator and
    exponent give the oracle's image term by term, or its error."""
    rng = random.Random(20261019)
    outcomes = set()
    for ctx, target, choices in SUBSTITUTIONS:
        for _ in range(300):
            ta = _random_terms(rng, ctx, 6)
            bindings = {name: target.parse(rng.choice(images))
                        for name, images in choices.items()
                        if name == "p" or rng.random() < 0.5}
            want = _outcome(oracles.terms_substitute, ctx, ta, bindings, target)
            got = _outcome(lambda: terms_of(substitute(Scalar(ctx, pairs(ta)), bindings,
                                                       target)))
            assert got == want, (ta, bindings)
            outcomes.add(want if isinstance(want, type) else "value")
    assert outcomes == {"value", NotAUnit}


def test_substitute_keeps_its_messages():
    ctx = ScalarContext(("p", "q"), (("sqrt_pq", "p*q"),))
    target = ScalarContext(("t",))
    x = ctx.parse("p + sqrt_pq")
    t = target.gen("t")
    for bindings, error, message in (
            ({"z": t}, UnknownName, "unknown generator 'z'"),
            ({"sqrt_pq": t}, UnknownName, "cannot bind root 'sqrt_pq'"),
            ({"p": ctx.parse("p")}, ContextMismatch, "outside the target context"),
            ({"p": t}, ContextMismatch, "generator 'q' missing from target context"),
            ({"p": target.parse("t^-1"), "q": target.parse("1 + t")}, NotAUnit,
             "no representation for the square root of t^-1 + 1")):
        with pytest.raises(error, match=re.escape(message)):
            substitute(x, bindings, target)
