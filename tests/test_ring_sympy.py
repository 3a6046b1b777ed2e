"""Ring arithmetic, exact division and substitution against sympy.

Scalars over (p, q) with Gaussian-rational coefficients and negative
exponents are mapped to sympy expressions; sums and products must agree
with sympy's ``expand``, quotients with ``cancel`` and substitutions with
``subs``.  Skipped when sympy is absent; the cases come from a seeded
``random.Random``.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from ybtrace.errors import NotDivisible
from ybtrace.ring import ScalarContext, substitute, try_div_exact

P, Q, S, T = sympy.symbols("p q s t")
SYMBOLS = {"p": P, "q": Q, "s": S, "t": T}


def to_sympy(x):
    total = sympy.Integer(0)
    for exps, (re, im) in x.terms.items():
        term = sympy.Rational(re.numerator, re.denominator)
        term += sympy.I * sympy.Rational(im.numerator, im.denominator)
        for name, doubled in zip(x.ctx.names, exps):
            term *= SYMBOLS[name] ** sympy.Rational(doubled, 2)
        total += term
    return total


def same(expr, expected):
    return sympy.expand(expr - expected) == 0


def random_scalar(rng, ctx, max_terms=4, low=-3, high=3):
    total = ctx.zero()
    for _ in range(rng.randint(0, max_terms)):
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.3 else 0
        exps = {name: rng.randint(low, high) for name in ctx.generators}
        total = total + ctx.monomial((re, im), exps)
    return total


@pytest.fixture
def ctx():
    return ScalarContext(("p", "q"))


def test_sum_and_product_match_sympy(ctx):
    rng = random.Random(41)
    for _ in range(60):
        a, b, c = (random_scalar(rng, ctx) for _ in range(3))
        sa, sb = to_sympy(a), to_sympy(b)
        assert same(to_sympy(a + b), sa + sb)
        assert same(to_sympy(a - b), sa - sb)
        assert same(to_sympy(a * b), sa * sb)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero() and a * ctx.one() == a and a + ctx.zero() == a


def test_exact_division_matches_sympy_cancel(ctx):
    rng = random.Random(42)
    checked = refused = 0
    for _ in range(40):
        a, b = random_scalar(rng, ctx), random_scalar(rng, ctx)
        if b.is_zero():
            continue
        quotient = try_div_exact(a * b, b)
        assert quotient == a
        assert same(to_sympy(quotient), sympy.cancel(to_sympy(a * b) / to_sympy(b)))
        # a / b is a Laurent polynomial exactly when cancel leaves a monomial
        # denominator; otherwise the library refuses it
        num, den = sympy.fraction(sympy.cancel(to_sympy(a) / to_sympy(b)))
        if sympy.Poly(den, P, Q).is_monomial:
            assert same(to_sympy(try_div_exact(a, b)), num / den)
            checked += 1
        else:
            with pytest.raises(NotDivisible):
                try_div_exact(a, b)
            refused += 1
    assert checked and refused


def test_substitute_matches_sympy_subs(ctx):
    rng = random.Random(43)
    target = ScalarContext(("s", "t"))
    for _ in range(40):
        x = random_scalar(rng, ctx)
        # monomials may carry negative powers
        images = {name: random_scalar(rng, target, max_terms=1) for name in ("p", "q")}
        if any(image.is_zero() for image in images.values()):
            continue
        want = to_sympy(x).subs({P: to_sympy(images["p"]), Q: to_sympy(images["q"])},
                                simultaneous=True)
        assert same(to_sympy(substitute(x, images, target)), want)
    for _ in range(20):
        # any polynomial image for a polynomial
        x = random_scalar(rng, ctx, low=0)
        images = {name: random_scalar(rng, target, max_terms=3) for name in ("p", "q")}
        want = to_sympy(x).subs({P: to_sympy(images["p"]), Q: to_sympy(images["q"])},
                                simultaneous=True)
        assert same(to_sympy(substitute(x, images, target)), want)
