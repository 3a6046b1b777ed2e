"""Scalar text and JSON against the forms the packed ring printed before
their fast paths (``oracles.format_scalar_by_exps`` and
``oracles.scalar_to_json_by_exps``), byte for byte: on seeded scalars
with roots, ``i``, half exponents, Fraction coefficients, zero and
integer constants, and on every scalar that the golden commands and demos
print."""

import random
import runpy
import sys
from fractions import Fraction

import oracles
from test_golden_output import COMMANDS, DEMOS

from ybtrace import ring
from ybtrace.cli import main
from ybtrace.ring import Scalar, ScalarContext, format_scalar, scalar_to_json

CONTEXTS = (
    ScalarContext(()),
    ScalarContext(("t",)),
    ScalarContext(("p", "q", "s")),
    # r*r = 1 - q^2 and s*s = q + i*r/2; u and w square to units
    ScalarContext(("p", "q"), (("r", "1-q^2"), ("s", "q + i*r/2"))),
    ScalarContext(("t",), (("u", "t"), ("w", "-2*t^-1*u"))),
)


def _coefficient(rng):
    """An int, a Fraction or an (re, im) pair of them."""
    part = lambda: rng.choice((0, 1, -1, rng.randint(-40, 40),
                               Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice((1, -1, 2, -3, rng.randint(-10 ** 6, 10 ** 6)))
    if kind == 1:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 30))
    return part(), part()


def _random_scalar(rng, ctx):
    """A seeded scalar: a few terms with doubled generator exponents in
    [-7, 7] (odd ones are half exponents) and root exponents 0 or 1, or,
    one time in four, a constant."""
    ngens, nroots = len(ctx.generators), len(ctx.root_names)
    if not ngens or rng.random() < 0.25:
        return Scalar(ctx, {(0,) * (ngens + nroots): _coefficient(rng)})
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exps = tuple(rng.randint(-7, 7) for _ in range(ngens))
        exps += tuple(rng.choice((0, 2)) for _ in range(nroots))
        terms[exps] = _coefficient(rng)
    return Scalar(ctx, terms)


def test_text_and_json_match_the_exponent_tuple_forms_on_seeded_scalars():
    rng = random.Random(20261019)
    seen = set()
    for ctx in CONTEXTS:
        for _ in range(500):
            x = _random_scalar(rng, ctx)
            text = format_scalar(x)
            assert text == oracles.format_scalar_by_exps(x), text
            assert scalar_to_json(x) == oracles.scalar_to_json_by_exps(x), text
            if text.lstrip("-").isdigit():
                seen.add(("integer", int(text) // abs(int(text) or 1)))
            seen.update(mark for mark in ("i", "^(", "/", "*") if mark in text)
    # zero, both signs of integer constants, i, half exponents, Fractions, monomials
    assert seen == {("integer", 0), ("integer", 1), ("integer", -1), "i", "^(", "/", "*"}


def test_integer_constants_print_as_ints():
    for ctx in CONTEXTS:
        for n in (0, 1, -1, 2, -7, 10 ** 30, -(10 ** 30)):
            assert format_scalar(ctx.scalar(n)) == str(n)
            assert format_scalar(ctx.scalar(n)) == oracles.format_scalar_by_exps(ctx.scalar(n))
        assert format_scalar(ctx.scalar(Fraction(1, 2))) == "1/2"
        assert format_scalar(ctx.i()) == "i"


def _compared(monkeypatch, calls):
    """Replace format_scalar and scalar_to_json in every ybtrace namespace with
    wrappers that compare each result with the oracle's, counting calls and
    collecting mismatches; the library's own result is returned."""
    pairs = ((format_scalar, oracles.format_scalar_by_exps),
             (scalar_to_json, oracles.scalar_to_json_by_exps))
    for original, oracle in pairs:
        def compared(x, original=original, oracle=oracle):
            got = original(x)
            calls[original.__name__] = calls.get(original.__name__, 0) + 1
            if got != oracle(x):
                calls.setdefault("mismatches", []).append((got, oracle(x)))
            return got
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] == "ybtrace":
                for name, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, name, compared)


def test_every_golden_command_and_demo_prints_what_the_exponent_tuple_forms_print(
        monkeypatch, capsys):
    calls = {}
    _compared(monkeypatch, calls)
    assert ring.format_scalar is not format_scalar
    for _, argv in COMMANDS:
        main(argv)
    for demo in DEMOS:
        runpy.run_path(str(demo), run_name="__main__")
    capsys.readouterr()
    assert calls.get("mismatches", []) == []
    assert calls["format_scalar"] > 900 and calls["scalar_to_json"] > 150
