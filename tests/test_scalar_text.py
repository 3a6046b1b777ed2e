"""Scalar text and JSON against the forms the packed ring printed and read
before their fast paths (``oracles.format_scalar_by_exps``,
``oracles.scalar_to_json_by_exps`` and ``oracles.scalar_from_json_by_exps``).

The writers match byte for byte on seeded scalars with roots, ``i``, half
exponents, Fraction coefficients, zero and integer constants, and on every
scalar that the golden commands and demos print.  The reader matches on
seeded documents over every context the library builds, faulty ones
included: the same numerators and denominator, or the same error.  And an
operator's JSON is a fixpoint of the round trip.
"""

import json
import random
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import oracles
from test_golden_output import COMMANDS, DEMOS

from ybtrace import ring, tables
from ybtrace.cli import main
from ybtrace.dressing import preset_dressings, preset_names
from ybtrace.errors import YbtraceError
from ybtrace.eyb import EnhancedOperator, eyb_from_json, eyb_to_json, table1_entries
from ybtrace.ring import (
    MAX_EXPONENT, Scalar, ScalarContext, format_scalar, scalar_from_json, scalar_to_json,
)

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


# -- the reader ----------------------------------------------------------------


def _reader_contexts():
    """Every catalog row's context, the presets', the collapsed table rings'
    and CONTEXTS[3], whose radicand holds i."""
    found = [e.build(sign).ctx for e in table1_entries() for sign in "+-"]
    found += [preset_dressings(name).ctx for name in preset_names()]
    found += [tables._target(collapse)[0] for collapse in tables._COLLAPSES]
    found.append(CONTEXTS[3])
    return list(dict.fromkeys(found))


# doubled exponents at both ends of the range: -MAX_EXPONENT and MAX_EXPONENT - 1/2
EDGES = (-2 * MAX_EXPONENT, 2 * MAX_EXPONENT - 1)

# (what, where, bad value): the value replaces a term's "re", "im" or "exps", the
# whole term, or the exponent of one of its roots, of one of its generators or
# of a name ("z") that no context declares
FAULTS = (
    ("root exponent 2", "root", "2"),
    ("root exponent 1/2", "root", "1/2"),
    ("root exponent -1", "root", "-1"),
    ("exponent MAX_EXPONENT", "gen", str(MAX_EXPONENT)),
    ("exponent below -MAX_EXPONENT", "gen", f"{-2 * MAX_EXPONENT - 1}/2"),
    ("third exponent", "gen", "1/3"),
    ("exponent 1/0", "gen", "1/0"),
    ("unknown name", "z", "1"),
    ("numeral 1e9", "re", "1e9"),
    ("numeral 1/0", "re", "1/0"),
    ("numeral with a space", "re", " 1"),
    ("hexadecimal numeral", "im", "0x1"),
    ("numeral past the digit limit", "re", "1" * 5000),
    ("int coefficient", "re", 3),
    ("term not an object", "term", ["1"]),
    ("exps not an object", "exps", ["q"]),
)


def _coefficient_text(rng):
    """A numeral the reader takes: as the writer emits it, or not in lowest terms."""
    return rng.choice(("0", "1", "-1", "-0", str(rng.randint(-40, 40)),
                       f"{rng.randint(-9, 9)}/{rng.randint(1, 12)}",
                       str(rng.randint(-10 ** 30, 10 ** 30))))


def _exponent_text(rng, d):
    """A numeral for the doubled exponent d, as the writer emits it or scaled."""
    if rng.random() < 0.2:
        m = rng.randint(1, 3)
        return f"{d * m}/{2 * m}"
    return f"{d}/2" if d % 2 else str(d // 2)


def _document(rng, ctx, faults):
    """A seeded scalar document over ctx: up to five terms, some repeating a
    monomial, with omitted, zero, Fraction and imaginary coefficients, half
    exponents, root exponents 0 and 1 and exponents at both ends of the
    range.  Each of the ``faults`` goes into one term; with two, a term may
    hold both."""
    ngens = len(ctx.generators)
    terms = []
    for _ in range(rng.randint(0, 5)):
        entry = {part: _coefficient_text(rng) for part in ("re", "im") if rng.random() < 0.8}
        if terms and rng.random() < 0.3:
            exps = dict(rng.choice(terms)["exps"])
        else:
            exps = {}
            for pos, name in enumerate(ctx.names):
                if rng.random() < 0.5:
                    continue
                if pos >= ngens:
                    exps[name] = rng.choice(("0", "1", "2/2"))
                else:
                    d = rng.choice(EDGES) if rng.random() < 0.1 else rng.randint(-7, 7)
                    exps[name] = _exponent_text(rng, d)
        entry["exps"] = exps
        terms.append(entry)
    for _, where, value in faults:
        if not terms:
            terms.append({"re": "1", "exps": {}})
        k = rng.randrange(len(terms))
        term = terms[k]
        if where == "term":
            terms[k] = value
        elif not isinstance(term, dict):
            continue  # the other fault replaced the term
        elif where in ("re", "im", "exps"):
            term[where] = value
        elif isinstance(term["exps"], dict):
            names = {"root": ctx.root_names, "gen": ctx.generators}.get(where, (where,))
            if names:
                term["exps"][rng.choice(names)] = value
    return {"terms": terms}


def _read(read, ctx, doc):
    """(numerators, denominator) of the read scalar, or (error class, message)."""
    try:
        x = read(ctx, doc)
    except YbtraceError as exc:
        return type(exc), str(exc)
    return x._nums, x._den


def test_the_reader_matches_the_exponent_tuple_reader_on_seeded_documents():
    rng = random.Random(20261020)
    contexts = _reader_contexts()
    assert len(contexts) >= 10 and any(ctx.root_names for ctx in contexts)
    seen, messages = set(), []
    for ctx in contexts:
        for _ in range(300):
            faults = rng.sample(FAULTS, rng.choice((0, 0, 1, 2)))
            doc = json.loads(json.dumps(_document(rng, ctx, faults)))
            got = _read(scalar_from_json, ctx, doc)
            assert got == _read(oracles.scalar_from_json_by_exps, ctx, doc), doc
            if isinstance(got[1], str):
                messages.append(got[1])
            else:
                text = json.dumps(doc)
                seen.update(edge for edge in ("-4096", "8191/2") if f'"{edge}"' in text)
    seen.update(part for part in ("root's exponent", "an exponent outside", "not a half-integer",
                                  "unknown generator", "expected a numeral", "Fraction(1, 0)",
                                  "Exceeds the limit", "expected an object")
                if any(part in message for message in messages))
    assert len(seen) == 10 and len(messages) > 1000, seen


def _round_trip_operators():
    """The verify workload's candidates at seeds 1 and 2, the rows at both
    signs and the presets."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    work = workloads.WORKLOADS["verify"]
    held = work["setup"]()
    ops = []
    for seed in (1, 2):
        candidates = work["inputs"](held, seed)
        assert len(candidates) == 184
        ops += [EnhancedOperator(*parts) for _, parts in candidates]
    ops += [e.build(sign) for e in table1_entries() for sign in "+-"]
    return ops + [preset_dressings(name).eyb for name in preset_names()]


def test_operator_json_is_a_fixpoint_of_the_round_trip():
    ops = _round_trip_operators()
    assert len(ops) == 2 * 184 + 46 + 3
    documents = 0
    for op in ops:
        doc = eyb_to_json(op)
        assert eyb_from_json(op.ctx, json.loads(json.dumps(doc))) == op
        scalars = [doc["alpha"], doc["beta"]] + [
            entry[2] for part in ("r", "mu") for entry in doc[part]["entries"]]
        for obj in scalars:
            assert scalar_to_json(scalar_from_json(op.ctx, obj)) == obj
        documents += len(scalars)
    assert documents > 3000
