"""Tables 2-4 and ``alexander_nabla`` compute on operators specialized once
to their collapsed rings (``eyb.specialize``).

The route they replaced stays here as the oracle: compute in the operator's
own ring, normalize there, then ``ring.substitute`` the value.
"""

import random

import pytest

from test_invariant import _random_words

from ybtrace import catalog, dressing, eyb, invariant, ring, tables, tensor
from ybtrace.braid import NAMED_LINKS, get_named_braid
from ybtrace.dressing import preset_dressings
from ybtrace.errors import NotDivisible, YbtraceError
from ybtrace.eyb import get_table1_eyb, specialize
from ybtrace.invariant import alexander_nabla, classification_report, compute_ts, open_trace
from ybtrace.ring import ScalarContext, substitute
from ybtrace.tables import run_table

MODULES = (ring, tensor, catalog, eyb, invariant, dressing, tables)

# collapse name -> the operator the tables compute with before the collapse
OPERATORS = {
    "jones": lambda: get_table1_eyb("R2.1", 1),
    "d3": lambda: preset_dressings("d3_R21").eyb,
    "d4": lambda: preset_dressings("d4_R22").eyb,
}


def _outcome(fn, *args):
    """The value fn returns, or the class of the library error it raises."""
    try:
        return fn(*args)
    except (YbtraceError, ZeroDivisionError) as exc:
        return type(exc)


def _words(seed, count):
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    return words + _random_words(random.Random(seed), count, 4, 8)


@pytest.mark.parametrize("collapse", sorted(OPERATORS))
def test_the_collapsed_operator_gives_the_collapsed_values(collapse):
    """Raw and normalized, on the named links and seeded words of up to four
    strands: the value on the operator's image is the substituted value, and
    a word that raises on one route raises the same error on the other."""
    op = OPERATORS[collapse]()
    target, image, _ = tables._target(collapse)
    bindings = {k: target.parse(v) for k, v in tables._COLLAPSES[collapse][1].items()}
    assert image.ctx is target and not target.root_names
    assert image == specialize(op, bindings, target)
    values = errors = 0
    for b in _words(21, 20):
        for normalized in (False, True):
            want = _outcome(lambda: substitute(
                compute_ts(op, b, normalized=normalized).value, bindings, target))
            got = _outcome(lambda: compute_ts(image, b, normalized=normalized).value)
            assert got == want, (collapse, b, normalized)
            values += not isinstance(want, type)
            errors += isinstance(want, type)
    assert values > 0
    # only the three-dimensional dressing has links its unknot value does not divide
    assert (errors > 0) == (collapse == "d3")


def test_alexander_nabla_is_the_substituted_open_trace():
    """On the named links and 40 seeded words of up to four strands."""
    op = get_table1_eyb("R1.2", 1)
    ctx = ScalarContext(("t",))
    bindings = {"q": ctx.parse("t^-2")}
    image = specialize(op, bindings, ctx)
    assert image.mu == tensor.SquareMatrix.from_rows(ctx, [["t", "0"], ["0", "-t"]])
    assert image.alpha == ctx.parse("t^-1") and image.beta == ctx.one()
    for b in _words(40, 40):
        want = _outcome(lambda: substitute(open_trace(op, b), bindings, ctx))
        assert _outcome(alexander_nabla, b) == want, b


def test_warm_tables_and_nabla_substitute_nothing_and_divide_in_their_targets(monkeypatch):
    """A warm ``run_table(k)`` for k = 2, 3, 4 and a warm ``alexander_nabla``
    call no substitution in any binding, and every divisor lies in a target
    ring, which adjoins no root."""
    words = [get_named_braid(name).braid for name in NAMED_LINKS]
    for k in (2, 3, 4):
        assert run_table(k).ok
    nabla = [alexander_nabla(b) for b in words]
    targets = {id(tables._target(c)[0]) for c in OPERATORS}
    targets.add(id(nabla[0].ctx))
    calls, divisors = [], []
    for module in MODULES:
        for name in ("substitute", "matrix_substitute", "try_div_exact"):
            if hasattr(module, name):
                original = getattr(module, name)

                def spy(*args, where=(module.__name__, name), original=original):
                    calls.append(where)
                    if where[1] == "try_div_exact":
                        divisors.append(args[1])
                    return original(*args)

                monkeypatch.setattr(module, name, spy)
    assert all(hasattr(m, "substitute") for m in (ring, tensor, eyb))
    assert all(hasattr(m, "try_div_exact") for m in (ring, tensor, invariant))
    for k in (2, 3, 4):
        assert run_table(k).ok
    assert [alexander_nabla(b) for b in words] == nabla
    assert divisors
    assert {name for _, name in calls} == {"try_div_exact"}
    for den in divisors:
        assert id(den.ctx) in targets and not den.ctx.root_names, den


def test_a_warm_tables_pass_never_divides_by_the_jones_unknot_value(monkeypatch):
    """The classification's jones and knots-1 cells compare the raw value
    with the kept unknot value, and tables 2 and 3 normalize on the image."""
    unknot = invariant.unknot_value(get_table1_eyb("R2.1", 1))
    classification_report()
    for k in (2, 3, 4):
        run_table(k)
    divisors = []
    original = invariant.try_div_exact
    monkeypatch.setattr(invariant, "try_div_exact",
                        lambda num, den: divisors.append(den) or original(num, den))
    classification_report()
    for k in (2, 3, 4):
        run_table(k)
    assert divisors and unknot not in divisors


def test_the_unknot_tags_decide_by_comparison():
    """raw == unknot is the verdict the division gave whenever the unknot
    value divides; a raw value it does not divide now gets a verdict too, and
    a zero unknot value raises as the division did."""
    op = get_table1_eyb("R2.1", 1)
    unknot = invariant.unknot_value(op)
    ctx = op.ctx
    for raw in (unknot, unknot * ctx.parse("p"), ctx.zero(), ctx.parse("1 + p")):
        try:
            want = ring.try_div_exact(raw, unknot) == ctx.one()
        except NotDivisible:
            want = False
        assert invariant._is_unknot_value(raw, op) == want
    zero = eyb.EnhancedOperator(op.r, tensor.scalar_scale(op.mu, ctx.zero()), op.alpha, op.beta)
    with pytest.raises(ZeroDivisionError):
        invariant._is_unknot_value(unknot, zero)
