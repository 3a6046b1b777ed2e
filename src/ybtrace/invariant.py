"""The weighted braid-trace invariant and its consequences.

For an enhanced operator S and a braid word, the raw invariant is
alpha^(-writhe) beta^(-strands) Tr(rep(word) mu^(x strands)); dividing by
the one-strand value Tr(mu)/beta gives the unknot-normalized form.  The
representation is assembled by sparse multiplication of embedded crossing
operators, never as a full Kronecker chain.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

from .braid import BraidWord, get_named_braid, NAMED_LINKS
from .errors import (
    NotDivisible,
    ProportionalityFailure,
    StrandBoundViolation,
    UnknownName,
)
from .eyb import EnhancedOperator, table1_entries
from .ring import Scalar, ScalarContext, format_scalar, pow_int, try_div_exact
from .tensor import (
    MAX_STATES,
    SquareMatrix,
    embed_generator,
    invert,
    matadd,
    matmul,
    matrix_substitute,
    scalar_scale,
    trace,
    weighted_trace,
)
from .catalog import get_rmatrix


def braid_representation(r, b, base=None):
    """Image of a braid word under the crossing operator r, sparsely."""
    if base is None:
        base = math.isqrt(r.side)
    n = b.strands
    # n >= bit_length keeps base ** n from being computed for a huge n
    if base > 1 and (n >= MAX_STATES.bit_length() or base ** n > MAX_STATES):
        raise StrandBoundViolation(
            f"{n} strands of dimension {base} need {base}^{n} states, "
            f"above the cap of {MAX_STATES}"
        )
    total = base ** n
    if not b.letters:
        return SquareMatrix.identity(r.ctx, total)
    rinv = invert(r) if any(k < 0 for k in b.letters) else None
    embeds = {}
    result = None
    for letter in b.letters:
        key = letter
        if key not in embeds:
            gen = r if letter > 0 else rinv
            embeds[key] = embed_generator(gen, abs(letter), n, base)
        result = embeds[key] if result is None else matmul(result, embeds[key])
    return result


@dataclass(frozen=True)
class InvariantResult:
    value: Scalar
    normalized: bool
    unknot_value: Scalar
    eyb: EnhancedOperator
    braid: BraidWord

    def __str__(self):
        return format_scalar(self.value)


def unknot_value(op):
    """The one-strand closure value Tr(mu)/beta."""
    return try_div_exact(trace(op.mu), op.beta)


def compute_ts(op, b, normalized=False):
    """The trace invariant of the closure of ``b`` under operator ``op``.

    Division by beta^n is performed exactly, so beta need not be a unit.
    Normalization divides by the unknot value and raises NotDivisible when
    that is impossible (in particular when the unknot value is zero).
    """
    n = b.strands
    rep = braid_representation(op.r, b, op.base_dim)
    raw = weighted_trace(rep, op.mu, range(1, n + 1)).get(0, 0)
    raw = pow_int(op.alpha, -b.writhe) * try_div_exact(raw, pow_int(op.beta, n))
    unknot = unknot_value(op)
    if not normalized:
        return InvariantResult(raw, False, unknot, op, b)
    if unknot.is_zero():
        raise NotDivisible("unknot value is zero; cannot normalize")
    return InvariantResult(try_div_exact(raw, unknot), True, unknot, op, b)


# -- annihilating relations and skein families --------------------------------


@dataclass(frozen=True)
class AnnihilatingCheck:
    ok: bool
    residual: SquareMatrix = None

    def __bool__(self):
        return self.ok


def verify_annihilating(r, relation):
    """Whether sum(k_i R^i) vanishes exactly; powers may be negative."""
    terms = dict(relation)
    ctx = r.ctx
    rinv = invert(r) if any(p < 0 for p in terms) else None
    total = None
    for power, coeff in sorted(terms.items()):
        if isinstance(coeff, (int, str)):
            coeff = ctx.parse(str(coeff))
        if power == 0:
            mat = SquareMatrix.identity(ctx, r.side)
        elif power > 0:
            mat = r
            for _ in range(power - 1):
                mat = matmul(mat, r)
        else:
            mat = rinv
            for _ in range(-power - 1):
                mat = matmul(mat, rinv)
        piece = scalar_scale(mat, coeff)
        total = piece if total is None else matadd(total, piece)
    return AnnihilatingCheck(total.is_zero(), None if total.is_zero() else total)


@dataclass(frozen=True)
class RelationSpec:
    """A named annihilating relation of a (possibly restricted) catalog matrix."""

    name: str
    rmatrix: str
    gens: tuple
    restrictions: tuple
    coefficients: tuple  # (power, text) pairs

    def context(self):
        return ScalarContext(self.gens)

    def matrix(self, ctx=None):
        ctx = ctx or self.context()
        bindings = {name: ctx.parse(text) for name, text in self.restrictions}
        return matrix_substitute(get_rmatrix(self.rmatrix).matrix, bindings, ctx)

    def coeffs(self, ctx):
        return tuple((p, ctx.parse(text)) for p, text in self.coefficients)


ANNIHILATING_RELATIONS = {
    spec.name: spec
    for spec in (
        RelationSpec("R3.1|s=1", "R3.1", ("p", "q"), (("s", "1"),),
                     ((2, "1"), (1, "-1"), (0, "-p*q"), (-1, "p*q"))),
        RelationSpec("R3.1|s=1|cubic", "R3.1", ("p", "q"), (("s", "1"),),
                     ((3, "1"), (1, "-(1+p*q)"), (-1, "p*q"))),
        RelationSpec("R3.1|s=-1", "R3.1", ("p", "q"), (("s", "-1"),),
                     ((2, "1"), (0, "-(1+p*q)"), (-2, "p*q"))),
        RelationSpec("R3.1", "R3.1", ("p", "q", "s"), (),
                     ((2, "1"), (1, "-(1+s)"), (0, "s-p*q"),
                      (-1, "p*q*(1+s)"), (-2, "-s*p*q"))),
        RelationSpec("R2.1", "R2.1", ("p", "q"), (),
                     ((1, "1"), (0, "p*q-1"), (-1, "-p*q"))),
        RelationSpec("R2.2", "R2.2", ("p", "q"), (),
                     ((1, "1"), (0, "p*q-1"), (-1, "-p*q"))),
        RelationSpec("R2.3|p=-1", "R2.3", ("q",), (("p", "-1"),),
                     ((2, "1"), (1, "-1"), (0, "-1"), (-1, "1"))),
        RelationSpec("R1.1", "R1.1", ("q",), (),
                     ((1, "1"), (0, "2*(q^2-1)"), (-1, "-4*q^2"))),
        RelationSpec("R1.2", "R1.2", ("q",), (),
                     ((1, "1"), (0, "q-1"), (-1, "-q"))),
        RelationSpec("R1.3", "R1.3", ("q",), (),
                     ((2, "1"), (0, "-1"))),
        RelationSpec("R1.4", "R1.4", ("q",), (),
                     ((2, "1"), (1, "-1"), (0, "-q^2"), (-1, "q^2"))),
    )
}


def get_relation(name):
    if name not in ANNIHILATING_RELATIONS:
        raise UnknownName(f"no annihilating relation named {name!r}")
    return ANNIHILATING_RELATIONS[name]


@dataclass(frozen=True)
class SkeinFamily:
    """Braids differing by a power of one crossing at a fixed word position."""

    base: BraidWord
    position: int
    terms: tuple  # (power, coefficient Scalar) pairs
    insert_at: int = None

    def member(self, power):
        at = len(self.base.letters) if self.insert_at is None else self.insert_at
        letter = self.position if power > 0 else -self.position
        insert = (letter,) * abs(power)
        letters = self.base.letters[:at] + insert + self.base.letters[at:]
        return BraidWord(self.base.strands, letters)


@dataclass(frozen=True)
class SkeinCheck:
    ok: bool
    residual: Scalar = None

    def __bool__(self):
        return self.ok


def check_skein_family(op, fam):
    """Whether sum(k_i alpha^i T(L_i)) vanishes over the family members."""
    total = op.ctx.zero()
    for power, coeff in fam.terms:
        if isinstance(coeff, (int, str)):
            coeff = op.ctx.parse(str(coeff))
        value = compute_ts(op, fam.member(power)).value
        total = total + coeff * pow_int(op.alpha, power) * value
    return SkeinCheck(total.is_zero(), None if total.is_zero() else total)


# -- the regularized one-strand closure ----------------------------------------

_nabla_cache = {}


def _nabla_operator():
    """Crossing operator for the one-variable polynomial: t times the
    R1.2 solution at q = t^-2, weighted by mu = diag(t, -t)."""
    if "op" not in _nabla_cache:
        ctx = ScalarContext(("t",))
        t = ctx.gen("t")
        base = get_rmatrix("R1.2").matrix
        r = scalar_scale(
            matrix_substitute(base, {"q": ctx.parse("t^-2")}, ctx), t
        )
        mu = SquareMatrix.diagonal(ctx, [t, -t])
        _nabla_cache["op"] = (ctx, r, mu)
    return _nabla_cache["op"]


def alexander_nabla(b):
    """The Alexander invariant of the closure of ``b``, by closing all
    strands but the first with mu-weighted traces.

    The partially closed operator must be proportional to the identity on
    the open strand; its ratio is returned (writhe and strand prefactors
    are trivial here since alpha = beta = 1).
    """
    ctx, r, mu = _nabla_operator()
    n = b.strands
    rep = braid_representation(r, b, 2)
    m = weighted_trace(rep, mu, range(2, n + 1))
    off = [key for key in m.entries if key[0] != key[1]]
    d0 = m.get(0, 0)
    d1 = m.get(1, 1)
    if off or d0 != d1:
        raise ProportionalityFailure(
            "partial closure is not a multiple of the identity"
        )
    return d0


# -- classification -------------------------------------------------------------


def _tag_expectation(tag, op, link, raw, ctx):
    """(expected description, matched or None when not asserted)."""
    two = ctx.scalar(2)
    if tag in ("alexander-zero", "const-0"):
        return "0", raw.is_zero()
    if tag == "const-1":
        return "1", raw == ctx.one()
    if tag == "two-power-l":
        return f"2^{link.components}", raw == pow_int(two, link.components)
    if tag == "knots-1":
        if link.components != 1:
            return "-", None
        normalized = try_div_exact(raw, unknot_value(op))
        return "1 (knots)", normalized == ctx.one()
    if tag == "knots-0":
        if link.components != 1:
            return "-", None
        return "0 (knots)", raw.is_zero()
    if tag == "jones":
        normalized = try_div_exact(raw, unknot_value(op))
        if link.name == "0_1":
            return "1", normalized == ctx.one()
        return "nontrivial", normalized != ctx.one()
    raise UnknownName(f"unknown tag {tag!r}")


def classification_report(entries=None, links=None, sign="+"):
    """Invariant values over the named closures, labeled against each row's tag.

    Returns a list of dicts with keys rmatrix, row, link, value, expected,
    match; match is 'yes', 'no', or 'n/a' where the tag asserts nothing.
    """
    if entries is None:
        entries = table1_entries()
    if links is None:
        links = [get_named_braid(name) for name in NAMED_LINKS]
    rows = []
    for entry in entries:
        op = entry.build(sign)
        ctx = op.ctx
        for link in links:
            raw = compute_ts(op, link.braid).value
            expected, matched = _tag_expectation(entry.tag, op, link, raw, ctx)
            rows.append(
                {
                    "rmatrix": entry.rmatrix,
                    "row": entry.row,
                    "link": link.name,
                    "value": format_scalar(raw),
                    "expected": expected,
                    "match": "n/a" if matched is None else ("yes" if matched else "no"),
                }
            )
    return rows
