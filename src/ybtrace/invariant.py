"""The weighted braid-trace invariant and its consequences.

For an enhanced operator S and a braid word on n strands, the raw invariant
is alpha^(-writhe) beta^(-n) Tr(rep(word) mu^(x n)); dividing by the
one-strand value Tr(mu)/beta gives the unknot-normalized form.

When mu has rank one, piv * mu = u v^T for a pivot entry piv of mu, its
column u and its row v, and the trace is (v^(x n))^T rep u^(x n) / piv^n:
u^(x n) is pushed through the word one crossing at a time
(``tensor.apply_at``), and one exact division by (beta * piv)^n ends it.
Every other mu takes the matrix path: the representation is a sparse
product of embedded crossing operators, contracted with ``weighted_trace``
over the closed slots, divided by beta once per closed slot and multiplied
by alpha^(-writhe).  ``open_trace`` closes strands 2..n the same way and
returns the multiple of the identity left on strand 1.  ``alexander_nabla``
is the open trace of row R1.2/1 at q = t^-2 (sqrt_q -> t^-1).
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
from .eyb import EnhancedOperator, get_table1_eyb, table1_entries
from .ring import Scalar, ScalarContext, format_scalar, pow_int, substitute, try_div_exact
from .tensor import (
    MAX_STATES,
    SquareMatrix,
    Verdict,
    apply_at,
    embed_generator,
    invert,
    matadd,
    matmul,
    scalar_scale,
    trace,
    weighted_trace,
)
from .catalog import restricted_matrix


def _states(base, n):
    """base ** n, or StrandBoundViolation when that exceeds MAX_STATES."""
    # n >= bit_length keeps base ** n from being computed for a huge n
    if base > 1 and (n >= MAX_STATES.bit_length() or base ** n > MAX_STATES):
        raise StrandBoundViolation(
            f"{n} strands of dimension {base} need {base}^{n} states, "
            f"above the cap of {MAX_STATES}"
        )
    return base ** n


def braid_representation(r, b, base=None):
    """Image of a braid word under the crossing operator r, sparsely."""
    if base is None:
        base = math.isqrt(r.side)
    n = b.strands
    total = _states(base, n)
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


def rank_one_factors(mu):
    """(u, v, piv) with piv * mu == u v^T entrywise, or None when the rank of
    mu is not one.

    piv is a unit entry of mu if there is one, else the entry with the fewest
    terms; u is its column and v its row, as sparse vectors.
    """
    if not mu.entries:
        return None
    pr, pc = min(mu.entries, key=lambda k: (not mu.entries[k].is_unit(),
                                            mu.entries[k].term_count()))
    piv = mu.entries[(pr, pc)]
    u = {r: x for (r, c), x in mu.entries.items() if c == pc}
    v = {c: x for (r, c), x in mu.entries.items() if r == pr}
    if len(mu.entries) != len(u) * len(v) or any(
        r not in u or c not in v or piv * x != u[r] * v[c]
        for (r, c), x in mu.entries.items()
    ):
        return None
    return u, v, piv


def _tensor_power(w, n, base, one):
    """The n-fold tensor power of a sparse vector, keyed by state index."""
    out = {0: one}
    for _ in range(n):
        out = {s * base + k: x * y for s, x in out.items() for k, y in w.items()}
    return out


def _pushed_trace(op, b, u, v, piv):
    """alpha^(-w) Tr(rep(b) mu^(x n)) / beta^n for mu = u v^T / piv, by one push."""
    n, base, one = b.strands, op.base_dim, op.ctx.one()
    _states(base, n)
    vec = _tensor_power(u, n, base, one)
    rinv = invert(op.r) if any(k < 0 for k in b.letters) else None
    for letter in reversed(b.letters):
        vec = apply_at(op.r if letter > 0 else rinv, abs(letter), n, vec, base)
    row = _tensor_power(v, n, base, one)
    raw = sum((x * row[s] for s, x in vec.items() if s in row), op.ctx.zero())
    return pow_int(op.alpha, -b.writhe) * try_div_exact(raw, pow_int(op.beta * piv, n))


def _matrix_closure(op, b, slots):
    """alpha^(-writhe) beta^(-len(slots)) times the multiple of the identity
    that ``weighted_trace`` leaves of rep(b) closed over ``slots``.

    Raises ProportionalityFailure when what is left is not such a multiple;
    closing every slot leaves a 1x1 matrix, which always is.
    """
    rep = braid_representation(op.r, b, op.base_dim)
    left = weighted_trace(rep, op.mu, slots)
    value = left.get(0, 0)
    if left != SquareMatrix.diagonal(left.ctx, [value] * left.side):
        raise ProportionalityFailure("partial closure is not a multiple of the identity")
    return pow_int(op.alpha, -b.writhe) * try_div_exact(value, pow_int(op.beta, len(slots)))


def compute_ts(op, b, normalized=False):
    """The trace invariant of the closure of ``b`` under operator ``op``.

    A weight mu of rank one takes the push (module docstring); any other
    takes the representation matrix.  Division by beta^n is performed
    exactly, so beta need not be a unit.  Normalization divides by the
    unknot value and raises NotDivisible when that is impossible (in
    particular when the unknot value is zero).
    """
    n = b.strands
    # a side-1 weight keeps the matrix path, whose weighted_trace refuses it
    factors = rank_one_factors(op.mu) if op.base_dim > 1 else None
    if factors is None:
        raw = _matrix_closure(op, b, range(1, n + 1))
    else:
        raw = _pushed_trace(op, b, *factors)
    unknot = unknot_value(op)
    if not normalized:
        return InvariantResult(raw, False, unknot, op, b)
    if unknot.is_zero():
        raise NotDivisible("unknot value is zero; cannot normalize")
    return InvariantResult(try_div_exact(raw, unknot), True, unknot, op, b)


# -- annihilating relations and skein families --------------------------------


def verify_annihilating(r, relation):
    """Whether sum(k_i R^i) vanishes exactly; powers may be negative.

    Returns a Verdict whose residual is the nonzero sum when it fails.
    """
    terms = dict(relation)
    ctx = r.ctx
    rinv = invert(r) if any(p < 0 for p in terms) else None
    total = SquareMatrix(ctx, r.side, {})
    for power, coeff in sorted(terms.items()):
        if isinstance(coeff, (int, str)):
            coeff = ctx.parse(str(coeff))
        mat = SquareMatrix.identity(ctx, r.side)
        for _ in range(abs(power)):
            mat = matmul(mat, r if power > 0 else rinv)
        total = matadd(total, scalar_scale(mat, coeff))
    return Verdict(True) if total.is_zero() else Verdict(False, residual=total)


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
        return restricted_matrix(self.rmatrix, self.restrictions, ctx or self.context())

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


def check_skein_family(op, fam):
    """Whether sum(k_i alpha^i T(L_i)) vanishes over the family members.

    Returns a Verdict whose residual is the nonzero sum when it fails.
    """
    total = op.ctx.zero()
    for power, coeff in fam.terms:
        if isinstance(coeff, (int, str)):
            coeff = op.ctx.parse(str(coeff))
        value = compute_ts(op, fam.member(power)).value
        total = total + coeff * pow_int(op.alpha, power) * value
    return Verdict(True) if total.is_zero() else Verdict(False, residual=total)


# -- the open-strand closure ---------------------------------------------------


def open_trace(op, b):
    """The closure of strands 2..n of ``b`` under ``op``, as the multiple of
    the identity left on strand 1, or ProportionalityFailure."""
    return _matrix_closure(op, b, range(2, b.strands + 1))


# the ring of alexander_nabla's values and its binding q = t^-2; filled on first use
_nabla_target = {}


def alexander_nabla(b):
    """The Alexander invariant of the closure of ``b`` in the variable t:
    the open trace of row R1.2/1, at q = t^-2."""
    if not _nabla_target:
        ctx = ScalarContext(("t",))
        _nabla_target.update(ctx=ctx, bindings={"q": ctx.parse("t^-2")})
    value = open_trace(get_table1_eyb("R1.2", 1), b)
    return substitute(value, _nabla_target["bindings"], _nabla_target["ctx"])


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
