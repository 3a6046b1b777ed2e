"""The weighted braid-trace invariant and its consequences.

For an enhanced operator S and a braid word on n strands, the raw invariant
is alpha^(-writhe) beta^(-n) Tr(rep(word) mu^(x n)) (Turaev, Invent. Math.
92, 1988); dividing by the one-strand value Tr(mu)/beta gives the
unknot-normalized form.  No representation of the whole word is formed.
``compute_ts`` takes one of three routes.

When mu has rank one, piv * mu = u v^T for a pivot entry piv of mu, its
column u and its row v, and the trace is (v^(x n))^T rep u^(x n) / piv^n.
If (v (x) v)^T R = c (v (x) v)^T for a unit c, the value is in closed
form, c^w alpha^(-w) (Tr(mu) / beta)^n for writhe w.  Proof: then
(v (x) v)^T R^(+-1) = c^(+-1) (v (x) v)^T on the two slots each letter
acts on, so (v^(x n))^T rep = c^w (v^(x n))^T; and (v^(x n))^T u^(x n) =
(v^T u)^n = (piv Tr(mu))^n.  This is the registry's ``intertwine``
column, (mu x mu) R = c (mu x mu), and holds on all 14 rank-one rows.
Nothing is pushed or divided, and R is not inverted.

Without such a c, u^(x n), packed as a ``ring.PackedVector``, is pushed
through the word one crossing at a time (``tensor.push_at``), one
``ring.contract`` against v^(x n) takes the dot product, and one exact
division by (beta * piv)^n ends it.  No Scalar is formed between the
crossings.

Every other mu takes the half-word closure, which ``open_trace`` shares
with the strands 2..n closed instead of all of them.  With rep = A B for
the left and right halves of the word, the partial trace over the k
closed slots of rep (1 (x) M), M = mu^(x k), is that of (1 (x) M) A B,
because 1 (x) M acts on the traced slots only.  B is built as a sparse
matrix from the embeddings kept on R and R^-1; the rows of 1 (x) M, packed
as one vector, are pulled back through A, one letter at a time by
``push_at`` on the transposed crossing, and one ``ring.contract`` against
B's columns gives the block left on the kept strands.  That block is
divided by beta once per closed slot and multiplied by alpha^(-writhe).
``alexander_nabla`` is the open trace of row R1.2/1's image at q = t^-2
(sqrt_q -> t^-1), kept after its first call.

What depends only on the operator is kept on it on first use: the rank-one
factors, the unknot value, the eigenvalue c or the verdict that there is
none; per strand count n the unknot value's n-th power when there is a c,
else the packed u^(x n), the contraction pairs of v^(x n) and
(beta * piv)^n; per strand count and kept strand count the packed rows of
1 (x) M, when they hold at most ``tensor.MAX_ENTRIES`` entries; per
closed-slot count k beta^k; and the transposes of R and R^-1.  The
crossings keep their tables and embeddings on their matrices.  Nothing
keyed by a braid word or a writhe is kept.
"""

import itertools
import math

from ._record import Record
from .braid import BraidWord, get_named_braid, NAMED_LINKS
from .errors import (
    DimensionMismatch,
    ExponentOverflow,
    NotDivisible,
    ProportionalityFailure,
    StrandBoundViolation,
    UnknownName,
)
from .eyb import get_table1_eyb, specialize, table1_entries
from .ring import (
    ScalarContext, contract, format_scalar, pack, pow_int, try_div_exact,
)
from .tensor import (
    MAX_ENTRIES,
    MAX_STATES,
    SquareMatrix,
    Verdict,
    invert,
    matadd,
    matmul,
    push_at,
    scalar_scale,
    trace,
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
    """Image of a braid word under the crossing operator r, sparsely, as the
    product of the embeddings that r and its inverse keep
    (``SquareMatrix.embedding``)."""
    if base is None:
        base = math.isqrt(r.side)
    n = b.strands
    total = _states(base, n)
    if not b.letters:
        return SquareMatrix.identity(r.ctx, total)
    rinv = invert(r) if any(k < 0 for k in b.letters) else None
    result = None
    for letter in b.letters:
        gen = (r if letter > 0 else rinv).embedding(abs(letter), n, base)
        result = gen if result is None else matmul(result, gen)
    return result


class InvariantResult(Record):
    _fields = ("value", "normalized", "unknot_value", "eyb", "braid")

    def __init__(self, value, normalized, unknot_value, eyb, braid):
        self.__dict__.update(value=value, normalized=normalized, unknot_value=unknot_value,
                             eyb=eyb, braid=braid)

    def __str__(self):
        return format_scalar(self.value)


def unknot_value(op):
    """The one-strand closure value Tr(mu)/beta, computed afresh;
    ``compute_ts`` keeps it on the operator."""
    return try_div_exact(trace(op.mu), op.beta)


def _kept(op, key, make, *args):
    """The closure constant ``key`` of ``op``: ``make(*args)`` on first use,
    then kept on the operator, whose fields never change.  A kept constant
    costs one dict lookup."""
    kept = op._closure
    try:
        return kept[key]
    except KeyError:
        value = kept[key] = make(*args)
        return value


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


def _eigenvalue(op, v, piv):
    """The unit c with (v (x) v)^T R = c (v (x) v)^T, or None when there is
    none.  c is read off at the slot (j, j) with v[j] = piv, where v (x) v
    holds piv^2.  A check that cannot be finished in the ring (a division
    that does not come out, an exponent out of range) gives None too."""
    base, zero = op.base_dim, op.ctx.zero()
    j = next(j for j, x in v.items() if x == piv)
    try:
        vv = {i * base + k: x * y for i, x in v.items() for k, y in v.items()}
        image = {}
        for (row, col), x in op.r.entries.items():
            if row in vv:
                image[col] = image.get(col, zero) + vv[row] * x
        c = try_div_exact(image.get(j * (base + 1), zero), piv * piv)
        scaled = {key: c * x for key, x in vv.items()}
    except (NotDivisible, ExponentOverflow):
        return None
    if c.is_unit() and all(image.get(key, zero) == scaled.get(key, zero)
                           for key in image.keys() | scaled.keys()):
        return c
    return None


def _rank_one_trace(op, b, u, v, piv):
    """alpha^(-w) Tr(rep(b) mu^(x n)) / beta^n for mu = u v^T / piv: in closed
    form when v (x) v is a left eigenvector of R with a unit eigenvalue c,
    else by one push.

    The strand cap is checked first.  c, or the verdict that there is none,
    is kept on ``op``; so is the unknot value's n-th power per n.  c^w and
    alpha^(-w) are formed apart, so NotAUnit and ExponentOverflow come from
    the same inputs as on the push.
    """
    n = b.strands
    _states(op.base_dim, n)
    c = _kept(op, "eigen", _eigenvalue, op, v, piv)
    if c is None:
        return _pushed_trace(op, b, u, v, piv)
    try:
        power = op._closure["unknot", n]
    except KeyError:
        power = op._closure["unknot", n] = pow_int(_kept(op, "unknot", unknot_value, op), n)
    w = b.writhe
    return pow_int(c, w) * pow_int(op.alpha, -w) * power


def _pushed_trace(op, b, u, v, piv):
    """alpha^(-w) Tr(rep(b) mu^(x n)) / beta^n for mu = u v^T / piv, by one push.

    u^(x n) packed, v^(x n) as the pairs of the closing contraction and
    (beta * piv)^n are kept on ``op`` per n; the caller has checked n
    against the strand cap.
    """
    n, base, ctx = b.strands, op.base_dim, op.ctx
    vec, row, scale = _kept(op, n, lambda: (
        pack(ctx, _tensor_power(u, n, base, ctx.one())),
        {s: ((0, y),) for s, y in _tensor_power(v, n, base, ctx.one()).items()},
        pow_int(op.beta * piv, n),
    ))
    rinv = invert(op.r) if any(k < 0 for k in b.letters) else None
    for letter in reversed(b.letters):
        vec = push_at(op.r if letter > 0 else rinv, abs(letter), n, vec, base)
    raw = contract(vec, row).get(0)
    if raw is None:
        raw = ctx.zero()
    return pow_int(op.alpha, -b.writhe) * try_div_exact(raw, scale)


def _weight_rows(mu, keep, k, total, one):
    """The nonzero rows of 1^(x keep) (x) mu^(x k), one at a time in row
    order, each a sparse vector keyed by row * total + column, so that rows
    merge into one vector; a row is built when it is asked for."""
    base = mu.side
    mu_rows = {}
    for (r, c), x in mu.entries.items():
        mu_rows.setdefault(r, {})[c] = x
    digits = sorted(mu_rows.items())
    for i in range(base ** keep):
        for picks in itertools.product(digits, repeat=k):
            state, row = i, {i: one}
            for digit, entries in picks:
                state = state * base + digit
                row = {t * base + d: x * y for t, x in row.items() for d, y in entries.items()}
            yield {state * total + t: x for t, x in row.items()}


def _pullback(op, positive):
    """R^T, or (R^-1)^T when not ``positive``: the crossing that pulls a row
    vector back through a letter of that sign; kept on ``op`` under the key
    ("transpose", positive)."""
    return _kept(op, ("transpose", positive),
                 lambda: (op.r if positive else invert(op.r)).transpose())


def _closure(op, b, keep):
    """alpha^(-writhe) beta^(-k) times the multiple of the identity left on
    strands 1..keep when rep(b) mu^(x k) is traced over the other k strands,
    by the half-word closure (module docstring).

    Block entry (i, j) sums row (i, s) of (1 (x) mu^(x k)) A against column
    (j, s) of B over the closed states s, for rep(b) = A B split at the
    middle letter.  Rows within the entry cap are kept on ``op``, packed as
    one vector keyed by row * states + column, and pulled back through A
    together; others are built, packed and pulled one at a time.  The
    block is one contraction of the pulled rows against B's columns.
    Raises StrandBoundViolation before anything is built or kept,
    DimensionMismatch for a side-1 weight, which has no slot to close, and
    ProportionalityFailure when the block is not a multiple of the identity
    (a full closure leaves a 1x1 block, which always is one).
    """
    n, base, ctx = b.strands, op.base_dim, op.ctx
    total = _states(base, n)
    if base < 2:
        raise DimensionMismatch(f"a weight of side {base} has no slot to close")
    k = n - keep
    split = len(b.letters) // 2
    left = b.letters[:split]
    right = braid_representation(op.r, BraidWord(n, b.letters[split:]), base).entries
    pullbacks = {positive: _pullback(op, positive) for positive in {letter > 0 for letter in left}}
    if base ** keep * len(op.mu.entries) ** k > MAX_ENTRIES:
        batches = (pack(ctx, row) for row in _weight_rows(op.mu, keep, k, total, ctx.one()))
    else:
        batches = (_kept(op, ("rows", n, keep), lambda: pack(ctx, {
            key: x for row in _weight_rows(op.mu, keep, k, total, ctx.one())
            for key, x in row.items()})),)
    # B's entry (x, (j, s)) meets the pulled row (i, s) at column x
    closed = base ** k
    columns = {}
    for (x, c), v in right.items():
        j, s = divmod(c, closed)
        for i in range(base ** keep):
            columns.setdefault((i * closed + s) * total + x, []).append(((i, j), v))
    block = {}
    for vec in batches:
        for letter in left:
            vec = push_at(pullbacks[letter > 0], abs(letter), n, vec, base)
        for key, v in contract(vec, columns).items():
            block[key] = block[key] + v if key in block else v
    block = {key: v for key, v in block.items() if not v.is_zero()}
    value = block.get((0, 0), ctx.zero())
    if block != ({} if value.is_zero() else {(i, i): value for i in range(base ** keep)}):
        raise ProportionalityFailure("partial closure is not a multiple of the identity")
    scale = _kept(op, ("beta", k), pow_int, op.beta, k)
    return pow_int(op.alpha, -b.writhe) * try_div_exact(value, scale)


def compute_ts(op, b, normalized=False):
    """The trace invariant of the closure of ``b`` under operator ``op``.

    A weight mu of rank one takes the closed form c^w alpha^(-w)
    (Tr(mu) / beta)^n when (v (x) v)^T R = c (v (x) v)^T for a unit c, and
    the push otherwise; any other mu takes the half-word closure (module
    docstring).  Both rank-one routes check the strand cap first, and
    raise NotAUnit and ExponentOverflow on the same inputs: c^w and
    alpha^(-w) are formed apart.  The closed form does not invert R, so on
    a singular R it gives a value where the push raises NonInvertible for
    a negative letter; an operator that ``verify_eyb`` accepts has an
    invertible R.  Division by beta^n is performed exactly,
    so beta need not be a unit.  Normalization divides by the unknot value
    and raises NotDivisible when that is impossible (in particular when the
    unknot value is zero).  The rank-one factors, the unknot value, the
    eigenvalue verdict and the constants of each path are computed on the
    first call that needs them and kept on ``op``, and a later call reads
    each with one dict lookup and builds no function object for it.  Per
    call the closed form forms only c^w, alpha^(-w) and two products, by
    the ring's key arithmetic when c and alpha are units; the writhe is
    kept on the braid word.
    """
    try:
        factors = op._closure["factors"]
    except KeyError:  # a side-1 weight takes the half-word closure, which refuses it
        factors = op._closure["factors"] = rank_one_factors(op.mu) if op.base_dim > 1 else None
    if factors is None:
        raw = _closure(op, b, 0)
    else:
        raw = _rank_one_trace(op, b, *factors)
    unknot = _kept(op, "unknot", unknot_value, op)
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


class RelationSpec(Record):
    """A named annihilating relation of a (possibly restricted) catalog matrix."""

    _fields = ("name", "rmatrix", "gens", "restrictions", "coefficients")

    def __init__(self, name, rmatrix, gens, restrictions, coefficients):
        # coefficients: (power, text) pairs
        self.__dict__.update(name=name, rmatrix=rmatrix, gens=gens,
                             restrictions=restrictions, coefficients=coefficients)

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


class SkeinFamily(Record):
    """Braids differing by a power of one crossing at a fixed word position."""

    _fields = ("base", "position", "terms", "insert_at")

    def __init__(self, base, position, terms, insert_at=None):
        # terms: (power, coefficient Scalar) pairs
        self.__dict__.update(base=base, position=position, terms=terms, insert_at=insert_at)

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
    return _closure(op, b, 1)


# R1.2/1's image at q = t^-2; filled on first use
_nabla_operator = []


def alexander_nabla(b):
    """The Alexander invariant of the closure of ``b`` in the variable t:
    the open trace of row R1.2/1's image at q = t^-2 (``eyb.specialize``:
    sqrt_q -> t^-1, so mu = diag(t, -t) and alpha = t^-1), built by the
    first call and kept."""
    if not _nabla_operator:
        ctx = ScalarContext(("t",))
        _nabla_operator.append(
            specialize(get_table1_eyb("R1.2", 1), {"q": ctx.parse("t^-2")}, ctx))
    return open_trace(_nabla_operator[0], b)


# -- classification -------------------------------------------------------------


def _is_unknot_value(raw, op):
    """Whether raw / unknot == 1, decided as raw == unknot with no division;
    a zero unknot value raises ZeroDivisionError, as the division would."""
    unknot = _kept(op, "unknot", unknot_value, op)
    if unknot.is_zero():
        raise ZeroDivisionError("division by zero scalar")
    return raw == unknot


def _tag_expectation(tag, op, link, raw):
    """(expected description, matched or None when not asserted); the
    constant tags compare raw with an int, so no Scalar is built."""
    if tag in ("alexander-zero", "const-0"):
        return "0", raw.is_zero()
    if tag == "const-1":
        return "1", raw == 1
    if tag == "two-power-l":
        return f"2^{link.components}", raw == 2 ** link.components
    if tag == "knots-1":
        if link.components != 1:
            return "-", None
        return "1 (knots)", _is_unknot_value(raw, op)
    if tag == "knots-0":
        if link.components != 1:
            return "-", None
        return "0 (knots)", raw.is_zero()
    if tag == "jones":
        if link.name == "0_1":
            return "1", _is_unknot_value(raw, op)
        return "nontrivial", not _is_unknot_value(raw, op)
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
        for link in links:
            raw = compute_ts(op, link.braid).value
            expected, matched = _tag_expectation(entry.tag, op, link, raw)
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
