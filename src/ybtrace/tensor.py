"""Sparse square matrices over exact scalars.

Tensor indices use the big-endian convention: a k-fold index (i1, ..., ik)
with entries in [0, N) maps to position sum(i_m * N^(k-m)), the first factor
most significant.  Entry (r, c) of a matrix is the coefficient of basis
vector r in the image of basis vector c.
"""

import math
from fractions import Fraction

from ._record import Record
from .errors import (
    ContextMismatch,
    DimensionMismatch,
    InverseOutsideRing,
    NonInvertible,
    NotDivisible,
    ParseError,
    PositionOutOfRange,
)
from .ring import (
    Scalar, crossing_table, dot, dot_entries, json_field, push, scalar_from_json,
    scalar_to_json, substitute, try_div_exact,
)

# Largest state count (matrix side) that braid_representation and
# matrix_from_json accept: a braid on 12 strands of a two-dimensional space.
# The tests, demos and benchmark workloads reach at most 3^5 = 243.
MAX_STATES = 4096

# Largest entry count embed_generator and kron store: a dense base-2 crossing
# (16 entries) embedded into MAX_STATES states.  Capping states alone lets a
# dense side-256 matrix (base 16, 4096 states for the Yang-Baxter check) store
# about a million entries per factor, and a dense mu of side 64 (the weight of
# an R of side 4096) about 16 million in kron(mu, mu).
MAX_ENTRIES = 4 * MAX_STATES


def _entry(ctx, value):
    """A matrix entry as a Scalar: a Scalar as it is, text parsed, and an int
    or a Fraction through ``ctx.scalar``; TypeError for anything else."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, str):
        return ctx.parse(value)
    if isinstance(value, (int, Fraction)):
        return ctx.scalar(value)
    raise TypeError(f"a matrix entry must be a Scalar, text, an int or a Fraction, "
                    f"not {type(value).__name__}")


def _check_ctx(a, b):
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ContextMismatch("matrix contexts differ")


def _check_operands(a, *others):
    for b in others:
        _check_ctx(a, b)
        if a.side != b.side:
            raise DimensionMismatch(f"sides differ: {a.side} vs {b.side}")


class SquareMatrix:
    """Immutable sparse square matrix; zero entries are never stored, and the
    entries are kept in (row, column) order.

    What is derived from the entries alone is kept on first use: the
    inverse (``invert``), the crossing table that ``push_at`` applies, the
    entries grouped by row (``matmul``'s right operand) and the embeddings
    asked for by ``embedding``, these up to MAX_ENTRIES entries in total.
    """

    __slots__ = ("ctx", "side", "entries", "_inverse", "_table", "_row_index", "_embeddings")

    def __init__(self, ctx, side, entries):
        self.ctx = ctx
        self.side = side
        self._inverse = self._table = self._row_index = self._embeddings = None
        clean = {}
        for (r, c) in sorted(entries):
            if not (0 <= r < side and 0 <= c < side):
                raise DimensionMismatch(f"index {(r, c)} outside side {side}")
            v = entries[(r, c)]
            if not v.is_zero():
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def _built(cls, ctx, side, entries):
        """The matrix of entries the library built itself, nonzero and inside
        ``side``: sorted, with neither check."""
        a = object.__new__(cls)
        a.ctx, a.side, a.entries = ctx, side, {key: entries[key] for key in sorted(entries)}
        a._inverse = a._table = a._row_index = a._embeddings = None
        return a

    @classmethod
    def from_rows(cls, ctx, rows):
        """Build from nested lists of entries that ``_entry`` takes."""
        side = len(rows)
        entries = {}
        for r, row in enumerate(rows):
            if len(row) != side:
                raise DimensionMismatch("rows are not square")
            for c, value in enumerate(row):
                value = _entry(ctx, value)
                if not value.is_zero():
                    entries[(r, c)] = value
        return cls(ctx, side, entries)

    @classmethod
    def identity(cls, ctx, side):
        one = ctx.one()
        return cls(ctx, side, {(k, k): one for k in range(side)})

    @classmethod
    def diagonal(cls, ctx, values):
        """The diagonal matrix of entries that ``_entry`` takes."""
        vals = [_entry(ctx, v) for v in values]
        return cls(ctx, len(vals), {(k, k): v for k, v in enumerate(vals)})

    def get(self, r, c):
        value = self.entries.get((r, c))
        return self.ctx.zero() if value is None else value

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return (
            self.side == other.side
            and self.ctx == other.ctx
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"<SquareMatrix side={self.side} nnz={len(self.entries)}>"

    def embedding(self, i, n):
        """``embed_generator(self, i, n)``, kept on this matrix under (i, n)
        while its kept embeddings hold at most MAX_ENTRIES entries in total,
        and built on every call past that."""
        kept = self._embeddings
        if kept is None:
            kept = self._embeddings = {}
        found = kept.get((i, n))
        if found is None:
            found = embed_generator(self, i, n)
            if sum(len(e.entries) for e in kept.values()) + len(found.entries) <= MAX_ENTRIES:
                kept[(i, n)] = found
        return found

    def transpose(self):
        return SquareMatrix(
            self.ctx, self.side, {(c, r): v for (r, c), v in self.entries.items()}
        )


def matadd(a, b):
    _check_operands(a, b)
    acc = dict(a.entries)
    for key, v in b.entries.items():
        acc[key] = acc[key] + v if key in acc else v
    return SquareMatrix(a.ctx, a.side, acc)


class Verdict(Record):
    """The outcome of an exact identity check; truthy when the identity holds.

    A failing verdict may name the failing ``condition``, the ``index`` where
    it fails and the ``residual`` (lhs - rhs, a Scalar or a SquareMatrix).
    """

    _fields = ("ok", "condition", "index", "residual")

    def __init__(self, ok, condition=None, index=None, residual=None):
        self.__dict__.update(ok=ok, condition=condition, index=index, residual=residual)

    def __bool__(self):
        return self.ok


def scalar_scale(a, s):
    if isinstance(s, (int,)):
        s = a.ctx.scalar(s)
    return SquareMatrix(a.ctx, a.side, {k: s * v for k, v in a.entries.items()})


def _sums(ctx, pairs):
    """{key: sum of x * y over the (x, y) pairs listed under key}, holding
    only the nonzero sums.  A lone product is formed by ``*``, which is
    faster than ``dot`` on one pair."""
    sums = {key: p[0][0] * p[0][1] if len(p) == 1 else dot(ctx, p)
            for key, p in pairs.items()}
    for key in [key for key, v in sums.items() if v.is_zero()]:
        del sums[key]
    return sums


def _rows(b):
    """{row: [(column, entry)]} of b's stored entries."""
    if b._row_index is not None:
        return b._row_index
    rows = {}
    for (r, c), v in b.entries.items():
        rows.setdefault(r, []).append((c, v))
    return rows


def _add_pairs(a, b):
    """{(r, c): the (x, y) pairs of a[r, k] and b[k, c]}; b's rows are indexed
    once and kept on b."""
    b_rows = b._row_index = _rows(b)
    pairs = {}
    for (r, k), va in a.entries.items():
        for c, vb in b_rows.get(k, ()):
            pairs.setdefault((r, c), []).append((va, vb))
    return pairs


def matmul(a, b):
    _check_operands(a, b)
    return SquareMatrix._built(a.ctx, a.side, _sums(a.ctx, _add_pairs(a, b)))


def _triples(a, b):
    """The ((r, c), a[r, k], b[k, c]) triple of each product; b's rows are indexed once."""
    b_rows = _rows(b)
    return [((r, c), va, vb)
            for (r, k), va in a.entries.items() for c, vb in b_rows.get(k, ())]


def matmul_sub(a, b, c, d):
    """a*b - c*d: the residual of a product identity.

    The products of both sides go to one ``ring.dot_entries``, a front end
    of ``ring.join``, the ring's loop for sums per key: one accumulator per
    output entry, c*d's products subtracted by their sign, so neither
    product is built on its own and an entry that cancels builds no
    Scalar.  The four operands' contexts and sides are checked before any
    product is formed.
    """
    _check_operands(a, b, c, d)
    return SquareMatrix._built(a.ctx, a.side,
                               dot_entries(a.ctx, _triples(a, b), _triples(c, d)))


def kron(a, b):
    """Kronecker product; the left factor is most significant.  Raises
    DimensionMismatch, before anything is built, when the product would store
    more than MAX_ENTRIES entries."""
    _check_ctx(a, b)
    stored = len(a.entries) * len(b.entries)
    if stored > MAX_ENTRIES:
        raise DimensionMismatch(
            f"Kronecker product of {len(a.entries)} and {len(b.entries)} entries "
            f"stores {stored} entries, above the cap of {MAX_ENTRIES}"
        )
    side = a.side * b.side
    entries = {}
    for (ra, ca), va in a.entries.items():
        for (rb, cb), vb in b.entries.items():
            entries[(ra * b.side + rb, ca * b.side + cb)] = va * vb
    return SquareMatrix(a.ctx, side, entries)


def _crossing_base(side):
    """b for a two-slot operator of side b*b; DimensionMismatch for any other side."""
    base = math.isqrt(side)
    if base * base != side:
        raise DimensionMismatch(f"side {side} is not a perfect square")
    return base


def check_embedding(nnz, n, side):
    """Raise DimensionMismatch when ``side`` is no square, or when embedding a two-slot
    operator of that side with ``nnz`` entries into n slots would store more than MAX_ENTRIES."""
    base = _crossing_base(side)
    stored = nnz * base ** (n - 2)
    if stored > MAX_ENTRIES:
        raise DimensionMismatch(
            f"embedding {nnz} entries into {n} slots of base {base} "
            f"stores {stored} entries, above the cap of {MAX_ENTRIES}"
        )


def _slot_base(r, i, n):
    """r's base, once i is checked to be a slot pair (i, i+1) of n slots."""
    base = _crossing_base(r.side)
    if not 1 <= i <= n - 1:
        raise PositionOutOfRange(f"position {i} outside 1..{n - 1}")
    return base


def embed_generator(r, i, n):
    """Embed a two-slot operator at tensor slots (i, i+1) of an n-fold space.

    Built by index arithmetic over the sparse entries; the identity factors
    are never materialized.  Raises DimensionMismatch, before anything is
    built, when the result would store more than MAX_ENTRIES entries.
    ``SquareMatrix.embedding`` keeps the result on r.
    """
    base = _slot_base(r, i, n)
    check_embedding(len(r.entries), n, r.side)
    left = base ** (i - 1)
    right = base ** (n - i - 1)
    entries = {}
    for (rr, rc), v in r.entries.items():
        for a in range(left):
            row_hi = (a * r.side + rr) * right
            col_hi = (a * r.side + rc) * right
            for b in range(right):
                entries[(row_hi + b, col_hi + b)] = v
    return SquareMatrix._built(r.ctx, base ** n, entries)


def _crossing_table(r):
    """r's columns as the ``ring.crossing_table`` that ``ring.push`` applies,
    kept on r."""
    columns = {}
    for (rr, rc), v in r.entries.items():
        columns.setdefault(rc, []).append((rr - rc, v))
    r._table = crossing_table(r.ctx, r.side, columns)
    return r._table


def push_at(r, i, n, packed):
    """The image of a ``ring.PackedVector`` under a two-slot operator at
    tensor slots (i, i+1) of an n-fold space of r's base.

    A state's digit pair at (i, i+1) selects a column of r, and only that
    column's stored entries are applied (``ring.push``, a front end of
    ``ring.join``), so nothing is embedded.  The digits above the n slots
    pass through, so vectors packed under keys index * base^n + state are
    pushed as one.  r's crossing table is kept on r, so a push builds it
    once per crossing.
    """
    base = _slot_base(r, i, n)
    table = _crossing_table(r) if r._table is None else r._table
    return push(packed, table, base ** (n - i - 1))


def trace(a):
    total = a.ctx.zero()
    for (r, c), v in a.entries.items():
        if r == c:
            total = total + v
    return total


def matrix_substitute(a, bindings, target):
    """``ring.substitute`` of each entry of ``a`` into the context ``target``."""
    return SquareMatrix(target, a.side,
                        {key: substitute(v, bindings, target) for key, v in a.entries.items()})


# -- inversion ----------------------------------------------------------------

_COFACTOR_SIDE = 4  # the largest piece that invert takes by cofactors
_RETRY_SIDE = 8  # the largest piece whose failed elimination is retried by cofactors


def _pieces(a):
    """(rows, columns) of each connected piece of the entry pattern.

    Entry (r, c) joins row r to column c; an empty row or column is a piece
    of its own.
    """
    n = a.side
    parent = list(range(2 * n))  # row r is node r, column c is node n + c

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (r, c) in a.entries:
        parent[find(r)] = find(n + c)
    pieces = {}
    for node in range(2 * n):
        rows, cols = pieces.setdefault(find(node), ([], []))
        if node < n:
            rows.append(node)
        else:
            cols.append(node - n)
    return [(tuple(rows), tuple(cols)) for rows, cols in pieces.values()]


def _bareiss_row(piv, row, factor, pivot_row, prev):
    """(piv*row - factor*pivot_row) / prev on sparse rows; None stands for 1.
    An entry in both rows is one ``dot`` unless piv is 1."""
    out = {k: v if piv is None else piv * v for k, v in row.items()
           if factor is None or k not in pivot_row}
    if factor is not None:
        neg = -factor
        for k, v in pivot_row.items():
            cur = row.get(k)
            nxt = (neg * v if cur is None else cur + neg * v if piv is None
                   else dot(neg.ctx, ((piv, cur), (neg, v))))
            if not nxt.is_zero():
                out[k] = nxt
    if prev is not None:
        out = {k: try_div_exact(v, prev) for k, v in out.items()}
    return out


def _minor(ctx, work, rs, cs, memo):
    """The minor of the rows rs and columns cs of ``work``, expanded along
    rs[0] and kept in ``memo``; None when it lists no product."""
    if len(rs) < 2:
        return work[rs[0]].get(cs[0]) if rs else ctx.one()
    if (rs, cs) not in memo:
        row, pairs = work[rs[0]], []
        for j, c in enumerate(cs):
            sub = _minor(ctx, work, rs[1:], cs[:j] + cs[j + 1:], memo) if c in row else None
            if sub is not None:
                pairs.append((-row[c] if j % 2 else row[c], sub))
        memo[rs, cs] = dot(ctx, pairs) if pairs else None
    return memo[rs, cs]


def _cofactor_piece(work, rows, cols, n):
    """``_invert_piece`` as adj(B) by ``_minor`` times 1 / det(B), one ``try_div_exact``."""
    ctx, memo = work[rows[0]][n + rows[0]].ctx, {}
    det = _minor(ctx, work, rows, cols, memo)
    if det is None or det.is_zero():
        raise NonInvertible("matrix is singular")
    inverse = try_div_exact(ctx.one(), det)
    return {(c, r): -(cof * inverse) if (i + j) % 2 else cof * inverse
            for i, r in enumerate(rows) for j, c in enumerate(cols)
            for cof in (_minor(ctx, work, rows[:i] + rows[i + 1:], cols[:j] + cols[j + 1:], memo),)
            if cof is not None and not cof.is_zero()}


def _invert_piece(work, rows, cols, n):
    """Entries of B^-1 for the square piece B whose rows of [A | I] are work[rows].

    Cofactors up to _COFACTOR_SIDE; else fraction-free Gauss-Jordan leaves
    [d*I | d*B^-1] up to a row order, d the last pivot.  A unit pivot is first
    scaled to 1, the same elimination on B with a row scaled by a unit, so each
    division by the previous pivot stays exact.  None stands for a pivot of 1.
    """
    if len(rows) <= _COFACTOR_SIDE:
        return _cofactor_piece(work, rows, cols, n)
    pivot_col = {}
    prev = None
    for col in cols:
        candidates = [r for r in rows if r not in pivot_col and col in work[r]]
        if not candidates:
            raise NonInvertible("matrix is singular")
        # a unit pivot if there is one, else the one with the fewest terms
        p = min(candidates, key=lambda r: (not work[r][col].is_unit(),
                                           work[r][col].term_count()))
        piv = work[p][col]
        if piv.is_unit():
            inv_piv = piv ** -1
            work[p] = {k: inv_piv * v for k, v in work[p].items()}
            piv = None
        for r in rows:
            factor = work[r].get(col)
            # with no factor, the row only changes by piv/prev
            if r != p and (factor is not None or piv is not prev):
                work[r] = _bareiss_row(piv, work[r], factor, work[p], prev)
        pivot_col[p] = col
        prev = piv
    return {
        (pivot_col[r], k - n): v if prev is None else try_div_exact(v, prev)
        for r in rows
        for k, v in work[r].items()
        if k >= n
    }


def _augmented(a, rows):
    """{r: row r of [A | I]} for the ``rows``: entry (r, c) of A under key c,
    the 1 of I under side + r."""
    n, one = a.side, a.ctx.one()
    work = {r: {n + r: one} for r in rows}
    for (r, c), v in a.entries.items():
        if r in work:
            work[r][c] = v
    return work


def invert(a):
    """Exact inverse, by cofactors or fraction-free (Bareiss) elimination.

    The rows and columns split into the connected pieces of the entry
    pattern, each inverted on its own: as adj/det up to _COFACTOR_SIDE, the
    side of every piece of a two-dimensional solution, else by elimination,
    whose cost alone is polynomial in the side.  Over a ring with zero
    divisors an exact division of the elimination may have no quotient
    although the determinant is a unit; such a piece up to _RETRY_SIDE is
    inverted again by cofactors from its own rows.  Raises NonInvertible
    when the matrix is singular and InverseOutsideRing when its determinant
    is not a unit, or when elimination fails so on a piece above
    _RETRY_SIDE.  The inverse is kept on ``a``; a failure is raised again on
    every call.
    """
    if a._inverse is not None:
        return a._inverse
    n = a.side
    work = _augmented(a, range(n))
    entries = {}
    for rows, cols in _pieces(a):
        if len(rows) != len(cols):
            raise NonInvertible("matrix is singular")
        try:
            try:
                piece = _invert_piece(work, rows, cols, n)
            except NotDivisible:
                if not _COFACTOR_SIDE < len(rows) <= _RETRY_SIDE:
                    raise
                work.update(_augmented(a, rows))  # elimination changed the rows
                piece = _cofactor_piece(work, rows, cols, n)
        except NotDivisible:
            raise InverseOutsideRing(
                "the determinant is not a unit; the inverse leaves the ring"
            ) from None
        entries.update(piece)
    # a Bareiss product piv * v vanishes only in a ring with zero divisors
    a._inverse = SquareMatrix._built(
        a.ctx, n, {k: v for k, v in entries.items() if not v.is_zero()})
    return a._inverse


# -- JSON form -----------------------------------------------------------------


def matrix_to_json(a):
    return {
        "side": a.side,
        "entries": [[r, c, scalar_to_json(v)] for (r, c), v in a.entries.items()],
    }


def matrix_from_json(ctx, obj):
    """Inverse of matrix_to_json; ParseError naming the field on malformed input,
    and naming both listings of a position listed twice.

    A side outside 0..MAX_STATES raises DimensionMismatch before anything is built.
    """
    side = json_field(obj, "side", int, "matrix")
    if not 0 <= side <= MAX_STATES:
        raise DimensionMismatch(f"matrix side {side} outside 0..{MAX_STATES}, the cap on states")
    entries, listed = {}, json_field(obj, "entries", list, "matrix")
    try:
        for k, item in enumerate(listed):
            if not (isinstance(item, list) and len(item) == 3
                    and type(item[0]) is type(item[1]) is int):
                raise ParseError("expected [row, column, scalar]")
            if (item[0], item[1]) in entries:
                first = next(j for j, other in enumerate(listed) if other[:2] == item[:2])
                raise ParseError(f"position ({item[0]}, {item[1]}) is listed "
                                 f"already at matrix.entries[{first}]")
            entries[(item[0], item[1])] = scalar_from_json(ctx, item[2])
    except ParseError as exc:
        raise ParseError(f"matrix.entries[{k}]: {exc}") from None
    return SquareMatrix(ctx, side, entries)
