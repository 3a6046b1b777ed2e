"""Sparse square matrices over exact scalars.

Tensor indices use the big-endian convention: a k-fold index (i1, ..., ik)
with entries in [0, N) maps to position sum(i_m * N^(k-m)), the first factor
most significant.  Entry (r, c) of a matrix is the coefficient of basis
vector r in the image of basis vector c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    dot, dot_entries, json_field, scalar_from_json, scalar_to_json, substitute,
    try_div_exact,
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


def _check_ctx(a, b):
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ContextMismatch("matrix contexts differ")


def _check_operands(a, *others):
    for b in others:
        _check_ctx(a, b)
        if a.side != b.side:
            raise DimensionMismatch(f"sides differ: {a.side} vs {b.side}")


class SquareMatrix:
    """Immutable sparse square matrix; zero entries are never stored.

    What is derived from the entries alone is kept on first use: the
    inverse (``invert``) and the entries grouped by column (``apply_at``).
    """

    __slots__ = ("ctx", "side", "entries", "_inverse", "_columns")

    def __init__(self, ctx, side, entries):
        self.ctx = ctx
        self.side = side
        self._inverse = self._columns = None
        clean = {}
        for (r, c) in sorted(entries):
            if not (0 <= r < side and 0 <= c < side):
                raise DimensionMismatch(f"index {(r, c)} outside side {side}")
            v = entries[(r, c)]
            if not v.is_zero():
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_rows(cls, ctx, rows):
        """Build from nested lists; entries may be Scalars, ints, or text."""
        side = len(rows)
        entries = {}
        for r, row in enumerate(rows):
            if len(row) != side:
                raise DimensionMismatch("rows are not square")
            for c, value in enumerate(row):
                if isinstance(value, str):
                    value = ctx.parse(value)
                elif isinstance(value, int):
                    value = ctx.scalar(value)
                if not value.is_zero():
                    entries[(r, c)] = value
        return cls(ctx, side, entries)

    @classmethod
    def identity(cls, ctx, side):
        one = ctx.one()
        return cls(ctx, side, {(k, k): one for k in range(side)})

    @classmethod
    def diagonal(cls, ctx, values):
        vals = [ctx.parse(v) if isinstance(v, str) else v for v in values]
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


def matsub(a, b):
    """a - b; ``matmul_sub`` takes the residual of a product identity."""
    _check_operands(a, b)
    acc = dict(a.entries)
    for key, v in b.entries.items():
        acc[key] = acc[key] - v if key in acc else -v
    return SquareMatrix(a.ctx, a.side, acc)


@dataclass(frozen=True)
class Verdict:
    """The outcome of an exact identity check; truthy when the identity holds.

    A failing verdict may name the failing ``condition``, the ``index`` where
    it fails and the ``residual`` (lhs - rhs, a Scalar or a SquareMatrix).
    """

    ok: bool
    condition: str = None
    index: tuple = None
    residual: object = None

    def __bool__(self):
        return self.ok


def scalar_scale(a, s):
    if isinstance(s, (int,)):
        s = a.ctx.scalar(s)
    return SquareMatrix(a.ctx, a.side, {k: s * v for k, v in a.entries.items()})


def _sums(ctx, pairs):
    """{key: sum of x * y over the (x, y) pairs listed under key}.  A lone
    product is formed by ``*``, which is faster than ``dot`` on one pair."""
    return {key: p[0][0] * p[0][1] if len(p) == 1 else dot(ctx, p)
            for key, p in pairs.items()}


def _rows(b):
    """{row: [(column, entry)]} of b's stored entries."""
    rows = {}
    for (r, c), v in b.entries.items():
        rows.setdefault(r, []).append((c, v))
    return rows


def _add_pairs(a, b):
    """{(r, c): the (x, y) pairs of a[r, k] and b[k, c]}; b's rows are indexed once."""
    b_rows = _rows(b)
    pairs = {}
    for (r, k), va in a.entries.items():
        for c, vb in b_rows.get(k, ()):
            pairs.setdefault((r, c), []).append((va, vb))
    return pairs


def matmul(a, b):
    _check_operands(a, b)
    return SquareMatrix(a.ctx, a.side, _sums(a.ctx, _add_pairs(a, b)))


def _triples(a, b):
    """The ((r, c), a[r, k], b[k, c]) triple of each product; b's rows are indexed once."""
    b_rows = _rows(b)
    return [((r, c), va, vb)
            for (r, k), va in a.entries.items() for c, vb in b_rows.get(k, ())]


def matmul_sub(a, b, c, d):
    """a*b - c*d: the residual of a product identity.

    The products of both sides go to one ``ring.dot_entries``, which keeps
    one accumulator per output entry and subtracts c*d's products by their
    sign, so neither product is built on its own and an entry that cancels
    builds no Scalar.  The four operands' contexts and sides are checked
    before any product is formed.
    """
    _check_operands(a, b, c, d)
    return SquareMatrix(a.ctx, a.side, dot_entries(a.ctx, _triples(a, b), _triples(c, d)))


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


def check_embedding(nnz, n, base):
    """Raise DimensionMismatch when embedding a two-slot operator with ``nnz``
    entries into n slots of ``base`` would store more than MAX_ENTRIES."""
    stored = nnz * base ** (n - 2)
    if stored > MAX_ENTRIES:
        raise DimensionMismatch(
            f"embedding {nnz} entries into {n} slots of base {base} "
            f"stores {stored} entries, above the cap of {MAX_ENTRIES}"
        )


def _slot_base(r, i, n, base):
    if base is None:
        base = math.isqrt(r.side)
    if base * base != r.side:
        raise DimensionMismatch(f"side {r.side} is not a perfect square")
    if not 1 <= i <= n - 1:
        raise PositionOutOfRange(f"position {i} outside 1..{n - 1}")
    return base


def embed_generator(r, i, n, base=None):
    """Embed a two-slot operator at tensor slots (i, i+1) of an n-fold space.

    Built by index arithmetic over the sparse entries; the identity factors
    are never materialized.  Raises DimensionMismatch, before anything is
    built, when the result would store more than MAX_ENTRIES entries.
    """
    base = _slot_base(r, i, n, base)
    check_embedding(len(r.entries), n, base)
    left = base ** (i - 1)
    right = base ** (n - i - 1)
    entries = {}
    for (rr, rc), v in r.entries.items():
        for a in range(left):
            row_hi = (a * r.side + rr) * right
            col_hi = (a * r.side + rc) * right
            for b in range(right):
                entries[(row_hi + b, col_hi + b)] = v
    return SquareMatrix(r.ctx, base ** n, entries)


def _column_index(r):
    """{column: [(row, entry)]} of r's stored entries, kept on r."""
    column = {}
    for (rr, rc), v in r.entries.items():
        column.setdefault(rc, []).append((rr, v))
    r._columns = column
    return column


def apply_at(r, i, n, vec, base=None):
    """Image of a sparse vector under a two-slot operator at tensor slots
    (i, i+1) of an n-fold space.

    ``vec`` maps state indices to nonzero scalars.  Each state is split into
    the digits before slot i, the digit pair at (i, i+1) and the digits
    after it; only the stored entries of r in that pair's column are read,
    so nothing is embedded.  The digits above the n slots pass through, so
    vectors packed under keys index * base^n + state are pushed as one.
    r's entries grouped by column are kept on r (``_column_index``), so a
    push indexes each crossing once.
    """
    base = _slot_base(r, i, n, base)
    right = base ** (n - i - 1)
    column = _column_index(r) if r._columns is None else r._columns
    pairs = {}
    for state, x in vec.items():
        head, low = divmod(state, right)
        head, pair = divmod(head, r.side)
        for row, v in column.get(pair, ()):
            pairs.setdefault((head * r.side + row) * right + low, []).append((v, x))
    return {k: v for k, v in _sums(r.ctx, pairs).items() if not v.is_zero()}


def trace(a):
    total = a.ctx.zero()
    for (r, c), v in a.entries.items():
        if r == c:
            total = total + v
    return total


def weighted_trace(a, mu, slots):
    """Trace over the 1-indexed tensor ``slots`` of a * (mu on those slots,
    identity on the others); the base is mu.side.

    Entry (r, c) of a adds a[r, c] * prod_s mu[c_s, r_s] to entry
    (r_keep, c_keep) of the result, where r_s, c_s are the digits of r, c in
    slot s and r_keep, c_keep the digits in the other slots, so no Kronecker
    power is formed.  Each weight is the weight of its digit prefix times one
    entry of mu, built once per call.  Empty ``slots`` return a; every slot
    gives a 1x1 matrix holding the full weighted trace.
    """
    _check_ctx(a, mu)
    base = mu.side
    arity, side = 0, 1
    while base > 1 and side < a.side:
        side *= base
        arity += 1
    if base < 2 or side != a.side:
        raise DimensionMismatch(f"side {a.side} is not a power of {base}")
    slots = set(slots)
    if any(not 1 <= s <= arity for s in slots):
        raise DimensionMismatch(f"slots {sorted(slots)} outside 1..{arity}")
    if not slots:
        return a
    # whether each slot is traced, least significant digit first
    traced = [s in slots for s in range(arity, 0, -1)]
    one = a.ctx.one()
    memo = {}

    def weight(depth, rt, ct):
        """prod of mu[c_s, r_s] over the leading `depth` traced digits; None for 0."""
        if depth == 0:
            return one
        key = (depth, rt, ct)
        if key not in memo:
            head = weight(depth - 1, rt // base, ct // base)
            factor = mu.entries.get((ct % base, rt % base))
            memo[key] = None if head is None or factor is None else head * factor
        return memo[key]

    pairs = {}
    for (r, c), v in a.entries.items():
        rt = ct = rk = ck = 0
        t_place = k_place = 1
        for is_traced in traced:
            r, rd = divmod(r, base)
            c, cd = divmod(c, base)
            if is_traced:
                rt += rd * t_place
                ct += cd * t_place
                t_place *= base
            else:
                rk += rd * k_place
                ck += cd * k_place
                k_place *= base
        w = weight(len(slots), rt, ct)
        if w is not None:
            pairs.setdefault((rk, ck), []).append((v, w))
    return SquareMatrix(a.ctx, base ** (arity - len(slots)), _sums(a.ctx, pairs))


def matrix_substitute(a, bindings, target=None):
    entries = {}
    ctx = target
    for key, v in a.entries.items():
        image = substitute(v, bindings, target)
        ctx = image.ctx
        entries[key] = image
    if ctx is None:
        ctx = a.ctx if target is None else target
    return SquareMatrix(ctx, a.side, entries)


# -- inversion ----------------------------------------------------------------


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
    return pieces.values()


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


def _invert_piece(work, rows, cols, n):
    """Entries of B^-1 for the square piece B whose rows of [A | I] are work[rows].

    Fraction-free Gauss-Jordan leaves [d*I | d*B^-1] up to a row order, where
    d is the last pivot.  A unit pivot is scaled to 1 first: that is the same
    elimination run on B with one row scaled by a unit, so every division by
    the previous pivot stays exact.  None stands for a pivot of 1.
    """
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


def invert(a):
    """Exact inverse by fraction-free (Bareiss) elimination on each block.

    The rows and columns split into the connected pieces of the entry
    pattern, and each piece is inverted on its own, with one exact division
    by its last pivot.  Raises NonInvertible when the matrix is singular and
    InverseOutsideRing when its determinant is not a unit of the ring, so
    that the inverse needs rational functions.  The inverse is kept on ``a``
    and returned by later calls; a failure is raised again on every call.
    """
    if a._inverse is not None:
        return a._inverse
    n = a.side
    one = a.ctx.one()
    # row r of [A | I]: entry (r, c) of A under key c, the 1 of I under n + r
    work = [{n + r: one} for r in range(n)]
    for (r, c), v in a.entries.items():
        work[r][c] = v
    entries = {}
    for rows, cols in _pieces(a):
        if len(rows) != len(cols):
            raise NonInvertible("matrix is singular")
        try:
            entries.update(_invert_piece(work, rows, cols, n))
        except NotDivisible:
            raise InverseOutsideRing(
                "the determinant is not a unit; the inverse leaves the ring"
            ) from None
    a._inverse = SquareMatrix(a.ctx, n, entries)
    return a._inverse


# -- JSON form -----------------------------------------------------------------


def matrix_to_json(a):
    return {
        "side": a.side,
        "entries": [
            [r, c, scalar_to_json(a.entries[(r, c)])] for (r, c) in sorted(a.entries)
        ],
    }


def matrix_from_json(ctx, obj):
    """Inverse of matrix_to_json; ParseError naming the field on malformed input.

    A side outside 0..MAX_STATES raises DimensionMismatch before anything is built.
    """
    side = json_field(obj, "side", int, "matrix")
    if not 0 <= side <= MAX_STATES:
        raise DimensionMismatch(f"matrix side {side} outside 0..{MAX_STATES}, the cap on states")
    entries = {}
    for k, item in enumerate(json_field(obj, "entries", list, "matrix")):
        where = f"matrix.entries[{k}]"
        if not (isinstance(item, list) and len(item) == 3
                and type(item[0]) is type(item[1]) is int):
            raise ParseError(f"{where}: expected [row, column, scalar]")
        try:
            entries[(item[0], item[1])] = scalar_from_json(ctx, item[2])
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from None
    return SquareMatrix(ctx, side, entries)
