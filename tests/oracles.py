"""Independent oracles used by the test suite.

These deliberately avoid the library's composition helpers: the YBE oracle
contracts tensor indices with explicit sums over nonzero entries, and the
skein oracle computes the one-variable invariant by descending-diagram
induction on braid closures, using no matrices at all, and
``nabla_by_burau`` computes it as a Burau determinant over int Laurent
dicts, with no state sum.  ``dressed_sectors`` splits a dressed
operator's trace into its color sectors with the diagonal insertions on
the block's strands kept as they come.  ``is_rank_one`` decides a
weight's rank one by its 2x2 minors, with no factorization.  The
Kronecker-power contractions form mu^(x n) and the product with it, and
are the reference for ``weighted_trace_sequential``, the weighted trace
the invariant tests close a whole word's matrix with; the engine builds
mu^(x k) only row by row, as the half-word closure's weight.  The
``*_sequential`` contractions add each product to its entry with +, as the
library did before it summed each entry with ``ring.dot``, and
``matmul_sub_by_pairs`` is the product residual written out with no
``tensor`` helper, one ``ring.dot`` per entry, and ``check_ybe_by_embedding``
the Yang-Baxter check on embedded matrices, the reference of its integer
route; ``keyed_sums`` is a keyed loop the ring once had, the reference of
``tensor._sums``.
``apply_at_sequential``, the image of a vector under a crossing at two
slots, is the reference of ``tensor.embed_generator``.  The checked inverse and division are the ring's routes before its fast paths.  The
term-dict arithmetic, over the Fraction-based GaussianRational below, is
the reference for the ring's packed terms and int coefficients, and the
``*_by_exps`` text forms at the end are the scalar text and JSON as the
packed ring printed and read them before their fast paths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import or_

from ybtrace.errors import ContextMismatch, DimensionMismatch, ParseError
from ybtrace.ring import (
    _BIAS, _NUMERAL_RE, _OUTSIDE, _coeff, _from_terms, _scalar, _settle, dot, json_field,
)
from ybtrace.tensor import (
    MAX_STATES, SquareMatrix, Verdict, _check_ctx, _check_operands, _crossing_base, _slot_base,
    embed_generator, invert, kron, matmul, matmul_sub,
)


def ybe_residuals(matrix, base):
    """Nonzero entries of R12 R23 R12 - R23 R12 R23, by explicit index sums.

    ``matrix.entries[(row, col)]`` is read as the coefficient sending input
    pair col to output pair row, pairs big-endian.  Returns a dict keyed by
    ((x1,x2,x3),(y1,y2,y3)).
    """
    items = [
        ((divmod(r, base)), (divmod(c, base)), v)
        for (r, c), v in matrix.entries.items()
    ]
    acc = {}

    def add(key, value):
        if key in acc:
            total = acc[key] + value
            if total.is_zero():
                del acc[key]
            else:
                acc[key] = total
        elif not value.is_zero():
            acc[key] = value

    # lhs[(x1,x2,x3),(y1,y2,y3)] = sum R[(x1,x2),(m1,m2)] R[(m2,x3),(n2,y3)]
    #                                  R[(m1,n2),(y1,y2)]
    for (x1, x2), (m1, m2), v1 in items:
        for (r2a, x3), (n2, y3), v2 in items:
            if r2a != m2:
                continue
            v12 = v1 * v2
            for (r3a, r3b), (y1, y2), v3 in items:
                if r3a != m1 or r3b != n2:
                    continue
                add(((x1, x2, x3), (y1, y2, y3)), v12 * v3)
    # rhs[(x1,x2,x3),(y1,y2,y3)] = sum R[(x2,x3),(m2,m3)] R[(x1,m2),(y1,n2)]
    #                                  R[(n2,m3),(y2,y3)]
    for (x2, x3), (m2, m3), v1 in items:
        for (r2a, r2b), (y1, n2), v2 in items:
            if r2b != m2:
                continue
            x1 = r2a
            v12 = v1 * v2
            for (r3a, r3b), (y2, y3), v3 in items:
                if r3a != n2 or r3b != m3:
                    continue
                add(((x1, x2, x3), (y1, y2, y3)), -(v12 * v3))
    return acc


def _closure_visits(strands, word):
    """Crossing visits along the closure traversal, and the component count.

    Components start at their smallest top position, in increasing order.
    Each crossing is visited twice; a visit records (letter index, is_over).
    For a positive letter the strand entering at the higher position passes
    over; negative letters swap the roles.
    """
    visits = []
    seen_tops = set()
    components = 0
    for start in range(1, strands + 1):
        if start in seen_tops:
            continue
        components += 1
        pos = start
        while True:
            seen_tops.add(pos)
            for t, letter in enumerate(word):
                k = abs(letter)
                if pos == k:
                    visits.append((t, letter < 0))
                    pos = k + 1
                elif pos == k + 1:
                    visits.append((t, letter > 0))
                    pos = k
            if pos == start:
                break
    return visits, components


def _first_bad_crossing(strands, word):
    visits, components = _closure_visits(strands, word)
    first_seen = set()
    for t, is_over in visits:
        if t in first_seen:
            continue
        first_seen.add(t)
        if not is_over:
            return t, components
    return None, components


def conway_polynomial(strands, word):
    """Invariant of the braid closure as a dict {z-exponent: int}.

    Induction: switch the first crossing met on its understrand (the switched
    diagram is closer to descending), smooth it (one crossing fewer);
    descending closures are unlinks, valued 1 for one component, else 0.
    """
    memo = {}

    def poly_add(a, b, scale=1):
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + scale * c
            if not out[e]:
                del out[e]
        return out

    def shift(a, by):
        return {e + by: c for e, c in a.items()}

    def rec(word):
        key = word
        if key in memo:
            return memo[key]
        bad, components = _first_bad_crossing(strands_of(word), word)
        if bad is None:
            result = {0: 1} if components == 1 else {}
        else:
            sign = 1 if word[bad] > 0 else -1
            switched = word[:bad] + (-word[bad],) + word[bad + 1:]
            smoothed = word[:bad] + word[bad + 1:]
            # positive bad crossing: f(w) = f(switched) + z f(smoothed)
            result = poly_add(rec(switched), shift(rec(smoothed), 1), sign)
        memo[key] = result
        return result

    def strands_of(_word):
        return strands

    return rec(tuple(word))


def conway_in_t(ctx, poly):
    """Evaluate a {z-exponent: int} polynomial at z = t - 1/t."""
    t = ctx.gen("t")
    z = t - ctx.gen("t", -1)
    total = ctx.zero()
    for e, c in poly.items():
        term = ctx.scalar(c)
        for _ in range(e):
            term = term * z
        total = total + term
    return total


def _state_loops(strands, word, choices):
    """Loop count of one smoothing state of the braid closure diagram."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    m = len(word)
    for t, letter in enumerate(word):
        k = abs(letter)
        for j in range(1, strands + 1):
            if j not in (k, k + 1):
                union((t, j), (t + 1, j))
        if choices[t]:
            union((t, k), (t, k + 1))
            union((t + 1, k), (t + 1, k + 1))
        else:
            union((t, k), (t + 1, k))
            union((t, k + 1), (t + 1, k + 1))
    for j in range(1, strands + 1):
        union((m, j), (0, j))
    return len({find(x) for x in list(parent)})


def bracket_jones(ctx_a, strands, word):
    """Normalized bracket-polynomial invariant of the braid closure, in A.

    A planar state sum with no matrices: each crossing is smoothed both
    ways, weighted A or 1/A, each extra loop contributes -A^2 - A^-2, and
    the writhe factor (-A^3)^(-w) normalizes.  The unknot maps to 1.
    """
    a = ctx_a.gen("A")
    delta = ctx_a.parse("-A^2 - A^-2")
    total = ctx_a.zero()
    m = len(word)
    for mask in range(1 << m):
        choices = [(mask >> t) & 1 for t in range(m)]
        weight = ctx_a.one()
        for t, letter in enumerate(word):
            vertical = not choices[t]
            positive = letter > 0
            exponent = 1 if (vertical == positive) else -1
            weight = weight * ctx_a.gen("A", exponent)
        loops = _state_loops(strands, word, choices)
        term = weight
        for _ in range(loops - 1):
            term = term * delta
        total = total + term
    writhe = sum(1 if k > 0 else -1 for k in word)
    from ybtrace.ring import pow_int

    factor = pow_int(ctx_a.parse("-A^3"), -writhe)
    return factor * total


def equal_up_to_unit(a, b):
    """Whether a = (+-) t^k b, including both zero."""
    from ybtrace.ring import try_div_exact
    from ybtrace.errors import NotDivisible

    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    try:
        q = try_div_exact(a, b)
    except NotDivisible:
        return False
    if len(q.terms) != 1:
        return False
    (_, (re, im)), = q.terms.items()
    return im == 0 and abs(re) == 1


# -- the Burau determinant --------------------------------------------------------


def _laurent_mul(a, b):
    """The product of two Laurent polynomials {exponent: int}."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _laurent_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _laurent_det(rows):
    """The determinant of a square matrix of Laurent polynomials, by
    expansion along its first row."""
    if not rows:
        return {0: 1}
    total = {}
    for col, entry in enumerate(rows[0]):
        if entry:
            minor = [row[:col] + row[col + 1:] for row in rows[1:]]
            total = _laurent_add(total, _laurent_mul(entry, _laurent_det(minor)),
                                 -1 if col % 2 else 1)
    return total


def nabla_by_burau(strands, word):
    """``alexander_nabla`` of the closure of ``word`` on ``strands``
    strands, as {t-exponent: int}, by the unreduced Burau matrix and no
    state sum.

    psi(b) is the product, in word order, of the n x n matrices that are
    the identity but on rows and columns i, i+1, where sigma_i puts
    [[1 - x, x], [1, 0]] and sigma_i^-1 puts [[0, 1], [x^-1, 1 - x^-1]].  D
    is the determinant of I - psi(b) with its last row and column deleted,
    a Laurent polynomial in x = t^2, and the value is
    (-1)^(c - 1) t^-(w + n - 1) D for c components and writhe w (Burau
    1936; Birman, "Braids, links, and mapping class groups", Thm 3.11).
    """
    n = strands
    psi = [[{0: 1} if r == c else {} for c in range(n)] for r in range(n)]
    for letter in word:
        i = abs(letter) - 1
        block = ([[{0: 1, 1: -1}, {1: 1}], [{0: 1}, {}]] if letter > 0
                 else [[{}, {0: 1}], [{-1: 1}, {0: 1, -1: -1}]])
        # psi <- psi G: only columns i and i + 1 change
        for row in psi:
            a, b = row[i], row[i + 1]
            row[i], row[i + 1] = (
                _laurent_add(_laurent_mul(a, block[0][k]), _laurent_mul(b, block[1][k]))
                for k in (0, 1))
    minor = [[_laurent_add({0: 1} if r == c else {}, psi[r][c], -1) for c in range(n - 1)]
             for r in range(n - 1)]
    d = _laurent_det(minor)
    position, components, seen = list(range(n)), 0, set()
    for letter in word:
        i = abs(letter) - 1
        position[i], position[i + 1] = position[i + 1], position[i]
    for start in range(n):
        if start not in seen:
            components += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = position[k]
    writhe = sum(1 if letter > 0 else -1 for letter in word)
    sign = -1 if components % 2 == 0 else 1
    return {2 * e - (writhe + n - 1): sign * c for e, c in d.items()}


# -- the color sectors of a dressed operator --------------------------------------


def dressed_sectors(op, block, word):
    """Tr(rep(word) mu^(x n)) of an operator whose R is a weighted swap on
    every pair of labels not both in ``block`` and whose mu is diagonal,
    split into sectors: {coloring: share of the trace}, a coloring giving
    each component of the closure, in the order of its least strand, an
    outside label or None for the block.  A sector multiplies the swap
    weights of the crossings of two outside strands and their mu entries
    by the trace, on the block's strands alone, of the product in word
    order of R's block where two block strands cross and, where a block
    strand crosses an outside one, of the diagonal of that crossing's
    weights over the block's labels, on the block strand: the diagonal
    insertions as they come, with no gauge.  R^-1 is ``tensor.invert``'s.
    A letter's strands are followed by hand, and the block's matrices are
    explicit Kronecker products."""
    base, ctx, strands = op.mu.side, op.ctx, word.strands
    inside = sorted(block)
    m, index = len(inside), {x: i for i, x in enumerate(inside)}
    outside = [o for o in range(base) if o not in index]
    crossings = {1: op.r, -1: invert(op.r) if any(k < 0 for k in word.letters) else None}

    def weight(sign, row, col):
        return crossings[sign].entries.get((row[0] * base + row[1], col[0] * base + col[1]),
                                           ctx.zero())

    for row, col in op.r.entries:
        (a, b), (c, d) = divmod(row, base), divmod(col, base)
        assert {a, b, c, d} <= set(inside) or (c, d) == (b, a), "not a swap outside the block"
    assert all(r == c for r, c in op.mu.entries), "mu is not diagonal"
    restricted = {sign: SquareMatrix(ctx, m * m, {
        (index[a] * m + index[b], index[c] * m + index[d]): weight(sign, (a, b), (c, d))
        for a in inside for b in inside for c in inside for d in inside
        if not weight(sign, (a, b), (c, d)).is_zero()})
        for sign, matrix in crossings.items() if matrix is not None}

    # the closure joins the strand ending at each position to the one starting there
    ends = list(range(strands))
    for k in word.letters:
        ends[abs(k) - 1], ends[abs(k)] = ends[abs(k)], ends[abs(k) - 1]
    component, count = {}, 0
    for start in range(strands):
        if start not in component:
            strand = start
            while strand not in component:
                component[strand], strand = count, ends[strand]
            count += 1
    mu_block = SquareMatrix.diagonal(ctx, [op.mu.get(x, x) for x in inside])
    sectors = {}
    for coloring in product(outside + [None], repeat=count):
        color = [coloring[component[s]] for s in range(strands)]
        k = color.count(None)
        scalar, matrix = ctx.one(), SquareMatrix.identity(ctx, m ** k)
        at = list(range(strands))
        for letter in word.letters:
            i, sign = abs(letter) - 1, 1 if letter > 0 else -1
            left, right = color[at[i]], color[at[i + 1]]
            j = sum(color[at[p]] is None for p in range(i))  # block strands left of i
            if left is None and right is None:
                factor = embed_generator(restricted[sign], j + 1, k)
            elif left is None or right is None:
                o = right if left is None else left
                pairs = [((x, o), (o, x)) if left is None else ((o, x), (x, o)) for x in inside]
                factor = kron(kron(SquareMatrix.identity(ctx, m ** j), SquareMatrix.diagonal(
                    ctx, [weight(sign, row, col) for row, col in pairs])),
                    SquareMatrix.identity(ctx, m ** (k - j - 1)))
            else:
                scalar, factor = scalar * weight(sign, (left, right), (right, left)), None
            if factor is not None:
                matrix = matmul(matrix, factor)
            at[i], at[i + 1] = at[i + 1], at[i]
        for c in color:
            if c is not None:
                scalar = scalar * op.mu.get(c, c)
        if k:
            scalar = scalar * trace_product(matrix, kron_power(mu_block, k))
        sectors[coloring] = scalar
    return sectors


def is_rank_one(mu):
    """Whether the matrix ``mu`` has rank one, by its 2x2 minors: mu is not
    zero, and mu[r, c] mu[s, d] = mu[r, d] mu[s, c] for all r < s, c < d."""
    pairs = list(combinations(range(mu.side), 2))
    return bool(mu.entries) and all(mu.get(r, c) * mu.get(s, d) == mu.get(r, d) * mu.get(s, c)
                                    for r, s in pairs for c, d in pairs)


# -- Kronecker-power contractions ----------------------------------------------


def kron_power(a, n):
    if n == 0:
        return SquareMatrix.identity(a.ctx, 1)
    result = a
    for _ in range(n - 1):
        result = kron(result, a)
    return result


def trace_product(a, b):
    """trace(matmul(a, b)) without forming the product."""
    _check_ctx(a, b)
    if a.side != b.side:
        raise DimensionMismatch(f"sides differ: {a.side} vs {b.side}")
    total = a.ctx.zero()
    for (r, c), va in a.entries.items():
        vb = b.entries.get((c, r))
        if vb is not None:
            total = total + va * vb
    return total


def _split_index(pos, base, arity):
    digits = []
    for _ in range(arity):
        pos, d = divmod(pos, base)
        digits.append(d)
    digits.reverse()
    return tuple(digits)


def partial_trace(a, slots, base):
    """Contract the named tensor slots (1-indexed); returns the rest.

    Tracing every slot yields a 1x1 matrix holding the full trace.
    """
    arity = 0
    side = a.side
    while side > 1:
        if side % base:
            raise DimensionMismatch(f"side {a.side} is not a power of {base}")
        side //= base
        arity += 1
    slots = sorted(set(slots))
    if any(not 1 <= s <= arity for s in slots):
        raise DimensionMismatch(f"slots {slots} outside 1..{arity}")
    keep = [s for s in range(1, arity + 1) if s not in slots]
    out_side = base ** len(keep)
    entries = {}
    for (r, c), v in a.entries.items():
        rd = _split_index(r, base, arity)
        cd = _split_index(c, base, arity)
        if any(rd[s - 1] != cd[s - 1] for s in slots):
            continue
        row = 0
        col = 0
        for s in keep:
            row = row * base + rd[s - 1]
            col = col * base + cd[s - 1]
        key = (row, col)
        if key in entries:
            entries[key] = entries[key] + v
        else:
            entries[key] = v
    return SquareMatrix(a.ctx, out_side, entries)


# -- contractions summed one product at a time ----------------------------------
#
# The library's matmul, the push of a vector through a crossing at two slots
# and weighted_trace (the last two since removed; an embedding multiplies a
# crossing in, and verify_eyb contracts its one traced slot itself) as they
# were before their entries became one ring.dot each: every product is added
# to its entry's running Scalar with +.


def matmul_sequential(a, b):
    _check_ctx(a, b)
    if a.side != b.side:
        raise DimensionMismatch(f"sides differ: {a.side} vs {b.side}")
    b_rows = {}
    for (r, c), v in b.entries.items():
        b_rows.setdefault(r, []).append((c, v))
    acc = {}
    for (r, k), va in a.entries.items():
        for c, vb in b_rows.get(k, ()):
            key = (r, c)
            prod = va * vb
            acc[key] = acc[key] + prod if key in acc else prod
    return SquareMatrix(a.ctx, a.side, acc)


def apply_at_sequential(r, i, n, vec):
    base = _slot_base(r, i, n)
    right = base ** (n - i - 1)
    column = {}
    for (rr, rc), v in r.entries.items():
        column.setdefault(rc, []).append((rr, v))
    out = {}
    for state, x in vec.items():
        head, low = divmod(state, right)
        head, pair = divmod(head, r.side)
        for row, v in column.get(pair, ()):
            key = (head * r.side + row) * right + low
            term = v * x
            out[key] = out[key] + term if key in out else term
    return {k: v for k, v in out.items() if not v.is_zero()}


def weighted_trace_sequential(a, mu, slots):
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
    traced = [s in slots for s in range(arity, 0, -1)]
    entries = {}
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
        w = a.ctx.one()
        for _ in range(len(slots)):  # mu[c_s, r_s] over the traced digits
            factor = mu.entries.get((ct % base, rt % base))
            if factor is None:
                break
            w = w * factor
            rt, ct = rt // base, ct // base
        else:
            term = v * w
            key = (rk, ck)
            entries[key] = entries[key] + term if key in entries else term
    return SquareMatrix(a.ctx, base ** (arity - len(slots)), entries)


def matmul_sub_by_pairs(a, b, c, d):
    """a*b - c*d with each output entry's (x, y) pairs listed, every entry of
    c negated into a new Scalar, and summed by one ``ring.dot`` (a lone pair
    by *): ``tensor.matmul_sub``'s route, written out with no ``tensor``
    helper."""
    for other in (b, c, d):
        _check_ctx(a, other)
        if a.side != other.side:
            raise DimensionMismatch(f"sides differ: {a.side} vs {other.side}")
    pairs = {}
    for x, y, negate in ((a, b, False), (c, d, True)):
        y_rows = {}
        for (r, k), v in y.entries.items():
            y_rows.setdefault(r, []).append((k, v))
        for (r, k), v in x.entries.items():
            v = -v if negate else v
            for col, w in y_rows.get(k, ()):
                pairs.setdefault((r, col), []).append((v, w))
    return SquareMatrix(a.ctx, a.side, {
        key: p[0][0] * p[0][1] if len(p) == 1 else dot(a.ctx, p) for key, p in pairs.items()})



def check_ybe_by_embedding(r):
    """``catalog.check_ybe`` on embedded matrices: R12 and R23 embedded by
    ``tensor.embed_generator``, P = R12 R23 by ``tensor.matmul`` and the
    residual P R12 - R23 P by ``tensor.matmul_sub``, with the same refusals
    first.  It is the reference of the integer route.  The check's fallback
    is this same route, so its reference is ``test_dot._check_ybe_sequential``,
    which sums the products one at a time."""
    base = _crossing_base(r.side)
    if base ** 3 > MAX_STATES:
        raise DimensionMismatch(
            f"the Yang-Baxter check on base {base} needs {base}^3 states, "
            f"above the cap of {MAX_STATES}"
        )
    r12 = embed_generator(r, 1, 3)
    r23 = embed_generator(r, 2, 3)
    p = matmul(r12, r23)
    diff = matmul_sub(p, r12, r23, p)
    if diff.is_zero():
        return Verdict(True)
    index = min(diff.entries)
    return Verdict(False, index=index, residual=diff.entries[index])

# -- the keyed loop the ring once had ---------------------------------------------
#
# A sum per key as the ring formed it before ``tensor._sums`` took one
# ``ring.dot`` per key: ``keyed_sums``, with a running denominator per key.


def settled(ctx, acc, den):
    """(acc, den) with the guard-bit keys of a raw accumulator, changed in
    place, settled; ``den`` grows when a radicand has a denominator.  Zeros
    may remain."""
    guard = ctx._layout.guard
    flagged = [(k, c) for k, c in acc.items() if k & guard]
    for k, _ in flagged:
        del acc[k]
    return _settle(ctx, flagged, acc, den)


def keyed_sums(ctx, products):
    """{key: sum of sign * x * y over the (key, x, x denominator, y, sign)
    ``products``}, holding only the nonzero sums: the ring's keyed loop as
    it once was.

    x is a raw {packed key: int numerator} dict and y a Scalar, which must
    lie in ``ctx`` (ContextMismatch otherwise).  Each key is ``dot`` with its
    own accumulator and running denominator, and the sign is part of the
    scale, so nothing is negated.  A zero, and a term product that hits a
    guard bit, stay in the accumulator until the key's one ``_settle``, zero
    drop and gcd at the end, so a product past the exponent range raises
    ExponentOverflow even when it cancels.
    """
    zero, guard = ctx._layout.zero, ctx._layout.guard
    sums = {}  # key -> [accumulator, running denominator]
    for key, x, dx, y, sign in products:
        if y.ctx is not ctx and y.ctx != ctx:
            raise ContextMismatch(f"contexts differ: {ctx!r} vs {y.ctx!r}")
        d = dx * y._den
        state = sums.get(key)
        if state is None:
            state = sums[key] = [{}, d]
        acc, den = state
        if den % d:  # over the lcm of the denominators
            up = d // math.gcd(den, d)
            den = state[1] = den * up
            for k in acc:
                acc[k] *= up
        scale = sign * (den // d)
        get = acc.get
        y_items = y._nums.items()
        for k1, c1 in x.items():
            k1 -= zero
            c1 *= scale
            for k2, c2 in y_items:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    out = {}
    for key, (acc, den) in sums.items():
        if reduce(or_, acc, 0) & guard:
            acc, den = settled(ctx, acc, den)
        if any(acc.values()):
            if not all(acc.values()):
                acc = {k: c for k, c in acc.items() if c}
            out[key] = _scalar(ctx, acc, den)
    return out


def dot_entries_by_keyed_sums(ctx, plus, minus):
    """{key: sum of x * y over plus' (key, x, y) triples minus the same sum over
    minus'}, holding only the nonzero sums; ContextMismatch for a scalar
    outside ``ctx``.  One ``keyed_sums``, a minus triple's sign in its scale.
    """
    products = []
    for triples, sign in ((plus, 1), (minus, -1)):
        for key, x, y in triples:
            if x.ctx is not ctx and x.ctx != ctx:
                raise ContextMismatch(f"contexts differ: {ctx!r} vs {x.ctx!r}")
            products.append((key, x._nums, x._den, y, sign))
    return keyed_sums(ctx, products)


# -- matrix difference -----------------------------------------------------------
#
# No library code calls it; the tests state residuals with it.


def matsub(a, b):
    """a - b; ``tensor.matmul_sub`` takes the residual of a product identity."""
    _check_operands(a, b)
    acc = dict(a.entries)
    for key, v in b.entries.items():
        acc[key] = acc[key] - v if key in acc else -v
    return SquareMatrix(a.ctx, a.side, acc)


# -- the ring's checked routes ---------------------------------------------------
# Inverses and exact division as ``ring`` computed them before it inverted a
# unit by key arithmetic and trusted the long division's zero remainder: the
# reference for ``ring.pow_int`` and ``ring.try_div_exact``.


def pow_by_squaring(x, k):
    """x^k for k >= 0 by Scalar products, squaring x: the route ``ring.pow_int``
    takes for a scalar that is not one root-free monomial."""
    result, base = x.ctx.one(), x
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def pow_int_by_terms(x, k):
    """x^k by squaring.  A negative power first rebuilds the inverse monomial
    from x's doubled exponent tuple with ``ring._from_terms``: the generators'
    exponents negated and the coefficient inverted, times radicand^-1 for
    each root, itself inverted by this route."""
    from ybtrace import ring
    from ybtrace.errors import NotAUnit

    if k >= 0:
        return pow_by_squaring(x, k)
    if x.term_count() != 1:
        raise NotAUnit(f"negative power of non-unit {ring.format_scalar(x)}")
    ctx = x.ctx
    ngens = len(ctx.generators)
    (exps, a, b), = ring._sorted_terms(x)
    radicand_inverses = [pow_int_by_terms(ring._radicand(ctx, pos - ngens), -1)
                         for pos in range(ngens, len(exps)) if exps[pos]]
    d = x._den  # 1 / ((a + b*i)/d) = (d*a - d*b*i) / (a^2 + b^2)
    inv_exps = tuple(-e if pos < ngens else e for pos, e in enumerate(exps))
    inv = ring._from_terms(ctx, [(inv_exps, (d * a, -d * b, a * a + b * b))])
    for factor in radicand_inverses:
        inv = inv * factor
    return pow_by_squaring(inv, -k)


def checked_try_div_exact(num, den):
    """num / den by one route for every divisor, units included: rationalize
    against each root from the innermost outward, long-divide each root
    pattern of the numerator, and multiply the quotient back."""
    from ybtrace import ring
    from ybtrace.errors import NotDivisible

    den = num._coerce(den)
    ctx = num.ctx
    if den.is_zero():
        raise ZeroDivisionError("division by zero scalar")
    if num.is_zero():
        return ctx.zero()
    layout = ctx._layout
    ngens, total = layout.ngens, layout.total_shift
    work_num, work_den = num, den
    for j in range(len(ctx.root_names) - 1, -1, -1):
        root_bit = 2 << layout.shifts[ngens + j]
        strip = root_bit + (2 << total)
        d0_nums, d1_nums = {}, {}
        for k, v in work_den._nums.items():
            if k & root_bit:
                d1_nums[k - strip] = v
            else:
                d0_nums[k] = v
        if not d1_nums:
            continue
        root = ctx.gen(ctx.root_names[j])
        d0 = ring._scalar(ctx, d0_nums, work_den._den)
        d1 = ring._scalar(ctx, d1_nums, work_den._den)
        rad = ctx._radicands[j]
        if d0.is_zero():
            work_num = work_num * root
            work_den = d1 * rad
        else:
            conj = d0 - root * d1
            work_num = work_num * conj
            work_den = d0 * d0 - rad * d1 * d1
        if work_den.is_zero():
            raise NotDivisible("denominator is a zero divisor of the root extension")
    components, offsets = {}, {}
    for k, v in work_num._nums.items():
        pattern = k & layout.root_fields
        offset = offsets.get(pattern)
        if offset is None:
            degree = sum((pattern >> s) & 7 for s in layout.shifts[ngens:])
            offset = offsets[pattern] = pattern + (degree << total)
        components.setdefault(offset, {})[k - offset] = v
    quotient = ctx.zero()
    for offset, part in components.items():
        quot, scale = ring._laurent_div(layout, part, work_den._nums)
        quotient = quotient + ring._scalar(
            ctx, {k + offset: v * work_den._den for k, v in quot.items()},
            scale * work_num._den)
    if quotient * den != num:
        raise NotDivisible("no exact quotient")
    return quotient


# -- Fraction coefficients -------------------------------------------------------


def _fraction_sqrt(x):
    """Exact square root of a nonnegative Fraction, or None."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


class GaussianRational:
    """A number a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self):
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.re / norm, -self.im / norm)

    def sqrt(self):
        """Exact square root if one exists in Q(i), else None.  Positive branch."""
        if self.im == 0:
            if self.re >= 0:
                r = _fraction_sqrt(self.re)
                return GaussianRational(r) if r is not None else None
            r = _fraction_sqrt(-self.re)
            return GaussianRational(0, r) if r is not None else None
        return None

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


# -- term-dict ring arithmetic ---------------------------------------------------
#
# The ring's arithmetic as it was when a Scalar stored its terms as a dict
# {doubled exponent tuple: GaussianRational}: the reference for the packed
# keys and shared denominator of ``ring.Scalar``.  Each function takes and
# returns such dicts, with the GaussianRational above; ``ctx`` supplies the
# names and the radicands.  ``terms_of`` turns a Scalar into one, and
# ``pairs`` turns one into the {exps: (re, im)} input of ``Scalar(ctx, ...)``.


def terms_of(x):
    """The term dict of a Scalar."""
    return {exps: GaussianRational(re, im) for exps, (re, im) in x.terms.items()}


def pairs(terms):
    """A term dict with (re, im) pairs for coefficients."""
    return {exps: (c.re, c.im) for exps, c in terms.items()}


def _term_add(acc, exps, coeff):
    prev = acc.get(exps)
    total = coeff if prev is None else prev + coeff
    if total:
        acc[exps] = total
    elif prev is not None:
        del acc[exps]


def terms_add(a, b):
    big, small = (a, b)
    if len(big) < len(small):
        big, small = small, big
    acc = dict(big)
    for exps, coeff in small.items():
        _term_add(acc, exps, coeff)
    return acc


def terms_neg(a):
    return {e: -c for e, c in a.items()}


def terms_sub(a, b):
    return terms_add(a, terms_neg(b))


def terms_canonical(ctx, items, acc=None):
    """Merge raw (exps, coeff) pairs into canonical form, reducing roots."""
    from ybtrace.errors import NotAUnit

    ngens = len(ctx.generators)
    nroots = len(ctx.root_names)
    if acc is None:
        acc = {}
    pending = list(items)
    while pending:
        exps, coeff = pending.pop()
        if not coeff:
            continue
        bad = -1
        for j in range(nroots - 1, -1, -1):
            d = exps[ngens + j]
            if d not in (0, 2):
                bad = j
                break
        if bad < 0:
            _term_add(acc, exps, coeff)
            continue
        pos = ngens + bad
        d = exps[pos]
        if d % 2:
            raise NotAUnit(f"fractional power of root {ctx.root_names[bad]!r}")
        k, rho = divmod(d // 2, 2)
        base = list(exps)
        base[pos] = 2 * rho
        factor = terms_pow_int(ctx, terms_of(ctx._radicands[bad]), k)
        for fexps, fcoeff in factor.items():
            combined = tuple(b + f for b, f in zip(base, fexps))
            pending.append((combined, coeff * fcoeff))
    return acc


def terms_mul(ctx, a, b):
    if not a or not b:
        return {}
    ngens = len(ctx.generators)
    acc = {}
    squares = []
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            coeff = c1 * c2
            if 4 in exps[ngens:]:
                squares.append((exps, coeff))
                continue
            _term_add(acc, exps, coeff)
    return terms_canonical(ctx, squares, acc)


def terms_pow_int(ctx, x, k):
    """Exact integer power.  Negative powers require a unit base."""
    from ybtrace.errors import NotAUnit

    if k == 0:
        return {(0,) * len(ctx.names): GaussianRational(1)}
    if k > 0:
        result = None
        base = x
        while k:
            if k & 1:
                result = base if result is None else terms_mul(ctx, result, base)
            k >>= 1
            if k:
                base = terms_mul(ctx, base, base)
        return result
    if len(x) != 1:
        raise NotAUnit("negative power of a non-unit")
    (exps, coeff), = x.items()
    inv = terms_canonical(ctx, [(tuple(-e for e in exps), coeff.inverse())])
    return terms_pow_int(ctx, inv, -k)


def _grlex_key(exps):
    return (sum(exps), exps)


def terms_laurent_div(ctx, num_terms, den_terms):
    """Exact division of root-free term dicts; raises NotDivisible."""
    from ybtrace.errors import NotDivisible

    if not num_terms:
        return {}
    width = len(ctx.names)
    den_min = [min(e[k] for e in den_terms) for k in range(width)]
    num_min = [min(e[k] for e in num_terms) for k in range(width)]
    den0 = {tuple(e[k] - den_min[k] for k in range(width)): c for e, c in den_terms.items()}
    rem = {tuple(e[k] - num_min[k] for k in range(width)): c for e, c in num_terms.items()}
    shift = tuple(n - d for n, d in zip(num_min, den_min))
    lt_den = max(den0, key=_grlex_key)
    lt_den_coeff = den0[lt_den]
    quot = {}
    while rem:
        lt_rem = max(rem, key=_grlex_key)
        diff = tuple(a - b for a, b in zip(lt_rem, lt_den))
        if any(d < 0 for d in diff):
            raise NotDivisible("no exact quotient")
        coeff = rem[lt_rem] * lt_den_coeff.inverse()
        quot[diff] = coeff
        for e, c in den0.items():
            key = tuple(a + b for a, b in zip(diff, e))
            prev = rem.get(key)
            total = (-(coeff * c)) if prev is None else prev - coeff * c
            if total:
                rem[key] = total
            elif prev is not None:
                del rem[key]
    return {tuple(a + b for a, b in zip(e, shift)): c for e, c in quot.items()}


def terms_try_div_exact(ctx, num, den):
    """Quotient q with q*den == num, or NotDivisible; roots rationalized first."""
    from ybtrace.errors import NotDivisible

    if not den:
        raise ZeroDivisionError("division by zero scalar")
    if not num:
        return {}
    ngens = len(ctx.generators)
    work_num, work_den = num, den
    for j in range(len(ctx.root_names) - 1, -1, -1):
        pos = ngens + j
        d0, d1 = {}, {}
        for exps, coeff in work_den.items():
            if exps[pos]:
                stripped = exps[:pos] + (0,) + exps[pos + 1:]
                d1[stripped] = coeff
            else:
                d0[exps] = coeff
        if not d1:
            continue
        root_exps = [0] * len(ctx.names)
        root_exps[pos] = 2
        root = {tuple(root_exps): GaussianRational(1)}
        rad = terms_of(ctx._radicands[j])
        if not d0:
            work_num = terms_mul(ctx, work_num, root)
            work_den = terms_mul(ctx, d1, rad)
        else:
            conj = terms_sub(d0, terms_mul(ctx, root, d1))
            work_num = terms_mul(ctx, work_num, conj)
            work_den = terms_sub(terms_mul(ctx, d0, d0),
                                 terms_mul(ctx, terms_mul(ctx, rad, d1), d1))
        if not work_den:
            raise NotDivisible("denominator is a zero divisor of the root extension")
    components = {}
    for exps, coeff in work_num.items():
        pattern = exps[ngens:]
        stripped = exps[:ngens] + (0,) * len(ctx.root_names)
        components.setdefault(pattern, {})[stripped] = coeff
    result = {}
    for pattern, terms in components.items():
        part = terms_laurent_div(ctx, terms, work_den)
        for exps, coeff in part.items():
            if any(exps[ngens:]):
                raise NotDivisible("no exact quotient")
            result[exps[:ngens] + pattern] = coeff
    quotient = terms_canonical(ctx, list(result.items()))
    if terms_mul(ctx, quotient, den) != num:
        raise NotDivisible("no exact quotient")
    return quotient


def _terms_pow_half(ctx, x, doubled):
    """x raised to doubled/2.  Odd values need a monomial with an exact root."""
    from ybtrace.errors import NotAUnit

    if doubled % 2 == 0:
        return terms_pow_int(ctx, x, doubled // 2)
    if len(x) != 1:
        raise NotAUnit("half power of non-monomial")
    (exps, coeff), = x.items()
    root_coeff = coeff.sqrt()
    if root_coeff is None or any(e % 2 for e in exps):
        raise NotAUnit("no exact square root")
    ngens = len(ctx.generators)
    if any(exps[k] for k in range(ngens, len(exps))):
        raise NotAUnit("half power of root factor")
    half = {tuple(e // 2 for e in exps): root_coeff}
    return terms_mul(ctx, terms_pow_int(ctx, x, (doubled - 1) // 2), half)


def terms_substitute(ctx, terms, bindings, target):
    """Homomorphic substitution of generators; ``bindings`` maps names to scalars."""
    from ybtrace.errors import NotAUnit

    ngens = len(ctx.generators)
    one = (0,) * len(target.names)
    factor_cache = {}

    def factor_image(pos):
        cached = factor_cache.get(pos)
        if cached is not None:
            return cached
        if pos < ngens:
            name = ctx.generators[pos]
            image = terms_of(bindings[name] if name in bindings else target.gen(name))
        else:
            rad = apply(terms_of(ctx._radicands[pos - ngens]))
            image = None
            for k, tname in enumerate(target.root_names):
                if terms_of(target._radicands[k]) == rad:
                    image = terms_of(target.gen(tname))
                    break
            if image is None:
                try:
                    image = _terms_pow_half(target, rad, 1)
                except NotAUnit:
                    raise NotAUnit("no representation for the square root") from None
        factor_cache[pos] = image
        return image

    def apply(y):
        result = {}
        for exps, coeff in y.items():
            term = {one: coeff}
            for pos, d in enumerate(exps):
                if d:
                    term = terms_mul(target, term, _terms_pow_half(target, factor_image(pos), d))
            result = terms_add(result, term)
        return result

    return apply(terms)


def _format_coeff(c):
    if c.im == 0:
        return str(c.re), False
    if c.re == 0:
        if c.im == 1:
            return "i", False
        if c.im == -1:
            return "-i", False
        return f"{c.im}*i", False
    im = f"{c.im}*i" if c.im not in (1, -1) else ("i" if c.im == 1 else "-i")
    if c.im > 0:
        return f"({c.re}+{im})", True
    return f"({c.re}{im})", True


def terms_format(ctx, terms):
    """Canonical text form, terms in ascending graded-lexicographic order."""
    if not terms:
        return "0"
    pieces = []
    for exps in sorted(terms, key=_grlex_key):
        factors = []
        for name, d in zip(ctx.names, exps):
            if d == 0:
                continue
            if d == 2:
                factors.append(name)
            elif d % 2 == 0:
                factors.append(f"{name}^{d // 2}")
            else:
                factors.append(f"{name}^({d}/2)")
        mono = "*".join(factors)
        ctext, _ = _format_coeff(terms[exps])
        if not mono:
            text = ctext
        elif ctext == "1":
            text = mono
        elif ctext == "-1":
            text = "-" + mono
        else:
            text = f"{ctext}*{mono}"
        pieces.append(text)
    out = pieces[0]
    for text in pieces[1:]:
        if text.startswith("-") and not text.startswith("-("):
            out += " - " + text[1:]
        else:
            out += " + " + text
    return out


def terms_to_json(ctx, terms):
    """{"terms": [{"re", "im", "exps"}...]} with exact strings, grlex order."""
    return {"terms": [
        {"re": str(terms[exps].re), "im": str(terms[exps].im),
         "exps": {name: str(Fraction(d, 2)) for name, d in zip(ctx.names, exps) if d}}
        for exps in sorted(terms, key=_grlex_key)
    ]}


# -- scalar text as the packed ring printed it before its fast paths ------------


def _packed_terms_by_exps(x):
    """(doubled exponent tuple, a, b) per monomial of the packed scalar x, with
    (a + b*i)/x._den its coefficient, in ascending key order."""
    layout, nums = x.ctx._layout, x._nums
    out = []
    for k in sorted(nums):
        if k & 1:
            if k - 1 in nums:
                continue
            a, b = 0, nums[k]
        else:
            a, b = nums[k], nums.get(k + 1, 0)
        out.append((layout.exps(k), a, b))
    return out


def _packed_rational(n, d):
    return n // d if n % d == 0 else Fraction(n, d)


def _packed_format_coeff(re, im):
    if im == 0:
        return str(re)
    itext = "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
    if re == 0:
        return itext
    return f"({re}+{itext})" if im > 0 else f"({re}{itext})"


def format_scalar_by_exps(x):
    """``ring.format_scalar`` as it was before its integer-constant text and
    its field-by-field exponent reads: every monomial through an exponent
    tuple and every coefficient through ``Fraction`` when not integral."""
    if not x._nums:
        return "0"
    names, den = x.ctx.names, x._den
    pieces = []
    for exps, a, b in _packed_terms_by_exps(x):
        factors = []
        for name, d in zip(names, exps):
            if d == 0:
                continue
            if d == 2:
                factors.append(name)
            elif d % 2 == 0:
                factors.append(f"{name}^{d // 2}")
            else:
                factors.append(f"{name}^({d}/2)")
        mono = "*".join(factors)
        ctext = _packed_format_coeff(_packed_rational(a, den), _packed_rational(b, den))
        if not mono:
            text = ctext
        elif ctext == "1":
            text = mono
        elif ctext == "-1":
            text = "-" + mono
        else:
            text = f"{ctext}*{mono}"
        pieces.append(text)
    out = pieces[0]
    for text in pieces[1:]:
        if text.startswith("-") and not text.startswith("-("):
            out += " - " + text[1:]
        else:
            out += " + " + text
    return out


def scalar_to_json_by_exps(x):
    """``ring.scalar_to_json`` as it was before its field-by-field exponent reads."""
    terms, den = [], x._den
    for exps, a, b in _packed_terms_by_exps(x):
        terms.append({
            "re": str(_packed_rational(a, den)),
            "im": str(_packed_rational(b, den)),
            "exps": {name: str(d // 2) if d % 2 == 0 else f"{d}/2"
                     for name, d in zip(x.ctx.names, exps) if d},
        })
    return {"terms": terms}


def _numeral_by_fraction(text, where):
    """The int or Fraction written as ``-?digits(/digits)?``, the form the writers emit."""
    if not isinstance(text, str) or not _NUMERAL_RE.fullmatch(text):
        raise ParseError(f"{where}: expected a numeral such as '-3/2', got {text!r:.40}")
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else int(num)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def scalar_from_json_by_exps(ctx, obj):
    """``ring.scalar_from_json`` as it was before it built packed keys from the
    layout's fields: an exponent tuple and a Fraction coefficient per term,
    through ``ring._from_terms``, with each field path formatted per term."""
    ngens = len(ctx.generators)
    raw = []
    for k, entry in enumerate(json_field(obj, "terms", list, "scalar")):
        where = f"scalar.terms[{k}]"
        exps_obj = json_field(entry, "exps", dict, where, {})
        coeff = _coeff((_numeral_by_fraction(entry.get("re", "0"), where + ".re"),
                        _numeral_by_fraction(entry.get("im", "0"), where + ".im")))
        exps = [0] * len(ctx.names)
        for name, etext in exps_obj.items():
            if name not in ctx._index:
                raise ParseError(f"{where}.exps: unknown generator {name!r:.40}")
            d = _numeral_by_fraction(etext, f"{where}.exps.{name}") * 2
            if d.denominator != 1:
                raise ParseError(f"{where}.exps.{name}: {etext} is not a half-integer")
            pos = ctx._index[name]
            if pos >= ngens and d not in (0, 2):
                raise ParseError(f"{where}.exps.{name}: a root's exponent is 0 or 1")
            if not -_BIAS <= d < _BIAS:
                raise ParseError(f"{where}.exps.{name}: {_OUTSIDE}")
            exps[pos] = int(d)
        raw.append((tuple(exps), coeff))
    return _from_terms(ctx, raw)
