"""The two-dimensional R-matrix catalog, YBE checking, and symmetries.

Catalog entries are entered as 4x4 tables indexed by index *pairs* ordered
(++, -+, +-, --), i.e. with the first tensor factor as the minor digit.
``_load_pair_table`` reorders both axes into the package's big-endian pair
order on load; the remaining convention freedom (which axis is the input)
is fixed once here and used consistently by every other module, and either
choice yields the same invariants by the transpose symmetry.
"""

from ._record import Record
from .errors import DimensionMismatch, NotAUnit, PreconditionViolation, UnknownName
from .ring import ScalarContext, kronecker
from .tensor import (
    MAX_STATES, SquareMatrix, Verdict, _crossing_base, check_embedding, embed_generator, invert,
    kron, matmul, matmul_sub, matrix_from_json, matrix_substitute, scalar_scale,
)

# pair order (++, -+, +-, --) -> big-endian pair order (++, +-, -+, --)
_PAIR_REORDER = (0, 2, 1, 3)


def _load_pair_table(ctx, table):
    rows = [
        [table[_PAIR_REORDER[r]][_PAIR_REORDER[c]] for c in range(4)]
        for r in range(4)
    ]
    return SquareMatrix.from_rows(ctx, rows)


class RMatrixSpec(Record):
    """A named catalog solution with its context and nonsingularity limits."""

    _fields = ("name", "ctx", "matrix", "constraints")

    def __init__(self, name, ctx, matrix, constraints=()):
        # constraints: (generator, forbidden Scalar) pairs
        self.__dict__.update(name=name, ctx=ctx, matrix=matrix, constraints=constraints)


# name: (generators, table in pair order, generators that must be nonzero)
_CATALOG_TABLES = {
    "R3.1": (("p", "q", "s"), [[1, 0, 0, 0], [0, 0, "q", 0], [0, "p", 0, 0], [0, 0, 0, "s"]],
             ("p", "q", "s")),
    "R2.1": (("p", "q"), [[1, 0, 0, 0], [0, 0, "q", 0], [0, "p", "1-p*q", 0], [0, 0, 0, 1]],
             ("p", "q")),
    "R2.2": (("p", "q"), [[1, 0, 0, 0], [0, 0, "q", 0], [0, "p", "1-p*q", 0],
                          [0, 0, 0, "-p*q"]], ("p", "q")),
    "R2.3": (("p", "q"), [[1, 1, "p", "q"], [0, 0, 1, 1], [0, 1, 0, "p"], [0, 0, 0, 1]],
             ()),
    "R1.1": (("q",), [["1+2*q-q^2", 0, 0, "1-q^2"], [0, "1-q^2", "1+q^2", 0],
                      [0, "1+q^2", "1-q^2", 0], ["1-q^2", 0, 0, "1-2*q-q^2"]], ("q",)),
    "R1.2": (("q",), [[1, 0, 0, 1], [0, 0, "q", 0], [0, 1, "1-q", 0], [0, 0, 0, "-q"]],
             ("q",)),
    "R1.3": (("q",), [[1, 1, -1, "q"], [0, 0, 1, "-q"], [0, 1, 0, "q"], [0, 0, 0, 1]],
             ()),
    "R1.4": (("q",), [[0, 0, 0, "q"], [0, 1, 0, 0], [0, 0, 1, 0], ["q", 0, 0, 0]],
             ("q",)),
}

CATALOG_NAMES = tuple(_CATALOG_TABLES)

_cache = {}


def get_rmatrix(name):
    """The named catalog solution over its own fresh-parameter context."""
    if name not in _CATALOG_TABLES:
        raise UnknownName(f"no catalog matrix named {name!r}")
    if name not in _cache:
        gens, table, nonzero = _CATALOG_TABLES[name]
        ctx = ScalarContext(gens)
        matrix = _load_pair_table(ctx, table)
        constraints = tuple((g, ctx.zero()) for g in nonzero)
        _cache[name] = RMatrixSpec(name, ctx, matrix, constraints)
    return _cache[name]


def restricted_matrix(name, restrictions, ctx):
    """The named catalog matrix over ``ctx`` with each (generator, text)
    restriction substituted."""
    bindings = {g: ctx.parse(text) for g, text in restrictions}
    return matrix_substitute(get_rmatrix(name).matrix, bindings, ctx)


def check_ybe(r):
    """Braid-form Yang-Baxter check on the triple tensor power.

    Returns a truthy Verdict, or one with the smallest violated (row, col)
    as ``index`` and its nonzero residual scalar.  Raises DimensionMismatch,
    before anything is built, when r's side is no square b*b, when the b**3
    states of the triple power exceed MAX_STATES, or when R12 and R23 would
    hold more than MAX_ENTRIES; then ContextMismatch for an entry outside
    r's context.

    The residual R12 R23 R12 - R23 R12 R23 is P R12 - R23 P, P = R12 R23,
    and the rows of R12 and R23, lists of (column, int) pairs, are built
    from R's nonzero entries by index arithmetic.  Each residual entry is a
    signed sum of 2 * b**3 products of three entries of R, so
    ``ring.kronecker(ctx, entries, 2 * b**3)`` maps R's entries to ints on
    which P and the residual are exact int products and sums: an entry is
    zero exactly when its int is 0, and only the first nonzero one, the
    smallest violated index, is read back to a Scalar.  Where that map does
    not apply (roots, i, exponents near the edge of the range, ints above
    its bit cap), R12 and R23 are embedded as matrices, ``tensor.matmul``
    forms P and ``tensor.matmul_sub`` the residual.
    """
    base = _crossing_base(r.side)
    if base ** 3 > MAX_STATES:
        raise DimensionMismatch(
            f"the Yang-Baxter check on base {base} needs {base}^3 states, "
            f"above the cap of {MAX_STATES}"
        )
    check_embedding(len(r.entries), 3, r.side)
    ints = kronecker(r.ctx, r.entries, 2 * base ** 3)
    if ints is None:
        r12, r23 = embed_generator(r, 1, 3), embed_generator(r, 2, 3)
        p = matmul(r12, r23)
        diff = matmul_sub(p, r12, r23, p).entries
        if not diff:
            return Verdict(True)
        index = min(diff)
        return Verdict(False, index=index, residual=diff[index])
    ints, read, _ = ints
    # the rows of R12 and R23 on b**3 states, lists of (column, int), by index arithmetic
    r12, r23 = [[] for _ in range(base * r.side)], [[] for _ in range(base * r.side)]
    for (row, col), x in ints.items():
        for k in range(base):
            r12[row * base + k].append((col * base + k, x))
            r23[k * r.side + row].append((k * r.side + col, x))
    p = []
    for left in r12:
        acc = {}
        get = acc.get
        for mid, x in left:
            for col, y in r23[mid]:
                acc[col] = get(col, 0) + x * y
        p.append(list(acc.items()))
    for row, (left, right) in enumerate(zip(p, r23)):  # P R12 - R23 P, one row at a time
        acc = {}
        get = acc.get
        for mid, x in left:
            for col, y in r12[mid]:
                acc[col] = get(col, 0) + x * y
        for mid, x in right:
            for col, y in p[mid]:
                acc[col] = get(col, 0) - x * y
        cols = [col for col, v in acc.items() if v]
        if cols:
            return Verdict(False, index=(row, min(cols)), residual=read(acc[min(cols)]))
    return Verdict(True)


class TransformSpec(Record):
    """One of the four YBE-preserving transformations.

    kind 'similarity' uses the unit scalar kappa and invertible Q; 'shift'
    adds n to every tensor index mod the base dimension; 'transpose' and
    'flip' take no data.
    """

    _fields = ("kind", "kappa", "q", "n")

    def __init__(self, kind, kappa=None, q=None, n=0):
        self.__dict__.update(kind=kind, kappa=kappa, q=q, n=n)


def transform_rmatrix(r, t):
    """Apply a TransformSpec; the result is checked to still satisfy the YBE,
    else PreconditionViolation naming the check's first failing index.  A
    side that is no square b*b raises DimensionMismatch first."""
    matrix = r.matrix if isinstance(r, RMatrixSpec) else r
    base = _crossing_base(matrix.side)
    if t.kind == "similarity":
        if t.kappa is None or not t.kappa.is_unit():
            raise NotAUnit("similarity needs an invertible kappa")
        qq = kron(t.q, t.q)
        out = scalar_scale(matmul(matmul(qq, matrix), invert(qq)), t.kappa)
    elif t.kind == "transpose":
        out = matrix.transpose()
    elif t.kind in ("shift", "flip"):
        # the new index of each digit pair (hi, lo), listed at hi * base + lo
        pairs = [lo * base + hi if t.kind == "flip"
                 else (hi + t.n) % base * base + (lo + t.n) % base
                 for hi in range(base) for lo in range(base)]
        out = SquareMatrix(matrix.ctx, matrix.side, {
            (pairs[row], pairs[col]): v for (row, col), v in matrix.entries.items()})
    else:
        raise UnknownName(f"unknown transformation kind {t.kind!r}")
    verdict = check_ybe(out)
    if not verdict:
        raise PreconditionViolation(
            f"transformed matrix violates the YBE at {verdict.index}"
        )
    return out


def is_spin_preserving(matrix):
    """Whether every nonzero entry conserves the total +-1 spin of its pair."""
    if matrix.side != 4:
        raise DimensionMismatch("spin preservation is defined for side 4")
    for (row, col) in matrix.entries:
        rk, rl = divmod(row, 2)
        ck, cl = divmod(col, 2)
        if rk + rl != ck + cl:
            return False
    return True


def check_listed_positions(obj):
    """Raise DimensionMismatch when the matrix JSON ``obj`` has a side that is
    no square, or lists more positions than the packed R12 and R23 rows of
    ``check_ybe`` may hold.  Parses no scalar."""
    if isinstance(obj, dict):
        side, listed = obj.get("side"), obj.get("entries")
        if type(side) is int and 0 < side <= MAX_STATES and isinstance(listed, list):
            check_embedding(len(listed), 3, side)


def load_rmatrix_json(ctx, obj, checked=True):
    """Load a custom solution from the matrix JSON form.

    A side that is no square raises DimensionMismatch.  When ``checked``,
    non-solutions of the YBE are rejected, and a matrix listing more
    positions than the check's embeddings may store, or of a side that is no
    square, raises DimensionMismatch before any scalar is parsed.
    """
    if checked:
        check_listed_positions(obj)
    matrix = matrix_from_json(ctx, obj)
    _crossing_base(matrix.side)
    if checked:
        verdict = check_ybe(matrix)
        if not verdict:
            raise ValueError(
                f"matrix fails the Yang-Baxter check at {verdict.index}: "
                f"residual {verdict.residual}"
            )
    return matrix
