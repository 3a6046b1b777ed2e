"""The two-dimensional R-matrix catalog, YBE checking, and symmetries.

Catalog entries are entered as 4x4 tables indexed by index *pairs* ordered
(++, -+, +-, --), i.e. with the first tensor factor as the minor digit.
``_load_pair_table`` reorders both axes into the package's big-endian pair
order on load; the remaining convention freedom (which axis is the input)
is fixed once here and used consistently by every other module, and either
choice yields the same invariants by the transpose symmetry.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

from .errors import DimensionMismatch, NotAUnit, PreconditionViolation, UnknownName
from .ring import Scalar, ScalarContext
from .tensor import (
    MAX_STATES,
    SquareMatrix,
    Verdict,
    check_embedding,
    embed_generator,
    invert,
    kron,
    matmul,
    matmul_sub,
    matrix_from_json,
    matrix_substitute,
    scalar_scale,
)

# pair order (++, -+, +-, --) -> big-endian pair order (++, +-, -+, --)
_PAIR_REORDER = (0, 2, 1, 3)


def _load_pair_table(ctx, table):
    rows = [
        [table[_PAIR_REORDER[r]][_PAIR_REORDER[c]] for c in range(4)]
        for r in range(4)
    ]
    return SquareMatrix.from_rows(ctx, rows)


@dataclass(frozen=True)
class RMatrixSpec:
    """A named catalog solution with its context and nonsingularity limits."""

    name: str
    base_dim: int
    ctx: ScalarContext
    matrix: SquareMatrix
    constraints: tuple = ()  # (generator, forbidden Scalar) pairs


_CATALOG_TABLES = {
    "R3.1": (
        ("p", "q", "s"),
        [[1, 0, 0, 0], [0, 0, "q", 0], [0, "p", 0, 0], [0, 0, 0, "s"]],
        ("p", "q", "s"),
    ),
    "R2.1": (
        ("p", "q"),
        [[1, 0, 0, 0], [0, 0, "q", 0], [0, "p", "1-p*q", 0], [0, 0, 0, 1]],
        ("p", "q"),
    ),
    "R2.2": (
        ("p", "q"),
        [[1, 0, 0, 0], [0, 0, "q", 0], [0, "p", "1-p*q", 0], [0, 0, 0, "-p*q"]],
        ("p", "q"),
    ),
    "R2.3": (
        ("p", "q"),
        [[1, 1, "p", "q"], [0, 0, 1, 1], [0, 1, 0, "p"], [0, 0, 0, 1]],
        (),
    ),
    "R1.1": (
        ("q",),
        [
            ["1+2*q-q^2", 0, 0, "1-q^2"],
            [0, "1-q^2", "1+q^2", 0],
            [0, "1+q^2", "1-q^2", 0],
            ["1-q^2", 0, 0, "1-2*q-q^2"],
        ],
        ("q",),
    ),
    "R1.2": (
        ("q",),
        [[1, 0, 0, 1], [0, 0, "q", 0], [0, 1, "1-q", 0], [0, 0, 0, "-q"]],
        ("q",),
    ),
    "R1.3": (
        ("q",),
        [[1, 1, -1, "q"], [0, 0, 1, "-q"], [0, 1, 0, "q"], [0, 0, 0, 1]],
        (),
    ),
    "R1.4": (
        ("q",),
        [[0, 0, 0, "q"], [0, 1, 0, 0], [0, 0, 1, 0], ["q", 0, 0, 0]],
        ("q",),
    ),
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
        _cache[name] = RMatrixSpec(name, 2, ctx, matrix, constraints)
    return _cache[name]


def restricted_matrix(name, restrictions, ctx):
    """The named catalog matrix over ``ctx`` with each (generator, text)
    restriction substituted."""
    bindings = {g: ctx.parse(text) for g, text in restrictions}
    return matrix_substitute(get_rmatrix(name).matrix, bindings, ctx)


def check_ybe(r, base=None):
    """Braid-form Yang-Baxter check on the triple tensor power.

    Returns a truthy Verdict, or one with the smallest violated (row, col)
    as ``index`` and its nonzero residual scalar.  Raises DimensionMismatch,
    before anything is built, when the base**3 states of the triple power
    exceed MAX_STATES.

    Both sides share the product P = R12 R23, formed once: the residual
    R12 R23 R12 - R23 R12 R23 is P R12 - R23 P by associativity, taken by
    one ``matmul_sub``.
    """
    if base is None:
        base = math.isqrt(r.side)
    if base * base != r.side:
        raise DimensionMismatch(f"side {r.side} is not a perfect square")
    if base ** 3 > MAX_STATES:
        raise DimensionMismatch(
            f"the Yang-Baxter check on base {base} needs {base}^3 states, "
            f"above the cap of {MAX_STATES}"
        )
    r12 = embed_generator(r, 1, 3, base)
    r23 = embed_generator(r, 2, 3, base)
    p = matmul(r12, r23)
    diff = matmul_sub(p, r12, r23, p)
    if diff.is_zero():
        return Verdict(True)
    index = min(diff.entries)
    return Verdict(False, index=index, residual=diff.entries[index])


@dataclass(frozen=True)
class TransformSpec:
    """One of the four YBE-preserving transformations.

    kind 'similarity' uses the unit scalar kappa and invertible Q; 'shift'
    adds n to every tensor index mod the base dimension; 'transpose' and
    'flip' take no data.
    """

    kind: str
    kappa: Scalar = None
    q: SquareMatrix = None
    n: int = 0


def transform_rmatrix(r, t, base=None):
    """Apply a TransformSpec; the result is checked to still satisfy the YBE,
    else PreconditionViolation naming the check's first failing index."""
    matrix = r.matrix if isinstance(r, RMatrixSpec) else r
    if base is None:
        base = math.isqrt(matrix.side)
    if t.kind == "similarity":
        if t.kappa is None or not t.kappa.is_unit():
            raise NotAUnit("similarity needs an invertible kappa")
        qq = kron(t.q, t.q)
        out = scalar_scale(matmul(matmul(qq, matrix), invert(qq)), t.kappa)
    elif t.kind == "transpose":
        out = matrix.transpose()
    elif t.kind == "shift":
        entries = {}
        for (row, col), v in matrix.entries.items():
            rk, rl = divmod(row, base)
            ck, cl = divmod(col, base)
            nrow = ((rk + t.n) % base) * base + (rl + t.n) % base
            ncol = ((ck + t.n) % base) * base + (cl + t.n) % base
            entries[(nrow, ncol)] = v
        out = SquareMatrix(matrix.ctx, matrix.side, entries)
    elif t.kind == "flip":
        entries = {}
        for (row, col), v in matrix.entries.items():
            rk, rl = divmod(row, base)
            ck, cl = divmod(col, base)
            entries[(rl * base + rk, cl * base + ck)] = v
        out = SquareMatrix(matrix.ctx, matrix.side, entries)
    else:
        raise UnknownName(f"unknown transformation kind {t.kind!r}")
    verdict = check_ybe(out, base)
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
    """Raise DimensionMismatch when the matrix JSON ``obj`` lists more positions
    than the embeddings of ``check_ybe`` may store.  Parses no scalar."""
    if isinstance(obj, dict):
        side, listed = obj.get("side"), obj.get("entries")
        if type(side) is int and 0 < side <= MAX_STATES and isinstance(listed, list):
            check_embedding(len(listed), 3, math.isqrt(side))


def load_rmatrix_json(ctx, obj, checked=True):
    """Load a custom solution from the matrix JSON form.

    When ``checked``, non-solutions of the YBE are rejected, and a matrix
    listing more positions than the check's embeddings may store raises
    DimensionMismatch before any scalar is parsed.
    """
    if checked:
        check_listed_positions(obj)
    matrix = matrix_from_json(ctx, obj)
    base = math.isqrt(matrix.side)
    if base * base != matrix.side:
        raise DimensionMismatch(f"side {matrix.side} is not a perfect square")
    if checked:
        verdict = check_ybe(matrix, base)
        if not verdict:
            raise ValueError(
                f"matrix fails the Yang-Baxter check at {verdict.index}: "
                f"residual {verdict.residual}"
            )
    return matrix
