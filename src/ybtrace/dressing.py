"""Diagonal and block dressings: embedding a solution into a larger dimension.

A dressing keeps the base solution on the index subset J and fills the
remaining index pairs with weighted swaps (diagonal case) or with the
F/G block data.  The compatibility conditions are checked by brute force
over index tuples, and the assembled matrix is re-checked against the YBE.

Index subsets and the s/f mappings are 1-indexed at the interface, matching
the JSON forms; internal tensor digits are 0-indexed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .catalog import check_ybe, get_rmatrix
from .errors import (
    ConditionViolation,
    DimensionMismatch,
    ParseError,
    PreconditionViolation,
    UnknownName,
)
from .eyb import EnhancedOperator, get_table1_entry, verify_eyb
from .ring import ScalarContext, format_scalar, json_field
from .tensor import (
    MAX_STATES,
    SquareMatrix,
    kron,
    matadd,
    matmul,
    matrix_from_json,
    matrix_substitute,
    scalar_scale,
)


@dataclass(frozen=True)
class DiagonalDressingSpec:
    """Target dimension, embedded index subset, and the swap weights.

    ``s`` maps 1-indexed pairs (a, b) to the weight of the swap sending
    input (b, a) to output (a, b); pairs inside J x J are forbidden and
    unspecified pairs default to 1.
    """

    ctx: ScalarContext
    n: int
    j: tuple
    s: dict = field(default_factory=dict)

    def __post_init__(self):
        j = tuple(sorted(self.j))
        object.__setattr__(self, "j", j)
        if not all(1 <= a <= self.n for a in j) or len(set(j)) != len(j):
            raise ValueError(f"bad index subset {self.j}")
        parsed = {}
        for key, value in self.s.items():
            a, b = key
            if a in j and b in j:
                raise ValueError(f"pair {key} lies inside the embedded block")
            weight = self.ctx.parse(value) if isinstance(value, str) else value
            if not weight.is_unit():
                raise ValueError(f"swap weight for {key} must be invertible")
            parsed[(a, b)] = weight
        object.__setattr__(self, "s", parsed)

    def weight(self, a, b):
        """s_{ab} for 1-indexed a, b; defaults to 1."""
        value = self.s.get((a, b))
        return self.ctx.one() if value is None else value


@dataclass(frozen=True)
class BlockDressingSpec:
    """Block data: commuting invertible F, G on the embedded block and the
    swap weights f for pairs fully outside it."""

    ctx: ScalarContext
    n: int
    j: tuple
    f_block: SquareMatrix = None
    g_block: SquareMatrix = None
    f: dict = field(default_factory=dict)

    def __post_init__(self):
        j = tuple(sorted(self.j))
        object.__setattr__(self, "j", j)
        m = len(j)
        fb = self.f_block if self.f_block is not None else SquareMatrix.identity(self.ctx, m)
        gb = self.g_block if self.g_block is not None else SquareMatrix.identity(self.ctx, m)
        from .tensor import invert
        from .errors import InverseOutsideRing, NonInvertible

        for label, block in (("F", fb), ("G", gb)):
            try:
                invert(block)
            except (NonInvertible, InverseOutsideRing):
                raise ValueError(f"{label} must be invertible over the ring") from None
        object.__setattr__(self, "f_block", fb)
        object.__setattr__(self, "g_block", gb)
        parsed = {}
        for key, value in self.f.items():
            a, b = key
            if a in j or b in j:
                raise ValueError(f"pair {key} touches the embedded block")
            weight = self.ctx.parse(value) if isinstance(value, str) else value
            if not weight.is_unit():
                raise ValueError(f"swap weight for {key} must be invertible")
            parsed[(a, b)] = weight
        object.__setattr__(self, "f", parsed)

    def weight(self, a, b):
        value = self.f.get((a, b))
        return self.ctx.one() if value is None else value


def _base_entries(base, ctx, target_ctx):
    matrix = base.matrix if hasattr(base, "matrix") else base
    if matrix.ctx != target_ctx:
        matrix = matrix_substitute(matrix, {}, target_ctx)
    return matrix


def _check_diagonal_conditions(base_matrix, spec, m):
    """The three swap-compatibility families, brute force over entries."""
    j = spec.j
    outside = [a for a in range(1, spec.n + 1) if a not in j]
    for (row, col), value in base_matrix.entries.items():
        ku, lu = divmod(row, m)
        iu, ju = divmod(col, m)
        k, l, i, jj = j[ku], j[lu], j[iu], j[ju]
        for mm in outside:
            checks = (
                (spec.weight(i, mm) * spec.weight(jj, mm),
                 spec.weight(k, mm) * spec.weight(l, mm)),
                (spec.weight(mm, i) * spec.weight(k, mm),
                 spec.weight(jj, mm) * spec.weight(mm, l)),
                (spec.weight(mm, l) * spec.weight(mm, k),
                 spec.weight(mm, jj) * spec.weight(mm, i)),
            )
            for which, (lhs, rhs) in enumerate(checks, start=1):
                if lhs != rhs:
                    raise ConditionViolation(
                        f"swap-compatibility family {which} fails",
                        (i, jj, k, l, mm),
                    )


def dress_diagonal(base, spec, check=True):
    """Assemble the diagonally dressed matrix on dimension spec.n.

    When ``check``, the compatibility families and the YBE are verified
    symbolically; violations raise ConditionViolation with the indices.
    """
    ctx = spec.ctx
    base_matrix = _base_entries(base, getattr(base, "ctx", None), ctx)
    m = len(spec.j)
    if base_matrix.side != m * m:
        raise DimensionMismatch("base side does not match the embedded subset")
    if check:
        _check_diagonal_conditions(base_matrix, spec, m)
    n = spec.n
    jmap = {pos: label - 1 for pos, label in enumerate(spec.j)}
    entries = {}
    for (row, col), value in base_matrix.entries.items():
        ku, lu = divmod(row, m)
        iu, ju = divmod(col, m)
        nrow = jmap[ku] * n + jmap[lu]
        ncol = jmap[iu] * n + jmap[ju]
        entries[(nrow, ncol)] = value
    inside = set(a - 1 for a in spec.j)
    for i in range(n):
        for jj in range(n):
            if i in inside and jj in inside:
                continue
            entries[(jj * n + i, i * n + jj)] = spec.weight(jj + 1, i + 1)
    dressed = SquareMatrix(ctx, n * n, entries)
    if check:
        verdict = check_ybe(dressed, n)
        if not verdict:
            raise ConditionViolation(
                f"dressed matrix fails the YBE, residual {format_scalar(verdict.residual)}",
                verdict.index,
            )
    return dressed


def _check_block_conditions(base_matrix, spec):
    fb, gb = spec.f_block, spec.g_block
    ff = kron(fb, fb)
    gg = kron(gb, gb)
    pairs = (
        ("F (x) F does not commute with the base", matmul(ff, base_matrix), matmul(base_matrix, ff)),
        ("G (x) G does not commute with the base", matmul(gg, base_matrix), matmul(base_matrix, gg)),
    )
    ident = SquareMatrix.identity(spec.ctx, fb.side)
    f1 = kron(fb, ident)
    g1 = kron(gb, ident)
    one_f = kron(ident, fb)
    one_g = kron(ident, gb)
    pairs += (
        ("mixed F/G exchange fails",
         matmul(matmul(f1, base_matrix), g1),
         matmul(matmul(one_g, base_matrix), one_f)),
        ("F and G do not commute", matmul(fb, gb), matmul(gb, fb)),
    )
    for message, lhs, rhs in pairs:
        diff = matadd(lhs, scalar_scale(rhs, spec.ctx.scalar(-1)))
        if not diff.is_zero():
            raise ConditionViolation(message, sorted(diff.entries)[0])


def dress_block(base, spec, check=True):
    """Assemble the block-dressed matrix on dimension spec.n."""
    ctx = spec.ctx
    base_matrix = _base_entries(base, getattr(base, "ctx", None), ctx)
    m = len(spec.j)
    if base_matrix.side != m * m:
        raise DimensionMismatch("base side does not match the embedded subset")
    if check:
        _check_block_conditions(base_matrix, spec)
    n = spec.n
    labels = [a - 1 for a in spec.j]
    inside = set(labels)
    pos_of = {label: pos for pos, label in enumerate(labels)}
    entries = {}
    for (row, col), value in base_matrix.entries.items():
        ku, lu = divmod(row, m)
        iu, ju = divmod(col, m)
        entries[(labels[ku] * n + labels[lu], labels[iu] * n + labels[ju])] = value
    for i in range(n):
        for jj in range(n):
            i_in, j_in = i in inside, jj in inside
            if i_in and j_in:
                continue
            if i_in and not j_in:
                # output (j, l) for l in the block, weighted by F
                for l in labels:
                    value = spec.f_block.entries.get((pos_of[l], pos_of[i]))
                    if value is not None:
                        entries[(jj * n + l, i * n + jj)] = value
            elif j_in and not i_in:
                for k in labels:
                    value = spec.g_block.entries.get((pos_of[k], pos_of[jj]))
                    if value is not None:
                        entries[(k * n + i, i * n + jj)] = value
            else:
                entries[(jj * n + i, i * n + jj)] = spec.weight(i + 1, jj + 1)
    dressed = SquareMatrix(ctx, n * n, entries)
    if check:
        verdict = check_ybe(dressed, n)
        if not verdict:
            raise ConditionViolation(
                f"dressed matrix fails the YBE, residual {format_scalar(verdict.residual)}",
                verdict.index,
            )
    return dressed


def _is_diagonal(matrix):
    return all(r == c for (r, c) in matrix.entries)


def dressed_eyb(base_eyb, dressed, spec, mode="nontrivial", sign="+", check=True):
    """Extend the base weight matrix across the dressing.

    In trivial mode the weight is padded with zeros and every invariant
    equals the undressed one.  In nontrivial mode the padding is sign*beta,
    allowed only when the diagonal weights at the padded indices equal
    sign*alpha (and, for block dressings, when F and G commute with the
    base weight).
    """
    ctx = spec.ctx
    n = spec.n
    labels = [a - 1 for a in spec.j]
    inside = set(labels)
    mu_base = base_eyb.mu
    if mu_base.ctx != ctx:
        mu_base = matrix_substitute(mu_base, {}, ctx)
    entries = {}
    for (r, c), value in mu_base.entries.items():
        entries[(labels[r], labels[c])] = value
    if mode == "nontrivial":
        signum = 1 if sign == "+" else -1
        want = base_eyb.alpha if signum > 0 else -base_eyb.alpha
        if isinstance(spec, DiagonalDressingSpec):
            if not _is_diagonal(mu_base):
                raise PreconditionViolation(
                    "nontrivial diagonal dressing requires a diagonal base weight"
                )
            for a in range(1, n + 1):
                if a - 1 in inside:
                    continue
                if spec.weight(a, a) != want:
                    raise PreconditionViolation(
                        f"s_{a}{a} must equal {sign}alpha for nontrivial padding"
                    )
        else:
            fb, gb = spec.f_block, spec.g_block
            for name, block in (("F", fb), ("G", gb)):
                diff = matadd(
                    matmul(block, mu_base),
                    scalar_scale(matmul(mu_base, block), ctx.scalar(-1)),
                )
                if not diff.is_zero():
                    raise PreconditionViolation(
                        f"{name} must commute with the base weight"
                    )
            for a in range(1, n + 1):
                if a - 1 in inside:
                    continue
                if spec.weight(a, a) != want:
                    raise PreconditionViolation(
                        f"f_{a}{a} must equal {sign}alpha for nontrivial padding"
                    )
        pad = base_eyb.beta if signum > 0 else -base_eyb.beta
        for a in range(n):
            if a not in inside:
                entries[(a, a)] = pad
    elif mode != "trivial":
        raise UnknownName(f"mode must be 'trivial' or 'nontrivial', got {mode!r}")
    mu = SquareMatrix(ctx, n, entries)
    op = EnhancedOperator(dressed, mu, base_eyb.alpha, base_eyb.beta)
    if check:
        verdict = verify_eyb(op)
        if not verdict:
            raise PreconditionViolation(
                f"dressed operator fails condition {verdict.condition}"
            )
    return op


@dataclass(frozen=True)
class DressedPreset:
    name: str
    ctx: ScalarContext
    spec: DiagonalDressingSpec
    matrix: SquareMatrix
    eyb: EnhancedOperator
    base_rmatrix: str
    base_row: int


_PRESETS = {
    "d3_R21": (
        "R2.1", 1,
        ("p", "q", "a", "b", "y"),
        3, (1, 3),
        {(1, 2): "b*y", (2, 3): "a*y", (2, 1): "a", (3, 2): "b",
         (2, 2): "sqrt_pq^-1"},
    ),
    "d3_R22": (
        "R2.2", 1,
        ("p", "q", "a", "b", "y"),
        3, (1, 3),
        {(1, 2): "a", (2, 3): "b", (2, 1): "b*y", (3, 2): "a*y",
         (2, 2): "sqrt_pq"},
    ),
    "d4_R22": (
        "R2.2", 1,
        ("p", "q", "a", "b", "y", "c", "d", "g", "h", "w"),
        4, (1, 3),
        {(1, 2): "a", (1, 4): "c", (2, 3): "b", (2, 4): "h", (3, 4): "d",
         (2, 1): "b*y", (4, 1): "d*w", (3, 2): "a*y", (4, 2): "g",
         (4, 3): "c*w", (2, 2): "sqrt_pq", (4, 4): "sqrt_pq"},
    ),
}

_preset_cache = {}


def preset_names():
    return tuple(_PRESETS)


def preset_dressings(name):
    """One of the ready-made diagonal dressings, fully assembled and verified."""
    if name not in _PRESETS:
        raise UnknownName(f"no preset dressing named {name!r}")
    if name not in _preset_cache:
        base_name, base_row, gens, n, j, s = _PRESETS[name]
        ctx = ScalarContext(gens, (("sqrt_pq", "p*q"),))
        base_eyb = get_table1_entry(base_name, base_row).build(ctx=ctx)
        spec = DiagonalDressingSpec(ctx, n, j, s)
        base_matrix = matrix_substitute(get_rmatrix(base_name).matrix, {}, ctx)
        dressed = dress_diagonal(base_matrix, spec, check=True)
        op = dressed_eyb(base_eyb, dressed, spec, mode="nontrivial", sign="+")
        _preset_cache[name] = DressedPreset(
            name, ctx, spec, dressed, op, base_name, base_row
        )
    return _preset_cache[name]


# -- JSON forms ----------------------------------------------------------------


_PAIR_KEY_RE = re.compile(r"([0-9]+),([0-9]+)")


def _spec_fields(obj, weights_key):
    """(N, J, weights) of a spec object, each checked; ParseError names the field.

    N is capped so that the dressed matrix has at most MAX_STATES rows.
    """
    n = json_field(obj, "N", int, "spec")
    if n < 1:
        raise ParseError("spec.N: expected a positive integer")
    if n * n > MAX_STATES:
        raise DimensionMismatch(
            f"spec.N = {n} gives {n}^2 states, above the cap of {MAX_STATES}"
        )
    j = json_field(obj, "J", list, "spec")
    if not all(type(a) is int for a in j):
        raise ParseError("spec.J: expected a list of integers")
    weights = {}
    for key, text in json_field(obj, weights_key, dict, "spec", {}).items():
        m = _PAIR_KEY_RE.fullmatch(key)
        if m is None:
            raise ParseError(f"spec.{weights_key}: key {key!r:.40} is not of the form 'a,b'")
        if not isinstance(text, str):
            raise ParseError(f"spec.{weights_key}.{key}: expected scalar text")
        weights[(int(m[1]), int(m[2]))] = text
    return n, tuple(j), weights


def diagonal_spec_from_json(ctx, obj):
    """Inverse of diagonal_spec_to_json; ParseError on malformed input."""
    n, j, s = _spec_fields(obj, "s")
    try:
        return DiagonalDressingSpec(ctx, n, j, s)
    except ValueError as exc:
        raise ParseError(f"spec: {exc}") from None


def diagonal_spec_to_json(spec):
    return {
        "N": spec.n,
        "J": list(spec.j),
        "s": {
            f"{a},{b}": format_scalar(v)
            for (a, b), v in sorted(spec.s.items())
        },
    }


def block_spec_from_json(ctx, obj):
    """Inverse of block_spec_to_json; ParseError on malformed input."""
    n, j, f = _spec_fields(obj, "f")
    blocks = []
    for key in ("F", "G"):
        if key not in obj:
            blocks.append(None)
            continue
        try:
            blocks.append(matrix_from_json(ctx, obj[key]))
        except ParseError as exc:
            raise ParseError(f"spec.{key}: {exc}") from None
    try:
        return BlockDressingSpec(ctx, n, j, *blocks, f)
    except ValueError as exc:
        raise ParseError(f"spec: {exc}") from None


def block_spec_to_json(spec):
    from .tensor import matrix_to_json

    return {
        "N": spec.n,
        "J": list(spec.j),
        "F": matrix_to_json(spec.f_block),
        "G": matrix_to_json(spec.g_block),
        "f": {
            f"{a},{b}": format_scalar(v)
            for (a, b), v in sorted(spec.f.items())
        },
    }
