"""Diagonal and block dressings: embedding a solution into a larger dimension.

A dressing keeps the base solution on the index subset J and fills the
remaining index pairs with weighted swaps (diagonal case) or with the
F/G block data.  The compatibility conditions are checked by brute force
over index tuples, and the assembled matrix is re-checked against the YBE.

Both kinds of spec are validated by one function when they are built: J
must be distinct labels within 1..N, every swap weight a unit at a pair
within 1..N that the kind allows, and a block spec's F and G invertible and
of side |J|.

Index subsets and the s/f mappings are 1-indexed at the interface, matching
the JSON forms; internal tensor digits are 0-indexed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .catalog import check_ybe
from .errors import (
    ConditionViolation,
    DimensionMismatch,
    InverseOutsideRing,
    NonInvertible,
    ParseError,
    PreconditionViolation,
    UnknownName,
)
from .eyb import EnhancedOperator, get_table1_entry, verify_eyb
from .ring import ScalarContext, format_scalar, json_field
from .tensor import (
    MAX_STATES,
    SquareMatrix,
    invert,
    kron,
    matmul,
    matmul_sub,
    matrix_from_json,
    matrix_substitute,
    matrix_to_json,
)


def _validate(spec, weights, forbidden, why, blocks=()):
    """Normalise and check a spec in place; ValueError names what is wrong.

    J is sorted and must be distinct labels within 1..N.  Each (label,
    matrix) in ``blocks`` must be invertible over the ring and of side |J|.
    The field ``weights`` maps pairs within 1..N to scalars or scalar text;
    a pair for which ``forbidden(a, b)`` holds is refused with the phrase
    ``why``, and every weight must be a unit.
    """
    j = tuple(sorted(spec.j))
    if not all(1 <= a <= spec.n for a in j) or len(set(j)) != len(j):
        raise ValueError(f"bad index subset {spec.j}")
    object.__setattr__(spec, "j", j)
    for label, block in blocks:
        if block.side != len(j):
            raise ValueError(f"{label} has side {block.side}, not |J| = {len(j)}")
        try:
            invert(block)
        except (NonInvertible, InverseOutsideRing):
            raise ValueError(f"{label} must be invertible over the ring") from None
    parsed = {}
    for key, value in getattr(spec, weights).items():
        a, b = key
        if not (1 <= a <= spec.n and 1 <= b <= spec.n):
            raise ValueError(f"pair {key} lies outside 1..{spec.n}")
        if forbidden(a, b):
            raise ValueError(f"pair {key} {why}")
        weight = spec.ctx.parse(value) if isinstance(value, str) else value
        if not weight.is_unit():
            raise ValueError(f"swap weight for {key} must be invertible")
        parsed[(a, b)] = weight
    object.__setattr__(spec, weights, parsed)


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
        _validate(self, "s", lambda a, b: a in self.j and b in self.j,
                  "lies inside the embedded block")

    def weight(self, a, b):
        """s_{ab} for 1-indexed a, b; defaults to 1."""
        value = self.s.get((a, b))
        return self.ctx.one() if value is None else value


@dataclass(frozen=True)
class BlockDressingSpec:
    """Block data: commuting invertible F, G of side |J| on the embedded block
    and the swap weights f for pairs fully outside it.  J is checked as for a
    diagonal spec; F and G default to the identity."""

    ctx: ScalarContext
    n: int
    j: tuple
    f_block: SquareMatrix = None
    g_block: SquareMatrix = None
    f: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("f_block", "g_block"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, SquareMatrix.identity(self.ctx, len(self.j)))
        _validate(self, "f", lambda a, b: a in self.j or b in self.j,
                  "touches the embedded block", (("F", self.f_block), ("G", self.g_block)))

    def weight(self, a, b):
        value = self.f.get((a, b))
        return self.ctx.one() if value is None else value


def _relabelled(base, spec):
    """The base matrix over spec.ctx, and its entries with the base's labels
    0..|J|-1 moved to J - 1 in dimension spec.n."""
    matrix = base.matrix if hasattr(base, "matrix") else base
    if matrix.ctx != spec.ctx:
        matrix = matrix_substitute(matrix, {}, spec.ctx)
    m, n = len(spec.j), spec.n
    if matrix.side != m * m:
        raise DimensionMismatch("base side does not match the embedded subset")
    labels = [a - 1 for a in spec.j]
    entries = {}
    for (row, col), value in matrix.entries.items():
        ku, lu = divmod(row, m)
        iu, ju = divmod(col, m)
        entries[(labels[ku] * n + labels[lu], labels[iu] * n + labels[ju])] = value
    return matrix, entries


def _assembled(spec, entries, check):
    """The dressed matrix of ``entries``; when ``check``, ConditionViolation
    unless it solves the YBE."""
    dressed = SquareMatrix(spec.ctx, spec.n * spec.n, entries)
    if check:
        verdict = check_ybe(dressed, spec.n)
        if not verdict:
            raise ConditionViolation(
                f"dressed matrix fails the YBE, residual {format_scalar(verdict.residual)}",
                verdict.index,
            )
    return dressed


def _check_diagonal_conditions(base_matrix, spec):
    """The three swap-compatibility families, brute force over entries."""
    j, m = spec.j, len(spec.j)
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
    base_matrix, entries = _relabelled(base, spec)
    if check:
        _check_diagonal_conditions(base_matrix, spec)
    n = spec.n
    inside = set(a - 1 for a in spec.j)
    for i in range(n):
        for jj in range(n):
            if i in inside and jj in inside:
                continue
            entries[(jj * n + i, i * n + jj)] = spec.weight(jj + 1, i + 1)
    return _assembled(spec, entries, check)


def _check_block_conditions(base_matrix, spec):
    fb, gb = spec.f_block, spec.g_block
    ff = kron(fb, fb)
    gg = kron(gb, gb)
    ident = SquareMatrix.identity(spec.ctx, fb.side)
    f1 = kron(fb, ident)
    g1 = kron(gb, ident)
    one_f = kron(ident, fb)
    one_g = kron(ident, gb)
    # (message, a, b, c, d): the condition a b = c d
    checks = (
        ("F (x) F does not commute with the base", ff, base_matrix, base_matrix, ff),
        ("G (x) G does not commute with the base", gg, base_matrix, base_matrix, gg),
        ("mixed F/G exchange fails",
         matmul(f1, base_matrix), g1, matmul(one_g, base_matrix), one_f),
        ("F and G do not commute", fb, gb, gb, fb),
    )
    for message, *operands in checks:
        diff = matmul_sub(*operands)
        if not diff.is_zero():
            raise ConditionViolation(message, min(diff.entries))


def dress_block(base, spec, check=True):
    """Assemble the block-dressed matrix on dimension spec.n."""
    base_matrix, entries = _relabelled(base, spec)
    if check:
        _check_block_conditions(base_matrix, spec)
    n = spec.n
    labels = [a - 1 for a in spec.j]
    inside = set(labels)
    pos_of = {label: pos for pos, label in enumerate(labels)}
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
    return _assembled(spec, entries, check)


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
            letter = "s"
        else:
            for name, block in (("F", spec.f_block), ("G", spec.g_block)):
                if not matmul_sub(block, mu_base, mu_base, block).is_zero():
                    raise PreconditionViolation(
                        f"{name} must commute with the base weight"
                    )
            letter = "f"
        for a in range(1, n + 1):
            if a - 1 not in inside and spec.weight(a, a) != want:
                raise PreconditionViolation(
                    f"{letter}_{a}{a} must equal {sign}alpha for nontrivial padding"
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
        dressed = dress_diagonal(base_eyb.r, spec, check=True)
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
