"""Diagonal dressings: embedding a solution into a larger dimension.

A dressing keeps the base solution on the index subset J and fills every
remaining index pair with a weighted swap.  The compatibility conditions
are checked by brute force over index tuples, and the assembled matrix is
re-checked against the YBE.

A spec is validated when it is built: J must be distinct labels within
1..N, and every swap weight a unit of the spec's context at a pair within
1..N that J x J does not hold.

Index subsets and the s mapping are 1-indexed at the interface, matching
the spec's JSON form; internal tensor digits are 0-indexed.
"""

import re

from ._record import Record
from .catalog import check_ybe
from .errors import (
    ConditionViolation,
    ContextMismatch,
    DimensionMismatch,
    ParseError,
    PreconditionViolation,
    UnknownName,
)
from .eyb import EnhancedOperator, get_table1_entry, verify_eyb
from .ring import ScalarContext, format_scalar, json_field
from .tensor import MAX_STATES, SquareMatrix, _entry, matrix_substitute


class DiagonalDressingSpec(Record):
    """Target dimension, embedded index subset, and the swap weights.

    ``s`` maps 1-indexed pairs (a, b) to the weight of the swap sending
    input (b, a) to output (a, b); pairs inside J x J are forbidden and
    unspecified pairs default to 1.  J is kept sorted; a weight is read as
    a matrix entry is, and ValueError names what is wrong.
    """

    _fields = ("ctx", "n", "j", "s")

    def __init__(self, ctx, n, j, s=None):
        sorted_j = tuple(sorted(j))
        if not all(1 <= a <= n for a in sorted_j) or len(set(sorted_j)) != len(sorted_j):
            raise ValueError(f"bad index subset {j}")
        parsed = {}
        for key, value in ({} if s is None else s).items():
            a, b = key
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"pair {key} lies outside 1..{n}")
            if a in sorted_j and b in sorted_j:
                raise ValueError(f"pair {key} lies inside the embedded block")
            weight = _entry(ctx, value)
            if weight.ctx is not ctx and weight.ctx != ctx:
                raise ContextMismatch(f"swap weight for {key} lies in {weight.ctx!r}, not {ctx!r}")
            if not weight.is_unit():
                raise ValueError(f"swap weight for {key} must be invertible")
            parsed[(a, b)] = weight
        self.__dict__.update(ctx=ctx, n=n, j=sorted_j, s=parsed)

    def weight(self, a, b):
        """s_{ab} for 1-indexed a, b; defaults to 1."""
        value = self.s.get((a, b))
        return self.ctx.one() if value is None else value


def dress_diagonal(base, spec, check=True):
    """Assemble the diagonally dressed matrix on dimension spec.n.

    The base's labels 0..|J|-1 move to J - 1, and every pair of labels not
    both in J gets its weighted swap.  When ``check``, the three
    swap-compatibility families and the YBE are verified symbolically;
    violations raise ConditionViolation with the indices.
    """
    if base.ctx != spec.ctx:
        base = matrix_substitute(base, {}, spec.ctx)
    j, m, n = spec.j, len(spec.j), spec.n
    if base.side != m * m:
        raise DimensionMismatch("base side does not match the embedded subset")
    outside = [a for a in range(1, n + 1) if a not in j] if check else []
    entries = {}
    for (row, col), value in base.entries.items():
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
        entries[((k - 1) * n + l - 1, (i - 1) * n + jj - 1)] = value
    for i in range(1, n + 1):
        for jj in range(1, n + 1):
            if i not in j or jj not in j:
                entries[((jj - 1) * n + i - 1, (i - 1) * n + jj - 1)] = spec.weight(jj, i)
    dressed = SquareMatrix(spec.ctx, n * n, entries)
    if check:
        verdict = check_ybe(dressed)
        if not verdict:
            raise ConditionViolation(
                f"dressed matrix fails the YBE, residual {format_scalar(verdict.residual)}",
                verdict.index,
            )
    return dressed


def dressed_eyb(base_eyb, dressed, spec, mode="nontrivial", sign="+", check=True):
    """Extend the base weight matrix across the dressing.

    In trivial mode the weight is padded with zeros and every invariant
    equals the undressed one.  In nontrivial mode the padding is sign*beta,
    allowed only when the base weight is diagonal and the swap weights s_aa
    at the padded indices equal sign*alpha.  A sign other than '+' or '-'
    raises UnknownName before any work, in either mode; a base weight of
    side other than |J|, or a dressed matrix of side other than N^2, raises
    DimensionMismatch before anything is built.
    """
    if sign not in ("+", "-"):
        raise UnknownName(f"sign must be '+' or '-', got {sign!r}")
    if mode not in ("trivial", "nontrivial"):
        raise UnknownName(f"mode must be 'trivial' or 'nontrivial', got {mode!r}")
    ctx, n, j, mu_base = spec.ctx, spec.n, spec.j, base_eyb.mu
    if mu_base.side != len(j):
        raise DimensionMismatch(f"base weight has side {mu_base.side}, not |J| = {len(j)}")
    if dressed.side != n * n:
        raise DimensionMismatch(f"dressed matrix has side {dressed.side}, not N^2 = {n * n}")
    if mu_base.ctx != ctx:
        mu_base = matrix_substitute(mu_base, {}, ctx)
    entries = {(j[r] - 1, j[c] - 1): value for (r, c), value in mu_base.entries.items()}
    if mode == "nontrivial":
        if any(r != c for r, c in mu_base.entries):
            raise PreconditionViolation(
                "nontrivial diagonal dressing requires a diagonal base weight"
            )
        want = base_eyb.alpha if sign == "+" else -base_eyb.alpha
        pad = base_eyb.beta if sign == "+" else -base_eyb.beta
        for a in range(1, n + 1):
            if a not in j:
                if spec.weight(a, a) != want:
                    raise PreconditionViolation(
                        f"s_{a}{a} must equal {sign}alpha for nontrivial padding"
                    )
                entries[(a - 1, a - 1)] = pad
    mu = SquareMatrix(ctx, n, entries)
    op = EnhancedOperator(dressed, mu, base_eyb.alpha, base_eyb.beta)
    if check:
        verdict = verify_eyb(op)
        if not verdict:
            raise PreconditionViolation(
                f"dressed operator fails condition {verdict.condition}"
            )
    return op


class DressedPreset(Record):
    _fields = ("name", "ctx", "spec", "matrix", "eyb", "base_rmatrix", "base_row")

    def __init__(self, name, ctx, spec, matrix, eyb, base_rmatrix, base_row):
        self.__dict__.update(name=name, ctx=ctx, spec=spec, matrix=matrix, eyb=eyb,
                             base_rmatrix=base_rmatrix, base_row=base_row)


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


# -- JSON form -----------------------------------------------------------------


_PAIR_KEY_RE = re.compile(r"([0-9]+),([0-9]+)")


def diagonal_spec_from_json(ctx, obj):
    """Inverse of diagonal_spec_to_json; ParseError naming the field on
    malformed input, and naming both keys of a pair given twice.

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
    s, keys = {}, {}
    for key, text in json_field(obj, "s", dict, "spec", {}).items():
        m = _PAIR_KEY_RE.fullmatch(key)
        if m is None:
            raise ParseError(f"spec.s: key {key!r:.40} is not of the form 'a,b'")
        if not isinstance(text, str):
            raise ParseError(f"spec.s.{key}: expected scalar text")
        pair = (int(m[1]), int(m[2]))
        if pair in keys:
            raise ParseError(
                f"spec.s: keys {keys[pair]!r:.40} and {key!r:.40} name the same pair {pair}")
        s[pair], keys[pair] = text, key
    try:
        return DiagonalDressingSpec(ctx, n, tuple(j), s)
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
