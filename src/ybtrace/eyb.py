"""Enhanced operators: the trace-compatible (R, mu, alpha, beta) quadruples.

A quadruple is *enhanced* when R commutes with mu (x) mu and the partial
trace over the second slot of R^{+-1} composed with mu (x) mu reproduces
alpha^{+-1} beta mu.  These conditions make the weighted braid trace a link
invariant.  ``verify_eyb`` decides an operator of base 2 whose R holds no
root on Kronecker-substituted ints first, multiplying only nonzero ones:
three int identities, the third with R^-1 replaced by its adjugate, and
det R a unit, read off its int.  Every other operator, and every one the
ints do not show to pass, takes the exact path on Scalars.

The registry below lists, for each catalog R-matrix, its enhancing rows
together with their parameter restrictions and the character of the
invariant each produces.  Rows whose weight data divides by a square root
with non-invertible radicand are stored rescaled by that root, with beta
carrying the same factor; the rescaling does not change validity or any
invariant value.
"""

from ._record import Record
from .errors import (
    DimensionMismatch, ExponentOverflow, NotAUnit, ParseError, UnknownName, UnknownRow,
)
from .ring import (
    ScalarContext, json_field, kronecker, scalar_from_json, scalar_to_json,
    substitute,
)
# matmul is not called here; perfbench's tracer self-test reads eyb.matmul
from .tensor import (
    SquareMatrix, Verdict, _sums, invert, kron, matmul, matmul_sub, matrix_from_json,
    matrix_to_json, matrix_substitute, scalar_scale,
)
from .catalog import check_listed_positions, restricted_matrix


class EnhancedOperator(Record):
    _fields = ("r", "mu", "alpha", "beta")

    def __init__(self, r, mu, alpha, beta):
        # _closure holds the closure constants invariant.compute_ts keeps,
        # filled on first use; not a field, so equality, hashing and repr
        # ignore it
        self.__dict__.update(r=r, mu=mu, alpha=alpha, beta=beta, _closure={})

    @property
    def base_dim(self):
        return self.mu.side

    @property
    def ctx(self):
        return self.mu.ctx


def _check_sides(op):
    """DimensionMismatch unless mu's side squared is R's side."""
    if op.mu.side ** 2 != op.r.side:
        raise DimensionMismatch(f"mu has side {op.mu.side}, so mu (x) mu does not match "
                                f"R's side {op.r.side}")


def verify_eyb(op):
    """Check the three enhancement conditions symbolically.

    Returns a truthy Verdict or one naming the first failing condition, with
    its residual matrix.  alpha must be a unit; beta must be nonzero; mu's
    side squared must be R's side, and mu's side at least 2, else
    DimensionMismatch before any product.

    With M = mu (x) mu, P = alpha beta mu and N = alpha^-1 beta mu, the
    conditions are RM = MR, Tr_2(RM) = P and Tr_2(R^-1 M) = N, as
    Tr_2(Y (1 x mu)) mu = Tr_2(Y M).  M forms each of its mirrored products
    once.  An R of side 4 with no root, sharing one context with mu, alpha
    and beta, goes first to ``_holds_on_ints``.  It maps R, M, P, N and 1 by
    ``ring.kronecker`` for products of degree 5, where RM = MR, Tr_2(RM) = P
    and Tr_2(adj(R) M) = det(R) N, the third condition times det R, must
    hold, and det R must be a unit, so R is never inverted and no int is
    read back.  The map's exponent gate has reach 9 plus one per root: R^-1's
    entries reach 3 hi - 4 lo over R's exponents, the exact path multiplies
    them by two of mu's, and reducing a root's square, at most once per
    root, multiplies in a radicand term, so no product of either path
    overflows.  Every other operator, and any the ints do not pass (a
    refused map, an overflow forming P or N included), takes the exact
    path, which builds the failing residual.
    """
    if op.alpha.is_zero() or not op.alpha.is_unit():
        raise NotAUnit("alpha must be an invertible monomial")
    if op.beta.is_zero():
        raise NotAUnit("beta must be nonzero")
    _check_sides(op)
    if op.mu.side < 2:
        raise DimensionMismatch(f"a weight of side {op.mu.side} has no slot to close")
    mumu = kron(op.mu, op.mu)
    if _holds_on_ints(op, mumu):
        return Verdict(True)
    return _exact_conditions(op, mumu)


def _exact_conditions(op, mumu):
    """verify_eyb's Verdict on Scalars, from M = ``mumu``."""
    diff = matmul_sub(op.r, mumu, mumu, op.r)
    if not diff.is_zero():
        return Verdict(False, "commute", residual=diff)
    # Tr_2(Y (mu x mu)) = Tr_2(Y (1 x mu)) mu must be (c 1) mu, c = alpha^(+-1)
    # beta, for Y = R^(+-1); R is inverted only once the first condition holds
    base, weights = op.mu.side, op.mu.entries
    for condition, power in (("trace2", 1), ("trace2-inverse", -1)):
        y = op.r if power == 1 else invert(op.r)
        c = SquareMatrix.diagonal(op.ctx, [op.alpha ** power * op.beta] * base)
        # Tr_2(Y (1 x mu)): entry ((i s), (j t)) of Y times mu[t, s] adds to (i, j)
        pairs = {}
        for (row, col), v in y.entries.items():
            (i, s), (j, t) = divmod(row, base), divmod(col, base)
            if (t, s) in weights:
                pairs.setdefault((i, j), []).append((v, weights[t, s]))
        traced = SquareMatrix(op.ctx, base, _sums(op.ctx, pairs))
        diff = matmul_sub(traced, op.mu, c, op.mu)
        if not diff.is_zero():
            return Verdict(False, condition, residual=diff)
    return Verdict(True)


# in a 4x4 cofactor without column i, the sign (+ - +) and other two columns of column k
_COFACTOR = [{k: (-1 if n == 1 else 1, tuple(c for c in cols if c != k))
              for n, k in enumerate(cols)}
             for cols in ([c for c in range(4) if c != i] for i in range(4))]


def _minors(x, y):
    """The 2x2 minors {(j, k): x[j] y[k] - x[k] y[j], j < k} of rows of nonzero ints."""
    minors = {}
    for j, u in x.items():
        for k, v in y.items():
            if j != k:
                key, uv = ((j, k), u * v) if j < k else ((k, j), -u * v)
                minors[key] = minors.get(key, 0) + uv
    return minors


def _product(a, b):
    """The nonzero entries, by 4 row + column, of the product of two 4x4
    matrices of ints given as rows {column: int} of nonzero ints."""
    out = {}
    for i, row in enumerate(a):
        for j, x in row.items():
            for k, y in b[j].items():
                out[4 * i + k] = out.get(4 * i + k, 0) + x * y
    return {key: v for key, v in out.items() if v}


def _holds_on_ints(op, mumu):
    """True when the ints of ``verify_eyb``'s integer route show that an
    operator meets all three conditions and that det R is a unit; False
    sends it to the exact path.  Both sides of an identity are products of
    as many entries, one side times the int of 1 where needed.  An entry of
    adj(R) is 6 products of three of R's, and det R 24 of four, so a
    difference sums at most 2 * 4 * 6 + 24 = 72 products.  mu is mapped for
    the exponent gate only.  Only nonzero ints are multiplied, and only the
    entries of adj(R) that det R and Tr_2(adj(R) M) read are formed."""
    ctx, r = op.ctx, op.r
    if r.side != 4 or not (r.ctx is ctx and op.alpha.ctx is ctx and op.beta.ctx is ctx):
        return False
    # R and M at 0 and 16, mu, P and N at 32, 36 and 40, by row * side + column; 1 at 44
    entries = {4 * i + j: x for (i, j), x in r.entries.items()}
    entries.update({16 + 4 * i + j: x for (i, j), x in mumu.entries.items()})
    entries.update({32 + 2 * i + j: x for (i, j), x in op.mu.entries.items()})
    try:
        for base, scale in ((36, op.alpha * op.beta), (40, op.alpha ** -1 * op.beta)):
            entries.update({base + 2 * i + j: scale * x for (i, j), x in op.mu.entries.items()})
    except ExponentOverflow:
        return False
    entries[44] = ctx.one()
    mapped = kronecker(ctx, entries, 72, 5, 9 + len(ctx.root_names), range(16, 44))
    if mapped is None:
        return False
    ints, _, width = mapped
    rows, m_rows = [{}, {}, {}, {}], [{}, {}, {}, {}]  # R's and M's ints by row
    for i, j in r.entries:
        rows[i][j] = ints[4 * i + j]
    for j, k in mumu.entries:
        m_rows[j][k] = ints[16 + 4 * j + k]
    rm = _product(rows, m_rows)
    if rm != _product(m_rows, rows):
        return False
    minors, adj = [_minors(*rows[2:]), _minors(*rows[:2])], {}

    def adjugate(i, j):
        """adj(R)[i, j], formed once: the cofactor of (j, i) along row j ^ 1,
        against the minors of the other pair of rows, signed + - +."""
        z = adj.get((i, j))
        if z is None:
            z, terms, minor = 0, _COFACTOR[i], minors[j >> 1]
            for k, x in rows[j ^ 1].items():
                if k != i:
                    sign, rest = terms[k]
                    z += sign * x * minor.get(rest, 0)
            z = adj[i, j] = -z if (i + j) & 1 else z
        return z

    det = sum([x * adjugate(i, 0) for i, x in rows[0].items()])
    low = (det & -det).bit_length() - 1
    # R holds no root, so det R is a unit when its int is one nonzero
    # balanced digit of the map's width
    if not det or abs(det >> low // width * width).bit_length() >= width:
        return False
    one, traced = ints[44], [0] * 4  # Tr_2(adj(R) M), entry (a, c) at 2 a + c
    for j, m_row in enumerate(m_rows):
        for k, y in m_row.items():
            for i in (k & 1, 2 + (k & 1)):
                traced[i & 2 | k >> 1] += adjugate(i, j) * y
    # entry (a, c) of Tr_2(RM) sums RM at (2 a + b, 2 c + b), 8 a + 2 c + 5 b
    return all([rm.get(8 * a + 2 * c, 0) + rm.get(8 * a + 2 * c + 5, 0)
                == ints.get(36 + 2 * a + c, 0) * one
                and traced[2 * a + c] * one == det * ints.get(40 + 2 * a + c, 0)
                for a in (0, 1) for c in (0, 1)])


def specialize(op, bindings, target):
    """The image of ``op`` under the substitution ``bindings`` into the ring
    ``target``: R and mu entry by entry, alpha and beta, each by
    ``ring.substitute``.

    The substitution is a ring homomorphism, and the invariant a polynomial
    in the entries of R^(+-1) and mu and in alpha^-1 and beta^-1, so the
    invariant of the image is the image of the invariant.
    """
    return EnhancedOperator(
        matrix_substitute(op.r, bindings, target),
        matrix_substitute(op.mu, bindings, target),
        substitute(op.alpha, bindings, target),
        substitute(op.beta, bindings, target),
    )


def sign_variants(op):
    """The three companion operators; each is again enhanced."""
    neg_r = scalar_scale(op.r, op.ctx.scalar(-1))
    neg_mu = scalar_scale(op.mu, op.ctx.scalar(-1))
    s1 = EnhancedOperator(neg_r, neg_mu, op.alpha, op.beta)
    s2 = EnhancedOperator(op.r, op.mu, -op.alpha, -op.beta)
    s3 = EnhancedOperator(op.r, neg_mu, -op.alpha, op.beta)
    return s1, s2, s3


# (entry, sign) -> the shared operator of Table1Entry.build; filled on first use
_shared_ops = {}


class Table1Entry(Record):
    """One registry row: how to enhance a catalog matrix, and what it yields.

    ``tag`` is one of jones, alexander-zero, const-0, const-1, two-power-l,
    knots-1, knots-0.  ``intertwine`` holds the unit c with
    (mu x mu) R = c (mu x mu), set on exactly the 14 rows whose weight has
    rank one.  For M = mu^(x n) it gives M rep = c^w M, so their invariant
    is c^w alpha^-w (Tr mu / beta)^n, which ``invariant.compute_ts`` takes
    in closed form on that identity.  Sign '+' selects the
    stored representative; '-' the companion with mu and alpha negated.
    """

    _fields = ("rmatrix", "row", "gens", "roots", "restrictions", "mu_rows", "alpha",
               "beta", "tag", "intertwine")

    def __init__(self, rmatrix, row, gens, roots=(), restrictions=(), mu_rows=(),
                 alpha="1", beta="1", tag="const-1", intertwine=None):
        self.__dict__.update(rmatrix=rmatrix, row=row, gens=gens, roots=roots,
                             restrictions=restrictions, mu_rows=mu_rows, alpha=alpha,
                             beta=beta, tag=tag, intertwine=intertwine)

    def context(self):
        return ScalarContext(self.gens, self.roots)

    def build(self, sign="+", ctx=None):
        """The operator for this row.

        ``ctx`` may supply a larger context (for dressings with extra
        parameters); it must declare this row's generators and roots.

        Without ``ctx`` the operator is built once per (row, sign) and shared
        for the life of the process, so R's kept inverse carries across
        calls.  Do not mutate it: ``SquareMatrix.entries`` is a plain dict.
        With ``ctx`` a fresh operator is built.
        """
        if sign not in ("+", "-"):
            raise UnknownName(f"sign must be '+' or '-', got {sign!r}")
        shared = ctx is None
        if shared:
            op = _shared_ops.get((self, sign))
            if op is not None:
                return op
            ctx = self.context()
        r = restricted_matrix(self.rmatrix, self.restrictions, ctx)
        mu = SquareMatrix.from_rows(
            ctx, [list(self.mu_rows[:2]), list(self.mu_rows[2:])]
        )
        alpha = ctx.parse(self.alpha)
        if sign == "-":
            mu = scalar_scale(mu, ctx.scalar(-1))
            alpha = -alpha
        op = EnhancedOperator(r, mu, alpha, ctx.parse(self.beta))
        if shared:
            _shared_ops[self, sign] = op
        return op


_SQRT_PQ = (("sqrt_pq", "p*q"),)
_SQRT_1MQ2 = (("sqrt_1mq2", "1-q^2"),)

TABLE1 = (
    Table1Entry("R3.1", 1, ("p", "q"), (), (("s", "1"),),
                ("1", "0", "0", "1"), "1", "1", "knots-1"),
    Table1Entry("R3.1", 2, ("p", "q"), (), (("s", "-1"),),
                ("1", "0", "0", "-1"), "1", "1", "knots-0"),
    Table1Entry("R3.1", 3, ("p", "q", "s"), (), (),
                ("1", "0", "0", "0"), "1", "1", "const-1", "1"),
    Table1Entry("R3.1", 4, ("p", "q", "s"), (), (),
                ("0", "0", "0", "1"), "s", "1", "const-1", "s"),
    Table1Entry("R2.1", 1, ("p", "q"), _SQRT_PQ, (),
                ("sqrt_pq", "0", "0", "sqrt_pq^-1"), "sqrt_pq^-1", "1", "jones"),
    Table1Entry("R2.1", 2, ("p", "q"), (), (),
                ("1", "0", "0", "0"), "1", "1", "const-1", "1"),
    Table1Entry("R2.1", 3, ("p", "q"), (), (),
                ("0", "0", "0", "1"), "1", "1", "const-1", "1"),
    Table1Entry("R2.1", 4, ("p", "lam"), (), (("q", "1"),),
                ("1", "0", "lam", "0"), "1", "1", "const-1", "1"),
    Table1Entry("R2.1", 5, ("p", "lam"), (), (("q", "1"),),
                ("0", "lam", "0", "1"), "1", "1", "const-1", "1"),
    Table1Entry("R2.2", 1, ("p", "q"), _SQRT_PQ, (),
                ("sqrt_pq^-1", "0", "0", "-sqrt_pq^-1"), "sqrt_pq", "1",
                "alexander-zero"),
    Table1Entry("R2.2", 2, ("p", "q"), (), (),
                ("1", "0", "0", "0"), "1", "1", "const-1", "1"),
    Table1Entry("R2.2", 3, ("p", "q"), (), (),
                ("0", "0", "0", "1"), "-p*q", "1", "const-1", "-p*q"),
    Table1Entry("R2.3", 1, ("q",), (), (("p", "-1"),),
                ("1", "0", "0", "1"), "1", "1", "two-power-l"),
    Table1Entry("R1.1", 1, ("q",), (), (),
                ("1", "0", "0", "-1"), "2*q", "1", "alexander-zero"),
    Table1Entry("R1.1", 2, ("q",), _SQRT_1MQ2, (),
                ("(1+q)/2", "sqrt_1mq2/2", "sqrt_1mq2/2", "(1-q)/2"),
                "2", "1", "const-1", "2"),
    Table1Entry("R1.1", 3, ("q",), _SQRT_1MQ2, (),
                ("(1+q)/2", "-sqrt_1mq2/2", "-sqrt_1mq2/2", "(1-q)/2"),
                "2", "1", "const-1", "2"),
    Table1Entry("R1.1", 4, ("q",), _SQRT_1MQ2, (),
                ("(1+q)*q^-1/2", "sqrt_1mq2*q^-1/2",
                 "-sqrt_1mq2*q^-1/2", "(-1+q)*q^-1/2"),
                "2", "1", "const-1", "2"),
    Table1Entry("R1.1", 5, ("q",), _SQRT_1MQ2, (),
                ("(1+q)*q^-1/2", "-sqrt_1mq2*q^-1/2",
                 "sqrt_1mq2*q^-1/2", "(-1+q)*q^-1/2"),
                "2", "1", "const-1", "2"),
    Table1Entry("R1.2", 1, ("q",), (("sqrt_q", "q"),), (),
                ("sqrt_q^-1", "0", "0", "-sqrt_q^-1"), "sqrt_q", "1",
                "alexander-zero"),
    Table1Entry("R1.2", 2, ("q",), (("sqrt_1pq", "1+q"),), (),
                ("sqrt_1pq", "1", "0", "0"), "1", "sqrt_1pq", "const-1", "1"),
    Table1Entry("R1.2", 3, ("q",), (("sqrt_1pq", "1+q"),), (),
                ("sqrt_1pq", "-1", "0", "0"), "1", "sqrt_1pq", "const-1", "1"),
    Table1Entry("R1.3", 1, ("q",), (), (),
                ("1", "-(1+q)", "0", "1"), "1", "1", "two-power-l"),
    Table1Entry("R1.4", 1, ("q",), (), (),
                ("1", "0", "0", "1"), "1", "1", "knots-1"),
)

_BY_KEY = {(e.rmatrix, e.row): e for e in TABLE1}


def table1_entries(rmatrix=None):
    if rmatrix is None:
        return TABLE1
    return tuple(e for e in TABLE1 if e.rmatrix == rmatrix)


def get_table1_entry(rmatrix, row):
    key = (rmatrix, row)
    if key not in _BY_KEY:
        raise UnknownRow(f"no registry row {row} for {rmatrix}")
    return _BY_KEY[key]


def get_table1_eyb(rmatrix, row, sign="+"):
    """The row's shared operator of ``Table1Entry.build``, kept for the life
    of the process: do not mutate it."""
    return get_table1_entry(rmatrix, row).build(sign)


# -- JSON form ---------------------------------------------------------------


def eyb_to_json(op):
    return {
        "r": matrix_to_json(op.r),
        "mu": matrix_to_json(op.mu),
        "alpha": scalar_to_json(op.alpha),
        "beta": scalar_to_json(op.beta),
        "restrictions": [],
    }


def eyb_from_json(ctx, obj):
    """Inverse of eyb_to_json; ParseError naming the field on malformed input.

    An R listing more positions than the Yang-Baxter check's embeddings may
    store raises DimensionMismatch before any scalar is parsed.
    """
    check_listed_positions(json_field(obj, "r", dict, "operator"))
    parts = []
    for key, load in (
        ("r", matrix_from_json),
        ("mu", matrix_from_json),
        ("alpha", scalar_from_json),
        ("beta", scalar_from_json),
    ):
        value = json_field(obj, key, dict, "operator")
        try:
            parts.append(load(ctx, value))
        except ParseError as exc:
            raise ParseError(f"operator.{key}: {exc}") from None
    return EnhancedOperator(*parts)
