"""Enhanced operators: the trace-compatible (R, mu, alpha, beta) quadruples.

A quadruple is *enhanced* when R commutes with mu (x) mu and the partial
trace over the second slot of R^{+-1} composed with mu (x) mu reproduces
alpha^{+-1} beta mu.  These conditions make the weighted braid trace a link
invariant.

The registry below lists, for each catalog R-matrix, its enhancing rows
together with their parameter restrictions and the character of the
invariant each produces.  Rows whose weight data divides by a square root
with non-invertible radicand are stored rescaled by that root, with beta
carrying the same factor; the rescaling does not change validity or any
invariant value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, NotAUnit, ParseError, UnknownName, UnknownRow
from .ring import Scalar, ScalarContext, json_field, scalar_from_json, scalar_to_json
from .tensor import (
    SquareMatrix,
    Verdict,
    invert,
    kron,
    matmul,  # not called here; perfbench's tracer self-test reads eyb.matmul
    matmul_sub,
    matrix_from_json,
    matrix_to_json,
    matrix_substitute,
    scalar_scale,
    weighted_trace,
)
from .catalog import check_listed_positions, restricted_matrix


@dataclass(frozen=True)
class EnhancedOperator:
    r: SquareMatrix
    mu: SquareMatrix
    alpha: Scalar
    beta: Scalar

    def __post_init__(self):
        # the closure constants invariant.compute_ts keeps, filled on first
        # use; not a field, so equality and hashing ignore it
        object.__setattr__(self, "_closure", {})

    @property
    def base_dim(self):
        return self.mu.side

    @property
    def ctx(self):
        return self.mu.ctx


def verify_eyb(op):
    """Check the three enhancement conditions symbolically.

    Returns a truthy Verdict or one naming the first failing condition, with
    its residual matrix.  alpha must be a unit; beta must be nonzero; mu's
    side squared must be R's side, else DimensionMismatch before any product.
    """
    if op.alpha.is_zero() or not op.alpha.is_unit():
        raise NotAUnit("alpha must be an invertible monomial")
    if op.beta.is_zero():
        raise NotAUnit("beta must be nonzero")
    if op.mu.side ** 2 != op.r.side:
        raise DimensionMismatch(f"mu has side {op.mu.side}, so mu (x) mu does not match "
                                f"R's side {op.r.side}")
    mumu = kron(op.mu, op.mu)
    diff = matmul_sub(op.r, mumu, mumu, op.r)
    if not diff.is_zero():
        return Verdict(False, "commute", residual=diff)
    # Tr_2(Y (mu x mu)) = Tr_2(Y (1 x mu)) mu must be (c 1) mu, c = alpha^(+-1)
    # beta, for Y = R^(+-1); R is inverted only once the first condition holds
    for condition, power in (("trace2", 1), ("trace2-inverse", -1)):
        y = op.r if power == 1 else invert(op.r)
        c = SquareMatrix.diagonal(op.ctx, [op.alpha ** power * op.beta] * op.mu.side)
        diff = matmul_sub(weighted_trace(y, op.mu, [2]), op.mu, c, op.mu)
        if not diff.is_zero():
            return Verdict(False, condition, residual=diff)
    return Verdict(True)


def sign_variants(op):
    """The three companion operators; each is again enhanced."""
    neg_r = scalar_scale(op.r, op.ctx.scalar(-1))
    neg_mu = scalar_scale(op.mu, op.ctx.scalar(-1))
    s1 = EnhancedOperator(neg_r, neg_mu, op.alpha, op.beta)
    s2 = EnhancedOperator(op.r, op.mu, -op.alpha, -op.beta)
    s3 = EnhancedOperator(op.r, neg_mu, -op.alpha, op.beta)
    return s1, s2, s3


def search_ansatz(rspec, candidates):
    """Filter finite (mu, alpha, restrictions) candidates by verify_eyb.

    Each candidate is (mu, alpha, beta, restrictions) with mu, alpha, beta
    over one context and restrictions a mapping of rspec generators to
    values in that context.  Candidates with zero mu, alpha, or beta are
    rejected outright.  Results keep the input order.
    """
    found = []
    for mu, alpha, beta, restrictions in candidates:
        if mu.is_zero() or alpha.is_zero() or beta.is_zero():
            continue
        target = mu.ctx
        r = matrix_substitute(rspec.matrix, dict(restrictions), target)
        op = EnhancedOperator(r, mu, alpha, beta)
        try:
            verdict = verify_eyb(op)
        except NotAUnit:
            continue
        if verdict:
            found.append(op)
    return found


# (entry, sign) -> the shared operator of Table1Entry.build; filled on first use
_shared_ops = {}


@dataclass(frozen=True)
class Table1Entry:
    """One registry row: how to enhance a catalog matrix, and what it yields.

    ``tag`` is one of jones, alexander-zero, const-0, const-1, two-power-l,
    knots-1, knots-0.  ``intertwine`` holds c when (mu x mu) R = c (mu x mu)
    explains triviality.  Sign '+' selects the stored representative; '-'
    the companion with mu and alpha negated.
    """

    rmatrix: str
    row: int
    gens: tuple
    roots: tuple = ()
    restrictions: tuple = ()
    mu_rows: tuple = ()
    alpha: str = "1"
    beta: str = "1"
    tag: str = "const-1"
    intertwine: str = None

    def context(self):
        return ScalarContext(self.gens, self.roots)

    def build(self, sign="+", beta=None, ctx=None):
        """The operator for this row; ``beta`` rescales mu and beta together.

        ``ctx`` may supply a larger context (for dressings with extra
        parameters); it must declare this row's generators and roots.

        Without ``beta`` and ``ctx`` the operator is built once per (row,
        sign) and shared for the life of the process, so R's kept inverse
        carries across calls.  Do not mutate it: ``SquareMatrix.entries`` is
        a plain dict.  With either argument a fresh operator is built.
        """
        if sign not in ("+", "-"):
            raise UnknownName(f"sign must be '+' or '-', got {sign!r}")
        shared = beta is None and ctx is None
        if shared and (self, sign) in _shared_ops:
            return _shared_ops[self, sign]
        if ctx is None:
            ctx = self.context()
        r = restricted_matrix(self.rmatrix, self.restrictions, ctx)
        mu = SquareMatrix.from_rows(
            ctx, [list(self.mu_rows[:2]), list(self.mu_rows[2:])]
        )
        alpha = ctx.parse(self.alpha)
        beta_val = ctx.parse(self.beta)
        if beta is not None:
            mu = scalar_scale(mu, beta)
            beta_val = beta_val * beta
        if sign == "-":
            mu = scalar_scale(mu, ctx.scalar(-1))
            alpha = -alpha
        op = EnhancedOperator(r, mu, alpha, beta_val)
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
                ("1", "0", "0", "0"), "1", "1", "const-1"),
    Table1Entry("R2.1", 3, ("p", "q"), (), (),
                ("0", "0", "0", "1"), "1", "1", "const-1"),
    Table1Entry("R2.1", 4, ("p", "lam"), (), (("q", "1"),),
                ("1", "0", "lam", "0"), "1", "1", "const-1"),
    Table1Entry("R2.1", 5, ("p", "lam"), (), (("q", "1"),),
                ("0", "lam", "0", "1"), "1", "1", "const-1"),
    Table1Entry("R2.2", 1, ("p", "q"), _SQRT_PQ, (),
                ("sqrt_pq^-1", "0", "0", "-sqrt_pq^-1"), "sqrt_pq", "1",
                "alexander-zero"),
    Table1Entry("R2.2", 2, ("p", "q"), (), (),
                ("1", "0", "0", "0"), "1", "1", "const-1"),
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
                "2", "1", "const-1"),
    Table1Entry("R1.1", 4, ("q",), _SQRT_1MQ2, (),
                ("(1+q)*q^-1/2", "sqrt_1mq2*q^-1/2",
                 "-sqrt_1mq2*q^-1/2", "(-1+q)*q^-1/2"),
                "2", "1", "const-1"),
    Table1Entry("R1.1", 5, ("q",), _SQRT_1MQ2, (),
                ("(1+q)*q^-1/2", "-sqrt_1mq2*q^-1/2",
                 "sqrt_1mq2*q^-1/2", "(-1+q)*q^-1/2"),
                "2", "1", "const-1"),
    Table1Entry("R1.2", 1, ("q",), (("sqrt_q", "q"),), (),
                ("sqrt_q^-1", "0", "0", "-sqrt_q^-1"), "sqrt_q", "1",
                "alexander-zero"),
    Table1Entry("R1.2", 2, ("q",), (("sqrt_1pq", "1+q"),), (),
                ("sqrt_1pq", "1", "0", "0"), "1", "sqrt_1pq", "const-1"),
    Table1Entry("R1.2", 3, ("q",), (("sqrt_1pq", "1+q"),), (),
                ("sqrt_1pq", "-1", "0", "0"), "1", "sqrt_1pq", "const-1"),
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


def get_table1_eyb(rmatrix, row, sign="+", beta=None):
    """The row's operator; without ``beta`` it is the shared one of
    ``Table1Entry.build``, kept for the life of the process: do not mutate it."""
    return get_table1_entry(rmatrix, row).build(sign, beta)


# -- JSON form ---------------------------------------------------------------


def eyb_to_json(op, restrictions=()):
    return {
        "r": matrix_to_json(op.r),
        "mu": matrix_to_json(op.mu),
        "alpha": scalar_to_json(op.alpha),
        "beta": scalar_to_json(op.beta),
        "restrictions": [[name, str(value)] for name, value in restrictions],
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
