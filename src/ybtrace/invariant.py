"""The weighted braid-trace invariant and its consequences.

For an enhanced operator S and a braid word on n strands, the raw invariant
is alpha^(-writhe) beta^(-n) Tr(rep(word) mu^(x n)) (Turaev, Invent. Math.
92, 1988); dividing by the one-strand value Tr(mu)/beta gives the
unknot-normalized form.  No representation of the whole word is formed.
One verdict per operator (``_structure``), decided on first use, sends
``compute_ts`` down one of four routes, the first that applies of those
below: the closed form, the coloring sum with its sectors, the vanishing
route and the half-word closure.  ``compute_ts`` refuses for all four, in
one order, before it takes a route.

When (mu (x) mu) R = c (mu (x) mu) for a unit c, the value is in closed
form, c^w alpha^(-w) (Tr(mu) / beta)^n for writhe w.  Proof: write
M = mu^(x n).  Then M R_i^(+-1) = c^(+-1) M, so M rep = c^w M, and
Tr(rep M) = Tr(M rep) = c^w Tr(mu)^n.  This is the registry's
``intertwine`` column, and holds on all 14 rank-one rows and on every
enhanced operator the library builds from them.  No matrix is
multiplied, nothing is divided, and R is not inverted.

Otherwise a charge filtration may apply: give label d the charge d and a
state the sum of its digits.  If the entries of R and the off-diagonal
entries of mu all change the charge one way or not at all, R, R^-1, every
embedding and mu^(x n) are block triangular, and the trace of a product
of such matrices is that of the product of their diagonal blocks.  So the
invariant is that of the graded operator, R and mu with their
charge-changing entries deleted (``_graded``), or the operator itself with
a diagonal mu.  If the graded R has one entry per column, at row
(phi(b), psi(a)) for column (a, b), phi and psi permutations of the
labels, each state goes to one state (R^-1 at psi^-1, phi^-1), and the
trace sums over the colorings of the closure's components by the labels
their monodromy fixes (``_coloring_trace``): R3.1/1-2, R2.3/1 and R1.3/1
with phi = psi = 1, R1.4/1 with the swap of 0 and 1.  One-term weights
multiply there as sums of exponent keys (``Scalar._term``).  Else let J
hold the labels of the entries that are no swap: every other entry is a
swap on a pair with a label outside J, and R keeps J x J as R_J.  A sector
gate must pass: a label outside J; for each outside o, the weights g_o(x)
= R[(xo), (ox)] and R[(ox), (xo)], x in J, are units whose product P_o
does not depend on x, and g_o (x) g_o commutes with R_J; alpha and beta
are units.  Outside labels ride their strands and J is kept along strands,
so the colorings kappa are by the outside labels and J, and kappa weighs
the outside weights, prod mu_o^size, per crossing of J with o a constant
(P_o for a positive letter with J on the right, P_o^-1 for a negative one
with J on the left, else 1), and Tr(rep_J(b_k) mu_J^(x k)) for the word
b_k of the k strands colored J: alpha^w(b_k) beta^k ``compute_ts`` of
op_J = (R_J, mu_J, alpha, beta), by op_J's own route, or (Tr mu_J)^k when
b_k has no letter.  Proof: conjugate the J strands by Gamma = (x)_i prod_o
g_o^l(i,o), l(i,o) the o-colored strands left of J strand i.  A J-o
crossing moves one l by one, and its weight (g_o(x) or P_o/g_o(x) for R,
their inverses for R^-1) is Gamma's change times the constant; a J-J
crossing joins strands with equal l, and Gamma passes R_J; an
outside-outside crossing moves no l.  The closure joins positions of one
color, where Gamma agrees, and Gamma commutes with mu_J: an identity of
traces on every word, with no enhancement.  The presets and the collapsed
``d3``, ``d4`` operators of tables 2-4 take it; when op_J takes the
vanishing route below (``d4``, ``d3_R22``, ``d4_R22``), every J sector is
0 and J colors nothing.

Otherwise an operator that passes the vanishing gate gets 0 with no state
sum: Tr(mu) = 0, R meets the braid relation
(``check_ybe``), the operator is enhanced (``verify_eyb``), and
R^2 = c1 R + c0 for a unit c0 (``_is_hecke``).  Proof, the Markov-trace
induction on the Hecke algebra (Jones, Ann. of Math. 126, 1987) applied to
Turaev's operators: let A_n be the span of rep(b) over b in B_n, and
M = mu^(x n).  R^-1 = c0^-1 (R - c1), so with the braid relations every
product of the R_i^(+-1) reduces to the Hecke spanning set {T_w : w in
S_n}; every w has a reduced word with at most one s_(n-1), so A_n =
A_(n-1) + A_(n-1) R_(n-1) A_(n-1).  RM = MR makes M commute with A_n, and
for x, y in A_(n-1), Tr(x M) = Tr_(n-1)(x mu^(x n-1)) Tr(mu) and
Tr(x R_(n-1) y M) = Tr(yx R_(n-1) M) = alpha beta Tr_(n-1)(yx mu^(x n-1)),
as Tr_2(R (mu (x) mu)) = alpha beta mu.  From Tr(mu) = 0 at n = 1,
induction on n gives Tr(a M) = 0 for every a in A_n.  The route builds
nothing keyed by the word.  Rows
R2.2/1, R1.2/1 and R1.1/1 pass the gate with either sign, so
``alexander-zero`` follows from a checked structure, and so does the block
operator of the R2.2-based presets; no other row, preset or table operator
does, as their Tr(mu) is not 0.

Every other operator takes the half-word closure, which ``open_trace``
shares with the strands 2..n closed instead of all of them.  With rep = A B for
the left and right halves of the word, the partial trace over the k
closed slots of rep (1 (x) M), M = mu^(x k), is that of (1 (x) M) A B,
because 1 (x) M acts on the traced slots only.  Both halves are products
of the embeddings kept on R and R^-1, as ``SquareMatrix`` products: B is
built by ``braid_representation``, and W = 1 (x) M is multiplied by A's
letters one at a time (``matmul``); W A's rows against B's columns,
summed per block entry (``tensor._sums``), give the block left on the
kept strands.  That block is divided by beta once per closed slot and
multiplied by alpha^(-writhe).  ``alexander_nabla`` is the open trace
of row R1.2/1's image at q = t^-2 (sqrt_q -> t^-1), kept after its first
call.

What depends only on the operator is kept on it on first use: the
verdict, with the eigenvalue c for the closed form and the filtration's
weights, with op_J, for the coloring sum; R^-1's weights for the coloring
sum; the unknot value; per strand count n the unknot value's n-th power
when there is a c; per strand count and kept strand count the matrix W,
when it holds at most ``tensor.MAX_ENTRIES`` entries; and per
closed-slot count k beta^k.  R keeps its inverse, and R and R^-1 their
embeddings, on themselves.  Nothing keyed by a braid word or a writhe is
kept.
"""

import itertools

from ._record import Record
from .braid import BraidWord, _cycles, get_named_braid, NAMED_LINKS
from .errors import (
    DimensionMismatch,
    ExponentOverflow,
    InverseOutsideRing,
    NonInvertible,
    NotAUnit,
    NotDivisible,
    ProportionalityFailure,
    StrandBoundViolation,
    UnknownName,
)
from .eyb import (
    EnhancedOperator, _check_sides, get_table1_eyb, specialize, table1_entries, verify_eyb,
)
from .ring import (
    MAX_EXPONENT, ScalarContext, format_scalar, pow_int, try_div_exact,
)
from .tensor import (
    MAX_ENTRIES,
    MAX_STATES,
    SquareMatrix,
    Verdict,
    _add_pairs,
    _crossing_base,
    _sums,
    invert,
    matadd,
    matmul,
    scalar_scale,
    trace,
)
from .catalog import check_ybe, restricted_matrix


def _states(base, n):
    """base ** n, or StrandBoundViolation when that exceeds MAX_STATES."""
    # n >= bit_length keeps base ** n from being computed for a huge n
    if base > 1 and (n >= MAX_STATES.bit_length() or base ** n > MAX_STATES):
        raise StrandBoundViolation(
            f"{n} strands of dimension {base} need {base}^{n} states, "
            f"above the cap of {MAX_STATES}"
        )
    return base ** n


def braid_representation(r, b):
    """Image of a braid word under the crossing operator r, sparsely, as the
    product of the embeddings that r and its inverse keep
    (``SquareMatrix.embedding``)."""
    n = b.strands
    total = _states(_crossing_base(r.side), n)
    if not b.letters:
        return SquareMatrix.identity(r.ctx, total)
    rinv = invert(r) if any(k < 0 for k in b.letters) else None
    result = None
    for letter in b.letters:
        gen = (r if letter > 0 else rinv).embedding(abs(letter), n)
        result = gen if result is None else matmul(result, gen)
    return result


class InvariantResult(Record):
    _fields = ("value", "normalized", "unknot_value", "eyb", "braid")

    def __init__(self, value, normalized, unknot_value, eyb, braid):
        self.__dict__.update(value=value, normalized=normalized, unknot_value=unknot_value,
                             eyb=eyb, braid=braid)

    def __str__(self):
        return format_scalar(self.value)


def unknot_value(op):
    """The one-strand closure value Tr(mu)/beta, computed afresh;
    ``compute_ts`` keeps it on the operator."""
    return try_div_exact(trace(op.mu), op.beta)


def _kept(op, key, make, *args):
    """The closure constant ``key`` of ``op``: ``make(*args)`` on first use,
    then kept on the operator, whose fields never change.  A kept constant
    costs one dict lookup."""
    kept = op._closure
    try:
        return kept[key]
    except KeyError:
        value = kept[key] = make(*args)
        return value


def _eigenvalue(op):
    """The unit c with (mu (x) mu) R = c (mu (x) mu), or None when there is
    none: when mu has side 1 or is zero, or when no unit c fits.  c is read
    off at the entry piv^2 of mu (x) mu, for piv the entry of mu that is a
    unit if one is, else the one with the fewest terms, and every entry is
    checked.  A check that cannot be finished in the ring (a division that
    does not come out, an exponent out of range) gives None too."""
    base, mu, zero = op.base_dim, op.mu.entries, op.ctx.zero()
    if base < 2 or not mu:
        return None
    (pr, pc), piv = min(mu.items(), key=lambda item: (not item[1].is_unit(),
                                                      item[1].term_count()))
    try:  # (mu (x) mu)[(ij), (kl)] = mu[i, k] mu[j, l]
        square = SquareMatrix(op.ctx, base * base, {
            (i * base + j, k * base + l): x * y for (i, k), x in mu.items()
            for (j, l), y in mu.items()})
        image = _sums(op.ctx, _add_pairs(square.entries, op.r, {}))
        c = try_div_exact(image.get((pr * (base + 1), pc * (base + 1)), zero), piv * piv)
        scaled = {key: c * x for key, x in square.entries.items()}
    except (NotDivisible, ExponentOverflow):
        return None
    return c if c.is_unit() and image == scaled else None


def _closed_form(op, b, c):
    """alpha^(-w) Tr(rep(b) mu^(x n)) / beta^n in closed form,
    c^w alpha^(-w) (Tr(mu) / beta)^n, for the eigenvalue c of ``_eigenvalue``.

    The unknot value's n-th power is kept on ``op`` per n.  c^w and
    alpha^(-w) are formed apart, so NotAUnit and ExponentOverflow come from
    the same inputs as on the half-word closure.
    """
    n = b.strands
    try:
        power = op._closure["unknot", n]
    except KeyError:
        power = op._closure["unknot", n] = pow_int(_kept(op, "unknot", unknot_value, op), n)
    w = b.writhe
    return pow_int(c, w) * pow_int(op.alpha, -w) * power


def _weight_batches(mu, keep, k):
    """W = 1^(x keep) (x) mu^(x k) as matrices of its side that hold its
    nonzero rows in row order, at most MAX_ENTRIES entries each; a row is
    built when its batch is asked for."""
    base, ctx, one = mu.side, mu.ctx, mu.ctx.one()
    total = base ** (keep + k)
    mu_rows = {}
    for (r, c), x in mu.entries.items():
        mu_rows.setdefault(r, {})[c] = x
    digits = sorted(mu_rows.items())
    batch = {}
    for i in range(base ** keep):
        for picks in itertools.product(digits, repeat=k):
            state, row = i, {i: one}
            for digit, entries in picks:
                state = state * base + digit
                row = {t * base + d: x * y for t, x in row.items() for d, y in entries.items()}
            if len(batch) + len(row) > MAX_ENTRIES:
                yield SquareMatrix._built(ctx, total, batch)
                batch = {}
            batch.update({(state, t): x for t, x in row.items() if not x.is_zero()})
    yield SquareMatrix._built(ctx, total, batch)


def _slots(op, n):
    """The closure's refusals for n strands in its order: the strand cap,
    then DimensionMismatch for a side-1 weight, which has no slot to close."""
    base = op.base_dim
    _states(base, n)
    if base < 2:
        raise DimensionMismatch(f"a weight of side {base} has no slot to close")


def _weighted(op, b, value, k):
    """alpha^(-writhe) value / beta^k for k closed slots, with beta^k kept on
    ``op`` per k."""
    scale = _kept(op, ("beta", k), pow_int, op.beta, k)
    return pow_int(op.alpha, -b.writhe) * try_div_exact(value, scale)


def _closure(op, b, keep):
    """alpha^(-writhe) beta^(-k) times the multiple of the identity left on
    strands 1..keep when rep(b) mu^(x k) is traced over the other k strands.

    Raises DimensionMismatch unless mu's side squared is R's side, then
    StrandBoundViolation, both before anything is built or kept, and
    DimensionMismatch for a side-1 weight, which has no slot to close.  The
    block comes from the half-word closure (``_half_word_closure``) on every
    ring, which raises ProportionalityFailure when it is not a multiple of
    the identity (a full closure leaves a 1x1 block, which always is one).
    """
    _check_sides(op)
    _slots(op, b.strands)
    return _weighted(op, b, _half_word_closure(op, b, keep), b.strands - keep)


def _diagonal(block, side):
    """The entry that ``block``, {(i, j): nonzero value} of side ``side``,
    holds at every (i, i), or None when it holds nothing;
    ProportionalityFailure when it is no multiple of the identity."""
    value = block.get((0, 0))
    if block != ({} if value is None else {(i, i): value for i in range(side)}):
        raise ProportionalityFailure("partial closure is not a multiple of the identity")
    return value


def _half_word_closure(op, b, keep):
    """The block value of ``_closure`` on Scalars (module docstring).

    Block entry (i, j) sums row (i, s) of W A against column (j, s) of B
    over the closed states s, for W = 1^(x keep) (x) mu^(x k) and
    rep(b) = A B split at the middle letter.  W is kept on ``op`` when it
    holds at most MAX_ENTRIES entries; else its rows are built in batches
    of at most that many (``_weight_batches``) and not kept.  Each batch
    is multiplied by A's letters one at a time, by the embeddings that R
    and R^-1 keep, and meets B in one ``tensor._sums``, so the pairs
    listed at once are bounded per batch.
    """
    n, base, ctx = b.strands, op.base_dim, op.ctx
    k, split = n - keep, len(b.letters) // 2
    right = braid_representation(op.r, BraidWord(n, b.letters[split:])).entries
    if base ** keep * len(op.mu.entries) ** k > MAX_ENTRIES:
        batches = _weight_batches(op.mu, keep, k)
    else:
        batches = (_kept(op, ("rows", n, keep), lambda: next(_weight_batches(op.mu, keep, k))),)
    # B's entry (x, (j, s)) meets W A's entry ((i, s), x)
    closed = base ** k
    columns = {}
    for (x, c), v in right.items():
        j, s = divmod(c, closed)
        columns.setdefault((x, s), []).append((j, v))
    block = {}
    for left in batches:
        for letter in b.letters[:split]:
            crossing = op.r if letter > 0 else invert(op.r)
            left = matmul(left, crossing.embedding(abs(letter), n))
        pairs = {}
        for (row, x), u in left.entries.items():
            for j, y in columns.get((x, row % closed), ()):
                pairs.setdefault((row // closed, j), []).append((u, y))
        for key, v in _sums(ctx, pairs).items():
            block[key] = block[key] + v if key in block else v
    value = _diagonal({key: v for key, v in block.items() if not v.is_zero()}, base ** keep)
    return ctx.zero() if value is None else value


def _terms(weights):
    """({label: (key, coefficient, None) by ``Scalar._term``, or (0, 1,
    weight) where it keys none}, the keyed terms' largest reach)."""
    terms = {label: w._term() for label, w in weights.items()}
    return ({label: (0, 1, weights[label]) if t is None else (*t[:2], None)
             for label, t in terms.items()}, max([t[2] for t in terms.values() if t], default=0))


def _graded(op):
    """(tables, reach, block, moves, scale) when the graded R has one entry
    per column, at label maps or as a weighted swap outside a block J of
    labels that passes the sector gate, else None (module docstring).

    tables[True] holds the terms (``_terms``) of R[(ab), (cd)] keyed by
    (a, b), tables[None] those of mu[d, d] keyed by (d, d), and ``scale``
    alpha's and beta's ``Scalar._term`` when both have coefficient +-1;
    ``reach`` is the largest of their reaches.  A letter of sign s leaves
    the labels (a, b) as (right[b], left[a]), (left, right) = moves[s], or
    as (b, a) when ``moves`` is None.  With J empty ``block`` is None.  Else
    J's components take the color -1, which mu weighs 1, a positive letter
    1 on (-1, o) and P_o on (o, -1), and ``block`` is (op_J, Tr(mu_J) /
    beta, a negative letter's weights P_o^-1 and 1); -1 colors nothing when
    op_J takes the vanishing route."""
    base, one = op.base_dim, op.ctx.one()
    directions, kept, moved = set(), {}, {}
    for (row, col), x in op.r.entries.items():
        a, b = divmod(row, base)
        c, d = divmod(col, base)
        if a + b != c + d:
            directions.add(a + b > c + d)
            moved[a, b, c, d] = x
        else:
            kept[a, b, c, d] = x
    diagonal = {}
    for (row, col), x in op.mu.entries.items():
        if row == col:
            diagonal[row, row] = x
        else:
            directions.add(row > col)
    if len(directions) > 1:
        if len(diagonal) < len(op.mu.entries):
            return None
        kept.update(moved)
    block = sorted({label for (a, b, c, d) in kept if (c, d) != (b, a) for label in (a, b, c, d)})
    swap = {(a, b): x for (a, b, c, d), x in kept.items() if c not in block or d not in block}
    left, right, moves = {}, {}, None
    if block and all(left.setdefault(a, d) == d and right.setdefault(b, c) == c
                     for a, b, c, d in kept) and (
            sorted(left.values()) == sorted(right.values()) == list(range(base))):
        left, right = (tuple(m[x] for x in range(base)) for m in (left, right))
        moves = {True: (left, right), False: tuple(tuple(sorted(range(base), key=m.__getitem__))
                                                   for m in (right, left))}
        swap, block = {(a, b): x for (a, b, _, _), x in kept.items()}, []
    if block:
        if len(directions) > 1 or len(block) == base or not (
                op.alpha.is_unit() and op.beta.is_unit()):
            return None
        inside = {key: x for key, x in kept.items() if key[2] in block and key[3] in block}
        outside = [o for o, _ in diagonal if o not in block]
        swap[-1, -1], negative = one, {(-1, -1): one}
        for o in outside:
            g = {x: swap.get((x, o)) for x in block}
            h = {x: swap.get((o, x)) for x in block}
            if not all(w is not None and w.is_unit() for w in (*g.values(), *h.values())):
                return None
            p = {g[x] * h[x] for x in block}
            if len(p) != 1 or any(g[a] * g[b] != g[c] * g[d] for a, b, c, d in inside):
                return None
            swap[-1, o], swap[o, -1] = one, p.pop()
            negative[-1, o], negative[o, -1] = pow_int(swap[o, -1], -1), one
        at, m = {label: i for i, label in enumerate(block)}, len(block)
        r = SquareMatrix(op.ctx, m * m, {(at[a] * m + at[b], at[c] * m + at[d]): x
                                         for (a, b, c, d), x in inside.items()})
        mu = SquareMatrix(op.ctx, m, {(at[x], at[x]): diagonal[x, x] for x in block
                                      if (x, x) in diagonal})
        op_j = EnhancedOperator(r, mu, op.alpha, op.beta)
        diagonal = {(o, o): diagonal[o, o] for o in outside}
        if _structure(op_j).route != "vanishing":
            diagonal[-1, -1] = one
        block = (op_j, unknot_value(op_j), negative)
    scale = (op.alpha._term(), op.beta._term())
    scale = scale if None not in scale and all(t[1] ** 2 == 1 for t in scale) else None
    (swap, reach), (diagonal, far) = _terms(swap), _terms(diagonal)
    reach = max(reach, far, *(term[2] for term in scale or ()))
    return {True: swap, None: diagonal}, reach, block or None, moves, scale


def _inverse_weights(op, graded):
    """R^-1's terms as ``_graded`` gives R's, and J's for a negative letter,
    read off R's inverse, which ``compute_ts`` has formed on the same
    inputs."""
    block, moves = graded[2:4]
    base, inverse = op.base_dim, invert(op.r).entries
    left, right = moves[False] if moves else (range(base), range(base))
    weights = {(a, b): inverse[key] for a in range(base) for b in range(base)
               if (key := (a * base + b, right[b] * base + left[a])) in inverse}
    return _terms({**weights, **(block[2] if block else {})})


def _block_trace(block, b, strands):
    """(alpha^(-w') beta^(-k) Tr(rep_J(b') mu_J^(x k)), b'), b' the word of
    the k strands of ``b`` in ``strands`` (by top position), each letter
    numbered by the strands of b' left of it: ``compute_ts(op_J, b')``, by
    op_J's route, or op_J's unknot value to the k when b' has no letter."""
    op_j, unknot, _ = block
    word = b
    if len(strands) < b.strands:
        at, letters = list(range(b.strands)), []
        for letter in b.letters:
            j = abs(letter) - 1
            if at[j] in strands and at[j + 1] in strands:
                i = 1 + sum(s in strands for s in at[:j])
                letters.append(i if letter > 0 else -i)
            at[j], at[j + 1] = at[j + 1], at[j]
        word = BraidWord(len(strands), letters)
    return compute_ts(op_j, word).value if word.letters else pow_int(unknot, word.strands), word


def _coloring_trace(op, b, graded):
    """alpha^(-w) Tr(rep(b) mu^(x n)) / beta^n as a sum over the colorings
    of the closure's components, for the weights ``graded`` of ``_graded``.

    A component's colorings are the labels its monodromy fixes.  A coloring
    weighs mu[l, l] per top position and R^(+-1) per letter at the labels
    it meets, and ``_block_trace`` of its J components' strands times
    alpha^w' beta^k, once per set of J components.  Keyed terms multiply
    as a sum of keys and a product of coefficients while every product
    stays in the exponent range, and so do alpha^-w beta^-n when ``scale``
    keys them; other weights multiply as Scalars.
    """
    n, letters, ctx = b.strands, b.letters, op.ctx
    tables, reach, block, moves, scale = graded
    if any(letter < 0 for letter in letters):
        negative, far = _kept(op, ("weights", False), _inverse_weights, op, graded)
        tables, reach = {**tables, False: negative}, max(reach, far)
    if (len(letters) + n) * reach >= MAX_EXPONENT:  # every product a Scalar's
        tables = {sign: {label: (0, 1, ctx._keyed({k: c}) if w is None else w)
                         for label, (k, c, w) in table.items()} for sign, table in tables.items()}
        scale = None
    # each letter's pair and strands' label maps since their tops (None for a swap)
    identity = tuple(range(op.base_dim)) if moves else None
    at, maps, pairs = list(range(n)), [identity] * n, {}
    for letter in letters:
        j, positive = abs(letter) - 1, letter > 0
        s, t = at[j], at[j + 1]
        key = (positive, s, maps[s], t, maps[t])
        pairs[key] = pairs.get(key, 0) + 1
        if moves:
            left, right = moves[positive]
            maps[s], maps[t] = tuple(map(left.__getitem__, maps[s])), tuple(
                map(right.__getitem__, maps[t]))
        at[j], at[j + 1] = t, s
    # the closure joins the strand ending at position p to the one starting
    # there; tops[s] maps its component's label at its least strand to s's top
    component, sizes = _cycles(at)
    labels = [x for x, _ in tables[None]]
    tops, choices = [None] * n, [labels] * len(sizes)
    if moves:
        ends = {s: p for p, s in enumerate(at)}
        for first in range(n):
            s, h = first, identity
            while tops[s] is None:
                tops[s], h, s = h, tuple(map(maps[s].__getitem__, h)), ends[s]
            if h is not identity:  # the monodromy
                choices[component[first]] = [x for x in labels if h[x] == x]
    groups = {}  # mu at each top position last
    for (p, s, f, t, g), count in [*pairs.items(),
                                   *[((None, s, identity, s, identity), 1) for s in range(n)]]:
        if moves:
            f, g = tuple(map(f.__getitem__, tops[s])), tuple(map(g.__getitem__, tops[t]))
        key = (p, component[s], f, component[t], g)
        groups[key] = groups.get(key, 0) + count
    (ka, ca, _), (kb, cb, _) = scale or ((0, 1, 0), (0, 1, 0))  # alpha, beta
    start = -b.writhe * ka - n * kb, ca ** abs(b.writhe) * cb ** n
    acc, total, sectors = {}, None, {}
    for colors in itertools.product(*choices):
        (key, coeff), value = start, None
        if -1 in colors:
            # J's sector unweighted, times alpha^w' beta^k by keys or Scalars
            sector = tuple(color < 0 for color in colors)
            if sector not in sectors:
                value, word = _block_trace(
                    block, b, {s for s in range(n) if sector[component[s]]})
                if scale is None and not value.is_zero():
                    value = (value * pow_int(op.alpha, word.writhe)
                             * pow_int(op.beta, word.strands))
                sectors[sector] = (word.writhe * ka + word.strands * kb,
                                   ca ** abs(word.writhe) * cb ** word.strands, value)
            shift, factor, value = sectors[sector]
            if value.is_zero():
                continue
            key, coeff = key + shift, coeff * factor
        for (positive, cs, f, ct, g), count in groups.items():
            x, y = colors[cs], colors[ct]
            term = tables[positive].get((x if f is None else f[x], y if g is None else g[y]))
            if term is None:
                break
            k, c, w = term
            key += k * count
            if c != 1:
                coeff *= c ** count
            if w is not None:
                w = pow_int(w, count)
                value = w if value is None else value * w
        else:
            if value is None:
                acc[key] = acc.get(key, 0) + coeff
            else:
                value = value * ctx._keyed({key: coeff}) if key or coeff != 1 else value
                total = value if total is None else total + value
    value = ctx._keyed(acc) if total is None else ctx._keyed(acc) + total
    return value if scale else _weighted(op, b, value, n)


def _is_hecke(r):
    """Whether R^2 = c1 R + c0 for a unit c0.  c1 is R^2 over R, exactly, at
    an off-diagonal entry of R; for a diagonal R it is the sum of two
    diagonal entries, unequal where R has two such.  c0 is read off at
    (0, 0), and the whole identity is checked."""
    square = matmul(r, r)
    off = next((key for key in r.entries if key[0] != key[1]), None)
    if off is None:
        diagonal = [r.get(i, i) for i in range(r.side)]
        c1 = diagonal[0] + next((x for x in diagonal if x != diagonal[0]), diagonal[0])
    else:
        c1 = try_div_exact(square.get(*off), r.entries[off])
    rest = matadd(square, scalar_scale(r, -c1))
    c0 = rest.get(0, 0)
    return c0.is_unit() and rest == SquareMatrix.diagonal(r.ctx, [c0] * r.side)


class _Structure(Record):
    """The route ``compute_ts`` takes for an operator and what it reads: c
    for "closed form", ``_graded``'s weights for "coloring" and "sectors",
    None for "vanishing" and "closure"."""

    _fields = ("route", "params")

    def __init__(self, route, params):
        self.__dict__.update(route=route, params=params)


def _structure(op):
    """The verdict of ``op``'s route, decided on first use and kept under
    "route": after DimensionMismatch unless mu's side squared is R's side,
    the first that applies of the closed form (``_eigenvalue``), the
    coloring sum or its sectors (``_graded``), the vanishing gate and the
    half-word closure (module docstring).  The gate asks Tr(mu) = 0 first,
    as it is the cheapest, then the braid relation, the enhancement
    conditions and the quadratic relation; a documented refusal inside a
    gate means that it is not passed."""
    if "route" in op._closure:
        return op._closure["route"]
    _check_sides(op)
    if (c := _eigenvalue(op)) is not None:
        verdict = _Structure("closed form", c)
    elif (graded := _graded(op)) is not None:
        verdict = _Structure("coloring" if graded[2] is None else "sectors", graded)
    else:
        route = "closure"
        if trace(op.mu).is_zero():
            try:
                if check_ybe(op.r) and verify_eyb(op) and _is_hecke(op.r):
                    route = "vanishing"
            except (NotAUnit, DimensionMismatch, ExponentOverflow, NotDivisible,
                    NonInvertible, InverseOutsideRing):
                pass
        verdict = _Structure(route, None)
    op._closure["route"] = verdict
    return verdict


def compute_ts(op, b, normalized=False):
    """The trace invariant of the closure of ``b`` under operator ``op``.

    One verdict (``_structure``), decided on the first call and kept on
    ``op``, names the route (module docstring): the closed form
    c^w alpha^(-w) (Tr(mu) / beta)^n when (mu (x) mu) R = c (mu (x) mu)
    for a unit c; the coloring sum when the
    graded R has one entry per column at label maps, or is a weighted swap
    outside a block J of labels that passes the sector gate, each set of J
    components by ``compute_ts`` of the block operator op_J unless op_J
    vanishes; 0 when the vanishing gate passes (Tr(mu) = 0, the braid
    relation, the enhancement conditions and a quadratic relation with a
    unit constant); else the half-word closure.  Before the verdict, mu's
    side squared must be R's side, else DimensionMismatch (as in
    ``verify_eyb``); a refusal inside a gate only means that the gate is
    not passed.  After the verdict every route refuses in one order,
    checked here once: StrandBoundViolation over the strand cap,
    DimensionMismatch for a side-1 weight, then, on every route but the
    closed form and before a sector is taken, NonInvertible or
    InverseOutsideRing from inverting R when the word has a negative letter
    (a singular R_J makes R singular).  The closed form does not invert R,
    so on a singular R it gives a value where the other routes refuse a
    negative letter; an operator that ``verify_eyb`` accepts has an
    invertible R.  Every route raises NotAUnit and ExponentOverflow on the
    same inputs: c^w and alpha^(-w) are formed apart.  Division by beta^n
    is performed exactly, so beta need not be a unit.  The result's
    ``unknot_value`` is Tr(mu)/beta, or None on a raw call when that
    quotient is not in the ring: the raw value needs only the division by
    beta^n.  Normalization
    divides by the unknot value and raises NotDivisible when that is
    impossible (in particular when the unknot value is zero or not in the
    ring).  The verdict and each route's constants are kept on ``op``, and
    a later call reads each with one dict lookup and builds no function
    object for it; the writhe is kept on the braid word.
    """
    verdict = op._closure.get("route") or _structure(op)
    route, params = verdict.route, verdict.params
    _slots(op, b.strands)
    if route != "closed form" and min(b.letters, default=0) < 0:
        invert(op.r)
    if route == "closed form":
        raw = _closed_form(op, b, params)
    elif route == "closure":
        raw = _closure(op, b, 0)
    elif route == "vanishing":
        raw = _weighted(op, b, op.ctx.zero(), b.strands)
    else:  # the coloring sum and its sectors
        raw = _coloring_trace(op, b, params)
    if not normalized:
        try:
            unknot = _kept(op, "unknot", unknot_value, op)
        except NotDivisible:
            unknot = None
        return InvariantResult(raw, False, unknot, op, b)
    unknot = _kept(op, "unknot", unknot_value, op)
    if unknot.is_zero():
        raise NotDivisible("unknot value is zero; cannot normalize")
    return InvariantResult(try_div_exact(raw, unknot), True, unknot, op, b)


# -- annihilating relations and skein families --------------------------------


def verify_annihilating(r, relation):
    """Whether sum(k_i R^i) vanishes exactly; ``relation`` maps each power
    i, which may be negative, to its Scalar coefficient k_i over R's context.

    Returns a Verdict whose residual is the nonzero sum when it fails.
    """
    terms = dict(relation)
    ctx = r.ctx
    rinv = invert(r) if any(p < 0 for p in terms) else None
    total = SquareMatrix(ctx, r.side, {})
    for power, coeff in sorted(terms.items()):
        mat = SquareMatrix.identity(ctx, r.side)
        for _ in range(abs(power)):
            mat = matmul(mat, r if power > 0 else rinv)
        total = matadd(total, scalar_scale(mat, coeff))
    return Verdict(True) if total.is_zero() else Verdict(False, residual=total)


class RelationSpec(Record):
    """A named annihilating relation of a (possibly restricted) catalog matrix."""

    _fields = ("name", "rmatrix", "gens", "restrictions", "coefficients")

    def __init__(self, name, rmatrix, gens, restrictions, coefficients):
        # coefficients: (power, text) pairs
        self.__dict__.update(name=name, rmatrix=rmatrix, gens=gens,
                             restrictions=restrictions, coefficients=coefficients)

    def context(self):
        return ScalarContext(self.gens)

    def matrix(self, ctx=None):
        return restricted_matrix(self.rmatrix, self.restrictions, ctx or self.context())

    def coeffs(self, ctx):
        return tuple((p, ctx.parse(text)) for p, text in self.coefficients)


ANNIHILATING_RELATIONS = {
    spec.name: spec
    for spec in (
        RelationSpec("R3.1|s=1", "R3.1", ("p", "q"), (("s", "1"),),
                     ((2, "1"), (1, "-1"), (0, "-p*q"), (-1, "p*q"))),
        RelationSpec("R3.1|s=1|cubic", "R3.1", ("p", "q"), (("s", "1"),),
                     ((3, "1"), (1, "-(1+p*q)"), (-1, "p*q"))),
        RelationSpec("R3.1|s=-1", "R3.1", ("p", "q"), (("s", "-1"),),
                     ((2, "1"), (0, "-(1+p*q)"), (-2, "p*q"))),
        RelationSpec("R3.1", "R3.1", ("p", "q", "s"), (),
                     ((2, "1"), (1, "-(1+s)"), (0, "s-p*q"),
                      (-1, "p*q*(1+s)"), (-2, "-s*p*q"))),
        RelationSpec("R2.1", "R2.1", ("p", "q"), (),
                     ((1, "1"), (0, "p*q-1"), (-1, "-p*q"))),
        RelationSpec("R2.2", "R2.2", ("p", "q"), (),
                     ((1, "1"), (0, "p*q-1"), (-1, "-p*q"))),
        RelationSpec("R2.3|p=-1", "R2.3", ("q",), (("p", "-1"),),
                     ((2, "1"), (1, "-1"), (0, "-1"), (-1, "1"))),
        RelationSpec("R1.1", "R1.1", ("q",), (),
                     ((1, "1"), (0, "2*(q^2-1)"), (-1, "-4*q^2"))),
        RelationSpec("R1.2", "R1.2", ("q",), (),
                     ((1, "1"), (0, "q-1"), (-1, "-q"))),
        RelationSpec("R1.3", "R1.3", ("q",), (),
                     ((2, "1"), (0, "-1"))),
        RelationSpec("R1.4", "R1.4", ("q",), (),
                     ((2, "1"), (1, "-1"), (0, "-q^2"), (-1, "q^2"))),
    )
}


def get_relation(name):
    if name not in ANNIHILATING_RELATIONS:
        raise UnknownName(f"no annihilating relation named {name!r}")
    return ANNIHILATING_RELATIONS[name]


class SkeinFamily(Record):
    """Braids differing by a power of one crossing at a fixed word position.

    ``terms`` are (power, coefficient Scalar) pairs; the powers are appended
    to the base word.
    """

    _fields = ("base", "position", "terms")

    def __init__(self, base, position, terms):
        self.__dict__.update(base=base, position=position, terms=terms)

    def member(self, power):
        letter = self.position if power > 0 else -self.position
        return BraidWord(self.base.strands, self.base.letters + (letter,) * abs(power))


def check_skein_family(op, fam):
    """Whether sum(k_i alpha^i T(L_i)) vanishes over the family members; each
    coefficient k_i is a Scalar over the operator's context.

    Returns a Verdict whose residual is the nonzero sum when it fails.
    """
    total = op.ctx.zero()
    for power, coeff in fam.terms:
        value = compute_ts(op, fam.member(power)).value
        total = total + coeff * pow_int(op.alpha, power) * value
    return Verdict(True) if total.is_zero() else Verdict(False, residual=total)


# -- the open-strand closure ---------------------------------------------------


def open_trace(op, b):
    """The closure of strands 2..n of ``b`` under ``op``, as the multiple of
    the identity left on strand 1, or ProportionalityFailure."""
    return _closure(op, b, 1)


# R1.2/1's image at q = t^-2; filled on first use
_nabla_operator = []


def alexander_nabla(b):
    """The Alexander invariant of the closure of ``b`` in the variable t:
    the open trace of row R1.2/1's image at q = t^-2 (``eyb.specialize``:
    sqrt_q -> t^-1, so mu = diag(t, -t) and alpha = t^-1), built by the
    first call and kept."""
    if not _nabla_operator:
        ctx = ScalarContext(("t",))
        _nabla_operator.append(
            specialize(get_table1_eyb("R1.2", 1), {"q": ctx.parse("t^-2")}, ctx))
    return open_trace(_nabla_operator[0], b)


# -- classification -------------------------------------------------------------


def _is_unknot_value(raw, op):
    """Whether raw / unknot == 1, decided as raw == unknot with no division;
    a zero unknot value raises ZeroDivisionError, as the division would."""
    unknot = _kept(op, "unknot", unknot_value, op)
    if unknot.is_zero():
        raise ZeroDivisionError("division by zero scalar")
    return raw == unknot


def _tag_expectation(tag, op, link, raw):
    """(expected description, matched or None when not asserted); the
    constant tags compare raw with an int, so no Scalar is built."""
    if tag in ("alexander-zero", "const-0"):
        return "0", raw.is_zero()
    if tag == "const-1":
        return "1", raw == 1
    if tag == "two-power-l":
        return f"2^{link.components}", raw == 2 ** link.components
    if tag == "knots-1":
        if link.components != 1:
            return "-", None
        return "1 (knots)", _is_unknot_value(raw, op)
    if tag == "knots-0":
        if link.components != 1:
            return "-", None
        return "0 (knots)", raw.is_zero()
    if tag == "jones":
        if link.name == "0_1":
            return "1", _is_unknot_value(raw, op)
        return "nontrivial", not _is_unknot_value(raw, op)
    raise UnknownName(f"unknown tag {tag!r}")


def classification_report(entries=None, links=None, sign="+"):
    """Invariant values over the named closures, labeled against each row's tag.

    Returns a list of dicts with keys rmatrix, row, link, value, expected,
    match; match is 'yes', 'no', or 'n/a' where the tag asserts nothing.
    """
    if entries is None:
        entries = table1_entries()
    if links is None:
        links = [get_named_braid(name) for name in NAMED_LINKS]
    rows = []
    for entry in entries:
        op = entry.build(sign)
        for link in links:
            raw = compute_ts(op, link.braid).value
            expected, matched = _tag_expectation(entry.tag, op, link, raw)
            rows.append(
                {
                    "rmatrix": entry.rmatrix,
                    "row": entry.row,
                    "link": link.name,
                    "value": format_scalar(raw),
                    "expected": expected,
                    "match": "n/a" if matched is None else ("yes" if matched else "no"),
                }
            )
    return rows
