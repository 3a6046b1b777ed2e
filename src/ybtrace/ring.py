"""Exact scalar arithmetic.

Scalars are Laurent polynomials in named commuting generators with
Gaussian-rational coefficients.  Exponents may be half-integers (stored
doubled), and a context may adjoin square-root symbols whose square rewrites
to a declared radicand.  All values are immutable and kept in canonical
form: no zero coefficients, root exponents reduced to 0 or 1.

A Scalar stores its terms as a dict {key: int numerator} over one positive
int denominator shared by all terms, with no common factor of the
denominator and all numerators.  A key is one int that packs a monomial and
a power of i in fixed bit fields, from the most significant down:

    total doubled degree | one field per name, in ctx.names order | i

* The total field is the unbounded top of the int.
* A generator's field holds its doubled exponent plus a bias of
  2*MAX_EXPONENT, under a guard bit.  Exponents lie in
  [-MAX_EXPONENT, MAX_EXPONENT).
* A root's field holds its doubled exponent, 0 or 2, under a guard bit.
* The i field holds 0 or 1 under a guard bit.  A coefficient a + b*i at a
  monomial is two keys: the monomial's key holds a, the same key plus 1
  holds b.

The product of two monomials is key1 + key2 - the context's zero key, and
graded lexicographic order is int order.  One test of a product key against
the guard bits finds the rare term that needs more work: i*i, which becomes
a sign; a root's doubled exponent reaching 4, which is replaced by the
radicand; and an exponent past MAX_EXPONENT, which raises ExponentOverflow
instead of carrying into the next field.

Roots are reduced in that one place, ``_settle``.  A scalar built from terms
whose root powers lie outside {0, 1} reaches it through ordinary
multiplication: root^e is root^(e mod 2) times radicand^(e // 2).

A coefficient is given as an int, a Fraction or an (re, im) pair of them,
and ``Scalar.terms`` reads it back as such a pair, each part an int when
integral and a Fraction otherwise: a new dict {doubled exponent tuple:
(re, im)} on each access, so ``Scalar(ctx, x.terms) == x``.  The library's
own code never builds that view; ``Scalar.term_count()`` counts its terms.

Sums of products run in two loops: ``dot`` for one Scalar, and ``join`` for
one sum per key, which ``push``, ``contract`` and ``dot_entries`` feed.
"""

import math
import re
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import or_

from .errors import (
    ContextMismatch, ExponentOverflow, NotAUnit, NotDivisible, ParseError, UnknownName,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Exponents lie in [-MAX_EXPONENT, MAX_EXPONENT), doubled in [-_BIAS, _BIAS).
# Scalar text and JSON beyond it raise ParseError, and a product or power
# beyond it raises ExponentOverflow.
MAX_EXPONENT = 4096
_BIAS = 2 * MAX_EXPONENT
_GEN_VALUES = 2 * _BIAS - 1  # mask of a generator field's value bits
_GEN_BITS = (2 * _BIAS).bit_length()  # value bits and the guard bit
_ROOT_BITS = 3  # 0 or 2, and the guard bit 4
_I_BITS = 2  # 0 or 1, and the guard bit 2
_OUTSIDE = f"an exponent outside [-{MAX_EXPONENT}, {MAX_EXPONENT})"


def _rational(n, d):
    """n/d as an int when d divides n, else as a Fraction."""
    return n // d if n % d == 0 else Fraction(n, d)


_new = object.__new__


def _coeff(c):
    """Ints (a, b, d), d > 0, with (a + b*i)/d the coefficient ``c``: an int, a
    Fraction or an (re, im) pair of them."""
    re, im = c if isinstance(c, tuple) else (c, 0)
    if type(re) is int and type(im) is int:
        return re, im, 1
    re, im = Fraction(re), Fraction(im)
    d = math.lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


class _Layout:
    """The bit fields of the keys of a context with ngens generators and nroots roots."""

    __slots__ = ("ngens", "shifts", "gen_shifts", "total_shift", "zero", "gen_guard",
                 "root_guard", "guard", "root_fields", "fields")

    def __init__(self, ngens, nroots):
        shifts, pos = [], _I_BITS
        for k in range(ngens + nroots - 1, -1, -1):
            shifts.append(pos)
            pos += _GEN_BITS if k < ngens else _ROOT_BITS
        self.ngens = ngens
        self.shifts = tuple(reversed(shifts))  # one per name, in ctx.names order
        self.gen_shifts = self.shifts[:ngens]
        self.total_shift = pos
        self.zero = sum(_BIAS << s for s in self.gen_shifts)
        self.gen_guard = sum(2 * _BIAS << s for s in self.gen_shifts)
        self.root_guard = sum(4 << s for s in self.shifts[ngens:])
        self.guard = self.gen_guard | self.root_guard | 2
        self.root_fields = sum(7 << s for s in self.shifts[ngens:])
        # (shift, value mask, bias) per name
        self.fields = tuple((s, _GEN_VALUES, _BIAS) if pos < ngens else (s, 7, 0)
                            for pos, s in enumerate(self.shifts))

    def key(self, exps):
        """The key of the monomial with doubled exponents ``exps`` (roots 0 or 2)."""
        k = sum(exps) << self.total_shift
        for d, (s, _, bias) in zip(exps, self.fields):
            if bias and not -bias <= d < bias:
                raise ExponentOverflow(_OUTSIDE)
            k += (d + bias) << s
        return k

    def exps(self, key):
        """The doubled exponent tuple of a key (its i field is ignored)."""
        return tuple([((key >> s) & mask) - bias for s, mask, bias in self.fields])


class ScalarContext:
    """Declares the generator names and adjoined square roots of a scalar ring.

    ``roots`` is a sequence of ``(name, radicand)`` pairs; each radicand is
    given as scalar text and may reference only generators and roots declared
    before it.  Names must be unique identifiers; ``i`` is reserved for the
    imaginary unit.
    """

    __slots__ = ("generators", "root_names", "names", "_index", "_radicands", "_layout",
                 "_rooted")

    def __init__(self, generators, roots=()):
        self.generators = tuple(generators)
        self.root_names = tuple(name for name, _ in roots)
        self.names = self.generators + self.root_names
        seen = set()
        for name in self.names:
            if not _NAME_RE.fullmatch(name) or name == "i":
                raise ValueError(f"invalid generator name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        self._index = {name: k for k, name in enumerate(self.names)}
        self._layout = _Layout(len(self.generators), len(self.root_names))
        self._radicands, self._rooted = [], {}
        ngens = len(self.generators)
        for j, (name, rad_text) in enumerate(roots):
            rad = self.parse(rad_text) if isinstance(rad_text, str) else rad_text
            if rad.is_zero():
                raise ValueError(f"radicand of {name!r} is zero")
            cut = ngens + j
            for exps, _, _ in _sorted_terms(rad):
                if any(exps[cut:]):
                    raise ValueError(
                        f"radicand of {name!r} references a later generator"
                    )
            self._radicands.append(rad)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ScalarContext):
            return NotImplemented
        return (
            self.names == other.names
            and self.generators == other.generators
            and [(r._nums, r._den) for r in self._radicands]
            == [(r._nums, r._den) for r in other._radicands]
        )

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        roots = ", ".join(f"{n}={r}" for n, r in zip(self.root_names, self._radicands))
        return f"ScalarContext({list(self.generators)!r}" + (f", roots[{roots}])" if roots else ")")

    # -- constructors -----------------------------------------------------

    def zero(self):
        return _scalar(self, {})

    def scalar(self, value, imag=0):
        zero = self._layout.zero
        if type(value) is int and not imag:
            return _scalar(self, {zero: value} if value else {})
        a, b, d = _coeff((value, imag))
        nums = {}
        if a:
            nums[zero] = a
        if b:
            nums[zero + 1] = b
        return _scalar(self, nums, d)

    def one(self):
        return self.scalar(1)

    def i(self):
        return self.scalar(0, 1)

    def monomial(self, coeff, exponents):
        """Monomial with ``exponents`` a mapping name -> exponent (Fraction ok)."""
        exps = [0] * len(self.names)
        for name, e in exponents.items():
            if name not in self._index:
                raise UnknownName(f"unknown generator {name!r}")
            d = Fraction(e) * 2
            if d.denominator != 1:
                raise NotAUnit(f"exponent {e} of {name!r} is not a half-integer")
            exps[self._index[name]] = int(d)
        return _from_terms(self, [(tuple(exps), _coeff(coeff))])

    def gen(self, name, power=1):
        return self.monomial(1, {name: power})

    def parse(self, text):
        return parse_scalar(self, text)

    def _keyed(self, terms):
        """The Scalar of {key: int}, keys sums of ``Scalar._term``'s in range."""
        zero = self._layout.zero
        return _scalar(self, {zero + k: c for k, c in terms.items() if c})


def _scalar(ctx, nums, den=1):
    """The Scalar with numerators ``nums`` over ``den``, reduced by one gcd."""
    if den != 1:
        if not nums:
            den = 1
        else:
            g = math.gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {k: v // g for k, v in nums.items()}
    x = _new(Scalar)
    x.ctx, x._nums, x._den = ctx, nums, den
    return x


def _radicand(ctx, j):
    """The radicand of root j, or ValueError while the context is still declaring it."""
    if j >= len(ctx._radicands):
        raise ValueError(f"root {ctx.root_names[j]!r} is used before its radicand is declared")
    return ctx._radicands[j]


def _from_terms(ctx, items):
    """The Scalar of raw (doubled exponent tuple, (a, b, d)) pairs, (a + b*i)/d
    the coefficient.

    Zero coefficients are dropped first.  A root's power e outside {0, 1}
    becomes root^(e mod 2) * radicand^(e // 2) by Scalar multiplication, so
    that ``_settle`` is the one reduction of roots; a half-integer e, or a
    negative e // 2 of a radicand that is not a unit, raises NotAUnit.
    """
    ngens = len(ctx.generators)
    plain, factors = [], []
    for exps, c in items:
        if not (c[0] or c[1]):
            continue
        bad = [pos for pos in range(len(exps) - 1, ngens - 1, -1) if exps[pos] not in (0, 2)]
        if not bad:
            plain.append((exps, c))
            continue
        exps, powers = list(exps), []
        for pos in bad:
            rad = _radicand(ctx, pos - ngens)
            if exps[pos] % 2:
                raise NotAUnit(f"fractional power of root {ctx.names[pos]!r}")
            k, rho = divmod(exps[pos] // 2, 2)
            exps[pos] = 2 * rho
            powers.append(pow_int(rad, k))
        term = _from_terms(ctx, [(tuple(exps), c)])
        for power in powers:
            term = term * power
        factors.append(term)
    key = ctx._layout.key
    return sum(factors, _summed(ctx, [(key(exps), a, b, d) for exps, (a, b, d) in plain]))


def _summed(ctx, terms):
    """The Scalar of the sum of (key, a, b, d) terms, (a + b*i)/d the
    coefficient at the key's monomial, over one lcm of the d."""
    den = math.lcm(*(d for _, _, _, d in terms))
    nums = {}
    for k, a, b, d in terms:
        scale = den // d
        for key, v in ((k, a), (k + 1, b)):
            prev = nums.get(key)
            v = v * scale if prev is None else prev + v * scale
            if v:
                nums[key] = v
            elif prev is not None:
                del nums[key]
    return _scalar(ctx, nums, den)


def _settle(ctx, flagged, acc, den):
    """Add the (key, numerator) term products that hit a guard bit into ``acc``.

    i*i becomes a sign, and a root's doubled exponent 4 is replaced by the
    radicand, whose terms may hit a guard bit again.  The first root in
    ``ctx.names`` order whose field has reached 4 goes first: its radicand
    adds at most 2 to the roots declared before it, which are below 4, so
    no field passes 4 and none carries into the next.  A generator's
    exponent out of range raises ExponentOverflow once every root's square
    is replaced, as a radicand may bring it back (the key's arithmetic is
    exact, and root fields lie below a generator's borrow).  A radicand
    with a denominator gives Fraction numerators, which are scaled back to
    ints over a larger denominator at the end.  Returns (acc, den).
    """
    layout = ctx._layout
    zero, total, ngens = layout.zero, layout.total_shift, layout.ngens
    pending = list(flagged)
    fractions = False
    while pending:
        k, c = pending.pop()
        if (k & 3) == 2:
            k, c = k - 2, -c
        if k & layout.root_guard:
            for j, s in enumerate(layout.shifts[ngens:]):
                if (k >> s) & 4:
                    break
            rad = _radicand(ctx, j)
            base = k - (4 << s) - (4 << total) - zero
            for rk, rc in rad._nums.items():
                v = c * rc if rad._den == 1 else Fraction(c * rc, rad._den)
                pending.append((base + rk, v))
            fractions = fractions or rad._den != 1
            continue
        if k & layout.gen_guard:
            raise ExponentOverflow(_OUTSIDE)
        prev = acc.get(k)
        c = c if prev is None else prev + c
        if c:
            acc[k] = c
        elif prev is not None:
            del acc[k]
    if fractions:
        scale = math.lcm(*(v.denominator for v in acc.values()))
        acc = {k: int(v * scale) for k, v in acc.items()}
        den *= scale
    return acc, den


class Scalar:
    """An immutable element of the ring declared by a ScalarContext.

    ``Scalar(ctx, terms)`` builds one from a dict {doubled exponent tuple:
    coefficient}, a coefficient an int, a Fraction or an (re, im) pair of
    them; ``terms`` reads it back with (re, im) pairs.
    """

    __slots__ = ("ctx", "_nums", "_den")

    def __init__(self, ctx, terms):
        x = _from_terms(ctx, [(exps, _coeff(c)) for exps, c in terms.items()])
        self.ctx, self._nums, self._den = ctx, x._nums, x._den

    @property
    def terms(self):
        """A new dict {doubled exponent tuple: (re, im)}, one item per monomial."""
        den = self._den
        return {exps: (_rational(a, den), _rational(b, den))
                for exps, a, b in _sorted_terms(self)}

    def term_count(self):
        """The number of monomials, ``len(self.terms)`` without building it."""
        nums = self._nums
        count = len(nums)
        for k in nums:
            if k & 1 and k - 1 in nums:
                count -= 1
        return count

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self._nums

    def is_unit(self):
        """True when the scalar has an inverse inside the ring."""
        if self.term_count() != 1:
            return False
        k = next(iter(self._nums))
        layout = self.ctx._layout
        for j, rad in enumerate(self.ctx._radicands):
            if (k >> layout.shifts[layout.ngens + j]) & 7 and not rad.is_unit():
                return False
        return True

    def _term(self):
        """(key, coefficient, reach) of a one-term Scalar with an int
        coefficient and no i or root, else None.  Keys add as monomials
        multiply, and reach is the largest size of a doubled exponent, so a
        product of m such terms is in range when m * reach < 2 * MAX_EXPONENT."""
        if self._den != 1 or len(self._nums) != 1:
            return None
        (k, c), = self._nums.items()
        layout = self.ctx._layout
        if k & (layout.root_fields | 1):
            return None
        return k - layout.zero, c, max([abs(((k >> s) & _GEN_VALUES) - _BIAS)
                                        for s in layout.gen_shifts], default=0)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatch(
                    f"contexts differ: {self.ctx!r} vs {other.ctx!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.scalar(other)
        return NotImplemented

    def __add__(self, other):
        if other.__class__ is not Scalar or other.ctx is not self.ctx:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._nums, other._nums
        da, db = self._den, other._den
        if da == db:
            den, scale = da, 1
            acc = dict(a)
        else:  # over the lcm of the denominators
            g = math.gcd(da, db)
            den, scale = da * (db // g), da // g
            acc = {k: v * (db // g) for k, v in a.items()}
        get = acc.get
        for k, v in b.items():
            prev = get(k)
            v = scale * v if prev is None else prev + scale * v
            if v:
                acc[k] = v
            elif prev is not None:
                del acc[k]
        return _scalar(self.ctx, acc, den)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.ctx, {k: -v for k, v in self._nums.items()}, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ctx = self.ctx
        if other.__class__ is not Scalar or other.ctx is not ctx:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._nums, other._nums
        if len(a) < len(b):
            a, b = b, a
        if len(b) != 1:  # zero, or a sum times a sum
            return dot(ctx, ((self, other),))
        # a times a monomial: no two products share a key
        layout = ctx._layout
        guard = layout.guard
        acc, flagged = {}, []
        (k2, c2), = b.items()
        k2 -= layout.zero
        for k1, c1 in a.items():
            k = k1 + k2
            if k & guard:
                flagged.append((k, c1 * c2))
            else:
                acc[k] = c1 * c2
        den = self._den * other._den
        if flagged:
            acc, den = _settle(ctx, flagged, acc, den)
        if den != 1 and acc:  # _scalar, inlined on the hottest path
            g = math.gcd(den, *acc.values())
            if g != 1:
                den //= g
                acc = {k: v // g for k, v in acc.items()}
        x = _new(Scalar)
        x.ctx, x._nums, x._den = ctx, acc, den
        return x

    __rmul__ = __mul__

    def __pow__(self, k):
        return pow_int(self, k)

    def __eq__(self, other):
        if other.__class__ is int:  # compared with no Scalar built
            nums = self._nums
            return (self._den == 1 and len(nums) == 1
                    and nums.get(self.ctx._layout.zero) == other) if other else not nums
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums and self.ctx == other.ctx

    def __hash__(self):
        return hash((self._den, frozenset(self._nums.items())))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"<Scalar {format_scalar(self)}>"


def dot(ctx, pairs):
    """The sum of x * y over the (x, y) Scalar pairs, or ContextMismatch for a
    pair outside ``ctx``.  All term products go into one accumulator over one
    denominator, reduced once: the unique reduced form of the sum.
    """
    zero, guard = ctx._layout.zero, ctx._layout.guard
    acc, flagged, den = {}, [], 1
    get = acc.get
    for x, y in pairs:
        if x.ctx is not ctx or y.ctx is not ctx:
            for z in (x, y):
                if z.ctx != ctx:
                    raise ContextMismatch(f"contexts differ: {ctx!r} vs {z.ctx!r}")
        d = x._den * y._den
        if den % d:  # over the lcm of the denominators
            up = d // math.gcd(den, d)
            den *= up
            for k in acc:
                acc[k] *= up
            flagged = [(k, c * up) for k, c in flagged]
        scale = den // d
        for k1, c1 in x._nums.items():
            k1 -= zero
            c1 *= scale
            for k2, c2 in y._nums.items():
                k = k1 + k2
                if k & guard:
                    flagged.append((k, c1 * c2))
                    continue
                c = c1 * c2
                prev = get(k)
                if prev is None:
                    acc[k] = c
                else:
                    c += prev
                    if c:
                        acc[k] = c
                    else:
                        del acc[k]
    if flagged:
        acc, den = _settle(ctx, flagged, acc, den)
    return _scalar(ctx, acc, den)


def join(ctx, products):
    """({key: raw accumulator}, denominator) of the sums of x * y / d over the
    (key, x, d, y) ``products``: the ring's keyed loop, behind ``push``,
    ``contract`` and ``dot_entries``.

    x is a {packed key: int numerator} dict, y an iterable of (packed key,
    int numerator) pairs and d a nonzero int, whose sign is the product's.
    All accumulators are over one running denominator, the lcm of the d's.
    Guard-bit keys and zeros stay in the accumulators until the finish, so
    a product past the exponent range raises ExponentOverflow even when it
    cancels.  The finish tests all keys at once for a guard bit; if one is
    set, the accumulators that hold one are settled (``_settle``), and all
    go over one denominator again when a radicand with a denominator grew
    one.  Then zeros and empty accumulators are dropped.  Neither a gcd nor
    a Scalar is formed.
    """
    zero = ctx._layout.zero
    out, den, last = {}, 1, None
    get = out.get
    for key, x, d, y in products:
        if d != last:
            if den % d:  # over the lcm of the denominators
                up = abs(d) // math.gcd(den, d)
                den *= up
                for acc in out.values():
                    for k in acc:
                        acc[k] *= up
            last, scale = d, den // d
        acc = get(key)
        if acc is None:
            acc = out[key] = {}
        acc_get = acc.get
        for k1, c1 in x.items():
            k1 -= zero
            c1 *= scale
            for k2, c2 in y:
                k = k1 + k2
                acc[k] = acc_get(k, 0) + c1 * c2
    guard = ctx._layout.guard
    if reduce(or_, chain.from_iterable(out.values()), 0) & guard:
        dens = {}
        for key, acc in out.items():
            if reduce(or_, acc, 0) & guard:
                flagged = [(k, c) for k, c in acc.items() if k & guard]
                for k, _ in flagged:
                    del acc[k]
                out[key], dens[key] = _settle(ctx, flagged, acc, den)
        up = math.lcm(den, *dens.values()) // den  # a radicand with a denominator
        if up != 1:
            out = {key: {k: c * (den * up // dens.get(key, den)) for k, c in acc.items()}
                   for key, acc in out.items()}
            den *= up
    if not (all(out.values()) and all(map(all, map(dict.values, out.values())))):
        out = {key: acc if all(acc.values()) else {k: c for k, c in acc.items() if c}
               for key, acc in out.items() if any(acc.values())}
    return out, den


def dot_entries(ctx, plus, minus):
    """{key: sum of x * y over plus' (key, x, y) triples minus the same sum over
    minus'}, holding only the nonzero sums; ContextMismatch for a scalar
    outside ``ctx``.  One ``join``, a minus triple's sign in its denominator.
    """
    products = [(key, x._nums, sign * x._den * y._den, y._nums.items())
                for triples, sign in ((plus, 1), (minus, -1)) for key, x, y in triples
                if x.ctx is ctx is y.ctx or _check_scalars(ctx, (x, y))]
    out, den = join(ctx, products)
    return {key: _scalar(ctx, acc, den) for key, acc in out.items()}


# -- packed vectors ------------------------------------------------------------


class PackedVector:
    """A sparse vector of ring elements kept as raw terms.

    Entry ``index`` is ``_packed[index]``, a {packed key: int numerator} dict,
    over the one positive denominator ``_den`` that all entries share.  No
    entry is empty, but no gcd is taken either: the terms are reduced to a
    Scalar only by ``unpack`` and ``contract``.  Built by ``pack`` and
    ``push``; two vectors are equal when their entries are.
    """

    __slots__ = ("ctx", "_packed", "_den")

    def __init__(self, ctx, packed, den):
        self.ctx, self._packed, self._den = ctx, packed, den

    def __len__(self):
        """The number of nonzero entries."""
        return len(self._packed)

    def unpack(self):
        """{index: Scalar} of the entries, in the vector's order."""
        ctx, den = self.ctx, self._den
        return {index: _scalar(ctx, acc, den) for index, acc in self._packed.items()}

    def __eq__(self, other):
        if not isinstance(other, PackedVector):
            return NotImplemented
        return self.ctx == other.ctx and self.unpack() == other.unpack()


def _check_scalars(ctx, values):
    """True, or ContextMismatch for a value outside ``ctx``."""
    for x in values:
        if x.ctx is not ctx and x.ctx != ctx:
            raise ContextMismatch(f"contexts differ: {ctx!r} vs {x.ctx!r}")
    return True


def pack(ctx, vec):
    """The PackedVector of the nonzero entries of ``vec``, {index: Scalar of
    ``ctx``}, over the lcm of their denominators; ContextMismatch for a
    scalar outside ``ctx``."""
    _check_scalars(ctx, vec.values())
    den = math.lcm(*(x._den for x in vec.values()))
    return PackedVector(ctx, {
        index: x._nums if x._den == den
        else {k: c * (den // x._den) for k, c in x._nums.items()}
        for index, x in vec.items() if x._nums}, den)


def crossing_table(ctx, side, columns):
    """The form of a crossing that ``push`` applies.

    ``columns`` maps each column of an operator of side ``side`` (a digit
    pair) to its (row - column, Scalar) entries in row order.  Each Scalar
    is kept as the list of its (key, numerator) pairs, the y terms of
    ``join``, and its denominator.  ContextMismatch for an entry outside
    ``ctx``.
    """
    _check_scalars(ctx, (x for entries in columns.values() for _, x in entries))
    return ctx, side, {pair: [(delta, list(x._nums.items()), x._den) for delta, x in entries]
                       for pair, entries in columns.items()}


def push(vec, table, right):
    """The image of the PackedVector ``vec`` under a crossing table applied at
    the digit pair just above the lowest ``right`` states.

    A state's pair digit is (state // right) % side; the crossing's column
    for that digit sends the state to state + (row - column) * right with
    its entry as factor, so the digits above and below the pair pass
    through.  One ``join``, so the image is as raw as ``vec``: no gcd, no
    Scalar.  ContextMismatch when the table belongs to another context.
    """
    ctx, side, columns = table
    if ctx is not vec.ctx and ctx != vec.ctx:
        raise ContextMismatch(f"contexts differ: {vec.ctx!r} vs {ctx!r}")
    dx = vec._den
    return PackedVector(ctx, *join(ctx, [
        (state + delta * right, x, dx * d, terms) for state, x in vec._packed.items()
        for delta, terms, d in columns.get(state // right % side, ())]))


def contract(vec, pairs):
    """{key: sum of vec[s] * y over the (key, y) pairs listed under each
    index s of ``vec``}, holding only the nonzero sums.

    ``pairs`` maps an index to its (key, y) pairs, y a Scalar of the
    vector's context (ContextMismatch otherwise).  One ``join``.
    """
    ctx, dx = vec.ctx, vec._den
    out, den = join(ctx, [(key, x, dx * y._den, y._nums.items())
                          for index, x in vec._packed.items() for key, y in pairs.get(index, ())
                          if y.ctx is ctx or _check_scalars(ctx, (y,))])
    return {key: _scalar(ctx, acc, den) for key, acc in out.items()}


# The integers of ``kronecker`` hold at most this many bits, as MAX_ENTRIES
# caps what an embedding may store.
MAX_KRONECKER_BITS = 1 << 16


def kronecker(ctx, entries, count, degree=3, reach=None, rooted=()):
    """({index: int}, read, width) for the Scalars ``entries`` of ``ctx`` by
    Kronecker substitution, or None where it does not apply; ContextMismatch
    for an entry outside ``ctx``.

    The ints add and multiply as the entries do, and ``read(v)`` is the exact
    Scalar of an int v formed as a signed sum of at most ``count`` products
    of ``degree`` entries' ints, so v is 0 exactly when that sum is.  A sum
    of products of fewer entries is 0 exactly when its int is, too.

    * The entries' numerators go over L, the lcm of their denominators, so a
      product of ``degree`` of them is over L^degree.
    * Each name's doubled exponents e lie in [lo, hi] and are all lo plus
      multiples of g, their gcd.  A term maps to its coefficient times
      2^(B * idx), idx the mixed-radix number with digits (e - lo) / g and
      radix degree * w + 1, w = (hi - lo) / g.  A product of ``degree``
      terms has digits up to degree * w, under the radix, so its idx is the
      sum of theirs, and distinct monomials of such products have distinct
      idx in [0, S), S the product of the radixes.
    * A coefficient of such a sum is at most count * N^degree in size, N the
      largest l1 norm of an entry's numerators over L, and B is one bit more
      than that bound has, so the sum is the int with each coefficient one
      balanced base-2^B digit, below 2^(B-1) in size: ``read`` gives them back,
      and ``width`` is B.

    Only the entries whose index is in ``rooted`` may hold a root, whose 0/1
    exponent is one more digit.  The caller's sums must multiply at most one
    of them into each product: a root's square is not reduced, so a sum
    with one could be 0 in the ring and not as an int.

    None for a term with an i, or with a root outside ``rooted``; for
    exponents where a product of ``reach`` (default ``degree``) factors
    could leave [-MAX_EXPONENT, MAX_EXPONENT) (where the packed kernels
    raise ExponentOverflow), each factor a term of an entry or, with
    ``rooted`` entries, of a radicand, which reducing a root's square
    multiplies in; and for ints of S * B bits above MAX_KRONECKER_BITS.
    """
    values = entries.values()
    _check_scalars(ctx, values)
    layout = ctx._layout
    idxs = {k: 0 for x in values for k in x._nums}  # each monomial's idx, summed below
    flags = reduce(or_, idxs, 0)
    if flags & 1 or flags & layout.root_fields and any(
            reduce(or_, x._nums, 0) & layout.root_fields
            for index, x in entries.items() if index not in rooted):
        return None
    reach = reach or degree
    radicands = [k for rad in ctx._radicands for k in rad._nums] if rooted else []
    big = math.lcm(*[x._den for x in values])
    norm = max([sum(map(abs, x._nums.values())) * (big // x._den) for x in values], default=0)
    fields, size = [], 1  # (lowest exponent of a product, g, place, radix) per name
    for s, bits, bias in layout.fields:
        exps = [(k >> s) & bits for k in idxs]
        lo, hi = min(exps, default=bias), max(exps, default=bias)
        if bias:
            reached = [(k >> s) & bits for k in radicands] + [lo, hi]
            if reach * (min(reached) - bias) < -bias or reach * (max(reached) - bias) >= bias:
                return None
        g = math.gcd(*[e - lo for e in exps]) or 1
        if hi > lo:
            for k, e in zip(idxs, exps):
                idxs[k] += (e - lo) // g * size
        radix = degree * ((hi - lo) // g) + 1
        fields.append((degree * (lo - bias), g, size, radix))
        size *= radix
    width = (count * norm ** degree).bit_length() + 1
    if size * width > MAX_KRONECKER_BITS:
        return None
    ints = {}
    for index, x in entries.items():
        scale = big // x._den
        ints[index] = sum([c * scale << width * idxs[k] for k, c in x._nums.items()])
    den, mask, half = big ** degree, (1 << width) - 1, 1 << (width - 1)

    def read(v):
        terms, idx = [], 0
        while v:
            skip = ((v & -v).bit_length() - 1) // width  # the zero digits at the bottom
            v >>= skip * width
            idx += skip
            c = v & mask
            if c >= half:  # a negative digit borrows from the next one
                c -= mask + 1
            v = (v - c) >> width
            exps = tuple([low + g * (idx // place % radix) for low, g, place, radix in fields])
            terms.append((exps, (c, 0, den)))
            idx += 1
        return _from_terms(ctx, terms)

    return ints, read, width


def pow_int(x, k):
    """Exact integer power.  A one-term x is raised as one key, by
    ``_monomial_power``, or by ``_rooted_power`` when it has a root factor;
    any other x by squaring, where a negative power needs a unit base,
    which ``_unit_inverse`` inverts by key arithmetic before the positive
    power."""
    if not isinstance(k, int):
        raise TypeError("exponent must be an integer")
    if k == 0:
        return x.ctx.one()
    if k == 1:
        return x
    nums = x._nums
    if len(nums) == 1 or len(nums) == 2 and x.term_count() == 1:
        m = min(nums) & ~1
        roots = m & x.ctx._layout.root_fields
        if not roots:
            return _monomial_power(x, k, m)
        power = _rooted_power(x, k, m, roots)
        if power is not None:
            return power
    if k < 0:
        x, k = _unit_inverse(x), -k
    result = None
    base = x
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result


def _monomial_power(x, k, m):
    """x^k, k != 0, for x the monomial of key m with no root factor and
    coefficient (a + b*i)/d, as one key: each generator's doubled exponent
    times k, ExponentOverflow outside the range (where squaring overflows
    too).  The coefficient is (a + b*i)^k / d^k, for k < 0 that of 1/x to
    the power -k."""
    nums = x._nums
    a, b, d = nums.get(m, 0), nums.get(m + 1, 0), x._den
    layout = x.ctx._layout
    for s in layout.gen_shifts:
        if not -_BIAS <= k * (((m >> s) & _GEN_VALUES) - _BIAS) < _BIAS:
            raise ExponentOverflow(_OUTSIDE)
    # m - zero is the total and each field's exponent, unbiased: it scales by k
    key = layout.zero + k * (m - layout.zero)
    if k < 0:  # 1 / ((a + b*i)/d) = (d*a - d*b*i) / (a^2 + b^2)
        a, b, d, k = d * a, -d * b, a * a + b * b, -k
    if not b:
        return _scalar(x.ctx, {key: a ** k}, d ** k)
    re, im, den = _gaussian_power(a, b, d, k)
    return _scalar(x.ctx, {slot: v for slot, v in ((key, re), (key + 1, im)) if v}, den)


def _gaussian_power(a, b, d, k):
    """((a + b*i)/d)^k, k != 0, as ints (re, im, den)."""
    if k < 0:
        a, b, d, k = d * a, -d * b, a * a + b * b, -k
    if not b:
        return a ** k, 0, d ** k
    re, im, den = 1, 0, d ** k
    while k:
        if k & 1:
            re, im = re * a - im * b, re * b + im * a
        k >>= 1
        if k:
            a, b = a * a - b * b, 2 * a * b
    return re, im, den


def _rooted_power(x, k, m, roots):
    """x^k, k not 0 or 1, for the monomial x of key m with root fields
    ``roots``, as one key: root^k = root^(k mod 2) radicand^(k div 2).  None,
    for the squaring route, when the radicands' product is no root-free
    monomial, or when |k| (|e| + 2 e') reaches the range, e a generator's
    doubled exponent in x and e' the sum of its magnitudes in the
    radicands: below that no product of squaring leaves the range, so
    ExponentOverflow comes from the same inputs.  The product and e' are
    kept on ``ctx`` per root pattern."""
    ctx, n = x.ctx, abs(k)
    layout = ctx._layout
    if roots not in ctx._rooted:
        strip, reach, rad = roots, [0] * layout.ngens, ctx.one()
        for j, s in enumerate(layout.shifts[layout.ngens:]):
            if roots >> s & 7:
                factor = _radicand(ctx, j)
                rad, strip = rad * factor, strip + (2 << layout.total_shift)
                reach = [e + 2 * max(abs(((f >> g) & _GEN_VALUES) - _BIAS) for f in factor._nums)
                         for e, g in zip(reach, layout.gen_shifts)]
        rm, nums = min(rad._nums) & ~1, rad._nums
        ctx._rooted[roots] = (rad.term_count() == 1 and not rm & layout.root_fields) and (
            strip, reach, rm - layout.zero, nums.get(rm, 0), nums.get(rm + 1, 0), rad._den)
    if not ctx._rooted[roots]:
        return None
    strip, reach, shift, a, b, d = ctx._rooted[roots]
    for s, e in zip(layout.gen_shifts, reach):
        if n * (abs(((m >> s) & _GEN_VALUES) - _BIAS) + e) >= _BIAS:
            return None
    key = layout.zero + k * (m - strip - layout.zero) + k // 2 * shift + k % 2 * strip
    a, b, d = _gaussian_power(a, b, d, k // 2)
    re, im, den = _gaussian_power(x._nums.get(m, 0), x._nums.get(m + 1, 0), x._den, k)
    re, im = re * a - im * b, re * b + im * a
    return _scalar(ctx, {slot: v for slot, v in ((key, re), (key + 1, im)) if v}, den * d)


def _unit_inverse(x):
    """1/x for a unit x, or NotAUnit.

    x is one monomial m with coefficient (a + b*i)/d, whose inverse has
    coefficient d*(a - b*i)/(a^2 + b^2).  m^-1's key negates every generator
    field of m: 2*zero - m on the root-free part, so one guard-bit test finds
    the exponent -MAX_EXPONENT, whose negation is out of range
    (ExponentOverflow).  A root factor is kept and times its radicand's
    inverse, since 1/root == root/radicand; that radicand must be a unit.
    """
    if x.term_count() != 1:
        raise NotAUnit(f"negative power of non-unit {format_scalar(x)}")
    nums = x._nums
    m = min(nums) & ~1
    a, b = nums.get(m, 0), nums.get(m + 1, 0)
    ctx = x.ctx
    layout = ctx._layout
    roots = m & layout.root_fields
    factors, strip = [], 0
    if roots:
        for j, s in enumerate(layout.shifts[layout.ngens:]):
            if roots >> s & 7:
                factors.append(_unit_inverse(_radicand(ctx, j)))
        strip = roots + (2 * len(factors) << layout.total_shift)
    key = 2 * layout.zero - (m - strip)
    if key & layout.gen_guard:
        raise ExponentOverflow(_OUTSIDE)
    key += strip
    d = x._den
    inv = _scalar(ctx, {k: v for k, v in ((key, d * a), (key + 1, -d * b)) if v},
                  a * a + b * b)
    for factor in factors:
        inv = inv * factor
    return inv


def _pow_half(x, doubled):
    """x raised to doubled/2.  Odd values need a monomial with an exact root."""
    if doubled % 2 == 0:
        return pow_int(x, doubled // 2)
    if x.term_count() != 1:
        raise NotAUnit(f"half power of non-monomial {format_scalar(x)}")
    # a/d is in lowest terms; its root is sqrt(|a|)/sqrt(d), times i when a < 0
    (exps, a, b), = _sorted_terms(x)
    ra, rd = math.isqrt(abs(a)), math.isqrt(x._den)
    if b or ra * ra != abs(a) or rd * rd != x._den or any(e % 2 for e in exps):
        raise NotAUnit(f"no exact square root of {format_scalar(x)}")
    ngens = len(x.ctx.generators)
    if any(exps[k] for k in range(ngens, len(exps))):
        raise NotAUnit(f"half power of root factor in {format_scalar(x)}")
    root = (ra, 0, rd) if a > 0 else (0, ra, rd)
    half = _from_terms(x.ctx, [(tuple(e // 2 for e in exps), root)])
    return pow_int(x, (doubled - 1) // 2) * half


def substitute(x, bindings, target):
    """Homomorphic substitution of generators into the context ``target``,
    followed by canonicalization.

    ``bindings`` maps generator names to scalars over ``target``.  Unbound
    generators map to the target generator of the same name.  Adjoined roots
    map to the declared root of the substituted radicand when the target
    declares one, otherwise to an exact monomial square root when that
    exists.  Each generator's image is raised once per distinct exponent, and
    the images of the terms are summed by one ``dot``.
    """
    ctx = x.ctx
    images = {}
    for name, img in bindings.items():
        if name not in ctx._index:
            raise UnknownName(f"unknown generator {name!r}")
        if name in ctx.root_names:
            raise UnknownName(f"cannot bind root {name!r} directly")
        if img.ctx is not target and img.ctx != target:
            raise ContextMismatch("binding value lies outside the target context")
        images[name] = img
    ngens = len(ctx.generators)
    factor_cache = {}

    def factor_image(pos):
        cached = factor_cache.get(pos)
        if cached is not None:
            return cached
        if pos < ngens:
            name = ctx.generators[pos]
            if name in images:
                image = images[name]
            else:
                if name not in target._index:
                    raise ContextMismatch(
                        f"generator {name!r} missing from target context"
                    )
                # the target's own generator (or root) of that name, by its key
                layout = target._layout
                image = _scalar(target, {layout.zero + (2 << layout.total_shift)
                                         + (2 << layout.shifts[target._index[name]]): 1})
        else:
            # radicands only reference earlier positions, so this terminates
            rad = apply(ctx._radicands[pos - ngens])
            image = None
            for k, tname in enumerate(target.root_names):
                if target._radicands[k] == rad:
                    image = target.gen(tname)
                    break
            if image is None:
                try:
                    image = _pow_half(rad, 1)
                except NotAUnit:
                    raise NotAUnit(
                        "no representation for the square root of "
                        + format_scalar(rad)
                    ) from None
        factor_cache[pos] = image
        return image

    powers = {}  # (position, doubled exponent) -> the image raised to it
    exps, one = ctx._layout.exps, target._layout.zero

    def apply(y):
        # each term pairs its coefficient (an imaginary part under the key
        # one + 1, so that dot turns i*i into a sign) with the product of
        # its monomial's kept powers
        pairs = []
        for k, v in y._nums.items():
            image = None
            for pos, d in enumerate(exps(k)):
                if d:
                    power = powers.get((pos, d))
                    if power is None:
                        power = powers[pos, d] = _pow_half(factor_image(pos), d)
                    image = power if image is None else image * power
            pairs.append((_scalar(target, {one + (k & 1): v}, y._den),
                          target.one() if image is None else image))
        return dot(target, pairs)

    return apply(x)


# -- exact division ---------------------------------------------------------


def _laurent_div(layout, num, den):
    """Exact quotient of root-free numerator dicts, or NotDivisible.

    Returns (quot, scale) with quot/scale * den == num.  This is division by
    the leading term in graded lexicographic order, the largest key.  Shifted
    by the per-generator minimum exponents of num and den, every quotient
    monomial has nonnegative exponents, and a leading term outside that box
    means there is no quotient.  The numerators stay ints: the remainder and
    the quotient are scaled up when a step needs a fraction of the leading
    coefficient.
    """
    gen_guard, zero = layout.gen_guard, layout.zero
    box = 0
    for s in layout.shifts[:layout.ngens]:
        box += (min((k >> s) & _GEN_VALUES for k in num)
                - min((k >> s) & _GEN_VALUES for k in den)) << s
    lead = max(den) & ~1
    la, lb = den.get(lead, 0), den.get(lead + 1, 0)
    norm = la * la + lb * lb
    den_items = list(den.items())
    rem, quot, scale = dict(num), {}, 1
    while rem:
        m = max(rem) & ~1
        # m - lead must be >= the box shift in every generator field
        if (m - lead - box) & gen_guard:
            raise NotDivisible("no exact quotient")
        ra, rb = rem.get(m, 0), rem.get(m + 1, 0)
        ta, tb = ra * la + rb * lb, rb * la - ra * lb  # (ra + rb*i) * conj(lead)
        if norm != 1:
            g = math.gcd(ta, tb, norm)
            if g != norm:
                up = norm // g
                rem = {k: v * up for k, v in rem.items()}
                quot = {k: v * up for k, v in quot.items()}
                scale *= up
                ta, tb = ta * up, tb * up
            ta, tb = ta // norm, tb // norm
        base = m - lead
        if (base + zero) & gen_guard:
            raise ExponentOverflow(_OUTSIDE)
        if ta:
            quot[base + zero] = ta
        if tb:
            quot[base + zero + 1] = tb
        products = []
        if ta:
            products += [(dk, ta * dv) for dk, dv in den_items]
        if tb:  # i*(dv at dk): the i field moves up, or i*i gives a sign
            products += [(dk - 1, -tb * dv) if dk & 1 else (dk + 1, tb * dv)
                         for dk, dv in den_items]
        for dk, v in products:
            k = base + dk
            if k & gen_guard:
                raise ExponentOverflow(_OUTSIDE)
            prev = rem.get(k)
            v = -v if prev is None else prev - v
            if v:
                rem[k] = v
            elif prev is not None:
                del rem[k]
    return quot, scale


def try_div_exact(num, den):
    """Quotient q with q*den == num, or NotDivisible.

    One operand may be an int or a Fraction when the other is a Scalar; it
    joins the Scalar's context.  Anything else is a TypeError.

    * A divisor of exactly 1 returns num.
    * Any other unit divisor is one multiplication by its inverse
      (``_unit_inverse``), exact because den * den^-1 == 1.
    * A root-free divisor takes the long division ``_laurent_div``, which
      returns only with a zero remainder, so its quotient is not multiplied
      back.
    * A divisor with adjoined roots is first rationalized against each
      root, one at a time from the innermost extension outward: num and den
      are both multiplied by a conjugate product C, so den * C is root-free,
      and the long division gives q with q * den * C == num * C.  Its
      quotient is not multiplied back either.  den * C is a nonzero
      root-free Laurent polynomial, and multiplication by such a polynomial
      is injective on the ring, a free module over the root-free Laurent
      polynomials (an integral domain) with the root monomials as basis.
      So C is no zero divisor, and q * den == num.  A C that makes den * C
      zero is refused.
    """
    if not isinstance(num, Scalar):
        if not isinstance(den, Scalar) or not isinstance(num, (int, Fraction)):
            raise TypeError("division needs a Scalar operand")
        num = den.ctx.scalar(num)
    den = num._coerce(den)
    if den is NotImplemented:
        raise TypeError("divisor must be a Scalar, an int or a Fraction")
    ctx = num.ctx
    if den.is_zero():
        raise ZeroDivisionError("division by zero scalar")
    if num.is_zero():
        return ctx.zero()
    if den._den == 1 and den._nums == {ctx._layout.zero: 1}:
        return num
    if den.is_unit():
        return num * _unit_inverse(den)
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
        d0 = _scalar(ctx, d0_nums, work_den._den)
        d1 = _scalar(ctx, d1_nums, work_den._den)
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
    # split the numerator by root pattern; divide each component
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
        quot, scale = _laurent_div(layout, part, work_den._nums)
        quotient = quotient + _scalar(
            ctx, {k + offset: v * work_den._den for k, v in quot.items()},
            scale * work_num._den)
    return quotient


# -- parsing and formatting ---------------------------------------------------

# Bounds on scalar text.  Before each multiplication the parser bounds the
# product's size and refuses, with ParseError, a product that could pass them;
# a power is parsed as square-and-multiply, so each of its steps is checked.
# The bound on terms is the product of the operands' term counts, times the
# term counts of the radicands when both operands carry an adjoined root
# (their product can hold the root's square).  So (1+q)^99999 and
# sqrt_1mq2^99999 are refused after a few small steps, and the largest
# multiplication a text can ask for has MAX_TERMS term pairs of coefficients
# of at most MAX_COEFF_BITS bits.  The texts in this repository stay far below
# both.  An integer literal has at most MAX_COEFF_BITS // 3 digits, and
# MAX_NESTING bounds the depth of parentheses and unary minus signs.
MAX_TERMS = 4096
MAX_COEFF_BITS = 4096
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.lastgroup == "int":
            digits = m.group("int")
            if len(digits) > MAX_COEFF_BITS // 3:
                raise ParseError("integer literal too long", m.start("int"))
            tokens.append(("int", int(digits), m.start("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _root_mask(x):
    """The root fields of x's keys that some term sets; two scalars share a bit
    exactly when they share a root."""
    mask = 0
    for k in x._nums:
        mask |= k
    return mask & x.ctx._layout.root_fields


def _coeff_bits(x):
    """Bit length of the largest numerator or denominator among x's coefficients,
    each real and imaginary part in lowest terms."""
    den, bits = x._den, 0
    for v in x._nums.values():
        g = math.gcd(v, den)
        bits = max(bits, (abs(v) // g).bit_length(), (den // g).bit_length())
    return bits


class _Parser:
    def __init__(self, ctx, text):
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return value

    def expr(self):
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.next()
            negate = value == "-"
        result = self.term()
        if negate:
            result = -result
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.term()
                result = result - rhs if value == "-" else result + rhs
            else:
                return result

    def term(self):
        result = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.next()
                result = self.product(result, self.factor(), pos)
            elif kind == "op" and value == "/":
                self.next()
                rhs = self.factor()
                terms = _sorted_terms(rhs)
                if len(terms) != 1 or any(terms[0][0]):
                    raise ParseError("division only by nonzero constants", pos)
                try:
                    inverse = pow_int(rhs, -1)
                except (NotAUnit, ZeroDivisionError):
                    raise ParseError("division only by nonzero constants", pos) from None
                result = self.product(result, inverse, pos)
            else:
                return result

    def product(self, a, b, pos):
        """a * b, refused before multiplying when it could pass the bounds."""
        terms = a.term_count() * b.term_count()
        if _root_mask(a) & _root_mask(b):
            for rad in self.ctx._radicands:
                terms *= rad.term_count()
        if terms > MAX_TERMS:
            raise ParseError(f"product of up to {terms} terms, above {MAX_TERMS}", pos)
        bits = _coeff_bits(a) + _coeff_bits(b)
        if bits > MAX_COEFF_BITS:
            raise ParseError(
                f"product with {bits}-bit coefficients, above {MAX_COEFF_BITS}", pos)
        try:
            return a * b
        except ExponentOverflow as exc:
            raise ParseError(str(exc), pos) from None

    def factor(self):
        base = self.atom()
        kind, value, pos = self.peek()
        if kind != "op" or value != "^":
            return base
        self.next()
        doubled = self.exponent()
        if not -_BIAS <= doubled < _BIAS:
            raise ParseError(_OUTSIDE, pos)
        try:
            result = _pow_half(base, doubled % 2)  # 1, or the square root of a monomial
            k = doubled // 2
            if k < 0:
                base, k = pow_int(base, -1), -k
        except (NotAUnit, ExponentOverflow) as exc:
            raise ParseError(str(exc), pos) from None
        while k:
            if k & 1:
                result = self.product(result, base, pos)
            k >>= 1
            if k:
                base = self.product(base, base, pos)
        return result

    def exponent(self):
        """Integer, or a parenthesized n or n/2, with optional sign."""
        kind, value, pos = self.next()
        sign = 1
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            kind, value, pos = self.next()
        if kind == "int":
            return sign * 2 * value
        if kind == "op" and value == "(":
            kind, value, pos = self.next()
            if kind == "op" and value in "+-":
                sign *= -1 if value == "-" else 1
                kind, value, pos = self.next()
            if kind != "int":
                raise ParseError("expected integer exponent", pos)
            doubled = 2 * value
            kind, nxt, pos = self.next()
            if kind == "op" and nxt == "/":
                kind, den, pos = self.next()
                if kind != "int" or den != 2:
                    raise ParseError("exponent denominator must be 2", pos)
                doubled = value
                kind, nxt, pos = self.next()
            if kind != "op" or nxt != ")":
                raise ParseError("expected ')' in exponent", pos)
            return sign * doubled
        raise ParseError("expected exponent", pos)

    def atom(self):
        kind, value, pos = self.next()
        if kind == "int":
            return self.ctx.scalar(value)
        if kind == "name":
            if value == "i":
                return self.ctx.i()
            if value not in self.ctx._index:
                raise ParseError(f"unknown generator {value!r}", pos)
            return self.ctx.gen(value)
        if kind == "op" and value in "(-":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nested deeper than {MAX_NESTING}", pos)
            if value == "(":
                inner = self.expr()
                self.expect_op(")")
            else:
                inner = -self.atom()
            self.depth -= 1
            return inner
        raise ParseError("expected a value", pos)


def parse_scalar(ctx, text):
    """Parse scalar text: integers, ``i``, names, ``+ - * / ^``, parentheses.

    Exponents are integers or ``(n/2)``; ``/`` divides by constants only.
    Text that could pass MAX_TERMS, MAX_COEFF_BITS or MAX_NESTING raises
    ParseError before the work is done, and so does an exponent, written or
    reached by a product, outside [-MAX_EXPONENT, MAX_EXPONENT).
    """
    return _Parser(ctx, text).parse()


def _sorted_keys(x):
    """(key, a, b) per monomial of x, with key the monomial's key (its i field
    0) and (a + b*i)/x._den its coefficient, in ascending graded
    lexicographic order."""
    nums = x._nums
    out = []
    for k in sorted(nums):
        if not k & 1:
            out.append((k, nums[k], nums.get(k + 1, 0)))
        elif k - 1 not in nums:
            out.append((k - 1, 0, nums[k]))
    return out


def _sorted_terms(x):
    """(doubled exponent tuple, a, b) per monomial of x, with (a + b*i)/x._den
    its coefficient, in ascending graded lexicographic order."""
    exps = x.ctx._layout.exps
    return [(exps(k), a, b) for k, a, b in _sorted_keys(x)]


def _format_coeff(re, im):
    """The text of the coefficient re + im*i."""
    if im == 0:
        return str(re)
    itext = "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
    if re == 0:
        return itext
    return f"({re}+{itext})" if im > 0 else f"({re}{itext})"


def format_scalar(x):
    """Canonical text form, terms in ascending graded-lexicographic order.

    An integer constant is ``str(n)``; otherwise each key's nonzero doubled
    exponents are read from the layout's fields, with no exponent tuple."""
    nums, ctx, den = x._nums, x.ctx, x._den
    if not nums:
        return "0"
    zero = ctx._layout.zero
    if den == 1 and len(nums) == 1 and zero in nums:
        return str(nums[zero])
    fields = tuple(zip(ctx.names, ctx._layout.fields))
    pieces = []
    for k, a, b in _sorted_keys(x):
        mono = "*".join([name if d == 2 else f"{name}^({d}/2)" if d & 1 else f"{name}^{d // 2}"
                         for name, (s, mask, bias) in fields if (d := ((k >> s) & mask) - bias)])
        ctext = _format_coeff(_rational(a, den), _rational(b, den))
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


# -- JSON forms ---------------------------------------------------------------


def scalar_to_json(x):
    """JSON-ready dict: {"terms": [{"re", "im", "exps"}...]} with exact strings."""
    den = x._den
    text = str if den == 1 else lambda n: str(_rational(n, den))
    fields = tuple(zip(x.ctx.names, x.ctx._layout.fields))
    return {"terms": [
        {"re": text(a), "im": text(b),
         "exps": {name: f"{d}/2" if d & 1 else str(d // 2)
                  for name, (s, mask, bias) in fields if (d := ((k >> s) & mask) - bias)}}
        for k, a, b in _sorted_keys(x)]}


_NUMERAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
# the numerals of small ints, nearly all that the writers emit, read by one lookup
_SMALL_INTS = {str(n): n for n in range(-99, 100)}

_KIND_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def json_field(obj, key, kind, where, default=None):
    """``obj[key]`` checked to be a ``kind``; ParseError naming the field if not.

    A missing key gives ``default`` when one is passed.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in obj and default is not None:
        return default
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"{where}.{key}: expected {_KIND_NAMES[kind]}")
    return value


def _numeral(text, where):
    """The int or Fraction written as ``-?digits(/digits)?``, the form the writers emit."""
    if text.__class__ is str and text in _SMALL_INTS:
        return _SMALL_INTS[text]
    if not isinstance(text, str) or not _NUMERAL_RE.fullmatch(text):
        raise ParseError(f"{where}: expected a numeral such as '-3/2', got {text!r:.40}")
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else int(num)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def scalar_from_json(ctx, obj):
    """Inverse of scalar_to_json; ParseError naming the field on malformed input.

    Coefficients and exponents are numerals ``-?digits(/digits)?``, an
    adjoined root's exponent is 0 or 1, as the writer emits them, and every
    exponent lies in [-MAX_EXPONENT, MAX_EXPONENT).  A term's key is built
    from the layout's fields, and its field path is formatted on error only.
    """
    layout, index = ctx._layout, ctx._index
    shifts, ngens, zero, total = layout.shifts, layout.ngens, layout.zero, layout.total_shift
    listed, terms = json_field(obj, "terms", list, "scalar"), []
    try:
        for k, entry in enumerate(listed):
            exps = json_field(entry, "exps", dict, "", {})
            a, b, d = _coeff((_numeral(entry.get("re", "0"), ".re"),
                              _numeral(entry.get("im", "0"), ".im")))
            key, degree = zero, 0
            for name, etext in exps.items():
                pos = index.get(name)
                if pos is None:
                    raise ParseError(f".exps: unknown generator {name!r:.40}")
                e = _numeral(etext, ".exps." + name) * 2
                if e.denominator != 1:
                    raise ParseError(f".exps.{name}: {etext} is not a half-integer")
                if pos >= ngens and e not in (0, 2):
                    raise ParseError(f".exps.{name}: a root's exponent is 0 or 1")
                if not -_BIAS <= e < _BIAS:
                    raise ParseError(f".exps.{name}: {_OUTSIDE}")
                key += int(e) << shifts[pos]
                degree += e
            terms.append((key + (int(degree) << total), a, b, d))
    except ParseError as exc:
        raise ParseError(f"scalar.terms[{k}]{exc}") from None
    return _summed(ctx, terms)


def context_to_json(ctx):
    return {
        "generators": list(ctx.generators),
        "roots": [
            {"name": name, "radicand": format_scalar(rad)}
            for name, rad in zip(ctx.root_names, ctx._radicands)
        ],
    }


def context_from_json(obj):
    """Inverse of context_to_json; ParseError naming the field on malformed input."""
    generators = json_field(obj, "generators", list, "context", [])
    if not all(isinstance(name, str) for name in generators):
        raise ParseError("context.generators: expected a list of strings")
    roots = []
    for k, root in enumerate(json_field(obj, "roots", list, "context", [])):
        where = f"context.roots[{k}]"
        roots.append(
            (json_field(root, "name", str, where), json_field(root, "radicand", str, where))
        )
    try:
        return ScalarContext(generators, roots)
    except (ValueError, ParseError) as exc:
        raise ParseError(f"context: {exc}") from None

