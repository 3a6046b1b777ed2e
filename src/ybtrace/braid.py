"""Braid words, their closure combinatorics, Markov moves, and named links.

A braid on n strands is a sequence of nonzero letters; letter k stands for
the k-th elementary crossing and -k for its inverse, 1 <= k <= n-1.
"""

from ._record import Record
from .errors import ParseError, StrandBoundViolation, UnknownName


class BraidWord(Record):
    """A braid word on ``strands`` strands.

    ``writhe``, the number of positive letters less the number of negative
    ones, is counted once here and kept; it is not a field, so equality,
    hashing and repr ignore it.  Letters and the strand count are ints, not
    bools.
    """

    _fields = ("strands", "letters")

    def __init__(self, strands, letters=()):
        if isinstance(strands, bool):
            raise StrandBoundViolation(f"invalid strand count {strands!r}")
        if strands < 1:
            raise StrandBoundViolation("strand count must be at least 1")
        letters = tuple(letters)
        writhe = 0
        for k in letters:
            if not isinstance(k, int) or isinstance(k, bool) or k == 0:
                raise StrandBoundViolation(f"invalid letter {k!r}")
            if abs(k) > strands - 1:
                raise StrandBoundViolation(
                    f"letter {k} needs at least {abs(k) + 1} strands, have {strands}"
                )
            writhe += 1 if k > 0 else -1
        self.__dict__.update(strands=strands, letters=letters, writhe=writhe)

    def permutation(self):
        """Where each top strand ends: perm[i] = bottom position (0-indexed)."""
        pos = list(range(self.strands))
        for k in self.letters:
            j = abs(k) - 1
            pos[j], pos[j + 1] = pos[j + 1], pos[j]
        perm = [0] * self.strands
        for bottom, strand in enumerate(pos):
            perm[strand] = bottom
        return tuple(perm)

    def closure_components(self):
        return len(_cycles(self.permutation())[1])

    def __str__(self):
        return " ".join(str(k) for k in self.letters)


def _cycles(perm):
    """(the cycle of each point, each cycle's length) for a permutation of
    0..n-1 given as a list of images, cycles numbered by their least point.
    A permutation and its inverse have the same cycles, and the cycles of a
    braid's permutation are its closure's components."""
    cycle, sizes = [None] * len(perm), []
    for start in range(len(perm)):
        p, size = start, 0
        while cycle[p] is None:
            cycle[p], p, size = len(sizes), perm[p], size + 1
        if size:
            sizes.append(size)
    return cycle, sizes


def parse_braid(text, strands=None):
    """Whitespace-separated signed letters; strand count defaults to the max."""
    letters = []
    for token in text.split():
        try:
            k = int(token)
        except ValueError:
            raise ParseError(f"bad braid letter {token!r}") from None
        if k == 0:
            raise ParseError("braid letters must be nonzero")
        letters.append(k)
    needed = max((abs(k) + 1 for k in letters), default=1)
    if strands is None:
        strands = needed
    elif strands < needed:
        raise StrandBoundViolation(
            f"letters need {needed} strands, only {strands} declared"
        )
    return BraidWord(strands, tuple(letters))


def conjugate(b, by):
    """g b g^{-1} for the conjugating letters ``by`` on b's strands."""
    g = tuple(by)
    ginv = tuple(-k for k in reversed(g))
    return BraidWord(b.strands, g + b.letters + ginv)


def stabilize(b, sign=1):
    """Append the new top crossing on one extra strand; the closure is unchanged."""
    letter = b.strands if sign > 0 else -b.strands
    return BraidWord(b.strands + 1, b.letters + (letter,))


def disjoint_union(a, b):
    """Place b beside a on disjoint strands; closures form a split union."""
    shift = a.strands
    shifted = tuple(k + shift if k > 0 else k - shift for k in b.letters)
    return BraidWord(a.strands + b.strands, a.letters + shifted)


class NamedLink(Record):
    _fields = ("name", "braid", "components")

    def __init__(self, name, braid, components):
        self.__dict__.update(name=name, braid=braid, components=components)


# Closures of these words are the named knots and links used by the
# reproduction tables.  The unknot is the identity braid on one strand.
_NAMED = {
    "0_1": ("", 1, 1),
    "3_1": ("1 1 1", 2, 1),
    "4_1": ("1 -2 1 -2", 3, 1),
    "5_1": ("1 1 1 1 1", 2, 1),
    "5_2": ("2 2 -1 2 1 1", 3, 1),
    "2^2_1": ("1 1", 2, 2),
    "4^2_1": ("1 1 1 1", 2, 2),
    "5^2_1": ("1 -2 1 -2 -2", 3, 2),
    "6^2_1": ("1 1 1 1 1 1", 2, 2),
    "6^2_2": ("2 2 2 1 1 2 -1", 3, 2),
    "6^2_3": ("2 -1 2 -3 2 1 2 -3", 4, 2),
}

KNOT_NAMES = ("0_1", "3_1", "4_1", "5_1", "5_2")
LINK_NAMES = ("2^2_1", "4^2_1", "5^2_1", "6^2_1", "6^2_2", "6^2_3")
NAMED_LINKS = KNOT_NAMES + LINK_NAMES


def get_named_braid(name):
    key = name.replace("²", "^2")
    if key not in _NAMED:
        raise UnknownName(f"no named link {name!r}")
    text, strands, components = _NAMED[key]
    braid = parse_braid(text, strands)
    return NamedLink(key, braid, components)
