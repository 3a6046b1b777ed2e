"""Reproduction of the reference invariant tables from scratch.

``run_table`` recomputes every cell with the appropriate operator and
normalization convention and diffs the result against the golden values
embedded below.  The parameters are collapsed (t = pq, s = aby for the
three-dimensional dressing, s = hg for the four-dimensional one) on the
operator, not on its values: each operator's image in the collapsed ring
(``eyb.specialize``) is built once and kept, and every cell is computed on
it.  The invariant is a polynomial in the operator's entries, so the image's
value is the collapsed value; each collapse is injective on its operator's
ring (sqrt_pq lands on t^(1/2)), so a normalization divides exactly on the
image when it does on the operator, and the division is root-free.

Conventions: both knot-table columns and the link-table plain column are
unknot-normalized; the link-table dressed column is raw; the
four-dimensional table is unknot-normalized.
"""

from ._record import Record
from .braid import KNOT_NAMES, LINK_NAMES, get_named_braid
from .dressing import preset_dressings
from .errors import UnknownName
from .eyb import get_table1_eyb, specialize
from .invariant import classification_report, compute_ts
from .ring import ScalarContext, format_scalar

TABLE2_JONES = {
    "0_1": "1",
    "3_1": "t + t^3 - t^4",
    "4_1": "t^-2 - t^-1 + 1 - t + t^2",
    "5_1": "t^2 + t^4 - t^5 + t^6 - t^7",
    "5_2": "t - t^2 + 2*t^3 - t^4 + t^5 - t^6",
}

TABLE2_DRESSED = {
    "0_1": "1",
    "3_1": "t^(1/2) - t^(3/2) + 2*t^2 - t^(5/2) + t^(7/2) - t^4",
    "4_1": "t^-2 - t^(-3/2) + t^(-1/2) - 1 + t^(1/2) - t^(3/2) + t^2",
    "5_1": "t^(1/2) - t + 2*t^2 - 2*t^(5/2) + t^3 + t^(7/2) - t^4 + t^5"
           " - t^(11/2) + t^(13/2) - t^7",
    "5_2": "t^(1/2) - t^(3/2) + t^2 + t^4 - t^(9/2) + t^(11/2) - t^6",
}

TABLE3_JONES = {
    "2^2_1": "t^(1/2) + t^(5/2)",
    "4^2_1": "t^(3/2) + t^(7/2) - t^(9/2) + t^(11/2)",
    "5^2_1": "-t^(-7/2) + 2*t^(-5/2) - t^(-3/2) + 2*t^(-1/2) - t^(1/2)"
             " + t^(3/2)",
    "6^2_1": "t^(5/2) + t^(9/2) - t^(11/2) + t^(13/2) - t^(15/2) + t^(17/2)",
    "6^2_2": "t^(3/2) - t^(5/2) + 2*t^(7/2) - 2*t^(9/2) + 2*t^(11/2)"
             " - t^(13/2) + t^(15/2)",
    "6^2_3": "t^(-3/2) - 2*t^(-1/2) + 2*t^(1/2) - 2*t^(3/2) + 3*t^(5/2)"
             " - t^(7/2) + t^(9/2)",
}

TABLE3_DRESSED = {
    "2^2_1": "2 + t + t^2 + t^3 + 2*s*t^(1/2) + 2*s*t^(3/2)",
    "4^2_1": "1 + t + t^2 + t^3 + t^6 + 2*s^2*t^(3/2) + 2*s^2*t^(5/2)",
    "5^2_1": "-t^-4 + t^-3 + t^-2 + t^-1 + 2*t^(-1/2) + 2 + 2*t^(1/2) + t^2",
    "6^2_1": "1 + t^2 + t^3 + t^4 + t^9 + 2*s^3*t^(5/2) + 2*s^3*t^(7/2)",
    "6^2_2": "1 + t + t^3 + t^6 + t^8 + 2*s^3*t^(5/2) + 2*s^3*t^(7/2)",
    # the t^5 coefficient here is 1, confirmed by Markov-move stability and
    # by recomputation from reversed and sign-symmetric words
    "6^2_3": "t^-2 - t^-1 + 1 + t^2 + 2*t^3 + t^5 + 2*s^2*t^(3/2)"
             " + 2*s^2*t^(5/2)",
}

# The four-dimensional table lists the two-, four-, and five-crossing links
# once each; every knot takes the value 1.
TABLE4_LINKS = {
    "2^2_1": "1 + s*t^-1",
    "4^2_1": "1 + s^2*t^-2",
    "5^2_1": "2",
}

TABLE3_UNKNOT_RAW = "t^(1/2) + 1 + t^(-1/2)"

# table -> its row groups, each (link names, columns); every link of a group
# gets one cell per column, in order, and a column is (name, collapse,
# normalized, {link: golden text})
_TABLES = {
    2: [(KNOT_NAMES, [("jones", "jones", True, TABLE2_JONES),
                      ("dressed", "d3", True, TABLE2_DRESSED)])],
    3: [(("0_1",), [("dressed-unknot-raw", "d3", False, {"0_1": TABLE3_UNKNOT_RAW})]),
        (LINK_NAMES, [("jones", "jones", True, TABLE3_JONES),
                      ("dressed", "d3", False, TABLE3_DRESSED)])],
    4: [(tuple(TABLE4_LINKS), [("dressed", "d4", True, TABLE4_LINKS)]),
        (KNOT_NAMES, [("dressed", "d4", True, dict.fromkeys(KNOT_NAMES, "1"))])],
}


class TableCell(Record):
    _fields = ("table", "link", "column", "computed", "expected", "match")

    def __init__(self, table, link, column, computed, expected, match):
        self.__dict__.update(table=table, link=link, column=column, computed=computed,
                             expected=expected, match=match)


class TableReport(Record):
    _fields = ("table", "cells")

    def __init__(self, table, cells):
        self.__dict__.update(table=table, cells=cells)

    @property
    def ok(self):
        return all(cell.match for cell in self.cells)


# collapse name -> (target generators, {collapsed parameter: image}, the
# operator it collapses)
_COLLAPSES = {
    "jones": (("t", "q"), {"p": "t*q^-1"}, lambda: get_table1_eyb("R2.1", 1)),
    "d3": (("t", "q", "s", "b", "y"), {"p": "t*q^-1", "a": "s*b^-1*y^-1"},
           lambda: preset_dressings("d3_R21").eyb),
    "d4": (("t", "q", "a", "b", "y", "c", "d", "g", "s", "w"),
           {"p": "t*q^-1", "h": "s*g^-1"}, lambda: preset_dressings("d4_R22").eyb),
}

# collapse name -> (target ring, the operator's image in it, {golden text:
# (value, its text)}); filled on first use
_targets = {}


def _target(collapse):
    if collapse not in _targets:
        gens, images, operator = _COLLAPSES[collapse]
        ct = ScalarContext(gens)
        bindings = {k: ct.parse(v) for k, v in images.items()}
        _targets[collapse] = (ct, specialize(operator(), bindings, ct), {})
    return _targets[collapse]


def _run_table1():
    rows = classification_report()
    cells = tuple(
        TableCell(
            1,
            row["link"],
            f"{row['rmatrix']} row {row['row']}",
            row["value"],
            row["expected"],
            row["match"] != "no",
        )
        for row in rows
    )
    return TableReport(1, cells)


def run_table(which):
    """Recompute the requested table and diff it against the golden values."""
    if which == 1:
        return _run_table1()
    if which not in _TABLES:
        raise UnknownName(f"no table {which}; choose 1..4")
    cells = []
    for links, columns in _TABLES[which]:
        for name in links:
            braid = get_named_braid(name).braid
            for column, collapse, normalized, goldens in columns:
                ct, op, parsed = _target(collapse)
                value = compute_ts(op, braid, normalized=normalized).value
                golden = goldens[name]
                if golden not in parsed:
                    expected = ct.parse(golden)
                    parsed[golden] = (expected, format_scalar(expected))
                expected, expected_text = parsed[golden]
                cells.append(TableCell(which, name, column, format_scalar(value), expected_text,
                                       value == expected))
    return TableReport(which, tuple(cells))
