"""Acceptance criteria: one test per criterion, exact arithmetic throughout.

Each test prints one pass/fail line (visible with ``pytest -s``) including
the elapsed time against the criterion's budget.  The one-variable invariant
of criterion 8 is compared up to a unit +-t^k; everything else is exact
equality.
"""

import random
import time

from oracles import conway_in_t, conway_polynomial, equal_up_to_unit

from ybtrace.braid import (
    KNOT_NAMES,
    LINK_NAMES,
    NAMED_LINKS,
    BraidWord,
    conjugate,
    disjoint_union,
    get_named_braid,
    stabilize,
)
from ybtrace.catalog import (
    CATALOG_NAMES,
    TransformSpec,
    check_ybe,
    get_rmatrix,
    transform_rmatrix,
)
from ybtrace.dressing import preset_dressings, preset_names
from ybtrace.eyb import (
    EnhancedOperator,
    get_table1_eyb,
    sign_variants,
    table1_entries,
    verify_eyb,
)
from ybtrace.invariant import (
    ANNIHILATING_RELATIONS,
    SkeinFamily,
    alexander_nabla,
    check_skein_family,
    classification_report,
    compute_ts,
    verify_annihilating,
)
from ybtrace.ring import ScalarContext, substitute
from ybtrace.tables import (
    TABLE2_DRESSED,
    TABLE2_JONES,
    TABLE3_DRESSED,
    TABLE3_JONES,
    TABLE3_UNKNOT_RAW,
    TABLE4_LINKS,
    run_table,
)
from ybtrace.tensor import SquareMatrix, invert, kron, matmul, scalar_scale


def _finish(num, label, budget, t0):
    elapsed = time.time() - t0
    print(f"acceptance {num} ({label}): PASS in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget


def _jones_collapsed(value):
    target = ScalarContext(("t", "q"))
    return substitute(value, {"p": target.parse("t*q^-1")}, target), target


def test_acceptance_1_table2_jones_column():
    t0 = time.time()
    op = get_table1_eyb("R2.1", 1)
    for name in KNOT_NAMES:
        braid = get_named_braid(name).braid
        value = compute_ts(op, braid, normalized=True).value
        collapsed, target = _jones_collapsed(value)
        assert collapsed == target.parse(TABLE2_JONES[name]), name
    _finish(1, "knot table, plain column", 10, t0)


def test_acceptance_2_table2_dressed_column():
    t0 = time.time()
    preset = preset_dressings("d3_R21")
    target = ScalarContext(("t", "q", "s", "b", "y"))
    bind = {"p": target.parse("t*q^-1"), "a": target.parse("s*b^-1*y^-1")}
    for name in KNOT_NAMES:
        braid = get_named_braid(name).braid
        value = compute_ts(preset.eyb, braid, normalized=True).value
        assert substitute(value, bind, target) == target.parse(TABLE2_DRESSED[name]), name
    _finish(2, "knot table, dressed column", 60, t0)


def test_acceptance_3_table3_both_columns():
    t0 = time.time()
    jones = get_table1_eyb("R2.1", 1)
    preset = preset_dressings("d3_R21")
    target = ScalarContext(("t", "q", "s", "b", "y"))
    bind = {"p": target.parse("t*q^-1"), "a": target.parse("s*b^-1*y^-1")}
    b_pos = target._index["b"]
    y_pos = target._index["y"]
    unknot = compute_ts(preset.eyb, BraidWord(1)).value
    assert substitute(unknot, bind, target) == target.parse(TABLE3_UNKNOT_RAW)
    for name in LINK_NAMES:
        braid = get_named_braid(name).braid
        plain, plain_target = _jones_collapsed(
            compute_ts(jones, braid, normalized=True).value
        )
        assert plain == plain_target.parse(TABLE3_JONES[name]), name
        raw = compute_ts(preset.eyb, braid, normalized=False).value
        collapsed = substitute(raw, bind, target)
        # the dressing parameters appear only through the product s = aby
        assert all(
            exps[b_pos] == 0 and exps[y_pos] == 0 for exps in collapsed.terms
        ), name
        assert collapsed == target.parse(TABLE3_DRESSED[name]), name
    _finish(3, "link table, both columns", 120, t0)


def test_acceptance_4_table4():
    t0 = time.time()
    preset = preset_dressings("d4_R22")
    target = ScalarContext(("t", "q", "a", "b", "y", "c", "d", "g", "s", "w"))
    bind = {"p": target.parse("t*q^-1"), "h": target.parse("s*g^-1")}
    for name, golden in TABLE4_LINKS.items():
        braid = get_named_braid(name).braid
        value = compute_ts(preset.eyb, braid, normalized=True).value
        assert substitute(value, bind, target) == target.parse(golden), name
    for name in KNOT_NAMES:
        braid = get_named_braid(name).braid
        value = compute_ts(preset.eyb, braid, normalized=True).value
        assert substitute(value, bind, target) == target.one(), name
    _finish(4, "four-dimensional dressing table", 300, t0)


def test_acceptance_5_classification():
    t0 = time.time()
    rows = classification_report()
    assert len(rows) == 23 * 11
    bad = [r for r in rows if r["match"] == "no"]
    assert not bad, bad[:5]
    by_key = {(r["rmatrix"], r["row"], r["link"]): r for r in rows}
    # spot checks straight from the criterion text
    trefoil_jones = by_key[("R2.1", 1, "3_1")]
    assert trefoil_jones["match"] == "yes" and trefoil_jones["value"] != "1"
    for rmatrix, row in (("R2.2", 1), ("R1.1", 1), ("R1.2", 1)):
        for name in NAMED_LINKS:
            assert by_key[(rmatrix, row, name)]["value"] == "0"
    for rmatrix, row in (("R2.3", 1), ("R1.3", 1)):
        for name in NAMED_LINKS:
            expected = "2" if name in KNOT_NAMES else "4"
            assert by_key[(rmatrix, row, name)]["value"] == expected
    for rmatrix, row in (("R3.1", 1), ("R1.4", 1)):
        for name in KNOT_NAMES:
            assert by_key[(rmatrix, row, name)]["match"] == "yes"
    for name in KNOT_NAMES:
        assert by_key[("R3.1", 2, name)]["value"] == "0"
    assert run_table(1).ok
    _finish(5, "classification of all operator rows", 120, t0)


_RELATION_OPERATORS = {
    "R3.1|s=1": ("R3.1", 1),
    "R3.1|s=1|cubic": ("R3.1", 1),
    "R3.1|s=-1": ("R3.1", 2),
    "R3.1": ("R3.1", 3),
    "R2.1": ("R2.1", 1),
    "R2.2": ("R2.2", 1),
    "R2.3|p=-1": ("R2.3", 1),
    "R1.1": ("R1.1", 1),
    "R1.2": ("R1.2", 1),
    "R1.3": ("R1.3", 1),
    "R1.4": ("R1.4", 1),
}


def test_acceptance_6_annihilating_relations_and_skein():
    t0 = time.time()
    bases = (BraidWord(2, (1, 1)), BraidWord(3, (1, -2, 1)))
    for name, spec in sorted(ANNIHILATING_RELATIONS.items()):
        ctx = spec.context()
        assert verify_annihilating(spec.matrix(ctx), spec.coeffs(ctx)), name
        rmatrix, row = _RELATION_OPERATORS[name]
        op = get_table1_eyb(rmatrix, row)
        for base in bases:
            position = 1 if base.strands == 2 else 2
            fam = SkeinFamily(
                base, position,
                tuple((p, op.ctx.parse(c)) for p, c in spec.coefficients),
            )
            assert check_skein_family(op, fam), (name, base.letters)
    _finish(6, "annihilating relations and induced skein sums", 30, t0)


def _shift_mu(mu, n):
    side = mu.side
    entries = {}
    for (r, c), v in mu.entries.items():
        entries[((r + n) % side, (c + n) % side)] = v
    return SquareMatrix(mu.ctx, side, entries)


def test_acceptance_7_property_suites():
    t0 = time.time()
    # Yang-Baxter for catalog, transformed, and preset-dressed matrices
    for name in CATALOG_NAMES:
        spec = get_rmatrix(name)
        assert check_ybe(spec.matrix)
        q_mat = SquareMatrix.from_rows(spec.ctx, [[1, 1], [0, 1]])
        for t in (
            TransformSpec("similarity", kappa=spec.ctx.gen(spec.ctx.generators[0]), q=q_mat),
            TransformSpec("transpose"),
            TransformSpec("shift", n=1),
            TransformSpec("flip"),
        ):
            transform_rmatrix(spec, t)  # internally re-checked
    for preset in preset_names():
        data = preset_dressings(preset)
        assert check_ybe(data.matrix)

    # enhancement conditions for every registry row, both signs, and the
    # three companion variants
    for entry in table1_entries():
        for sign in "+-":
            op = entry.build(sign)
            assert verify_eyb(op)
        for variant in sign_variants(entry.build()):
            assert verify_eyb(variant)

    # Markov invariance for three operators over the whole catalog
    rng = random.Random(20240608)
    operators = {
        "jones": get_table1_eyb("R2.1", 1),
        "two-power": get_table1_eyb("R2.3", 1),
        "dressed": preset_dressings("d3_R21").eyb,
    }
    for label, op in operators.items():
        for name in NAMED_LINKS:
            braid = get_named_braid(name).braid
            reference = compute_ts(op, braid).value
            if braid.strands > 1:
                for _ in range(2):
                    word = tuple(
                        rng.choice([k for k in range(-(braid.strands - 1), braid.strands)
                                    if k != 0])
                        for _ in range(rng.randint(1, 4))
                    )
                    value = compute_ts(op, conjugate(braid, word)).value
                    assert value == reference, (label, name, word)
            for sign in (+1, -1):
                value = compute_ts(op, stabilize(braid, sign)).value
                assert value == reference, (label, name, sign)

    # multiplicativity over disjoint unions (raw values)
    jones = operators["jones"]
    pairs = [("3_1", "2^2_1"), ("4_1", "5_2"), ("2^2_1", "2^2_1"), ("5_1", "4_1")]
    for left, right in pairs:
        a = get_named_braid(left).braid
        b = get_named_braid(right).braid
        union_value = compute_ts(jones, disjoint_union(a, b)).value
        assert union_value == compute_ts(jones, a).value * compute_ts(jones, b).value

    # sign-variant relation: each companion flips by (-1)^components
    s1, s2, s3 = sign_variants(jones)
    for name in NAMED_LINKS:
        link = get_named_braid(name)
        reference = compute_ts(jones, link.braid).value
        expected = reference * jones.ctx.scalar((-1) ** link.components)
        for variant in (s1, s2, s3):
            assert compute_ts(variant, link.braid).value == expected, name

    # transformation covariance with the adjusted weight data
    ctx = jones.ctx
    q_mat = SquareMatrix.from_rows(ctx, [[1, 1], [0, 1]])
    kappa = ctx.gen("q")
    qq_inv = invert(q_mat)
    similar = EnhancedOperator(
        transform_rmatrix(jones.r, TransformSpec("similarity", kappa=kappa, q=q_mat)),
        matmul(matmul(q_mat, jones.mu), qq_inv),
        kappa * jones.alpha,
        jones.beta,
    )
    transposed = EnhancedOperator(
        transform_rmatrix(jones.r, TransformSpec("transpose")),
        jones.mu.transpose(),
        jones.alpha,
        jones.beta,
    )
    shifted = EnhancedOperator(
        transform_rmatrix(jones.r, TransformSpec("shift", n=1)),
        _shift_mu(jones.mu, 1),
        jones.alpha,
        jones.beta,
    )
    flipped = EnhancedOperator(
        transform_rmatrix(jones.r, TransformSpec("flip")),
        jones.mu,
        jones.alpha,
        jones.beta,
    )
    for variant in (similar, transposed, shifted):
        assert verify_eyb(variant)
    for name in NAMED_LINKS:
        braid = get_named_braid(name).braid
        reference = compute_ts(jones, braid).value
        for variant in (similar, transposed, shifted, flipped):
            assert compute_ts(variant, braid).value == reference, name

    # triviality mechanism: the 14 intertwined rows give the constant invariant
    intertwined = [entry for entry in table1_entries() if entry.intertwine is not None]
    assert len(intertwined) == 14
    for entry in intertwined:
        op = entry.build()
        mumu = kron(op.mu, op.mu)
        c = op.ctx.parse(entry.intertwine)
        assert matmul(mumu, op.r) == scalar_scale(mumu, c)
        for name in ("3_1", "2^2_1", "6^2_3"):
            braid = get_named_braid(name).braid
            assert compute_ts(op, braid).value == op.ctx.one()
    _finish(7, "Yang-Baxter, enhancement, and invariance law suites", 300, t0)


def test_acceptance_8_alexander():
    t0 = time.time()
    ctx = ScalarContext(("t",))
    z = ctx.parse("t - t^-1")
    assert alexander_nabla(BraidWord(1)) == ctx.one()

    # the crossing-switch relation on families built from every named braid
    for name in NAMED_LINKS:
        base = get_named_braid(name).braid
        if base.strands < 2:
            base = stabilize(base, +1)
        plus = BraidWord(base.strands, base.letters + (1,))
        minus = BraidWord(base.strands, base.letters + (-1,))
        lhs = alexander_nabla(plus) - alexander_nabla(minus)
        assert lhs == z * alexander_nabla(base), name

    # Markov invariance
    rng = random.Random(11)
    for name in ("3_1", "4_1", "5_2", "2^2_1", "5^2_1"):
        braid = get_named_braid(name).braid
        reference = alexander_nabla(braid)
        assert alexander_nabla(stabilize(braid, +1)) == reference
        assert alexander_nabla(stabilize(braid, -1)) == reference
        for _ in range(2):
            word = tuple(
                rng.choice([k for k in range(-(braid.strands - 1), braid.strands)
                            if k != 0])
                for _ in range(rng.randint(1, 3))
            )
            assert alexander_nabla(conjugate(braid, word)) == reference, (name, word)

    # agreement with the independent skein-recursion oracle, up to +-t^k
    for name in ("3_1", "4_1", "5_1", "5_2", "2^2_1"):
        braid = get_named_braid(name).braid
        oracle = conway_in_t(ctx, conway_polynomial(braid.strands, braid.letters))
        assert equal_up_to_unit(alexander_nabla(braid), oracle), name
    _finish(8, "regularized one-variable invariant", 60, t0)
