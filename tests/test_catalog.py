"""Catalog solutions, the YBE checker, symmetries, spin preservation."""

import pytest

from oracles import ybe_residuals

from ybtrace.catalog import (
    CATALOG_NAMES,
    TransformSpec,
    check_ybe,
    get_rmatrix,
    is_spin_preserving,
    load_rmatrix_json,
    transform_rmatrix,
)
from ybtrace.errors import DimensionMismatch, PreconditionViolation, UnknownName
from ybtrace.ring import ScalarContext, context_from_json, context_to_json
from ybtrace.tensor import SquareMatrix, matrix_substitute, matrix_to_json


def test_all_catalog_matrices_solve_ybe():
    for name in CATALOG_NAMES:
        spec = get_rmatrix(name)
        assert check_ybe(spec.matrix, 2), name


def test_catalog_against_index_sum_oracle():
    for name in ("R2.1", "R2.3", "R1.2"):
        assert ybe_residuals(get_rmatrix(name).matrix, 2) == {}


def test_identity_solves_ybe():
    ctx = ScalarContext(("q",))
    assert check_ybe(SquareMatrix.identity(ctx, 4), 2)


def test_broken_matrix_fails_with_witness():
    spec = get_rmatrix("R2.1")
    entries = dict(spec.matrix.entries)
    entries[(0, 0)] = spec.ctx.scalar(2)
    broken = SquareMatrix(spec.ctx, 4, entries)
    verdict = check_ybe(broken, 2)
    assert not verdict
    assert verdict.index is not None
    assert not verdict.residual.is_zero()
    oracle = ybe_residuals(broken, 2)
    assert oracle  # the independent contraction also sees a violation


def test_yang_baxter_check_refuses_a_dense_matrix_above_the_entry_cap():
    # base 16 passes the state cap (16^3 = 4096), but each embedded factor
    # would store 16 copies of 65536 entries
    ctx = ScalarContext(("q",))
    one = ctx.one()
    dense = SquareMatrix(ctx, 256, {(r, c): one for r in range(256) for c in range(256)})
    with pytest.raises(DimensionMismatch, match="above the cap of 16384"):
        check_ybe(dense)


def test_unknown_name():
    with pytest.raises(UnknownName):
        get_rmatrix("R9.9")


def test_catalog_shapes():
    r31 = get_rmatrix("R3.1").matrix
    ctx = r31.ctx
    # anti-diagonal middle block carrying q and p, corners 1 and s
    assert r31.get(0, 0) == ctx.one()
    assert r31.get(3, 3) == ctx.gen("s")
    middle = {r31.get(1, 2), r31.get(2, 1)}
    assert middle == {ctx.gen("p"), ctx.gen("q")}
    r14 = get_rmatrix("R1.4").matrix
    q = r14.ctx.gen("q")
    assert r14.get(0, 3) == q and r14.get(3, 0) == q
    assert r14.get(1, 1) == r14.ctx.one() and r14.get(2, 2) == r14.ctx.one()
    r21 = get_rmatrix("R2.1").matrix
    vals = {r21.get(1, 1), r21.get(1, 2), r21.get(2, 1), r21.get(2, 2)}
    assert vals == {
        r21.ctx.parse("1-p*q"),
        r21.ctx.gen("p"),
        r21.ctx.gen("q"),
        r21.ctx.zero(),
    }


def _transforms(ctx):
    q_mat = SquareMatrix.from_rows(ctx, [[1, 1], [0, 1]])
    swap = SquareMatrix.from_rows(ctx, [[0, 1], [1, 0]])
    first_gen = ctx.gen(ctx.generators[0])
    return [
        TransformSpec("similarity", kappa=ctx.one(), q=q_mat),
        TransformSpec("similarity", kappa=first_gen, q=swap),
        TransformSpec("transpose"),
        TransformSpec("shift", n=1),
        TransformSpec("flip"),
    ]


def test_transforms_preserve_ybe():
    for name in CATALOG_NAMES:
        spec = get_rmatrix(name)
        for t in _transforms(spec.ctx):
            out = transform_rmatrix(spec, t, 2)  # raises if the check fails
            assert check_ybe(out, 2)


def test_similarity_with_identity_data():
    spec = get_rmatrix("R2.2")
    t = TransformSpec(
        "similarity", kappa=spec.ctx.one(), q=SquareMatrix.identity(spec.ctx, 2)
    )
    assert transform_rmatrix(spec, t, 2) == spec.matrix


def test_transpose_of_r31_swaps_p_and_q():
    spec = get_rmatrix("R3.1")
    ctx = spec.ctx
    out = transform_rmatrix(spec, TransformSpec("transpose"), 2)
    swapped = matrix_substitute(
        spec.matrix, {"p": ctx.gen("q"), "q": ctx.gen("p")}, ctx
    )
    assert out == swapped


def test_flip_fixes_symmetric_entry():
    spec = get_rmatrix("R1.4")
    assert transform_rmatrix(spec, TransformSpec("flip"), 2) == spec.matrix


def test_transform_involutions():
    spec = get_rmatrix("R2.3")
    transpose = TransformSpec("transpose")
    flip = TransformSpec("flip")
    shift = TransformSpec("shift", n=1)
    once = transform_rmatrix(spec, transpose, 2)
    assert transform_rmatrix(once, transpose, 2) == spec.matrix
    once = transform_rmatrix(spec, flip, 2)
    assert transform_rmatrix(once, flip, 2) == spec.matrix
    assert transform_rmatrix(transform_rmatrix(spec, shift, 2), shift, 2) == spec.matrix
    assert transform_rmatrix(spec, TransformSpec("shift", n=2), 2) == spec.matrix


def test_transform_of_a_non_solution_raises_precondition_violation_naming_the_index():
    spec = get_rmatrix("R2.1")
    entries = dict(spec.matrix.entries)
    entries[(0, 0)] = spec.ctx.scalar(2)
    broken = SquareMatrix(spec.ctx, 4, entries)
    index = check_ybe(broken.transpose(), 2).index
    with pytest.raises(PreconditionViolation) as caught:
        transform_rmatrix(broken, TransformSpec("transpose"), 2)
    assert str(caught.value) == f"transformed matrix violates the YBE at {index}"


def test_spin_preservation():
    assert is_spin_preserving(get_rmatrix("R2.2").matrix)
    assert not is_spin_preserving(get_rmatrix("R1.2").matrix)
    assert not is_spin_preserving(get_rmatrix("R1.1").matrix)
    ctx = ScalarContext(("q",))
    assert is_spin_preserving(SquareMatrix.identity(ctx, 4))


def test_custom_loader_round_trip():
    spec = get_rmatrix("R1.4")
    ctx2 = context_from_json(context_to_json(spec.ctx))
    loaded = load_rmatrix_json(ctx2, matrix_to_json(spec.matrix))
    assert loaded.entries == spec.matrix.entries


def test_forbidden_endpoint_makes_matrix_singular():
    # constraints record the nonsingularity limits; violating endpoints
    # surface as NonInvertible after substitution
    from ybtrace.errors import NonInvertible
    from ybtrace.tensor import invert

    spec = get_rmatrix("R1.4")
    assert ("q", spec.ctx.zero()) in spec.constraints
    degenerate = matrix_substitute(spec.matrix, {"q": spec.ctx.zero()}, spec.ctx)
    with pytest.raises(NonInvertible):
        invert(degenerate)


def test_custom_loader_rejects_non_solutions():
    ctx = ScalarContext(("q",))
    bad = SquareMatrix.from_rows(
        ctx, [[1, 0, 0, 0], [0, 1, "q", 0], [0, "q", 1, 0], [0, 0, 0, 1]]
    )
    with pytest.raises(ValueError):
        load_rmatrix_json(ctx, matrix_to_json(bad))
    unchecked = load_rmatrix_json(ctx, matrix_to_json(bad), checked=False)
    assert unchecked == bad


def _pair_state(digits, base):
    return (digits[0] * base + digits[1]) * base + digits[2]


@pytest.mark.parametrize("name, key, text", [
    ("R2.1", (0, 0), "2"),
    ("R1.1", (1, 2), "q"),
    ("R3.1", (1, 1), "s"),
    ("R1.4", (0, 1), "-1"),
    ("R2.1", (0, 2), "1"),  # only R23 R12 R23 stores the witness's entry
    ("R2.1", (2, 2), "-1"),  # only R12 R23 R12 stores it
])
def test_ybe_witness_is_the_smallest_residual_of_the_oracle(name, key, text):
    spec = get_rmatrix(name)
    entries = dict(spec.matrix.entries)
    entries[key] = spec.ctx.parse(text)
    broken = SquareMatrix(spec.ctx, 4, entries)
    oracle = ybe_residuals(broken, 2)
    first = min(oracle)
    verdict = check_ybe(broken, 2)
    assert not verdict
    assert verdict.index == (_pair_state(first[0], 2), _pair_state(first[1], 2))
    assert verdict.residual == oracle[first]


def test_spin_preservation_follows_the_entry_pattern():
    # a pair's spin is its count of '-' digits (digit 1); an entry conserves
    # it when row and column pairs carry the same count
    preserving = set()
    for name in CATALOG_NAMES:
        matrix = get_rmatrix(name).matrix
        expected = all(bin(r).count("1") == bin(c).count("1") for r, c in matrix.entries)
        assert is_spin_preserving(matrix) == expected, name
        if expected:
            preserving.add(name)
    assert preserving == {"R3.1", "R2.1", "R2.2"}
