"""The library's frozen records: equality, hashing, repr, immutability,
defaults and argument checks are those of the frozen dataclasses they
replace, and importing ybtrace loads neither ``dataclasses`` nor
``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ybtrace.braid import BraidWord, NamedLink, get_named_braid
from ybtrace.catalog import RMatrixSpec, TransformSpec
from ybtrace.dressing import BlockDressingSpec, DiagonalDressingSpec, DressedPreset
from ybtrace.errors import StrandBoundViolation
from ybtrace.eyb import TABLE1, EnhancedOperator, Table1Entry
from ybtrace.invariant import InvariantResult, RelationSpec, SkeinFamily, get_relation
from ybtrace.ring import ScalarContext
from ybtrace.tables import TableCell, TableReport
from ybtrace.tensor import SquareMatrix, Verdict

SRC = Path(__file__).resolve().parent.parent / "src"
CTX = ScalarContext(("q",))


def _op():
    return EnhancedOperator(SquareMatrix.identity(CTX, 4), SquareMatrix.identity(CTX, 2),
                            CTX.one(), CTX.gen("q"))


def _table1_entry():
    return Table1Entry("R3.1", 1, ("p", "q"), (), (("s", "1"),), ("1", "0", "0", "1"),
                       "1", "1", "knots-1")


# name -> (a factory giving equal, distinct instances; the dataclass repr;
# whether the record is hashable)
RECORDS = {
    "BraidWord": (lambda: BraidWord(2, [1, -1, 1]),
                  "BraidWord(strands=2, letters=(1, -1, 1))", True),
    "NamedLink": (lambda: NamedLink("3_1", BraidWord(2, (1, 1, 1)), 1),
                  "NamedLink(name='3_1', braid=BraidWord(strands=2, letters=(1, 1, 1)), "
                  "components=1)", True),
    "RMatrixSpec": (lambda: RMatrixSpec("R", 2, CTX, SquareMatrix.identity(CTX, 4),
                                        (("q", CTX.zero()),)),
                    "RMatrixSpec(name='R', base_dim=2, ctx=ScalarContext(['q']), "
                    "matrix=<SquareMatrix side=4 nnz=4>, constraints=(('q', <Scalar 0>),))",
                    False),
    "TransformSpec": (lambda: TransformSpec("similarity", CTX.gen("q"), None, 1),
                      "TransformSpec(kind='similarity', kappa=<Scalar q>, q=None, n=1)", True),
    "Verdict": (lambda: Verdict(False, "(1)", (0, 1)),
                "Verdict(ok=False, condition='(1)', index=(0, 1), residual=None)", True),
    "DiagonalDressingSpec": (lambda: DiagonalDressingSpec(CTX, 3, (3, 1), {(1, 2): "q"}),
                             "DiagonalDressingSpec(ctx=ScalarContext(['q']), n=3, j=(1, 3), "
                             "s={(1, 2): <Scalar q>})", False),
    "BlockDressingSpec": (lambda: BlockDressingSpec(CTX, 3, (1,), f={(2, 3): "-q"}),
                          "BlockDressingSpec(ctx=ScalarContext(['q']), n=3, j=(1,), "
                          "f_block=<SquareMatrix side=1 nnz=1>, "
                          "g_block=<SquareMatrix side=1 nnz=1>, f={(2, 3): <Scalar -q>})",
                          False),
    "DressedPreset": (lambda: DressedPreset("d", CTX, DiagonalDressingSpec(CTX, 2, (1,)),
                                            SquareMatrix.identity(CTX, 4), _op(), "R2.1", 1),
                      "DressedPreset(name='d', ctx=ScalarContext(['q']), "
                      "spec=DiagonalDressingSpec(ctx=ScalarContext(['q']), n=2, j=(1,), s={}), "
                      "matrix=<SquareMatrix side=4 nnz=4>, "
                      "eyb=EnhancedOperator(r=<SquareMatrix side=4 nnz=4>, "
                      "mu=<SquareMatrix side=2 nnz=2>, alpha=<Scalar 1>, beta=<Scalar q>), "
                      "base_rmatrix='R2.1', base_row=1)", False),
    "EnhancedOperator": (_op, "EnhancedOperator(r=<SquareMatrix side=4 nnz=4>, "
                              "mu=<SquareMatrix side=2 nnz=2>, alpha=<Scalar 1>, "
                              "beta=<Scalar q>)", False),
    "Table1Entry": (_table1_entry,
                    "Table1Entry(rmatrix='R3.1', row=1, gens=('p', 'q'), roots=(), "
                    "restrictions=(('s', '1'),), mu_rows=('1', '0', '0', '1'), alpha='1', "
                    "beta='1', tag='knots-1', intertwine=None)", True),
    "InvariantResult": (lambda: InvariantResult(CTX.gen("q"), False, CTX.one(), _op(),
                                                BraidWord(1)),
                        "InvariantResult(value=<Scalar q>, normalized=False, "
                        "unknot_value=<Scalar 1>, eyb=EnhancedOperator("
                        "r=<SquareMatrix side=4 nnz=4>, mu=<SquareMatrix side=2 nnz=2>, "
                        "alpha=<Scalar 1>, beta=<Scalar q>), "
                        "braid=BraidWord(strands=1, letters=()))", False),
    "RelationSpec": (lambda: RelationSpec("R1.3", "R1.3", ("q",), (), ((2, "1"), (0, "-1"))),
                     "RelationSpec(name='R1.3', rmatrix='R1.3', gens=('q',), restrictions=(), "
                     "coefficients=((2, '1'), (0, '-1')))", True),
    "SkeinFamily": (lambda: SkeinFamily(BraidWord(2, (1,)), 1, ((1, CTX.one()),)),
                    "SkeinFamily(base=BraidWord(strands=2, letters=(1,)), position=1, "
                    "terms=((1, <Scalar 1>),), insert_at=None)", True),
    "TableCell": (lambda: TableCell(2, "3_1", "J", "t", "t", True),
                  "TableCell(table=2, link='3_1', column='J', computed='t', expected='t', "
                  "match=True)", True),
    "TableReport": (lambda: TableReport(2, (TableCell(2, "3_1", "J", "t", "t", True),)),
                    "TableReport(table=2, cells=(TableCell(table=2, link='3_1', column='J', "
                    "computed='t', expected='t', match=True),))", True),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_within_a_class_and_unequal_across_classes(name):
    make = RECORDS[name][0]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    for other_name, (other, _, _) in RECORDS.items():
        if other_name != name:
            c = other()
            assert a != c and not a == c
            assert a.__eq__(c) is NotImplemented
    assert a != tuple(getattr(a, field) for field in a._fields)


def test_one_differing_field_makes_records_unequal():
    assert BraidWord(2, (1,)) != BraidWord(2, (-1,))
    assert BraidWord(2, (1,)) != BraidWord(3, (1,))
    assert Verdict(True) != Verdict(False)
    assert TableCell(2, "3_1", "J", "t", "t", True) != TableCell(2, "3_1", "J", "t", "1", True)
    assert _op() != EnhancedOperator(SquareMatrix.identity(CTX, 4),
                                     SquareMatrix.identity(CTX, 2), CTX.one(), CTX.one())


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_equal_and_unhashable_fields_make_them_unhashable(name):
    make, _, hashable = RECORDS[name]
    a, b = make(), make()
    if hashable:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_verdict_and_transform_hash_only_when_their_fields_do():
    assert hash(Verdict(True)) == hash(Verdict(True))
    with pytest.raises(TypeError):
        hash(Verdict(False, residual=SquareMatrix.identity(CTX, 2)))
    with pytest.raises(TypeError):
        hash(TransformSpec("similarity", CTX.one(), SquareMatrix.identity(CTX, 2)))


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_text(name):
    make, text, _ = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    a = RECORDS[name][0]()
    before = repr(a)
    for field in a._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        a.extra = 1
    assert repr(a) == before


def test_defaults():
    assert BraidWord(3).letters == ()
    assert (TransformSpec("flip").kappa, TransformSpec("flip").q, TransformSpec("flip").n) \
        == (None, None, 0)
    verdict = Verdict(True)
    assert (verdict.condition, verdict.index, verdict.residual) == (None, None, None)
    assert SkeinFamily(BraidWord(1), 1, ()).insert_at is None
    entry = Table1Entry("R1.2", 9, ("q",))
    assert (entry.roots, entry.restrictions, entry.mu_rows, entry.alpha, entry.beta,
            entry.tag, entry.intertwine) == ((), (), (), "1", "1", "const-1", None)
    block = BlockDressingSpec(CTX, 4, (3, 1))
    assert block.f_block == block.g_block == SquareMatrix.identity(CTX, 2)


def test_keyword_arguments_keep_their_names():
    assert BraidWord(strands=2, letters=(1,)) == BraidWord(2, (1,))
    assert TransformSpec(kind="shift", n=1) == TransformSpec("shift", None, None, 1)
    assert Verdict(ok=False, residual=1).residual == 1
    assert SkeinFamily(base=BraidWord(2), position=1, terms=(), insert_at=0).insert_at == 0
    assert DiagonalDressingSpec(ctx=CTX, n=2, j=(1,), s={}).j == (1,)
    assert BlockDressingSpec(ctx=CTX, n=2, j=(1,), f_block=None, g_block=None, f={}).f == {}
    assert _table1_entry() == TABLE1[0]
    assert RECORDS["RelationSpec"][0]() == get_relation("R1.3")
    assert get_named_braid("3_1") == RECORDS["NamedLink"][0]()


def test_weight_dicts_are_fresh_per_instance():
    a, b = DiagonalDressingSpec(CTX, 3, (1,)), DiagonalDressingSpec(CTX, 3, (1,))
    assert a.s == b.s == {} and a.s is not b.s
    given = {(2, 3): "q"}
    c = DiagonalDressingSpec(CTX, 3, (1,), given)
    assert c.s is not given and given == {(2, 3): "q"}
    a, b = BlockDressingSpec(CTX, 3, (1,)), BlockDressingSpec(CTX, 3, (1,))
    assert a.f == b.f == {} and a.f is not b.f


def test_operator_closure_constants_are_fresh_and_not_a_field():
    a, b = _op(), _op()
    assert a._closure == {} and a._closure is not b._closure
    a._closure["kept"] = 1
    assert a == b and "_closure" not in repr(a)


def test_kept_writhe_and_hash_stay_out_of_repr_and_equality():
    """The writhe a BraidWord counts in ``__init__`` and the hash a record
    keeps on its first ``hash`` are not fields: a record that keeps other
    values, or none, is equal, hashes equal and prints the same."""
    a, b = BraidWord(3, (1, -2, 1)), BraidWord(3, (1, -2, 1))
    assert a.writhe == 1 and hash(a) == hash(a)
    assert "_hash" in a.__dict__ and "_hash" not in b.__dict__
    assert a == b and b == a and hash(b) == hash(a)
    c = BraidWord(3, (1, -2, 1))
    c.__dict__.update(writhe=7, _hash=0)
    assert a == c and c == a and not a != c
    assert repr(a) == repr(b) == repr(c) == "BraidWord(strands=3, letters=(1, -2, 1))"
    entry = _table1_entry()
    kept = hash(entry)
    assert hash(entry) == kept == hash(_table1_entry()) and entry == _table1_entry()
    assert repr(entry) == RECORDS["Table1Entry"][1]


def test_an_unhashable_record_raises_on_every_hash_and_keeps_nothing():
    for record in (Verdict(False, residual=SquareMatrix.identity(CTX, 2)), _op(),
                   InvariantResult(CTX.one(), False, CTX.one(), _op(), BraidWord(1))):
        for _ in range(2):
            with pytest.raises(TypeError):
                hash(record)
        assert "_hash" not in record.__dict__


@pytest.mark.parametrize("letters, message", [
    ((0,), "invalid letter 0"),
    (("1",), "invalid letter '1'"),
    ((2,), "letter 2 needs at least 3 strands, have 2"),
    ((-3,), "letter -3 needs at least 4 strands, have 2"),
    ((True, True, True), "invalid letter True"),
    ((1, False), "invalid letter False"),
])
def test_braid_word_refuses_bad_letters(letters, message):
    with pytest.raises(StrandBoundViolation) as info:
        BraidWord(2, letters)
    assert str(info.value) == message


def test_braid_word_refuses_no_strands_and_keeps_letters_as_a_tuple():
    with pytest.raises(StrandBoundViolation) as info:
        BraidWord(0)
    assert str(info.value) == "strand count must be at least 1"
    assert BraidWord(3, iter([1, 2])).letters == (1, 2)


@pytest.mark.parametrize("make, message", [
    (lambda: DiagonalDressingSpec(CTX, 3, [3, 3]), "bad index subset [3, 3]"),
    (lambda: DiagonalDressingSpec(CTX, 3, (0, 1)), "bad index subset (0, 1)"),
    (lambda: DiagonalDressingSpec(CTX, 3, (1,), {(1, 4): "q"}), "pair (1, 4) lies outside 1..3"),
    (lambda: DiagonalDressingSpec(CTX, 3, (3, 1), {(3, 1): "q"}),
     "pair (3, 1) lies inside the embedded block"),
    (lambda: DiagonalDressingSpec(CTX, 3, (1,), {(1, 2): "1+q"}),
     "swap weight for (1, 2) must be invertible"),
    (lambda: BlockDressingSpec(CTX, 3, (1,), f={(2, 1): "q"}),
     "pair (2, 1) touches the embedded block"),
    (lambda: BlockDressingSpec(CTX, 3, (1,), f={(2, 3): "0"}),
     "swap weight for (2, 3) must be invertible"),
    (lambda: BlockDressingSpec(CTX, 3, (1,), SquareMatrix.identity(CTX, 2)),
     "F has side 2, not |J| = 1"),
    (lambda: BlockDressingSpec(CTX, 3, (1,), None, SquareMatrix(CTX, 1, {})),
     "G must be invertible over the ring"),
    (lambda: BlockDressingSpec(CTX, 3, (1, 2), None,
                               SquareMatrix.from_rows(CTX, [[1, 0], [0, "1+q"]])),
     "G must be invertible over the ring"),
])
def test_dressing_specs_refuse_bad_data(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_importing_ybtrace_loads_neither_dataclasses_nor_inspect():
    names = ["ybtrace"] + sorted(f"ybtrace.{path.stem}" for path in (SRC / "ybtrace").glob("*.py")
                                 if path.stem != "__init__")
    assert "ybtrace.cli" in names
    code = ("import importlib, sys\n"
            "before = set(sys.modules)\n"
            "for name in sys.argv[1:]:\n"
            "    importlib.import_module(name)\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *names], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    added = set(done.stdout.split())
    assert set(names) <= added
    assert not {"dataclasses", "inspect"} & added
