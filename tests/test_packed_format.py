"""The packed scalar format stays behind ``ring.py``.

A Scalar's numerators, denominator and key layout (``_nums``, ``_den`` and
``_layout``) are read only inside ``ring.py``, and no other module imports a
private name from it.  Then a change of the packing touches one file, and
the kernels built on it (``dot``, ``dot_entries``) are the only way the
other layers reach the terms.
"""

import ast
from pathlib import Path

import ybtrace

PACKED = {"_nums", "_den", "_layout"}
PACKAGE = Path(ybtrace.__file__).resolve().parent


def _violations(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and (
                node.attr in PACKED
                or (node.attr.startswith("_") and isinstance(node.value, ast.Name)
                    and node.value.id == "ring")):
            found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == "ring") or node.module == "ybtrace.ring"):
            found += [f"{path.name}:{node.lineno} imports {alias.name} from ring"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_but_ring_reads_the_packed_format():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "ring.py" in modules and len(modules) > 5
    found = [v for path in modules if path.name != "ring.py" for v in _violations(path)]
    assert found == []


def test_the_check_sees_a_read_and_a_private_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from .ring import _settle, dot\nfrom . import ring\n"
                    "def f(x):\n    return x._nums, x.ctx._layout, ring._scalar\n")
    assert [v.split(" ", 1)[1] for v in _violations(path)] == [
        "imports _settle from ring", "reads ._nums", "reads ._layout", "reads ._scalar"]
