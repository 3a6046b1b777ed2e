"""Source hygiene of the library, read with ``ast``: no import from outside
the package and the standard library, no import that its module never
reads, no top-level private name that no module reads, no parameter that
its function never reads, and no package export that only the tests call.
And no doc names a library attribute that is gone."""

import ast
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "ybtrace"

# Names a module imports for other code to reach through it.  perfbench's
# tracer self-test wraps ``eyb.matmul``.
REEXPORTED = {("eyb", "matmul")}


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SOURCE.glob("*.py"))}


def _reads(tree):
    """Every name the tree loads, every attribute it reads and every name it
    imports from another module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _loads(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _imported(tree):
    """The names bound by the module's top-level imports."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def _private_definitions(tree):
    """The private names the module binds at top level, imports aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def test_every_top_level_import_is_read_in_its_module():
    unread = []
    for module, tree in _modules().items():
        if module == "__init__":
            continue
        loads = _loads(tree)
        unread += [(module, name) for name in _imported(tree)
                   if name not in loads and (module, name) not in REEXPORTED]
    assert unread == []


def test_every_import_is_relative_or_of_the_standard_library():
    """The library has no runtime dependency: each import names the package
    itself or a module of the standard library."""
    outside = []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(module, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_top_level_private_name_is_read_in_the_library():
    modules = _modules()
    reads = set().union(*map(_reads, modules.values()))
    unread = [(module, name) for module, tree in modules.items()
              for name in _private_definitions(tree) if name not in reads]
    assert unread == []


def _parameters(node):
    args = node.args
    named = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return [arg.arg for arg in named if arg is not None]


def test_every_parameter_is_read_in_its_function():
    """A parameter that its function never reads is an option that does
    nothing.  Dunder protocol methods take the arguments their protocol
    passes, read or not."""
    unread = []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                name = getattr(node, "name", "<lambda>")
                if name.startswith("__") and name.endswith("__"):
                    continue
                unread += [(module, name, p) for p in _parameters(node) if p not in _loads(node)]
    assert unread == []


def test_every_export_has_a_caller_outside_the_tests():
    """Each name ``ybtrace/__init__.py`` re-exports is loaded by name in a
    library module, a demo, perfbench or the acceptance suite; a name that
    only its own tests call is surface to delete."""
    modules = _modules()
    exported = {alias.asname or alias.name for node in modules.pop("__init__").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    callers = list(modules.values()) + [
        ast.parse(path.read_text(), str(path))
        for path in [*sorted((ROOT / "demos").glob("*.py")),
                     *sorted((ROOT / "perfbench").glob("*.py")),
                     ROOT / "tests" / "test_acceptance.py"]]
    loaded = set().union(*map(_loads, callers))
    assert sorted(exported - loaded) == []


# A backticked ``module.name`` of a library module, in Markdown or in a docstring.
_DOC_NAME = re.compile(
    r"`(ring|tensor|catalog|invariant|eyb|dressing|braid|tables|cli|errors)\.([A-Za-z_]\w*)")


def test_every_backticked_library_name_in_the_docs_exists():
    """README, the library and the tests name only attributes their module
    has; ``ring.py`` and the like are file names."""
    stale = []
    for path in [ROOT / "README.md", *sorted(SOURCE.glob("*.py")),
                 *sorted((ROOT / "tests").glob("*.py"))]:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for module, name in _DOC_NAME.findall(line):
                if name != "py" and not hasattr(
                        importlib.import_module(f"ybtrace.{module}"), name):
                    stale.append((path.name, number, f"{module}.{name}"))
    assert stale == []
