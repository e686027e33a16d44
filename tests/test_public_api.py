"""Every public name has a caller outside the tests, and every private
module-level name is read in the package.

A name in a `stdlens` module's `__all__` passes when some module of the
package other than `__init__.py` refers to it as an identifier (a name, an
attribute or an import alias; docstrings and `__all__` strings do not
count), or when it appears as a word in a Python file under `perfbench/`,
since a name the benchmark traces counts as called. A name that only the
tests call is deleted, or moves into the tests.

The benchmark alone keeps `detector_loss_and_grad`,
`extract_class_gradient_block`, `cluster_2d` (and `kmeans`, which only
`cluster_2d` calls), `temporal_signature`, `write_contributions` and
`synth_two_population_stream` public: no run or CLI command calls them.
Once the benchmark traces the paths that runs take (ROADMAP item 1), this
test names them.

A module-level function, class or constant whose name starts with one
underscore passes when some module of the package reads it, so a helper
that a refactor leaves without a caller is deleted with it.
"""

import ast
import importlib
import re
from pathlib import Path

import stdlens

PACKAGE = Path(stdlens.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _identifiers(path: Path) -> set[str]:
    """The names a module reads, and the attribute names and imported names
    it uses."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    used = set().union(*map(_identifiers, modules))
    traced = set().union(*(re.findall(r"\w+", p.read_text())
                           for p in PERFBENCH.rglob("*.py")))
    public = [(p.stem, name) for p in modules
              for name in getattr(importlib.import_module(f"stdlens.{p.stem}"), "__all__", ())]
    assert public
    orphans = [f"{module}.{name}" for module, name in public
               if name not in used and name not in traced]
    assert not orphans, f"public names that only the tests call: {orphans}"


def _private_definitions(path: Path) -> set[str]:
    """The module-level functions, classes and assigned constants of a
    module whose names start with one underscore (dunders excluded)."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found.update(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return {name for name in found if name.startswith("_") and not name.startswith("__")}


def test_every_private_name_is_read_in_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    used = set().union(*map(_identifiers, modules))
    private = [(p.stem, name) for p in modules for name in _private_definitions(p)]
    assert private
    orphans = [f"{module}.{name}" for module, name in private if name not in used]
    assert not orphans, f"private names that the package never reads: {orphans}"
