"""Every public name has a caller outside the tests.

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
"""

import ast
import importlib
import re
from pathlib import Path

import stdlens

PACKAGE = Path(stdlens.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _identifiers(path: Path) -> set[str]:
    """The names, attribute names and imported names that a module uses."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
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
