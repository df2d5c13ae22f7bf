"""Every public name has a use outside its own definition and ``__init__.py``.

A name counts as used when library code in ``src/bosonkit`` refers to it, when
a benchmark file names it (``SPANS`` and the workload tables name functions
by string), or when the README's library example shows it.  A public name
that only tests refer to is code kept in ``src/`` for the tests' sake.  And no
module of ``src/bosonkit`` reads a private name of another.
"""

import ast
import re
from pathlib import Path

import bosonkit

ROOT = Path(__file__).resolve().parents[1]


def referenced_names(path, *, strings):
    """Loaded names, attributes and imported names in a file; string constants too if asked."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def readme_example_words():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library use\s+```python\n(.*?)```", readme, re.DOTALL)
    assert example, "README has no library example"
    return set(re.findall(r"\w+", example.group(1)))


def test_every_public_name_has_a_use():
    used = readme_example_words()
    for path in (ROOT / "src" / "bosonkit").glob("*.py"):
        if path.name != "__init__.py":
            used |= referenced_names(path, strings=False)
    for path in (ROOT / "bench").glob("*.py"):
        used |= referenced_names(path, strings=True)
    unused = sorted(set(bosonkit.__all__) - used)
    assert not unused, f"public names used only by tests: {unused}"


def test_no_module_reads_another_modules_private_names():
    # `from .x import _y` and `x._y`, where x is a bosonkit module: a private
    # name is a decision its own module may change without telling the others.
    package = ROOT / "src" / "bosonkit"
    modules = {path.stem for path in package.glob("*.py")}
    reads = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                module = node.module if node.level else node.module.partition("bosonkit.")[2]
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module, names = node.value.id, [node.attr]
            else:
                continue
            if module in modules and module != path.stem:
                reads += [
                    f"{path.name}:{node.lineno}: {module}.{name}"
                    for name in names
                    if name.startswith("_") and not name.endswith("__")
                ]
    assert not reads, f"private names read across modules: {reads}"
