"""README's library example runs, and each line gives the value its comment shows."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    readme = README.read_text(encoding="utf-8")
    example = re.search(r"## Library use\s+```python\n(.*?)```", readme, re.DOTALL)
    assert example, "README has no library example"
    return example.group(1)


def test_library_example_gives_its_commented_values():
    source = library_example()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for statement in ast.parse(source).body:
        code = ast.get_source_segment(source, statement)
        _, hash_, comment = lines[statement.end_lineno - 1].partition("#")
        if isinstance(statement, ast.Expr):
            got = eval(code, namespace)
        else:
            exec(code, namespace)
            if not hash_:
                continue
            (target,) = statement.targets
            got = namespace[target.id]
        if hash_:
            # The value is the comment up to any ": " that explains it.
            assert str(got) == comment.strip().partition(": ")[0], code
            checked += 1
    assert checked == 5
