"""The README's Python snippets run, and the values their comments show hold."""

import ast
import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SNIPPETS = re.findall(r"```python\n(.*?)```", README, re.S)


def test_readme_has_two_snippets():
    assert len(SNIPPETS) == 2


@pytest.mark.parametrize("snippet", SNIPPETS, ids=["build_embedding", "wall_system"])
def test_readme_snippet_values(snippet):
    # A bare expression with a comment pins its repr; any other line runs.
    env: dict = {}
    pinned = 0
    for line in snippet.splitlines():
        code, _, comment = line.partition("#")
        body = ast.parse(code).body
        if comment and len(body) == 1 and isinstance(body[0], ast.Expr):
            assert repr(eval(code, env)) == comment.strip(), line
            pinned += 1
        else:
            exec(code, env)
    assert pinned
