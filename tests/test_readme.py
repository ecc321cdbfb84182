"""The README's Python snippets run, and the values their comments show hold."""

import ast
import inspect
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


def test_readme_lists_exactly_the_root_exports():
    import johnson_embed

    (line,) = [s for s in README.splitlines() if s.startswith("Root exports: ")]
    assert sorted(re.findall(r"`(\w+)`", line)) == sorted(johnson_embed.__all__)
    for name in johnson_embed.__all__:
        getattr(johnson_embed, name)
    # Any other public attribute of the root is one of its submodules.
    extra = set(vars(johnson_embed)) - set(johnson_embed.__all__)
    assert all(inspect.ismodule(getattr(johnson_embed, n)) for n in extra if n[0] != "_")
