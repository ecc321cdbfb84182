"""Golden CLI output: one sha256 per graph over every subcommand's bytes.

For each graph of the named corpus and the first 60 random graphs, the
digest covers (argv, exit code, stdout) of embed (plain and --walls), check
wc (plain and --all), check agc/ic/pc/lc, atom-graph, verify (the pipeline's
labels when it accepts, singleton labels always), basis-graph and
partial-cube, each with and without --json.  gen and oracle are left out.

Regenerate golden_cli.json after an intended output change with
`PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from johnson_embed import Embedding, build_embedding
from johnson_embed.cli import format_edge_list, main

from conftest import named_corpus, random_corpus

GOLDEN = Path(__file__).with_name("golden_cli.json")

COMMANDS = (
    ["embed", "g.txt"],
    ["embed", "g.txt", "--walls"],
    ["check", "wc", "g.txt"],
    ["check", "wc", "g.txt", "--all"],
    ["check", "agc", "g.txt"],
    ["check", "ic", "g.txt"],
    ["check", "pc", "g.txt"],
    ["check", "lc", "g.txt"],
    ["atom-graph", "g.txt"],
    ["basis-graph", "g.txt"],
    ["partial-cube", "g.txt"],
)


def _label_files(g):
    result = build_embedding(g)
    if isinstance(result, Embedding):
        yield "valid.txt", result.labels
    yield "singletons.txt", [frozenset({v}) for v in range(g.n)]


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return [argv, code, out.getvalue()]


def graph_digest(g) -> str:
    """sha256 of every CLI call on g; expects to run in an empty directory."""
    Path("g.txt").write_text(format_edge_list(g), encoding="utf-8")
    calls = [list(argv) for argv in COMMANDS]
    for name, labels in _label_files(g):
        Path(name).write_text("".join(" ".join(map(str, sorted(lab))) + "\n"
                                      for lab in labels), encoding="utf-8")
        calls.append(["verify", "g.txt", name])
    records = []
    for argv in calls:
        records.append(_run(argv))
        records.append(_run(argv + ["--json"]))
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def corpus_digests() -> dict[str, str]:
    return {name: graph_digest(g) for name, g in named_corpus() + random_corpus(60)}


def test_cli_bytes_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = corpus_digests()
    assert list(got) == list(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"CLI output changed on: {', '.join(changed)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            digests = corpus_digests()
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
