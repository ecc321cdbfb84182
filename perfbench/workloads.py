"""The three workloads: their operations and how each answer is checked.

An operation is one closed-loop call into the program.  `run` is the timed
part; `check` runs afterwards, untimed, and returns None or the reason the
answer is wrong.  Answers already confirmed for the same input are
recognised by their text and not re-derived, since the program is
deterministic and the checker's verdict on a given text cannot change.
"""

from __future__ import annotations

import dataclasses
import importlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable

import checker
import corpus

WHY = {
    "families-accept": "Graph plus build_embedding on family members known to embed: "
                       "the full positive path, where every half of every edge is "
                       "tested for convexity",
    "random-reject": "Graph plus build_embedding on sparse random graphs and one-edge "
                     "edits of Q5, Q6 and J(3,7): rejected at the first edges, so "
                     "distances dominate and the labelling stages are skipped",
    "cli-small": "in-process CLI on graphs of at most 20 vertices, every subcommand "
                 "with and without --json: parsing, rendering, matroid checks and "
                 "the non-fail-fast wallspace scan",
}

# cli-small subcommands: (name, argv before the graph path, argv after it).
CLI_COMMANDS = (
    ("embed", ["embed"], []),
    ("partial-cube", ["partial-cube"], []),
    ("basis-graph", ["basis-graph"], []),
    ("check-wc-all", ["check", "wc"], ["--all"]),
    ("check-agc", ["check", "agc"], []),
    ("check-ic", ["check", "ic"], []),
    ("check-pc", ["check", "pc"], []),
    ("check-lc", ["check", "lc"], []),
    ("atom-graph", ["atom-graph"], []),
)


@dataclasses.dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    decides: bool = False  # one build_embedding per call


@dataclasses.dataclass
class Setup:
    ops: list[Op]
    inputs: list[corpus.Input]


class _LazyMetric:
    """The checker's view of one input, built on first use (after setup)."""

    def __init__(self, inp: corpus.Input):
        self._inp = inp
        self._metric: checker.Metric | None = None

    def get(self) -> checker.Metric:
        if self._metric is None:
            self._metric = checker.Metric(self._inp.n, self._inp.edges)
        return self._metric


def decision_doc(result) -> dict:
    """A build_embedding result as the dict shape of `embed --json`."""
    labels = getattr(result, "labels", None)
    if labels is not None:
        return {"result": "yes", "m": result.m,
                "ground_set_size": result.ground_set_size,
                "labels": [sorted(lab) for lab in labels]}
    doc = {"result": "no", "stage": result.stage, "basepoint": 0}
    if dataclasses.is_dataclass(result.payload):
        doc.update(dataclasses.asdict(result.payload))
    return doc


def _decision_ops(je, inputs: list[corpus.Input], must_accept: bool) -> list[Op]:
    ops = []
    for inp in inputs:
        metric = _LazyMetric(inp)
        confirmed: set[str] = set()

        def run(inp=inp):
            return je.build_embedding(je.Graph(inp.n, inp.edges))

        def check(result, metric=metric, confirmed=confirmed):
            doc = decision_doc(result)
            key = repr(doc)
            if key in confirmed:
                return None
            if must_accept and doc["result"] != "yes":
                return f"a known embeddable graph was rejected at {doc.get('stage')}"
            reason = checker.check_decision(metric.get(), doc)
            if reason is None:
                confirmed.add(key)
            return reason

        ops.append(Op(inp.name, run, check, decides=True))
    return ops


def _expected_code(doc: dict) -> int:
    return 0 if doc.get("result", "pass") in ("yes", "pass") else 1


def _cli_ops(cli, inputs: list[corpus.Input], workdir: Path) -> list[Op]:
    ops = []
    for idx, inp in enumerate(inputs):
        metric = _LazyMetric(inp)
        graph_path = workdir / f"g{idx}.txt"
        graph_path.write_text(corpus.edge_list_text(inp), encoding="utf-8")
        calls = [(name, [*pre, str(graph_path), *post], None)
                 for name, pre, post in CLI_COMMANDS]
        for kind, labels in _label_sets(inp):
            path = workdir / f"g{idx}-{kind}.txt"
            path.write_text("".join(" ".join(map(str, sorted(lab))) + "\n"
                                    for lab in labels), encoding="utf-8")
            calls.append((f"verify-{kind}", ["verify", str(graph_path), str(path)], labels))
        for name, argv, labels in calls:
            twin: dict[str, int] = {}
            confirmed: set[str] = set()
            ops.append(Op(f"{inp.name} {name} --json", _cli_run(cli, argv + ["--json"]),
                          _json_check(metric, name, labels, twin, confirmed)))
            ops.append(Op(f"{inp.name} {name}", _cli_run(cli, argv),
                          _human_check(twin)))
    return ops


def _label_sets(inp: corpus.Input):
    """Valid labels where the family defines them, and a tampered set always."""
    if inp.labels is None:
        # Singletons are isometric only on complete graphs.
        yield "tampered", [frozenset({v}) for v in range(inp.n)]
        return
    yield "valid", list(inp.labels)
    # Two distinct vertices with one label can never be isometric.
    yield "tampered", [inp.labels[1]] + list(inp.labels[1:])


def _cli_run(cli, argv: list[str]):
    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()
    return run


def _json_check(metric, name, labels, twin, confirmed):
    def check(output):
        code, text = output
        if text in confirmed:
            return None if code == twin["code"] else f"exit code {code}"
        try:
            doc = json.loads(text)
        except ValueError:
            return f"output is not JSON (exit code {code})"
        if labels is None:
            reason = checker.check_cli(metric.get(), name, doc)
        else:
            reason = checker.check_verify(metric.get(), labels, doc)
        if reason is None and code != _expected_code(doc):
            reason = f"exit code {code} for result {doc.get('result')!r}"
        if reason is None:
            twin["code"] = code
            confirmed.add(text)
        return reason
    return check


def _human_check(twin):
    def check(output):
        code, text = output
        if "code" not in twin:
            return "its --json twin was not confirmed"
        if code != twin["code"]:
            return f"exit code {code}, the --json run gave {twin['code']}"
        return None if text.strip() else "no output"
    return check


def setup(name: str, seed: int, workdir: Path) -> Setup:
    """Import the program, generate the inputs and build the operations."""
    inputs = corpus.CORPORA[name](seed)
    if name == "cli-small":
        ops = _cli_ops(importlib.import_module("johnson_embed.cli"), inputs, workdir)
    else:
        je = importlib.import_module("johnson_embed")
        ops = _decision_ops(je, inputs, must_accept=name == "families-accept")
    return Setup(ops, inputs)
