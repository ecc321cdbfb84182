"""Tests for the benchmark's own parts: checker, corpus, tracer and workloads."""

import json
import time
from pathlib import Path

import pytest

import worker

worker.load_program()

import checker  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from johnson_embed import Graph, build_embedding  # noqa: E402
from johnson_embed import embedder, graphs  # noqa: E402

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def decide(n, edges):
    return workloads.decision_doc(build_embedding(Graph(n, edges)))


def first_input(inputs, prefix):
    return next(i for i in inputs if i.name.startswith(prefix))


# ---- checker ----

@pytest.mark.parametrize("make", [
    lambda: corpus.johnson(3, 6), lambda: corpus.hypercube(4), lambda: corpus.cycle(9),
    lambda: corpus.cycle(10), lambda: corpus.path(7), lambda: corpus.complete(5),
    lambda: corpus.product(corpus.johnson(2, 5), corpus.path(4)),
])
def test_family_labels_verify(make):
    n, edges, labels = make()
    assert checker.check_labels(checker.Metric(n, edges), labels, 2) is None


def test_checker_refutes_tampered_label():
    inp = first_input(corpus.families_accept(3), "J(2,8)")
    g = checker.Metric(inp.n, inp.edges)
    doc = decide(inp.n, inp.edges)
    assert checker.check_decision(g, doc) is None
    lab = doc["labels"][5]
    swap_in = next(e for e in range(doc["ground_set_size"]) if e not in lab)
    doc["labels"][5] = sorted(lab[1:] + [swap_in])
    assert "are not at" in checker.check_decision(g, doc)


def test_checker_refutes_moved_witness():
    inp = first_input(corpus.random_reject(3), "Q6+e")
    g = checker.Metric(inp.n, inp.edges)
    doc = decide(inp.n, inp.edges)
    assert doc["kind"] == "NONCONVEX_HALFSPACE"
    assert checker.check_decision(g, doc) is None
    w = doc["witness"]
    half = set(doc["half"])
    inside = next(v for v in sorted(half) if v not in (w["x"], w["y"]))
    assert "inside the half" in checker.check_decision(g, {**doc, "witness": {**w, "z": inside}})
    off = next(z for z in range(g.n) if z not in half
               and g.d(w["x"], z) + g.d(z, w["y"]) != g.d(w["x"], w["y"]))
    assert "not on a shortest" in checker.check_decision(g, {**doc, "witness": {**w, "z": off}})


def test_checker_refutes_altered_component_count():
    inp = first_input(corpus.random_reject(1), "sparse100")
    g = checker.Metric(inp.n, inp.edges)
    doc = decide(inp.n, inp.edges)
    assert doc["kind"] == "TOO_MANY_COMPONENTS"
    assert checker.check_decision(g, doc) is None
    assert checker.check_decision(g, {**doc, "component_count": 2}) is not None
    other = next(e for e in g.edges if len(checker.split(g, *e)[2]) <= 2)
    assert checker.check_decision(g, {**doc, "edge": list(other)}) is not None


def test_checker_refutes_altered_agc_certificate():
    kinds = set()
    for inp in corpus.cli_small(4):
        g = checker.Metric(inp.n, inp.edges)
        doc = decide(inp.n, inp.edges)
        if doc.get("stage") != "AGC":
            continue
        kinds.add(doc["kind"])
        assert checker.check_decision(g, doc) is None
        if doc["kind"] == "DIAMOND":
            u, v, w, x = doc["vertices"]
            altered = {**doc, "vertices": [u, w, v, x]}
        else:
            altered = {**doc, "cycle": doc["cycle"][:-1]}
        assert checker.check_decision(g, altered) is not None
        assert checker.check_decision(g, {**doc, "kind": "CLAW"}) is not None
    assert kinds == {"DIAMOND", "ODD_CYCLE_IN_ROOT"}


def test_bipartite_line_graph_characterisation():
    # C5 is an odd hole; C6 is the line graph of C6; the claw and diamond are forbidden.
    c5 = [{1, 4}, {0, 2}, {1, 3}, {2, 4}, {3, 0}]
    c6 = [{(i - 1) % 6, (i + 1) % 6} for i in range(6)]
    claw = [{1, 2, 3}, {0}, {0}, {0}]
    diamond = [{1, 2, 3}, {0, 2, 3}, {0, 1}, {0, 1}]
    assert not checker.is_bipartite_line_graph(c5, range(5))
    assert checker.is_bipartite_line_graph(c6, range(6))
    assert not checker.is_bipartite_line_graph(claw, range(4))
    assert not checker.is_bipartite_line_graph(diamond, range(4))


# ---- corpus ----

@pytest.mark.parametrize("name", list(corpus.CORPORA))
def test_seed_fixes_fingerprint(name):
    make = corpus.CORPORA[name]
    assert corpus.fingerprint(make(7)) == corpus.fingerprint(make(7))
    assert corpus.fingerprint(make(7)) != corpus.fingerprint(make(8))


# ---- tracer ----

def test_tracer_restores_originals_and_reports_absent(monkeypatch):
    before = (graphs.is_convex, embedder.is_convex, Graph.__init__,
              embedder.build_embedding)
    monkeypatch.setitem(tracer.LAYERS, "graphs", tracer.LAYERS["graphs"] + ("gone",))
    with tracer.Tracer() as t:
        assert graphs.is_convex is not before[0]
        assert embedder.is_convex is graphs.is_convex
        build_embedding(Graph(*corpus.cycle(6)[:2]))
    assert t.absent == ["graphs.gone"]
    assert t.calls["walls.splits"] == 6
    assert (graphs.is_convex, embedder.is_convex, Graph.__init__,
            embedder.build_embedding) == before


def test_self_times_sum_to_operation_time():
    inp = first_input(corpus.families_accept(2), "J(2,8)")
    with tracer.Tracer() as t:
        t0 = time.perf_counter()
        build_embedding(Graph(inp.n, inp.edges))
        elapsed = time.perf_counter() - t0
    total = sum(t.self_s.values())
    assert total <= elapsed
    assert elapsed - total <= 0.05 * elapsed + 0.001


@pytest.mark.parametrize("name", list(corpus.CORPORA))
def test_traced_and_untraced_answers_agree(name, tmp_path):
    setup = workloads.setup(name, 5, tmp_path)
    # A sample of each workload keeps this test short: the lightest
    # families-accept inputs, every twelfth random-reject input, and every
    # CLI call on the first five graphs (a --json call precedes its twin).
    ops = {"families-accept": [op for op in setup.ops if op.label in
                               ("J(2,8)", "Petersen", "K10", "C6xC6", "K4xC5")],
           "random-reject": setup.ops[::12],
           "cli-small": [op for op in setup.ops if op.label.split()[0]
                         in {inp.name for inp in setup.inputs[:5]}]}[name]
    untraced = [op.run() for op in ops]
    with tracer.Tracer() as t:
        traced = []
        for op in ops:
            t.begin_op()
            traced.append(op.run())
    for op, a, b in zip(ops, untraced, traced):
        if name == "cli-small":
            assert a == b, op.label
        else:
            assert workloads.decision_doc(a) == workloads.decision_doc(b), op.label
        assert op.check(a) is None, op.label


# ---- BENCHMARK.json ----

def test_benchmark_json_matches_the_benchmark():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WHY)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = list(tracer.Tracer().metrics(1)) + ["tracing.overhead_share"]
    assert per_layer == {n: run._unit(n) for n in names}


def test_every_public_function_is_traced():
    import importlib
    import inspect

    for mod_name, fns in tracer.LAYERS.items():
        module = importlib.import_module(f"johnson_embed.{mod_name}")
        public = {name for name, value in vars(module).items()
                  if not name.startswith("_") and inspect.isfunction(value)
                  and value.__module__ == module.__name__}
        untraced = {n.split(".")[1] for n in tracer.UNTRACED if n.startswith(mod_name + ".")}
        assert public - untraced == set(fns) - {"Graph"}, mod_name
