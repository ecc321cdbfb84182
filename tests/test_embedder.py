import dataclasses
import json
import random
import sys
from collections import Counter
from itertools import combinations
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from johnson_embed import (
    Embedding,
    Graph,
    RejectionCertificate,
    build_embedding,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    embed_hypercube,
    embedder,
    graphs,
    hypercube_graph,
    johnson_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    run_pipeline,
    verify_embedding,
    walls,
)
from johnson_embed.cli import format_edge_list, main
from johnson_embed.embedder import (
    HypercubeCertificate,
    HypercubeEmbedding,
    IsometryWitness,
    bfs_tree,
)
from johnson_embed.graphs import _bfs_row, distance_matrix
from johnson_embed.matroid import check_ic, check_pc, is_basis_graph

from helpers import cartesian_product, random_tree_plus_edges, wc_graph


def assert_isometric(g, emb):
    d = g.distances()
    assert verify_embedding(d, emb.labels) is True
    for lab in emb.labels:
        assert len(lab) == emb.m
        assert all(0 <= x < emb.ground_set_size for x in lab)


def test_bfs_tree():
    g = cycle_graph(5)
    assert bfs_tree(g, 0) == (None, 0, 1, 4, 0)
    g = petersen_graph()
    parents = bfs_tree(g, 0)
    assert parents[0] is None
    d = g.distances()
    for v in range(1, g.n):
        assert d[0][parents[v]] == d[0][v] - 1
        assert g.has_edge(v, parents[v])
        assert parents[v] == min(w for w in g.neighbors[v]
                                 if d[0][w] == d[0][v] - 1)


def test_embed_cycle5():
    emb = build_embedding(cycle_graph(5))
    assert isinstance(emb, Embedding)
    assert emb.m == 2 and emb.ground_set_size == 5
    assert [sorted(l) for l in emb.labels] == [
        [0, 1], [1, 3], [2, 3], [2, 4], [0, 4]]
    assert_isometric(cycle_graph(5), emb)


def test_embed_complete4():
    emb = build_embedding(complete_graph(4))
    assert emb.m == 1 and emb.ground_set_size == 4
    assert [sorted(l) for l in emb.labels] == [[0], [1], [2], [3]]


def test_embed_edge():
    emb = build_embedding(path_graph(2))
    assert emb.m == 1 and emb.ground_set_size == 2
    assert [sorted(l) for l in emb.labels] == [[0], [1]]


def test_embed_single_vertex():
    emb = build_embedding(path_graph(1))
    assert emb.m == 0 and emb.ground_set_size == 0
    assert emb.labels == (frozenset(),)


def test_embed_cycles():
    for k, m, gs in [(4, 2, 4), (6, 3, 6), (7, 3, 7), (8, 4, 8)]:
        emb = build_embedding(cycle_graph(k))
        assert isinstance(emb, Embedding), k
        assert (emb.m, emb.ground_set_size) == (m, gs), k
        assert_isometric(cycle_graph(k), emb)


def test_embed_petersen_every_basepoint():
    g = petersen_graph()
    for b in range(g.n):
        emb = build_embedding(g, b)
        assert isinstance(emb, Embedding), b
        assert emb.m == 3 and emb.ground_set_size == 6, b
        assert emb.basepoint == b
        assert emb.labels[b] == frozenset(range(3))
        assert_isometric(g, emb)


def test_reject_complete_bipartite_2_3():
    result = build_embedding(complete_bipartite_graph(2, 3))
    assert isinstance(result, RejectionCertificate)
    assert result.stage == "WC"
    assert result.payload.kind == "NONCONVEX_HALFSPACE"


def test_embed_johnson_graphs_fixed_point():
    for m, n in [(1, 3), (1, 4), (2, 4), (2, 5), (3, 6)]:
        g = johnson_graph(m, n)
        emb = build_embedding(g)
        assert isinstance(emb, Embedding), (m, n)
        assert emb.m == m and emb.ground_set_size == n, (m, n)
        assert_isometric(g, emb)


def test_basepoint_does_not_change_the_decision(corpus_decisions):
    for name, g, result in corpus_decisions:
        if g.n > 8 and name != "petersen":
            continue
        accepted = isinstance(result, Embedding)
        for b in range(g.n):
            r = build_embedding(g, b)
            assert isinstance(r, Embedding) == accepted, (name, b)
            if isinstance(r, Embedding):
                assert_isometric(g, r)


def test_run_pipeline_exposes_stages():
    run = run_pipeline(cycle_graph(5))
    assert run.wall_system is not None
    assert run.sigma.n == 4
    assert run.root.root.n == 5
    assert isinstance(run.result, Embedding)

    run = run_pipeline(complete_bipartite_graph(2, 3))
    assert run.result.stage == "WC"
    assert run.sigma is None
    assert isinstance(run.result, RejectionCertificate)


def test_run_pipeline_validates_basepoint():
    with pytest.raises(ValueError):
        run_pipeline(cycle_graph(5), 5)
    with pytest.raises(ValueError):
        run_pipeline(cycle_graph(5), -1)


def test_label_pairs_follow_tree_edges():
    g = petersen_graph()
    emb = run_pipeline(g).result
    assert isinstance(emb, Embedding)
    parents = bfs_tree(g, 0)
    for v in range(1, g.n):
        u = parents[v]
        dropped = emb.labels[u] - emb.labels[v]
        added = emb.labels[v] - emb.labels[u]
        assert len(dropped) == 1 and len(added) == 1
        assert max(dropped) < emb.m <= max(added)


def assert_every_vertical_edge_swaps_its_pair(g, b):
    """On acceptance, each vertical edge (t, h) of class lam takes labels[t]
    to labels[h] by the swap pairs[lam]: the tree the labels were
    propagated along does not matter."""
    run = run_pipeline(g, b)
    assert getattr(run.result, "stage", None) != "INTERNAL", (b, run.result)
    if not isinstance(run.result, Embedding):
        return
    labels = run.result.labels
    for lam, members in enumerate(run.classes.classes):
        i, j = run.assignment.pairs[lam]
        for t, h in members:
            assert labels[h] == labels[t] - {i} | {j}, (b, t, h)


def test_labels_do_not_depend_on_the_tree(corpus):
    for _, g in corpus:
        for b in range(g.n):
            assert_every_vertical_edge_swaps_its_pair(g, b)


@settings(max_examples=200, deadline=None)
@given(wc_graph(max_n=10))
def test_labels_do_not_depend_on_the_tree_on_random_graphs(case):
    g, _ = case
    for b in range(g.n):
        assert_every_vertical_edge_swaps_its_pair(g, b)


def test_verify_embedding_detects_bad_labels():
    g = cycle_graph(4)
    d = g.distances()
    labels = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}),
              frozenset({1, 3})]
    w = verify_embedding(d, labels)
    assert isinstance(w, IsometryWitness)
    assert (w.x, w.y) == (1, 3)
    assert (w.sym_diff, w.expected) == (2, 4)


def test_verify_embedding_validates_shape():
    g = cycle_graph(4)
    d = g.distances()
    with pytest.raises(ValueError):
        verify_embedding(d, [frozenset({0})])
    with pytest.raises(ValueError):
        verify_embedding(d, [frozenset({0, 1}), frozenset({1}),
                             frozenset({2, 3}), frozenset({0, 3})])


def reference_verify(d, labels):
    """Every pair of frozensets in lexicographic order."""
    sets = [frozenset(lab) for lab in labels]
    if len(sets) != d.n:
        raise ValueError("label count")
    if len({len(s) for s in sets}) > 1:
        raise ValueError("label sizes")
    for x, y in combinations(range(d.n), 2):
        diff = len(sets[x] ^ sets[y])
        if diff != 2 * d[x][y]:
            return IsometryWitness(x, y, diff, 2 * d[x][y])
    return True


_EMBEDDED = [(g, build_embedding(g)) for g in (
    johnson_graph(2, 5), johnson_graph(3, 6), hypercube_graph(3), cycle_graph(6),
    cycle_graph(7), path_graph(5), petersen_graph())]


@st.composite
def labels_with_tampering(draw):
    g, emb = draw(st.sampled_from(_EMBEDDED))
    spare = emb.ground_set_size
    labels = [set(lab) for lab in emb.labels]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(labels) - 1))
        kind = draw(st.sampled_from(["replace", "copy", "grow", "drop"]))
        if kind == "replace":
            labels[i].discard(draw(st.sampled_from(sorted(labels[i]))))
            labels[i].add(draw(st.integers(0, spare + 2)))
        elif kind == "copy":
            labels[i] = set(labels[draw(st.integers(0, len(labels) - 1))])
        elif kind == "grow":
            labels[i].add(spare + draw(st.integers(0, 2)))
        else:
            del labels[i]
    # Any hashable universe: rename the elements by a random permutation.
    names = draw(st.permutations(range(spare + 3)))
    return g.distances(), [[("e", names[x]) for x in lab] for lab in labels]


def _outcome(verify, d, labels):
    try:
        return verify(d, labels)
    except ValueError:
        return ValueError


@settings(max_examples=400, deadline=None)
@given(labels_with_tampering())
def test_verify_embedding_matches_frozenset_reference(case):
    d, labels = case
    assert _outcome(verify_embedding, d, labels) == _outcome(reference_verify, d, labels)


def test_embed_hypercube_path3():
    result = embed_hypercube(path_graph(3))
    assert isinstance(result, HypercubeEmbedding)
    assert result.dimension == 2
    assert [sorted(l) for l in result.labels] == [[], [0], [0, 1]]


def test_embed_hypercube_round_trip():
    for dim in range(1, 5):
        g = hypercube_graph(dim)
        result = embed_hypercube(g)
        assert isinstance(result, HypercubeEmbedding), dim
        assert result.dimension == dim
        d = g.distances()
        for u in range(g.n):
            for v in range(g.n):
                assert len(result.labels[u] ^ result.labels[v]) == d[u][v]


def test_embed_hypercube_odd_cycle():
    result = embed_hypercube(cycle_graph(5))
    assert isinstance(result, HypercubeCertificate)
    assert result.kind == "NOT_BIPARTITE"
    assert len(result.odd_cycle) % 2 == 1
    g = cycle_graph(5)
    cyc = result.odd_cycle
    for i, u in enumerate(cyc):
        assert g.has_edge(u, cyc[(i + 1) % len(cyc)])


def test_embed_hypercube_nonconvex_side():
    result = embed_hypercube(complete_bipartite_graph(2, 3))
    assert isinstance(result, HypercubeCertificate)
    assert result.kind == "NONCONVEX_HALFSPACE"
    assert result.edge == (0, 2)
    w = result.witness
    g = complete_bipartite_graph(2, 3)
    d = g.distances()
    assert w.z not in result.half
    assert w.x in result.half and w.y in result.half
    assert d[w.x][w.z] + d[w.z][w.y] == d[w.x][w.y]


def test_embed_hypercube_trees_and_even_cycles():
    for g in (path_graph(6), cycle_graph(8), complete_bipartite_graph(1, 4)):
        result = embed_hypercube(g)
        assert isinstance(result, HypercubeEmbedding)
        d = g.distances()
        for u in range(g.n):
            for v in range(g.n):
                assert len(result.labels[u] ^ result.labels[v]) == d[u][v]


def test_random_trees_embed_with_one_class_per_edge():
    rng = random.Random(11)
    for t in range(50):
        n = rng.randint(2, 10)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        g = Graph(n, edges)
        emb = build_embedding(g)
        assert isinstance(emb, Embedding), (t, edges)
        # Every tree edge is a distinct cut, so every edge is its own class.
        assert emb.m == n - 1, (t, edges)
        assert emb.ground_set_size == 2 * (n - 1), (t, edges)
        cube = embed_hypercube(g)
        assert isinstance(cube, HypercubeEmbedding), (t, edges)
        assert cube.dimension == n - 1, (t, edges)
        assert verify_embedding(g.distances(), emb.labels) is True


def test_pipeline_agrees_with_hypercube_on_bipartite(corpus_decisions):
    from johnson_embed.graphs import OddCycleWitness, is_bipartite

    for name, g, result in corpus_decisions:
        if isinstance(is_bipartite(g), OddCycleWitness):
            continue
        cube = embed_hypercube(g)
        if isinstance(result, Embedding):
            assert isinstance(cube, HypercubeEmbedding), name
            assert result.m == cube.dimension, name
            assert result.ground_set_size == 2 * result.m or result.m == 0, name
        else:
            assert isinstance(cube, HypercubeCertificate), name


def _distinct_splits(g):
    """Unoriented splits, one per pair of strict sides, from a memo-free reference."""
    d = distance_matrix(g)
    return len({tuple(sorted(walls.w_sets(d, u, v)[:2])) for u, v in g.edges})


def _count_calls(monkeypatch, fns):
    """Count calls to each of fns through every binding in johnson_embed."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for fn in fns:
        wrapper = counted(fn.__name__, fn)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("johnson_embed"):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_build_embedding_computes_each_distinct_split_once(monkeypatch):
    # The wallspace scan splits every edge once; edges that share a split
    # (a Θ class) share one w_sets and one induced_components call, and the
    # Θ classes reuse the scan's splits.
    graphs = {"J(3,6)": johnson_graph(3, 6), "Petersen": petersen_graph()}
    distinct = {name: _distinct_splits(g) for name, g in graphs.items()}
    assert distinct == {"J(3,6)": 15, "Petersen": 15}
    calls = _count_calls(monkeypatch, (walls.splits, walls.w_sets, walls.induced_components))
    for name, g in graphs.items():
        calls.clear()
        assert isinstance(build_embedding(g), Embedding)
        assert calls == {"splits": len(g.edges), "w_sets": distinct[name],
                         "induced_components": distinct[name]}, name


def _record_complete_is_convex(monkeypatch):
    """Record (result, row test entered) for each is_convex call the wall
    scan makes on a complete matrix.

    The row test is entered when is_convex builds its itemgetters over the
    cut edges, which the witness search also needs.
    """
    original = walls.is_convex
    getters = []
    complete = []

    def recorded(d, s):
        was_complete = len(d) == d.n
        before = len(getters)
        result = original(d, s)
        if was_complete:
            complete.append((result, len(getters) > before))
        return result

    def itemgetter_recorded(*items):
        getters.append(items)
        return itemgetter(*items)

    monkeypatch.setattr(walls, "is_convex", recorded)
    monkeypatch.setattr("johnson_embed.graphs.itemgetter", itemgetter_recorded)
    return complete


def test_build_embedding_decides_complete_matrix_halves_from_packed_rows(monkeypatch):
    # Once every row exists is_convex decides each half from the packed
    # rows; only a half that leaks goes on to the row test and the witness
    # search.  An accepted graph has no such half.
    graphs = {"J(3,6)": johnson_graph(3, 6), "Petersen": petersen_graph(),
              "K4xC5": cartesian_product(complete_graph(4), cycle_graph(5))}
    complete = _record_complete_is_convex(monkeypatch)
    for name, g in graphs.items():
        complete.clear()
        assert isinstance(build_embedding(g), Embedding)
        assert complete, name
        assert set(complete) == {(True, False)}, name


@pytest.mark.parametrize("make, m, ground_set, bipartite", [
    (lambda: cycle_graph(300), 150, 300, True),
    (lambda: cycle_graph(301), 150, 301, False),
    (lambda: path_graph(257), 256, 512, True),
], ids=["C300", "C301", "P257"])
def test_build_embedding_at_two_byte_digits(monkeypatch, make, m, ground_set, bipartite):
    # Past 256 vertices each packed digit takes two bytes, so the split keys,
    # the Θ class test, is_convex's packed test and the Θ classes all read
    # two-byte digits.  The Θ class test decides every split of a bipartite
    # graph; only the odd cycle's halves reach is_convex on a complete matrix.
    g = make()
    assert g.distances().width == 2
    complete = _record_complete_is_convex(monkeypatch)
    emb = build_embedding(g)
    assert isinstance(emb, Embedding)
    assert (emb.m, emb.ground_set_size) == (m, ground_set)
    assert_isometric(g, emb)
    assert (len(complete) > 0) != bipartite


def test_embed_hypercube_at_two_byte_digits():
    g = hypercube_graph(9)
    assert g.distances().width == 2
    result = embed_hypercube(g)
    assert isinstance(result, HypercubeEmbedding)
    assert result.dimension == 9
    assert len(set(map(frozenset, result.labels))) == g.n
    assert all(len(result.labels[u] ^ result.labels[v]) == 1 for u, v in g.edges)


def test_bipartite_embedding_decides_every_split_by_its_class(monkeypatch):
    # Every split of a bipartite graph has no equidistant vertex, and on a
    # partial cube every crossing edge shares it, so the Θ class test decides
    # each split and no half goes through is_convex.
    rng = random.Random(7)
    tree = Graph(30, [(rng.randrange(v), v) for v in range(1, 30)])
    graphs = {"Q4": hypercube_graph(4),
              "C6xC6": cartesian_product(cycle_graph(6), cycle_graph(6)),
              "tree": tree}
    distinct = {name: _distinct_splits(g) for name, g in graphs.items()}
    assert distinct == {"Q4": 4, "C6xC6": 6, "tree": 29}
    calls = _count_calls(monkeypatch, (walls.splits, walls.w_sets,
                                       walls.induced_components, walls.is_convex))
    for name, g in graphs.items():
        calls.clear()
        assert isinstance(build_embedding(g), Embedding)
        assert calls == {"splits": len(g.edges), "w_sets": distinct[name],
                         "induced_components": distinct[name]}, name


def test_graph_functions_read_the_graphs_own_matrix(monkeypatch):
    # An accepting run reads every row of Q3's one matrix, so a function
    # that takes the graph afterwards builds neither a matrix nor a row.
    g = hypercube_graph(3)
    assert isinstance(run_pipeline(g).result, Embedding)
    calls = _count_calls(monkeypatch, (distance_matrix, _bfs_row))
    for fn in (walls.check_wc, walls.check_wc_all, check_ic, check_pc,
               is_basis_graph, embed_hypercube):
        fn(g)
        assert calls == {}, fn.__name__


def _tampered(labels, kind, i, j):
    """labels with label i replaced by a fresh label of its size, or copied from j."""
    out = list(labels)
    if kind == "replace":
        out[i] = frozenset(range(10**6, 10**6 + len(labels[i])))
    elif kind == "copy":
        out[i] = out[j]
    return out


@pytest.mark.parametrize("make", [lambda: cycle_graph(300), lambda: path_graph(257)],
                         ids=["C300", "P257"])
@pytest.mark.parametrize("kind, i, j", [("given", 0, 0), ("replace", 7, 0),
                                        ("replace", 256, 0), ("copy", 3, 200),
                                        ("copy", 255, 254)])
def test_verify_embedding_at_two_byte_digits_matches_reference(make, kind, i, j):
    # Past 256 vertices each intersection-row digit takes two bytes, and
    # C300's m = 150 and P257's m = 256 fit only there.
    g = make()
    d = g.distances()
    assert d.width == 2
    labels = _tampered(build_embedding(g).labels, kind, i, j)
    verdict = verify_embedding(d, labels)
    assert verdict == reference_verify(d, labels)
    assert (verdict is True) == (kind == "given")
    assert embedder._rows_match(d, embedder._bitmasks(labels)) == (kind == "given")


@pytest.mark.parametrize("kind", ["given", "replace", "copy"])
def test_labels_too_large_for_a_digit_take_the_pairwise_path(kind):
    # 300 elements per label exceed a one-byte digit on 10 vertices, so the
    # intersection rows decide nothing and the pairwise check answers.
    g = cycle_graph(10)
    d = g.distances()
    assert d.width == 1
    shared = frozenset(range(100, 395))
    labels = [lab | shared for lab in build_embedding(g).labels]
    assert {len(lab) for lab in labels} == {300}
    assert embedder._rows_match(d, embedder._bitmasks(labels)) is False
    labels = _tampered(labels, kind, 4, 6)
    verdict = verify_embedding(d, labels)
    assert verdict == reference_verify(d, labels)
    assert (verdict is True) == (kind == "given")


def test_wrong_labelling_inside_the_pipeline_gets_the_pairwise_witness(monkeypatch):
    # Redirect one class's root edge to another class's a-end: every tree
    # edge still swaps one element, but two leaves of the star end up too
    # close, which the verifier reports as an INTERNAL witness.
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    original_root = embedder.bipartite_root

    def misdirected(sigma):
        root = original_root(sigma)
        pairs = list(root.vertex_to_edge)
        pairs[2] = (pairs[2][0], pairs[0][1])
        return dataclasses.replace(root, vertex_to_edge=tuple(pairs))

    checked = []
    original_verify = embedder._verify_masks

    def recorded(d, masks):
        checked.append(list(masks))
        return original_verify(d, masks)

    monkeypatch.setattr(embedder, "bipartite_root", misdirected)
    monkeypatch.setattr(embedder, "_verify_masks", recorded)
    run = run_pipeline(g)
    assert run.result.stage == "INTERNAL"
    assert run.result.payload.reason == "constructed labeling failed isometry verification"
    [masks] = checked
    d = g.distances()
    assert embedder._rows_match(d, masks) is False
    x, y, diff = embedder._first_mismatch(d, masks)
    assert run.result.payload.data == (x, y, diff, 2 * d[x][y])


def _reverse_first_root_edge(monkeypatch):
    """Make the pipeline's root give class 0 its pair reversed, a-end first,
    and record every _verify_masks call."""
    original_root = embedder.bipartite_root

    def reversed_first(sigma):
        root = original_root(sigma)
        pairs = list(root.vertex_to_edge)
        pairs[0] = pairs[0][::-1]
        return dataclasses.replace(root, vertex_to_edge=tuple(pairs))

    verified = []
    original_verify = embedder._verify_masks

    def recorded(d, masks):
        verified.append(masks)
        return original_verify(d, masks)

    monkeypatch.setattr(embedder, "bipartite_root", reversed_first)
    monkeypatch.setattr(embedder, "_verify_masks", recorded)
    return verified


@pytest.mark.parametrize("make, data", [
    (lambda: cycle_graph(5), (0, 1, 0, 3, 0, (0, 1))),
    (petersen_graph, (0, 5, 0, 3, 0, (0, 1, 2))),
    (lambda: johnson_graph(2, 5), (0, 1, 0, 2, 0, (0, 1))),
], ids=["C5", "Petersen", "J(2,5)"])
def test_pair_that_does_not_apply_stops_at_its_first_tree_edge(monkeypatch, make, data):
    # Class 0's reversed pair drops an element the parent label lacks, so the
    # walk stops at the first tree edge of class 0, before any verification.
    g = make()
    labels = build_embedding(g).labels
    verified = _reverse_first_root_edge(monkeypatch)
    run = run_pipeline(g)
    assert run.result.stage == "INTERNAL"
    witness = run.result.payload
    assert witness.reason == "class label pair does not apply to the parent label"
    assert witness.data == data
    u, v, lam, i, j, parent_label = data
    assert (lam, (i, j)) == (0, run.assignment.pairs[0])
    parent = [-1] * g.n
    order = graphs._bfs(g.neighbors, 0, parent)
    first = next(w for w in order[1:] if (parent[w], w) in run.classes.classes[0])
    assert (u, v) == (parent[first], first)
    assert parent_label == tuple(sorted(labels[u]))
    assert verified == []
    assert build_embedding(g) == run.result


def test_pair_that_does_not_apply_is_an_error_in_the_cli(monkeypatch, tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text(format_edge_list(cycle_graph(5)), encoding="utf-8")
    _reverse_first_root_edge(monkeypatch)
    assert main(["embed", str(path), "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert (doc["result"], doc["stage"]) == ("error", "INTERNAL")
    assert doc["data"] == [0, 1, 0, 3, 0, [0, 1]]


# Random graphs that the AGC stage rejects, by a diamond and by an odd cycle.
AGC_REJECTED = [random_connected_graph(8, 0.6, seed=57),
                random_connected_graph(8, 0.5, seed=4)]


def assert_run_holds_one_decision(g, b):
    """run.result is the stored decision build_embedding returns, and the
    stages after the one that rejected left no output."""
    run = run_pipeline(g, b)
    assert run.result is run.result
    assert run.result == build_embedding(g, b)
    stages = (run.wall_system, run.classes, run.sigma, run.root, run.assignment)
    stage = getattr(run.result, "stage", None)
    if stage == "WC":
        assert stages == (None,) * 5
    elif stage == "AGC":
        assert None not in stages[:3] and stages[3:] == (None, None)
    else:
        assert None not in stages
    return stage


def test_run_holds_one_decision(corpus):
    stages = {assert_run_holds_one_decision(g, b)
              for g in [h for _, h in corpus] + AGC_REJECTED for b in range(g.n)}
    assert stages == {None, "WC", "AGC"}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.sampled_from([0.2, 0.4, 0.6]), st.integers(0, 2**32 - 1))
def test_run_holds_one_decision_on_random_graphs(n, p, seed):
    g = random_tree_plus_edges(n, p, seed)
    for b in range(g.n):
        assert_run_holds_one_decision(g, b)


@pytest.mark.parametrize("labels", [[(), ()], [(0,), (0,)], [(0, 1), (1, 0)]],
                         ids=["empty", "equal", "equal-reordered"])
def test_equal_labels_on_an_edge_are_a_witness(labels):
    # Labels of an edge's ends must differ in two elements; equal ones, even
    # empty, fail at that tree edge.
    d = path_graph(2).distances()
    assert verify_embedding(d, labels) == IsometryWitness(0, 1, 0, 2)
