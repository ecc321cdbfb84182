import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from johnson_embed import (
    Embedding,
    HypercubeCertificate,
    HypercubeEmbedding,
    IsometryWitness,
    RejectionCertificate,
    bfs_tree,
    build_embedding,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    embed_hypercube,
    hypercube_graph,
    johnson_graph,
    path_graph,
    petersen_graph,
    run_pipeline,
    verify_embedding,
    walls,
)


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
    assert run.wc_certificate is None
    assert run.wall_system is not None
    assert run.sigma.n == 4
    assert run.root.root.n == 5
    assert run.internal is None
    assert isinstance(run.result, Embedding)

    run = run_pipeline(complete_bipartite_graph(2, 3))
    assert run.wc_certificate is not None
    assert run.sigma is None
    assert isinstance(run.result, RejectionCertificate)


def test_run_pipeline_validates_basepoint():
    with pytest.raises(ValueError):
        run_pipeline(cycle_graph(5), 5)
    with pytest.raises(ValueError):
        run_pipeline(cycle_graph(5), -1)


def test_label_pairs_follow_tree_edges():
    g = petersen_graph()
    run = run_pipeline(g)
    emb = run.embedding
    parents = bfs_tree(g, 0)
    for v in range(1, g.n):
        u = parents[v]
        dropped = emb.labels[u] - emb.labels[v]
        added = emb.labels[v] - emb.labels[u]
        assert len(dropped) == 1 and len(added) == 1
        assert max(dropped) < emb.m <= max(added)


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
    import random

    from johnson_embed import Graph

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
    from johnson_embed import OddCycleWitness, is_bipartite

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


def test_build_embedding_splits_each_edge_once(monkeypatch):
    # The wallspace scan splits every edge; the Θ classes reuse its splits.
    original = walls.w_sets
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("johnson_embed"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    for g in (johnson_graph(3, 6), petersen_graph()):
        calls.clear()
        assert isinstance(build_embedding(g), Embedding)
        assert len(calls) == len(g.edges)
