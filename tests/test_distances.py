"""Distance rows computed on first read, against a reference BFS."""

import random
import sys
from collections import deque
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from johnson_embed import (
    Graph,
    GraphError,
    RejectionCertificate,
    build_embedding,
    cycle_graph,
    path_graph,
)
from johnson_embed import graphs
from johnson_embed.graphs import distance_matrix, induced_components
from johnson_embed.walls import TOO_MANY_COMPONENTS, EdgeWalls, splits

from helpers import all_rows

# The benchmark's seeded corpus, its independent checker and the helper that
# turns an answer into the checker's document; none imports the program.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checker  # noqa: E402
import corpus  # noqa: E402
import workloads  # noqa: E402


def reference_rows(g):
    """All-pairs distances by one queue-based BFS per vertex."""
    rows = []
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.neighbors[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(tuple(dist))
    return tuple(rows)


def test_first_edge_rejection_reads_only_its_rows():
    # K_{1,1,3} with apexes 0 and 1, and a 40-vertex path hung off apex 0.
    # Edge (0, 1) has the three other vertices of K_{1,1,3} as isolated
    # equidistant components, so the scan stops at the first edge.
    edges = [(0, 1)] + [(a, v) for a in (0, 1) for v in (2, 3, 4)]
    edges += [(0, 5)] + [(v, v + 1) for v in range(5, 44)]
    g = Graph(45, edges)
    result = build_embedding(g)
    assert isinstance(result, RejectionCertificate)
    assert result.payload.kind == TOO_MANY_COMPONENTS
    assert result.payload.edge == (0, 1)
    assert len(g.distances()) == 2
    # The scan took its first edge from the neighbor lists.
    assert g._edges is None


def test_connectivity_check_row_becomes_row_0(monkeypatch):
    runs = []
    bfs_row = graphs._bfs_row
    monkeypatch.setattr(graphs, "_bfs_row", lambda nb, s: runs.append(s) or bfs_row(nb, s))
    g = Graph(5, [(3, 4), (0, 1), (1, 2), (2, 3)])
    # Construction builds the matrix with its row 0, and nothing more.
    assert runs == [0]
    d = g.distances()
    assert set(d) == {0}
    assert runs == [0]
    assert d[0] == (0, 1, 2, 3, 4)
    d[4]
    assert runs == [0, 4]


def test_one_distance_matrix_per_decision(monkeypatch):
    # The benchmark's traced runs fail any decision, Graph plus
    # build_embedding, that does not call graphs.distance_matrix exactly
    # once; a Graph that built its matrix from the class directly would
    # call it never.
    built = []
    distance_matrix = graphs.distance_matrix
    monkeypatch.setattr(graphs, "distance_matrix",
                        lambda g: built.append(g) or distance_matrix(g))
    inputs = corpus.families_accept(1)[::3] + corpus.random_reject(1)[::40]
    for inp in inputs:
        built.clear()
        g = Graph(inp.n, inp.edges)
        build_embedding(g)
        assert built == [g], inp.name


def test_random_reject_decisions_read_few_rows():
    # Seeds 1-3 of the benchmark's random-reject corpus: 360 graphs of 32 to
    # 250 vertices each, 47,121 rows on seed 1 if every row were read.  The
    # bounds are the rows read today; reading the packed row of a crossing
    # edge's end before knowing it has an outside neighbour reads more.
    for seed, most in [(1, 2938), (2, 3464), (3, 2941)]:
        rows = 0
        for inp in corpus.random_reject(seed):
            g = Graph(inp.n, inp.edges)
            assert isinstance(build_embedding(g), RejectionCertificate), inp.name
            rows += len(g.distances())
            assert g._edges is None, inp.name
        assert rows <= most, seed


def _decode(packed, n, width):
    data = packed.to_bytes(n * width, "little")
    return tuple(int.from_bytes(data[i:i + width], "little") for i in range(0, n * width, width))


@pytest.mark.parametrize("make, width", [
    # The largest distance of P256, 255, is the largest one byte holds.
    (lambda: path_graph(256), 1),
    (lambda: path_graph(257), 2),
    (lambda: cycle_graph(300), 2),
    (lambda: Graph(*corpus.sparse_connected(random.Random(1), 300)[:2]), 2),
], ids=["P256", "P257", "C300", "sparse300"])
def test_packed_rows_around_the_width_switch(make, width):
    g = make()
    want = reference_rows(g)
    d = g.distances()
    assert d.width == width
    # Reading a packed row builds that row and no other.
    last = g.n - 1
    assert _decode(d.packed(last), g.n, width) == want[last]
    assert set(d) == {0, last}
    assert set(d._packed) == {last}
    for u in range(g.n):
        assert _decode(d.packed(u), g.n, width) == want[u]
    # Every edge's split against a memo-free one from the tuple rows.
    for u, v in g.edges:
        du, dv = want[u], want[v]
        w_eq = tuple(x for x in range(g.n) if du[x] == dv[x])
        assert splits(g, (u, v)) == EdgeWalls(
            (u, v), tuple(x for x in range(g.n) if du[x] < dv[x]),
            tuple(x for x in range(g.n) if dv[x] < du[x]), induced_components(g, w_eq))
    fresh = Graph(g.n, g.edges)
    doc = workloads.decision_doc(build_embedding(fresh))
    assert checker.check_decision(checker.Metric(g.n, g.edges), doc) is None


@st.composite
def graph_and_reads(draw):
    n = draw(st.integers(1, 12))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = list(combinations(range(n), 2))
    extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph(n, sorted(set(tree) | extra))
    return g, draw(st.lists(st.integers(0, n - 1)))


@settings(max_examples=300, deadline=None)
@given(graph_and_reads())
def test_rows_read_in_any_order_match_reference(case):
    g, reads = case
    want = reference_rows(g)
    d = distance_matrix(g)
    for u in reads:
        assert d[u] == want[u]
    assert len(d) == len({0, *reads})
    assert d.n == g.n
    assert all_rows(d) == want
    assert len(d) == g.n


def test_disconnected_graph_fails_in_distance_matrix():
    # The matrix's row 0 decides connectivity, with the constructor's message.
    g = Graph(4, [(0, 1), (2, 3)], require_connected=False)
    with pytest.raises(GraphError, match="vertex 2 unreachable from 0"):
        distance_matrix(g)
    with pytest.raises(GraphError, match="vertex 2 unreachable from 0"):
        g.distances()
    empty = distance_matrix(Graph(0, [], require_connected=False))
    assert len(empty) == 0
    assert all_rows(empty) == ()


def test_rows_outside_the_vertices_raise_index_error():
    d = distance_matrix(Graph(3, [(0, 1), (1, 2)]))
    for u in (3, -1):
        with pytest.raises(IndexError):
            d[u]
    assert d[2] == (2, 1, 0)
