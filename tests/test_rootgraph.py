import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from johnson_embed import (
    ConsistencyError,
    Graph,
    bipartite_root,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    rootgraph,
)
from johnson_embed.rootgraph import (
    BipartiteRoot,
    KrauszPartition,
    RootCertificate,
    find_claw_or_diamond,
    krausz_partition,
    _verify_line_graph,
    line_graph,
)

from helpers import find_isomorphism


def test_find_claw():
    # A star with three leaves is the smallest claw.
    g = complete_bipartite_graph(1, 3)
    cert = find_claw_or_diamond(g)
    assert cert.kind == "CLAW"
    center, *leaves = cert.vertices
    assert center == 0
    assert sorted(leaves) == [1, 2, 3]
    for a in leaves:
        assert g.has_edge(center, a)
    for i, a in enumerate(leaves):
        for b in leaves[i + 1:]:
            assert not g.has_edge(a, b)


def test_find_diamond():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    cert = find_claw_or_diamond(g)
    assert cert.kind == "DIAMOND"
    u, v, w, x = cert.vertices
    assert g.has_edge(u, v)
    assert g.has_edge(u, w) and g.has_edge(v, w)
    assert g.has_edge(u, x) and g.has_edge(v, x)
    assert not g.has_edge(w, x)


def test_claw_reported_before_diamond():
    # K_{1,3} plus an edge subdividing nothing: contains both patterns.
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    cert = find_claw_or_diamond(g)
    assert cert.kind == "CLAW"


def test_no_claw_or_diamond_in_line_graphs():
    for g in (cycle_graph(5), cycle_graph(6), complete_graph(3), path_graph(4)):
        assert find_claw_or_diamond(g) is None


def test_krausz_partition_triangle():
    # A triangle is read as the line graph of a three-leaf star.
    g = complete_graph(3)
    part = krausz_partition(g)
    assert part.cliques == ((0, 1, 2),)
    assert part.membership == ((0,), (0,), (0,))


def test_krausz_partition_path():
    g = path_graph(4)
    part = krausz_partition(g)
    assert part.cliques == ((0, 1), (1, 2), (2, 3))
    assert part.membership == ((0,), (0, 1), (1, 2), (2,))


@st.composite
def small_graphs(draw):
    """A graph on at most 10 vertices, possibly disconnected."""
    n = draw(st.integers(0, 10))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, sorted(edges), require_connected=False)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_krausz_partition_is_a_claw_a_diamond_or_a_partition(g):
    # Claw-free and diamond-free leave no vertex in three cliques.
    part = krausz_partition(g)
    if isinstance(part, RootCertificate):
        assert part.kind in ("CLAW", "DIAMOND")
        return
    assert isinstance(part, KrauszPartition)
    clique_edges = [pair for c in part.cliques for pair in combinations(c, 2)]
    assert sorted(clique_edges) == list(g.edges)
    for v, mem in enumerate(part.membership):
        assert len(mem) <= 2
        assert mem == tuple(i for i, c in enumerate(part.cliques) if v in c)


def test_bipartite_root_path():
    # P4 is the line graph of P5.
    root = bipartite_root(path_graph(4))
    assert isinstance(root, BipartiteRoot)
    assert root.root.n == 5
    assert len(root.root.edges) == 4
    assert sorted(root.root.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]
    assert len(root.b_side) == 2
    assert len(root.a_side) == 3
    for _, (b_end, a_end) in enumerate(root.vertex_to_edge):
        assert b_end in root.b_side and a_end in root.a_side
        assert root.root.has_edge(b_end, a_end)


def test_bipartite_root_triangle_is_star():
    root = bipartite_root(complete_graph(3))
    assert isinstance(root, BipartiteRoot)
    assert root.root.n == 4
    assert sorted(root.root.degree(v) for v in range(4)) == [1, 1, 1, 3]
    assert len(root.b_side) == 1
    center = root.b_side[0]
    assert root.root.degree(center) == 3


def test_bipartite_root_odd_cycle_rejected():
    cert = bipartite_root(cycle_graph(5))
    assert isinstance(cert, RootCertificate)
    assert cert.kind == "ODD_CYCLE_IN_ROOT"
    assert len(cert.cycle) % 2 == 1


def test_bipartite_root_claw_rejected():
    cert = bipartite_root(complete_bipartite_graph(1, 3))
    assert isinstance(cert, RootCertificate)
    assert cert.kind == "CLAW"


def test_bipartite_root_edgeless_input():
    # Isolated classes each get a fresh root edge.
    g = Graph(3, [], require_connected=False)
    root = bipartite_root(g)
    assert isinstance(root, BipartiteRoot)
    assert root.root.n == 6
    assert len(root.root.edges) == 3
    assert len(root.b_side) == 3
    assert len(root.a_side) == 3


def test_bipartite_root_empty_input():
    g = Graph(0, [], require_connected=False)
    root = bipartite_root(g)
    assert isinstance(root, BipartiteRoot)
    assert root.root.n == 0
    assert root.vertex_to_edge == ()


def test_bipartite_root_petersen_atom_graph():
    from johnson_embed import atom_graph, check_wc, theta1_classes

    g = petersen_graph()
    d = g.distances()
    sigma = atom_graph(d, theta1_classes(check_wc(g), d, 0))
    root = bipartite_root(sigma)
    assert isinstance(root, BipartiteRoot)
    assert find_isomorphism(root.root, complete_bipartite_graph(3, 3)) is not None
    assert len(root.b_side) == 3


def test_line_graph_round_trip_on_random_bipartite():
    # Sample bipartite graphs, take the line graph, reconstruct a root, and
    # compare line graphs again; the reconstruction must reproduce the input.
    rng = random.Random(7)
    for trial in range(60):
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        edges = [(u, a + v) for u in range(a) for v in range(b)
                 if rng.random() < 0.6]
        if not edges:
            continue
        h = Graph(a + b, edges, require_connected=False)
        lg, _ = line_graph(h)
        result = bipartite_root(lg)
        assert isinstance(result, BipartiteRoot), (trial, edges)
        rebuilt, _ = line_graph(result.root)
        iso = find_isomorphism(lg, rebuilt)
        assert iso is not None, (trial, edges)
        # Degree multisets of the roots agree on non-isolated vertices.
        want = sorted(d for d in (h.degree(v) for v in range(h.n)) if d > 0)
        got = sorted(d for d in (result.root.degree(v)
                                 for v in range(result.root.n)) if d > 0)
        assert want == got, (trial, edges)


def reference_broken_pair(g, raw_edges):
    """First input pair, in lexicographic order, whose adjacency in g differs
    from whether their root edges share an end; None if there is none."""
    for x, y in combinations(range(g.n), 2):
        if bool(set(raw_edges[x]) & set(raw_edges[y])) != g.has_edge(x, y):
            return x, y
    return None


def test_verify_line_graph_names_first_broken_pair():
    # Tamper with the root edges of random bipartite line graphs: the check
    # must name the same pair as the all-pairs reference, or pass with it.
    rng = random.Random(11)
    broke = 0
    for trial in range(200):
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        edges = [(u, a + v) for u in range(a) for v in range(b) if rng.random() < 0.6]
        if not edges:
            continue
        lg, edge_order = line_graph(Graph(a + b, edges, require_connected=False))
        raw = list(edge_order)
        for _ in range(rng.randint(0, 3)):
            x = rng.randrange(len(raw))
            ends = list(raw[x])
            ends[rng.randrange(2)] = rng.randrange(a + b + 2)
            raw[x] = tuple(ends)
        pair = reference_broken_pair(lg, raw)
        if pair is None:
            _verify_line_graph(lg, raw)
            continue
        broke += 1
        with pytest.raises(ConsistencyError) as exc:
            _verify_line_graph(lg, raw)
        assert str(exc.value) == (
            f"root reconstruction broke adjacency of input vertices {pair[0]}, {pair[1]}")
    assert broke > 50


def test_line_graph_shapes():
    lg, order = line_graph(complete_bipartite_graph(3, 3))
    assert lg.n == 9
    assert len(lg.edges) == 18
    assert order == tuple(complete_bipartite_graph(3, 3).edges)
    lg, _ = line_graph(path_graph(5))
    assert lg.n == 4
    assert lg.edges == ((0, 1), (1, 2), (2, 3))


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_graphs(), small_graphs().map(lambda h: line_graph(h)[0])))
def test_neighborhood_cliques_are_the_clique_loops_or_decline_on_a_certificate(g):
    # Line graphs are claw-free, so the second strategy draws many graphs
    # on which the neighborhoods decide.
    cliques = rootgraph._neighborhood_cliques(g)
    assert (cliques is None) == (find_claw_or_diamond(g) is not None)
    if cliques is not None:
        assert sorted(cliques) == reference_cliques(g)


def reference_cliques(g):
    """The clique loop: each edge not yet covered, plus its ends' common
    neighbors, in a graph with no claw or diamond."""
    cliques = []
    covered = set()
    for u, v in g.edges:
        if (u, v) in covered:
            continue
        clique = sorted({u, v} | {w for w in g.neighbors[u] if g.has_edge(w, v)})
        assert all(g.has_edge(*pair) for pair in combinations(clique, 2))
        covered.update(combinations(clique, 2))
        cliques.append(tuple(clique))
    return sorted(cliques)
