import inspect
import sys
import typing
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from johnson_embed import (
    Graph,
    GraphError,
    ParseError,
    cycle_graph,
    complete_graph,
    parse_graph,
    petersen_graph,
)
from johnson_embed import atom, cli, embedder, graphs, matroid, oracle, rootgraph, walls
from johnson_embed.graphs import (
    OCTAHEDRON,
    PYRAMID,
    SQUARE,
    ConvexityWitness,
    DistanceMatrix,
    OddCycleWitness,
    distance_matrix,
    induced_components,
    induced_is_pattern,
    induced_subgraph,
    interval,
    is_bipartite,
    is_convex,
)

from helpers import all_rows, find_isomorphism, two_colorable


def test_graph_normalizes_edges():
    g = Graph(3, [(2, 1), (1, 0)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.neighbors == ((1,), (0, 2), (1,))
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2


def test_has_edge_orders_the_pair_and_checks_both_ends():
    g = Graph(10, [(0, 5), (1, 5), (3, 9)], require_connected=False)
    assert g.has_edge(5, 1) and g.has_edge(9, 3) and g.has_edge(0, 5)
    assert not g.has_edge(5, 5)
    # Pairs whose int key u * n + v is the key of a real edge.
    assert not g.has_edge(0, 15) and not g.has_edge(15, 0)  # (1, 5)
    assert not g.has_edge(2, 19)  # (3, 9)
    assert not g.has_edge(-1, 15) and not g.has_edge(15, -1)  # (0, 5)
    assert not g.has_edge(-1, 5) and not g.has_edge(9, 10) and not g.has_edge(10, 10)


def test_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph(2, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 2)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(0, [])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1)])
    Graph(3, [(0, 1)], require_connected=False)
    Graph(0, [], require_connected=False)


def reference_first_error(n, edges):
    """The message for the first bad edge in input order, or None."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"vertex out of range in edge ({u}, {v})"
        if u == v:
            return f"self-loop at vertex {u}"
        e = (min(u, v), max(u, v))
        if e in seen:
            return f"duplicate edge ({e[0]}, {e[1]})"
        seen.add(e)
    return None


@st.composite
def edge_input(draw):
    """Shuffled, randomly oriented edges, sometimes with bad edges mixed in."""
    n = draw(st.integers(1, 10))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [draw(st.sampled_from([(u, v), (v, u)])) for u, v in chosen]
    bad = st.one_of(
        st.tuples(st.integers(-2, n + 2), st.integers(-2, n + 2)),
        st.sampled_from(edges) if edges else st.nothing(),
    )
    for _ in range(draw(st.integers(0, 2))):
        edges.insert(draw(st.integers(0, len(edges))), draw(bad))
    return n, draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(edge_input())
def test_graph_adjacency_matches_sorted_reference(case):
    n, edges = case
    error = reference_first_error(n, edges)
    if error is not None:
        with pytest.raises(GraphError) as exc:
            Graph(n, edges, require_connected=False)
        assert str(exc.value) == error
        return
    g = Graph(n, edges, require_connected=False)
    norm = sorted((min(u, v), max(u, v)) for u, v in edges)
    assert g.edges == tuple(norm)
    assert g.neighbors == tuple(
        tuple(sorted({v for e in norm if w in e for v in e} - {w})) for w in range(n))
    reached = {0}
    for _ in range(n):
        reached |= {v for e in norm if reached & set(e) for v in e}
    if len(reached) == n:
        assert Graph(n, edges).n == n
    else:
        missing = min(set(range(n)) - reached)
        with pytest.raises(GraphError, match=f"disconnected: vertex {missing} unreachable"):
            Graph(n, edges)


@settings(max_examples=200, deadline=None)
@given(edge_input())
def test_edge_tuple_is_built_on_first_read(case):
    n, edges = case
    assume(reference_first_error(n, edges) is None)
    g = Graph(n, edges, require_connected=False)
    assert repr(g) == f"Graph(n={n}, edges={len(edges)})"
    assert g._edges is None
    # The wall scan's walk over the neighbor lists gives the tuple's order.
    assert tuple(graphs._edges_in_order(g)) == g.edges
    assert g.edges is g.edges


def test_graph_connectivity_error_names_vertex():
    with pytest.raises(GraphError, match="vertex 2"):
        Graph(3, [(0, 1)])


def test_parse_graph_round_trip():
    g = parse_graph("# a comment\n3\n0 1\n1 2\n")
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))
    assert parse_graph(b"1\n").n == 1


def test_parse_graph_drops_only_a_leading_byte_order_mark():
    bom = "\ufeff"
    assert parse_graph((bom + "2\n0 1\n").encode()).edges == ((0, 1),)
    with pytest.raises(ParseError, match="line 2: vertex is not an integer"):
        parse_graph(("2\n" + bom + "0 1\n").encode())
    # A str has been decoded already; a mark in it is a character like any other.
    with pytest.raises(ParseError, match="line 1: vertex count is not an integer"):
        parse_graph(bom + "2\n0 1\n")


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("x\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("3\n0 1\n1 2 3\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("2\n0 1\n0 1\n")
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError):
        parse_graph("# only a comment\n")


@st.composite
def edge_list_text(draw):
    """An edge_input case as edge-list text with comments and blank lines
    mixed in, and the line of each edge."""
    n, edges = draw(edge_input())
    out = []

    def filler():
        for _ in range(draw(st.integers(0, 2))):
            out.append(draw(st.sampled_from(["", "   ", "# comment", "\t# 0 1"])))

    filler()
    out.append(str(n))
    edge_lines = []
    for u, v in edges:
        filler()
        out.append(f"{u} {v}" + draw(st.sampled_from(["", "  # edge", "\t"])))
        edge_lines.append(len(out))
    filler()
    return n, edges, edge_lines, "\n".join(out) + "\n"


@settings(max_examples=300, deadline=None)
@given(edge_list_text())
def test_parse_graph_names_the_line_of_the_first_bad_edge(case):
    n, edges, edge_lines, text = case
    error = reference_first_error(n, edges)
    if len(edges) < n - 1:
        with pytest.raises(ParseError, match=f"need at least {n - 1} edges") as exc:
            parse_graph(text)
        assert exc.value.line is None
    elif error is not None:
        first = next(i for i in range(len(edges))
                     if reference_first_error(n, edges[:i + 1]) is not None)
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert str(exc.value) == f"line {edge_lines[first]}: {error}"
        assert exc.value.line == edge_lines[first]
    else:
        try:
            g = Graph(n, edges)
        except GraphError as disconnected:
            with pytest.raises(ParseError) as exc:
                parse_graph(text)
            assert str(exc.value) == str(disconnected)
            assert exc.value.line is None
        else:
            assert parse_graph(text).edges == g.edges


def test_distance_matrix_small_cases():
    d = distance_matrix(cycle_graph(5))
    assert d[0][0] == 0
    assert d[0][1] == d[0][4] == 1
    assert d[0][2] == d[0][3] == 2
    d = distance_matrix(petersen_graph())
    assert max(max(row) for row in all_rows(d)) == 2


def test_distance_matrix_invariants(corpus):
    for name, g in corpus:
        d = g.distances()
        for u in range(g.n):
            assert d[u][u] == 0, name
            for v in range(g.n):
                assert d[u][v] == d[v][u], name
                if g.has_edge(u, v):
                    assert d[u][v] == 1, name
                for w in range(g.n):
                    assert d[u][w] <= d[u][v] + d[v][w], name


def test_interval():
    d = distance_matrix(cycle_graph(6))
    assert interval(d, 0, 3) == (0, 1, 2, 3, 4, 5)
    assert interval(d, 0, 2) == (0, 1, 2)
    assert interval(d, 0, 0) == (0,)
    d = distance_matrix(cycle_graph(5))
    assert interval(d, 0, 2) == (0, 1, 2)


def test_is_convex():
    d = distance_matrix(cycle_graph(6))
    assert is_convex(d, (0, 1, 2)) is True
    w = is_convex(d, (0, 3))
    assert w == ConvexityWitness(x=0, y=3, z=1)
    assert is_convex(d, ()) is True
    assert is_convex(d, (4,)) is True
    assert is_convex(d, tuple(range(6))) is True


def test_is_convex_returns_lex_smallest_witness():
    d = distance_matrix(cycle_graph(8))
    w = is_convex(d, (0, 2, 4))
    assert w == ConvexityWitness(x=0, y=2, z=1)


def test_induced_components():
    g = cycle_graph(6)
    assert induced_components(g, (0, 1, 3, 4)) == ((0, 1), (3, 4))
    assert induced_components(g, ()) == ()
    assert induced_components(g, (2,)) == ((2,),)
    assert induced_components(g, (0, 2, 4)) == ((0,), (2,), (4,))


def test_is_bipartite_sides():
    col = is_bipartite(cycle_graph(6))
    # Side 0 is (0, 2, 4) and side 1 is (1, 3, 5).
    assert col.colors == (0, 1, 0, 1, 0, 1)


def test_is_bipartite_odd_cycle_witness():
    w = is_bipartite(cycle_graph(5))
    assert isinstance(w, OddCycleWitness)
    assert len(w.cycle) == 5
    g = cycle_graph(5)
    cyc = w.cycle
    for i, u in enumerate(cyc):
        assert g.has_edge(u, cyc[(i + 1) % len(cyc)])
    assert len(set(cyc)) == len(cyc)


def test_is_bipartite_matches_brute_force(full_corpus):
    for name, g in full_corpus:
        result = is_bipartite(g)
        want = two_colorable(g)
        got = not isinstance(result, OddCycleWitness)
        assert got == want, name
        if isinstance(result, OddCycleWitness):
            cyc = result.cycle
            assert len(cyc) % 2 == 1, name
            for i, u in enumerate(cyc):
                assert g.has_edge(u, cyc[(i + 1) % len(cyc)]), name


def test_patterns():
    g = cycle_graph(4)
    assert induced_is_pattern(g, (0, 1, 2, 3), SQUARE)
    g = complete_graph(4)
    assert not induced_is_pattern(g, (0, 1, 2, 3), SQUARE)
    # Square plus an apex adjacent to everything.
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
    assert induced_is_pattern(g, tuple(range(5)), PYRAMID)
    assert not induced_is_pattern(g, tuple(range(5)), SQUARE)
    # Octahedron: complete 6-vertex graph minus a perfect matching.
    edges = [(a, b) for a in range(6) for b in range(a + 1, 6) if b - a != 3]
    g = Graph(6, edges)
    assert induced_is_pattern(g, tuple(range(6)), OCTAHEDRON)


def test_patterns_match_isomorphism_on_every_graph_of_their_size():
    patterns = {SQUARE: cycle_graph(4),
                PYRAMID: Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3),
                                   (0, 4), (1, 4), (2, 4), (3, 4)]),
                OCTAHEDRON: Graph(6, [(a, b) for a, b in combinations(range(6), 2)
                                      if b - a != 3])}
    for name, target in patterns.items():
        pairs = list(combinations(range(target.n), 2))
        hits = 0
        for edges in combinations(pairs, len(target.edges)):
            g = Graph(target.n, edges, require_connected=False)
            want = find_isomorphism(g, target) is not None
            assert induced_is_pattern(g, range(target.n), name) == want, (name, edges)
            hits += want
        assert hits > 0, name
    with pytest.raises(ValueError):
        induced_is_pattern(cycle_graph(4), range(4), "TRIANGLE")


def test_induced_subgraph():
    g = cycle_graph(6)
    h, verts = induced_subgraph(g, (5, 0, 1))
    assert verts == (0, 1, 5)
    assert h.n == 3
    assert h.edges == ((0, 1), (0, 2))
    h, verts = induced_subgraph(g, (0, 3))
    assert h.edges == ()


def test_distances_cached():
    g = cycle_graph(4)
    assert g.distances() is g.distances()


def _takes(fn, cls) -> bool:
    """Whether some parameter of fn is annotated cls, alone or in a union."""
    for p in inspect.signature(fn).parameters.values():
        hint = p.annotation
        if isinstance(hint, str):
            hint = eval(hint, vars(sys.modules[fn.__module__]))
        if hint is cls or cls in typing.get_args(hint):
            return True
    return False


def test_no_function_takes_both_a_graph_and_its_metric():
    # A function reads g.distances() itself or takes the metric d alone, so
    # no caller can pair a graph with another graph's matrix.
    both = []
    checked = 0
    for module in (graphs, walls, atom, rootgraph, embedder, matroid, oracle, cli):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__:
                checked += 1
                if _takes(fn, Graph) and _takes(fn, DistanceMatrix):
                    both.append(f"{module.__name__}.{name}")
    assert checked > 50
    assert both == []
