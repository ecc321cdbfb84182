import pytest

from johnson_embed import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    families,
    gen_family,
    hypercube_graph,
    johnson_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
)
from helpers import all_rows, find_isomorphism


def test_johnson_graph_shape():
    g = johnson_graph(2, 4)
    assert g.n == 6
    assert len(g.edges) == 12
    assert all(g.degree(v) == 4 for v in range(6))
    g = johnson_graph(1, 5)
    assert find_isomorphism(g, complete_graph(5)) is not None
    g = johnson_graph(2, 5)
    assert g.n == 10
    assert all(g.degree(v) == 6 for v in range(10))


def test_johnson_graph_distance_is_half_symmetric_difference():
    from itertools import combinations

    g = johnson_graph(3, 6)
    subsets = sorted(
        (frozenset(c) for c in combinations(range(6), 3)),
        key=lambda s: sorted(s, reverse=True))
    d = g.distances()
    for i, a in enumerate(subsets):
        for j, b in enumerate(subsets):
            assert d[i][j] == len(a ^ b) // 2


def test_johnson_graph_validates():
    with pytest.raises(ValueError):
        johnson_graph(0, 3)
    with pytest.raises(ValueError):
        johnson_graph(4, 3)


def test_hypercube_graph():
    g = hypercube_graph(3)
    assert g.n == 8
    assert len(g.edges) == 12
    assert all(g.degree(v) == 3 for v in range(8))
    d = g.distances()
    for u in range(8):
        for v in range(8):
            assert d[u][v] == (u ^ v).bit_count()
    assert hypercube_graph(0).n == 1


def test_cycle_path_complete():
    assert cycle_graph(5).edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
    assert path_graph(1).n == 1
    assert len(complete_graph(5).edges) == 10
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        complete_graph(0)


def test_complete_bipartite():
    g = complete_bipartite_graph(2, 3)
    assert g.n == 5
    assert g.edges == ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))
    with pytest.raises(ValueError):
        complete_bipartite_graph(0, 3)


def test_petersen_shape():
    g = petersen_graph()
    assert g.n == 10
    assert len(g.edges) == 15
    assert all(g.degree(v) == 3 for v in range(10))
    d = g.distances()
    assert max(max(row) for row in all_rows(d)) == 2
    # Girth five: no triangles, no squares.
    from johnson_embed.matroid import squares

    assert list(squares(g, induced_only=False)) == []


def test_gen_family_dispatch():
    g = gen_family("cycle", (5,))
    assert g.edges == cycle_graph(5).edges
    assert gen_family("petersen", ()).n == 10
    with pytest.raises(ValueError):
        gen_family("cycle", (5, 6))
    with pytest.raises(ValueError):
        gen_family("nosuch", (1,))


def test_random_connected_graph_deterministic():
    g1 = random_connected_graph(6, 0.5, seed=3)
    g2 = random_connected_graph(6, 0.5, seed=3)
    assert g1.edges == g2.edges
    assert g1.n == 6


def test_random_connected_graph_is_connected():
    for i in range(40):
        g = random_connected_graph(3 + i % 6, 0.4, seed=i)
        d = g.distances()
        assert all(x < g.n for row in all_rows(d) for x in row)


def test_random_connected_graph_validates():
    with pytest.raises(ValueError):
        random_connected_graph(2, 0.0, seed=0)
    with pytest.raises(ValueError):
        random_connected_graph(2, 1.5, seed=0)
    with pytest.raises(ValueError):
        random_connected_graph(0, 0.5, seed=0)


def test_random_connected_graph_exhausts_budget():
    # Probability too small to ever connect five vertices.
    with pytest.raises(ValueError, match="no connected graph"):
        random_connected_graph(5, 1e-12, seed=0)


class _Drawn(Exception):
    pass


def test_random_connected_graph_refuses_too_many_pairs_before_drawing(monkeypatch):
    # 1414 vertices have 998991 pairs and reach the first draw; 1415 have
    # 1000405 and are refused before any.
    def drawn(seed):
        raise _Drawn

    monkeypatch.setattr(families.random, "Random", drawn)
    with pytest.raises(_Drawn):
        random_connected_graph(1414, 0.5, seed=0)
    for n in (1415, 20000, 10**30):
        with pytest.raises(ValueError, match=f"{n} vertices would draw more than "
                                             f"{families.MAX_GEN_SIZE} vertex pairs"):
            random_connected_graph(n, 0.5, seed=0)


@pytest.mark.parametrize("name, params, what", [
    ("hypercube", (40,), "vertices"),
    ("hypercube", (10**15,), "vertices"),
    ("hypercube", (17,), "edges"),
    ("complete", (100000,), "edges"),
    ("complete_bipartite", (2000, 600), "edges"),
    ("cycle", (10**6 + 1,), "vertices"),
    ("johnson", (6, 13), "compared vertex pairs"),
    ("johnson", (500, 1000), "vertices"),
    ("johnson", (10**9, 10**9), "subset elements"),
])
def test_gen_family_refuses_a_member_too_large_to_build(monkeypatch, name, params, what):
    # Refused from the parameters alone: the builder is never called.
    arity, _ = families._FAMILIES[name]
    monkeypatch.setitem(families._FAMILIES, name, (arity, None))
    with pytest.raises(ValueError, match=f"{name}.*more than {families.MAX_GEN_SIZE} {what}"):
        gen_family(name, params)


@pytest.mark.parametrize("name, params, n", [
    ("hypercube", (12,), 4096), ("johnson", (5, 11), 462), ("cycle", (1024,), 1024),
    ("path", (2000,), 2000), ("hypercube", (16,), 65536)])
def test_gen_family_builds_members_under_the_bound(name, params, n):
    assert gen_family(name, params).n == n
