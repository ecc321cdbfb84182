import pytest
from hypothesis import given, settings, strategies as st

from johnson_embed import (
    Graph,
    WcCertificate,
    check_wc,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    petersen_graph,
)
from johnson_embed.graphs import (
    ConvexityWitness,
    distance_matrix,
    induced_components,
    is_convex,
)
from johnson_embed import walls
from johnson_embed.walls import (
    DOUBLE_PRIME,
    PRIME,
    EdgeWalls,
    WallSystem,
    check_wc_all,
    check_wc_edge,
    splits,
    w_sets,
)

from helpers import cartesian_product, random_tree_plus_edges


def test_w_sets_cycle5():
    g = cycle_graph(5)
    d = g.distances()
    w_uv, w_vu, w_eq = w_sets(d, 0, 1)
    assert w_uv == (0, 4)
    assert w_vu == (1, 2)
    assert w_eq == (3,)


def test_w_sets_partition(corpus):
    for name, g in corpus:
        d = g.distances()
        for u, v in g.edges:
            w_uv, w_vu, w_eq = w_sets(d, u, v)
            combined = sorted(w_uv + w_vu + w_eq)
            assert combined == list(range(g.n)), name
            assert u in w_uv and v in w_vu, name


def test_splits_cycle5():
    g = cycle_graph(5)
    ew = splits(g, (0, 1))
    assert ew.w_uv == (0, 4)
    assert ew.w_vu == (1, 2)
    assert ew.eq_components == ((3,),)


def test_splits_complete4():
    g = complete_graph(4)
    ew = splits(g, (0, 1))
    assert ew.w_uv == (0,)
    assert ew.w_vu == (1,)
    assert ew.eq_components == ((2, 3),)


def test_splits_rejects_non_edge():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        splits(g, (0, 2))
    # Packed-row digits place a vertex only for adjacent ends.
    with pytest.raises(ValueError):
        w_sets(g.distances(), 0, 2)


def test_check_wc_edge_cycle5():
    g = cycle_graph(5)
    walls = check_wc_edge(g, (0, 1))
    assert isinstance(walls, tuple)
    prime, double = walls
    assert prime.variant == PRIME
    assert prime.neg == (0, 3, 4)
    assert prime.pos == (1, 2)
    assert double.variant == DOUBLE_PRIME
    assert double.neg == (0, 4)
    assert double.pos == (1, 2, 3)


def test_check_wc_edge_nonconvex():
    g = complete_bipartite_graph(2, 3)
    cert = check_wc_edge(g, (0, 2))
    assert isinstance(cert, WcCertificate)
    assert cert.kind == "NONCONVEX_HALFSPACE"
    assert cert.edge == (0, 2)
    assert cert.variant == PRIME
    assert cert.witness == ConvexityWitness(x=3, y=4, z=1)


def test_check_wc_fail_fast_picks_lex_first_edge():
    g = complete_bipartite_graph(2, 3)
    cert = check_wc(g)
    assert isinstance(cert, WcCertificate)
    assert cert.edge == (0, 2)


def test_check_wc_all_collects_every_edge():
    g = complete_bipartite_graph(2, 3)
    certs = check_wc_all(g)
    assert len(certs) == 6
    assert [c.edge for c in certs] == list(g.edges)
    g = cycle_graph(6)
    assert check_wc_all(g) == []


def test_wall_system_cycle4():
    g = cycle_graph(4)
    ws = check_wc(g)
    assert isinstance(ws, WallSystem)
    assert [(w.halves, w.multiplicity) for w in ws.walls] == [
        (((0, 3), (1, 2)), 2),
        (((0, 1), (2, 3)), 2),
    ]


def test_wall_system_petersen():
    g = petersen_graph()
    d = g.distances()
    ws = check_wc(g)
    assert len(ws.walls) == 6
    assert all(w.multiplicity == 1 for w in ws.walls)
    for u, v in g.edges:
        ew = splits(g, (u, v))
        assert len(ew.eq_components) == 2
        assert all(len(c) == 2 for c in ew.eq_components)
    # Each wall splits the ten vertices into two convex 5-cycles.
    for w in ws.walls:
        for half in w.halves:
            assert len(half) == 5
            assert is_convex(d, half) is True
            assert all(sum(1 for x in half if g.has_edge(v, x)) == 2 for v in half)


def test_every_edge_separated_with_total_multiplicity_two(corpus_decisions):
    from johnson_embed import Embedding

    for name, g, result in corpus_decisions:
        if not isinstance(result, Embedding):
            continue
        ws = check_wc(g)
        for u, v in g.edges:
            total = sum(w.multiplicity for w in ws.walls if w.separates(u, v))
            assert total == 2, (name, (u, v))


def test_wall_halves_convex_and_partition(corpus):
    for name, g in corpus:
        d = g.distances()
        result = check_wc(g)
        if isinstance(result, WcCertificate):
            continue
        for w in result.walls:
            neg, pos = w.halves
            assert sorted(neg + pos) == list(range(g.n)), name
            assert 0 in neg, name
            assert is_convex(d, neg) is True, name
            assert is_convex(d, pos) is True, name


def test_separation_counts_distance(corpus):
    # On graph families known to embed, wall crossings recover the metric.
    for name, g in corpus:
        if not (name.startswith("johnson") or name.startswith("hypercube")
                or name.startswith("cycle") or name.startswith("path")
                or name == "petersen"):
            continue
        d = g.distances()
        result = check_wc(g)
        if isinstance(result, WcCertificate):
            continue
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert result.separation(u, v) == 2 * d[u][v], (name, u, v)


def test_path_walls():
    g = path_graph(4)
    ws = check_wc(g)
    assert [(w.halves, w.multiplicity) for w in ws.walls] == [
        (((0,), (1, 2, 3)), 2),
        (((0, 1), (2, 3)), 2),
        (((0, 1, 2), (3,)), 2),
    ]


def test_complete_graph_walls():
    # K4 realizes m=1 over a 4-element ground set: one singleton wall per
    # element, and each pair of vertices is separated by exactly two of them.
    g = complete_graph(4)
    ws = check_wc(g)
    assert len(ws.walls) == 4
    assert all(w.multiplicity == 1 for w in ws.walls)
    singles = sorted(w.halves[0] if len(w.halves[0]) == 1 else w.halves[1]
                     for w in ws.walls)
    assert singles == [(0,), (1,), (2,), (3,)]


@st.composite
def edges_in_random_order(draw):
    """A random connected graph (sometimes times K2, so that splits repeat)
    and its edges in a random order, each in a random orientation."""
    n = draw(st.integers(2, 15))
    p = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5]))
    g = random_tree_plus_edges(n, p, seed=draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        g = cartesian_product(g, path_graph(2))
    edges = draw(st.permutations(g.edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return g, [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]


def _decode_balanced(key, n, base):
    """The n digits of key in base `base` with digits -1, 0 and 1, lowest first."""
    digits = []
    for _ in range(n):
        key, r = divmod(key, base)
        if r == base - 1:
            r, key = -1, key + 1
        assert r in (-1, 0, 1)
        digits.append(r)
    assert key == 0
    return tuple(digits)


@settings(max_examples=200, deadline=None)
@given(edges_in_random_order())
def test_splits_memo_matches_reference_and_shares_tuples(case):
    g, oriented = case
    d = g.distances()
    ref_d = distance_matrix(g)
    first = {}
    for u, v in oriented:
        ew = splits(g, (u, v))
        w_uv, w_vu, w_eq = w_sets(ref_d, u, v)
        assert ew == EdgeWalls((u, v), w_uv, w_vu, induced_components(g, w_eq))
        key = (w_uv, w_vu) if w_uv < w_vu else (w_vu, w_uv)
        earlier = first.setdefault(key, ew)
        if earlier is not ew:
            # A repeated split reuses the first edge's tuples, swapped when
            # this edge runs the other way.
            same_way = earlier.w_uv == w_uv
            assert ew.w_uv is (earlier.w_uv if same_way else earlier.w_vu)
            assert ew.w_vu is (earlier.w_vu if same_way else earlier.w_uv)
            assert ew.eq_components is earlier.eq_components
    # One key per unoriented split: the int abs(P[u] - P[v]) of each of its
    # edges.  Decoded as base-256**width digits in {-1, 0, 1}, it is the
    # tuple signature ref_d[t] - ref_d[h] of the orientation with P[t] > P[h],
    # and the memo entry's sides are the vertices with digit -1 and +1.
    keys = {}
    for u, v in oriented:
        key = abs(d.packed(u) - d.packed(v))
        assert key > 0
        t, h = (u, v) if d.packed(u) > d.packed(v) else (v, u)
        signature = tuple(a - b for a, b in zip(ref_d[t], ref_d[h]))
        assert keys.setdefault(key, signature) == signature
        assert _decode_balanced(key, g.n, 256 ** d.width) == signature
        w_th, w_ht, _ = d._splits[key]
        assert w_th == tuple(x for x, s in enumerate(signature) if s < 0)
        assert w_ht == tuple(x for x, s in enumerate(signature) if s > 0)
    assert set(d._splits) == set(keys)
    # No two keys decode to one split, in either orientation.
    signatures = set(keys.values())
    assert len(signatures) == len(keys)
    for signature in signatures:
        assert tuple(-s for s in signature) not in signatures
    # The Θ class test only reads the memo.
    ews = [splits(g, edge) for edge in oriented]
    memo = dict(d._splits)
    for ew in ews:
        if not ew.eq_components:
            walls._class_passes(d, ew)
    assert d._splits == memo


@st.composite
def bipartite_factor(draw):
    """A random tree, even cycle or hypercube, or a random tree with extra
    edges between its two colour classes (bipartite, mostly not a partial cube)."""
    kind = draw(st.sampled_from(["tree", "cycle", "cube", "tree+"]))
    if kind == "cycle":
        return cycle_graph(2 * draw(st.integers(2, 6)))
    if kind == "cube":
        return hypercube_graph(draw(st.integers(1, 3)))
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if kind == "tree+":
        depth = [0] * n
        for u, v in sorted(edges, key=lambda e: e[1]):
            depth[v] = depth[u] + 1
        across = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (depth[u] + depth[v]) % 2]
        if across:
            edges |= set(draw(st.lists(st.sampled_from(across), max_size=4)))
    return Graph(n, sorted(edges))


@st.composite
def class_test_graphs(draw):
    """A bipartite graph (a factor, or the product of two), flagged True, or a
    random connected graph, flagged False."""
    kind = draw(st.sampled_from(["bipartite", "product", "random"]))
    if kind == "random":
        n = draw(st.integers(2, 15))
        p = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5]))
        return random_tree_plus_edges(n, p, seed=draw(st.integers(0, 10**6))), False
    g = draw(bipartite_factor())
    if kind == "product":
        g = cartesian_product(g, draw(bipartite_factor().filter(lambda h: h.n <= 8)))
    return g, True


@settings(max_examples=200, deadline=None)
@given(class_test_graphs())
def test_class_test_decides_splits_with_no_equidistant_vertex(case):
    g, bipartite = case
    d = g.distances()
    for edge in g.edges:
        ew = splits(g, edge)
        if ew.eq_components:
            continue
        passes = walls._class_passes(d, ew)
        convex = is_convex(d, ew.w_uv) is True and is_convex(d, ew.w_vu) is True
        if passes:
            assert convex, edge
        if bipartite:
            # Convex sides force every crossing edge's split.
            assert passes == convex, edge
    # A first scan leaves a second scan over the used matrix d intact: both
    # equal a scan of a fresh copy of g, with a fresh matrix.
    first = check_wc(g)
    assert check_wc(g) == first == check_wc(Graph(g.n, g.edges))
    assert check_wc_all(g) == check_wc_all(Graph(g.n, g.edges))
