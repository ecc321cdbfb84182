"""is_convex and the per-half verdict caches against exhaustive references."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from johnson_embed import (
    ConvexityWitness,
    Graph,
    WallSystem,
    WcCertificate,
    check_wc,
    check_wc_all,
    embed_hypercube,
    is_bipartite,
    is_convex,
    random_connected_graph,
    splits,
    w_sets,
)
from johnson_embed import walls
from johnson_embed.embedder import (
    NONCONVEX_HALFSPACE,
    HypercubeCertificate,
    HypercubeEmbedding,
)
from johnson_embed.graphs import OddCycleWitness


def reference_is_convex(d, s):
    """Every member pair against every outside vertex, in lexicographic order."""
    members = sorted(set(s))
    outside = [z for z in range(d.n) if z not in members]
    for x, y in combinations(members, 2):
        for z in outside:
            if d[x][z] + d[z][y] == d[x][y]:
                return ConvexityWitness(x, y, z)
    return True


@st.composite
def graph_and_subset(draw):
    n = draw(st.integers(1, 9))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = list(combinations(range(n), 2))
    extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph(n, sorted(set(tree) | extra))
    d = g.distances()
    kind = draw(st.sampled_from(["any", "half", "ball"]))
    if kind == "half" and g.edges:
        u, v = draw(st.sampled_from(g.edges))
        subset = w_sets(d, u, v)[0]
    elif kind == "ball":
        c = draw(st.integers(0, n - 1))
        r = draw(st.integers(0, 3))
        subset = [x for x in range(n) if d[c][x] <= r]
    else:
        subset = draw(st.sets(st.integers(0, n - 1)))
    return d, subset


@settings(max_examples=400, deadline=None)
@given(graph_and_subset())
def test_is_convex_matches_exhaustive_reference(case):
    d, subset = case
    assert is_convex(d, subset) == reference_is_convex(d, subset)


class _NoCache(dict):
    """A verdict dict that forgets every verdict, so each half is retested."""

    def __setitem__(self, key, value):
        pass


def _reference_walls(g, d):
    return [walls._walls_from_splits(d, splits(g, d, e), _NoCache()) for e in g.edges]


def _reference_system_walls(pairs):
    """The walls of the per-edge pairs, deduplicated in first-appearance order."""
    multiplicity = {}
    for prime, double in pairs:
        k1, k2 = (frozenset({frozenset(w.neg), frozenset(w.pos)}) for w in (prime, double))
        for key, mult in ({k1: 2} if k1 == k2 else {k1: 1, k2: 1}).items():
            multiplicity.setdefault(key, mult)
    return tuple(
        walls.SystemWall(tuple(sorted((tuple(sorted(h)) for h in key),
                                      key=lambda h: 0 not in h)), mult)
        for key, mult in multiplicity.items())


def _reference_hypercube(g, d):
    """The first non-convex edge side in edge order, or None if there is none."""
    for u, v in g.edges:
        w_uv, w_vu, _ = w_sets(d, u, v)
        for half in (w_uv, w_vu):
            verdict = reference_is_convex(d, half)
            if verdict is not True:
                return HypercubeCertificate(
                    NONCONVEX_HALFSPACE, edge=(u, v), half=half, witness=verdict)
    return None


def test_cached_scans_match_uncached_reference(monkeypatch):
    kinds = set()
    for i in range(300):
        g = random_connected_graph(4 + i % 8, (0.2, 0.35, 0.5, 0.7)[i % 4], seed=i)
        d = g.distances()
        wc = check_wc(g, d)
        wc_all = check_wc_all(g, d)
        cube = embed_hypercube(g, d)
        with monkeypatch.context() as m:
            m.setattr(walls, "is_convex", reference_is_convex)
            per_edge = _reference_walls(g, d)
        certs = [r for r in per_edge if isinstance(r, WcCertificate)]
        assert wc_all == certs
        if certs:
            assert wc == certs[0]
            kinds.add(certs[0].kind)
        else:
            assert isinstance(wc, WallSystem)
            assert wc.edge_walls == tuple(splits(g, d, e) for e in g.edges)
            assert wc.walls == _reference_system_walls(per_edge)
            kinds.add("pass")
        if isinstance(is_bipartite(g), OddCycleWitness):
            continue
        expected = _reference_hypercube(g, d)
        if expected is None:
            assert isinstance(cube, HypercubeEmbedding)
            kinds.add("cube")
        else:
            assert cube == expected
            kinds.add("cube-" + expected.kind)
    assert kinds == {"pass", walls.NONCONVEX_HALFSPACE, walls.TOO_MANY_COMPONENTS,
                     "cube", "cube-" + NONCONVEX_HALFSPACE}
