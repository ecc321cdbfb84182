"""is_convex and the per-half verdict caches against exhaustive references."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from johnson_embed import (
    Graph,
    WcCertificate,
    check_wc,
    cycle_graph,
    embed_hypercube,
    random_connected_graph,
)
from johnson_embed import walls
from johnson_embed.embedder import (
    NONCONVEX_HALFSPACE,
    HypercubeCertificate,
    HypercubeEmbedding,
)
from johnson_embed.graphs import (
    ConvexityWitness,
    OddCycleWitness,
    induced_components,
    distance_matrix,
    is_bipartite,
    is_convex,
)
from johnson_embed.walls import WallSystem, check_wc_all, splits, w_sets

from helpers import all_rows, random_tree_plus_edges


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


@st.composite
def graph_and_halves(draw):
    """A random connected graph and the halves one of its edges can give."""
    n = draw(st.integers(2, 30))
    p = draw(st.sampled_from([0.1, 0.15, 0.2, 0.3, 0.5]))
    g = random_tree_plus_edges(n, p, seed=draw(st.integers(0, 10**6)))
    u, v = draw(st.sampled_from(g.edges))
    d = g.distances()
    w_uv, w_vu, w_eq = w_sets(d, u, v)
    halves = [w_uv, w_vu]
    for comp in induced_components(g, w_eq):
        halves += [tuple(sorted(w_uv + comp)), tuple(sorted(w_vu + comp))]
    return d, halves


@settings(max_examples=300, deadline=None)
@given(graph_and_halves())
def test_is_convex_on_edge_halves_matches_exhaustive_reference(case):
    d, halves = case
    for half in halves:
        assert is_convex(d, half) == reference_is_convex(d, half)


class _Asked(dict):
    """A verdict dict that records every half looked up in it."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def get(self, half, default=None):
        self.asked.append(half)
        return super().get(half, default)


@st.composite
def complete_matrix_and_sets(draw):
    """A connected graph with every row built, the halves the per-edge check
    meets and random vertex subsets."""
    n = draw(st.integers(1, 12))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = list(combinations(range(n), 2))
    extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph(n, sorted(set(tree) | extra))
    d = g.distances()
    all_rows(d)
    asked = _Asked()
    for edge in g.edges:
        walls._walls_from_splits(d, splits(g, edge), asked)
    subsets = draw(st.lists(st.sets(st.integers(0, n - 1)), max_size=8))
    return g, asked.asked + [tuple(sorted(s)) for s in subsets]


def assert_packed_verdicts_match_fresh_matrix(g, sets):
    """On g's complete matrix, is_convex gives each set the verdict and
    witness it gives on a fresh matrix of g, which still lacks rows."""
    d = g.distances()
    assert len(d) == d.n
    for s in sets:
        fresh = distance_matrix(g)
        assert len(fresh) < fresh.n or g.n == 1
        assert is_convex(d, s) == is_convex(fresh, s), s


@settings(max_examples=300, deadline=None)
@given(complete_matrix_and_sets())
def test_complete_matrix_verdicts_match_fresh_matrix(case):
    assert_packed_verdicts_match_fresh_matrix(*case)


def test_complete_matrix_verdicts_with_two_byte_digits():
    # C300's distances need two-byte digits.  An arc of fewer than 150
    # vertices is convex, a longer one or two disjoint arcs are not.
    g = cycle_graph(300)
    d = g.distances()
    all_rows(d)
    assert d.width == 2
    sets = [range(10, 150), range(10, 170), [*range(0, 20), *range(100, 120)],
            range(299), [7], []]
    verdicts = [is_convex(d, s) is True for s in sets]
    assert verdicts == [True, False, False, False, True, True]
    assert_packed_verdicts_match_fresh_matrix(g, sets)


def test_convex_arc_reads_only_its_boundary_rows():
    # Vertices 5..15 of C40 form a convex arc whose boundary members are its
    # two ends; the graph's own row 0 exists before the test.
    d = cycle_graph(40).distances()
    assert set(d) == {0}
    assert is_convex(d, range(5, 16)) is True
    assert set(d) == {0, 5, 15}


class _NoCache(dict):
    """A verdict dict that forgets every verdict, so each half is retested."""

    def __setitem__(self, key, value):
        pass


def _reference_walls(g, d):
    return [walls._walls_from_splits(d, splits(g, e), _NoCache()) for e in g.edges]


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
        wc = check_wc(g)
        wc_all = check_wc_all(g)
        cube = embed_hypercube(g)
        with monkeypatch.context() as m:
            m.setattr(walls, "is_convex", reference_is_convex)
            per_edge = _reference_walls(g, d)
        certs = [r for r in per_edge if isinstance(r, WcCertificate)]
        assert wc_all == certs
        if certs:
            assert wc == certs[0]
            kinds.add(certs[0].kind)
        else:
            # The system is its walls and nothing else.
            assert wc == WallSystem(_reference_system_walls(per_edge))
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
