"""Slow reference implementations used only to cross-check test expectations,
a random connected graph builder for Hypothesis strategies, a strategy for
graphs that pass the wallspace condition, and a reader of every row of a
distance matrix."""

import random
from itertools import combinations
from math import comb

from hypothesis import assume, strategies as st

from johnson_embed import (
    Graph,
    WcCertificate,
    check_wc,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    johnson_graph,
    path_graph,
    random_connected_graph,
)
from johnson_embed.atom import ThetaClasses
from johnson_embed.graphs import (
    OCTAHEDRON,
    PYRAMID,
    SQUARE,
    _bfs,
    induced_is_pattern,
)
from johnson_embed.matroid import ConditionReport, IcWitness, PcWitness, squares
from johnson_embed.oracle import OracleResult
from johnson_embed.walls import splits

from conftest import named_corpus


def all_rows(d) -> tuple[tuple[int, ...], ...]:
    """Every row of distance matrix d in vertex order, computing those not
    read yet."""
    return tuple(d[u] for u in range(d.n))


def reference_vertical_edges(g: Graph, b: int) -> tuple[tuple[int, int], ...]:
    """Each edge of g.edges whose ends differ in depth from b, tail nearer b,
    then sorted."""
    db = g.distances()[b]
    oriented = []
    for u, v in g.edges:
        if db[u] < db[v]:
            oriented.append((u, v))
        elif db[v] < db[u]:
            oriented.append((v, u))
    return tuple(sorted(oriented))


def reference_theta1_classes(g: Graph, b: int) -> ThetaClasses:
    """The vertical edges of b grouped by the strict sides splits gives them,
    each class sorted and the classes sorted."""
    groups: dict = {}
    for t, h in reference_vertical_edges(g, b):
        ew = splits(g, (t, h))
        groups.setdefault((ew.w_uv, ew.w_vu), []).append((t, h))
    return ThetaClasses(b, tuple(sorted(tuple(sorted(m)) for m in groups.values())))


# Factors of at most 6 vertices, so a product with K2 has at most 12.
K2_FACTORS = [path_graph(2), path_graph(3), cycle_graph(4), cycle_graph(5),
              cycle_graph(6), complete_graph(3), complete_graph(4),
              hypercube_graph(2), johnson_graph(2, 4)]


@st.composite
def wc_graph(draw, max_n=12):
    """A connected graph of at most max_n vertices that passes the wallspace
    condition, with its WallSystem: random, a named-corpus member, or a
    product with K2, whose classes have several edges."""
    kind = draw(st.sampled_from(["random", "family", "product"]))
    if kind == "random":
        n, p = draw(st.integers(1, max_n)), draw(st.sampled_from([0.2, 0.3, 0.5, 0.7]))
        g = random_connected_graph(n, p, seed=draw(st.integers(0, 2**32 - 1)))
    elif kind == "family":
        g = draw(st.sampled_from([h for _, h in named_corpus() if h.n <= max_n]))
    else:
        factors = [h for h in K2_FACTORS if 2 * h.n <= max_n]
        g = cartesian_product(path_graph(2), draw(st.sampled_from(factors)))
    ws = check_wc(g)
    assume(not isinstance(ws, WcCertificate))
    return g, ws


def find_isomorphism(g: Graph, h: Graph) -> list[int] | None:
    """Backtracking search for a vertex bijection g -> h preserving adjacency.

    Fine for the graph sizes in this suite (at most 10 or so vertices).
    """
    if g.n != h.n or len(g.edges) != len(h.edges):
        return None
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return None
    mapping: list[int | None] = [None] * g.n
    used = [False] * h.n

    def extend(v: int) -> bool:
        if v == g.n:
            return True
        for target in range(h.n):
            if used[target] or g.degree(v) != h.degree(target):
                continue
            ok = True
            for u in range(v):
                if g.has_edge(u, v) != h.has_edge(mapping[u], target):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = target
            used[target] = True
            if extend(v + 1):
                return True
            mapping[v] = None
            used[target] = False
        return False

    if extend(0):
        return [m for m in mapping]
    return None


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """The Cartesian product g □ h: vertex (x, y) is x + y * g.n."""
    n = g.n
    edges = [(u + y * n, v + y * n) for u, v in g.edges for y in range(h.n)]
    edges += [(x + y * n, x + z * n) for y, z in h.edges for x in range(n)]
    return Graph(n * h.n, edges)


def two_colorable(g: Graph) -> bool:
    """Brute-force 2-colorability over all assignments, for small graphs only."""
    assert g.n <= 20
    for bits in range(1 << g.n):
        if all((bits >> u) & 1 != (bits >> v) & 1 for u, v in g.edges):
            return True
    return False


def random_tree_plus_edges(n: int, p: float, seed: int) -> Graph:
    """A random connected graph on n vertices: a random spanning tree, each
    vertex in a shuffled order joined to a random earlier one, plus every
    other vertex pair independently with probability p.

    Rejection sampling (`random_connected_graph`) can run out of attempts on
    sparse draws such as n = 15 at p = 0.1, where a connected draw is rare;
    this builder always succeeds.
    """
    rng = random.Random(seed)
    order = rng.sample(range(n), n)
    tree = {tuple(sorted((order[rng.randrange(i)], order[i]))) for i in range(1, n)}
    extra = {e for e in combinations(range(n), 2) if e not in tree and rng.random() < p}
    return Graph(n, sorted(tree | extra))


def reference_brute_force_embed(g: Graph, m: int, n: int) -> OracleResult:
    """The oracle's search over every one of the C(n, m) masks at each vertex.

    oracle.brute_force_embed tries only single swaps of the BFS parent's
    label, which are the masks that pass here, in the same order; so both
    give the same labels and node counts.  Needs 1 <= m <= n/2.
    """
    if comb(n, m) < g.n:
        return OracleResult(False, m, n, None, 0)
    d = g.distances()
    order = _bfs(g.neighbors, 0, [-1] * g.n)
    base = (1 << m) - 1
    placed: list[tuple[int, int]] = [(order[0], base)]
    if g.n >= 2:
        t = d[order[0]][order[1]]
        if t > m or t > n - m:
            return OracleResult(False, m, n, None, 0)
        low = ((1 << (m - t)) - 1)
        second = low | (((1 << t) - 1) << m)
        placed.append((order[1], second))
    masks = [sum(1 << b for b in c) for c in combinations(range(n), m)]
    nodes = len(placed)

    def place(idx: int) -> bool:
        nonlocal nodes
        if idx == g.n:
            return True
        v = order[idx]
        dv = d[v]
        for x in masks:
            if any((x ^ wm).bit_count() != dv[w] << 1 for w, wm in placed):
                continue
            placed.append((v, x))
            nodes += 1
            if place(idx + 1):
                return True
            placed.pop()
        return False

    if not place(len(placed)):
        return OracleResult(False, m, n, None, nodes)
    by_vertex = dict(placed)
    labels = tuple(tuple(b for b in range(n) if by_vertex[v] >> b & 1)
                   for v in range(g.n))
    return OracleResult(True, m, n, labels, nodes)


def reference_check_ic(g: Graph) -> ConditionReport:
    """The interval condition over every vertex pair: each pair at distance 2
    has its interval read from the two distance rows, as the interval
    d(u, x) + d(x, v) = d(u, v) over all n vertices."""
    d = g.distances()
    by_size = {4: SQUARE, 5: PYRAMID, 6: OCTAHEDRON}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if d[u][v] != 2:
                continue
            du, dv = d[u], d[v]
            iv = tuple(x for x in range(g.n) if du[x] + dv[x] == 2)
            pattern = by_size.get(len(iv))
            if pattern is None or not induced_is_pattern(g, iv, pattern):
                return ConditionReport("IC", False, IcWitness(u, v, iv))
    return ConditionReport("IC", True)


def reference_check_pc(g: Graph, *, induced_only: bool = True) -> ConditionReport:
    """The positioning condition compared vertex by vertex: the first square,
    then the first basepoint b, with d(b, u1) + d(b, u3) != d(b, u2) + d(b, u4)."""
    d = g.distances()
    for sq in squares(g, induced_only=induced_only):
        r1, r2, r3, r4 = (d[u] for u in sq)
        for b in range(g.n):
            if r1[b] + r3[b] != r2[b] + r4[b]:
                return ConditionReport("PC", False, PcWitness(b, sq))
    return ConditionReport("PC", True)
