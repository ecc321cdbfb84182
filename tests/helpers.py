"""Slow reference implementations used only to cross-check test expectations,
a random connected graph builder for Hypothesis strategies, and a reader of
every row of a distance matrix."""

import random
from itertools import combinations

from johnson_embed import Graph


def all_rows(d) -> tuple[tuple[int, ...], ...]:
    """Every row of distance matrix d in vertex order, computing those not
    read yet."""
    return tuple(d[u] for u in range(d.n))


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
