"""Named graph families and a reproducible random connected graph.

Canonical vertex numberings: Johnson vertices are the m-subsets of
0..n-1 in colexicographic order; hypercube vertices are bitmask integers;
cycles and paths are numbered along the walk; complete bipartite parts are
0..a-1 and a..a+b-1; the Kneser graph on 2-subsets of a 5-set (colex order,
edges between disjoint pairs) realizes the Petersen graph.
"""

from __future__ import annotations

import random
from itertools import combinations

from .graphs import Graph, GraphError


def johnson_graph(m: int, n: int) -> Graph:
    """Johnson graph: m-subsets of 0..n-1, adjacent iff they share m-1 elements."""
    if not 1 <= m <= n:
        raise ValueError(f"johnson requires 1 <= m <= n, got ({m}, {n})")
    verts = _colex_subsets(n, m)
    edges = [
        (i, j)
        for i, j in combinations(range(len(verts)), 2)
        if len(verts[i] & verts[j]) == m - 1
    ]
    return Graph(len(verts), edges)


def _colex_subsets(n: int, m: int) -> list[frozenset[int]]:
    combos = sorted(combinations(range(n), m), key=lambda c: c[::-1])
    return [frozenset(c) for c in combos]


def hypercube_graph(dim: int) -> Graph:
    """Hypercube: bitmask vertices 0..2^dim - 1, adjacent iff one bit apart."""
    if dim < 0:
        raise ValueError(f"hypercube requires dim >= 0, got {dim}")
    edges = [
        (x, x | (1 << b))
        for x in range(1 << dim)
        for b in range(dim)
        if not x & (1 << b)
    ]
    return Graph(1 << dim, edges)


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError(f"cycle requires k >= 3, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> Graph:
    if k < 1:
        raise ValueError(f"path requires k >= 1, got {k}")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def complete_graph(c: int) -> Graph:
    if c < 1:
        raise ValueError(f"complete requires c >= 1, got {c}")
    return Graph(c, list(combinations(range(c), 2)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"complete_bipartite requires both parts >= 1, got ({a}, {b})")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph() -> Graph:
    pairs = _colex_subsets(5, 2)
    edges = [
        (i, j)
        for i, j in combinations(range(10), 2)
        if not pairs[i] & pairs[j]
    ]
    return Graph(10, edges)


_FAMILIES: dict[str, tuple[int, object]] = {
    "johnson": (2, johnson_graph),
    "hypercube": (1, hypercube_graph),
    "cycle": (1, cycle_graph),
    "path": (1, path_graph),
    "complete": (1, complete_graph),
    "complete_bipartite": (2, complete_bipartite_graph),
    "petersen": (0, petersen_graph),
}


def gen_family(name: str, params) -> Graph:
    """Build a named family member; unknown names or bad arity raise ValueError."""
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown family {name!r} (known: {known})")
    arity, builder = _FAMILIES[name]
    params = tuple(params)
    if len(params) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


# Draws random_connected_graph makes before it gives up.
_MAX_ATTEMPTS = 1000


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Reproducible random connected graph.

    Draws each of the n(n-1)/2 vertex pairs independently with probability
    p, scanning pairs in lexicographic order with one uniform draw per pair
    from random.Random(seed), and rejects disconnected outcomes, continuing
    the same stream.  The result is a pure function of (n, p, seed).  Raises
    ValueError when all _MAX_ATTEMPTS draws are disconnected.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"need 0 < p <= 1, got {p}")
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        edges = [
            (i, j)
            for i, j in combinations(range(n), 2)
            if rng.random() < p
        ]
        try:
            return Graph(n, edges)
        except GraphError:
            continue
    raise ValueError(
        f"no connected graph on {n} vertices with p={p} after {_MAX_ATTEMPTS} attempts")
