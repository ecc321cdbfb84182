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


# The most vertices, edges or (johnson) compared vertex pairs and subset
# elements gen_family builds, or vertex pairs random_connected_graph draws:
# Q12, J(5,11), C1024 and P2000 fit well under it.
MAX_GEN_SIZE = 10**6


def gen_family(name: str, params) -> Graph:
    """Build a named family member; unknown names or bad arity raise ValueError.

    So does a member with more than MAX_GEN_SIZE of any count in
    _member_sizes, refused from its parameters before any list is built.
    """
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown family {name!r} (known: {known})")
    arity, builder = _FAMILIES[name]
    params = tuple(params)
    if len(params) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    for what, count in _member_sizes(name, params):
        if count > MAX_GEN_SIZE:
            raise ValueError(
                f"family {name!r} with parameters {params} would have more than "
                f"{MAX_GEN_SIZE} {what}")
    return builder(*params)


def _member_sizes(name: str, params: tuple) -> list[tuple[str, int]]:
    """What the builder would make, counted from the parameters.

    A count above MAX_GEN_SIZE may be any value above it, so that a huge
    parameter costs no huge int.  Parameters the builder refuses give counts
    that pass, and the builder raises its own error.
    """
    cap = MAX_GEN_SIZE + 1
    if name == "hypercube":
        vertices = 1 << min(max(params[0], 0), cap.bit_length())
        return [("vertices", vertices), ("edges", params[0] * vertices // 2)]
    if name == "johnson":
        m, n = params
        vertices = _comb_over(n, m, cap)
        return [("vertices", vertices),
                ("compared vertex pairs", vertices * (vertices - 1) // 2),
                ("subset elements", vertices * m)]
    if name in ("cycle", "path"):
        return [("vertices", params[0])]
    if name == "complete":
        return [("vertices", params[0]), ("edges", params[0] * (params[0] - 1) // 2)]
    if name == "complete_bipartite":
        a, b = params
        return [("vertices", a + b), ("edges", a * b)]
    return []


def _comb_over(n: int, k: int, cap: int) -> int:
    """C(n, k), or some value of at least cap once the count reaches it."""
    if not 0 <= k <= n:
        return 0
    count = 1
    # C(n, i) grows with i up to n / 2, so a partial product past cap is
    # a lower bound that already exceeds it.
    for i in range(min(k, n - k)):
        count = count * (n - i) // (i + 1)
        if count >= cap:
            break
    return count


# Draws random_connected_graph makes before it gives up.
_MAX_ATTEMPTS = 1000


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Reproducible random connected graph.

    Draws each of the n(n-1)/2 vertex pairs independently with probability
    p, scanning pairs in lexicographic order with one uniform draw per pair
    from random.Random(seed), and rejects disconnected outcomes, continuing
    the same stream.  The result is a pure function of (n, p, seed).  Raises
    ValueError when all _MAX_ATTEMPTS draws are disconnected, and before
    any draw when the n(n-1)/2 pairs exceed MAX_GEN_SIZE (n >= 1415).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"need 0 < p <= 1, got {p}")
    if n * (n - 1) // 2 > MAX_GEN_SIZE:
        raise ValueError(f"family 'random' with {n} vertices would draw more than "
                         f"{MAX_GEN_SIZE} vertex pairs")
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
