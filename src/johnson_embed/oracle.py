"""Brute-force embedding search, independent of the structural pipeline.

Labels are bitmasks over a ground set of size n.  The search assigns
vertices in BFS order from vertex 0 (the discovery order of graphs._bfs,
the package's one structural traversal), pruning on the pairwise
requirement |X ^ Y| = 2 d(x, y) against every assigned vertex.  A vertex's
BFS parent is placed before it and at distance 1, so only the m(n - m)
single swaps of the parent's label can pass; they are tried in
combinations(range(n), m) order.  Vertex 0's image is fixed to the first m
elements, and the second vertex's to its first swap (drop m - 1, add m): a
permutation of the ground set that stabilizes the first image setwise
carries any single swap of it to any other.  A negative answer is
therefore one-sided: it only rules out ground sets up to the tried size.

For a connected graph on h vertices the bound 2(h - 1) makes it two-sided.
Drop from an embedding every element in all labels or in none: the
symmetric differences stay.  Each element left is moved by some edge of a
spanning tree, and each tree edge moves exactly two, so at most 2(h - 1)
remain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

from .graphs import ConsistencyError, Graph, _bfs
from .embedder import verify_embedding


@dataclass(frozen=True)
class OracleResult:
    found: bool
    m: int | None
    n: int | None
    labels: tuple[tuple[int, ...], ...] | None
    nodes_explored: int


# Each swap list holds m(n - m) <= 100 masks at this bound.
MAX_GROUND = 20


def brute_force_embed(g: Graph, m: int, n: int) -> OracleResult:
    """Search for an embedding with labels of size m over a ground set of size n.

    Requires 1 <= m <= n/2 (larger m is equivalent by complementation) and
    n <= MAX_GROUND, checked before any search.  nodes_explored counts
    label assignments that passed the pairwise check.
    """
    if not (1 <= m and 2 * m <= n):
        raise ValueError(f"require 1 <= m <= n/2, got (m, n) = ({m}, {n})")
    if n > MAX_GROUND:
        raise ValueError(f"ground set size {n} exceeds the oracle's limit of {MAX_GROUND}")
    if comb(n, m) < g.n:
        return OracleResult(False, m, n, None, 0)
    d = g.distances()
    parent = [-1] * g.n
    order = _bfs(g.neighbors, 0, parent)
    label = [0] * g.n
    # swaps[u]: a label of u and its single swaps, rebuilt when label[u]
    # differs.  No label is 0, since m >= 1.
    swaps: list[tuple[int, list[int]]] = [(0, [])] * g.n
    single = [1 << b for b in range(n)]

    def swaps_of(u: int) -> list[int]:
        x = label[u]
        if swaps[u][0] != x:
            # combinations lists ascending tuples in lexicographic order.
            swaps[u] = x, sorted((x ^ i ^ j for i in single if x & i
                                  for j in single if not x & j), key=_bits)
        return swaps[u][1]

    label[order[0]] = (1 << m) - 1
    if g.n >= 2:
        label[order[1]] = swaps_of(order[0])[0]
    nodes = min(g.n, 2)

    def place(idx: int) -> bool:
        nonlocal nodes
        if idx == g.n:
            return True
        v = order[idx]
        dv = d[v]
        earlier = order[:idx]
        for x in swaps_of(parent[v]):
            for w in earlier:
                if (x ^ label[w]).bit_count() != dv[w] << 1:
                    break
            else:
                label[v] = x
                nodes += 1
                if place(idx + 1):
                    return True
        return False

    if not place(nodes):
        return OracleResult(False, m, n, None, nodes)
    labels = tuple(map(_bits, label))
    if verify_embedding(d, labels) is not True:
        raise ConsistencyError("oracle produced a labeling that fails verification")
    return OracleResult(True, m, n, labels, nodes)


def oracle_decide(g: Graph, n_max: int = 8) -> OracleResult:
    """Try every (m, n) with 1 <= m <= n/2 <= n_max/2, in m-major order.

    Every search reads g's one distance matrix.  Returns the first hit with
    cumulative node counts, or a not-found result whose negative answer
    covers only ground sets up to n_max.  A single vertex embeds trivially
    with m = 0.  n_max above MAX_GROUND raises ValueError before any search,
    which keeps the swap lists small; so does a negative n_max, which no
    ground set meets.
    """
    if n_max < 0:
        raise ValueError(f"ground set size bound {n_max} is negative")
    if n_max > MAX_GROUND:
        raise ValueError(f"ground set size {n_max} exceeds the oracle's limit of {MAX_GROUND}")
    if g.n == 1:
        return OracleResult(True, 0, 0, ((),), 0)
    total = 0
    for m in range(1, n_max // 2 + 1):
        for n in range(2 * m, n_max + 1):
            result = brute_force_embed(g, m, n)
            total += result.nodes_explored
            if result.found:
                return replace(result, nodes_explored=total)
    return OracleResult(False, None, None, None, total)


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(b for b in range(mask.bit_length()) if mask >> b & 1)
