"""Brute-force embedding search, independent of the structural pipeline.

Labels are bitmasks over a ground set of size n.  The search assigns
vertices in BFS order from vertex 0 (the discovery order of graphs._bfs,
the package's one structural traversal), pruning on the pairwise
requirement |X ^ Y| = 2 d(x, y) against every assigned vertex.  Vertex 0's
image is fixed to the first m elements; composing with a permutation of the
ground set that stabilizes that image setwise lets the second vertex's image
be fixed too: keep the low m - t elements, add the first t outside, where t
is the distance between the first two vertices.  A negative answer is
therefore one-sided: it only rules out ground sets up to the tried size.

For a connected graph on h vertices the bound 2(h - 1) makes it two-sided.
Drop from an embedding every element in all labels or in none: the
symmetric differences stay.  Each element left is moved by some edge of a
spanning tree, and each tree edge moves exactly two, so at most 2(h - 1)
remain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
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


# brute_force_embed lists all C(n, m) label masks; C(20, 10) is 184,756.
MAX_GROUND = 20


def brute_force_embed(g: Graph, m: int, n: int) -> OracleResult:
    """Search for an embedding with labels of size m over a ground set of size n.

    Requires 1 <= m <= n/2 (larger m is equivalent by complementation) and
    n <= MAX_GROUND, checked before any mask is listed.  nodes_explored
    counts label assignments that passed the pairwise check.
    """
    if not (1 <= m and 2 * m <= n):
        raise ValueError(f"require 1 <= m <= n/2, got (m, n) = ({m}, {n})")
    if n > MAX_GROUND:
        raise ValueError(f"ground set size {n} exceeds the oracle's limit of {MAX_GROUND}")
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
    masks = [_mask(c) for c in combinations(range(n), m)]
    nodes = len(placed)

    def place(idx: int) -> bool:
        nonlocal nodes
        if idx == g.n:
            return True
        v = order[idx]
        dv = d[v]
        for x in masks:
            ok = True
            for w, wm in placed:
                if (x ^ wm).bit_count() != dv[w] << 1:
                    ok = False
                    break
            if not ok:
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
    labels = tuple(_bits(by_vertex[v]) for v in range(g.n))
    if verify_embedding(d, labels) is not True:
        raise ConsistencyError("oracle produced a labeling that fails verification")
    return OracleResult(True, m, n, labels, nodes)


def oracle_decide(g: Graph, n_max: int = 8) -> OracleResult:
    """Try every (m, n) with 1 <= m <= n/2 <= n_max/2, in m-major order.

    Every search reads g's one distance matrix.  Returns the first hit with
    cumulative node counts, or a not-found result whose negative answer
    covers only ground sets up to n_max.  A single vertex embeds trivially
    with m = 0.  n_max above MAX_GROUND raises ValueError before any search,
    which keeps the mask lists small; so does a negative n_max, which no
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


def _mask(combo: tuple[int, ...]) -> int:
    x = 0
    for b in combo:
        x |= 1 << b
    return x


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(b for b in range(mask.bit_length()) if mask >> b & 1)
