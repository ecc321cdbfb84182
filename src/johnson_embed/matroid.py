"""Matroid basis graph conditions: intervals, squares, and links.

A connected graph is a matroid basis graph exactly when it passes the
wallspace condition and the interval condition.  The positioning and link
conditions are provided for inspection; the wallspace condition implies the
positioning condition, and accepted graphs satisfy the link condition, but
neither implication is used by the decision.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Graph,
    OCTAHEDRON,
    PYRAMID,
    SQUARE,
    induced_is_pattern,
    induced_subgraph,
)
from .rootgraph import RootCertificate, bipartite_root
from .walls import WallSystem, WcCertificate, check_wc


@dataclass(frozen=True)
class IcWitness:
    """Distance-2 pair whose interval induces none of the three patterns."""

    u: int
    v: int
    interval: tuple[int, ...]


@dataclass(frozen=True)
class PcWitness:
    """Basepoint and square with unequal opposite distance sums."""

    basepoint: int
    square: tuple[int, int, int, int]


@dataclass(frozen=True)
class LcWitness:
    """Vertex whose neighborhood is not a line graph of a bipartite graph.

    The nested certificate refers to the neighborhood subgraph relabeled
    0..k-1 in sorted order of the neighborhood vertices.
    """

    vertex: int
    neighborhood: tuple[int, ...]
    certificate: RootCertificate


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    passed: bool
    witness: "IcWitness | PcWitness | LcWitness | None" = None


def check_ic(g: Graph) -> ConditionReport:
    """Every distance-2 interval must induce a square, pyramid, or octahedron.

    The interval of a pair u, v at distance 2 is I(u, v) = {u, v} together
    with N(u) & N(v), and the vertices at distance 2 from u are the
    neighbours of its neighbours outside N(u) and other than u, so the
    condition is read from the neighbour lists: no distance row is read
    beyond row 0, which the graph's distance matrix holds to check it
    connected.  Pairs are visited u ascending, then v > u ascending, and the
    witness is the first pair that fails, its interval sorted.
    """
    g.distances()  # raises GraphError if g is disconnected
    by_size = {4: SQUARE, 5: PYRAMID, 6: OCTAHEDRON}
    neighbors = g.neighbors
    for u, nb in enumerate(neighbors):
        near_u = frozenset(nb)
        second = {v for w in nb for v in neighbors[w] if v > u}
        for v in sorted(second - near_u):
            iv = near_u.intersection(neighbors[v]) | {u, v}
            pattern = by_size.get(len(iv))
            if pattern is None or not induced_is_pattern(g, iv, pattern):
                return ConditionReport("IC", False, IcWitness(u, v, tuple(sorted(iv))))
    return ConditionReport("IC", True)


def squares(g: Graph, *, induced_only: bool = True):
    """Enumerate 4-cycles (u1, u2, u3, u4), one per rotation/reflection class.

    u1 is the smallest vertex and u2 < u4.  With induced_only both diagonals
    must be non-edges.
    """
    for u1 in range(g.n):
        nb = [w for w in g.neighbors[u1] if w > u1]
        for i, u2 in enumerate(nb):
            for u4 in nb[i + 1:]:
                if induced_only and g.has_edge(u2, u4):
                    continue
                for u3 in g.neighbors[u2]:
                    if u3 <= u1 or u3 == u4 or not g.has_edge(u3, u4):
                        continue
                    if induced_only and g.has_edge(u1, u3):
                        continue
                    yield (u1, u2, u3, u4)


def check_pc(g: Graph, *, induced_only: bool = True) -> ConditionReport:
    """Opposite corners of every square must have equal distance sums to every vertex.

    For a square u1 u2 u3 u4, d(b, u1) + d(b, u3) = d(b, u2) + d(b, u4) for
    every b exactly when the packed rows (DistanceMatrix.packed) satisfy
    P[u1] - P[u2] = P[u4] - P[u3].  Both sides are differences of adjacent
    rows, with digits in {-1, 0, 1}, so equal ints mean equal digits (as in
    walls.splits): PC says that opposite edges of every square have the
    same oriented split, i.e. they are Θ-related.  Each square costs one
    comparison; the witness b, the smallest vertex whose sums differ, is
    looked for only in a square that fails.
    """
    d = g.distances()
    packed = d.packed
    for sq in squares(g, induced_only=induced_only):
        u1, u2, u3, u4 = sq
        if packed(u1) - packed(u2) != packed(u4) - packed(u3):
            # Distances are symmetric: the corners' rows give every d(b, corner).
            r1, r2, r3, r4 = (d[u] for u in sq)
            b = next(b for b in range(g.n) if r1[b] + r3[b] != r2[b] + r4[b])
            return ConditionReport("PC", False, PcWitness(b, sq))
    return ConditionReport("PC", True)


def check_lc(g: Graph) -> ConditionReport:
    """Every vertex neighborhood must be a line graph of a bipartite graph."""
    for v in range(g.n):
        nb = g.neighbors[v]
        sub, _ = induced_subgraph(g, nb)
        result = bipartite_root(sub)
        if isinstance(result, RootCertificate):
            return ConditionReport("LC", False, LcWitness(v, nb, result))
    return ConditionReport("LC", True)


@dataclass(frozen=True)
class BasisGraphReport:
    """Basis graph decision with both sub-results."""

    passed: bool
    wc: "WallSystem | WcCertificate"
    ic: ConditionReport


def is_basis_graph(g: Graph) -> BasisGraphReport:
    """A graph is a matroid basis graph iff it passes both WC and IC."""
    wc = check_wc(g)
    ic = check_ic(g)
    return BasisGraphReport(not isinstance(wc, WcCertificate) and ic.passed, wc, ic)
