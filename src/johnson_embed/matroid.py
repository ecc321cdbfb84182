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
    interval,
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
    """Every distance-2 interval must induce a square, pyramid, or octahedron."""
    d = g.distances()
    by_size = {4: SQUARE, 5: PYRAMID, 6: OCTAHEDRON}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if d[u][v] != 2:
                continue
            iv = interval(d, u, v)
            pattern = by_size.get(len(iv))
            if pattern is None or not induced_is_pattern(g, iv, pattern):
                return ConditionReport("IC", False, IcWitness(u, v, iv))
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
    """Opposite corners of every square must have equal distance sums to every vertex."""
    d = g.distances()
    for sq in squares(g, induced_only=induced_only):
        # Distances are symmetric: the corners' rows give every d(b, corner).
        r1, r2, r3, r4 = (d[u] for u in sq)
        for b in range(g.n):
            if r1[b] + r3[b] != r2[b] + r4[b]:
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
