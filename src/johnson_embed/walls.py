"""Per-edge halfspace splits and the wallspace condition.

Every edge uv splits the vertex set into the side closer to u, the side
closer to v, and an equidistant remainder.  The wallspace condition requires
the equidistant remainder to induce at most two components and both ways of
attaching those components to the strict sides to yield complementary convex
halfspaces.  A graph passing the condition gets a WallSystem: the per-edge
data plus the deduplicated walls with multiplicities.

This module is the only one that splits edges.  check_wc and check_wc_all
are one scan that splits every edge once, in edge order.  Edges of one Θ
class share their split, so within a scan each distinct half is tested for
convexity once, and an edge whose split already passed adds no walls.  The
later stages (Θ classes, the hypercube embedder) read the WallSystem.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    ConsistencyError,
    ConvexityWitness,
    DistanceMatrix,
    Graph,
    GraphError,
    induced_components,
    is_convex,
)

PRIME = "PRIME"
DOUBLE_PRIME = "DOUBLE_PRIME"
TOO_MANY_COMPONENTS = "TOO_MANY_COMPONENTS"
NONCONVEX_HALFSPACE = "NONCONVEX_HALFSPACE"


def w_sets(d: DistanceMatrix, u: int, v: int):
    """Split all vertices by distance comparison against u and v."""
    w_uv = []
    w_vu = []
    w_eq = []
    # Distances are symmetric, so rows u and v give d(x, u) and d(x, v).
    for x, (dxu, dxv) in enumerate(zip(d[u], d[v])):
        if dxu < dxv:
            w_uv.append(x)
        elif dxv < dxu:
            w_vu.append(x)
        else:
            w_eq.append(x)
    return tuple(w_uv), tuple(w_vu), tuple(w_eq)


@dataclass(frozen=True)
class EdgeWalls:
    """Raw split data for one edge: strict sides and equidistant components."""

    edge: tuple[int, int]
    w_uv: tuple[int, ...]
    w_vu: tuple[int, ...]
    eq_components: tuple[tuple[int, ...], ...]


def splits(g: Graph, d: DistanceMatrix, edge: tuple[int, int]) -> EdgeWalls:
    """Compute the halfspace split of the given oriented edge."""
    u, v = edge
    if not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    w_uv, w_vu, w_eq = w_sets(d, u, v)
    return EdgeWalls((u, v), w_uv, w_vu, induced_components(g, w_eq))


@dataclass(frozen=True)
class Wall:
    """One complementary halfspace pair produced by an edge.

    neg contains the tail of the source edge, pos the head.  The PRIME
    variant attaches the first equidistant component to the tail side, the
    DOUBLE_PRIME variant attaches it to the head side.
    """

    neg: tuple[int, ...]
    pos: tuple[int, ...]
    source_edge: tuple[int, int]
    variant: str


@dataclass(frozen=True)
class WcCertificate:
    """Refutation of the wallspace condition at a single edge."""

    kind: str
    edge: tuple[int, int]
    component_count: int | None = None
    components: tuple[tuple[int, ...], ...] | None = None
    half: tuple[int, ...] | None = None
    variant: str | None = None
    witness: ConvexityWitness | None = None


def check_wc_edge(g: Graph, d: DistanceMatrix, edge) -> "tuple[Wall, Wall] | WcCertificate":
    """Check the wallspace condition at one edge.

    Returns the edge's two walls, or a certificate naming either more than
    two equidistant components or the first non-convex halfspace (halves are
    checked in the order PRIME neg, PRIME pos, DOUBLE_PRIME neg,
    DOUBLE_PRIME pos).
    """
    return _walls_from_splits(d, splits(g, d, edge), {})


def _walls_from_splits(d: DistanceMatrix, ew: EdgeWalls,
                       verdicts: "dict[tuple[int, ...], bool | ConvexityWitness]"
                       ) -> "tuple[Wall, Wall] | WcCertificate":
    # verdicts holds the is_convex result of every half already tested in this scan.
    comps = ew.eq_components
    if len(comps) > 2:
        return WcCertificate(TOO_MANY_COMPONENTS, ew.edge,
                             component_count=len(comps), components=comps)
    eq1 = comps[0] if comps else ()
    eq2 = comps[1] if len(comps) == 2 else ()
    prime = Wall(_merge(ew.w_uv, eq1), _merge(ew.w_vu, eq2), ew.edge, PRIME)
    double = Wall(_merge(ew.w_uv, eq2), _merge(ew.w_vu, eq1), ew.edge, DOUBLE_PRIME)
    for wall in (prime, double):
        for half in (wall.neg, wall.pos):
            verdict = verdicts.get(half)
            if verdict is None:
                verdict = verdicts[half] = is_convex(d, half)
            if verdict is not True:
                return WcCertificate(NONCONVEX_HALFSPACE, ew.edge, half=half,
                                     variant=wall.variant, witness=verdict)
    return prime, double


def _merge(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(a + b))


@dataclass(frozen=True)
class SystemWall:
    """A deduplicated wall: an unordered vertex bipartition with multiplicity.

    halves are ordered so the half containing vertex 0 comes first.
    Multiplicity 2 means the source edge's two walls coincide (empty
    equidistant set); multiplicity 1 means they differ.
    """

    halves: tuple[tuple[int, ...], tuple[int, ...]]
    multiplicity: int

    def separates(self, u: int, v: int) -> bool:
        a, b = self.halves
        return (u in a) != (v in a)


@dataclass(frozen=True)
class WallSystem:
    """All per-edge walls of a graph passing the wallspace condition."""

    edge_walls: tuple[EdgeWalls, ...]
    walls: tuple[SystemWall, ...]

    def separation(self, u: int, v: int) -> int:
        """Total multiplicity of walls separating u from v."""
        return sum(w.multiplicity for w in self.walls if w.separates(u, v))


def _scan(g: Graph, d: DistanceMatrix):
    """Yield (EdgeWalls, result) for every edge in order, splitting each once.

    result is the edge's two walls or its certificate, or None when an
    earlier edge had the same split and passed: the split's strict sides fix
    its equidistant components, so the walls and verdicts would repeat.
    """
    verdicts: dict[tuple[int, ...], bool | ConvexityWitness] = {}
    passed: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for edge in g.edges:
        ew = splits(g, d, edge)
        key = (ew.w_uv, ew.w_vu) if ew.w_uv < ew.w_vu else (ew.w_vu, ew.w_uv)
        if key in passed:
            yield ew, None
            continue
        result = _walls_from_splits(d, ew, verdicts)
        if not isinstance(result, WcCertificate):
            passed.add(key)
        yield ew, result


def check_wc(g: Graph, d: DistanceMatrix) -> "WallSystem | WcCertificate":
    """Check the wallspace condition on every edge, failing fast.

    Edges are scanned in lexicographic order; the first failing edge's
    certificate is returned.  On success the walls of all edges are
    deduplicated into SystemWalls ordered by first appearance.
    """
    edge_walls: list[EdgeWalls] = []
    system: dict[tuple[tuple[int, ...], tuple[int, ...]], SystemWall] = {}
    for ew, result in _scan(g, d):
        if isinstance(result, WcCertificate):
            return result
        edge_walls.append(ew)
        if result is None:
            continue
        k1, k2 = map(_canonical_halves, result)
        contributions = {k1: 2} if k1 == k2 else {k1: 1, k2: 1}
        for halves, mult in contributions.items():
            if system.setdefault(halves, SystemWall(halves, mult)).multiplicity != mult:
                raise ConsistencyError(
                    f"wall {halves} arises with inconsistent multiplicity")
    return WallSystem(tuple(edge_walls), tuple(system.values()))


def check_wc_all(g: Graph, d: DistanceMatrix) -> list[WcCertificate]:
    """Exhaustive variant: certificates for every failing edge (empty if none)."""
    return [result for _, result in _scan(g, d) if isinstance(result, WcCertificate)]


def _canonical_halves(wall: Wall) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The wall's halves, the one holding vertex 0 first (halves are sorted)."""
    return (wall.neg, wall.pos) if wall.neg[:1] == (0,) else (wall.pos, wall.neg)
