"""Per-edge halfspace splits and the wallspace condition.

Every edge uv splits the vertex set into the side closer to u, the side
closer to v, and an equidistant remainder.  The wallspace condition requires
the equidistant remainder to induce at most two components and both ways of
attaching those components to the strict sides to yield complementary convex
halfspaces.  A graph passing the condition gets a WallSystem: its
deduplicated walls with multiplicities.

This module is the only one that splits edges.  check_wc and check_wc_all
are one scan that splits every edge once, in edge order.  Edges of one Θ
class share their split, and the metric core keeps each distinct split once:
splits memoizes it on the graph's distance matrix under one int key, so
only the first edge of a class runs w_sets and induced_components and the
rest share its tuples.  Within a scan each distinct half is tested for
convexity once, and an edge whose split already passed adds no walls.  The
hypercube embedder and the CLI read the WallSystem's walls; the Θ classes
(atom.theta1_classes) take it only as proof that the check passed.

The split code works on the matrix's packed rows (DistanceMatrix.packed):
row u as one int P[u] whose base-256**width digit x is d(u, x).  For an
edge uv, P[u] - P[v] has the digits d(u, x) - d(v, x), each -1, 0 or 1, and
its absolute value is the split's key (see splits); w_sets reads the three
sides from those digits as bytes (DistanceMatrix.compare); and the Θ class
test compares packed differences.  Each is a big-int operation.

A split with no equidistant vertex, which every split of a bipartite graph
is, is decided by its crossing edges, those yz with y in W_uv and z in W_vu
(Djoković's lemma).  If every crossing edge has the same split, W_yz = W_uv,
both sides are convex: a member x of W_uv that leaked through a crossing
edge (y, z), d(x, z) < d(x, y) as in graphs.is_convex, would lie in
W_zy = W_vu; likewise for W_vu.  In a bipartite graph the converse holds:
no vertex is equidistant from y and z, so an x in W_uv nearer z than y would
put z on a shortest x-y path, against the convexity of W_uv.  The scan
therefore compares each crossing edge's packed difference P[y] - P[z] with
the split's own before any convexity test.  When all match, neither side
goes through is_convex.  When one differs (outside bipartite graphs that can
happen even when both sides are convex), the sides go through is_convex,
so every certificate is the one is_convex gives.  Every other half
goes through is_convex, the one convexity routine, which reads the packed
rows itself once the matrix holds every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, starmap
from typing import NamedTuple

from .graphs import (
    ConsistencyError,
    ConvexityWitness,
    DistanceMatrix,
    Graph,
    GraphError,
    _edges_in_order,
    induced_components,
    is_convex,
)

PRIME = "PRIME"
DOUBLE_PRIME = "DOUBLE_PRIME"
TOO_MANY_COMPONENTS = "TOO_MANY_COMPONENTS"
NONCONVEX_HALFSPACE = "NONCONVEX_HALFSPACE"


# Selector tables for the bytes of DistanceMatrix.compare(u, v), which are 0
# for a vertex nearer u, 2 for one nearer v and 1 for an equidistant one.
_NEARER_TAIL = bytes.maketrans(b"\0\1\2", b"\1\0\0")
_NEARER_HEAD = bytes.maketrans(b"\0\1\2", b"\0\0\1")
_EQUIDISTANT = bytes.maketrans(b"\0\1\2", b"\0\1\0")


def w_sets(d: DistanceMatrix, u: int, v: int):
    """Split all vertices by distance comparison against the ends of edge uv."""
    if v not in d._neighbors[u]:
        raise GraphError(f"({u}, {v}) is not an edge")
    compared = d.compare(u, v)
    vertices = range(d.n)
    # The list first: tuple() over compress's iterator grows and shrinks the
    # tuple as it goes, and the resized tuples raised the benchmark's peak RSS.
    return (tuple([*compress(vertices, compared.translate(_NEARER_TAIL))]),
            tuple([*compress(vertices, compared.translate(_NEARER_HEAD))]),
            tuple([*compress(vertices, compared.translate(_EQUIDISTANT))]))


class EdgeWalls(NamedTuple):
    """Raw split data for one edge: strict sides and equidistant components."""

    edge: tuple[int, int]
    w_uv: tuple[int, ...]
    w_vu: tuple[int, ...]
    eq_components: tuple[tuple[int, ...], ...]


def splits(g: Graph, edge: tuple[int, int]) -> EdgeWalls:
    """Compute the halfspace split of the given oriented edge.

    The split is memoized on g's distance matrix d, the one matrix of the
    graph.  With P[u] the packed row u (DistanceMatrix.packed), the digits
    of P[u] - P[v] are d(u, x) - d(v, x), in {-1, 0, 1}: they place every
    vertex, so they fix the split, and the negation is the same split
    oriented vu.  In a base of at least 256, digits in {-1, 0, 1} give each
    int one such form, so two edges have equal differences exactly when
    their splits are equal, and the sign of a difference is that of its
    highest nonzero digit.  The key abs(P[u] - P[v]) is therefore one int
    per unoriented split: the orientation t, h with P[t] > P[h], in which
    the highest-numbered vertex not equidistant from the ends is nearer h.
    Every edge of a Θ class thus makes one lookup and finds the entry its
    first edge stored; each distinct split runs w_sets and
    induced_components once, and every other edge of its class gets the
    same tuples, swapped for the opposite orientation.
    """
    u, v = edge
    if not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    d = g.distances()
    diff = d.packed(u) - d.packed(v)
    key = abs(diff)
    known = d._splits.get(key)
    if known is None:
        t, h = (u, v) if diff > 0 else (v, u)
        w_th, w_ht, w_eq = w_sets(d, t, h)
        known = d._splits[key] = w_th, w_ht, induced_components(g, w_eq)
    w_th, w_ht, comps = known
    if diff < 0:
        return EdgeWalls((u, v), w_ht, w_th, comps)
    return EdgeWalls((u, v), w_th, w_ht, comps)


def _class_passes(d: DistanceMatrix, ew: EdgeWalls) -> bool:
    """Decide a split with no equidistant vertex by its Θ class.

    True when every crossing edge, listed from the smaller side in ascending
    order, has the split's own packed difference P[y] - P[z]: both sides are
    then convex (see the module docstring).  False at the first edge that
    differs.
    """
    (u, v), small, large = ew.edge, ew.w_uv, ew.w_vu
    if len(large) < len(small):
        u, v, small = v, u, large
    packed = d.packed
    diff = packed(u) - packed(v)
    inside = set(small)
    for y in small:
        for z in d._neighbors[y]:
            if z not in inside and packed(y) - packed(z) != diff:
                return False
    return True


class Wall(NamedTuple):
    """One complementary halfspace pair produced by an edge.

    neg contains the tail of the source edge, pos the head.  The PRIME
    variant attaches the first equidistant component to the tail side, the
    DOUBLE_PRIME variant attaches it to the head side.
    """

    neg: tuple[int, ...]
    pos: tuple[int, ...]
    variant: str


@dataclass(frozen=True)
class WcCertificate:
    """Refutation of the wallspace condition at a single edge."""

    kind: str
    edge: tuple[int, int]
    component_count: int | None = None
    components: tuple[tuple[int, ...], ...] | None = None
    variant: str | None = None
    half: tuple[int, ...] | None = None
    witness: ConvexityWitness | None = None


def check_wc_edge(g: Graph, edge) -> "tuple[Wall, Wall] | WcCertificate":
    """Check the wallspace condition at one edge.

    Returns the edge's two walls, or a certificate naming either more than
    two equidistant components or the first non-convex halfspace (halves are
    checked in the order PRIME neg, PRIME pos, DOUBLE_PRIME neg,
    DOUBLE_PRIME pos).
    """
    return _walls_from_splits(g.distances(), splits(g, edge), {})


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
    prime = Wall(_merge(ew.w_uv, eq1), _merge(ew.w_vu, eq2), PRIME)
    double = Wall(_merge(ew.w_uv, eq2), _merge(ew.w_vu, eq1), DOUBLE_PRIME)
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
    return tuple(sorted(a + b)) if b else a


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
    """The deduplicated walls of a graph passing the wallspace condition."""

    walls: tuple[SystemWall, ...]

    def separation(self, u: int, v: int) -> int:
        """Total multiplicity of walls separating u from v."""
        return sum(w.multiplicity for w in self.walls if w.separates(u, v))


def _scan(g: Graph):
    """Yield each edge's result in edge order, splitting each edge once.

    The edges are walked from g's sorted neighbor lists, in the order of
    g.edges, so a scan that stops at an early edge never builds that tuple.

    result is the edge's two walls or its certificate, or None when an
    earlier edge had the same split and passed: the split's strict sides fix
    its equidistant components, so the walls and verdicts would repeat.  A
    new split with no equidistant vertex whose sides have no verdict yet
    first gets its Θ class test; if that passes, both sides are convex and
    is_convex is not called.  The passed splits are this scan's own, so a
    second scan of the same graph builds every wall again.
    """
    d = g.distances()
    verdicts: dict[tuple[int, ...], bool | ConvexityWitness] = {}
    passed: set[int] = set()
    packed = d.packed
    for u, v in _edges_in_order(g):
        ew = splits(g, (u, v))
        # The split's memo key (see splits), which packed both ends.
        key = abs(packed(u) - packed(v))
        if key in passed:
            yield None
            continue
        if (not ew.eq_components and ew.w_uv not in verdicts
                and ew.w_vu not in verdicts and _class_passes(d, ew)):
            verdicts[ew.w_uv] = verdicts[ew.w_vu] = True
        result = _walls_from_splits(d, ew, verdicts)
        if not isinstance(result, WcCertificate):
            passed.add(key)
        yield result


def check_wc(g: Graph) -> "WallSystem | WcCertificate":
    """Check the wallspace condition on every edge, failing fast.

    Edges are scanned in lexicographic order against g's one distance
    matrix; the first failing edge's certificate is returned.  On success
    the walls of all edges are deduplicated into SystemWalls ordered by
    first appearance.
    """
    multiplicity: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for result in _scan(g):
        if isinstance(result, WcCertificate):
            return result
        if result is None:
            continue
        k1, k2 = map(_canonical_halves, result)
        for halves, mult in ({k1: 2} if k1 == k2 else {k1: 1, k2: 1}).items():
            if multiplicity.setdefault(halves, mult) != mult:
                raise ConsistencyError(
                    f"wall {halves} arises with inconsistent multiplicity")
    return WallSystem(tuple(starmap(SystemWall, multiplicity.items())))


def check_wc_all(g: Graph) -> list[WcCertificate]:
    """Exhaustive variant: certificates for every failing edge (empty if none)."""
    return [result for result in _scan(g) if isinstance(result, WcCertificate)]


def _canonical_halves(wall: Wall) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The wall's halves, the one holding vertex 0 first (halves are sorted)."""
    return (wall.neg, wall.pos) if wall.neg[:1] == (0,) else (wall.pos, wall.neg)
