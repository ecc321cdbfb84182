"""Recognize line graphs of bipartite graphs and rebuild a bipartite root.

The input (typically an atom graph, possibly disconnected) is a line graph
of a bipartite graph exactly when it has no induced claw or diamond and the
reconstructed root is 2-colorable.  In a claw-free diamond-free graph the
maximal cliques are edge-disjoint and cover all edges, so they form the
Krausz partition directly, and no vertex lies in three of them: a neighbour
from each of three would be the leaves of a claw.  The root has one vertex
per clique; an input vertex in two cliques becomes the root edge joining
them, a vertex in one clique gets a private pendant root vertex, and an
isolated input vertex gets a fresh two-vertex root edge.  A triangle
component of the input is thereby read as the line graph of a 3-star rather
than of a 3-cycle, which is the only ambiguity and the only reading with a
bipartite root.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, combinations

from .graphs import ConsistencyError, Graph, OddCycleWitness, _bfs, is_bipartite

CLAW = "CLAW"
DIAMOND = "DIAMOND"
ODD_CYCLE_IN_ROOT = "ODD_CYCLE_IN_ROOT"


@dataclass(frozen=True)
class RootCertificate:
    """Refutation that the input is a line graph of a bipartite graph.

    CLAW: vertices = (center, leaf, leaf, leaf), the leaves pairwise
    non-adjacent.  DIAMOND: vertices = (u, v, w, x) where uv is an edge and
    w, x are non-adjacent common neighbors.  ODD_CYCLE_IN_ROOT: cycle = odd
    cycle in the reconstructed root.
    """

    kind: str
    vertices: tuple[int, ...] = ()
    cycle: tuple[int, ...] = ()


def find_claw_or_diamond(g: Graph) -> RootCertificate | None:
    """First induced claw (checked before diamonds), else first diamond, else None.

    Claws are enumerated by (center, sorted leaf triple), diamonds by
    (sorted edge, sorted non-adjacent common neighbor pair).
    """
    for v in range(g.n):
        nb = g.neighbors[v]
        for a, b, c in combinations(nb, 3):
            if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
                return RootCertificate(CLAW, vertices=(v, a, b, c))
    for u, v in g.edges:
        common = [w for w in g.neighbors[u] if g.has_edge(w, v)]
        for w, x in combinations(common, 2):
            if not g.has_edge(w, x):
                return RootCertificate(DIAMOND, vertices=(u, v, w, x))
    return None


@dataclass(frozen=True)
class KrauszPartition:
    """Edge-disjoint maximal cliques covering all edges, plus memberships.

    cliques are sorted by vertex content; membership[v] lists the indices of
    the at most two cliques containing v (isolated vertices get none).
    """

    cliques: tuple[tuple[int, ...], ...]
    membership: tuple[tuple[int, ...], ...]


def krausz_partition(g: Graph) -> KrauszPartition | RootCertificate:
    """Partition edges into maximal cliques; filter certificates pass through.

    A graph is claw-free and diamond-free exactly when every vertex's
    neighborhood splits into at most two disjoint cliques with no edge
    between them: an induced path on three neighbors would make a diamond
    with the vertex, and three pairwise non-adjacent ones a claw.  Then the
    maximal cliques are the sets {v} | part, read from the neighborhoods
    directly.  Otherwise the claw/diamond filter runs, and its certificate,
    the first claw or else the first diamond, is returned.
    """
    cliques = _neighborhood_cliques(g)
    if cliques is None:
        cert = find_claw_or_diamond(g)
        if cert is None:
            raise ConsistencyError(
                "a neighborhood splits into no two cliques, yet no claw or diamond was found")
        return cert
    ordered = tuple(sorted(cliques))
    membership: list[list[int]] = [[] for _ in range(g.n)]
    for idx, clique in enumerate(ordered):
        for v in clique:
            membership[v].append(idx)
    return KrauszPartition(ordered, tuple(tuple(m) for m in membership))


def _neighborhood_cliques(g: Graph) -> "list[tuple[int, ...]] | None":
    """The cliques {v} | part when every neighborhood splits into at most two
    cliques with no edge between them, else None.

    Edge uv's part at u is v and their common neighbors, so {u} | part is
    K(uv) = {u, v} | (N(u) & N(v)).  The neighborhoods split as required
    exactly when no vertex lies in three distinct sets K(uv): a claw at v
    with leaves a, b, c gives three, K(va), K(vb) and K(vc), and so does a
    diamond (u, v, w, x) at u, with K(uw), K(ux) and K(uv).
    """
    near = [frozenset(nb) for nb in g.neighbors]
    cliques = {near[u] & near[v] | {u, v} for u, v in g.edges}
    if max(Counter(chain.from_iterable(cliques)).values(), default=0) > 2:
        return None
    return [tuple(sorted(clique)) for clique in cliques]


@dataclass(frozen=True)
class BipartiteRoot:
    """A bipartite graph whose line graph is the input.

    Root vertices are numbered cliques first, then pendant vertices for
    single-clique input vertices, then fresh pairs for isolated input
    vertices.  vertex_to_edge[x] is input vertex x's root edge, ordered
    (b_end, a_end); it is a bijection onto the root's edges.  a_side and
    b_side are sorted.
    """

    a_side: tuple[int, ...]
    b_side: tuple[int, ...]
    vertex_to_edge: tuple[tuple[int, int], ...]
    root: Graph


def bipartite_root(g: Graph) -> BipartiteRoot | RootCertificate:
    """Reconstruct the bipartite root of g, or certify that none exists.

    Per root component the smaller color class joins the b side, ties going
    to the class of the component's smallest root vertex.
    """
    kp = krausz_partition(g)
    if isinstance(kp, RootCertificate):
        return kp
    next_id = len(kp.cliques)
    raw_edges: list[tuple[int, int]] = []
    for v in range(g.n):
        mem = kp.membership[v]
        if len(mem) == 2:
            raw_edges.append((mem[0], mem[1]))
        elif len(mem) == 1:
            raw_edges.append((mem[0], next_id))
            next_id += 1
        else:
            raw_edges.append((next_id, next_id + 1))
            next_id += 2
    root = Graph(next_id, raw_edges, require_connected=False)
    _verify_line_graph(g, raw_edges)
    coloring = is_bipartite(root)
    if isinstance(coloring, OddCycleWitness):
        return RootCertificate(ODD_CYCLE_IN_ROOT, cycle=coloring.cycle)
    b_side = _pick_b_side(root, coloring.colors)
    a_side = tuple(r for r in range(root.n) if r not in b_side)
    oriented = tuple(
        (i, j) if i in b_side else (j, i) for i, j in raw_edges
    )
    return BipartiteRoot(a_side, tuple(sorted(b_side)), oriented, root)


def _verify_line_graph(g: Graph, raw_edges: list[tuple[int, int]]) -> None:
    # Input vertices must be adjacent exactly when their root edges share an
    # end: the pairs of input vertices at each root vertex must be g's edges.
    at_root: defaultdict[int, list[int]] = defaultdict(list)
    for x, ends in enumerate(raw_edges):
        for r in set(ends):
            at_root[r].append(x)
    expected = {pair for xs in at_root.values() for pair in combinations(xs, 2)}
    broken = expected.symmetric_difference(g.edges)
    if broken:
        x, y = min(broken)
        raise ConsistencyError(
            f"root reconstruction broke adjacency of input vertices {x}, {y}")


def _pick_b_side(root: Graph, colors: tuple[int, ...]) -> set[int]:
    b_side: set[int] = set()
    parent = [-1] * root.n
    for r in range(root.n):
        if parent[r] >= 0:
            continue
        comp = set(_bfs(root.neighbors, r, parent))
        side0 = {v for v in comp if colors[v] == 0}
        side1 = comp - side0
        # The component's smallest vertex has color 0, so ties pick side0.
        b_side |= side1 if len(side1) < len(side0) else side0
    return b_side


def line_graph(h: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph of h plus the edge order naming its vertices."""
    edge_order = h.edges
    index = {e: i for i, e in enumerate(edge_order)}
    edges = []
    for (e, i) in index.items():
        for (f, j) in index.items():
            if i < j and (set(e) & set(f)):
                edges.append((i, j))
    return Graph(len(edge_order), edges, require_connected=False), edge_order
