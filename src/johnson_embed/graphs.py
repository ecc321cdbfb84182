"""Core graph machinery: parsing, distances, intervals, convexity, components.

Every other module works on the two value types defined here.  A Graph is a
finite simple undirected graph on vertices 0..n-1, immutable after
construction.  A DistanceMatrix holds all-pairs shortest-path hop distances
and is computed once per graph and shared.

Graphs read from user input must be connected.  Internally constructed
graphs (class adjacency graphs, neighborhood subgraphs, reconstructed roots)
may be disconnected and opt out of the connectivity requirement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations
from operator import itemgetter, lt


class GraphError(ValueError):
    """Invalid graph: bad vertex, self-loop, duplicate edge, or disconnected."""


class ParseError(GraphError):
    """Malformed edge-list input, with a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ConsistencyError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad user input."""


def _bfs_reach(neighbors: tuple[tuple[int, ...], ...], start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in neighbors[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    Adjacency is stored as per-vertex sorted neighbor tuples plus a set of
    normalized edge pairs for constant-time lookup.  The distance matrix is
    computed lazily and cached; instances are treated as immutable.
    """

    __slots__ = ("n", "edges", "neighbors", "_edge_set", "_dist")

    def __init__(self, n: int, edges, *, require_connected: bool = True):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int]] = []
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex out of range in edge ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphError(f"duplicate edge ({e[0]}, {e[1]})")
            seen.add(e)
            norm.append(e)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(norm))
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self._edge_set = frozenset(seen)
        self._dist: DistanceMatrix | None = None
        if require_connected:
            if n == 0:
                raise GraphError("a connected graph needs at least one vertex")
            reached = _bfs_reach(self.neighbors, 0)
            if len(reached) != n:
                missing = min(set(range(n)) - reached)
                raise GraphError(f"graph is disconnected: vertex {missing} unreachable from 0")

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_set

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def distances(self) -> "DistanceMatrix":
        """All-pairs hop distances, computed once and cached."""
        if self._dist is None:
            self._dist = distance_matrix(self)
        return self._dist

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path distances; rows[u][v] is the hop distance."""

    rows: tuple[tuple[int, ...], ...]

    def __getitem__(self, u: int) -> tuple[int, ...]:
        return self.rows[u]

    @property
    def n(self) -> int:
        return len(self.rows)


def parse_graph(data: bytes | str) -> Graph:
    """Parse the edge-list format into a connected Graph.

    Format: UTF-8 text; '#' starts a comment; blank lines are ignored.  The
    first significant line is the vertex count n, every following line is an
    edge 'u v' with 0-based endpoints.  Self-loops, duplicate edges, and
    disconnected graphs are rejected.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    else:
        text = data
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise ParseError("expected a single vertex count", lineno)
            n = _parse_int(parts[0], lineno, "vertex count")
            if n < 1:
                raise ParseError("vertex count must be at least 1", lineno)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected an edge 'u v', got {len(parts)} tokens", lineno)
        u = _parse_int(parts[0], lineno, "vertex")
        v = _parse_int(parts[1], lineno, "vertex")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range 0..{n - 1} in edge ({u}, {v})", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(f"duplicate edge ({key[0]}, {key[1]})", lineno)
        seen.add(key)
        edges.append((u, v))
    if n is None:
        raise ParseError("empty input: missing vertex count")
    if len(edges) < n - 1:
        # Checked before Graph allocates n adjacency lists for a huge header.
        raise ParseError(
            f"graph is disconnected: {n} vertices need at least {n - 1} edges, "
            f"got {len(edges)}")
    try:
        return Graph(n, edges)
    except ParseError:
        raise
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {token!r}", lineno) from None


def distance_matrix(g: Graph) -> DistanceMatrix:
    """BFS from every vertex; requires a connected graph."""
    rows = []
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.neighbors[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if any(x < 0 for x in dist):
            raise GraphError("distance matrix requires a connected graph")
        rows.append(tuple(dist))
    return DistanceMatrix(tuple(rows))


def interval(d: DistanceMatrix, u: int, v: int) -> tuple[int, ...]:
    """Vertices on shortest u-v paths: d(u,x) + d(x,v) = d(u,v)."""
    duv = d[u][v]
    return tuple(x for x in range(d.n) if d[u][x] + d[x][v] == duv)


@dataclass(frozen=True)
class ConvexityWitness:
    """x, y lie in the set, z outside it, and z is on a shortest x-y path."""

    x: int
    y: int
    z: int


def is_convex(d: DistanceMatrix, s) -> "bool | ConvexityWitness":
    """True if s contains every interval between its members.

    The verdict comes from the boundary edges alone: s is convex iff no
    member y has an outside neighbour z with d(x, z) < d(x, y) for some
    member x.  (Walk a geodesic from y back to x; the first vertex that
    leaves s and the member just before it form such a pair.)  That costs
    O(|s|·|V∖s| + cut·|s|).

    On failure the exhaustive search over member pairs and outside vertices
    returns the lexicographically smallest witness (x, y, z).
    """
    members = sorted(set(s))
    if len(members) < 2:
        return True
    inside = [False] * d.n
    for x in members:
        inside[x] = True
    outside = [z for z in range(d.n) if not inside[z]]
    rows = d.rows
    at_members = itemgetter(*members)
    for y in members:
        dy = rows[y]
        cut = [z for z in outside if dy[z] == 1]
        if cut:
            dy_members = at_members(dy)
            if any(any(map(lt, at_members(rows[z]), dy_members)) for z in cut):
                break
    else:
        return True
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            dxy = d[x][y]
            if dxy < 2:
                continue
            for z in outside:
                if d[x][z] + d[z][y] == dxy:
                    return ConvexityWitness(x, y, z)
    return True


def induced_components(g: Graph, s) -> tuple[tuple[int, ...], ...]:
    """Connected components of the subgraph induced by s.

    Components are ordered by their smallest vertex, each sorted ascending.
    """
    inside = set(s)
    seen: set[int] = set()
    parts: list[tuple[int, ...]] = []
    for v in sorted(inside):
        if v in seen:
            continue
        comp = {v}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in g.neighbors[u]:
                if w in inside and w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        parts.append(tuple(sorted(comp)))
    return tuple(parts)


@dataclass(frozen=True)
class TwoColoring:
    """Proper 2-coloring; the smallest vertex of each component gets color 0."""

    colors: tuple[int, ...]

    def sides(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        zeros = tuple(v for v, c in enumerate(self.colors) if c == 0)
        ones = tuple(v for v, c in enumerate(self.colors) if c == 1)
        return zeros, ones


@dataclass(frozen=True)
class OddCycleWitness:
    """Vertices of a simple odd cycle; consecutive entries (and last-first) are adjacent."""

    cycle: tuple[int, ...]


def is_bipartite(g: Graph) -> "TwoColoring | OddCycleWitness":
    """2-color the graph, or return an odd cycle of minimal BFS depth.

    Works per component; the component's smallest vertex is colored 0.  The
    witness cycle is built from the two BFS tree paths through the first
    conflicting same-depth edge.
    """
    n = g.n
    depth = [-1] * n
    parent = [-1] * n
    colors = [0] * n
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = deque([root])
        comp: list[int] = [root]
        while queue:
            u = queue.popleft()
            for w in g.neighbors[u]:
                if depth[w] < 0:
                    depth[w] = depth[u] + 1
                    parent[w] = u
                    comp.append(w)
                    queue.append(w)
        conflicts = sorted(
            (depth[u], u, v)
            for u in comp
            for v in g.neighbors[u]
            if u < v and depth[u] == depth[v]
        )
        if conflicts:
            _, u, v = conflicts[0]
            return OddCycleWitness(_tree_cycle(parent, depth, u, v))
        for v in comp:
            colors[v] = depth[v] % 2
    return TwoColoring(tuple(colors))


def _tree_cycle(parent: list[int], depth: list[int], u: int, v: int) -> tuple[int, ...]:
    # u and v sit at equal depth; climb both paths to their meeting vertex.
    up: list[int] = [u]
    vp: list[int] = [v]
    a, b = u, v
    while a != b:
        a = parent[a]
        b = parent[b]
        up.append(a)
        vp.append(b)
    return tuple(up + vp[-2::-1])


SQUARE = "SQUARE"
PYRAMID = "PYRAMID"
OCTAHEDRON = "OCTAHEDRON"

_PATTERNS: dict[str, tuple[int, frozenset[tuple[int, int]]]] = {
    # 4-cycle
    SQUARE: (4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})),
    # 4-cycle plus an apex adjacent to all of it
    PYRAMID: (5, frozenset({(0, 1), (1, 2), (2, 3), (0, 3),
                            (0, 4), (1, 4), (2, 4), (3, 4)})),
    # complete tripartite K_{2,2,2}: i and i+3 are the only non-edges
    OCTAHEDRON: (6, frozenset(
        (a, b) for a, b in combinations(range(6), 2) if b - a != 3
    )),
}


def induced_is_pattern(g: Graph, s, pattern: str) -> bool:
    """Exhaustively test whether s induces the named fixed pattern."""
    if pattern not in _PATTERNS:
        raise ValueError(f"unknown pattern: {pattern!r}")
    size, target = _PATTERNS[pattern]
    verts = sorted(set(s))
    if len(verts) != size:
        return False
    induced = {
        (i, j)
        for i, j in combinations(range(size), 2)
        if g.has_edge(verts[i], verts[j])
    }
    if len(induced) != len(target):
        return False
    for perm in permutations(range(size)):
        mapped = {tuple(sorted((perm[a], perm[b]))) for a, b in induced}
        if mapped == target:
            return True
    return False


def induced_subgraph(g: Graph, verts) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by verts, relabeled 0..k-1 in sorted vertex order.

    Returns the subgraph and the tuple mapping its vertex i back to verts.
    """
    order = sorted(set(verts))
    index = {v: i for i, v in enumerate(order)}
    edges = [
        (index[u], index[v])
        for u, v in combinations(order, 2)
        if g.has_edge(u, v)
    ]
    return Graph(len(order), edges, require_connected=False), tuple(order)
