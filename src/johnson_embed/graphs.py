"""Core graph machinery: parsing, distances, intervals, convexity, components.

Every other module works on the two value types defined here.  A Graph is a
finite simple undirected graph on vertices 0..n-1, immutable after
construction.  A DistanceMatrix holds shortest-path hop distances; each row
is computed by one BFS the first time it is read and then kept, so a scan
that stops early pays only for the rows it read.  One matrix per graph is
shared by every stage.

Graphs read from user input must be connected.  Internally constructed
graphs (class adjacency graphs, neighborhood subgraphs, reconstructed roots)
may be disconnected and opt out of the connectivity requirement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
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
        """Hop distances, one matrix per graph whose rows fill on first read."""
        if self._dist is None:
            self._dist = distance_matrix(self)
        return self._dist

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"


class DistanceMatrix(dict):
    """Shortest-path hop distances of a connected graph: d[u][v] is d(u, v).

    A dict from vertex to its distance row.  Row u is computed by one
    level-synchronous BFS the first time d[u] is read and kept, so later
    reads are plain dict lookups.  Reading a vertex outside 0..n-1 raises
    IndexError; a row that leaves some vertex unreached raises GraphError.
    """

    __slots__ = ("n", "_neighbors")

    def __init__(self, g: Graph):
        super().__init__()
        self.n = g.n
        self._neighbors = g.neighbors

    def __missing__(self, s: int) -> tuple[int, ...]:
        if not 0 <= s < self.n:
            raise IndexError(f"vertex {s} out of range 0..{self.n - 1}")
        neighbors = self._neighbors
        dist = [-1] * self.n
        dist[s] = 0
        frontier = [s]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for w in neighbors[u]:
                    if dist[w] < 0:
                        dist[w] = level
                        nxt.append(w)
            frontier = nxt
        if -1 in dist:
            raise GraphError("distance matrix requires a connected graph")
        row = self[s] = tuple(dist)
        return row

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Every row in vertex order, computing those not read yet."""
        return tuple(self[u] for u in range(self.n))


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
    """Distances of g, row by row on first read; requires a connected graph.

    Row 0 is read here: on a disconnected graph every row fails, so the
    error surfaces now rather than at some later read.
    """
    d = DistanceMatrix(g)
    if g.n:
        d[0]
    return d


def interval(d: DistanceMatrix, u: int, v: int) -> tuple[int, ...]:
    """Vertices on shortest u-v paths: d(u,x) + d(x,v) = d(u,v)."""
    # Distances are symmetric, so rows u and v give d(u, x) and d(x, v).
    du, dv = d[u], d[v]
    duv = du[v]
    return tuple(x for x, (dux, dxv) in enumerate(zip(du, dv)) if dux + dxv == duv)


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
    at_members = itemgetter(*members)
    for y in members:
        dy = d[y]
        cut = [z for z in outside if dy[z] == 1]
        if cut:
            dy_members = at_members(dy)
            if any(any(map(lt, at_members(d[z]), dy_members)) for z in cut):
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

# Sorted degree sequences.  Each one fixes its pattern: the only 2-regular
# graph on 4 vertices is the 4-cycle, and in the other two the complement is
# a matching (plus an isolated apex for the pyramid).
_PATTERNS: dict[str, tuple[int, ...]] = {
    # 4-cycle
    SQUARE: (2, 2, 2, 2),
    # 4-cycle plus an apex adjacent to all of it
    PYRAMID: (3, 3, 3, 3, 4),
    # complete tripartite K_{2,2,2}
    OCTAHEDRON: (4, 4, 4, 4, 4, 4),
}


def induced_is_pattern(g: Graph, s, pattern: str) -> bool:
    """Test whether s induces the named fixed pattern, by its degree sequence."""
    if pattern not in _PATTERNS:
        raise ValueError(f"unknown pattern: {pattern!r}")
    degrees = _PATTERNS[pattern]
    inside = set(s)
    if len(inside) != len(degrees):
        return False
    return tuple(sorted(len(inside.intersection(g.neighbors[v])) for v in inside)) == degrees


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
