"""Core graph machinery: parsing, distances, intervals, convexity, components.

Every other module works on the two value types defined here.  A Graph is a
finite simple undirected graph on vertices 0..n-1, immutable after
construction.  It is built in one validating pass over the input edges, its
neighbor lists then sorted in place; its sorted edge tuple is built only on
first read, so a scan that stops at an early edge walks the neighbor lists
(_edges_in_order) instead.  A DistanceMatrix holds shortest-path hop
distances, each row computed by one BFS.  Row 0 is computed when the matrix
is built, and it alone decides that the graph is connected; every other row
is computed the first time it is read and then kept, so a scan that stops
early pays only for the rows it read.  A connected Graph builds its matrix
on construction, and Graph.distances() returns that one matrix.  A function
takes the graph, and reads that matrix itself, or the metric alone, never
both, so every stage shares the one matrix by construction.  The matrix is
the graph's metric core: it also packs a row read by the split code into
one int, whose digits are the row's distances, on first use, and keeps each
distinct edge split once, keyed by the difference of its ends' packed rows
(see walls.splits), so the splits live and die with the rows they were read
from.  is_convex is the one convexity routine: it decides a set from the
rows of its boundary members (those with an outside neighbour), or from the
packed rows once every row exists, and finds a witness from the row of one
BFS source.

Two BFS loops live here.  _bfs_row computes a distance row level by level
and serves only the matrix, whose row 0 is the connectivity check.  _bfs is
the one structural traversal: it lists the vertices reached from a root in
discovery order and records each one's BFS parent, and induced components,
2-colouring, the root graph's colour classes (rootgraph), the oracle's
vertex order, and the labelling walk and the row check (embedder) all go
through it.  _bfs_row stays separate because it is the hot loop, and
routing it through _bfs costs a parent list and a second pass for the
depths: on the random-reject benchmark corpus's rows that measured
3-11% slower (best of several runs on a shared 2-core Xeon).

Graphs read from user input must be connected.  Internally constructed
graphs (class adjacency graphs, neighborhood subgraphs, reconstructed roots)
may be disconnected and opt out of the connectivity requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter, length_hint, lt
from struct import Struct


class GraphError(ValueError):
    """Invalid graph: bad vertex, self-loop, duplicate edge, or disconnected."""


class ParseError(GraphError):
    """Malformed edge-list input, with a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ConsistencyError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad user input."""


def _bfs_row(neighbors: tuple[tuple[int, ...], ...], s: int) -> list[int]:
    """Hop distances from s by one level-synchronous BFS; -1 marks unreached."""
    dist = [-1] * len(neighbors)
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
    return dist


def _bfs(neighbors: tuple[tuple[int, ...], ...], root: int,
         parent: list[int]) -> list[int]:
    """Vertices reached from root, in BFS discovery order.

    Enters only vertices whose parent entry is -1; each one entered gets its
    discoverer as parent, and root gets itself.  The order list is the queue.
    """
    parent[root] = root
    order = [root]
    for u in order:
        for w in neighbors[u]:
            if parent[w] < 0:
                parent[w] = u
                order.append(w)
    return order


class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    Adjacency is stored as per-vertex sorted neighbor tuples plus a set of
    int edge keys for constant-time lookup, both filled in one validating
    pass over the input edges; each neighbor list is then sorted in place.
    The sorted edge tuple is built on the first read of edges and kept.
    A connected graph builds its distance matrix on construction, and the
    matrix's row 0 checks it connected; any other graph builds it on the
    first call of distances().  Instances are treated as immutable.
    """

    __slots__ = ("n", "neighbors", "_edge_keys", "_edges", "_dist")

    def __init__(self, n: int, edges, *, require_connected: bool = True):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        # Edge (u, v), u < v, is keyed u * n + v: ints sort and hash faster
        # than pairs, and divmod by n gives the pair back in sorted order.
        keys: set[int] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex out of range in edge ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            key = u * n + v if u < v else v * n + u
            if key in keys:
                raise GraphError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            keys.add(key)
            adj[u].append(v)
            adj[v].append(u)
        for nb in adj:
            nb.sort()
        self.n = n
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self._edge_keys = keys
        self._edges: tuple[tuple[int, int], ...] | None = None
        self._dist: DistanceMatrix | None = None
        if require_connected:
            if n == 0:
                raise GraphError("a connected graph needs at least one vertex")
            self._dist = distance_matrix(self)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges (u, v), u < v, in lexicographic order; built on first read."""
        if self._edges is None:
            self._edges = tuple(map(divmod, sorted(self._edge_keys), repeat(self.n)))
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        # Both ends in range keep the key unique: with n = 10, the key of
        # (0, 15) is that of edge (1, 5).
        return 0 <= u and v < self.n and u * self.n + v in self._edge_keys

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def distances(self) -> "DistanceMatrix":
        """Hop distances, one matrix per graph whose rows fill on first read."""
        if self._dist is None:
            self._dist = distance_matrix(self)
        return self._dist

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self._edge_keys)})"


def _edges_in_order(g: Graph):
    """Yield g's edges in the order of g.edges, read from the neighbor lists.

    Neither sorts nor builds the edge tuple, so a consumer that stops at an
    early edge pays only for the edges it took.
    """
    for u, nb in enumerate(g.neighbors):
        for v in nb:
            if u < v:
                yield u, v


# struct format codes of the unsigned little-endian digits, by width in bytes.
_ROW_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


class DistanceMatrix(dict):
    """Shortest-path hop distances of a connected graph: d[u][v] is d(u, v).

    A dict from vertex to its distance row, each computed by one
    level-synchronous BFS.  Row 0 is computed on construction, which raises
    GraphError if it leaves some vertex unreached, so a matrix exists only
    for a connected graph.  Any other row u is computed the first time d[u]
    is read and kept, so later reads are plain dict lookups.  Reading a
    vertex outside 0..n-1 raises IndexError.

    d.packed(u) is row u as one int P[u] whose digit x, in base 256**width,
    is d(u, x); width is the fewest of 1, 2, 4 or 8 bytes (the struct
    module's unsigned sizes) that hold n - 1, so every digit fits.  It is
    built from the tuple row on first read and kept, and reads no other
    row.  For an edge uv every digit of P[u] - P[v] lies in {-1, 0, 1}, so
    a whole-row comparison is one subtraction, and d.compare(u, v) reads
    the digits back as bytes.  The matrix also keeps each distinct edge
    split once, keyed by abs(P[u] - P[v]), for walls.splits.
    """

    __slots__ = ("n", "width", "_ones", "_neighbors", "_pack_row", "_packed",
                 "_splits")

    def __init__(self, g: Graph):
        super().__init__()
        self.n = g.n
        if g.n:
            row = _bfs_row(g.neighbors, 0)
            if -1 in row:
                raise GraphError(
                    f"graph is disconnected: vertex {row.index(-1)} unreachable from 0")
            self[0] = tuple(row)
        width = 1
        while 256 ** width < g.n:
            width *= 2
        self.width = width
        # Every digit 1.
        self._ones = int.from_bytes(b"\1".ljust(width, b"\0") * g.n, "little")
        self._neighbors = g.neighbors
        self._pack_row = Struct(f"<{g.n}{_ROW_FORMATS[width]}").pack
        # The rows packed so far, filled by packed().
        self._packed: dict[int, int] = {}
        # walls.splits: abs(P[u] - P[v]) -> (w_th, w_ht, eq components), where
        # t, h are u, v ordered so that P[t] > P[h].
        self._splits: dict = {}

    def __missing__(self, s: int) -> tuple[int, ...]:
        if not 0 <= s < self.n:
            raise IndexError(f"vertex {s} out of range 0..{self.n - 1}")
        row = self[s] = tuple(_bfs_row(self._neighbors, s))
        return row

    def packed(self, u: int) -> int:
        """Row u as one int whose digit x, in base 256**width, is d(u, x)."""
        p = self._packed.get(u)
        if p is None:
            p = self._packed[u] = int.from_bytes(self._pack_row(*self[u]), "little")
        return p

    def compare(self, u: int, v: int) -> bytes:
        """For an edge uv, byte x is d(u, x) - d(v, x) + 1.

        That is 0 when x is nearer u, 2 when x is nearer v and 1 when x is
        equidistant.  No digit of P[u] + ones - P[v] exceeds 2 or borrows,
        so each digit's low byte is the whole digit.
        """
        width = self.width
        total = self.packed(u) + self._ones - self.packed(v)
        return total.to_bytes(self.n * width, "little")[::width]


def parse_graph(data: bytes | str) -> Graph:
    """Parse the edge-list format into a connected Graph.

    Format: UTF-8 text; '#' starts a comment; blank lines are ignored.  The
    first significant line is the vertex count n, every following line is an
    edge 'u v' with 0-based endpoints.  Self-loops, duplicate edges, and
    disconnected graphs are rejected, by Graph's checks.  Bytes may start
    with a UTF-8 byte-order mark, which is dropped; one anywhere else, or in
    str input, is an error.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    else:
        text = data
    n: int | None = None
    edges: list[tuple[int, int]] = []
    lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        if n is None:
            if len(parts) != 1:
                raise ParseError("expected a single vertex count", lineno)
            n = _parse_int(parts[0], lineno, "vertex count")
            if n < 1:
                raise ParseError("vertex count must be at least 1", lineno)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected an edge 'u v', got {len(parts)} tokens", lineno)
        edges.append((_parse_int(parts[0], lineno, "vertex"),
                      _parse_int(parts[1], lineno, "vertex")))
        lines.append(lineno)
    if n is None:
        raise ParseError("empty input: missing vertex count")
    if len(edges) < n - 1:
        # Checked before Graph allocates n adjacency lists for a huge header.
        raise ParseError(
            f"graph is disconnected: {n} vertices need at least {n - 1} edges, "
            f"got {len(edges)}")
    # The edges Graph has not taken when it raises place the one it stopped at.
    rest = iter(edges)
    try:
        g = Graph(n, rest, require_connected=False)
    except GraphError as exc:
        raise ParseError(str(exc), lines[len(lines) - length_hint(rest) - 1]) from exc
    try:
        g.distances()
    except GraphError as exc:
        raise ParseError(str(exc)) from exc
    return g


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {token!r}", lineno) from None


def distance_matrix(g: Graph) -> DistanceMatrix:
    """Distances of g, row 0 now and the rest on first read.

    Raises GraphError, naming an unreached vertex, if g is disconnected.
    """
    return DistanceMatrix(g)


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

    Otherwise the lexicographically smallest witness (x, y, z): members
    x < y and an outside vertex z on a shortest x-y path.

    Member x leaks through a cut edge (y, z), y in s and z outside, when
    d(x, z) < d(x, y); then z lies on a shortest x-y path, and s is convex
    iff no member leaks.  (Walk a geodesic from y back to x: the first
    vertex that leaves s and the member just before it form a cut edge that
    x leaks through.)  Only boundary members, those with an outside
    neighbour, need testing: if an interior member x leaks through (y, z),
    its neighbour x' on a shortest x-z path is a member and leaks through
    (y, z) at a smaller d(., z), so some boundary member leaks too.

    While some row is unread, the verdict reads the row of each boundary
    member, in ascending order up to the first that leaks, and compares it
    over all cut edges: O(boundary·cut) at C speed, and no row of an
    outside vertex is read.  Once every row exists it reads none, and uses
    the packed rows (DistanceMatrix.packed) instead: digit x of
    P[y] + ones - P[z] is d(y, x) - d(z, x) + 1, at most 2 with no borrow
    at any digit width (DistanceMatrix.compare), and 2 exactly when member
    x leaks through (y, z).  With twos the int whose digit is 2 at each
    member, s is convex iff (P[y] + ones - P[z]) & twos is 0 for every cut
    edge, and a set that passes returns before any cut edge is listed.

    A set that leaks then gets its witness.  The search reads the rows of
    the interior members below the first boundary member that leaks, to
    find x (the smallest member that leaks: a member leaks iff it ends some
    pair of members with an outside vertex between them, so the smallest
    such end is the witness's x), and the row of y.  y is the smallest
    member above x that some shortest path from x reaches through an
    outside vertex, found in one pass over row x by distance; z is the
    smallest outside vertex on a shortest x-y path.
    """
    n = d.n
    # Each member's digit of twos (below) is 2.
    inside = [0] * n
    for x in s:
        inside[x] = 2
    members = [*compress(range(n), inside)]
    if len(members) < 2:
        return True
    neighbors = d._neighbors
    if len(d) == n:
        width, packed, ones = d.width, d.packed, d._ones
        digits = bytearray(n * width)
        digits[::width] = inside
        twos = int.from_bytes(digits, "little")
        for y in members:
            above = 0
            for z in neighbors[y]:
                if not inside[z]:
                    # P[y] + ones, built at y's first outside neighbour.
                    above = above or packed(y) + ones
                    if (above - packed(z)) & twos:
                        break
            else:
                continue
            break
        else:
            return True
    cut_y: list[int] = []
    cut_z: list[int] = []
    for y in members:
        for z in neighbors[y]:
            if not inside[z]:
                cut_y.append(y)
                cut_z.append(z)
    if not cut_y:
        return True
    # The members with an outside neighbour, ascending: cut_y is sorted.
    boundary = dict.fromkeys(cut_y)
    # itemgetter of one index returns a bare value; repeating the first cut
    # edge keeps both results tuples.
    at_y = itemgetter(cut_y[0], *cut_y)
    at_z = itemgetter(cut_z[0], *cut_z)

    def leaks(x: int) -> bool:
        dx = d[x]
        return any(map(lt, at_z(dx), at_y(dx)))

    # On a complete matrix the packed test above has already found a leak.
    if len(d) < n and not any(map(leaks, boundary)):
        return True
    # Stops at or before the first boundary member that leaks; the boundary
    # members below it already have their rows.
    x = next(x for x in members if leaks(x))
    dx = d[x]
    # via[v]: v is outside s, or a shortest x-v path passes outside s before v.
    # Parents sit one step closer to x, so ordering by distance settles them first.
    via = [not i for i in inside]
    for v in sorted(range(d.n), key=dx.__getitem__):
        if not via[v]:
            up = dx[v] - 1
            via[v] = any(via[p] for p in neighbors[v] if dx[p] == up)
    y = next(y for y in members if y > x and via[y])
    dy, dxy = d[y], dx[y]
    z = next(z for z in range(d.n) if not inside[z] and dx[z] + dy[z] == dxy)
    return ConvexityWitness(x, y, z)


def induced_components(g: Graph, s) -> tuple[tuple[int, ...], ...]:
    """Connected components of the subgraph induced by s.

    Components are ordered by their smallest vertex, each sorted ascending.
    """
    if not s:
        return ()
    members = sorted(set(s))
    # Vertices outside s count as already reached, so no search enters them.
    parent = [0] * g.n
    for v in members:
        parent[v] = -1
    return tuple(tuple(sorted(_bfs(g.neighbors, v, parent)))
                 for v in members if parent[v] < 0)


@dataclass(frozen=True)
class TwoColoring:
    """Proper 2-coloring; the smallest vertex of each component gets color 0."""

    colors: tuple[int, ...]


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
    parent = [-1] * n
    depth = [0] * n
    colors = [0] * n
    for root in range(n):
        if parent[root] >= 0:
            continue
        comp = _bfs(g.neighbors, root, parent)
        for w in comp[1:]:
            depth[w] = depth[parent[w]] + 1
        conflict = min(
            ((depth[u], u, v)
             for u in comp
             for v in g.neighbors[u]
             if u < v and depth[u] == depth[v]),
            default=None)
        if conflict is not None:
            _, u, v = conflict
            return OddCycleWitness(_tree_cycle(parent, u, v))
        for v in comp:
            colors[v] = depth[v] % 2
    return TwoColoring(tuple(colors))


def _tree_cycle(parent: list[int], u: int, v: int) -> tuple[int, ...]:
    # u and v sit at equal depth; climb both paths to their meeting vertex,
    # at the latest the root, which is its own parent.
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
    # Neighbour lists are sorted, so the edges come in lexicographic order.
    edges = [(i, index[w]) for i, v in enumerate(order)
             for w in g.neighbors[v] if w > v and w in index]
    return Graph(len(order), edges, require_connected=False), tuple(order)
