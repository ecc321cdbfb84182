"""Edge scalar products and the atom graph.

The scalar of two oriented edges e = (u, v) and f = (x, y) is
d(u,y) + d(v,x) - d(u,x) - d(v,y); its value always lies in -2..2.  With a
basepoint b fixed, the vertical edges (those whose endpoints sit at
different depths) are oriented tail-closer-to-b by one walk of row b
(_vertical) and grouped into classes by their halfspace split pair, read
from the packed rows; nothing here splits an edge.  On graphs passing the
wallspace condition, two such edges share a class exactly when their
scalar is 2, and the atom graph joins two classes exactly when
representatives have scalar 1, a value independent of the chosen
representatives, as the class keys make it (see atom_graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter, sub

from .graphs import ConsistencyError, DistanceMatrix, Graph
from .walls import WallSystem


def scalar(d: DistanceMatrix, e: tuple[int, int], f: tuple[int, int]) -> int:
    """Scalar product of two oriented edges."""
    u, v = e
    x, y = f
    value = d[u][y] + d[v][x] - d[u][x] - d[v][y]
    if not -2 <= value <= 2:
        raise ConsistencyError(f"edge scalar {value} out of range for {e}, {f}")
    return value


def _vertical(neighbors: tuple[tuple[int, ...], ...], db):
    """Yield each edge whose ends differ in depth as (tail, head).

    db[v] is v's depth from the basepoint and the tail is the shallower end.
    Every edge is met from both ends and yielded only from its tail.  Tails
    ascend and neighbor lists are sorted, so the edges come out sorted.
    """
    for t, nb in enumerate(neighbors):
        dt = db[t]
        for h in nb:
            if db[h] > dt:
                yield t, h


def vertical_edges(g: Graph, b: int) -> tuple[tuple[int, int], ...]:
    """Edges whose endpoints differ in depth from b, oriented tail closer, sorted."""
    return tuple(_vertical(g.neighbors, g.distances()[b]))


@dataclass(frozen=True)
class ThetaClasses:
    """Vertical edges grouped by identical halfspace split pairs.

    Classes are ordered by their smallest oriented edge; edges within a
    class are sorted.
    """

    basepoint: int
    classes: tuple[tuple[tuple[int, int], ...], ...]


def theta1_classes(ws: WallSystem, d: DistanceMatrix, b: int) -> ThetaClasses:
    """Group the vertical edges of basepoint b by their splits.

    ws is read only for its type: taking the WallSystem means the wallspace
    check has passed, and that check read every row of the graph's matrix
    d.  A vertical edge oriented (t, h), tail t nearer b, is keyed by the
    packed difference P[t] - P[h], whose digits d(t, x) - d(h, x) place
    every vertex on its side (walls.splits): equal keys mean the same split
    in the same orientation, so the classes are those of equal split pairs.
    Edges (u, v) and (x, y) of one class have equal digits, so their scalar,
    (d(u, y) - d(v, y)) - (d(u, x) - d(v, x)), is
    (d(x, y) - d(y, y)) - (d(x, x) - d(y, x)) = 2.
    """
    packed = [*map(d.packed, range(d.n))]
    groups: dict[int, list[tuple[int, int]]] = {}
    for t, h in _vertical(d._neighbors, d[b]):
        groups.setdefault(packed[t] - packed[h], []).append((t, h))
    # Sorted edges in, so each class is sorted and the classes come in
    # order of their smallest edge.
    return ThetaClasses(b, tuple(map(tuple, groups.values())))


def atom_graph(d: DistanceMatrix, classes: ThetaClasses) -> Graph:
    """Adjacency graph of the edge classes: classes joined iff scalar 1.

    Requires the wallspace condition; under it the scalar between
    representatives of distinct classes is 0 or 1, and any other value
    raises ConsistencyError.  Which representatives are read does not
    matter, by the class keys of theta1_classes: if f = (x, y) and
    f' = (x', y') share a key P[x] - P[y], whose digits are the
    d(x, w) - d(y, w), then d(x, w) - d(y, w) = d(x', w) - d(y', w) for
    every w.  So scalar(e, f) = D_f(v) - D_f(u), for e = (u, v) and
    D_f(w) = d(x, w) - d(y, w), depends on f only through its key, and by
    symmetry on e only through its key.

    For representatives e = (u, v) and f = (x, y), with c = d.compare(u, v),
    scalar(e, f) is c[y] - c[x]: byte x of c is d(u, x) - d(v, x) + 1, and
    the ones cancel.  So each representative reads one comparison and the
    scalars against every later representative at C speed.
    """
    reps = [cls[0] for cls in classes.classes]
    k = len(reps)
    # A leading 0 keeps both itemgetter results tuples when one class
    # follows (itemgetter of one index returns a bare value); the difference
    # it adds, c[0] - c[0], is dropped.  The last class has none following.
    tails = [0, *(x for x, _ in reps)]
    heads = [0, *(y for _, y in reps)]
    edges: list[tuple[int, int]] = []
    for i, (u, v) in enumerate(reps[:-1]):
        c = d.compare(u, v)
        values = [*map(sub, itemgetter(0, *heads[i + 2:])(c),
                       itemgetter(0, *tails[i + 2:])(c))][1:]
        if not {0, 1}.issuperset(values):
            for j, value in enumerate(values, i + 1):
                if value not in (0, 1):
                    raise ConsistencyError(
                        f"classes {i} and {j} have representative scalar {value}")
        edges += zip(repeat(i), compress(range(i + 1, k), values))
    return Graph(k, edges, require_connected=False)
