"""Edge scalar products and the atom graph.

The scalar of two oriented edges e = (u, v) and f = (x, y) is
d(u,y) + d(v,x) - d(u,x) - d(v,y); its value always lies in -2..2.  With a
basepoint b fixed, the vertical edges (those whose endpoints sit at
different depths) are oriented tail-closer-to-b and grouped into classes by
their halfspace split pair.  The splits are read from the WallSystem of the
wallspace check, which split every edge once; nothing here splits again.
On graphs passing the wallspace condition, two such edges share a class
exactly when their scalar is 2, and the atom graph joins two classes exactly
when representatives have scalar 1, a value independent of the chosen
representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def vertical_edges(g: Graph, d: DistanceMatrix, b: int) -> tuple[tuple[int, int], ...]:
    """Edges whose endpoints differ in depth from b, oriented tail closer, sorted."""
    oriented = []
    for u, v in g.edges:
        du, dv = d[b][u], d[b][v]
        if du < dv:
            oriented.append((u, v))
        elif dv < du:
            oriented.append((v, u))
    return tuple(sorted(oriented))


@dataclass(frozen=True)
class ThetaClasses:
    """Vertical edges grouped by identical halfspace split pairs.

    Classes are ordered by their smallest oriented edge; edges within a
    class are sorted.
    """

    basepoint: int
    classes: tuple[tuple[tuple[int, int], ...], ...]


def theta1_classes(ws: WallSystem, d: DistanceMatrix, b: int) -> ThetaClasses:
    """Group the vertical edges of basepoint b by the splits in ws.

    Taking the WallSystem means the wallspace check has passed.  Defensively
    verifies that edges sharing a split pair have scalar 2 against their
    class representative.
    """
    db = d[b]
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for ew in ws.edge_walls:
        u, v = ew.edge
        if db[u] < db[v]:
            groups.setdefault((ew.w_uv, ew.w_vu), []).append((u, v))
        elif db[v] < db[u]:
            groups.setdefault((ew.w_vu, ew.w_uv), []).append((v, u))
    classes = sorted(tuple(sorted(members)) for members in groups.values())
    for members in classes:
        rep = members[0]
        for edge in members[1:]:
            if scalar(d, rep, edge) != 2:
                raise ConsistencyError(
                    f"edges {rep} and {edge} share a split pair but have scalar "
                    f"{scalar(d, rep, edge)}")
    return ThetaClasses(b, tuple(classes))


def atom_graph(d: DistanceMatrix, classes: ThetaClasses, *,
               paranoid: bool = False) -> Graph:
    """Adjacency graph of the edge classes: classes joined iff scalar 1.

    Requires the wallspace condition; under it the scalar between
    representatives of distinct classes is 0 or 1 and does not depend on the
    representatives.  With paranoid=True every cross pair is recomputed and
    any disagreement raises ConsistencyError.
    """
    reps = [cls[0] for cls in classes.classes]
    k = len(reps)
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            value = scalar(d, reps[i], reps[j])
            if value not in (0, 1):
                raise ConsistencyError(
                    f"classes {i} and {j} have representative scalar {value}")
            if paranoid:
                for e in classes.classes[i]:
                    for f in classes.classes[j]:
                        if scalar(d, e, f) != value:
                            raise ConsistencyError(
                                f"scalar of {e}, {f} disagrees with class "
                                f"representatives of {i}, {j}")
            if value == 1:
                edges.append((i, j))
    return Graph(k, edges, require_connected=False)
