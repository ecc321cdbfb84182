"""Build verified embeddings into Johnson graphs and hypercubes.

The Johnson pipeline gates on the wallspace condition, groups vertical
edges into classes, rebuilds the bipartite root of the atom graph, and
propagates vertex labels down a BFS tree: the root's b side becomes the
basepoint's label, and each tree edge swaps its class's b-element for its
a-element.  Every produced labeling is re-verified against the full
distance matrix before being returned; a verification failure is reported
as an INTERNAL certificate and indicates a bug, never a property of the
input.

The hypercube embedding reads the same wall system: a bipartite graph has no
equidistant vertices, so it passes the wallspace check exactly when every
edge split has convex sides, and then every wall has multiplicity 2.  The
walls are the coordinates, and a vertex's label collects the walls whose far
side contains it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atom import ThetaClasses, atom_graph, theta1_classes
from .graphs import (
    ConsistencyError,
    DistanceMatrix,
    Graph,
    OddCycleWitness,
    is_bipartite,
    # Unused here, but perfbench's tracer test checks that patching is_convex
    # reaches this module's binding too, so the name stays bound.
    is_convex,  # noqa: F401
)
from .rootgraph import BipartiteRoot, RootCertificate, bipartite_root
from .walls import WallSystem, WcCertificate, check_wc

WC = "WC"
AGC = "AGC"
INTERNAL = "INTERNAL"
NOT_BIPARTITE = "NOT_BIPARTITE"
NONCONVEX_HALFSPACE = "NONCONVEX_HALFSPACE"


@dataclass(frozen=True)
class Embedding:
    """Isometric embedding into the Johnson graph of m-subsets of a ground set.

    labels[v] is vertex v's m-subset of 0..ground_set_size-1; pairwise
    symmetric differences equal twice the graph distance.
    """

    m: int
    ground_set_size: int
    labels: tuple[frozenset[int], ...]
    basepoint: int


@dataclass(frozen=True)
class LabelAssignment:
    """Per-class label pairs: class i swaps pairs[i][0] (b side) for pairs[i][1]."""

    basepoint: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class InternalWitness:
    """Diagnostic payload for a pipeline consistency failure."""

    reason: str
    data: tuple = ()


@dataclass(frozen=True)
class RejectionCertificate:
    """Why the graph was rejected: the failing stage plus its witness."""

    stage: str
    payload: "WcCertificate | RootCertificate | InternalWitness"


@dataclass(frozen=True)
class PipelineRun:
    """Everything one pipeline invocation produced, for diagnostics and tests."""

    basepoint: int
    wall_system: WallSystem | None = None
    wc_certificate: WcCertificate | None = None
    classes: ThetaClasses | None = None
    sigma: Graph | None = None
    root: BipartiteRoot | None = None
    root_certificate: RootCertificate | None = None
    assignment: LabelAssignment | None = None
    embedding: Embedding | None = None
    internal: InternalWitness | None = None

    @property
    def result(self) -> "Embedding | RejectionCertificate":
        if self.wc_certificate is not None:
            return RejectionCertificate(WC, self.wc_certificate)
        if self.root_certificate is not None:
            return RejectionCertificate(AGC, self.root_certificate)
        if self.internal is not None:
            return RejectionCertificate(INTERNAL, self.internal)
        assert self.embedding is not None
        return self.embedding


def bfs_tree(g: Graph, b: int) -> tuple[int | None, ...]:
    """Parent mapping of the BFS tree rooted at b.

    The parent of v is its smallest neighbor one step closer to b;
    parent[b] is None.
    """
    db = g.distances()[b]
    parents: list[int | None] = []
    for v in range(g.n):
        if v == b:
            parents.append(None)
            continue
        parents.append(min(w for w in g.neighbors[v] if db[w] == db[v] - 1))
    return tuple(parents)


def run_pipeline(g: Graph, b: int = 0, *, paranoid: bool = False) -> PipelineRun:
    """Run the full Johnson embedding pipeline from basepoint b."""
    if not 0 <= b < g.n:
        raise ValueError(f"basepoint {b} out of range")
    d = g.distances()
    wc = check_wc(g, d)
    if isinstance(wc, WcCertificate):
        return PipelineRun(basepoint=b, wc_certificate=wc)
    classes = theta1_classes(wc, d, b)
    sigma = atom_graph(d, classes, paranoid=paranoid)
    root = bipartite_root(sigma)
    if isinstance(root, RootCertificate):
        return PipelineRun(basepoint=b, wall_system=wc, classes=classes,
                           sigma=sigma, root_certificate=root)
    b_ids = sorted(root.b_side)
    a_ids = sorted(root.a_side)
    dense = {rid: i for i, rid in enumerate(b_ids)}
    dense.update({rid: len(b_ids) + i for i, rid in enumerate(a_ids)})
    assignment = LabelAssignment(
        b, tuple((dense[i], dense[j]) for i, j in root.vertex_to_edge))
    m = len(b_ids)
    ground = len(b_ids) + len(a_ids)
    edge_class = {
        e: idx for idx, cls in enumerate(classes.classes) for e in cls
    }
    parent = bfs_tree(g, b)
    labels: list[frozenset[int] | None] = [None] * g.n
    labels[b] = frozenset(range(m))
    internal: InternalWitness | None = None
    for v in sorted(range(g.n), key=lambda v: (d[b][v], v)):
        if v == b:
            continue
        u = parent[v]
        lam = edge_class.get((u, v))
        if lam is None:
            internal = InternalWitness("tree edge missing from the vertical classes", (u, v))
            break
        i, j = assignment.pairs[lam]
        lu = labels[u]
        if i not in lu or j in lu:
            internal = InternalWitness(
                "class label pair does not apply to the parent label",
                (u, v, lam, i, j, tuple(sorted(lu))))
            break
        labels[v] = (lu - {i}) | {j}
    if internal is None:
        verdict = verify_embedding(d, labels)
        if verdict is not True:
            internal = InternalWitness(
                "constructed labeling failed isometry verification",
                (verdict.x, verdict.y, verdict.sym_diff, verdict.expected))
    if internal is not None:
        return PipelineRun(basepoint=b, wall_system=wc, classes=classes,
                           sigma=sigma, root=root, assignment=assignment,
                           internal=internal)
    embedding = Embedding(m, ground, tuple(labels), b)
    return PipelineRun(basepoint=b, wall_system=wc, classes=classes,
                       sigma=sigma, root=root, assignment=assignment,
                       embedding=embedding)


def build_embedding(g: Graph, b: int = 0, *, paranoid: bool = False
                    ) -> "Embedding | RejectionCertificate":
    """Decide Johnson embeddability: a verified Embedding or a certificate."""
    return run_pipeline(g, b, paranoid=paranoid).result


@dataclass(frozen=True)
class IsometryWitness:
    """Vertex pair whose label symmetric difference misses the expected value."""

    x: int
    y: int
    sym_diff: int
    expected: int


def verify_embedding(d: DistanceMatrix, labels) -> "bool | IsometryWitness":
    """Check |labels[x] ^ labels[y]| == 2 d(x,y) for every vertex pair.

    labels may use any hashable universe but must all have the same size;
    unequal sizes raise ValueError.  Returns True or the first witness in
    lexicographic pair order.
    """
    masks = _bitmasks(labels)
    if len(masks) != d.n:
        raise ValueError(f"expected {d.n} labels, got {len(masks)}")
    if len({mask.bit_count() for mask in masks}) > 1:
        raise ValueError("labels must all have the same size")
    mismatch = _first_mismatch(d, masks, 2)
    if mismatch is None:
        return True
    x, y, diff = mismatch
    return IsometryWitness(x, y, diff, 2 * d[x][y])


def _bitmasks(labels) -> list[int]:
    """Each label as an int bitmask, elements numbered in order of first appearance."""
    bit: dict = {}
    masks = []
    for lab in labels:
        mask = 0
        for e in lab:
            mask |= 1 << bit.setdefault(e, len(bit))
        masks.append(mask)
    return masks


def _first_mismatch(d: DistanceMatrix, masks: list[int], scale: int
                    ) -> "tuple[int, int, int] | None":
    """First pair x < y, in lexicographic order, whose masks differ in other
    than scale * d(x, y) bits, as (x, y, bits differing); None if none does."""
    for x, bx in enumerate(masks):
        diffs = list(map(int.bit_count, map(bx.__xor__, masks[x + 1:])))
        expected = [scale * dxy for dxy in d[x][x + 1:]]
        if diffs != expected:
            for i, (diff, want) in enumerate(zip(diffs, expected)):
                if diff != want:
                    return x, x + 1 + i, diff
    return None


@dataclass(frozen=True)
class HypercubeEmbedding:
    """Isometric embedding into a hypercube: labels are coordinate subsets."""

    dimension: int
    labels: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class HypercubeCertificate:
    """Why no hypercube embedding exists: odd cycle or a non-convex side."""

    kind: str
    odd_cycle: tuple[int, ...] | None = None
    edge: tuple[int, int] | None = None
    half: tuple[int, ...] | None = None
    witness: object = None


def embed_hypercube(g: Graph, d: DistanceMatrix | None = None
                    ) -> "HypercubeEmbedding | HypercubeCertificate":
    """Decide hypercube embeddability (bipartite plus convex edge sides).

    Coordinates are the walls of check_wc in first-appearance order; a
    vertex's label collects the walls whose side away from vertex 0 contains
    it.  The labeling is re-verified against all pairwise distances before
    being returned.
    """
    if d is None:
        d = g.distances()
    coloring = is_bipartite(g)
    if isinstance(coloring, OddCycleWitness):
        return HypercubeCertificate(NOT_BIPARTITE, odd_cycle=coloring.cycle)
    ws = check_wc(g, d)
    if isinstance(ws, WcCertificate):
        if ws.kind != NONCONVEX_HALFSPACE:
            raise ConsistencyError(f"bipartite graph failed the wallspace check: {ws}")
        return HypercubeCertificate(
            NONCONVEX_HALFSPACE, edge=ws.edge, half=ws.half, witness=ws.witness)
    if any(w.multiplicity != 2 for w in ws.walls):
        raise ConsistencyError("bipartite graph has a wall of multiplicity 1")
    far_sides = [frozenset(w.halves[1]) for w in ws.walls]
    labels = tuple(
        frozenset(i for i, far in enumerate(far_sides) if v in far)
        for v in range(g.n)
    )
    mismatch = _first_mismatch(d, _bitmasks(labels), 1)
    if mismatch is not None:
        x, y, _ = mismatch
        raise ConsistencyError(f"hypercube labeling failed verification at ({x}, {y})")
    return HypercubeEmbedding(len(far_sides), labels)
