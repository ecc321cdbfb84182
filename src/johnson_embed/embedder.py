"""Build verified embeddings into Johnson graphs and hypercubes.

The Johnson pipeline gates on the wallspace condition, groups vertical
edges into classes, rebuilds the bipartite root of the atom graph, and
propagates vertex labels along the one structural walk, graphs._bfs from
the basepoint: the root's b side becomes the basepoint's label, and each
tree edge swaps its class's b-element for its a-element.  Any tree of
vertical edges gives the same labels, because every edge of a class swaps
that class's pair.  Every produced labeling is re-verified against the full
distance matrix before being returned; a verification failure is reported
as an INTERNAL certificate and indicates a bug, never a property of the
input.  run_pipeline decides in one place: its PipelineRun stores the one
result, an Embedding or the RejectionCertificate of the stage that
rejected (WC, AGC or INTERNAL), beside the stage outputs that led to it.

The verifier checks intersection rows, one big-int step per vertex.  For
labels of m elements each, |L_x ^ L_y| = 2 d(x, y) is m - |L_x & L_y| =
d(x, y).  With M_e the int whose digit y, in the matrix's packed layout
(DistanceMatrix.packed), is 1 when e is in L_y, the int S_v = sum of M_e
over e in L_v has digit y equal to |L_v & L_y|.  Walking a BFS tree from
vertex 0, a tree edge uv whose labels differ in two elements, i in L_u and
j in L_v, gives S_v = S_u - M_i + M_j, and v passes when
m * ones - S_v is its packed row P[v].  While m < 256**width no digit
carries, so the int comparison is exact, and every vertex but 0 passing
is every pair passing; S_0 is the sum of M_e over e in L_0.  The
pairwise path (_first_mismatch, one popcount per pair) runs only when the
rows do not match, to name the lexicographically first failing pair, or
when m is too large for a digit.

The hypercube embedding reads the same wall system: a bipartite graph has no
equidistant vertices, so it passes the wallspace check exactly when every
edge split has convex sides, and then every wall has multiplicity 2.  The
walls are the coordinates, and a vertex's label collects the walls whose far
side contains it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .atom import ThetaClasses, atom_graph, theta1_classes
from .graphs import (
    ConsistencyError,
    DistanceMatrix,
    Graph,
    OddCycleWitness,
    _bfs,
    is_bipartite,
    # Unused here, but perfbench's tracer test checks that patching is_convex
    # reaches this module's binding too, so the name stays bound.
    is_convex,  # noqa: F401
)
from .rootgraph import BipartiteRoot, RootCertificate, bipartite_root
from .walls import NONCONVEX_HALFSPACE, WallSystem, WcCertificate, check_wc

WC = "WC"
AGC = "AGC"
INTERNAL = "INTERNAL"
NOT_BIPARTITE = "NOT_BIPARTITE"


@dataclass(frozen=True)
class Embedding:
    """Isometric embedding into the Johnson graph of m-subsets of a ground set.

    labels[v] is vertex v's m-subset of 0..ground_set_size-1; pairwise
    symmetric differences equal twice the graph distance.
    """

    m: int
    ground_set_size: int
    basepoint: int
    labels: tuple[frozenset[int], ...]


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
    """One pipeline invocation: its decision and the stage outputs behind it.

    result is the decision build_embedding returns, stored once.  A stage
    reached only after a rejection stays None: a WC rejection sets no stage
    output, and an AGC rejection sets wall_system, classes and sigma.
    """

    basepoint: int
    result: "Embedding | RejectionCertificate"
    wall_system: WallSystem | None = None
    classes: ThetaClasses | None = None
    sigma: Graph | None = None
    root: BipartiteRoot | None = None
    assignment: LabelAssignment | None = None


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
        # Neighbor lists are sorted, so the first one a level up is the smallest.
        up = db[v] - 1
        parents.append(next(w for w in g.neighbors[v] if db[w] == up))
    return tuple(parents)


def run_pipeline(g: Graph, b: int = 0) -> PipelineRun:
    """Run the full Johnson embedding pipeline from basepoint b."""
    if not 0 <= b < g.n:
        raise ValueError(f"basepoint {b} out of range")
    d = g.distances()
    wc = check_wc(g)
    if isinstance(wc, WcCertificate):
        return PipelineRun(b, RejectionCertificate(WC, wc))
    classes = theta1_classes(wc, d, b)
    sigma = atom_graph(d, classes)
    root = bipartite_root(sigma)
    if isinstance(root, RootCertificate):
        return PipelineRun(b, RejectionCertificate(AGC, root), wc, classes, sigma)
    # Elements numbered b side first; bipartite_root sorts both sides.
    dense = {rid: i for i, rid in enumerate(root.b_side + root.a_side)}
    assignment = LabelAssignment(
        b, tuple((dense[i], dense[j]) for i, j in root.vertex_to_edge))
    m = len(root.b_side)
    ground = len(dense)
    edge_class = {
        e: idx for idx, cls in enumerate(classes.classes) for e in cls
    }
    parent = [-1] * g.n
    order = _bfs(g.neighbors, b, parent)
    labels: list[frozenset[int] | None] = [None] * g.n
    labels[b] = frozenset(range(m))
    # masks[v] is labels[v] as an int, bit e set for element e.
    masks = [0] * g.n
    masks[b] = (1 << m) - 1
    # A BFS parent is one step nearer b, so (parent, child) is a vertical
    # edge in its class's orientation.
    for v in order[1:]:
        u = parent[v]
        lam = edge_class[u, v]
        i, j = assignment.pairs[lam]
        lu = labels[u]
        if i not in lu or j in lu:
            result = RejectionCertificate(INTERNAL, InternalWitness(
                "class label pair does not apply to the parent label",
                (u, v, lam, i, j, tuple(sorted(lu)))))
            break
        labels[v] = (lu - {i}) | {j}
        masks[v] = masks[u] ^ 1 << i ^ 1 << j
    else:
        verdict = _verify_masks(d, masks)
        if verdict is True:
            result = Embedding(m, ground, b, tuple(labels))
        else:
            result = RejectionCertificate(INTERNAL, InternalWitness(
                "constructed labeling failed isometry verification",
                (verdict.x, verdict.y, verdict.sym_diff, verdict.expected)))
    return PipelineRun(b, result, wc, classes, sigma, root, assignment)


def build_embedding(g: Graph, b: int = 0) -> "Embedding | RejectionCertificate":
    """Decide Johnson embeddability: a verified Embedding or a certificate."""
    return run_pipeline(g, b).result


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
    lexicographic pair order.  The intersection rows decide, one big-int
    step per vertex (see the module docstring); the pairwise check runs
    only to name a failing pair, or when a label holds 256**width elements
    or more.
    """
    masks = _bitmasks(labels)
    if len(masks) != d.n:
        raise ValueError(f"expected {d.n} labels, got {len(masks)}")
    if len({mask.bit_count() for mask in masks}) > 1:
        raise ValueError("labels must all have the same size")
    return _verify_masks(d, masks)


def _verify_masks(d: DistanceMatrix, masks: list[int]) -> "bool | IsometryWitness":
    """verify_embedding on labels given as int bitmasks of one size.

    The intersection rows decide (_rows_match).  Only when they do not
    match, or m >= 256**width, does the pairwise path run, so a failure
    gets the lexicographically first witness whichever path found it.  A
    bijection of the elements keeps every symmetric difference, so any
    numbering gives the same answer and witness.
    """
    if _rows_match(d, masks):
        return True
    mismatch = _first_mismatch(d, masks)
    if mismatch is None:
        return True
    x, y, diff = mismatch
    return IsometryWitness(x, y, diff, 2 * d[x][y])


# Bytes of bin() output: '0' and '1' to digits 0 and 1, the 'b' of '0b' to 0.
_BIN_DIGITS = bytes.maketrans(b"01b", b"\0\1\0")


def _rows_match(d: DistanceMatrix, masks: list[int]) -> bool:
    """True iff m - |L_x & L_y| == d(x, y) for every pair, checked per vertex.

    masks hold m elements each.  False means a vertex failed, or m does not
    fit in a digit, and decides nothing: the caller runs the pairwise path.
    """
    if not masks:
        return False
    n, width = d.n, d.width
    m = masks[0].bit_count()
    if m >= 256 ** width:
        return False
    ground = max(masks).bit_length()
    stride = ground + 3
    # Row y is bin(masks[y] | 1 << ground): '0b1', then bit e of masks[y] at
    # offset stride - 1 - e, so a strided slice reads one element's column.
    bits = "".join(map(bin, map((1 << ground).__or__, masks))).encode()
    bits = bits.translate(_BIN_DIGITS)
    digits = bytearray(n * width)
    element = []
    for i in range(stride - 1, 2, -1):
        digits[::width] = bits[i::stride]
        element.append(int.from_bytes(digits, "little"))
    top = m * d._ones
    rows = [*map(d.packed, range(n))]
    parent = [-1] * n
    order = _bfs(d._neighbors, 0, parent)
    # S_0 is the sum of M_e over e in L_0, picked by row 0's bits read from
    # offset stride - 1 down: digit y is |L_0 & L_y| <= m, which fits a
    # digit.  Row 0 needs no check of its own: row y's check covers (0, y).
    S = [0] * n
    S[0] = sum(compress(element, bits[stride - 1:2:-1]))
    # S[u] is held until u's last BFS child is done: about two levels.
    last = 0
    for v in order[1:]:
        u = parent[v]
        if u != last:
            S[last] = 0
            last = u
        mu, mv = masks[u], masks[v]
        if (mu ^ mv).bit_count() != 2:
            return False
        s = S[u] - element[(mu & ~mv).bit_length() - 1] + element[(mv & ~mu).bit_length() - 1]
        if top - s != rows[v]:
            return False
        S[v] = s
    return True


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


def _first_mismatch(d: DistanceMatrix, masks: list[int]
                    ) -> "tuple[int, int, int] | None":
    """First pair x < y, in lexicographic order, whose masks differ in other
    than 2 d(x, y) bits, as (x, y, bits differing); None if none does."""
    for x, bx in enumerate(masks):
        diffs = list(map(int.bit_count, map(bx.__xor__, masks[x + 1:])))
        expected = [2 * dxy for dxy in d[x][x + 1:]]
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


def embed_hypercube(g: Graph) -> "HypercubeEmbedding | HypercubeCertificate":
    """Decide hypercube embeddability (bipartite plus convex edge sides).

    Coordinates are the walls of check_wc in first-appearance order; a
    vertex's label collects the walls whose side away from vertex 0 contains
    it.  The labeling is re-verified against all pairwise distances of g's
    one distance matrix, the one check_wc read, before being returned.
    """
    coloring = is_bipartite(g)
    if isinstance(coloring, OddCycleWitness):
        return HypercubeCertificate(NOT_BIPARTITE, odd_cycle=coloring.cycle)
    ws = check_wc(g)
    if isinstance(ws, WcCertificate):
        if ws.kind != NONCONVEX_HALFSPACE:
            raise ConsistencyError(f"bipartite graph failed the wallspace check: {ws}")
        return HypercubeCertificate(
            NONCONVEX_HALFSPACE, edge=ws.edge, half=ws.half, witness=ws.witness)
    if any(w.multiplicity != 2 for w in ws.walls):
        raise ConsistencyError("bipartite graph has a wall of multiplicity 1")
    dimension = len(ws.walls)
    far = [0] * g.n
    for i, w in enumerate(ws.walls):
        for v in w.halves[1]:
            far[v] |= 1 << i
    # Each coordinate doubled to dimension elements: i when coordinate i is
    # set, dimension + i when it is clear.  Symmetric differences double,
    # so the labels are isometric iff these pass as Johnson labels.
    full = (1 << dimension) - 1
    verdict = _verify_masks(g.distances(), [x | (full ^ x) << dimension for x in far])
    if verdict is not True:
        raise ConsistencyError(
            f"hypercube labeling failed verification at ({verdict.x}, {verdict.y})")
    labels = tuple(
        frozenset(i for i in range(dimension) if x >> i & 1) for x in far)
    return HypercubeEmbedding(dimension, labels)
