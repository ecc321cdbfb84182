"""Benchmark inputs, generated from a seed by this file's own code.

Nothing here imports johnson_embed, so a change to the program cannot change
what the benchmark feeds it.  An input is a plain edge list on vertices
0..n-1.  Family members also carry an isometric labelling built from their
definition (an m-subset of 0..ground-1 per vertex), which the CLI workload
hands to `verify` and the tests hand to the checker.

Every family member is relabelled by a seeded random permutation, so one seed
fixes the vertex numbering and therefore the order in which the program scans
edges; the family list itself is fixed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class Input:
    """One benchmark input: a named connected graph, optionally with labels."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[frozenset[int], ...] | None = None


# ---- families, each returning (n, edges, labels or None) ----

def johnson(m: int, n: int):
    verts = [frozenset(c) for c in combinations(range(n), m)]
    edges = [(i, j) for i, j in combinations(range(len(verts)), 2)
             if len(verts[i] & verts[j]) == m - 1]
    return len(verts), edges, verts


def hypercube(d: int):
    edges = [(x, x | 1 << b) for x in range(1 << d) for b in range(d)
             if not x & 1 << b]
    # Coordinate b contributes element b when set and d+b when clear.
    labels = [frozenset(b if x >> b & 1 else d + b for b in range(d))
              for x in range(1 << d)]
    return 1 << d, edges, labels


def cycle(k: int):
    # Arcs of floor(k/2) consecutive elements on a k-element circle.
    h = k // 2
    labels = [frozenset((i + j) % k for j in range(h)) for i in range(k)]
    return k, [(i, (i + 1) % k) for i in range(k)], labels


def path(k: int):
    # A path is an isometric subgraph of Q_{k-1}: vertex i sets bits 0..i-1.
    d = k - 1
    labels = [frozenset(b if b < i else d + b for b in range(d)) for i in range(k)]
    return k, [(i, i + 1) for i in range(d)], labels


def complete(k: int):
    return k, list(combinations(range(k), 2)), [frozenset({i}) for i in range(k)]


def petersen():
    verts = list(combinations(range(5), 2))
    edges = [(i, j) for i, j in combinations(range(10), 2)
             if not set(verts[i]) & set(verts[j])]
    return 10, edges, None


def wheel(k: int):
    """A k-cycle plus a hub: passes the wallspace condition, and for k = 5 its
    class graph's root has an odd cycle."""
    return k + 1, [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)], None


def diamond6():
    """Six vertices passing the wallspace condition whose class graph has an
    induced diamond."""
    return 6, [(0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 4),
               (2, 5), (3, 4)], None


def product(a, b):
    """Cartesian product; labels are disjoint unions over shifted ground sets."""
    na, ea, la = a
    nb, eb, lb = b
    edges = [(x * nb + y, x2 * nb + y) for x, x2 in ea for y in range(nb)]
    edges += [(x * nb + y, x * nb + y2) for x in range(na) for y, y2 in eb]
    labels = None
    if la is not None and lb is not None:
        shift = 1 + max(max(lab, default=-1) for lab in la)
        labels = [la[x] | frozenset(e + shift for e in lb[y])
                  for x in range(na) for y in range(nb)]
    return na * nb, edges, labels


def relabel(rng: random.Random, name: str, graph) -> Input:
    """Apply a seeded vertex permutation and shuffle the edge order."""
    n, edges, labels = graph
    perm = list(range(n))
    rng.shuffle(perm)
    new_edges = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(new_edges)
    new_labels = None
    if labels is not None:
        slots: list[frozenset[int]] = [frozenset()] * n
        for v, lab in enumerate(labels):
            slots[perm[v]] = frozenset(lab)
        new_labels = tuple(slots)
    return Input(name, n, tuple(new_edges), new_labels)


# ---- seeded random graphs ----

def sparse_connected(rng: random.Random, n: int, avg_degree: float = 4.0):
    """Random recursive tree plus uniform extra edges up to n*avg_degree/2."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    target = int(n * avg_degree / 2)
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return n, sorted(edges), None


def one_edge_change(rng: random.Random, graph, add: bool):
    """Add one missing edge, or delete one edge (the bases stay connected)."""
    n, edges, _ = graph
    edges = [tuple(sorted(e)) for e in edges]
    if add:
        present = set(edges)
        while True:
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) not in present:
                return n, edges + [(u, v)], None
    drop = rng.randrange(len(edges))
    return n, edges[:drop] + edges[drop + 1:], None


# ---- workload corpora ----

FAMILIES_ACCEPT = (
    ("J(3,7)", lambda: johnson(3, 7)),
    ("J(2,8)", lambda: johnson(2, 8)),
    ("Q5", lambda: hypercube(5)),
    ("Q6", lambda: hypercube(6)),
    ("C48", lambda: cycle(48)),
    ("C49", lambda: cycle(49)),
    ("P48", lambda: path(48)),
    ("Petersen", petersen),
    ("K10", lambda: complete(10)),
    ("C6xC6", lambda: product(cycle(6), cycle(6))),
    ("J(2,5)xP4", lambda: product(johnson(2, 5), path(4))),
    ("K4xC5", lambda: product(complete(4), cycle(5))),
)

# random-reject: sparse graphs at evenly spaced sizes, and one-edge changes of
# three embeddable bases.  The counts are fixed, so only the random choices,
# never the mix, depend on the seed.  Nine in ten sparse graphs are rejected
# at the first edge, so their cost grows smoothly with n; with two thirds of
# the inputs sparse, the median and p90 both fall among them, where the
# distribution is dense and changes little from seed to seed.
SPARSE_GRAPHS = 240
EDITS = (("Q5", lambda: hypercube(5)), ("J(3,7)", lambda: johnson(3, 7)),
         ("Q6", lambda: hypercube(6)))
EDITS_PER_BASE = 40

# cli-small: graphs of at most 20 vertices, accepted and rejected ones.
CLI_GRAPHS = (
    ("C5", lambda: cycle(5)),
    ("C6", lambda: cycle(6)),
    ("P6", lambda: path(6)),
    ("K5", lambda: complete(5)),
    ("Q3", lambda: hypercube(3)),
    ("Q4", lambda: hypercube(4)),
    ("J(2,5)", lambda: johnson(2, 5)),
    ("Petersen", petersen),
    ("K4xK2", lambda: product(complete(4), complete(2))),
    ("W5", lambda: wheel(5)),
    ("D6", diamond6),
)
CLI_RANDOM = 3
CLI_RANDOM_SIZE = 12


def families_accept(seed: int) -> list[Input]:
    rng = random.Random(seed)
    return [relabel(rng, name, make()) for name, make in FAMILIES_ACCEPT]


def random_reject(seed: int) -> list[Input]:
    rng = random.Random(seed)
    out = []
    for i in range(SPARSE_GRAPHS):
        n = 100 + 150 * i // (SPARSE_GRAPHS - 1)
        out.append(relabel(rng, f"sparse{n}", sparse_connected(rng, n)))
    for name, make in EDITS:
        base = make()
        for i in range(EDITS_PER_BASE):
            add = i % 2 == 0
            tag = "+e" if add else "-e"
            out.append(relabel(rng, f"{name}{tag}{i // 2}", one_edge_change(rng, base, add)))
    return out


def cli_small(seed: int) -> list[Input]:
    rng = random.Random(seed)
    out = [relabel(rng, name, make()) for name, make in CLI_GRAPHS]
    for i in range(CLI_RANDOM):
        out.append(relabel(rng, f"random{i}",
                           sparse_connected(rng, CLI_RANDOM_SIZE, 3.0)))
    return out


CORPORA = {
    "families-accept": families_accept,
    "random-reject": random_reject,
    "cli-small": cli_small,
}


def fingerprint(inputs: list[Input]) -> str:
    """sha256 of a canonical serialization of the inputs and their labels."""
    doc = [[i.name, i.n, [list(e) for e in i.edges],
            None if i.labels is None else [sorted(lab) for lab in i.labels]]
           for i in inputs]
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def edge_list_text(inp: Input) -> str:
    """The program's edge-list file format."""
    lines = [f"# {inp.name}", str(inp.n)]
    lines.extend(f"{u} {v}" for u, v in inp.edges)
    return "\n".join(lines) + "\n"
