"""The structural traversal graphs._bfs, against queue-based references.

The references are the deque-based loops that components, 2-colouring, the
root's sides and the oracle's vertex order used before they shared _bfs.
bipartite_root colours its root in its own walk, so its sides are checked
against the reference colouring of the root it returns, and its odd cycle
against the reference 2-colouring's.
"""

from collections import deque
from itertools import combinations
from unittest import mock

from hypothesis import given, settings, strategies as st

from johnson_embed import Graph, bipartite_root
from johnson_embed import oracle, rootgraph
from johnson_embed.graphs import (
    OddCycleWitness,
    TwoColoring,
    _bfs,
    induced_components,
    is_bipartite,
)
from johnson_embed.rootgraph import ODD_CYCLE_IN_ROOT, BipartiteRoot, line_graph


def reference_induced_components(g, s):
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


def reference_is_bipartite(g):
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
            return OddCycleWitness(reference_tree_cycle(parent, depth, u, v))
        for v in comp:
            colors[v] = depth[v] % 2
    return TwoColoring(tuple(colors))


def reference_tree_cycle(parent, depth, u, v):
    up = [u]
    vp = [v]
    a, b = u, v
    while a != b:
        a = parent[a]
        b = parent[b]
        up.append(a)
        vp.append(b)
    return tuple(up + vp[-2::-1])


def reference_pick_b_side(root, colors):
    b_side: set[int] = set()
    seen: set[int] = set()
    for r in range(root.n):
        if r in seen:
            continue
        comp = reference_component_of(root, r)
        seen |= comp
        side0 = {v for v in comp if colors[v] == 0}
        side1 = comp - side0
        b_side |= side1 if len(side1) < len(side0) else side0
    return b_side


def reference_component_of(root, start):
    comp = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in root.neighbors[u]:
            if w not in comp:
                comp.add(w)
                stack.append(w)
    return comp


def reference_bfs_order(g):
    order = [0]
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in g.neighbors[u]:
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    return order


def random_graph(draw, n, cycle=0, extra=14):
    """Up to extra random edges on n vertices, plus the cycle 0..cycle-1 when
    cycle >= 3."""
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=extra)) if pairs else set()
    if cycle >= 3:
        edges |= {(i, i + 1) for i in range(cycle - 1)} | {(0, cycle - 1)}
    return Graph(n, sorted(edges), require_connected=False)


@st.composite
def graphs_and_subsets(draw):
    """A graph on at most 14 vertices, possibly disconnected, plus a random
    vertex subset.  Half are line graphs, which reach the root stage; a
    sparse preimage around a drawn cycle gives odd cycles in the root."""
    if draw(st.booleans()):
        g = random_graph(draw, draw(st.integers(0, 14)))
    else:
        n = draw(st.integers(0, 7))
        h = random_graph(draw, n, cycle=draw(st.integers(0, n)), extra=4)
        g, _ = line_graph(h)
    s = draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    return g, s


@settings(max_examples=400, deadline=None)
@given(graphs_and_subsets())
def test_traversals_match_queue_references(case):
    g, s = case
    assert induced_components(g, s) == reference_induced_components(g, s)
    assert induced_components(g, range(g.n)) == reference_induced_components(g, range(g.n))
    assert repr(is_bipartite(g)) == repr(reference_is_bipartite(g))
    result = bipartite_root(g)
    if isinstance(result, BipartiteRoot):
        root = result.root
        b_side = reference_pick_b_side(root, reference_is_bipartite(root).colors)
        assert result.b_side == tuple(sorted(b_side))
        assert result.a_side == tuple(sorted(set(range(root.n)) - b_side))
        assert all(i in b_side for i, _ in result.vertex_to_edge)
    else:
        # The root that bipartite_root builds, as is_bipartite receives it.
        roots = []
        with mock.patch.object(rootgraph, "is_bipartite",
                               lambda h: roots.append(h) or is_bipartite(h)):
            assert repr(bipartite_root(g)) == repr(result)
        if result.kind == ODD_CYCLE_IN_ROOT:
            [root] = roots
            assert result.cycle == reference_is_bipartite(root).cycle
        else:
            assert roots == []
    if g.n and len(induced_components(g, range(g.n))) == 1:
        connected = Graph(g.n, g.edges)
        orders = []
        with mock.patch.object(oracle, "_bfs", lambda *a: orders.append(_bfs(*a)) or orders[-1]):
            oracle.brute_force_embed(connected, 1, max(2, g.n))
        assert orders == [reference_bfs_order(connected)]


def test_bfs_enters_only_unreached_vertices():
    # Path 0-1-2-3-4 with 2 marked reached: the search from 0 stops at 1.
    neighbors = ((1,), (0, 2), (1, 3), (2, 4), (3,))
    parent = [-1, -1, 7, -1, -1]
    assert _bfs(neighbors, 0, parent) == [0, 1]
    assert parent == [0, 0, 7, -1, -1]
    assert _bfs(neighbors, 4, parent) == [4, 3]
    assert parent == [0, 0, 7, 4, 4]
