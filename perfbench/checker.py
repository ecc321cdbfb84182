"""Independent answer checker.

Every check starts from the input edge list alone: distances come from this
file's own breadth-first search, and nothing here imports johnson_embed.
Answers arrive as plain dicts shaped like the program's JSON documents, so
the same checks serve library results and CLI output.

Each `check_*` function returns None when the answer holds up, or a one-line
reason naming what was refuted.  Whole-graph verdicts that the program only
reports as "pass" (the wallspace condition on every edge, IC, PC, LC) are
recomputed here by brute force, which is meant for the small CLI graphs.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

PRIME = "PRIME"
DOUBLE_PRIME = "DOUBLE_PRIME"


class Metric:
    """Adjacency sets of one input plus BFS rows computed on demand."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = tuple(sorted((min(e), max(e)) for e in edges))
        self.adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self._rows: dict[int, list[int]] = {}
        self._memo: dict[str, object] = {}

    def row(self, s: int) -> list[int]:
        r = self._rows.get(s)
        if r is None:
            r = [-1] * self.n
            r[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self.adj[u]:
                    if r[w] < 0:
                        r[w] = r[u] + 1
                        queue.append(w)
            self._rows[s] = r
        return r

    def d(self, u: int, v: int) -> int:
        return self.row(u)[v]

    def memo(self, key: str, compute):
        """Cache a whole-graph verdict; inputs never change after setup."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


def _vertex_ok(g: Metric, *vs) -> bool:
    return all(isinstance(v, int) and 0 <= v < g.n for v in vs)


def _components(adj, verts) -> list[frozenset[int]]:
    """Components of the subgraph induced by verts, by smallest vertex."""
    inside = set(verts)
    seen: set[int] = set()
    out = []
    for v in sorted(inside):
        if v in seen:
            continue
        comp = {v}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w in inside and w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append(frozenset(comp))
    return out


def split(g: Metric, u: int, v: int):
    """Vertices closer to u, closer to v, and the equidistant components."""
    ru, rv = g.row(u), g.row(v)
    w_uv = frozenset(x for x in range(g.n) if ru[x] < rv[x])
    w_vu = frozenset(x for x in range(g.n) if rv[x] < ru[x])
    eq = [x for x in range(g.n) if ru[x] == rv[x]]
    return w_uv, w_vu, _components(g.adj, eq)


def _geodesic_witness(g: Metric, half, w) -> str | None:
    if not isinstance(w, dict) or not _vertex_ok(g, w.get("x"), w.get("y"), w.get("z")):
        return "witness is not three vertices"
    x, y, z = w["x"], w["y"], w["z"]
    if x not in half or y not in half:
        return f"witness ends {x}, {y} are not both in the half"
    if z in half:
        return f"witness middle {z} lies inside the half"
    if g.d(x, z) + g.d(z, y) != g.d(x, y):
        return f"witness middle {z} is not on a shortest {x}-{y} path"
    return None


def first_nonconvex(g: Metric, half) -> tuple[int, int, int] | None:
    outside = [z for z in range(g.n) if z not in half]
    members = sorted(half)
    for i, x in enumerate(members):
        rx = g.row(x)
        for y in members[i + 1:]:
            dxy = rx[y]
            if dxy < 2:
                continue
            ry = g.row(y)
            for z in outside:
                if rx[z] + ry[z] == dxy:
                    return x, y, z
    return None


# ---- Johnson labels and the wallspace condition ----

def check_labels(g: Metric, labels, scale: int) -> str | None:
    """|L(x) ^ L(y)| must equal scale * d(x, y) for every vertex pair."""
    if not isinstance(labels, (list, tuple)) or len(labels) != g.n:
        return "wrong number of labels"
    masks = []
    for lab in labels:
        mask = 0
        for e in lab:
            if not isinstance(e, int) or e < 0:
                return f"label element {e!r} is not a nonnegative integer"
            mask |= 1 << e
        masks.append(mask)
    for x in range(g.n):
        rx, mx = g.row(x), masks[x]
        for y in range(x + 1, g.n):
            if (mx ^ masks[y]).bit_count() != scale * rx[y]:
                return f"labels of {x} and {y} are not at {scale} x distance {rx[y]}"
    return None


def check_johnson_labels(g: Metric, doc: dict) -> str | None:
    labels, m, ground = doc.get("labels"), doc.get("m"), doc.get("ground_set_size")
    if not isinstance(labels, list) or any(len(set(lab)) != m for lab in labels):
        return f"labels are not all {m}-subsets"
    if any(e >= ground for lab in labels for e in lab):
        return f"a label leaves the ground set of size {ground}"
    return check_labels(g, labels, 2)


def check_wc_certificate(g: Metric, cert: dict) -> str | None:
    """Re-derive a wallspace certificate from the split of its edge."""
    edge = cert.get("edge")
    if not (isinstance(edge, (list, tuple)) and len(edge) == 2 and _vertex_ok(g, *edge)):
        return "certificate edge is malformed"
    u, v = edge
    if v not in g.adj[u]:
        return f"({u}, {v}) is not an edge"
    w_uv, w_vu, comps = split(g, u, v)
    kind = cert.get("kind")
    if kind == "TOO_MANY_COMPONENTS":
        if len(comps) <= 2:
            return f"edge ({u}, {v}) has {len(comps)} equidistant components, not more than 2"
        if cert.get("component_count") != len(comps):
            return "component count disagrees with the split"
        return None
    if kind != "NONCONVEX_HALFSPACE":
        return f"unknown wallspace certificate kind {kind!r}"
    if len(comps) > 2:
        return "halves are undefined with more than 2 equidistant components"
    c1 = comps[0] if comps else frozenset()
    c2 = comps[1] if len(comps) == 2 else frozenset()
    halves = {PRIME: (w_uv | c1, w_vu | c2), DOUBLE_PRIME: (w_uv | c2, w_vu | c1)}
    half = frozenset(cert.get("half") or ())
    if half not in halves.get(cert.get("variant"), ()):
        return f"half is not a {cert.get('variant')} half of edge ({u}, {v})"
    return _geodesic_witness(g, half, cert.get("witness"))


def wc_failing_edges(g: Metric) -> tuple[tuple[int, int], ...]:
    """Every edge failing the wallspace condition, by brute force."""
    def compute():
        bad = []
        for u, v in g.edges:
            w_uv, w_vu, comps = split(g, u, v)
            if len(comps) > 2:
                bad.append((u, v))
                continue
            c1 = comps[0] if comps else frozenset()
            c2 = comps[1] if len(comps) == 2 else frozenset()
            halves = (w_uv | c1, w_vu | c2, w_uv | c2, w_vu | c1)
            if any(first_nonconvex(g, h) is not None for h in halves):
                bad.append((u, v))
        return tuple(bad)
    return g.memo("wc", compute)


def walls(g: Metric) -> set[frozenset[frozenset[int]]]:
    """Distinct unordered halfspace pairs of a graph passing the condition."""
    out = set()
    for u, v in g.edges:
        w_uv, w_vu, comps = split(g, u, v)
        c1 = comps[0] if comps else frozenset()
        c2 = comps[1] if len(comps) == 2 else frozenset()
        out.add(frozenset({w_uv | c1, w_vu | c2}))
        out.add(frozenset({w_uv | c2, w_vu | c1}))
    return out


# ---- the class graph and the atom-graph condition ----

def class_graph(g: Metric, b: int):
    """Vertical edges from basepoint b, grouped by split pair, and their adjacency.

    Classes are numbered by their smallest oriented edge (tail nearer b);
    two classes are adjacent when their smallest edges have scalar product 1.
    """
    rb = g.row(b)
    vertical = sorted((u, v) if rb[u] < rb[v] else (v, u)
                      for u, v in g.edges if rb[u] != rb[v])
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for t, h in vertical:
        w_th, w_ht, _ = split(g, t, h)
        groups.setdefault((w_th, w_ht), []).append((t, h))
    classes = [sorted(es) for es in groups.values()]
    classes.sort(key=lambda es: es[0])
    reps = [es[0] for es in classes]
    adj: list[set[int]] = [set() for _ in classes]
    for i, j in combinations(range(len(reps)), 2):
        (u, v), (x, y) = reps[i], reps[j]
        if g.d(u, y) + g.d(v, x) - g.d(u, x) - g.d(v, y) == 1:
            adj[i].add(j)
            adj[j].add(i)
    return classes, adj


def _class_graph(g: Metric, b: int):
    return g.memo(f"sigma{b}", lambda: class_graph(g, b))


def _maximal_cliques_through(adj, v) -> set[frozenset[int]]:
    out = set()
    nb = adj[v]
    for w in nb:
        out.add(frozenset({v, w} | (nb & adj[w])))
    return out


def check_root_certificate(adj, cert: dict) -> str | None:
    """Confirm a claw, diamond, three cliques or odd root cycle in adj."""
    k = len(adj)
    kind = cert.get("kind")
    vs = cert.get("vertices") or []
    if not all(isinstance(v, int) and 0 <= v < k for v in vs):
        return "certificate vertex out of range"
    if kind == "CLAW":
        if len(set(vs)) != 4:
            return "claw needs four distinct vertices"
        c, *leaves = vs
        if not all(a in adj[c] for a in leaves):
            return "claw leaves are not all adjacent to the centre"
        if any(b in adj[a] for a, b in combinations(leaves, 2)):
            return "claw leaves are not pairwise non-adjacent"
        return None
    if kind == "DIAMOND":
        if len(set(vs)) != 4:
            return "diamond needs four distinct vertices"
        u, v, w, x = vs
        if v not in adj[u] or x in adj[w]:
            return "diamond spine or tips are wrong"
        if not all(t in adj[u] and t in adj[v] for t in (w, x)):
            return "diamond tips are not common neighbours"
        return None
    if kind == "VERTEX_IN_3_CLIQUES":
        if len(vs) != 1:
            return "needs exactly one vertex"
        maximal = _maximal_cliques_through(adj, vs[0])
        named = {frozenset(c) for c in cert.get("cliques") or ()}
        if len(named) < 3 or not named <= maximal:
            return f"not three maximal cliques through {vs[0]}"
        return None
    if kind == "ODD_CYCLE_IN_ROOT":
        # Root vertices 0..q-1 are the maximal cliques in sorted order; every
        # later root vertex has degree 1 and cannot lie on a cycle.
        cliques = sorted({tuple(sorted(c)) for v in range(k)
                          for c in _maximal_cliques_through(adj, v)})
        cyc = cert.get("cycle") or []
        if len(cyc) < 3 or len(cyc) % 2 == 0 or len(set(cyc)) != len(cyc):
            return "root cycle is not a simple odd cycle"
        if not all(isinstance(r, int) and 0 <= r < len(cliques) for r in cyc):
            return "root cycle leaves the clique vertices"
        for i, r in enumerate(cyc):
            if not set(cliques[r]) & set(cliques[cyc[(i + 1) % len(cyc)]]):
                return f"root vertices {r} and {cyc[(i + 1) % len(cyc)]} are not adjacent"
        return None
    return f"unknown class-graph certificate kind {kind!r}"


def check_agc_certificate(g: Metric, doc: dict) -> str | None:
    b = doc.get("basepoint", 0)
    if not _vertex_ok(g, b):
        return "basepoint out of range"
    _, adj = _class_graph(g, b)
    if "class_count" in doc and doc["class_count"] != len(adj):
        return f"class count {doc['class_count']} != rebuilt {len(adj)}"
    return check_root_certificate(adj, doc)


def check_decision(g: Metric, doc: dict) -> str | None:
    """An `embed` answer: verified labels, or a confirmed certificate."""
    if doc.get("result") == "yes":
        return check_johnson_labels(g, doc)
    if doc.get("result") != "no":
        return f"unknown result {doc.get('result')!r}"
    stage = doc.get("stage")
    if stage == "WC":
        return check_wc_certificate(g, doc)
    if stage == "AGC":
        return check_agc_certificate(g, doc)
    return f"rejected at stage {stage!r}"


# ---- line graphs of bipartite graphs: claw-, diamond- and odd-hole-free ----

def _has_odd_hole(adj, verts) -> bool:
    """An induced cycle of odd length at least 5 among verts (small inputs)."""
    verts = sorted(verts)

    def extend(path, on_path):
        last = path[-1]
        for w in adj[last] & verts_set:
            if w <= path[0] or w in on_path:
                continue
            # w may touch only last and, to close the hole, the start.
            inner = [p for p in path[1:-1] if p in adj[w]]
            if inner:
                continue
            if path[0] in adj[w]:
                if len(path) >= 4 and len(path) % 2 == 0:
                    return True
                continue
            on_path.add(w)
            path.append(w)
            if extend(path, on_path):
                return True
            path.pop()
            on_path.discard(w)
        return False

    verts_set = set(verts)
    for s in verts:
        for w in adj[s] & verts_set:
            if w > s and extend([s, w], {s, w}):
                return True
    return False


def is_bipartite_line_graph(adj, verts) -> bool:
    verts = set(verts)
    for v in verts:
        nb = adj[v] & verts
        for a, b, c in combinations(sorted(nb), 3):
            if b not in adj[a] and c not in adj[a] and c not in adj[b]:
                return False
        for w in nb:
            if w > v:
                common = sorted(nb & adj[w])
                if any(y not in adj[x] for x, y in combinations(common, 2)):
                    return False
    return not _has_odd_hole(adj, verts)


# ---- matroid basis graph conditions ----

_PATTERN_DEGREES = {4: [2] * 4, 5: [3, 3, 3, 3, 4], 6: [4] * 6}


def interval(g: Metric, u: int, v: int) -> list[int]:
    ru, rv = g.row(u), g.row(v)
    return [x for x in range(g.n) if ru[x] + rv[x] == ru[v]]


def ic_pattern_ok(g: Metric, iv) -> bool:
    # Square, pyramid and octahedron are the only graphs with these sizes
    # and degree sequences.
    want = _PATTERN_DEGREES.get(len(iv))
    return want is not None and sorted(len(g.adj[x] & set(iv)) for x in iv) == want


def ic_passes(g: Metric) -> bool:
    return g.memo("ic", lambda: all(
        ic_pattern_ok(g, interval(g, u, v))
        for u, v in combinations(range(g.n), 2) if g.d(u, v) == 2))


def _induced_squares(g: Metric):
    for u1 in range(g.n):
        nb = sorted(w for w in g.adj[u1] if w > u1)
        for u2, u4 in combinations(nb, 2):
            if u4 in g.adj[u2]:
                continue
            for u3 in g.adj[u2] & g.adj[u4]:
                if u3 > u1 and u3 not in g.adj[u1]:
                    yield u1, u2, u3, u4


def pc_passes(g: Metric) -> bool:
    return g.memo("pc", lambda: all(
        g.d(b, a) + g.d(b, c) == g.d(b, x) + g.d(b, y)
        for a, x, c, y in _induced_squares(g) for b in range(g.n)))


def lc_passes(g: Metric) -> bool:
    return g.memo("lc", lambda: all(
        is_bipartite_line_graph(g.adj, g.adj[v]) for v in range(g.n)))


# ---- CLI documents ----

def _wc_part(g: Metric, part: dict) -> str | None:
    if part.get("result") == "pass":
        bad = wc_failing_edges(g)
        return f"wallspace condition fails at {bad[0]}" if bad else None
    return check_wc_certificate(g, part)


def _ic_part(g: Metric, part: dict) -> str | None:
    if part.get("result") == "pass":
        return None if ic_passes(g) else "interval condition fails"
    w = part.get("witness") or {}
    u, v = w.get("u"), w.get("v")
    if not _vertex_ok(g, u, v) or g.d(u, v) != 2:
        return "IC witness is not a distance-2 pair"
    iv = interval(g, u, v)
    if w.get("interval") != iv:
        return "IC witness interval is wrong"
    return "IC witness interval induces a pattern" if ic_pattern_ok(g, iv) else None


def check_cli(g: Metric, command: str, doc: dict) -> str | None:
    """Check one `--json` document of the named CLI command."""
    result = doc.get("result")
    if command == "embed":
        return check_decision(g, doc)
    if command == "partial-cube":
        if result == "yes":
            if any(e >= doc.get("dimension", 0) for lab in doc["labels"] for e in lab):
                return "hypercube label leaves the dimension"
            return check_labels(g, doc["labels"], 1)
        if doc.get("kind") == "NOT_BIPARTITE":
            cyc = doc.get("odd_cycle") or []
            if len(cyc) % 2 == 0 or len(set(cyc)) != len(cyc) or not _vertex_ok(g, *cyc):
                return "odd cycle is not a simple odd cycle"
            if any(cyc[(i + 1) % len(cyc)] not in g.adj[c] for i, c in enumerate(cyc)):
                return "odd cycle uses a non-edge"
            return None
        u, v = doc.get("edge") or (None, None)
        if not _vertex_ok(g, u, v) or v not in g.adj[u]:
            return "hypercube certificate edge is not an edge"
        w_uv, w_vu, comps = split(g, u, v)
        half = frozenset(doc.get("half") or ())
        if comps or half not in (w_uv, w_vu):
            return "hypercube certificate half is not a side of its edge"
        return _geodesic_witness(g, half, doc.get("witness"))
    if command == "basis-graph":
        for reason in (_wc_part(g, doc.get("wc") or {}), _ic_part(g, doc.get("ic") or {})):
            if reason:
                return reason
        both = doc["wc"]["result"] == "pass" and doc["ic"]["result"] == "pass"
        return None if (result == "yes") == both else "verdict disagrees with its parts"
    if command == "check-wc-all":
        bad = wc_failing_edges(g)
        if result == "pass":
            if bad:
                return f"wallspace condition fails at {bad[0]}"
            got = {frozenset(frozenset(h) for h in w["halves"]) for w in doc["walls"]}
            ok = doc.get("wall_count") == len(got) and got == walls(g)
            return None if ok else "wall list differs from the rebuilt walls"
        certs = doc.get("certificates") or []
        if tuple(tuple(c.get("edge", ())) for c in certs) != bad:
            return "certificates do not name exactly the failing edges"
        for c in certs:
            reason = check_wc_certificate(g, c)
            if reason:
                return reason
        return None
    if command == "check-agc":
        if doc.get("condition") == "wc":
            return check_wc_certificate(g, doc) if result == "fail" else "wc stage passed"
        if result == "fail":
            return check_agc_certificate(g, doc)
        return _check_root(g, doc)
    if command == "check-ic":
        return _ic_part(g, doc)
    if command == "check-pc":
        if result == "pass":
            return None if pc_passes(g) else "positioning condition fails"
        w = doc.get("witness") or {}
        sq, b = w.get("square") or [], w.get("basepoint")
        if len(sq) != 4 or not _vertex_ok(g, b, *sq):
            return "PC witness malformed"
        a, x, c, y = sq
        if not (x in g.adj[a] and c in g.adj[x] and y in g.adj[c] and a in g.adj[y]):
            return "PC witness is not a 4-cycle"
        if c in g.adj[a] or y in g.adj[x]:
            return "PC witness square is not induced"
        if g.d(b, a) + g.d(b, c) == g.d(b, x) + g.d(b, y):
            return "PC witness sums are equal"
        return None
    if command == "check-lc":
        if result == "pass":
            return None if lc_passes(g) else "link condition fails"
        w = doc.get("witness") or {}
        v = w.get("vertex")
        if not _vertex_ok(g, v) or w.get("neighborhood") != sorted(g.adj[v]):
            return "LC witness neighbourhood is wrong"
        if is_bipartite_line_graph(g.adj, g.adj[v]):
            return "LC witness neighbourhood is a bipartite line graph"
        return None
    if command == "atom-graph":
        if doc.get("result") == "no":
            return check_decision(g, doc)
        classes, adj = _class_graph(g, doc.get("basepoint", 0))
        if doc.get("classes") != [[list(e) for e in cls] for cls in classes]:
            return "classes differ from the rebuilt classes"
        edges = sorted([i, j] for i in range(len(adj)) for j in adj[i] if i < j)
        return None if doc.get("edges") == edges else "class adjacency differs"
    return f"no check for command {command!r}"


def _check_root(g: Metric, doc: dict) -> str | None:
    """AGC pass: the named root is bipartite and its line graph is the class graph."""
    _, adj = _class_graph(g, doc.get("basepoint", 0))
    root_edges = [tuple(e) for e in doc.get("root_edges") or ()]
    b_side, a_side = set(doc.get("b_side") or ()), set(doc.get("a_side") or ())
    if doc.get("class_count") != len(adj) or len(root_edges) != len(adj):
        return "root edge count differs from the class count"
    if b_side & a_side or len(set(root_edges)) != len(root_edges):
        return "root sides overlap or root edges repeat"
    if not all(x in b_side and y in a_side for x, y in root_edges):
        return "a root edge does not join the b side to the a side"
    for i, j in combinations(range(len(adj)), 2):
        if bool(set(root_edges[i]) & set(root_edges[j])) != (j in adj[i]):
            return f"root edges of classes {i}, {j} disagree with the class graph"
    return None


def check_verify(g: Metric, labels, doc: dict) -> str | None:
    """A `verify` document against the labels file the benchmark wrote."""
    expected = check_labels(g, labels, 2)
    if doc.get("result") == "pass":
        return None if expected is None else "verify passed invalid labels"
    if expected is None:
        return "verify failed valid labels"
    w = doc.get("witness") or {}
    x, y = w.get("x"), w.get("y")
    if not _vertex_ok(g, x, y):
        return "verify witness malformed"
    diff = len(set(labels[x]) ^ set(labels[y]))
    if (w.get("sym_diff"), w.get("expected")) != (diff, 2 * g.d(x, y)) or diff == 2 * g.d(x, y):
        return "verify witness does not refute the labels"
    return None
