"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS or FAIL
line (run with -s to see them).  The criteria exercise the public API only.
"""

import time
from contextlib import contextmanager
from itertools import combinations

from johnson_embed import (
    Embedding,
    Graph,
    RejectionCertificate,
    WcCertificate,
    atom_graph,
    bfs_tree,
    bipartite_root,
    build_embedding,
    check_lc,
    check_pc,
    check_wc,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    embed_hypercube,
    hypercube_graph,
    is_basis_graph,
    is_convex,
    johnson_graph,
    line_graph,
    oracle_decide,
    path_graph,
    petersen_graph,
    run_pipeline,
    scalar,
    splits,
    theta1_classes,
    verify_embedding,
)
from johnson_embed.embedder import HypercubeEmbedding

from helpers import find_isomorphism


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_criterion_1_petersen_reproduction():
    with criterion("1 petersen walls, atom graph, and embedding"):
        start = time.perf_counter()
        g = petersen_graph()
        d = g.distances()

        ws = check_wc(g, d)
        assert not isinstance(ws, WcCertificate)
        assert len(ws.walls) == 6
        assert all(w.multiplicity == 1 for w in ws.walls)
        for edge in g.edges:
            ew = splits(g, d, edge)
            assert len(ew.eq_components) == 2
            assert all(len(c) == 2 and g.has_edge(*c) for c in ew.eq_components)
        for w in ws.walls:
            for half in w.halves:
                assert len(half) == 5
                assert is_convex(d, half) is True
                # Each half induces a 5-cycle.
                assert all(
                    sum(1 for x in half if g.has_edge(v, x)) == 2
                    for v in half)

        sigma = atom_graph(d, theta1_classes(ws, d, 0))
        assert sigma.n == 9
        assert all(sigma.degree(v) == 4 for v in range(9))
        root = bipartite_root(sigma)
        k33 = complete_bipartite_graph(3, 3)
        assert find_isomorphism(root.root, k33) is not None
        rebuilt, _ = line_graph(root.root)
        assert find_isomorphism(rebuilt, sigma) is not None

        for b in range(g.n):
            emb = build_embedding(g, b)
            assert isinstance(emb, Embedding)
            assert emb.m == 3 and emb.ground_set_size == 6
            assert verify_embedding(d, emb.labels) is True
        assert time.perf_counter() - start < 1.0


def test_criterion_2_published_petersen_labels():
    with criterion("2 published three-subset labels realize the petersen graph"):
        start = time.perf_counter()
        published = [
            {1, 2, 3}, {1, 2, 5}, {1, 3, 6}, {2, 3, 4}, {2, 4, 6},
            {3, 4, 5}, {3, 5, 6}, {2, 5, 6}, {1, 4, 6}, {1, 4, 5},
        ]
        labels = [frozenset(s) for s in published]
        assert len(set(labels)) == 10
        assert all(len(s) == 3 and s <= set(range(1, 7)) for s in labels)

        # Adjacency inside the Johnson graph of 3-subsets of a 6-set.
        edges = [
            (i, j)
            for i, j in combinations(range(10), 2)
            if len(labels[i] ^ labels[j]) == 2
        ]
        induced = Graph(10, edges)
        g = petersen_graph()
        mapping = find_isomorphism(g, induced)
        assert mapping is not None

        relabeled = [labels[mapping[v]] for v in range(g.n)]
        assert verify_embedding(g.distances(), relabeled) is True
        assert time.perf_counter() - start < 1.0


def test_criterion_3_oracle_agreement(full_corpus, corpus_decisions):
    with criterion("3 decisions agree with the brute-force oracle"):
        start = time.perf_counter()
        assert sum(1 for name, _ in full_corpus
                   if name.startswith("random")) == 200
        for name, g, result in corpus_decisions:
            if isinstance(result, Embedding):
                assert verify_embedding(g.distances(), result.labels) is True, name
                assert result.m == 0 or \
                    result.m <= result.ground_set_size // 2, name
            else:
                assert isinstance(result, RejectionCertificate), name
                assert result.stage in ("WC", "AGC"), name
                if g.n <= 8:
                    res = oracle_decide(g, g.distances(), n_max=8)
                    assert not res.found, name
        assert time.perf_counter() - start < 120.0


def test_criterion_4_fixed_small_decisions():
    with criterion("4 small graphs get their known decisions"):
        emb = build_embedding(path_graph(2))
        assert (emb.m, emb.ground_set_size) == (1, 2)
        assert [sorted(l) for l in emb.labels] == [[0], [1]]

        emb = build_embedding(cycle_graph(4))
        assert (emb.m, emb.ground_set_size) == (2, 4)
        emb = build_embedding(cycle_graph(5))
        assert (emb.m, emb.ground_set_size) == (2, 5)

        emb = build_embedding(cycle_graph(6))
        assert (emb.m, emb.ground_set_size) == (3, 6)
        c6 = cycle_graph(6)
        d6 = c6.distances()
        sigma = atom_graph(d6, theta1_classes(check_wc(c6, d6), d6, 0))
        assert sigma.edges == ()

        assert isinstance(build_embedding(complete_graph(4)), Embedding)

        result = build_embedding(complete_bipartite_graph(2, 3))
        assert isinstance(result, RejectionCertificate)
        assert result.stage == "WC"
        assert result.payload.kind == "NONCONVEX_HALFSPACE"

        emb = build_embedding(path_graph(1))
        assert (emb.m, emb.ground_set_size) == (0, 0)


def test_criterion_5_structural_claims(corpus_decisions):
    with criterion("5 class structure matches the labels on accepted graphs"):
        for name, g, result in corpus_decisions:
            if not isinstance(result, Embedding):
                continue
            d = g.distances()
            run = run_pipeline(g, 0, paranoid=True)
            emb = run.embedding
            assert emb is not None, name
            classes = run.classes

            index = {}
            for ci, cls in enumerate(classes.classes):
                for e in cls:
                    index[e] = ci
            edges = list(index)
            for e in edges:
                for f in edges:
                    s = scalar(d, e, f)
                    assert s >= 0, (name, e, f)
                    assert (s == 2) == (index[e] == index[f]), (name, e, f)
                    if index[e] != index[f]:
                        same = run.sigma.has_edge(index[e], index[f])
                        assert (s == 1) == same, (name, e, f)

            # Class label pairs overlap exactly as much as the scalar says.
            pairs = run.assignment.pairs
            reps = [cls[0] for cls in classes.classes]
            for i, e in enumerate(reps):
                for j, f in enumerate(reps):
                    overlap = len(set(pairs[i]) & set(pairs[j]))
                    assert scalar(d, e, f) == overlap, (name, i, j)

            # Walking down the tree never reuses a ground element.
            parent = bfs_tree(g, 0)
            for v in range(g.n):
                swapped = []
                x = v
                while parent[x] is not None:
                    u = parent[x]
                    swapped.append(emb.labels[u] - emb.labels[x])
                    swapped.append(emb.labels[x] - emb.labels[u])
                    x = u
                flat = [el for s in swapped for el in s]
                assert len(flat) == len(set(flat)) == 2 * d[0][v], (name, v)

            assert verify_embedding(d, emb.labels) is True, name


def test_criterion_6_condition_implications(corpus_decisions):
    with criterion("6 wall condition forces the square condition"):
        for name, g, result in corpus_decisions:
            d = g.distances()
            if not isinstance(check_wc(g, d), WcCertificate):
                assert check_pc(g, d).passed, name
            if isinstance(result, Embedding):
                assert check_lc(g).passed, name


def test_criterion_7_basis_graph_membership():
    with criterion("7 basis graph membership matches known families"):
        for m, n in [(1, 4), (2, 4), (2, 5), (3, 6)]:
            g = johnson_graph(m, n)
            rep = is_basis_graph(g, g.distances())
            assert rep.passed, (m, n)

        g = cycle_graph(6)
        rep = is_basis_graph(g, g.distances())
        assert not rep.passed
        w = rep.ic.witness
        assert w is not None
        d = g.distances()
        assert d[w.u][w.v] == 2
        # Re-verify the witness: the reported interval is the true interval.
        iv = tuple(x for x in range(g.n)
                   if d[w.u][x] + d[x][w.v] == d[w.u][w.v])
        assert iv == w.interval
        assert len(iv) not in (4, 5, 6)

        g = complete_bipartite_graph(2, 3)
        rep = is_basis_graph(g, g.distances())
        assert not rep.passed
        assert isinstance(rep.wc, WcCertificate)
        cert = rep.wc
        d = g.distances()
        wit = cert.witness
        assert wit.x in cert.half and wit.y in cert.half
        assert wit.z not in cert.half
        assert d[wit.x][wit.z] + d[wit.z][wit.y] == d[wit.x][wit.y]


def test_criterion_8_partial_cube_agreement():
    with criterion("8 bipartite cases match the hypercube embedder"):
        cases = [hypercube_graph(dim) for dim in range(1, 5)]
        cases += [path_graph(k) for k in range(2, 8)]
        cases += [complete_bipartite_graph(1, k) for k in range(2, 6)]
        cases += [cycle_graph(k) for k in (4, 6, 8)]
        for g in cases:
            cube = embed_hypercube(g)
            assert isinstance(cube, HypercubeEmbedding)
            emb = build_embedding(g)
            assert isinstance(emb, Embedding)
            assert emb.m == cube.dimension
            assert emb.ground_set_size == 2 * emb.m
            d = g.distances()
            sigma = atom_graph(d, theta1_classes(check_wc(g, d), d, 0))
            assert sigma.edges == ()
            assert verify_embedding(g.distances(), emb.labels) is True
