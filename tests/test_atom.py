from johnson_embed import (
    Embedding,
    WcCertificate,
    atom_graph,
    check_wc,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    scalar,
    theta1_classes,
    vertical_edges,
)


def classes_of(g, b=0):
    d = g.distances()
    return theta1_classes(check_wc(g, d), d, b)


def sigma_of(g, b=0, **kwargs):
    return atom_graph(g.distances(), classes_of(g, b), **kwargs)


def test_scalar_small_cases():
    g = cycle_graph(6)
    d = g.distances()
    assert scalar(d, (0, 1), (0, 1)) == 2
    assert scalar(d, (0, 1), (1, 0)) == -2
    # Opposite edges of a hexagon traversed against each other pair up.
    assert scalar(d, (0, 1), (4, 3)) == 2
    assert scalar(d, (0, 1), (3, 4)) == -2
    assert scalar(d, (0, 1), (2, 3)) == 0


def test_scalar_antisymmetry(corpus):
    for name, g in corpus:
        d = g.distances()
        for e in g.edges:
            for f in g.edges:
                s = scalar(d, e, f)
                assert -2 <= s <= 2, name
                assert scalar(d, e, (f[1], f[0])) == -s, name
                assert scalar(d, (e[1], e[0]), f) == -s, name


def test_vertical_edges_orientation():
    g = cycle_graph(5)
    d = g.distances()
    ve = vertical_edges(g, d, 0)
    assert ve == ((0, 1), (0, 4), (1, 2), (4, 3))
    for tail, head in ve:
        assert d[0][head] == d[0][tail] + 1
    # The edge between the two deepest vertices of an odd cycle is horizontal.
    assert (2, 3) not in ve and (3, 2) not in ve


def test_vertical_edges_even_cycle_all_vertical():
    g = cycle_graph(6)
    d = g.distances()
    assert len(vertical_edges(g, d, 0)) == len(g.edges)


def test_theta1_classes_cycle5():
    g = cycle_graph(5)
    classes = classes_of(g)
    assert classes.basepoint == 0
    assert classes.classes == (((0, 1),), ((0, 4),), ((1, 2),), ((4, 3),))


def test_theta1_classes_cycle6():
    g = cycle_graph(6)
    classes = classes_of(g)
    # Antipodal edges of the hexagon fall into one class.
    assert classes.classes == (
        ((0, 1), (4, 3)),
        ((0, 5), (2, 3)),
        ((1, 2), (5, 4)),
    )
    members = sorted(e for cls in classes.classes for e in cls)
    assert len(members) == len(set(members)) == len(g.edges)


def test_theta1_partitions_vertical_edges(corpus_decisions):
    for name, g, result in corpus_decisions:
        if not isinstance(result, Embedding):
            continue
        d = g.distances()
        classes = classes_of(g)
        flat = [e for cls in classes.classes for e in cls]
        assert sorted(flat) == list(vertical_edges(g, d, 0)), name


def test_same_class_iff_scalar_two(corpus_decisions):
    for name, g, result in corpus_decisions:
        if not isinstance(result, Embedding):
            continue
        d = g.distances()
        classes = classes_of(g)
        index = {}
        for i, cls in enumerate(classes.classes):
            for e in cls:
                index[e] = i
        edges = list(index)
        for e in edges:
            for f in edges:
                s = scalar(d, e, f)
                assert s >= 0, (name, e, f)
                assert (s == 2) == (index[e] == index[f]), (name, e, f)


def test_atom_graph_cycle5_is_path():
    g = cycle_graph(5)
    sigma = sigma_of(g)
    assert sigma.n == 4
    assert sigma.edges == ((0, 3), (1, 2), (2, 3))
    assert sorted(sigma.degree(v) for v in range(4)) == [1, 1, 2, 2]


def test_atom_graph_complete4_is_triangle():
    g = complete_graph(4)
    sigma = sigma_of(g)
    assert sigma.n == 3
    assert sigma.edges == ((0, 1), (0, 2), (1, 2))


def test_atom_graph_even_cycle_edgeless():
    for k in (4, 6, 8):
        g = cycle_graph(k)
        sigma = sigma_of(g)
        assert sigma.n == k // 2
        assert sigma.edges == ()


def test_atom_graph_path_edgeless():
    g = path_graph(5)
    sigma = sigma_of(g)
    assert sigma.n == 4
    assert sigma.edges == ()


def test_atom_graph_petersen():
    g = petersen_graph()
    sigma = sigma_of(g)
    assert sigma.n == 9
    assert len(sigma.edges) == 18
    assert all(sigma.degree(v) == 4 for v in range(9))


def test_atom_graph_paranoid_agrees(corpus_decisions):
    for name, g, result in corpus_decisions:
        if not isinstance(result, Embedding):
            continue
        plain = sigma_of(g)
        hard = sigma_of(g, paranoid=True)
        assert plain.edges == hard.edges, name


def test_atom_graph_gated_on_wc(corpus):
    # The class machinery is only invoked after the wall check passes.
    for name, g in corpus:
        d = g.distances()
        ws = check_wc(g, d)
        if isinstance(ws, WcCertificate):
            continue
        classes = theta1_classes(ws, d, 0)
        assert atom_graph(d, classes).n == len(classes.classes), name
