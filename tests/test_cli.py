import json

import pytest

from johnson_embed.cli import format_edge_list, main, parse_labels
from johnson_embed import IsometryWitness, cli, cycle_graph, embedder, graphs
from johnson_embed.graphs import ConsistencyError


@pytest.fixture
def c5(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(format_edge_list(cycle_graph(5)), encoding="utf-8")
    return str(path)


@pytest.fixture
def k23(tmp_path):
    rc = main(["gen", "complete_bipartite", "2", "3",
               "-o", str(tmp_path / "k23.txt")])
    assert rc == 0
    return str(tmp_path / "k23.txt")


def test_gen_writes_parseable_edge_list(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "cycle", "5", "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# cycle 5\n5\n")
    assert "0 1" in text
    assert main(["gen", "petersen"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[1] == "10"


def test_gen_random_deterministic(capsys):
    assert main(["gen", "random", "6", "--seed", "3", "--p", "0.5"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "random", "6", "--seed", "3", "--p", "0.5"]) == 0
    assert capsys.readouterr().out == first


def test_gen_bad_family(capsys):
    assert main(["gen", "nosuch", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_embed_accept_json(c5, capsys):
    assert main(["embed", c5, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "yes"
    assert doc["m"] == 2
    assert doc["ground_set_size"] == 5
    assert doc["basepoint"] == 0
    assert doc["labels"] == [[0, 1], [1, 3], [2, 3], [2, 4], [0, 4]]


def test_embed_accept_human(c5, capsys):
    assert main(["embed", c5]) == 0
    out = capsys.readouterr().out
    assert "m=2" in out and "ground_set_size=5" in out
    assert "0 -> {0, 1}" in out


def test_embed_reject_json(k23, capsys):
    assert main(["embed", k23, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "no"
    assert doc["stage"] == "WC"
    assert doc["kind"] == "NONCONVEX_HALFSPACE"
    assert doc["edge"] == [0, 2]
    assert doc["witness"] == {"x": 3, "y": 4, "z": 1}


def test_embed_basepoint_and_walls(c5, capsys):
    assert main(["embed", c5, "--basepoint", "2", "--json", "--walls"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["basepoint"] == 2
    assert len(doc["walls"]) == 5
    for wall in doc["walls"]:
        assert wall["multiplicity"] == 1


def test_embed_paranoid(c5):
    assert main(["embed", c5, "--paranoid"]) == 0


def test_embed_bad_basepoint(c5, capsys):
    assert main(["embed", c5, "--basepoint", "9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_embed_missing_file(capsys):
    assert main(["embed", "/nonexistent/g.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_embed_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1\n", encoding="utf-8")
    assert main(["embed", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "disconnected" in err


def test_embed_huge_vertex_count_fails_before_allocating(tmp_path, capsys, monkeypatch):
    real_graph = graphs.Graph

    def bounded_graph(n, *args, **kwargs):
        assert n <= 10**6, f"Graph would allocate {n} adjacency lists"
        return real_graph(n, *args, **kwargs)

    monkeypatch.setattr(graphs, "Graph", bounded_graph)
    huge = tmp_path / "huge.txt"
    huge.write_text("10000000000\n", encoding="utf-8")
    assert main(["embed", str(huge)]) == 2
    assert "disconnected" in capsys.readouterr().err


def test_embed_internal_failure_is_an_error_not_a_no(c5, capsys, monkeypatch):
    monkeypatch.setattr(embedder, "verify_embedding",
                        lambda d, labels: IsometryWitness(0, 1, 4, 2))
    assert main(["embed", c5, "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "error"
    assert doc["stage"] == "INTERNAL"
    assert main(["embed", c5]) == 3
    assert capsys.readouterr().out.startswith("internal error: ")


def test_consistency_error_exits_3_without_traceback(c5, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ConsistencyError("edge scalar 3 out of range")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    assert main(["embed", c5, "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: edge scalar 3 out of range\n"


def test_check_wc(c5, k23, capsys):
    assert main(["check", "wc", c5, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "pass"
    assert doc["wall_count"] == 5

    assert main(["check", "wc", k23, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "fail"
    assert doc["edge"] == [0, 2]


def test_check_wc_all(k23, capsys):
    assert main(["check", "wc", k23, "--all", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["certificates"]) == 6


def test_check_agc(c5, capsys):
    assert main(["check", "agc", c5, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "pass"
    assert doc["class_count"] == 4
    assert len(doc["b_side"]) == 2
    assert len(doc["a_side"]) == 3


def test_check_agc_dot(c5, capsys):
    assert main(["check", "agc", c5, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph root {")
    assert 'side="b"' in out and 'side="a"' in out


def test_check_agc_fails_on_wc_failure(k23, capsys):
    assert main(["check", "agc", k23, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["condition"] == "wc"


def test_check_ic_pc_lc(c5, k23, capsys):
    assert main(["check", "ic", c5]) == 1
    capsys.readouterr()
    assert main(["check", "pc", c5]) == 0
    capsys.readouterr()
    assert main(["check", "lc", c5]) == 0
    capsys.readouterr()
    assert main(["check", "pc", k23, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"]["basepoint"] == 4
    assert doc["witness"]["square"] == [0, 2, 1, 3]


def test_atom_graph(c5, capsys):
    assert main(["atom-graph", c5, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["basepoint"] == 0
    assert len(doc["classes"]) == 4
    assert doc["edges"] == [[0, 3], [1, 2], [2, 3]]


def test_atom_graph_dot(c5, capsys):
    assert main(["atom-graph", c5, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph atom {")
    assert "1 -- 2;" in out


def test_atom_graph_rejects_on_wc(k23, capsys):
    assert main(["atom-graph", k23]) == 1
    assert "wallspace" in capsys.readouterr().out


def test_oracle_cli(c5, k23, capsys):
    assert main(["oracle", c5, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["found"] is True
    assert doc["m"] == 2 and doc["n"] == 5

    assert main(["oracle", k23, "--max-ground", "6", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["found"] is False


def test_verify_cli(c5, tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    labels.write_text("0 1\n1 3\n2 3\n2 4\n0 4\n", encoding="utf-8")
    assert main(["verify", c5, str(labels)]) == 0
    capsys.readouterr()

    labels.write_text("0 1\n1 3\n2 3\n2 4\n1 4\n", encoding="utf-8")
    assert main(["verify", c5, str(labels), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "fail"
    assert "witness" in doc

    labels.write_text("0 1\n", encoding="utf-8")
    assert main(["verify", c5, str(labels)]) == 2


def test_parse_labels_empty_set_marker():
    labels = parse_labels("# comment\n-\n0\n0 1\n")
    assert labels == [frozenset(), frozenset({0}), frozenset({0, 1})]
    with pytest.raises(ValueError):
        parse_labels("0 x\n")


def test_basis_graph_cli(k23, tmp_path, capsys):
    assert main(["basis-graph", k23, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "no"
    assert doc["wc"]["result"] == "fail"

    j24 = tmp_path / "j24.txt"
    assert main(["gen", "johnson", "2", "4", "-o", str(j24)]) == 0
    assert main(["basis-graph", str(j24), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "yes"
    assert doc["wc"]["result"] == "pass"
    assert doc["ic"]["result"] == "pass"


def test_partial_cube_cli(c5, tmp_path, capsys):
    p4 = tmp_path / "p4.txt"
    assert main(["gen", "path", "4", "-o", str(p4)]) == 0
    assert main(["partial-cube", str(p4), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "yes"
    assert doc["dimension"] == 3

    assert main(["partial-cube", c5, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "no"
    assert doc["kind"] == "NOT_BIPARTITE"
    assert len(doc["odd_cycle"]) == 5


def test_format_edge_list_round_trip():
    from johnson_embed import parse_graph, petersen_graph

    g = petersen_graph()
    text = format_edge_list(g, comment="petersen")
    h = parse_graph(text)
    assert h.n == g.n and h.edges == g.edges
