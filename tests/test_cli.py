import argparse
import gc
import json
from pathlib import Path

import pytest

from johnson_embed.cli import format_edge_list, main, parse_labels
from johnson_embed import cli, cycle_graph, embedder, graphs, oracle
from johnson_embed.embedder import IsometryWitness
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


def test_embed_paranoid(c5, capsys):
    # The flag is gone: a script that still passes it gets a usage error,
    # never a "no".
    with pytest.raises(SystemExit) as exc:
        main(["embed", c5, "--paranoid"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --paranoid" in captured.err
    assert "Traceback" not in captured.err


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
    monkeypatch.setattr(embedder, "_verify_masks",
                        lambda d, masks: IsometryWitness(0, 1, 4, 2))
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


def test_atom_graph_dot_json_is_json_with_a_dot_key(c5, capsys):
    assert main(["atom-graph", c5, "--json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["atom-graph", c5, "--dot", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc.pop("dot").startswith("graph atom {")
    assert doc == plain


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


def test_oracle_cli_rejects_a_large_ground_set(k23, capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("searched past the ground set limit")

    monkeypatch.setattr(oracle, "brute_force_embed", no_search)
    assert main(["oracle", k23, "--max-ground", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ground set size 30 exceeds")


def test_oracle_cli_refuses_a_negative_bound(c5, capsys):
    for flag in (["--json"], []):
        assert main(["oracle", c5, "--max-ground", "-1", *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ground set size bound -1 is negative\n"
    assert main(["oracle", c5, "--max-ground", "0"]) == 1
    assert capsys.readouterr().out == "no embedding found with ground set size <= 0\n"


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


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
def test_byte_order_mark_starts_a_file_as_if_absent(c5, tmp_path, capsys, json_flag):
    # Some editors write a UTF-8 byte-order mark at the start of a file.
    labels = tmp_path / "labels.txt"
    labels.write_text("0 1\n1 3\n2 3\n2 4\n0 4\n", encoding="utf-8")
    marked = {}
    for name, path in (("graph", Path(c5)), ("labels", labels)):
        marked[name] = tmp_path / f"marked-{path.name}"
        marked[name].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    for plain, with_mark in ((["embed", c5], ["embed", str(marked["graph"])]),
                             (["verify", c5, str(labels)],
                              ["verify", c5, str(marked["labels"])])):
        assert main(plain + json_flag) == 0
        want = capsys.readouterr()
        assert main(with_mark + json_flag) == 0
        assert capsys.readouterr() == want


def test_byte_order_mark_after_the_start_is_an_error(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_bytes(b"2\n\xef\xbb\xbf0 1\n")
    assert main(["embed", str(graph)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2: vertex is not an integer: '\\ufeff0'\n")
    graph.write_text("2\n0 1\n", encoding="utf-8")
    labels = tmp_path / "labels.txt"
    labels.write_bytes(b"0\n\xef\xbb\xbf1\n")
    assert main(["verify", str(graph), str(labels)]) == 2
    assert capsys.readouterr().err == (
        "error: labels line 2: not integers: '\\ufeff1'\n")


def test_repeated_label_element_is_refused(tmp_path, capsys):
    # "0 0" is not a set; read as {0} it would pass as K2's label.
    graph = tmp_path / "k2.txt"
    graph.write_text("2\n0 1\n", encoding="utf-8")
    labels = tmp_path / "labels.txt"
    labels.write_text("0 0\n1\n", encoding="utf-8")
    assert main(["verify", str(graph), str(labels)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: labels line 1: repeated element 0\n"
    with pytest.raises(ValueError, match="labels line 3: repeated element 2"):
        parse_labels("-\n\n1 2 3 2 1\n")


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


def test_gen_random_out_of_attempts_is_a_usage_error(capsys):
    assert main(["gen", "random", "30", "--p", "0.01"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no connected graph on 30 vertices")
    assert "Traceback" not in captured.err


def test_gen_random_too_large_is_a_usage_error(capsys):
    assert main(["gen", "random", "20000", "--p", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: family 'random' with 20000 vertices")
    assert "Traceback" not in captured.err


# ---- the narrowed parser against the full one ----

# One valid argv per subcommand, every option of it set.
VALID_ARGV = {
    "embed": ["embed", "g.txt", "--basepoint", "1", "--json", "--walls"],
    "check": ["check", "pc", "g.txt", "--basepoint", "2", "--json", "--all",
              "--all-squares", "--dot"],
    "atom-graph": ["atom-graph", "g.txt", "--basepoint", "1", "--json", "--dot"],
    "gen": ["gen", "random", "6", "-o", "out.txt", "--seed", "3", "--p", "0.5"],
    "oracle": ["oracle", "g.txt", "--max-ground", "6", "--json"],
    "verify": ["verify", "g.txt", "labels.txt", "--json"],
    "basis-graph": ["basis-graph", "g.txt", "--json"],
    "partial-cube": ["partial-cube", "g.txt", "--json"],
}

# The positionals that complete each subcommand's argv.
POSITIONALS = {"check": ["wc", "g.txt"], "gen": ["cycle", "5"],
               "verify": ["g.txt", "labels.txt"]}

# An int option per subcommand that has one.
INT_OPTION = {"embed": "--basepoint", "check": "--basepoint",
              "atom-graph": "--basepoint", "gen": "--seed", "oracle": "--max-ground"}


def _failing_argvs(name):
    full = [name, *POSITIONALS.get(name, ["g.txt"])]
    yield [name, "-h"]
    yield [name]
    yield [*full, "--nope"]
    yield [*full, "extra"]
    if name in INT_OPTION:
        yield [*full, INT_OPTION[name], "x"]
    if name == "check":
        yield ["check", "bogus", "g.txt"]


def _exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_valid_argvs_cover_every_subcommand():
    assert list(VALID_ARGV) == list(cli._SUBCOMMANDS)


@pytest.mark.parametrize("name", list(VALID_ARGV))
def test_narrowed_parser_gives_the_full_parsers_namespace(name):
    argv = VALID_ARGV[name]
    args, extra = cli._command_parser(name).parse_known_args(argv[1:])
    assert extra == []
    assert args == cli._parser().parse_args(argv)
    assert args.func is getattr(cli, "cmd_" + name.replace("-", "_"))


@pytest.mark.parametrize("name", list(VALID_ARGV))
def test_main_fails_like_the_full_parser(name, capsys):
    for argv in _failing_argvs(name):
        narrowed = _exit(main, argv, capsys)
        assert narrowed == _exit(cli._parser().parse_args, argv, capsys), argv
        assert narrowed[0] == (0 if argv[-1] == "-h" else 2), argv


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["nosuch"], ["nosuch", "g.txt"]])
def test_top_level_usage_is_the_full_parsers(argv, capsys):
    assert _exit(main, argv, capsys) == _exit(cli._parser().parse_args, argv, capsys)


@pytest.mark.parametrize("columns", ["40", "200"])
def test_main_wraps_help_and_errors_at_the_terminal_width(columns, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", columns)
    for name in VALID_ARGV:
        for argv in ([name, "-h"], [name, "--nope"]):
            narrowed = _exit(main, argv, capsys)
            assert narrowed == _exit(cli._parser().parse_args, argv, capsys), argv


def test_main_builds_one_parser_and_no_subparsers(k23, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    cli._command_parser.cache_clear()
    built = []
    for cls in (argparse.ArgumentParser, argparse._SubParsersAction):
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built.append(_cls.__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    assert main(["check", "lc", k23]) == 0
    assert built == ["ArgumentParser"]
    # The parser is kept: a second call builds none, another subcommand one.
    assert main(["check", "lc", k23]) == 0
    assert built == ["ArgumentParser"]
    assert main(["embed", k23]) == 1
    assert built == ["ArgumentParser"] * 2
    capsys.readouterr()
    # The kept parser was built with the original cmd_check, but main calls
    # the module's current one.
    monkeypatch.setattr(cli, "cmd_check", lambda args: 7)
    assert main(["check", "lc", k23]) == 7
    assert built == ["ArgumentParser"] * 2


def test_kept_parsers_follow_the_terminal_width(monkeypatch, capsys):
    cli._command_parser.cache_clear()
    for columns in ("40", "200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        for name in VALID_ARGV:
            for argv in _failing_argvs(name):
                narrowed = _exit(main, argv, capsys)
                assert narrowed == _exit(cli._parser().parse_args, argv, capsys), (columns, argv)
    # One kept parser per subcommand serves every width.
    assert cli._command_parser.cache_info().currsize == len(VALID_ARGV)


def test_kept_parser_starts_each_call_from_the_defaults(k23, capsys):
    assert main(["check", "wc", k23, "--all", "--json"]) == 1
    assert "certificates" in json.loads(capsys.readouterr().out)
    misses = cli._command_parser.cache_info().misses
    assert main(["check", "wc", k23, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert "certificates" not in doc
    assert doc["edge"] == [0, 2]
    assert cli._command_parser.cache_info().misses == misses


def test_a_warm_call_leaves_no_cyclic_garbage(k23, capsys):
    assert main(["check", "lc", k23]) == 0
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert main(["check", "lc", k23]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
