"""Command-line interface.

Exit codes: 0 for accept/pass, 1 for reject/fail with a certificate,
2 for usage, format, or I/O errors, 3 for an internal error (a bug, never a
property of the input).  Certificates are printed with enough data to
re-verify them against the input graph alone; --json switches every command
from the human rendering to a stable JSON document on stdout.

Each call parses with the own parser of the subcommand its first argument
names, the one the full parser would hand the remaining arguments to.  That
parser is built once per process for each subcommand and terminal width, so a
later call reads the width and parses.  With no argument, -h, an unknown
subcommand or an unrecognized argument it builds the full parser, so usage
lines and errors are always those of the full parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys
from dataclasses import fields
from pathlib import Path

from .embedder import (
    INTERNAL,
    NOT_BIPARTITE,
    Embedding,
    HypercubeEmbedding,
    PipelineRun,
    RejectionCertificate,
    embed_hypercube,
    run_pipeline,
    verify_embedding,
)
from .families import gen_family, random_connected_graph
from .graphs import ConsistencyError, Graph, GraphError, parse_graph
from .matroid import (
    ConditionReport,
    check_ic,
    check_lc,
    check_pc,
    is_basis_graph,
)
from .oracle import oracle_decide
from .rootgraph import CLAW, DIAMOND, ODD_CYCLE_IN_ROOT, RootCertificate
from .walls import WallSystem, WcCertificate, check_wc, check_wc_all


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = None
    if argv and argv[0] in _SUBCOMMANDS:
        width = shutil.get_terminal_size().columns - 2
        args, extra = _command_parser(argv[0], width).parse_known_args(argv[1:])
        if extra:
            # The command's usage line names one subcommand; let the full
            # parser report the unrecognized arguments.
            args = None
    if args is None:
        args = _parser().parse_args(argv)
    try:
        # A kept parser holds the cmd_* it was built with; call the current one.
        return globals()[args.func.__name__](args)
    except (OSError, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def _parser() -> argparse.ArgumentParser:
    """The full argument parser, with a subparser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="johnson-embed",
        description="Decide isometric embeddability into Johnson graphs.")
    sub = parser.add_subparsers(required=True)
    for name, (summary, add_arguments) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=summary))
    return parser


@functools.cache
def _command_parser(name: str, width: int) -> argparse.ArgumentParser:
    """The parser `_parser()` gives subcommand `name`, built once and kept.

    argparse makes a HelpFormatter for every argument it adds and for every
    usage line or help it prints, and each would read the terminal size; here
    they all get `width`, the terminal's columns less 2 as argparse takes it.
    """
    parser = argparse.ArgumentParser(
        prog=f"johnson-embed {name}",
        formatter_class=functools.partial(argparse.HelpFormatter, width=width))
    _SUBCOMMANDS[name][1](parser)
    return parser


def _embed_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("--basepoint", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--walls", action="store_true",
                   help="also print the deduplicated wall system")
    p.set_defaults(func=cmd_embed)


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("condition", choices=["wc", "agc", "ic", "pc", "lc"])
    p.add_argument("graph")
    p.add_argument("--basepoint", type=int, default=0, help="basepoint for agc")
    p.add_argument("--json", action="store_true")
    p.add_argument("--all", action="store_true",
                   help="wc only: report every failing edge instead of the first")
    p.add_argument("--all-squares", action="store_true",
                   help="pc only: quantify over all 4-cycles, not just induced ones")
    p.add_argument("--dot", action="store_true",
                   help="agc only: print the reconstructed root in DOT on success")
    p.set_defaults(func=cmd_check)


def _atom_graph_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("--basepoint", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_atom_graph)


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.add_argument("--seed", type=int, default=0, help="random family only")
    p.add_argument("--p", type=float, default=0.5, help="random family only")
    p.set_defaults(func=cmd_gen)


def _oracle_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("--max-ground", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("labels")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)


def _basis_graph_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_basis_graph)


def _partial_cube_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_partial_cube)


# Subcommand -> (help, function that adds its arguments), in help order.  The
# functions bind cmd_* when the parser is built, and `main` calls the module's
# cmd_* of that name, so one patched after a parser was kept is still called.
_SUBCOMMANDS = {
    "embed": ("embed a graph or print a refutation certificate", _embed_arguments),
    "check": ("run a single structural condition", _check_arguments),
    "atom-graph": ("print the atom graph of a basepoint", _atom_graph_arguments),
    "gen": ("generate a named family member as an edge list", _gen_arguments),
    "oracle": ("brute-force search over small ground sets", _oracle_arguments),
    "verify": ("verify a labels file against a graph", _verify_arguments),
    "basis-graph": ("decide matroid basis graph membership", _basis_graph_arguments),
    "partial-cube": ("embed into a hypercube or refute", _partial_cube_arguments),
}


def _load(path: str) -> Graph:
    return parse_graph(Path(path).read_bytes())


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, default=_doc))
    else:
        print(human)


# ---- rendering ----

def _doc(x) -> dict | list:
    """The JSON form of a result object, one level deep.

    A dataclass becomes a dict of its fields in declaration order, leaving out
    any field still equal to its declared default; a frozenset becomes a
    sorted list.  json.dumps calls this for every dataclass or frozenset it
    meets inside a payload, and writes tuples as lists itself, so a
    certificate's JSON is exactly its own fields.
    """
    if isinstance(x, frozenset):
        return sorted(x)
    return {f.name: v for f in fields(x) if (v := getattr(x, f.name)) != f.default}


def _label_lines(labels) -> list[str]:
    return [f"  {v} -> {{{', '.join(map(str, sorted(lab)))}}}"
            for v, lab in enumerate(labels)]


def _wc_human(cert: WcCertificate) -> str:
    u, v = cert.edge
    if cert.component_count is not None:
        return (f"edge ({u}, {v}): equidistant set has {cert.component_count} "
                f"components: " + " ".join(str(set(c)) for c in cert.components))
    w = cert.witness
    half = "{" + ", ".join(map(str, cert.half)) + "}"
    return (f"edge ({u}, {v}), wall {cert.variant}: half {half} is not convex: "
            f"{w.z} lies between {w.x} and {w.y}")


def _root_human(cert: RootCertificate) -> str:
    if cert.kind == CLAW:
        c, *leaves = cert.vertices
        return f"class {c} has pairwise non-adjacent class neighbors {leaves}"
    if cert.kind == DIAMOND:
        u, v, w, x = cert.vertices
        return (f"classes ({u}, {v}) are adjacent with non-adjacent common "
                f"neighbors ({w}, {x})")
    return f"root graph contains an odd cycle: {list(cert.cycle)}"


def _walls_human(ws: WallSystem) -> str:
    lines = [f"{len(ws.walls)} walls:"]
    for w in ws.walls:
        a, b = w.halves
        lines.append(f"  {set(a)} | {set(b)}  x{w.multiplicity}")
    return "\n".join(lines)


def _ic_human(w) -> str:
    return f"interval of ({w.u}, {w.v}) = {set(w.interval)}"


def _rejection(rc: RejectionCertificate, run: PipelineRun) -> tuple[dict, str]:
    cert = rc.payload
    payload = {"result": "error" if rc.stage == INTERNAL else "no", "stage": rc.stage,
               **_doc(cert)}
    if isinstance(cert, WcCertificate):
        return payload, f"not embeddable (wallspace condition): {_wc_human(cert)}"
    if isinstance(cert, RootCertificate):
        payload["basepoint"] = run.basepoint
        if cert.kind == ODD_CYCLE_IN_ROOT:
            # The deterministic reconstruction lets the cycle be rechecked.
            payload["class_count"] = run.sigma.n
        return payload, f"not embeddable (atom graph condition): {_root_human(cert)}"
    return payload, f"internal error: {cert.reason}: {cert.data}"


def _dot(g: Graph, name: str, annotations: dict[int, str] | None = None) -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        attr = f' [{annotations[v]}]' if annotations and v in annotations else ""
        if attr or not g.neighbors[v]:
            lines.append(f"  {v}{attr};")
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)


# ---- commands ----

def cmd_embed(args) -> int:
    g = _load(args.graph)
    run = run_pipeline(g, args.basepoint)
    result = run.result
    if isinstance(result, Embedding):
        payload, code = {"result": "yes", **_doc(result)}, 0
        human = "\n".join([f"embeddable: m={result.m} ground_set_size="
                           f"{result.ground_set_size} basepoint={result.basepoint}",
                           *_label_lines(result.labels)])
    else:
        payload, human = _rejection(result, run)
        code = 3 if result.stage == INTERNAL else 1
    if args.walls and run.wall_system is not None:
        payload["walls"] = run.wall_system.walls
        human += "\n" + _walls_human(run.wall_system)
    _emit(args, payload, human)
    return code


def cmd_check(args) -> int:
    g = _load(args.graph)
    if args.condition == "wc":
        result = check_wc(g)
        if not isinstance(result, WcCertificate):
            return cmd_check_wc_pass(args, result)
        payload = {"result": "fail", "condition": "wc"}
        if args.all:
            certs = payload["certificates"] = check_wc_all(g)
        else:
            certs = [result]
            payload.update(_doc(result))
        _emit(args, payload, "\n".join("wc fail: " + _wc_human(c) for c in certs))
        return 1
    if args.condition == "agc":
        return _check_agc(args, g)
    if args.condition == "ic":
        report = check_ic(g)
    elif args.condition == "pc":
        report = check_pc(g, induced_only=not args.all_squares)
    else:
        report = check_lc(g)
    return _emit_condition(args, report)


def cmd_check_wc_pass(args, system: WallSystem) -> int:
    _emit(args,
          {"result": "pass", "condition": "wc",
           "wall_count": len(system.walls), "walls": system.walls},
          "wc pass\n" + _walls_human(system))
    return 0


def _check_agc(args, g: Graph) -> int:
    run = run_pipeline(g, args.basepoint)
    # An Embedding has no payload; an INTERNAL witness means agc passed.
    cert = getattr(run.result, "payload", None)
    if isinstance(cert, WcCertificate):
        _emit(args, {"result": "fail", "condition": "wc", **_doc(cert)},
              "wc fail (agc needs it): " + _wc_human(cert))
        return 1
    if isinstance(cert, RootCertificate):
        _emit(args,
              {"result": "fail", "condition": "agc", "basepoint": run.basepoint,
               **_doc(cert)},
              "agc fail: " + _root_human(cert))
        return 1
    root = run.root
    payload = {
        "result": "pass", "condition": "agc", "basepoint": run.basepoint,
        "wc": "pass", "class_count": run.sigma.n,
        "b_side": root.b_side, "a_side": root.a_side, "root_edges": root.vertex_to_edge,
    }
    human = (f"wc pass, agc pass: {run.sigma.n} classes, root has "
             f"|b side| = {len(root.b_side)}, |a side| = {len(root.a_side)}")
    if args.dot:
        sides = {v: 'side="b"' for v in root.b_side}
        sides.update({v: 'side="a"' for v in root.a_side})
        human = payload["dot"] = _dot(root.root, "root", sides)
    _emit(args, payload, human)
    return 0


def _emit_condition(args, report: ConditionReport) -> int:
    name = report.condition.lower()
    if report.passed:
        _emit(args, {"result": "pass", "condition": name}, f"{name} pass")
        return 0
    w = report.witness
    if name == "ic":
        human = f"ic fail: {_ic_human(w)} induces no allowed pattern"
    elif name == "pc":
        human = (f"pc fail: square {w.square} has unequal distance sums "
                 f"from {w.basepoint}")
    else:
        human = (f"lc fail at vertex {w.vertex}: neighborhood "
                 f"{set(w.neighborhood)}: {_root_human(w.certificate)}")
    _emit(args, {"result": "fail", "condition": name, "witness": w}, human)
    return 1


def cmd_atom_graph(args) -> int:
    g = _load(args.graph)
    run = run_pipeline(g, args.basepoint)
    if isinstance(getattr(run.result, "payload", None), WcCertificate):
        _emit(args, *_rejection(run.result, run))
        return 1
    sigma = run.sigma
    payload = {**_doc(run.classes), "edges": sigma.edges}
    if args.dot:
        human = payload["dot"] = _dot(sigma, "atom")
    else:
        lines = [f"atom graph: {sigma.n} classes, {len(sigma.edges)} edges "
                 f"(basepoint {run.basepoint})"]
        for i, cls in enumerate(run.classes.classes):
            lines.append(f"  class {i}: " + " ".join(f"{t}->{h}" for t, h in cls))
        for i, j in sigma.edges:
            lines.append(f"  {i} -- {j}")
        human = "\n".join(lines)
    _emit(args, payload, human)
    return 0


def cmd_gen(args) -> int:
    if args.family == "random":
        if len(args.params) != 1:
            raise ValueError("family 'random' takes one parameter: n")
        g = random_connected_graph(args.params[0], args.p, args.seed)
        header = f"random {args.params[0]} p={args.p} seed={args.seed}"
    else:
        g = gen_family(args.family, args.params)
        header = " ".join([args.family, *map(str, args.params)])
    text = format_edge_list(g, comment=header)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def format_edge_list(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(str(g.n))
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def cmd_oracle(args) -> int:
    g = _load(args.graph)
    result = oracle_decide(g, n_max=args.max_ground)
    if result.found:
        _emit(args, _doc(result),
              f"found: m={result.m} n={result.n} labels="
              + " ".join("{" + ",".join(map(str, sorted(lab))) + "}" for lab in result.labels))
        return 0
    _emit(args,
          {"found": False, "max_ground": args.max_ground,
           "nodes_explored": result.nodes_explored},
          f"no embedding found with ground set size <= {args.max_ground}")
    return 1


def cmd_verify(args) -> int:
    g = _load(args.graph)
    # utf-8-sig drops a byte-order mark at the start, as parse_graph does.
    labels = parse_labels(Path(args.labels).read_text(encoding="utf-8-sig"))
    if len(labels) != g.n:
        raise ValueError(f"expected {g.n} label lines, got {len(labels)}")
    verdict = verify_embedding(g.distances(), labels)
    if verdict is True:
        _emit(args, {"result": "pass"}, "verified: labels are isometric")
        return 0
    _emit(args,
          {"result": "fail", "witness": verdict},
          f"not isometric: |label({verdict.x}) ^ label({verdict.y})| = "
          f"{verdict.sym_diff}, expected {verdict.expected}")
    return 1


def parse_labels(text: str) -> list[frozenset[int]]:
    """One label per significant line: space-separated ints, each at most
    once, or '-' for empty."""
    labels = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "-":
            labels.append(frozenset())
            continue
        try:
            label = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"labels line {lineno}: not integers: {line!r}") from None
        labels.append(frozenset(label))
        if len(labels[-1]) < len(label):
            repeated = next(e for k, e in enumerate(label) if e in label[:k])
            raise ValueError(f"labels line {lineno}: repeated element {repeated}")
    return labels


def cmd_basis_graph(args) -> int:
    g = _load(args.graph)
    report = is_basis_graph(g)
    wc, ic = report.wc, report.ic
    verdict = "yes" if report.passed else "no"
    human = [f"basis graph: {verdict}"]
    if isinstance(wc, WcCertificate):
        wc_part = {"result": "fail", **_doc(wc)}
        human.append("  wc fail: " + _wc_human(wc))
    else:
        wc_part = {"result": "pass"}
        human.append("  wc pass")
    if ic.passed:
        ic_part = {"result": "pass"}
        human.append("  ic pass")
    else:
        ic_part = {"result": "fail", "witness": ic.witness}
        human.append(f"  ic fail: {_ic_human(ic.witness)}")
    _emit(args, {"result": verdict, "wc": wc_part, "ic": ic_part}, "\n".join(human))
    return 0 if report.passed else 1


def cmd_partial_cube(args) -> int:
    g = _load(args.graph)
    result = embed_hypercube(g)
    if isinstance(result, HypercubeEmbedding):
        _emit(args, {"result": "yes", **_doc(result)},
              "\n".join([f"hypercube embeddable: dimension={result.dimension}",
                         *_label_lines(result.labels)]))
        return 0
    if result.kind == NOT_BIPARTITE:
        human = f"not hypercube embeddable: odd cycle {list(result.odd_cycle)}"
    else:
        w = result.witness
        human = (f"not hypercube embeddable: edge {result.edge} side {set(result.half)} "
                 f"is not convex ({w.z} lies between {w.x} and {w.y})")
    _emit(args, {"result": "no", **_doc(result)}, human)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
