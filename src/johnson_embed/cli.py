"""Command-line interface.

Exit codes: 0 for accept/pass, 1 for reject/fail with a certificate,
2 for usage, format, or I/O errors, 3 for an internal error (a bug, never a
property of the input).  Certificates are printed with enough data to
re-verify them against the input graph alone; --json switches every command
from the human rendering to a stable JSON document on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .atom import ThetaClasses
from .embedder import (
    INTERNAL,
    Embedding,
    HypercubeCertificate,
    HypercubeEmbedding,
    RejectionCertificate,
    build_embedding,
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
from .rootgraph import BipartiteRoot, RootCertificate, bipartite_root
from .walls import WallSystem, WcCertificate, check_wc, check_wc_all


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="johnson-embed",
        description="Decide isometric embeddability into Johnson graphs.")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("embed", help="embed a graph or print a refutation certificate")
    p.add_argument("graph")
    p.add_argument("--basepoint", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--paranoid", action="store_true",
                   help="recheck class adjacency against every representative pair")
    p.add_argument("--walls", action="store_true",
                   help="also print the deduplicated wall system")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("check", help="run a single structural condition")
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

    p = sub.add_parser("atom-graph", help="print the atom graph of a basepoint")
    p.add_argument("graph")
    p.add_argument("--basepoint", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_atom_graph)

    p = sub.add_parser("gen", help="generate a named family member as an edge list")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.add_argument("--seed", type=int, default=0, help="random family only")
    p.add_argument("--p", type=float, default=0.5, help="random family only")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="brute-force search over small ground sets")
    p.add_argument("graph")
    p.add_argument("--max-ground", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="verify a labels file against a graph")
    p.add_argument("graph")
    p.add_argument("labels")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("basis-graph", help="decide matroid basis graph membership")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_basis_graph)

    p = sub.add_parser("partial-cube", help="embed into a hypercube or refute")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_partial_cube)
    return parser


def _load(path: str) -> Graph:
    return parse_graph(Path(path).read_bytes())


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


# ---- serialization ----

def _embedding_json(emb: Embedding) -> dict:
    return {
        "result": "yes",
        "m": emb.m,
        "ground_set_size": emb.ground_set_size,
        "basepoint": emb.basepoint,
        "labels": [sorted(lab) for lab in emb.labels],
    }


def _embedding_human(emb: Embedding) -> str:
    return "\n".join([f"embeddable: m={emb.m} ground_set_size={emb.ground_set_size} "
                      f"basepoint={emb.basepoint}", *_label_lines(emb.labels)])


def _label_lines(labels) -> list[str]:
    return [f"  {v} -> {{{', '.join(map(str, sorted(lab)))}}}"
            for v, lab in enumerate(labels)]


def _wc_certificate_json(cert: WcCertificate) -> dict:
    out: dict = {"kind": cert.kind, "edge": list(cert.edge)}
    if cert.component_count is not None:
        out["component_count"] = cert.component_count
        out["components"] = [list(c) for c in cert.components]
    if cert.half is not None:
        out["variant"] = cert.variant
        out["half"] = list(cert.half)
        w = cert.witness
        out["witness"] = {"x": w.x, "y": w.y, "z": w.z}
    return out


def _wc_certificate_human(cert: WcCertificate) -> str:
    u, v = cert.edge
    if cert.component_count is not None:
        return (f"edge ({u}, {v}): equidistant set has {cert.component_count} "
                f"components: " + " ".join(str(set(c)) for c in cert.components))
    w = cert.witness
    half = "{" + ", ".join(map(str, cert.half)) + "}"
    return (f"edge ({u}, {v}), wall {cert.variant}: half {half} is not convex: "
            f"{w.z} lies between {w.x} and {w.y}")


def _root_certificate_json(cert: RootCertificate) -> dict:
    out: dict = {"kind": cert.kind}
    if cert.vertices:
        out["vertices"] = list(cert.vertices)
    if cert.cliques:
        out["cliques"] = [list(c) for c in cert.cliques]
    if cert.cycle:
        out["cycle"] = list(cert.cycle)
    return out


def _root_certificate_human(cert: RootCertificate) -> str:
    if cert.kind == "CLAW":
        c, *leaves = cert.vertices
        return f"class {c} has pairwise non-adjacent class neighbors {leaves}"
    if cert.kind == "DIAMOND":
        u, v, w, x = cert.vertices
        return (f"classes ({u}, {v}) are adjacent with non-adjacent common "
                f"neighbors ({w}, {x})")
    if cert.kind == "VERTEX_IN_3_CLIQUES":
        return (f"class {cert.vertices[0]} lies in {len(cert.cliques)} maximal "
                f"cliques")
    return f"root graph contains an odd cycle: {list(cert.cycle)}"


def _rejection_json(rc: RejectionCertificate, run=None) -> dict:
    out: dict = {"result": "error" if rc.stage == INTERNAL else "no", "stage": rc.stage}
    payload = rc.payload
    if isinstance(payload, WcCertificate):
        out.update(_wc_certificate_json(payload))
    elif isinstance(payload, RootCertificate):
        out.update(_root_certificate_json(payload))
        if run is not None:
            out["basepoint"] = run.basepoint
            if payload.kind == "ODD_CYCLE_IN_ROOT" and run.sigma is not None:
                # The deterministic reconstruction lets the cycle be rechecked.
                out["class_count"] = run.sigma.n
    else:
        out["reason"] = payload.reason
        out["data"] = list(payload.data)
    return out


def _rejection_human(rc: RejectionCertificate) -> str:
    payload = rc.payload
    if isinstance(payload, WcCertificate):
        detail = _wc_certificate_human(payload)
        return f"not embeddable (wallspace condition): {detail}"
    if isinstance(payload, RootCertificate):
        detail = _root_certificate_human(payload)
        return f"not embeddable (atom graph condition): {detail}"
    return f"internal error: {payload.reason}: {payload.data}"


def _wall_system_json(ws: WallSystem) -> list[dict]:
    return [
        {"halves": [list(w.halves[0]), list(w.halves[1])],
         "multiplicity": w.multiplicity}
        for w in ws.walls
    ]


def _wall_system_human(ws: WallSystem) -> str:
    lines = [f"{len(ws.walls)} walls:"]
    for w in ws.walls:
        a, b = w.halves
        lines.append(f"  {set(a)} | {set(b)}  x{w.multiplicity}")
    return "\n".join(lines)


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
    run = run_pipeline(g, args.basepoint, paranoid=args.paranoid)
    result = run.result
    if isinstance(result, Embedding):
        payload, human, code = _embedding_json(result), _embedding_human(result), 0
    else:
        payload, human = _rejection_json(result, run), _rejection_human(result)
        code = 3 if result.stage == INTERNAL else 1
    if args.walls and run.wall_system is not None:
        payload["walls"] = _wall_system_json(run.wall_system)
        human += "\n" + _wall_system_human(run.wall_system)
    _emit(args, payload, human)
    return code


def cmd_check(args) -> int:
    g = _load(args.graph)
    d = g.distances()
    if args.condition == "wc":
        result = check_wc(g, d)
        if not isinstance(result, WcCertificate):
            return cmd_check_wc_pass(args, result)
        if args.all:
            certs = check_wc_all(g, d)
            _emit(args,
                  {"result": "fail", "condition": "wc",
                   "certificates": [_wc_certificate_json(c) for c in certs]},
                  "\n".join("wc fail: " + _wc_certificate_human(c) for c in certs))
        else:
            _emit(args,
                  {"result": "fail", "condition": "wc", **_wc_certificate_json(result)},
                  "wc fail: " + _wc_certificate_human(result))
        return 1
    if args.condition == "agc":
        return _check_agc(args, g)
    if args.condition == "ic":
        report = check_ic(g, d)
    elif args.condition == "pc":
        report = check_pc(g, d, induced_only=not args.all_squares)
    else:
        report = check_lc(g)
    return _emit_condition(args, report)


def cmd_check_wc_pass(args, system: WallSystem) -> int:
    _emit(args,
          {"result": "pass", "condition": "wc",
           "wall_count": len(system.walls), "walls": _wall_system_json(system)},
          "wc pass\n" + _wall_system_human(system))
    return 0


def _check_agc(args, g: Graph) -> int:
    run = run_pipeline(g, args.basepoint)
    if run.wc_certificate is not None:
        _emit(args,
              {"result": "fail", "condition": "wc",
               **_wc_certificate_json(run.wc_certificate)},
              "wc fail (agc needs it): " + _wc_certificate_human(run.wc_certificate))
        return 1
    if run.root_certificate is not None:
        _emit(args,
              {"result": "fail", "condition": "agc", "basepoint": run.basepoint,
               **_root_certificate_json(run.root_certificate)},
              "agc fail: " + _root_certificate_human(run.root_certificate))
        return 1
    root = run.root
    payload = {
        "result": "pass", "condition": "agc", "basepoint": run.basepoint,
        "wc": "pass", "class_count": run.sigma.n,
        "b_side": list(root.b_side), "a_side": list(root.a_side),
        "root_edges": [list(e) for e in root.vertex_to_edge],
    }
    human = (f"wc pass, agc pass: {run.sigma.n} classes, root has "
             f"|b side| = {len(root.b_side)}, |a side| = {len(root.a_side)}")
    if args.dot:
        sides = {v: 'side="b"' for v in root.b_side}
        sides.update({v: 'side="a"' for v in root.a_side})
        human = _dot(root.root, "root", sides)
        payload["dot"] = human
    _emit(args, payload, human)
    return 0


def _emit_condition(args, report: ConditionReport) -> int:
    name = report.condition.lower()
    if report.passed:
        _emit(args, {"result": "pass", "condition": name}, f"{name} pass")
        return 0
    w = report.witness
    payload: dict = {"result": "fail", "condition": name}
    if name == "ic":
        payload["witness"] = {"u": w.u, "v": w.v, "interval": list(w.interval)}
        human = (f"ic fail: interval of ({w.u}, {w.v}) = {set(w.interval)} "
                 f"induces no allowed pattern")
    elif name == "pc":
        payload["witness"] = {"basepoint": w.basepoint, "square": list(w.square)}
        human = (f"pc fail: square {w.square} has unequal distance sums "
                 f"from {w.basepoint}")
    else:
        payload["witness"] = {
            "vertex": w.vertex, "neighborhood": list(w.neighborhood),
            "certificate": _root_certificate_json(w.certificate),
        }
        human = (f"lc fail at vertex {w.vertex}: neighborhood "
                 f"{set(w.neighborhood)}: {_root_certificate_human(w.certificate)}")
    _emit(args, payload, human)
    return 1


def cmd_atom_graph(args) -> int:
    g = _load(args.graph)
    run = run_pipeline(g, args.basepoint)
    if run.wc_certificate is not None:
        rc = RejectionCertificate("WC", run.wc_certificate)
        _emit(args, _rejection_json(rc, run), _rejection_human(rc))
        return 1
    sigma = run.sigma
    classes = run.classes
    if args.dot:
        print(_dot(sigma, "atom"))
        return 0
    payload = {
        "basepoint": run.basepoint,
        "classes": [[list(e) for e in cls] for cls in classes.classes],
        "edges": [list(e) for e in sigma.edges],
    }
    lines = [f"atom graph: {sigma.n} classes, {len(sigma.edges)} edges "
             f"(basepoint {run.basepoint})"]
    for i, cls in enumerate(classes.classes):
        lines.append(f"  class {i}: " + " ".join(f"{t}->{h}" for t, h in cls))
    for i, j in sigma.edges:
        lines.append(f"  {i} -- {j}")
    _emit(args, payload, "\n".join(lines))
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
    result = oracle_decide(g, g.distances(), n_max=args.max_ground)
    if result.found:
        _emit(args,
              {"found": True, "m": result.m, "n": result.n,
               "labels": [sorted(lab) for lab in result.labels],
               "nodes_explored": result.nodes_explored},
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
    labels = parse_labels(Path(args.labels).read_text(encoding="utf-8"))
    if len(labels) != g.n:
        raise ValueError(f"expected {g.n} label lines, got {len(labels)}")
    verdict = verify_embedding(g.distances(), labels)
    if verdict is True:
        _emit(args, {"result": "pass"}, "verified: labels are isometric")
        return 0
    _emit(args,
          {"result": "fail",
           "witness": {"x": verdict.x, "y": verdict.y,
                       "sym_diff": verdict.sym_diff, "expected": verdict.expected}},
          f"not isometric: |label({verdict.x}) ^ label({verdict.y})| = "
          f"{verdict.sym_diff}, expected {verdict.expected}")
    return 1


def parse_labels(text: str) -> list[frozenset[int]]:
    """One label per significant line: space-separated ints, or '-' for empty."""
    labels = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "-":
            labels.append(frozenset())
            continue
        try:
            labels.append(frozenset(int(tok) for tok in line.split()))
        except ValueError:
            raise ValueError(f"labels line {lineno}: not integers: {line!r}") from None
    return labels


def cmd_basis_graph(args) -> int:
    g = _load(args.graph)
    report = is_basis_graph(g, g.distances())
    wc_part: dict = {"result": "pass" if not isinstance(report.wc, WcCertificate) else "fail"}
    if isinstance(report.wc, WcCertificate):
        wc_part.update(_wc_certificate_json(report.wc))
    ic_part: dict = {"result": "pass" if report.ic.passed else "fail"}
    if not report.ic.passed:
        w = report.ic.witness
        ic_part["witness"] = {"u": w.u, "v": w.v, "interval": list(w.interval)}
    verdict = "yes" if report.passed else "no"
    human = [f"basis graph: {verdict}"]
    if isinstance(report.wc, WcCertificate):
        human.append("  wc fail: " + _wc_certificate_human(report.wc))
    else:
        human.append("  wc pass")
    if report.ic.passed:
        human.append("  ic pass")
    else:
        w = report.ic.witness
        human.append(f"  ic fail: interval of ({w.u}, {w.v}) = {set(w.interval)}")
    _emit(args, {"result": verdict, "wc": wc_part, "ic": ic_part}, "\n".join(human))
    return 0 if report.passed else 1


def cmd_partial_cube(args) -> int:
    g = _load(args.graph)
    result = embed_hypercube(g, g.distances())
    if isinstance(result, HypercubeEmbedding):
        _emit(args,
              {"result": "yes", "dimension": result.dimension,
               "labels": [sorted(lab) for lab in result.labels]},
              "\n".join([f"hypercube embeddable: dimension={result.dimension}",
                         *_label_lines(result.labels)]))
        return 0
    if result.kind == "NOT_BIPARTITE":
        _emit(args,
              {"result": "no", "kind": result.kind,
               "odd_cycle": list(result.odd_cycle)},
              f"not hypercube embeddable: odd cycle {list(result.odd_cycle)}")
        return 1
    w = result.witness
    _emit(args,
          {"result": "no", "kind": result.kind, "edge": list(result.edge),
           "half": list(result.half), "witness": {"x": w.x, "y": w.y, "z": w.z}},
          f"not hypercube embeddable: edge {result.edge} side {set(result.half)} "
          f"is not convex ({w.z} lies between {w.x} and {w.y})")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
