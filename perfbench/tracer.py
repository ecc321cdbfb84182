"""Outside-in tracer: per-function call counts and self time.

The tracer wraps the public functions of each layer from outside the
program.  A function is patched under every name that binds it in any loaded
`johnson_embed.*` module, so a call from one module into another goes
through the wrapper too.  `Graph` construction is traced by patching
`Graph.__init__`.  Generator functions are counted but not timed, because
their work runs later, inside whoever iterates them.  A listed name that the
program no longer defines is recorded in `absent` and skipped.

Self time is a span's duration minus the spans of the wrapped calls made
inside it, so the self times of one operation add up to the time spent
inside its outermost wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "johnson_embed"

# Public module-level functions per layer.  cli.cmd_gen, cli.cmd_oracle and
# cli.format_edge_list serve `gen` and `oracle`, which no workload runs; the
# families and oracle modules are not timed.
LAYERS = {
    "graphs": ("Graph", "parse_graph", "distance_matrix", "interval", "is_convex",
               "induced_components", "is_bipartite", "induced_is_pattern",
               "induced_subgraph"),
    "walls": ("w_sets", "splits", "check_wc_edge", "check_wc", "check_wc_all"),
    "atom": ("scalar", "vertical_edges", "theta1_classes", "atom_graph"),
    "rootgraph": ("find_claw_or_diamond", "krausz_partition", "bipartite_root",
                  "line_graph"),
    "embedder": ("bfs_tree", "run_pipeline", "build_embedding", "verify_embedding",
                 "embed_hypercube"),
    "matroid": ("check_ic", "squares", "check_pc", "check_lc", "is_basis_graph"),
    "cli": ("main", "cmd_embed", "cmd_check", "cmd_check_wc_pass", "cmd_atom_graph",
            "cmd_verify", "parse_labels", "cmd_basis_graph", "cmd_partial_cube"),
}
UNTRACED = frozenset({"cli.cmd_gen", "cli.cmd_oracle", "cli.format_edge_list"})


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Install with `with Tracer() as t:`; originals come back on exit."""

    def __init__(self):
        self.calls = {name: 0 for name in traced_names()}
        self.self_s = {name: 0.0 for name in traced_names()}
        self.absent: list[str] = []
        self.convex_repeats = 0
        self.convex_witnesses = 0
        self.verify_pairs = 0
        self.theta_classes = 0
        self._halves_seen: set[frozenset[int]] = set()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- per-operation state ----

    def begin_op(self) -> None:
        """Start an operation: repeats of is_convex are counted within one."""
        self._halves_seen.clear()

    def _on_is_convex(self, args, result) -> None:
        half = frozenset(args[1])
        if half in self._halves_seen:
            self.convex_repeats += 1
        self._halves_seen.add(half)
        if result is not True:
            self.convex_witnesses += 1

    def _on_verify_embedding(self, args, result) -> None:
        n = args[0].n
        if result is True:
            self.verify_pairs += n * (n - 1) // 2
        else:
            x, y = result.x, result.y
            self.verify_pairs += x * n - x * (x + 1) // 2 + (y - x)

    def _on_theta1_classes(self, args, result) -> None:
        self.theta_classes += len(result.classes)

    # ---- patching ----

    def __enter__(self) -> "Tracer":
        hooks = {"graphs.is_convex": self._on_is_convex,
                 "embedder.verify_embedding": self._on_verify_embedding,
                 "atom.theta1_classes": self._on_theta1_classes}
        for mod_name, fns in LAYERS.items():
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name, None)
                if original is None:
                    self.absent.append(name)
                elif isinstance(original, type):
                    self._patch(original, "__init__",
                                self._wrap(name, original.__init__, None))
                else:
                    self._patch_everywhere(original,
                                           self._wrap(name, original, hooks.get(name)))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr: str, replacement) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def _wrap(self, name: str, fn, hook):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                calls[name] += 1
                self_s[name] += span - children[0]
                if stack:
                    stack[-1][0] += span
            if hook is not None:
                hook(args, result)
                if stack:
                    # Keep the hook's own cost out of the caller's self time.
                    stack[-1][0] += clock() - end
            return result
        return timed

    # ---- results ----

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-operation counts and self milliseconds, plus derived ratios."""
        out: dict[str, float] = {}
        for name in traced_names():
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_ms"] = self.self_s[name] * 1000 / ops
        convex = self.calls["graphs.is_convex"]
        out["graphs.is_convex.repeat_share"] = self.convex_repeats / convex if convex else 0.0
        out["graphs.is_convex.witness_share"] = self.convex_witnesses / convex if convex else 0.0
        out["embedder.verify_embedding.pairs"] = self.verify_pairs / ops
        out["atom.theta1_classes.classes"] = self.theta_classes / ops
        return out
