"""Outside-in tracer for cutlab's public functions.

The tracer replaces every ``cutlab.*`` binding of a traced function with a
wrapper that records one span per call: layer name, start, end and parent
span. ``from .graphs import min_weight_path`` copies the function object
into other modules, and ``ug._BUILDERS`` holds builders in a dict, so every
module attribute and module-level dict value that *is* the original object
is replaced, and restored by :meth:`Tracer.uninstall`.

Spans stay in memory; :meth:`Tracer.summary` turns them into per-layer self
times (a span's duration minus the time its child spans cover) and
counters. Nothing here edits ``src/cutlab``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) -> layer.  Self times are reported as "<layer>_s".
LAYERS = {
    ("cutlab.cli", "main"): "cli.self",
    ("cutlab.lp", "simplex_solve"): "lp.simplex",
    ("cutlab.lp", "multicut_lp"): "lp.cutting_plane",
    ("cutlab.lp", "short_path_cover_lp"): "lp.cutting_plane",
    ("cutlab.graphs", "min_weight_path"): "graphs.dijkstra",
    ("cutlab.graphs", "constrained_min_weight_path"): "graphs.lbdp",
    ("cutlab.graphs", "shortest_path_length"): "graphs.shortest_path",
    ("cutlab.graphs", "min_st_cut"): "graphs.maxflow",
    ("cutlab.graphs", "instance_to_json_str"): "graphs.json_out",
    ("cutlab.graphs", "instance_from_json_str"): "graphs.json_in",
    ("cutlab.solvers", "exact_min_multicut"): "solvers.bb",
    ("cutlab.solvers", "exact_min_length_bounded_cut"): "solvers.bb",
    ("cutlab.solvers", "exact_interdiction"): "solvers.bb",
    ("cutlab.solvers", "find_violating_path"): "solvers.bb_oracle",
    ("cutlab.solvers", "exact_rmfc_decision"): "solvers.fire_search",
    ("cutlab.solvers", "rmfc_simulate"): "solvers.fire_sim",
    ("cutlab.gadgets", "build_saks_gap"): "gadgets.build",
    ("cutlab.gadgets", "build_dict_multicut"): "gadgets.build",
    ("cutlab.gadgets", "build_dict_edge"): "gadgets.build",
    ("cutlab.gadgets", "build_dict_vertex"): "gadgets.build",
    ("cutlab.gadgets", "build_dict_rmfc"): "gadgets.build",
    ("cutlab.gadgets", "dictator_cut"): "gadgets.dictator_cut",
    ("cutlab.ug", "compose"): "ug.compose",
    ("cutlab.ug", "completeness_cut"): "ug.completeness",
    ("cutlab.ug", "reachable_set_influences"): "ug.influences",
    ("cutlab.probspace", "efron_stein_influences"): "probspace.efron_stein",
    ("cutlab.approx", "trivial_multicut"): "approx.round",
    ("cutlab.approx", "threshold_round_lbc"): "approx.round",
}


def _count_simplex(counts, args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    rows, cols = len(lp.rows), len(lp.var_order)
    counts["lp.simplex_calls"] += 1
    counts["lp.simplex_rows_max"] = max(counts["lp.simplex_rows_max"], rows)
    counts["lp.tableau_cells"] += rows * (cols + 2 * rows + 1)


def _count_calls(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1

    return count


def _count_built(counts, args, kwargs, result):
    counts["gadgets.nodes_built"] += len(result.graph.nodes)
    counts["gadgets.edges_built"] += len(result.graph.edges)


def _count_composed(counts, args, kwargs, result):
    counts["ug.composed_edges"] += len(result.graph.edges)


def _count_json_out(counts, args, kwargs, result):
    counts["graphs.json_bytes"] += len(result)


def _count_json_in(counts, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    counts["graphs.json_bytes"] += len(text)


# function name -> counter hook, called after a successful return
COUNTERS = {
    "simplex_solve": _count_simplex,
    "min_weight_path": _count_calls("graphs.dijkstra_calls"),
    "constrained_min_weight_path": _count_calls("graphs.lbdp_calls"),
    "find_violating_path": _count_calls("solvers.bb_oracle_calls"),
    "efron_stein_influences": _count_calls("probspace.efron_stein_calls"),
    "build_saks_gap": _count_built,
    "build_dict_multicut": _count_built,
    "build_dict_edge": _count_built,
    "build_dict_vertex": _count_built,
    "build_dict_rmfc": _count_built,
    "compose": _count_composed,
    "instance_to_json_str": _count_json_out,
    "instance_from_json_str": _count_json_in,
}

COUNTER_NAMES = (
    "lp.simplex_calls",
    "lp.simplex_rows_max",
    "lp.tableau_cells",
    "graphs.dijkstra_calls",
    "graphs.lbdp_calls",
    "graphs.json_bytes",
    "solvers.bb_oracle_calls",
    "solvers.interdict_rounds",
    "gadgets.nodes_built",
    "gadgets.edges_built",
    "ug.composed_edges",
    "probspace.efron_stein_calls",
)

LAYER_NAMES = tuple(sorted(set(LAYERS.values())))


class Tracer:
    """Span recorder that can be installed into and removed from cutlab."""

    def __init__(self) -> None:
        # span: [layer, function name, parent index, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, func):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = COUNTERS.get(func.__name__)
        name = func.__name__
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if name == "exact_min_length_bounded_cut" and parent >= 0:
                if spans[parent][1] == "exact_interdiction":
                    counts["solvers.interdict_rounds"] += 1
            span = [layer, name, parent, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = name
        return traced

    def install(self) -> None:
        """Replace every cutlab binding of each traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "cutlab"]
        for (modname, funcname), layer in LAYERS.items():
            original = getattr(sys.modules[modname], funcname)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                self._patched.append((value, key, original))
                                value[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per-layer self seconds, counters, and total seconds in root spans."""
        child_time = [0.0] * len(self.spans)
        root_time = 0.0
        for layer, _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                root_time += end - start
        self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        for i, (layer, _, _, start, end) in enumerate(self.spans):
            self_s[layer] += end - start - child_time[i]
        counts = {name: self.counts.get(name, 0) for name in COUNTER_NAMES}
        return self_s, counts, root_time
