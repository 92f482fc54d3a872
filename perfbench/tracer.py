"""Traced pipecut CLI run: spans around each module's public callables.

The wrappers are installed from outside the package, so nothing under src/
changes and an untraced run executes exactly the shipped code. Spans are
kept in memory and written as JSON when the run ends.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE_JSON <pipecut args...>
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

# span name -> layer; the layer is the module the callable belongs to
LAYER = {
    "cli.main": "cli",
    "graph.load_graph": "graph",
    "graph.validate_graph": "graph",
    "graph.load_cluster": "graph",
    "generators.gen_bert_like": "generators",
    "atoms.build_atomic_subcomponents": "atoms",
    "blocks.partition_blocks": "blocks",
    "costs.profile": "costs",
    "stages.form_stage": "stages",
    "stages.form_stage_dp": "stages",
    "stages.brute_force_partition": "stages",
    "stages.validate_plan": "stages",
    "simulate.simulate": "simulate",
}


def _search_counts(args, kwargs, result):
    return {"visits": result.stats.visits, "dp_calls": result.stats.dp_calls}


class Tracer:
    """Records [name, start, end, parent index, counts] per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._profiled: set[tuple] = set()

    def wrap(self, name, fn, counts=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, 0.0, 0.0, parent, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result
        return traced

    def profile_counts(self, args, kwargs, result):
        model, sub, microbatch = args[:3]
        ckpt = args[3] if len(args) > 3 else kwargs.get("checkpointing")
        if ckpt is None:
            ckpt = model.config.checkpointing
        # hash, not the node set itself, so the trace keeps no graph alive
        key = (hash(sub.node_ids), len(sub.node_ids), microbatch, ckpt)
        repeat = key in self._profiled
        self._profiled.add(key)
        return {"nodes": len(sub.node_ids), "repeat": int(repeat)}


def install(tracer: Tracer):
    """Wrap the public callables the CLI reaches; returns the cli module.

    cli binds its imports by name, so its globals are patched. The package
    re-exports the function `simulate`, which shadows the submodule of the
    same name, so the submodule comes from sys.modules; form_stage imports
    simulate lazily from there, and simulate reaches validate_plan through
    its own globals. Blocks and stages call CostModel.profile through the
    class.
    """
    import pipecut.cli as cli
    import pipecut.costs as costs

    sim_mod = sys.modules["pipecut.simulate"]
    patches = {
        "load_graph": tracer.wrap("graph.load_graph", cli.load_graph),
        "validate_graph": tracer.wrap("graph.validate_graph", cli.validate_graph),
        "load_cluster": tracer.wrap("graph.load_cluster", cli.load_cluster),
        "gen_bert_like": tracer.wrap("generators.gen_bert_like", cli.gen_bert_like),
        "build_atomic_subcomponents": tracer.wrap(
            "atoms.build_atomic_subcomponents", cli.build_atomic_subcomponents,
            lambda a, k, r: {"atoms": len(r.atoms)}),
        "partition_blocks": tracer.wrap(
            "blocks.partition_blocks", cli.partition_blocks,
            lambda a, k, r: {"blocks": len(r)}),
        "form_stage": tracer.wrap("stages.form_stage", cli.form_stage,
                                  _search_counts),
        "form_stage_dp": tracer.wrap("stages.form_stage_dp", cli.form_stage_dp,
                                     _search_counts),
        "brute_force_partition": tracer.wrap(
            "stages.brute_force_partition", cli.brute_force_partition),
        "validate_plan": tracer.wrap("stages.validate_plan", cli.validate_plan),
        "simulate": tracer.wrap("simulate.simulate", cli.simulate,
                                lambda a, k, r: {"events": len(r.events)}),
    }
    for attr, wrapper in patches.items():
        setattr(cli, attr, wrapper)
    sim_mod.simulate = patches["simulate"]
    sim_mod.validate_plan = patches["validate_plan"]
    costs.CostModel.profile = tracer.wrap("costs.profile", costs.CostModel.profile,
                                          tracer.profile_counts)
    cli.main = tracer.wrap("cli.main", cli.main)
    return cli


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced job.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the planner is single-threaded.
    """
    child_s = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0

    m = {name: 0.0 for name in PER_LAYER}
    for i, (name, t0, t1, parent, counts) in enumerate(spans):
        dur = t1 - t0
        layer = LAYER[name]
        if layer in ("cli", "blocks", "stages"):
            m[f"{layer}.self_s"] += dur - child_s[i]
        if name == "costs.profile":
            m["costs.profile_calls"] += 1
            m["costs.profile_s"] += dur
            m["costs.profile_nodes"] += counts["nodes"]
            m["costs.profile_repeat_ratio"] += counts["repeat"]
            caller = LAYER[spans[parent][0]]
            if caller in ("blocks", "stages"):
                m[f"{caller}.profile_calls"] += 1
                m[f"{caller}.profile_s"] += dur
        elif layer == "graph":
            m["graph.load_s"] += dur
        elif layer == "generators":
            m["generators.gen_s"] += dur
        elif layer == "atoms":
            m["atoms.build_s"] += dur
            m["atoms.count"] += counts["atoms"]
        elif layer == "blocks":
            m["blocks.partition_s"] += dur
            m["blocks.count"] += counts["blocks"]
        elif layer == "simulate":
            m["simulate.calls"] += 1
            m["simulate.s"] += dur
            m["simulate.events"] += counts["events"]
            if parent >= 0 and spans[parent][0] == "stages.form_stage":
                m["stages.ranked"] += 1
        elif name == "stages.validate_plan":
            m["stages.validate_calls"] += 1
            m["stages.validate_s"] += dur
        elif name in ("stages.form_stage", "stages.form_stage_dp"):
            m["stages.visits"] += counts["visits"]
            m["stages.dp_calls"] += counts["dp_calls"]
            if name == "stages.form_stage":
                m["stages.form_stage_s"] += dur
    if m["costs.profile_calls"]:
        m["costs.profile_repeat_ratio"] /= m["costs.profile_calls"]
    return m


# name -> unit, in BENCHMARK.json order; trace_overhead_ratio is filled in
# by the runner, which sees traced and untraced wall times
PER_LAYER = {
    "stages.profile_calls": "count",
    "stages.profile_s": "s",
    "costs.profile_nodes": "count",
    "stages.self_s": "s",
    "stages.visits": "count",
    "stages.dp_calls": "count",
    "stages.form_stage_s": "s",
    "blocks.partition_s": "s",
    "blocks.self_s": "s",
    "blocks.profile_calls": "count",
    "blocks.profile_s": "s",
    "blocks.count": "count",
    "costs.profile_calls": "count",
    "costs.profile_s": "s",
    "costs.profile_repeat_ratio": "ratio",
    "simulate.calls": "count",
    "simulate.s": "s",
    "simulate.events": "count",
    "stages.ranked": "count",
    "stages.validate_calls": "count",
    "stages.validate_s": "s",
    "graph.load_s": "s",
    "atoms.build_s": "s",
    "atoms.count": "count",
    "generators.gen_s": "s",
    "cli.self_s": "s",
}


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        with open(trace_path, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
