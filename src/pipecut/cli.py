"""Command line front end: generate, partition, simulate, sweep.

Every long flag except the model sizes of generate and sweep (--hidden,
--layers, --seq, --vocab, --width) can also come from the environment as
PIPECUT_<FLAG> with dashes turned into underscores (command line wins).
Exit codes: 0 success, 1 bad input, 2 no feasible assignment.

A command runs with the cyclic garbage collector paused, which `main`
restores to the caller's state on any exit.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys

from .atoms import DanglingOutput, NoNonConstantTask, build_atomic_subcomponents
from .blocks import BlockSet, CompactionStuck, InfeasibleAtom, partition_blocks
from .costs import CostModel, CostModelConfig, load_cost_table
from .generators import gen_bert_like, gen_resnet_like
from .graph import (
    CycleError,
    ParseError,
    ValidationError,
    count_params,
    load_cluster,
    load_graph,
    read_json,
    save_graph,
    validate_graph,  # noqa: F401  wrapped by name in perfbench/tracer.py
)
from .simulate import render_gantt, simulate
from .stages import (
    InvalidArgs,
    InvalidPlan,
    Plan,
    SearchOptions,
    TooLarge,
    brute_force_partition,
    form_stage,
    form_stage_dp,
    validate_plan,  # noqa: F401  wrapped by name in perfbench/tracer.py
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
# the flags that take one of a few words; argparse checks a command-line
# value against its choices, but not a default from the environment
CHOICES = {"checkpointing": ("on", "off"), "gantt": ("text", "svg")}


def _env(name: str, fallback: str | None = None) -> str | None:
    return os.environ.get(f"PIPECUT_{name}", fallback)


def _env_flag(name: str) -> bool:
    return (_env(name) or "").lower() in ("1", "true", "on", "yes")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default, which this tool reserves for
    # infeasible results; bad flags are input errors
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cluster", default=_env("CLUSTER"))
    p.add_argument("--cost-table", default=_env("COST_TABLE"))
    # string defaults go through `type` like a typed flag, so a bad
    # environment value is an input error rather than a traceback
    p.add_argument("--k", type=int, default=_env("K", "32"))
    p.add_argument("--batch-size", type=int, default=_env("BATCH_SIZE", "32"))
    p.add_argument("--checkpointing", choices=CHOICES["checkpointing"],
                   default=_env("CHECKPOINTING", "on"))
    p.add_argument("--out", default=_env("OUT", "."))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pipecut",
                     description="partition a training graph into pipeline "
                                 "stages and replay the schedule")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic model graph")
    g.add_argument("model", choices=["bert", "resnet"])
    g.add_argument("--hidden", type=int, default=1024)
    g.add_argument("--layers", type=int, required=True)
    g.add_argument("--seq", type=int, default=512)
    g.add_argument("--vocab", type=int, default=30522)
    g.add_argument("--width", type=int, default=1)
    g.add_argument("--out", default=_env("OUT", "graph.json"))
    g.set_defaults(func=cmd_generate)

    # only partition and simulate read --graph; sweep generates its graphs
    p = sub.add_parser("partition", help="plan stages for a graph on a cluster")
    p.add_argument("--graph", default=_env("GRAPH"))
    _add_common(p)
    p.add_argument("--disable-pruning", action="store_true",
                   default=_env_flag("DISABLE_PRUNING"))
    p.add_argument("--oracle-check", action="store_true",
                   default=_env_flag("ORACLE_CHECK"))
    p.set_defaults(func=cmd_partition)

    s = sub.add_parser("simulate", help="replay a saved plan")
    s.add_argument("--graph", default=_env("GRAPH"))
    _add_common(s)
    s.add_argument("--plan", default=_env("PLAN"))
    s.add_argument("--gantt", choices=CHOICES["gantt"], default=_env("GANTT"))
    s.set_defaults(func=cmd_simulate)

    w = sub.add_parser("sweep", help="plan and simulate a model size grid")
    _add_common(w)
    w.add_argument("--hidden", default="1024",
                   help="comma-separated hidden sizes")
    w.add_argument("--layers", required=True,
                   help="comma-separated layer counts")
    w.add_argument("--seq", type=int, default=512)
    w.add_argument("--vocab", type=int, default=30522)
    w.set_defaults(func=cmd_sweep)
    return parser


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ParseError(f"missing required argument(s): {flags}")


def _check_out_dir(path: str) -> None:
    """Fail before any work on an --out at or below a file; make no directory."""
    ancestor = path
    while ancestor and not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if ancestor and not os.path.isdir(ancestor):
        where = "exists and" if ancestor == path else f"lies below {ancestor}, which"
        raise ParseError(f"--out {path} {where} is not a directory")


def _cost_config(args) -> CostModelConfig:
    table = load_cost_table(args.cost_table) if args.cost_table else None
    return CostModelConfig(checkpointing=args.checkpointing == "on",
                           cost_table=table)


def _plan_blocks(graph, cluster, model_cfg: CostModelConfig, k: int) -> BlockSet:
    """Graph -> atoms -> cost model -> at most k blocks."""
    partition = build_atomic_subcomponents(graph)
    model = CostModel(partition.graph, model_cfg, cluster)
    return partition_blocks(partition, model, k=k)


def _load_blocks(args):
    """The cluster and the blocks of the `--graph` and `--cluster` files."""
    graph = load_graph(args.graph)
    cluster = load_cluster(args.cluster)
    return cluster, _plan_blocks(graph, cluster, _cost_config(args), args.k)


def cmd_generate(args) -> int:
    try:
        if args.model == "bert":
            graph = gen_bert_like(args.hidden, args.layers, args.seq,
                                  args.vocab)
        else:
            graph = gen_resnet_like(args.layers, args.width)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    save_graph(graph, args.out)
    params = count_params(graph)
    print(f"wrote {args.out}: {params} parameters ({params / 1e9:.2f}B)")
    return EXIT_OK


def _stage_table(plan: Plan) -> str:
    lines = ["stage  blocks        devices  replicas  t_fwd_sec      "
             "t_bwd_sec      mem_bytes"]
    for i, st in enumerate(plan.stages):
        span = f"[{st.blocks[0]}, {st.blocks[1]})"
        lines.append(f"{i:>5}  {span:<12}  {st.devices:>7}  {st.replicas:>8}  "
                     f"{st.t_fwd:<13.6g}  {st.t_bwd:<13.6g}  {st.mem}")
    return "\n".join(lines)


def cmd_partition(args) -> int:
    _require(args, "graph", "cluster")
    _check_out_dir(args.out)
    cluster, blocks = _load_blocks(args)
    opts = SearchOptions(disable_pruning=args.disable_pruning)
    result = form_stage(args.batch_size, blocks, opts)
    if result.plan is None:
        print("infeasible: no stage assignment fits this cluster",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    plan = result.plan

    oracle_note = "skipped"
    if args.oracle_check:
        try:
            ref = brute_force_partition(blocks, len(plan.stages),
                                        plan.devices_total, args.batch_size,
                                        plan.replica_factor, plan.microbatches)
        except TooLarge:
            oracle_note = "instance too large"
        else:
            if ref.plan is None or ref.plan.objective != plan.objective:
                print("oracle check failed: exhaustive search disagrees "
                      "with the planner", file=sys.stderr)
                return EXIT_INPUT
            oracle_note = "passed"

    sched = simulate(plan, blocks)
    os.makedirs(args.out, exist_ok=True)
    plan_path = os.path.join(args.out, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(args.out, "blocks.json"), "w") as fh:
        json.dump(blocks.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    report = [
        "pipecut partition report",
        f"graph: {args.graph}",
        f"cluster: {cluster.num_nodes} node(s) x {cluster.devices_per_node} "
        f"device(s), {cluster.device_memory_bytes} bytes each",
        f"batch_size: {args.batch_size}  k: {args.k}  checkpointing: "
        f"{args.checkpointing}",
        f"blocks: {len(blocks)}  search_visits: {result.stats.visits}  "
        f"dp_calls: {result.stats.dp_calls}  oracle_check: {oracle_note}",
        "",
        _stage_table(plan),
        "",
        f"microbatches: {plan.microbatches}",
        f"replica_factor: {plan.replica_factor}",
        f"objective_sec: {plan.objective:.9g}",
        f"simulated_iteration_sec: {sched.iteration_time_sec:.9g}",
        f"simulated_throughput_samples_per_sec: {sched.samples_per_sec:.9g}",
        f"bubble_fraction: {sched.bubble_fraction:.9g}",
    ]
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write("\n".join(report) + "\n")

    print(f"wrote {plan_path}: {len(plan.stages)} stage(s), "
          f"objective {plan.objective:.9g}s")
    return EXIT_OK


def cmd_simulate(args) -> int:
    _require(args, "graph", "cluster", "plan")
    if args.gantt:
        _check_out_dir(args.out)
    plan = Plan.from_json(read_json(args.plan))
    if plan.batch_size != args.batch_size:
        raise ParseError(f"plan batch_size {plan.batch_size} does not match "
                         f"--batch-size {args.batch_size}")
    cluster, blocks = _load_blocks(args)
    needed = plan.devices_total * plan.replica_factor
    if needed > cluster.num_devices:
        raise ParseError(f"plan needs {needed} devices, cluster has "
                         f"{cluster.num_devices}")
    sched = simulate(plan, blocks)
    print(f"iteration_time_sec: {sched.iteration_time_sec:.9g}")
    print(f"throughput_samples_per_sec: {sched.samples_per_sec:.9g}")
    print(f"bubble_fraction: {sched.bubble_fraction:.9g}")
    if args.gantt:
        os.makedirs(args.out, exist_ok=True)
        ext = "txt" if args.gantt == "text" else "svg"
        path = os.path.join(args.out, f"gantt.{ext}")
        with open(path, "w") as fh:
            fh.write(render_gantt(sched, mode=args.gantt))
        print(f"wrote {path}")
    return EXIT_OK


def _int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParseError(f"{flag} expects comma-separated integers") from exc
    if not values or any(v < 1 for v in values):
        raise ParseError(f"{flag} expects positive integers")
    return values


def _pure_data_parallel_ok(blocks: BlockSet, batch_size: int) -> bool:
    total_devices = blocks.model.cluster.num_devices
    mb = 1
    while mb * total_devices <= batch_size:
        plan = form_stage_dp(blocks, 1, 1, batch_size, total_devices, mb).plan
        if plan is not None:
            return True
        mb *= 2
    return False


SWEEP_COLUMNS = ["hidden", "layers", "params", "status", "stages",
                 "microbatches", "replica_factor", "objective_sec",
                 "iteration_sec", "throughput_samples_per_sec",
                 "bubble_fraction", "data_parallel"]


def cmd_sweep(args) -> int:
    _require(args, "cluster")
    hiddens = _int_list(args.hidden, "--hidden")
    layer_counts = _int_list(args.layers, "--layers")
    cluster = load_cluster(args.cluster)
    model_cfg = _cost_config(args)
    # a path not ending in .csv is a directory; either way the CSV's directory
    # is checked as partition checks --out, and made, before planning
    out_path = args.out or "."
    if os.path.isdir(out_path) or not out_path.endswith(".csv"):
        out_path = os.path.join(out_path, "sweep.csv")
    out_dir = os.path.dirname(out_path) or "."
    _check_out_dir(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    rows = []
    any_ok = False
    for hidden in hiddens:
        for layers in layer_counts:
            graph = gen_bert_like(hidden, layers, args.seq, args.vocab)
            row = {c: "" for c in SWEEP_COLUMNS}
            row.update(hidden=hidden, layers=layers,
                       params=count_params(graph))
            try:
                blocks = _plan_blocks(graph, cluster, model_cfg, args.k)
            except (InfeasibleAtom, CompactionStuck):
                row.update(status="INFEASIBLE", data_parallel="INFEASIBLE")
                rows.append(row)
                continue
            row["data_parallel"] = (
                "ok" if _pure_data_parallel_ok(blocks, args.batch_size)
                else "INFEASIBLE")
            plan = form_stage(args.batch_size, blocks).plan
            if plan is None:
                row["status"] = "INFEASIBLE"
            else:
                sched = simulate(plan, blocks)
                row.update(
                    status="ok",
                    stages=len(plan.stages),
                    microbatches=plan.microbatches,
                    replica_factor=plan.replica_factor,
                    objective_sec=f"{plan.objective:.9g}",
                    iteration_sec=f"{sched.iteration_time_sec:.9g}",
                    throughput_samples_per_sec=f"{sched.samples_per_sec:.9g}",
                    bubble_fraction=f"{sched.bubble_fraction:.9g}",
                )
                any_ok = True
            rows.append(row)

    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out_path}: {len(rows)} row(s)")
    return EXIT_OK if any_ok else EXIT_INFEASIBLE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("k", "batch_size", "seq", "vocab"):
            if getattr(args, name, 1) < 1:
                raise InvalidArgs(f"--{name.replace('_', '-')} must be at least 1")
        for name, choices in CHOICES.items():
            if getattr(args, name, None) not in (None, *choices):
                raise InvalidArgs(f"PIPECUT_{name.upper()} must be one of "
                                  f"{', '.join(choices)}, got {getattr(args, name)!r}")
        # loading and planning allocate tens of thousands of containers, and
        # by default every 700 start a collection of the young ones; reference
        # counting frees what a command drops, and a partition run leaves the
        # same few hundred cyclic objects whatever the model size
        enabled = gc.isenabled()
        gc.disable()
        try:
            return args.func(args)
        finally:
            if enabled:
                gc.enable()
    except (InfeasibleAtom, CompactionStuck) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ParseError, ValidationError, CycleError, NoNonConstantTask,
            DanglingOutput, InvalidPlan, InvalidArgs, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OverflowError as exc:
        # task times that sum past the float range, from a graph or cost
        # table whose numbers are each finite
        print(f"error: input numbers out of range: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
