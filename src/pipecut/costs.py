"""Analytic cost model with optional measured overrides.

Compute time scales FLOPs by device throughput, backward time by a fixed
ratio; a cost-table entry keyed by `op_signature` replaces either, and may
replace a task's activation bytes (`CostModel.task_cost`). Memory charges
parameters with gradient and optimizer-state factors plus an activation
term that depends on whether checkpointing is active: without it every
produced value stays resident, with it only the stage inputs plus the
largest single-task working set.

`CostModel.profile` walks a subcomponent's nodes and is the reference
definition. Its times are `math.fsum` totals, correctly rounded whatever
the node order, so `BlockSet.profile` can compose the same record exactly
from per-block terms without walking a span's nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .atoms import Subcomponent
from .graph import ClusterSpec, ParseError, TaskGraph, TaskInfo, parse_amount, read_json


@dataclass(frozen=True, slots=True)
class CostRecord:
    t_fwd_sec: float
    t_bwd_sec: float
    mem_bytes: int


@dataclass(frozen=True)
class CostModelConfig:
    device_flops_per_sec: float = 15.7e12
    bwd_fwd_ratio: float = 2.0
    grad_factor: float = 1.0
    optimizer_state_factor: float = 2.0
    checkpointing: bool = True
    cost_table: Mapping[str, "CostTableEntry"] | None = None

    def __post_init__(self) -> None:
        if self.device_flops_per_sec <= 0:
            raise ValueError("device_flops_per_sec must be positive")
        if self.bwd_fwd_ratio < 0 or self.grad_factor < 0 or self.optimizer_state_factor < 0:
            raise ValueError("cost factors must be non-negative")


@dataclass(frozen=True)
class CostTableEntry:
    microbatch: int
    t_fwd: float
    t_bwd: float | None = None
    act_bytes: int | None = None


def op_signature(task: TaskInfo, microbatch: int) -> str:
    """Stable lookup key for measured costs: op, shape attrs, microbatch."""
    attrs = ",".join(f"{k}={task.attrs[k]}" for k in sorted(task.attrs))
    return f"{task.op}|{attrs}|mb={microbatch}"


def load_cost_table(path: str) -> dict[str, CostTableEntry]:
    """Read measured costs, rejecting entries that could not be looked up
    (a `microbatch` other than the key's `mb=`) or that hold a non-numeric,
    negative or non-finite number."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError("cost table must be an object of op_sig -> record")
    table: dict[str, CostTableEntry] = {}
    for sig, rec in doc.items():
        if not isinstance(rec, dict):
            raise ParseError(f"cost table entry {sig!r} must be an object")
        unknown = set(rec) - {"microbatch", "t_fwd", "t_bwd", "act_bytes"}
        if unknown:
            raise ParseError(f"cost table entry {sig!r}: unknown fields {sorted(unknown)}")
        if "microbatch" not in rec or "t_fwd" not in rec:
            raise ParseError(f"cost table entry {sig!r}: microbatch and t_fwd are required")
        where = f"cost table entry {sig!r}"
        microbatch = parse_amount(rec["microbatch"], f"{where}: microbatch", whole=True)
        if not sig.endswith(f"|mb={microbatch}"):
            raise ParseError(f"{where}: microbatch {microbatch} does not match "
                             f"the key's mb=")
        optional = {key: None if rec.get(key) is None
                    else parse_amount(rec[key], f"{where}: {key}", whole=key == "act_bytes")
                    for key in ("t_bwd", "act_bytes")}
        table[sig] = CostTableEntry(microbatch=microbatch,
                                    t_fwd=parse_amount(rec["t_fwd"], f"{where}: t_fwd"),
                                    **optional)
    return table


def comm_time(nbytes: int, bandwidth: float, latency: float = 0.0) -> float:
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return latency + nbytes / bandwidth


class CostModel:
    """Profiles subcomponents of one graph against one cluster."""

    def __init__(self, graph: TaskGraph, config: CostModelConfig, cluster: ClusterSpec):
        self.graph = graph
        self.config = config
        self.cluster = cluster

    def task_cost(self, task: TaskInfo, microbatch: int
                  ) -> tuple[float, float, int | None]:
        """Forward and backward seconds of one task at a microbatch size, and
        its activation bytes when a cost-table entry overrides them."""
        cfg = self.config
        entry = None
        if cfg.cost_table is not None:
            entry = cfg.cost_table.get(op_signature(task, microbatch))
        if entry is None:
            tf = task.flops_per_sample * microbatch / cfg.device_flops_per_sec
            return tf, cfg.bwd_fwd_ratio * tf, None
        tb = entry.t_bwd if entry.t_bwd is not None else cfg.bwd_fwd_ratio * entry.t_fwd
        return entry.t_fwd, tb, entry.act_bytes

    def profile(self, sub: Subcomponent, microbatch: int,
                checkpointing: bool | None = None) -> CostRecord:
        """Forward/backward time and peak training memory at a microbatch size.

        Memory never shrinks when checkpointing is turned off and never counts
        a boundary input twice; parameters are charged once with gradient and
        optimizer-state factors applied. Times are exact sums rounded once.
        """
        if microbatch < 0:
            raise ValueError("microbatch must be non-negative")
        if checkpointing is None:
            checkpointing = self.config.checkpointing
        g = self.graph
        inputs = set(sub.input_values)

        t_fwd: list[float] = []
        t_bwd: list[float] = []
        param_bytes = 0
        resident = 0          # produced values and non-param constants
        max_footprint = 0
        input_bytes = sum(g.value_size(v, microbatch) for v in sub.input_values)

        for nid in sorted(sub.node_ids):
            node = g.nodes[nid]
            if node.is_value:
                assert node.value is not None
                if node.value.is_param:
                    param_bytes += node.value.fixed_bytes
                elif nid not in inputs and g.producer(nid) is None:
                    resident += g.value_size(nid, microbatch)
                continue
            assert node.task is not None
            tf, tb, act_bytes = self.task_cost(node.task, microbatch)
            t_fwd.append(tf)
            t_bwd.append(tb)

            produced = 0
            for vid in g.succ(nid):
                info = g.nodes[vid].value
                if info is not None and not info.is_param:
                    produced += g.value_size(vid, microbatch)
            if act_bytes is not None:
                produced = act_bytes
            resident += produced
            footprint = produced
            for vid in g.pred(nid):
                info = g.nodes[vid].value
                if info is not None and not info.is_param and vid not in inputs:
                    footprint += g.value_size(vid, microbatch)
            max_footprint = max(max_footprint, footprint)

        activations = input_bytes + (max_footprint if checkpointing else resident)
        return CostRecord(t_fwd_sec=math.fsum(t_fwd), t_bwd_sec=math.fsum(t_bwd),
                          mem_bytes=self.training_bytes(param_bytes, activations))

    def training_bytes(self, param_bytes: int, activation_bytes: int) -> int:
        """Peak training memory: parameters with their gradients and optimizer
        state, plus activations. Every memory figure goes through this."""
        cfg = self.config
        return int(param_bytes * (1.0 + cfg.grad_factor + cfg.optimizer_state_factor)
                   + activation_bytes)

    def fits(self, mem_bytes: int) -> bool:
        """The one memory rule for blocks and stages: strictly under a device."""
        return mem_bytes < self.cluster.device_memory_bytes

    def comm_time(self, nbytes: int, inter_node: bool = False) -> float:
        bw = self.cluster.bw_inter if inter_node else self.cluster.bw_intra
        return comm_time(nbytes, bw, self.cluster.link_latency_sec)
