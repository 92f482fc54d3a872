"""A fixed pure-Python kernel that measures how fast the host runs now.

On a shared host the same planner job can take 50% longer for minutes at a
time, with CPU time tracking wall time, so the slowdown is the core's speed
and not scheduling. The runner times this kernel before and after every
round of jobs and scales job times by REF_S over the mean sample, which
gives seconds on a host where the kernel takes REF_S. The mean, not the
median: the host's speed also swings within a second, a job's wall time
integrates those swings, and so does the mean of many short samples.

The kernel does what the planner's span profiling does (sort string ids,
look up slotted objects in dicts, call small methods and properties, test
set membership, sum) and imports nothing from pipecut, so a change to the
planner cannot change it.
"""

from __future__ import annotations

import time

REF_S = 0.06      # about one sample on a quiet 2.1 GHz Xeon core
SAMPLES = 5       # per call of measure()
_N = 20000
_REPS = 6


class _Node:
    __slots__ = ("size", "per_sample", "succ", "is_param")

    def __init__(self, size: int, per_sample: int, is_param: bool):
        self.size = size
        self.per_sample = per_sample
        self.succ: tuple[str, ...] = ()
        self.is_param = is_param

    @property
    def is_value(self) -> bool:
        return not self.is_param

    def size_at(self, microbatch: int) -> int:
        return self.size + self.per_sample * microbatch


class HostRef:
    def __init__(self):
        self._ids = [f"n{i:06d}" for i in range(_N)]
        self._nodes = {nid: _Node((i * 7919) % 4096, i % 7, i % 5 == 0)
                       for i, nid in enumerate(self._ids)}
        for i, nid in enumerate(self._ids):
            self._nodes[nid].succ = tuple(self._ids[j] for j in (i + 1, i + 3)
                                          if j < _N)
        self.samples: list[float] = []

    def _size(self, nid: str, microbatch: int) -> int:
        return self._nodes[nid].size_at(microbatch)

    def _kernel(self) -> float:
        total = 0.0
        for r in range(_REPS):
            span = frozenset(self._ids[r % 2::2])
            best = 0
            for nid in sorted(span):
                node = self._nodes[nid]
                if not node.is_value:
                    total += node.size * 4.0
                    continue
                footprint = self._size(nid, r + 1)
                for s in node.succ:
                    if s not in span:
                        footprint += self._size(s, r + 1)
                best = max(best, footprint)
            total += best
        return total

    def measure(self) -> None:
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)
