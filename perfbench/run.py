"""Planner benchmark: times the pipecut CLI on fixed workloads and checks
every plan it writes.

    python3 perfbench/run.py --workload partition-search --seed 0 \
        --seconds 35 --trace 0

Run it from the repository root; it plans with the sources under src/ and
exits 1 without a result when they are missing. Every job is a fresh
interpreter that starts from JSON files on disk, run one at a time (closed
loop). End-to-end times are scaled for host speed (see hostref.py).
`--workload all` runs every workload with their jobs interleaved, so drift
in host speed hits them alike. With `--trace 1`, untraced and traced jobs
alternate and the per-layer metrics are printed instead of the end-to-end
ones. The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostref import REF_S, HostRef
from tracer import PER_LAYER, layer_metrics
from workloads import SWEEP_EXPECTED, WORKLOADS, describe, spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
MIN_ROUNDS = {0: 3, 1: 2}  # by --trace; a traced round holds two jobs
TIME_LIMIT_S = 170         # per workload; a child still running is killed

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "job_cpu_s": "s",
    "peak_rss_mb": "MB",
    "sim_iter_s": "s",
    "pass_ratio": "ratio",
}

ENV = {k: v for k, v in os.environ.items() if not k.startswith("PIPECUT_")}
ENV["PYTHONPATH"] = str(SRC)


class SetupFailed(RuntimeError):
    pass


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int


def spawn(argv: list[str], out: Path, deadline: float) -> Proc:
    """Run one child to completion; stdout and stderr go to files in out."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=so, stderr=se)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                proc.returncode)


@dataclass
class Job:
    kind: str          # "timed", "traced", or "oracle" (a check, not timed)
    out: Path
    proc: Proc
    fingerprint: str = ""
    sim_iter: str = ""  # as the CLI printed it
    failures: list[str] = field(default_factory=list)


def _plan_fingerprint(plan: dict) -> str:
    spans = " ".join(f"[{st['blocks'][0]},{st['blocks'][1]})x{st['devices']}"
                     for st in plan["stages"])
    return (f"S={len(plan['stages'])} MB={plan['microbatches']} "
            f"R={plan['replica_factor']} obj={plan['objective']!r} {spans}")


def _sweep_fingerprint(rows: list[dict]) -> str:
    return "; ".join(
        f"{r['hidden']}x{r['layers']} {r['status']} S={r['stages']} "
        f"MB={r['microbatches']} R={r['replica_factor']} "
        f"obj={r['objective_sec']} iter={r['iteration_sec']} "
        f"dp={r['data_parallel']}" for r in rows)


def _short(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def _report_field(text: str, key: str) -> str | None:
    m = re.search(rf"^{key}: (\S+)$", text, re.M)
    return m.group(1) if m else None


class Bench:
    """One workload within a run: its inputs, jobs and checks."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.sp = spec(name, seed)
        self.seed = seed
        self.dir = WORK / name
        self.inputs = self.dir / "inputs"
        self.setup_s: list[float] = []
        self.inputs_digest: str | None = None
        self.jobs: list[Job] = []

    def set_up(self, deadline: float) -> None:
        """Write the inputs once, in a fresh interpreter, and time it.

        The runner repeats this between rounds of jobs, so the median
        samples the host at the same moments as the jobs do. Every repeat
        must write byte-identical inputs.
        """
        if not self.setup_s:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.inputs.mkdir(parents=True)
        argv = [sys.executable, "perfbench/workloads.py", self.name,
                str(self.seed), str(self.inputs)]
        proc = spawn(argv, self.dir / "setup", deadline)
        if proc.rc != 0:
            err = (self.dir / "setup" / "stderr.txt").read_text().strip()
            raise SetupFailed(f"{self.name}: set-up exited {proc.rc}: "
                              f"{err.splitlines()[-1] if err else ''}")
        self.setup_s.append(proc.wall_s)
        digest = hashlib.sha1()
        for path in sorted(self.inputs.iterdir()):
            digest.update(path.name.encode() + path.read_bytes())
        if self.inputs_digest is None:
            self.inputs_digest = digest.hexdigest()
        elif digest.hexdigest() != self.inputs_digest:
            raise SetupFailed(f"{self.name}: set-up wrote different inputs "
                              f"on repeated runs")

    def _cli_args(self, out: Path) -> list[str]:
        sp = self.sp
        common = ["--cluster", str(self.inputs / "cluster.json"),
                  "--batch-size", str(sp["batch"]), "--k", str(sp["k"])]
        if sp["kind"] == "sweep":
            # the directory exists (spawn made it); given a missing path,
            # sweep would write its CSV to a file of that name
            return ["sweep", *common, "--out", str(out),
                    "--checkpointing", "off",
                    "--hidden", ",".join(map(str, sp["hiddens"])),
                    "--layers", ",".join(map(str, sp["layers"])),
                    "--seq", str(sp["seq"])]
        return ["partition", "--graph", str(self.inputs / "graph.json"),
                *common, "--out", str(out)]

    def run_job(self, kind: str, deadline: float) -> None:
        out = self.dir / f"job{len(self.jobs):02d}"
        args = self._cli_args(out)
        if kind == "oracle":
            args.append("--oracle-check")
        if kind == "traced":
            argv = [sys.executable, "perfbench/tracer.py",
                    str(out / "trace.json"), *args]
        else:
            argv = [sys.executable, "-m", "pipecut.cli", *args]
        self.jobs.append(Job(kind, out, spawn(argv, out, deadline)))

    def check(self, deadline: float) -> None:
        """Check every job's outputs; failures are recorded on the job."""
        for job in self.jobs:
            if job.proc.rc != 0:
                job.failures.append(f"exit code {job.proc.rc}, expected 0")
                continue
            try:
                if self.sp["kind"] == "sweep":
                    self._read_sweep(job)
                else:
                    self._read_partition(job)
            except (OSError, ValueError, KeyError) as exc:
                job.failures.append(f"unreadable output: {exc}")
        ref = next((j.fingerprint for j in self.jobs if j.fingerprint), "")
        for job in self.jobs:
            if job.fingerprint and job.fingerprint != ref:
                job.failures.append("plan differs from the first job's")
        if self.sp["kind"] == "partition":
            self._check_replay(deadline)

    def _read_partition(self, job: Job) -> None:
        report = (job.out / "report.txt").read_text()
        plan = json.loads((job.out / "plan.json").read_text())
        job.fingerprint = _plan_fingerprint(plan)
        job.sim_iter = _report_field(report, "simulated_iteration_sec") or ""
        if job.kind == "oracle":
            verdict = re.search(r"oracle_check: (.+)$", report, re.M)
            if verdict is None or verdict.group(1) != "passed":
                job.failures.append("oracle check did not report passed")

    def _read_sweep(self, job: Job) -> None:
        with open(job.out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        layers = self.sp["layers"]
        grid = [(h, li) for h in self.sp["hiddens"] for li in range(len(layers))]
        if len(rows) != len(grid):
            job.failures.append(f"sweep wrote {len(rows)} rows, expected {len(grid)}")
            return
        for row, (hidden, li) in zip(rows, grid):
            got = (int(row["hidden"]), int(row["layers"]),
                   row["status"], row["data_parallel"])
            want = (hidden, layers[li], *SWEEP_EXPECTED[(hidden, li)])
            if got != want:
                job.failures.append(f"sweep row {got} != expected {want}")
        job.fingerprint = _sweep_fingerprint(rows)
        job.sim_iter = repr(sum(float(r["iteration_sec"]) for r in rows
                                if r["status"] == "ok"))

    def _check_replay(self, deadline: float) -> None:
        """`pipecut simulate --plan` must reproduce each report exactly.

        Jobs that wrote byte-identical plans share one replay.
        """
        by_plan: dict[bytes, list[Job]] = {}
        for job in self.jobs:
            if job.fingerprint:
                by_plan.setdefault((job.out / "plan.json").read_bytes(), []).append(job)
        for n, jobs in enumerate(by_plan.values()):
            out = self.dir / f"replay{n}"
            args = self._cli_args(out)[1:]
            argv = [sys.executable, "-m", "pipecut.cli", "simulate", *args,
                    "--plan", str(jobs[0].out / "plan.json")]
            proc = spawn(argv, out, deadline)
            got = _report_field((out / "stdout.txt").read_text(),
                                "iteration_time_sec")
            for job in jobs:
                if proc.rc != 0 or got != job.sim_iter:
                    job.failures.append(
                        f"simulate --plan gave {got} (exit {proc.rc}), report "
                        f"says {job.sim_iter}")

    def end_to_end(self, speed: float) -> dict[str, float]:
        """Times are scaled by the host speed factor (see hostref.py)."""
        timed = [j.proc for j in self.jobs if j.kind == "timed"]
        failed = sum(1 for j in self.jobs if j.failures)
        sim = next((j.sim_iter for j in self.jobs if j.sim_iter), "nan")
        return {
            "setup_s": statistics.median(self.setup_s) * speed,
            "job_s": statistics.median(p.wall_s for p in timed) * speed,
            "job_cpu_s": statistics.median(p.cpu_s for p in timed) * speed,
            "peak_rss_mb": max(p.rss_mb for p in timed),
            "sim_iter_s": float(sim),
            "pass_ratio": (len(self.jobs) - failed) / len(self.jobs),
        }

    def per_layer(self) -> dict[str, float]:
        traced = [j for j in self.jobs if j.kind == "traced" and not j.failures]
        if not traced:
            return {name: float("nan") for name in PER_LAYER}
        jobs = [layer_metrics(json.loads((j.out / "trace.json").read_text())["spans"])
                for j in traced]
        per = {name: statistics.median(m[name] for m in jobs) for name in PER_LAYER}
        untraced = statistics.median(j.proc.wall_s for j in self.jobs
                                     if j.kind == "timed")
        per["trace_overhead_ratio"] = (
            statistics.median(j.proc.wall_s for j in traced) / untraced)
        return per

    def print_summary(self, metrics: dict[str, float], units: dict[str, str]) -> None:
        print(describe(self.name, self.sp) + f", seed {self.seed}")
        print(f"  set-up: {len(self.setup_s)} runs, "
              + " ".join(f"{s:.3f}" for s in self.setup_s) + " s")
        plans: dict[str, str] = {}
        for i, job in enumerate(self.jobs):
            p = job.proc
            fp = _short(job.fingerprint) if job.fingerprint else "-"
            plans.setdefault(fp, job.fingerprint)
            print(f"  job {i:02d} {job.kind:<6}  wall {p.wall_s:7.3f} s  "
                  f"cpu {p.cpu_s:7.3f} s  rss {p.rss_mb:6.1f} MB  rc {p.rc}  "
                  f"plan {fp}  {'; '.join(job.failures) or 'ok'}")
        for fp, text in plans.items():
            print(f"  plan {fp}: {text}")
        failed = sum(1 for j in self.jobs if j.failures)
        timed = [j.proc for j in self.jobs if j.kind == "timed"]
        print(f"  fail_ratio: {failed}/{len(self.jobs)} jobs = "
              f"{failed / len(self.jobs):g}")
        print(f"  unscaled medians over {len(timed)} timed jobs: wall "
              f"{statistics.median(p.wall_s for p in timed):.4f} s, cpu "
              f"{statistics.median(p.cpu_s for p in timed):.4f} s; set-up "
              f"{statistics.median(self.setup_s):.4f} s")
        for name, value in metrics.items():
            print(f"  {name}: {value:.6g} {units[name]}")


def run_window(benches: list[Bench], seconds: int, trace: int,
               host: HostRef, deadline: float) -> None:
    """Closed loop: one job at a time, round-robin over the workloads.

    Host speed samples bracket every round, and each round ends with one
    more set-up per workload.
    """
    kinds = ("timed", "traced") if trace else ("timed",)
    window = seconds * len(benches)
    start = time.monotonic()
    rounds = 0
    while True:
        t0 = time.monotonic()
        host.measure()
        for bench in benches:
            for kind in kinds:
                bench.run_job(kind, deadline)
            bench.set_up(deadline)
        rounds += 1
        now = time.monotonic()
        last = now - t0
        if now + last > deadline:
            break
        if rounds >= MIN_ROUNDS[trace] and now + last - start > window:
            break
    host.measure()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pipecut").is_dir():
        print(f"error: no pipecut sources under {SRC}", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    benches = [Bench(name, args.seed) for name in names]
    host = HostRef()
    deadline = time.monotonic() + TIME_LIMIT_S * len(benches)
    try:
        for bench in benches:
            bench.set_up(deadline)
        for bench in benches:
            if bench.sp.get("oracle"):
                bench.run_job("oracle", deadline)
        run_window(benches, args.seconds, args.trace, host, deadline)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for bench in benches:
        bench.check(deadline)

    units = dict(PER_LAYER, trace_overhead_ratio="ratio") if args.trace else END_TO_END
    host_s = statistics.fmean(host.samples)
    print(f"host: reference kernel {host_s:.4f} s (median "
          f"{statistics.median(host.samples):.4f} s), mean of "
          f"{len(host.samples)} samples; end-to-end times are scaled by "
          f"{REF_S} / {host_s:.4f}")
    metrics: dict[str, dict] = {}
    for bench in benches:
        values = bench.per_layer() if args.trace else bench.end_to_end(REF_S / host_s)
        bench.print_summary(values, units)
        prefix = f"{bench.name}." if len(benches) > 1 else ""
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    attempted = sum(len(b.jobs) for b in benches)
    failed = sum(1 for b in benches for j in b.jobs if j.failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
