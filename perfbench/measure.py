"""Passes, set-up probes and the untraced run that gives the end-to-end
metrics.

A pass runs every operation of a workload once.  Its wall time is the sum of
the operations' timed calls; the checks between them are not timed.  An
operation fails when it raises, when a verification gate fails, when its
output does not match the work asked for, or when its artifact digest
differs from the first pass of the same run (same code, same seed).
"""
from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter

import numpy as np

import hostspeed
import workloads
from workloads import Checked, Workload

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 15  # fresh interpreters per run, before and after the passes
MIN_PASSES = 2  # passes per run at least, however short --seconds is

# name -> (unit, better); every untraced run reports all of them.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "stages_per_s": ("1/s", "higher"),
    "nodes_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Pass:
    wall: float
    outcomes: dict[str, tuple[float, Checked]]
    # Host-speed samples taken during each operation, when a sampler ran.
    samples: dict[str, list[int]] = field(default_factory=dict)

    def total(self, field: str) -> int:
        return sum(getattr(checked, field) for _, checked in self.outcomes.values())


def _failure(text: str) -> Checked:
    return Checked([], "", 0, problems=[text])


def run_pass(workload: Workload, tracer=None, sampler=None) -> Pass:
    """Run every operation once.  With an active ``hostspeed.Sampler`` the
    samples taken during each operation are kept, and the handler's own
    time is taken out of the operation's time."""
    wall = 0.0
    outcomes = {}
    samples = {}
    for op in workload.ops:
        if tracer is not None:
            tracer.run_id = f"{workload.name}/{op.name}"
        span = tracer.span(op.span) if tracer is not None else nullcontext()
        result, error = None, None
        mark = sampler.mark() if sampler is not None else None
        start = perf_counter()
        try:
            with span:
                result = op.call()
        except Exception as exc:  # an operation that raises is a failed operation
            error = traceback.format_exception_only(exc)[-1].strip()
        elapsed = perf_counter() - start
        if sampler is not None:
            samples[op.name], handler_s = sampler.since(mark)
            elapsed -= handler_s
        wall += elapsed
        with tracer.paused() if tracer is not None else nullcontext():
            if error is not None:
                checked = _failure(f"raised {error}")
            else:
                try:
                    checked = op.check(result)
                except Exception as exc:  # malformed output is a failed operation
                    checked = _failure(f"check raised {traceback.format_exception_only(exc)[-1].strip()}")
        outcomes[op.name] = (elapsed, checked)
    return Pass(wall, outcomes, samples)


def judge(passes: list[Pass]) -> tuple[int, list[str]]:
    """(failed operations, findings) over passes of one workload and seed."""
    failed = 0
    findings = []
    first = passes[0].outcomes
    for number, p in enumerate(passes):
        for name, (_, checked) in p.outcomes.items():
            problems = list(checked.problems)
            if checked.digest != first[name][1].digest:
                problems.append("artifact digest differs from the first pass")
            if problems:
                failed += 1
                findings.extend(f"pass {number} {name}: {text}" for text in problems)
    return failed, findings


def setup_times(name: str, seed: int, count: int) -> list[tuple[float, list[int]]]:
    """Seconds from starting a fresh interpreter until cooplab is imported,
    the fixtures are loaded and the workload's configs are built; one child
    process per sample.  Both sides read CLOCK_MONOTONIC.  Each sample comes
    with the host-speed samples the child took, and without their time."""
    out = []
    for _ in range(count):
        start = monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.splitlines()[-1])
        out.append((probe["end"] - start - probe["handler_s"], probe["samples"]))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def reference_times(passes: list[Pass]) -> dict[str, list[float]]:
    """Per operation, its time in every pass at the host's reference speed
    (hostspeed.py).  An operation too short to be sampled takes the
    slowness of its whole pass."""
    out = {name: [] for name in passes[0].outcomes}
    for p in passes:
        pooled = [x for samples in p.samples.values() for x in samples]
        for name, (elapsed, _) in p.outcomes.items():
            out[name].append(hostspeed.at_reference_speed(elapsed, p.samples.get(name) or pooled))
    return out


def operation_report(passes: list[Pass], at_reference: dict[str, list[float]]) -> dict:
    """Per operation: time in every pass, as measured, at reference speed and
    the host's slowness, and from the first pass the artifact digest, size
    and every gate with its margin."""
    out = {}
    for name, (_, checked) in passes[0].outcomes.items():
        out[name] = {
            "seconds": [p.outcomes[name][0] for p in passes],
            "seconds_at_reference": at_reference[name],
            "slowness": [hostspeed.slowness(p.samples[name]) if p.samples.get(name) else None
                         for p in passes],
            "sha256": checked.digest,
            "artifact_bytes": checked.artifact_bytes,
            "gates": checked.gates,
        }
    return out


def untraced_run(name: str, seed: int, seconds: float) -> dict:
    setup = setup_times(name, seed, SETUP_PROBES // 2)
    workload = workloads.build(name, seed)
    workload.prepare()
    # Keep the benchmark's own long-lived objects (the round trip's dataset)
    # out of the collector's way, so they do not slow the timed calls.
    gc.collect()
    gc.freeze()
    sampler = hostspeed.Sampler()
    passes = []
    start = perf_counter()
    try:
        with sampler.sampling():
            while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
                passes.append(run_pass(workload, sampler=sampler))
    finally:
        gc.unfreeze()
    # The rest of the set-up samples come after the passes, so that they span
    # the whole run rather than one moment of it.
    setup += setup_times(name, seed, SETUP_PROBES - len(setup))
    failed, findings = judge(passes)
    stages = passes[0].total("stages")
    nodes = passes[0].total("nodes")
    # One verified pass: each operation at its median over the passes, at the
    # host's reference speed.  Set-up likewise, the median of the probes.
    at_reference = reference_times(passes)
    wall = sum(statistics.median(times) for times in at_reference.values())
    setup_at_reference = [hostspeed.at_reference_speed(t, samples) for t, samples in setup]
    values = {
        "wall_s": wall,
        "stages_per_s": stages / wall,
        "nodes_per_s": nodes / wall,
        "setup_s": statistics.median(setup_at_reference),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "attempted": len(passes) * len(workload.ops),
        "failed": failed,
        "findings": findings,
        "metrics": {k: (values[k], END_TO_END[k][0]) for k in END_TO_END},
        "detail": {
            "passes": len(passes),
            "pass_wall_s": [p.wall for p in passes],
            "wall_s_as_measured": sum(statistics.median(p.outcomes[op][0] for p in passes)
                                      for op in at_reference),
            "host_samples": len(sampler.samples),
            "setup_s_samples": [t for t, _ in setup],
            "setup_s_at_reference": setup_at_reference,
            "setup_s_as_measured": statistics.median(t for t, _ in setup),
            "episodes": passes[0].total("episodes"),
            "stages": stages,
            "nodes": nodes,
            "operations": operation_report(passes, at_reference),
        },
    }


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(loadavg: tuple[float, float, float]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(workloads.ROOT),
        "loadavg_at_start": list(loadavg),
        "platform": platform.platform(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
