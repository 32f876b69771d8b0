"""Closed-loop op runner, output checks, set-up timing and end-to-end metrics.

Ops run serially through :func:`repro.parallel.run_sweep` (``jobs=1``)
against a fresh cache directory, one op per call, so each op's host time
includes the sweep layer's own cost (cache lookup and store).  A cache hit
during a timed run measures nothing and is a :class:`BenchmarkError`.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable
from unittest import mock

import numpy as np

from repro import parallel
from repro.core.pathload import PathloadController
from repro.netsim.fastpath import NO_FAST_ENV, NO_VECTOR_ENV
from repro.netsim.link import Link

from .workloads import Op, Workload

__all__ = [
    "BenchmarkError",
    "OpResult",
    "Observers",
    "run_closed_loop",
    "reference_check",
    "measure_setup",
    "end_to_end",
    "peak_rss_mb",
    "P90_MIN_OPS",
]

#: p90 is reported only when at least ten samples lie beyond it.
P90_MIN_OPS = 100

_SETUP_CHILD = Path(__file__).resolve().parent / "setup_child.py"


class BenchmarkError(RuntimeError):
    """The run cannot produce a valid measurement (for example a cache hit)."""


@dataclass
class OpResult:
    """What one op did, as the closed loop saw it."""

    op: Op
    host_s: float
    value: Any
    problems: list = field(default_factory=list)
    #: ``(low_bps, high_bps, duration_sim_s, fleets, streams)`` of every
    #: pathload session
    sessions: list = field(default_factory=list)
    #: simulated link transmissions, forwarded plus dropped, all links
    pkts: int = 0
    #: host seconds the sweep worker spent inside the task function
    task_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


class Observers:
    """Per-object observers kept on while ops run, traced or not.

    They record each link's counters (at link construction) and each
    pathload session's report (when the controller returns it).  Both
    cost O(1) per link or per session, never per packet, so they stay on
    during the timed run; the counts they give are deterministic per seed.
    """

    def __init__(self) -> None:
        self._stats: list = []
        self._sessions: list = []
        self._saved: list = []

    def __enter__(self) -> "Observers":
        link_init = Link.__init__
        controller_run = PathloadController.run
        stats, sessions = self._stats, self._sessions

        def observed_init(link, *args, **kwargs):
            link_init(link, *args, **kwargs)
            stats.append(link._stats)

        def observed_run(controller):
            report = yield from controller_run(controller)
            sessions.append(
                (
                    report.low_bps,
                    report.high_bps,
                    report.duration,
                    len(report.fleets),
                    report.n_streams_sent,
                )
            )
            return report

        self._saved = [(Link, "__init__", link_init), (PathloadController, "run", controller_run)]
        Link.__init__ = observed_init
        PathloadController.run = observed_run
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved = []

    def take(self) -> tuple[list, int]:
        """Sessions and link transmissions since the previous call."""
        sessions = list(self._sessions)
        pkts = sum(s.packets_forwarded + s.packets_dropped for s in self._stats)
        self._sessions.clear()
        self._stats.clear()
        return sessions, pkts


def _session_problems(sessions: list) -> list:
    problems = []
    for low, high, *_ in sessions:
        if not (math.isfinite(low) and math.isfinite(high) and 0.0 <= low <= high):
            problems.append(f"pathload session reported [{low!r}, {high!r}]")
    return problems


def run_closed_loop(
    workload: Workload,
    ops: Iterable[Op],
    seconds: float,
    cache_dir: str,
    observers: Observers,
    min_ops: int,
    block: int = 1,
    trace=None,
) -> list[OpResult]:
    """Run ``ops`` one after another until ``seconds`` have passed, at
    least ``min_ops`` ops are done and the op count is a multiple of
    ``block``.  ``trace`` (a :class:`e2ebench.layers.LayerTrace`) is told
    where each op begins and ends."""
    results: list[OpResult] = []
    observers.take()
    start = time.perf_counter()  # simlint: disable=SIM001 -- host timing is what the benchmark measures
    for op in ops:
        if trace is not None:
            trace.begin_op()
        t0 = time.perf_counter()  # simlint: disable=SIM001 -- host timing is what the benchmark measures
        # Looked up per call so that a traced pass's wrapper is the one run.
        (outcome,) = parallel.run_sweep([op.task], jobs=1, cache=True, cache_dir=cache_dir)
        host_s = time.perf_counter() - t0  # simlint: disable=SIM001 -- host timing is what the benchmark measures
        if trace is not None:
            trace.end_op()
        if outcome.cached:
            raise BenchmarkError(
                f"op {op.index} ({op.task.describe()}) was a cache hit in a timed run"
            )
        sessions, pkts = observers.take()
        if outcome.ok:
            problems = workload.check(outcome.value) + _session_problems(sessions)
        else:
            problems = [outcome.error.strip().splitlines()[-1]]
        results.append(
            OpResult(
                op=op,
                host_s=host_s,
                value=outcome.value,
                problems=problems,
                sessions=sessions,
                pkts=pkts,
                task_s=outcome.wall_s or 0.0,
            )
        )
        n = len(results)
        elapsed = time.perf_counter() - start  # simlint: disable=SIM001 -- host timing is what the benchmark measures
        if n >= min_ops and n % block == 0 and elapsed >= seconds:
            break
    else:
        raise BenchmarkError("the workload ran out of ops")
    return results


def reference_check(workload: Workload, results: list[OpResult], seed: int) -> None:
    """Re-run a sample of ops, untimed, on the per-packet scalar reference
    (every fast path and vector kernel off) and require ``==`` outputs.  A
    mismatch marks the op failed.  The sample is a seeded run of
    consecutive ops among those every run of ``seed`` completes."""
    n = min(workload.ref_sample, len(results))
    pool = min(workload.min_ops, len(results))
    start = int(np.random.default_rng(seed).integers(0, pool - n + 1))
    for result in results[start : start + n]:
        if not result.ok:
            continue
        task = result.op.task
        try:
            with mock.patch.dict(os.environ, {NO_FAST_ENV: "1", NO_VECTOR_ENV: "1"}):
                if task.seed_entropy is not None:
                    reference = task.fn(task.seed_entropy, **dict(task.kwargs))
                else:
                    reference = task.fn(**dict(task.kwargs))
        except Exception as exc:  # the op fails; the run goes on to report it
            result.problems.append(f"per-packet reference raised {exc!r}")
            continue
        if reference != result.value:
            result.problems.append(
                f"output differs from the per-packet reference: "
                f"{result.value!r} != {reference!r}"
            )


def measure_setup(workload: Workload, seed: int, repeats: int, root: Path) -> list[float]:
    """``setup_s`` samples, each from a fresh interpreter: import ``repro``,
    pass the kernel self-check and build the first op's topology."""
    env = dict(os.environ)
    for key in (NO_FAST_ENV, NO_VECTOR_ENV):
        env.pop(key, None)
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(_SETUP_CHILD), "--workload", workload.name, "--seed", str(seed)],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _block_median(blocks: list, work) -> float:
    """Median over blocks of the block's work on successful ops per host
    second spent on all its ops."""
    return statistics.median(
        sum(work(r) for r in block if r.ok) / sum(r.host_s for r in block)
        for block in blocks
    )


def end_to_end(
    workload: Workload,
    results: list[OpResult],
    setup_samples: list[float],
    peak_rss_mb: float,
) -> dict[str, tuple[float, str]]:
    """Every metric of the timed closed loop, as ``name -> (value, unit)``.

    Rates are medians over the run's blocks (see ``Workload.block``) of
    the work done by successful ops.  The pathload accuracy metrics are taken
    over the first ``min_ops`` ops only, the same ops for every run of a
    seed, so they are deterministic per seed; they are 0 where undefined
    (no ground truth, or no pathload session).
    """
    ok = [r for r in results if r.ok]
    times = [r.host_s for r in ok]
    blocks = [results[i : i + workload.block] for i in range(0, len(results), workload.block)]
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (_block_median(blocks, lambda r: 1), "1/s"),
        "sim_pkts_per_s": (_block_median(blocks, lambda r: r.pkts), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_s.p50": (statistics.median(times) if times else 0.0, "s"),
    }
    if len(times) >= P90_MIN_OPS:
        metrics["op_s.p90"] = (float(np.percentile(times, 90)), "s")
    metrics["failed_frac"] = ((len(results) - len(ok)) / len(results), "ratio")
    fixed = [r for r in results[: workload.min_ops] if r.ok]
    errors = [workload.range_error(r.op, r.value) for r in fixed]
    errors = [e for e in errors if e is not None]
    durations = [s[2] for r in fixed for s in r.sessions]
    metrics["pathload.range_err_rel.p50"] = (statistics.median(errors) if errors else 0.0, "ratio")
    metrics["pathload.converge_sim_s.p50"] = (
        statistics.median(durations) if durations else 0.0,
        "s",
    )
    return metrics
