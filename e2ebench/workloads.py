"""The benchmark's three workloads, built from the figure modules' own tasks.

Every workload is a closed loop with one client: op ``i`` is one
:class:`~repro.parallel.SweepTask` of a figure module, and it starts when
op ``i - 1`` has ended.  Op inputs are spawned from ``--seed`` with
:func:`~repro.experiments.base.spawn_seed_entropy`, so the same seed gives
the same ops and another seed gives other ops.

Why these three (each stresses a different set of layers):

* ``fig4-pathload`` -- one pathload session on the Fig. 4 topology, drawn
  across the operating points of Figs. 5 and 6.  Figs. 5-6 are the
  largest share of the figure suite; stream transit is their largest
  self-time layer, and the ops are short, so per-op costs (topology
  build, sweep/cache, trend tests) show.
* ``mrtg-window`` -- one Fig. 10 trial: back-to-back pathload runs over a
  45 s MRTG window on a 155 Mb/s tight / 100 Mb/s narrow path.  Link
  sync, bulk arrivals and cross-traffic generation dominate and stream
  transit is minor, so a cross-traffic change must show here and a
  stream-transit change must not.
* ``tcp-testbed`` -- one Section VII/VIII testbed run, alternating the
  Fig. 15-16 BTC run and the Fig. 17-18 pathload-intrusiveness run.  Flow
  transit dominates, there is no Pareto cross traffic, and probe streams
  are adopted into the flow-transit domain instead of being planned solo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

import numpy as np

from repro.experiments import (
    fig05_load,
    fig06_nontight,
    fig10_mrtg,
    fig15_16_btc,
    fig17_18_intrusiveness,
)
from repro.experiments.base import rng_from_entropy, spawn_seed_entropy
from repro.experiments.sectionvii import INTERVAL_NAMES, build_testbed
from repro.netsim.engine import Simulator
from repro.netsim.topologies import Fig4Config, build_fig4_path, build_two_link_path
from repro.parallel import SweepTask

__all__ = ["Op", "Workload", "WORKLOADS", "MAX_OPS"]

#: Upper bound on the ops one run can draw; a run that needs more fails.
MAX_OPS = 10_000

#: Simulated lengths of the figures' default scale, fixed here so that
#: ``REPRO_FULL`` cannot change what the benchmark measures.
MRTG_WINDOW_S = 45.0
TESTBED_INTERVAL_S = 60.0


@dataclass(frozen=True)
class Op:
    """One operation: a sweep task plus what its output is checked against."""

    index: int
    task: SweepTask
    label: str
    #: true end-to-end avail-bw, when the op's inputs define it
    truth_bps: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    """A named closed-loop workload."""

    name: str
    why: str
    #: ops every run completes, even past ``--seconds``, so that the
    #: accuracy metrics are taken over the same ops for a given seed
    min_ops: int
    #: ops per block, a multiple of the op mix's cycle (one visit of every
    #: operating point or op kind) lasting a few host seconds.  A timed run
    #: ends at a block's end; its rates are medians over blocks, so a burst
    #: of load from other tenants of the host moves one block, not the run.
    block: int
    #: consecutive ops re-run against the per-packet reference per run
    ref_sample: int
    #: the op sequence of a seed, in the order the client sends it
    ops: Callable[[int], Iterator[Op]]
    check: Callable[[Any], list]
    #: |range center - truth| / truth of one op, or None when undefined
    range_error: Callable[[Op, Any], Optional[float]]
    #: builds the first op's topology in a fresh process (``setup_s``)
    prepare: Callable[[int], None]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _range_problems(low, high) -> list:
    if not (_finite(low) and _finite(high)):
        return [f"non-finite range [{low!r}, {high!r}]"]
    if not 0.0 <= low <= high:
        return [f"bad range [{low!r}, {high!r}]"]
    return []


# ----------------------------------------------------------------------
# fig4-pathload
# ----------------------------------------------------------------------
def _fig4_points() -> list[tuple[str, str, Fig4Config]]:
    """The operating points of Figs. 5 and 6, as ``(experiment, label, cfg)``."""
    points = [
        (
            "fig05",
            f"{model}-ut{int(u * 100)}",
            Fig4Config(tight_utilization=u, traffic_model=model),
        )
        for model in fig05_load.TRAFFIC_MODELS
        for u in fig05_load.UTILIZATIONS
    ]
    points += [
        (
            "fig06",
            f"H{hops}-ux{int(ux * 100)}",
            Fig4Config(
                hops=hops,
                tight_utilization=0.6,
                tightness_factor=0.3,
                nontight_utilization=ux,
                traffic_model="pareto",
            ),
        )
        for hops in fig06_nontight.PATH_LENGTHS
        for ux in fig06_nontight.NONTIGHT_UTILIZATIONS
    ]
    return points


def _fig4_ops(seed: int) -> Iterator[Op]:
    # Stratified draw: every cycle visits each operating point once, in a
    # seeded order, so a run's op mix does not depend on the seed's luck.
    points = _fig4_points()
    order_rng = np.random.default_rng(seed)
    order: list[int] = []
    for i, entropy in enumerate(spawn_seed_entropy(seed, MAX_OPS)):
        if not order:
            order = list(order_rng.permutation(len(points)))
        experiment, label, cfg = points[int(order.pop(0))]
        (task,) = fig05_load.point_tasks(
            cfg, runs=1, master_seed=entropy, experiment=experiment
        )
        yield Op(index=i, task=task, label=label, truth_bps=cfg.avail_bw_bps)


def _fig4_check(value) -> list:
    if not (isinstance(value, tuple) and len(value) == 2):
        return [f"expected a (low, high) pair, got {value!r}"]
    return _range_problems(*value)


def _fig4_error(op: Op, value) -> float:
    low, high = value
    return abs((low + high) / 2.0 - op.truth_bps) / op.truth_bps


def _fig4_prepare(seed: int) -> None:
    op = next(_fig4_ops(seed))
    build_fig4_path(
        Simulator(), op.task.kwargs["cfg"], rng_from_entropy(op.task.seed_entropy)
    )


# ----------------------------------------------------------------------
# mrtg-window
# ----------------------------------------------------------------------
def _mrtg_ops(seed: int) -> Iterator[Op]:
    for i, entropy in enumerate(spawn_seed_entropy(seed, MAX_OPS)):
        task = SweepTask(
            fn=fig10_mrtg._trial_row,
            kwargs={"trial": i, "window": MRTG_WINDOW_S},
            experiment="fig10",
            seed_entropy=entropy,
        )
        yield Op(index=i, task=task, label="fig10")


def _mrtg_check(value) -> list:
    if not isinstance(value, dict):
        return [f"expected a trial row, got {value!r}"]
    problems = _range_problems(value["mrtg_lo_mbps"], value["mrtg_hi_mbps"])
    center = value["pathload_center_mbps"]
    if not (_finite(center) and center >= 0.0):
        problems.append(f"bad pathload center {center!r}")
    if value["pathload_runs"] < 1:
        problems.append("no pathload run completed in the window")
    return problems


def _mrtg_error(op: Op, value) -> float:
    band_center = (value["mrtg_lo_mbps"] + value["mrtg_hi_mbps"]) / 2.0
    return abs(value["pathload_center_mbps"] - band_center) / band_center


def _mrtg_prepare(seed: int) -> None:
    # Mirrors the start of fig10_mrtg._trial_row for the first op.
    op = next(_mrtg_ops(seed))
    rng = rng_from_entropy(op.task.seed_entropy)
    build_two_link_path(
        Simulator(),
        narrow_capacity_bps=fig10_mrtg.NARROW_CAPACITY,
        narrow_utilization=0.10,
        tight_capacity_bps=fig10_mrtg.TIGHT_CAPACITY,
        tight_utilization=float(rng.uniform(0.45, 0.70)),
        rng=rng,
        total_prop_delay=0.05,
    )


# ----------------------------------------------------------------------
# tcp-testbed
# ----------------------------------------------------------------------
_TESTBED_RUNS = (
    ("fig15-16", "btc", fig15_16_btc._simulate),
    ("fig17-18", "intrusiveness", fig17_18_intrusiveness._simulate),
)


def _testbed_ops(seed: int) -> Iterator[Op]:
    for i, entropy in enumerate(spawn_seed_entropy(seed, MAX_OPS)):
        experiment, label, fn = _TESTBED_RUNS[i % 2]
        task = SweepTask(
            fn=fn,
            kwargs={"seed": entropy, "interval": TESTBED_INTERVAL_S},
            experiment=experiment,
        )
        yield Op(index=i, task=task, label=label)


def _testbed_check(value) -> list:
    if not (isinstance(value, list) and len(value) == len(INTERVAL_NAMES)):
        return [f"expected one row per interval, got {value!r}"]
    problems = []
    for row, name in zip(value, INTERVAL_NAMES):
        if row.get("interval") != name:
            problems.append(f"row {row!r} is not interval {name}")
        for key, x in row.items():
            if isinstance(x, float) and not math.isfinite(x):
                problems.append(f"interval {name}: non-finite {key}")
    return problems


def _testbed_prepare(seed: int) -> None:
    op = next(_testbed_ops(seed))
    build_testbed(seed=op.task.kwargs["seed"], interval=TESTBED_INTERVAL_S)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig4-pathload",
            why=(
                "Figs. 5-6 pathload sessions on the Fig. 4 path: the suite's "
                "largest share; stream transit, trend tests, topology build "
                "and sweep/cache per short op"
            ),
            min_ops=32,
            block=16,
            ref_sample=3,
            ops=_fig4_ops,
            check=_fig4_check,
            range_error=_fig4_error,
            prepare=_fig4_prepare,
        ),
        Workload(
            name="mrtg-window",
            why=(
                "Fig. 10 pathload vs MRTG over a 45 s window on a 155/100 Mb/s "
                "path: link sync, bulk arrivals and cross traffic dominate; "
                "stream transit is minor"
            ),
            min_ops=8,
            block=4,
            ref_sample=1,
            ops=_mrtg_ops,
            check=_mrtg_check,
            range_error=_mrtg_error,
            prepare=_mrtg_prepare,
        ),
        Workload(
            name="tcp-testbed",
            why=(
                "Figs. 15-18 BTC and pathload among Reno flows: flow transit "
                "dominates, no Pareto cross traffic, probe streams adopted "
                "into the flow-transit domain"
            ),
            min_ops=8,
            block=4,
            ref_sample=2,
            ops=_testbed_ops,
            check=_testbed_check,
            range_error=lambda op, value: None,
            prepare=_testbed_prepare,
        ),
    )
}
