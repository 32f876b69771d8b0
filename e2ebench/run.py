"""Run one workload of the end-to-end benchmark and print its metrics.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload fig4-pathload --seed 1 --seconds 20 --trace 0

One run: ``setup_s`` from fresh interpreters; one untimed warm-up op; the
timed closed loop over the seed's ops for ``--seconds`` (and at least the
workload's ``min_ops``, ending at a block's end); an untimed re-run of a sample of ops on the
per-packet reference, which must match ``==``.  With ``--trace 1`` the
first block of timed ops then runs again under the layer wrappers, and
the per-layer metrics replace the end-to-end ones in the result line.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``name -> {"value", "unit"}``).  Exit status:
0 when every op passed its checks, 1 when an op failed, 2 when the run
could not measure (no ``src/repro`` here, a cache hit in a timed run).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: fresh-interpreter set-up samples per run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: metrics the result line carries with ``--trace 0``.  The table above
#: it also shows ``op_s.p50`` (and ``op_s.p90`` from 100 ops on) and
#: ``failed_frac``: across seeds the p50 moves with the op mix by more
#: than any bound a gate could hold, and ``failed_frac`` is 0 at a good
#: commit, which the ``failed`` count already carries.
GATED = ("setup_s", "ops_per_s", "sim_pkts_per_s", "peak_rss_mb")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(title: str, metrics: dict, notes: dict | None = None) -> list[str]:
    lines = [title]
    for name, (value, unit) in metrics.items():
        note = f"  -> {notes[name]}" if notes and name in notes else ""
        lines.append(f"  {name:<44} {value:>16.6g} {unit}{note}")
    return lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)  # simlint: disable=SIM007 -- benchmark report
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from e2ebench import harness
    from e2ebench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        known = sorted(WORKLOADS)
        print(f"unknown workload {args.workload!r}; one of {known}", file=sys.stderr)  # simlint: disable=SIM007 -- benchmark report
        return 2

    scratch = ROOT / ".e2ebench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        setup = harness.measure_setup(workload, args.seed, SETUP_REPEATS, ROOT)
        observers = harness.Observers()
        with observers:
            # Warm-up: imports, the kernel self-check and first-use costs
            # are paid before timing (setup_s measures them separately).
            # Op 0 warms up; timed ops start at the next block so blocks
            # line up with the op mix's cycles.
            harness.run_closed_loop(
                workload, itertools.islice(workload.ops(args.seed), 1), 0.0,
                str(tmp / "warmup"), observers, min_ops=1,
            )
            first = workload.block
            results = harness.run_closed_loop(
                workload, itertools.islice(workload.ops(args.seed), first, None),
                args.seconds, str(tmp / "timed"), observers,
                min_ops=workload.min_ops, block=workload.block,
            )
        rss = harness.peak_rss_mb()
        harness.reference_check(workload, results, args.seed)
        e2e = harness.end_to_end(workload, results, setup, rss)
        lines = _table(f"{workload.name}: {len(results)} ops, seed {args.seed}", e2e)
        metrics = {name: e2e[name] for name in GATED}
        if args.trace:
            from e2ebench import layers

            # The traced pass re-runs the first block of timed ops, the same
            # ops for every run of a seed, so its counts are deterministic.
            # Each op also runs untraced right before, so the overhead ratio
            # compares runs made under the same load from other tenants.
            trace, plain, traced = layers.LayerTrace(), [], []
            with harness.Observers() as traced_observers:
                for op in itertools.islice(workload.ops(args.seed), first, first + workload.block):
                    plain += harness.run_closed_loop(
                        workload, [op], 0.0, str(tmp / "plain"), traced_observers, min_ops=1
                    )
                    with trace:
                        traced += harness.run_closed_loop(
                            workload, [op], 0.0, str(tmp / "traced"), traced_observers,
                            min_ops=1, trace=trace,
                        )
            # Tracing only observes: the traced pass must reproduce every output.
            for r, t in zip(results, traced):
                r.problems += t.problems
                if t.value != r.value:
                    r.problems.append("traced output differs from the untraced one")
            accuracy = {k: v for k, v in e2e.items() if k.startswith("pathload.")}
            metrics = layers.layer_metrics(trace, traced, plain, accuracy)
            notes = {name: note for name, _, _, note in layers.PER_LAYER}
            lines += _table("per-layer (traced pass)", metrics, notes)
    except harness.BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)  # simlint: disable=SIM007 -- benchmark report
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no concurrent run still uses it

    failed = [r for r in results if not r.ok]
    for r in failed:
        lines.append(f"FAILED op {r.op.index} ({r.op.label}): {'; '.join(r.problems)}")
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print("\n".join(lines + [json.dumps(result)]))  # simlint: disable=SIM007 -- benchmark report
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
