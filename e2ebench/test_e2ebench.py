"""The benchmark's own tests, at minimal size.

Run from the repository root: ``python3 -m pytest e2ebench -q``.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2ebench import harness, layers, run  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(name: str, **changes):
    """The named workload with the fewest ops a run allows."""
    return dataclasses.replace(WORKLOADS[name], min_ops=2, block=1, ref_sample=1, **changes)


def _run_main(monkeypatch, name: str, trace: int) -> tuple[int, dict]:
    monkeypatch.setitem(WORKLOADS, name, _tiny(name))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(
            ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
        )
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_spec_lists_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.GATED)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(monkeypatch, trace):
    code, result = _run_main(monkeypatch, "fig4-pathload", trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace:
        assert result["metrics"]["crosstraffic.bulk_share"]["value"] == 1.0


def test_same_seed_same_ops_other_seed_other_ops():
    from repro.parallel import cache_key

    for workload in WORKLOADS.values():
        def keys(seed):
            return [cache_key(op.task) for op in itertools.islice(workload.ops(seed), 20)]

        assert keys(5) == keys(5)
        assert not set(keys(5)) & set(keys(6))
        assert len(set(keys(5))) == 20


def test_fig4_ops_visit_every_operating_point():
    labels = [op.label for op in itertools.islice(WORKLOADS["fig4-pathload"].ops(1), 16)]
    assert len(set(labels)) == 16


def _one_op(tmp_path, name="fig4-pathload", cache="c"):
    workload = _tiny(name)
    with harness.Observers() as observers:
        return harness.run_closed_loop(
            workload, itertools.islice(workload.ops(1), 1), 0.0,
            str(tmp_path / cache), observers, min_ops=1,
        )


def test_cache_hit_in_a_timed_run_is_an_error(tmp_path):
    _one_op(tmp_path)
    with pytest.raises(harness.BenchmarkError, match="cache hit"):
        _one_op(tmp_path)


def test_output_check_catches_an_injected_fault(tmp_path):
    workload = _tiny("fig4-pathload")
    (result,) = _one_op(tmp_path)
    assert result.ok and result.pkts > 0 and len(result.sessions) == 1
    harness.reference_check(workload, [result], seed=1)
    assert result.ok
    low, high = result.value
    result.value = (low, high * (1 + 1e-12))
    harness.reference_check(workload, [result], seed=1)
    assert not result.ok and "per-packet reference" in result.problems[0]
    assert workload.check((2.0, 1.0)) and workload.check((float("nan"), 1.0))


def test_traced_self_times_stay_within_inclusive_time(tmp_path):
    from repro.netsim.link import Link
    from repro.netsim.streamtransit import plan_stream
    from repro.transport import probe

    send, sync = Link.send, Link.sync
    workload = _tiny("tcp-testbed")
    with harness.Observers() as observers, layers.LayerTrace() as trace:
        assert probe.plan_stream is not plan_stream
        results = harness.run_closed_loop(
            workload, itertools.islice(workload.ops(1), 2), 0.0,
            str(tmp_path), observers, min_ops=2, trace=trace,
        )
    assert (Link.send, Link.sync) == (send, sync)
    assert probe.plan_stream is plan_stream
    root = trace.root_s()
    assert 0 < sum(trace.self_s.values()) <= root * (1 + 1e-9)
    assert root <= sum(r.host_s for r in results)
    metrics = layers.layer_metrics(
        trace, results, results,
        {"pathload.converge_sim_s.p50": (1.0, "s"), "pathload.range_err_rel.p50": (0.0, "ratio")},
    )
    assert metrics["flowtransit.engaged_ratio"][0] > 0
    assert metrics["tcp.on_ack.calls"][0] > 0
    assert sum(v for k, (v, _) in metrics.items() if k.startswith("share.")) <= 1 + 1e-9


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fig4-pathload",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
