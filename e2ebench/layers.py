"""Per-layer attribution for the traced pass.

The traced pass re-runs the untraced run's ops with two instruments:

* **Span wrappers** around the public entry points of each ``src/repro``
  layer (:data:`ENTRY_POINTS`).  A function is patched where it is
  defined *and* at every module binding that names it (``plan_stream`` is
  also bound in ``repro.transport.probe``), and every patch is removed
  afterwards.  A layer's self time is its spans' time minus the time of
  the wrapped spans they contain; ``engine.unattributed_s`` is what
  ``Simulator.run``/``run_until`` spend outside every wrapped child, which
  is where flow-transit walks and TCP handlers land.
* **Counters** from a ``Tracer(light=True)`` installed per op with
  :func:`repro.parallel.set_default_tracer`; light tracing keeps every
  fast path engaged.

:data:`PER_LAYER` lists every metric with the end-to-end metric and
workload it is predicted to move.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

from repro.netsim.crosstraffic import CrossTrafficSource
from repro.netsim.flowtransit import FLOW_FALLBACK_REASONS
from repro.netsim.kernels import KERNEL_FALLBACK_REASONS, KERNELS, ONE_SHOT_REASONS
from repro.netsim.streamtransit import STREAM_FALLBACK_REASONS
from repro.obs import Tracer
from repro.parallel import set_default_tracer

__all__ = ["ENTRY_POINTS", "PER_LAYER", "LayerTrace", "layer_metrics"]

#: layer -> (module, qualified name, timed) of the entry points wrapped.
#: Untimed entries only count calls, so their time stays with the caller
#: (the TCP handlers' time is part of ``engine.unattributed_s``).
ENTRY_POINTS: dict[str, list[tuple[str, str, bool]]] = {
    # The op's sweep call; its self time also holds the figure task
    # function's own code (seeding, monitors, row assembly).
    "parallel": [("repro.parallel", "run_sweep", True)],
    "engine": [
        ("repro.netsim.engine", "Simulator.run", True),
        ("repro.netsim.engine", "Simulator.run_until", True),
    ],
    "topologies": [
        ("repro.netsim.topologies", "build_fig4_path", True),
        ("repro.netsim.topologies", "build_single_hop_path", True),
        ("repro.netsim.topologies", "build_two_link_path", True),
        ("repro.netsim.path", "build_path", True),
    ],
    "crosstraffic": [
        ("repro.netsim.crosstraffic", "attach_cross_traffic", True),
        ("repro.netsim.crosstraffic", "CrossTrafficSource.__init__", True),
        ("repro.netsim.crosstraffic", "CrossTrafficSource._bulk_fill", True),
        ("repro.netsim.crosstraffic", "CrossTrafficSource._arrival", True),
    ],
    "bulkarrivals": [
        ("repro.netsim.bulkarrivals", "CrossAggregator.register", True),
        ("repro.netsim.bulkarrivals", "CrossAggregator.arrays", True),
        ("repro.netsim.bulkarrivals", "CrossAggregator.extend_until", True),
        ("repro.netsim.bulkarrivals", "CrossAggregator.compact", True),
        ("repro.netsim.bulkarrivals", "CrossAggregator.release", True),
        ("repro.netsim.bulkarrivals", "CrossAggregator._merge", True),
    ],
    "link": [
        ("repro.netsim.link", "Link.send", True),
        ("repro.netsim.link", "Link.sync", True),
    ],
    "streamtransit": [
        ("repro.netsim.streamtransit", "plan_stream", True),
        ("repro.netsim.streamtransit", "StreamPlan.commit", True),
        ("repro.netsim.streamtransit", "StreamPlan.retire_or_revoke", True),
        ("repro.netsim.streamtransit", "StreamPlan.revoke", True),
    ],
    "flowtransit": [
        ("repro.netsim.flowtransit", "try_attach_flow", True),
        ("repro.netsim.flowtransit", "FlowTransitDomain.adopt_stream", True),
        ("repro.netsim.flowtransit", "FlowTransitDomain.attach_flow", True),
        ("repro.netsim.flowtransit", "FlowTransitDomain.on_flow_stop", True),
        ("repro.netsim.flowtransit", "FlowTransitDomain.dissolve", True),
    ],
    "kernels": [
        ("repro.netsim.kernels", name, True)
        for name in (
            "lindley",
            "lindley_segmented",
            "prefix_sum",
            "masked_prefix_sum",
            "merge_parts",
            "fold_slice",
            "fold_slice_segmented",
            "plan_hop",
            "masked_pending",
        )
    ],
    "probe": [("repro.transport.probe", "ProbeChannel.send_stream", True)],
    "trend": [
        ("repro.core.trend", name, True)
        for name in (
            "median_groups",
            "pct_metric",
            "pdt_metric",
            "classify_owds",
            "classify_owds_two_sided",
        )
    ],
    "tcp": [
        ("repro.transport.tcp", "TCPReceiver.on_segment", False),
        ("repro.transport.tcp", "TCPSender.on_ack", False),
    ],
}

#: Layers whose self time is reported, in report order.
TIMED_LAYERS = tuple(
    layer for layer, entries in ENTRY_POINTS.items() if any(t for _, _, t in entries)
)

#: Every per-layer metric: (name, unit, better, predicted end-to-end effect).
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("engine.events", "count", "lower", "ops_per_s on tcp-testbed"),
    ("engine.heap_high_water", "count", "lower", "peak_rss_mb on tcp-testbed"),
    ("engine.unattributed_s", "s", "lower", "ops_per_s on tcp-testbed (flow-transit walks, TCP handlers)"),
    ("parallel.overhead_s", "s", "lower", "ops_per_s on fig4-pathload"),
    ("parallel.cache_misses", "count", "higher", "none: one per op, a cache hit is a benchmark error"),
    ("parallel.cache_hits", "count", "lower", "none: must stay 0"),
    ("topologies.build_s", "s", "lower", "op_s.p50 on fig4-pathload"),
    ("crosstraffic.packets", "count", "lower", "sim_pkts_per_s on mrtg-window; none on tcp-testbed"),
    ("crosstraffic.bulk_share", "ratio", "higher", "op_s.p50 on mrtg-window and fig4-pathload; 1 at this commit"),
    ("crosstraffic.self_s", "s", "lower", "op_s.p50 and sim_pkts_per_s on mrtg-window"),
    ("bulkarrivals.extend_until.calls", "count", "lower", "op_s.p50 on mrtg-window"),
    ("bulkarrivals.self_s", "s", "lower", "op_s.p50 and sim_pkts_per_s on mrtg-window"),
    ("link.sync.calls", "count", "lower", "op_s.p50 on mrtg-window"),
    ("link.sync.self_s", "s", "lower", "op_s.p50 on mrtg-window"),
    ("link.send.calls", "count", "lower", "ops_per_s on tcp-testbed"),
    ("link.send.self_s", "s", "lower", "ops_per_s on tcp-testbed"),
    ("link.drops", "count", "lower", "none: deterministic per seed"),
    ("streamtransit.plan_stream.calls", "count", "lower", "op_s.p50 on fig4-pathload; flat on tcp-testbed"),
    ("streamtransit.plan_stream.self_s", "s", "lower", "op_s.p50 on fig4-pathload; flat on tcp-testbed"),
    ("streamtransit.self_s", "s", "lower", "op_s.p50 on fig4-pathload; flat on tcp-testbed"),
    ("streamtransit.engaged_ratio", "ratio", "higher", "op_s.p50 on fig4-pathload"),
]
PER_LAYER += [
    (f"streamtransit.fallback.{r}", "count", "lower", "op_s.p50 on fig4-pathload")
    for r in STREAM_FALLBACK_REASONS
]
PER_LAYER += [
    ("flowtransit.flows_planned", "count", "higher", "ops_per_s on tcp-testbed only"),
    ("flowtransit.streams_adopted", "count", "higher", "ops_per_s on tcp-testbed only"),
    ("flowtransit.engaged_ratio", "ratio", "higher", "ops_per_s on tcp-testbed only; > 0 at this commit"),
]
PER_LAYER += [
    (f"flowtransit.fallback.{r}", "count", "lower", "ops_per_s on tcp-testbed only")
    for r in FLOW_FALLBACK_REASONS
]
PER_LAYER += [
    (f"kernels.calls.{k}", "count", "higher", "op_s.p50 on fig4-pathload and mrtg-window")
    for k in KERNELS
]
PER_LAYER += [
    ("kernels.self_s", "s", "lower", "op_s.p50 on fig4-pathload and mrtg-window"),
    ("kernels.engaged_ratio", "ratio", "higher", "op_s.p50 on fig4-pathload and mrtg-window"),
]
PER_LAYER += [
    (f"kernels.fallback.{r}", "count", "lower", "op_s.p50 on fig4-pathload and mrtg-window")
    for r in KERNEL_FALLBACK_REASONS
]
PER_LAYER += [
    ("probe.send_stream.calls", "count", "lower", "op_s.p50 on fig4-pathload"),
    ("probe.self_s", "s", "lower", "op_s.p50 on fig4-pathload"),
    ("probe.packets.elided", "count", "higher", "op_s.p50 on fig4-pathload"),
    ("probe.packets.per-packet", "count", "lower", "op_s.p50 on fig4-pathload"),
    ("tcp.on_segment.calls", "count", "lower", "ops_per_s on tcp-testbed"),
    ("tcp.on_ack.calls", "count", "lower", "ops_per_s on tcp-testbed"),
    ("trend.calls", "count", "lower", "op_s.p50 on fig4-pathload"),
    ("trend.self_s", "s", "lower", "op_s.p50 on fig4-pathload"),
    ("pathload.fleets", "count", "lower", "pathload.converge_sim_s.p50 on fig4-pathload"),
    ("pathload.streams", "count", "lower", "op_s.p50 on fig4-pathload"),
    ("pathload.converge_sim_s.p50", "s", "lower", "none: deterministic per seed, guards the science"),
    ("pathload.range_err_rel.p50", "ratio", "lower", "none: deterministic per seed, guards the science; 0 on tcp-testbed"),
    ("obs.trace_overhead", "ratio", "lower", "none: traced wall / untraced wall"),
]
PER_LAYER += [
    (f"share.{layer}", "ratio", "lower", "op_s.p50 / ops_per_s on the workloads where the layer is largest")
    for layer in TIMED_LAYERS
]


class LayerTrace:
    """Span wrappers and per-op light tracers for one traced pass.

    Entering installs the patches and leaving removes every one; a trace
    can be entered again and keeps adding to the same totals.  Call
    :meth:`begin_op` / :meth:`end_op` around each op.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        #: self seconds by ``"layer:qualname"`` key
        self.self_s: defaultdict = defaultdict(float)
        #: inclusive seconds by layer, outermost spans only
        self.incl_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.heap_high_water = 0
        self.bulk_sources = 0
        self.sources = 0
        self._stack: list = []
        self._depth: Counter = Counter()
        self._paused = False
        self._patches: list = []
        self._new_sources: list = []
        self._tracer = None
        self._prev_tracer = None

    # -- wrappers ------------------------------------------------------
    def _timed(self, layer: str, key: str, fn: Callable) -> Callable:
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        stack, depth = self._stack, self._depth
        perf = time.perf_counter
        trace = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if trace._paused:
                return fn(*args, **kwargs)
            calls[key] += 1
            stack.append(0.0)
            depth[layer] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_s[key] += dt - stack.pop()
                depth[layer] -= 1
                if not depth[layer]:
                    incl_s[layer] += dt
                if stack:
                    stack[-1] += dt

        return span

    def _counted(self, key: str, fn: Callable) -> Callable:
        calls, trace = self.calls, self

        @functools.wraps(fn)
        def count(*args, **kwargs):
            if not trace._paused:
                calls[key] += 1
            return fn(*args, **kwargs)

        return count

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "LayerTrace":
        try:
            for layer, entries in ENTRY_POINTS.items():
                for module_name, qualname, timed in entries:
                    self._install(layer, module_name, qualname, timed)
            init = CrossTrafficSource.__init__
            new_sources = self._new_sources

            def registering_init(source, *args, **kwargs):
                init(source, *args, **kwargs)
                new_sources.append(source)

            self._patch(CrossTrafficSource, "__init__", functools.wraps(init)(registering_init))
        except BaseException:
            self._restore()
            raise
        return self

    def _install(self, layer: str, module_name: str, qualname: str, timed: bool) -> None:
        module = importlib.import_module(module_name)
        key = f"{layer}:{qualname}"
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            wrapper = self._timed(layer, key, original) if timed else self._counted(key, original)
            self._patch(owner, attr, wrapper)
            return
        original = getattr(module, attr)
        wrapper = self._timed(layer, key, original) if timed else self._counted(key, original)
        # Patch the definition and every binding a caller may use.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, binding, wrapper)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()
        if self._tracer is not None:
            set_default_tracer(self._prev_tracer)
            self._tracer = None

    # -- per-op tracer -------------------------------------------------
    def begin_op(self) -> None:
        # One parent tracer per op: its single child's per-link gauges are
        # then that op's own values, which can be summed across ops.
        self._tracer = Tracer(light=True)
        self._prev_tracer = set_default_tracer(self._tracer)

    def end_op(self) -> None:
        tracer, self._tracer = self._tracer, None
        set_default_tracer(self._prev_tracer)
        counters = self.counters
        for entry in tracer.collect_metrics().dump():
            name = entry["name"]
            if entry["kind"] == "histogram":
                continue
            if name == "repro_engine_heap_high_water":
                self.heap_high_water = max(self.heap_high_water, entry["value"])
                continue
            labels = dict(entry["labels"])
            label = labels.get("reason") or labels.get("kernel") or labels.get("path")
            if name.startswith("repro_link_"):
                label = None  # summed over links
            counters[(name, label)] += entry["value"]
        # Reading a bulk source's counter folds its link; that is not op work.
        self._paused = True
        try:
            for source in self._new_sources:
                self.sources += 1
                self.bulk_sources += source.is_bulk
                counters[("crosstraffic_packets", None)] += source.packets_sent
        finally:
            self._paused = False
        self._new_sources.clear()

    # -- results ---------------------------------------------------------
    def layer_self_s(self, layer: str) -> float:
        prefix = layer + ":"
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def root_s(self) -> float:
        """Inclusive seconds of the outermost spans (the ops' sweeps)."""
        return self.incl_s["parallel"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    trace: LayerTrace, traced: list, untraced: list, accuracy: dict
) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric of one traced pass.

    ``traced`` and ``untraced`` are the :class:`~e2ebench.harness.OpResult`
    lists of the same ops run with and without tracing; ``accuracy`` holds
    the ``pathload.*`` accuracy metrics of :func:`e2ebench.harness.end_to_end`.
    """
    task_s = sum(r.task_s for r in traced)
    traced_s = sum(r.host_s for r in traced)
    untraced_s = sum(r.host_s for r in untraced)
    sessions = [s for r in traced for s in r.sessions]
    c, calls = trace.counters, trace.calls

    def counter(name: str, label=None) -> float:
        return c[(name, label)]

    stream_fallbacks = {r: counter("repro_fastpath_fallback_total", r) for r in STREAM_FALLBACK_REASONS}
    streams = counter("repro_fastpath_streams_total")
    flow_fallbacks = {r: counter("repro_fastpath_flow_fallback_total", r) for r in FLOW_FALLBACK_REASONS}
    flows = counter("repro_fastpath_flows_total")
    kernel_calls = {k: counter("repro_kernel_calls_total", k) for k in KERNELS}
    kernel_fallbacks = {r: counter("repro_kernel_fallback_total", r) for r in KERNEL_FALLBACK_REASONS}
    declined = sum(n for r, n in kernel_fallbacks.items() if r not in ONE_SHOT_REASONS)
    root = trace.root_s()

    values: dict[str, float] = {
        "engine.events": counter("repro_engine_events_executed"),
        "engine.heap_high_water": trace.heap_high_water,
        "engine.unattributed_s": trace.layer_self_s("engine"),
        "parallel.overhead_s": root - task_s,
        "parallel.cache_misses": counter("repro_sweep_cache_misses_total"),
        "parallel.cache_hits": counter("repro_sweep_cache_hits_total"),
        "topologies.build_s": trace.incl_s["topologies"],
        "crosstraffic.packets": counter("crosstraffic_packets"),
        "crosstraffic.bulk_share": _ratio(trace.bulk_sources, trace.sources),
        "crosstraffic.self_s": trace.layer_self_s("crosstraffic"),
        "bulkarrivals.extend_until.calls": calls["bulkarrivals:CrossAggregator.extend_until"],
        "bulkarrivals.self_s": trace.layer_self_s("bulkarrivals"),
        "link.sync.calls": calls["link:Link.sync"],
        "link.sync.self_s": trace.self_s["link:Link.sync"],
        "link.send.calls": calls["link:Link.send"],
        "link.send.self_s": trace.self_s["link:Link.send"],
        "link.drops": counter("repro_link_packets_dropped"),
        "streamtransit.plan_stream.calls": calls["streamtransit:plan_stream"],
        "streamtransit.plan_stream.self_s": trace.self_s["streamtransit:plan_stream"],
        "streamtransit.self_s": trace.layer_self_s("streamtransit"),
        "streamtransit.engaged_ratio": _ratio(streams, streams + sum(stream_fallbacks.values())),
        "flowtransit.flows_planned": flows,
        "flowtransit.streams_adopted": calls["flowtransit:FlowTransitDomain.adopt_stream"],
        "flowtransit.engaged_ratio": _ratio(flows, flows + sum(flow_fallbacks.values())),
        "kernels.self_s": trace.layer_self_s("kernels"),
        "kernels.engaged_ratio": _ratio(
            sum(kernel_calls.values()), sum(kernel_calls.values()) + declined
        ),
        "probe.send_stream.calls": calls["probe:ProbeChannel.send_stream"],
        "probe.self_s": trace.layer_self_s("probe"),
        "probe.packets.elided": counter("repro_probe_packets_total", "elided"),
        "probe.packets.per-packet": counter("repro_probe_packets_total", "per-packet"),
        "tcp.on_segment.calls": calls["tcp:TCPReceiver.on_segment"],
        "tcp.on_ack.calls": calls["tcp:TCPSender.on_ack"],
        "trend.calls": sum(n for k, n in calls.items() if k.startswith("trend:")),
        "trend.self_s": trace.layer_self_s("trend"),
        "pathload.fleets": sum(s[3] for s in sessions),
        "pathload.streams": sum(s[4] for s in sessions),
        "obs.trace_overhead": _ratio(traced_s, untraced_s),
    }
    values.update({name: value for name, (value, _) in accuracy.items()})
    values.update({f"streamtransit.fallback.{r}": n for r, n in stream_fallbacks.items()})
    values.update({f"flowtransit.fallback.{r}": n for r, n in flow_fallbacks.items()})
    values.update({f"kernels.calls.{k}": n for k, n in kernel_calls.items()})
    values.update({f"kernels.fallback.{r}": n for r, n in kernel_fallbacks.items()})
    values.update({f"share.{layer}": _ratio(trace.layer_self_s(layer), root) for layer in TIMED_LAYERS})
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    return {name: (float(values[name]), units[name]) for name, *_ in PER_LAYER}
