"""Bit-equality matrix for the segment-planned modulation fast paths.

The PR this file rides with makes ``modulation=(interval, sigma)``
cross-traffic sources *bulk-eligible*: their piecewise-constant rate
walk is generated in batched per-segment chunks (same RNG draw order)
instead of per-packet events, so the stream- and flow-transit planners
stay engaged under non-stationary load.  The contract is unchanged —
every observable ``==`` the full per-packet run — and this matrix pins
it across the axes that interact with segmentation: modulation on/off,
finite versus infinite buffers, one versus two hops, and a probe-stream
versus TCP foreground.

The figure-level rows (Figs. 10-11) are pinned at reduced scale; the
full-scale point runs live behind ``REPRO_PERF_GATE`` in
``benchmarks/test_perf_substrate.py``.
"""

import numpy as np
import pytest

from repro.core.probing import StreamSpec
from repro.netsim import LinkSpec, Simulator, attach_cross_traffic, build_path
from repro.netsim.topologies import build_single_hop_path
from repro.transport.probe import ProbeChannel, run_pathload
from repro.transport.tcp import TCPConfig, open_connection

MODULATION = (0.5, 0.3)


def run_config(
    fast,
    modulation=None,
    buffer_bytes=None,
    hops=1,
    foreground="probe",
    seed=23,
    until=6.0,
):
    """One seeded run; ``fast`` flips every elision layer at once.

    ``fast=True`` is the default stack (bulk cross + planners);
    ``fast=False`` is the full per-packet machinery (``bulk=False``
    cross sources, per-packet probe channel / TCP flow).
    """
    sim = Simulator()
    specs = [
        LinkSpec(10e6, prop_delay=0.002, buffer_bytes=buffer_bytes, name=f"hop{i}")
        for i in range(hops)
    ]
    net = build_path(sim, specs)
    rng = np.random.default_rng(seed)
    sources = []
    for h in range(hops):
        sources.extend(
            attach_cross_traffic(
                sim,
                net,
                net.forward_links[h],
                6e6 if h == 0 else 3e6,
                rng,
                n_sources=4,
                model="pareto",
                modulation=modulation,
                bulk=None if fast else False,
            )
        )
    chan = None
    flow = None
    measurements = []
    if foreground == "probe":
        chan = ProbeChannel(sim, net, fast=fast)
        spec = StreamSpec(rate_bps=8e6, packet_size=300, n_packets=60)

        def launch():
            ev = chan.send_stream(spec)
            ev.add_callback(
                lambda m: measurements.append(
                    (
                        m.n_sent,
                        m.n_received,
                        tuple(
                            (r.seq, r.sender_stamp, r.recv_stamp)
                            for r in m.records
                        ),
                    )
                )
            )

        for k in range(3):
            sim.schedule_at(1.0 + 0.7013 * k, launch)
    else:
        snd, rcv = open_connection(
            sim,
            net,
            config=TCPConfig(min_rto=0.5),
            total_bytes=400_000,
            start=0.5,
            fast=fast,
        )
        flow = (snd, rcv)
    sim.run(until=until)
    if flow is not None:
        snd, rcv = flow
        measurements.append(
            (
                snd.segments_sent,
                snd.retransmits,
                snd.timeouts,
                snd.cwnd,
                snd.srtt,
                rcv.rcv_nxt,
                rcv.acks_sent,
            )
        )
    stats = [lk.stats.snapshot() for lk in net.forward_links]
    return measurements, stats, sources, chan, net


MATRIX = [
    # (modulation, buffer_bytes, hops, foreground)
    (MODULATION, None, 1, "probe"),
    (MODULATION, None, 2, "tcp"),
    (MODULATION, 12_000, 1, "tcp"),
    (MODULATION, 12_000, 2, "probe"),
    (None, None, 2, "probe"),
    (None, 12_000, 1, "probe"),
    (None, None, 1, "tcp"),
    (None, 12_000, 2, "tcp"),
]

IDS = [
    "mod-inf-1hop-probe",
    "mod-inf-2hop-tcp",
    "mod-finite-1hop-tcp",
    "mod-finite-2hop-probe",
    "plain-inf-2hop-probe",
    "plain-finite-1hop-probe",
    "plain-inf-1hop-tcp",
    "plain-finite-2hop-tcp",
]


class TestMatrix:
    @pytest.mark.parametrize(
        "modulation,buffer_bytes,hops,foreground", MATRIX, ids=IDS
    )
    def test_fast_stack_bit_identical(
        self, modulation, buffer_bytes, hops, foreground
    ):
        kwargs = dict(
            modulation=modulation,
            buffer_bytes=buffer_bytes,
            hops=hops,
            foreground=foreground,
        )
        mf, sf, srcf, chf, netf = run_config(True, **kwargs)
        ms, ss, srcs, _, _ = run_config(False, **kwargs)
        assert mf == ms
        assert sf == ss
        # Engagement: modulation no longer demotes anything.
        assert all(s.is_bulk for s in srcf)
        assert not any(s.is_bulk for s in srcs)
        if foreground == "probe":
            assert chf.fastpath_streams == len(mf)
            assert not chf.fastpath_fallbacks
        else:
            assert netf._ft_flows == 1


class TestNoFallbacksOnDefaultModulatedTopology:
    def test_fallback_counters_stay_zero(self):
        # The acceptance criterion for segment-planned modulation: a
        # default modulated topology drives the whole stack — bulk cross,
        # planned streams — without a single fallback increment.
        from repro.obs import Tracer

        tracer = Tracer(light=True)
        sim = Simulator()
        tracer.attach(sim)
        rng = np.random.default_rng(31)
        setup = build_single_hop_path(
            sim, 10e6, 0.5, rng, modulation=MODULATION
        )
        tracer.register_network(setup.network)
        chan = ProbeChannel(sim, setup.network)
        spec = StreamSpec(rate_bps=8e6, packet_size=300, n_packets=60)
        holder = {}
        for k in range(3):
            sim.schedule_at(
                1.0 + 0.7013 * k,
                lambda: holder.update(ev=chan.send_stream(spec)),
            )
        sim.run(until=4.0)
        assert all(s.is_bulk for s in setup.sources)
        assert chan.fastpath_streams == 3
        m = tracer.collect_metrics()
        for metric in m:
            for name, labels, value in metric.samples():
                if name in (
                    "repro_fastpath_fallback_total",
                    "repro_fastpath_flow_fallback_total",
                ):
                    assert value == 0, (
                        f"{name}{labels} incremented on a default "
                        "modulated topology"
                    )


class TestFigureRows:
    def test_fig11_point_row_bit_identical(self, monkeypatch):
        # One reduced-scale Fig. 11 sample: the Section VI dynamics
        # worker (Pareto traffic, modulation=(2.0, 0.25)) must produce
        # the same rho whether cross traffic and probes ride the
        # segment-planned paths or the per-packet machinery.
        from repro.experiments.base import fast_pathload_config
        from repro.experiments.dynamics import _rho_one

        kwargs = dict(
            entropy=987654321,
            capacity_bps=12.4e6,
            utilization=0.45,
            config=fast_pathload_config(),
            n_sources=10,
            warmup=2.0,
            prop_delay=0.01,
            modulation=(2.0, 0.25),
        )
        monkeypatch.delenv("REPRO_NO_FAST", raising=False)
        rho_fast = _rho_one(**kwargs)
        monkeypatch.setenv("REPRO_NO_FAST", "1")
        rho_slow = _rho_one(**kwargs)
        assert rho_fast == rho_slow

    def test_fig10_point_row_bit_identical(self, monkeypatch):
        # One reduced-scale Fig. 10 window: pathload runs against the
        # MRTG monitor on the two-link testbed.
        from repro.experiments.fig10_mrtg import measure_window

        def one():
            rng = np.random.default_rng(77)
            return measure_window(rng, window=30.0, tight_utilization=0.55)

        monkeypatch.delenv("REPRO_NO_FAST", raising=False)
        fast = one()
        monkeypatch.setenv("REPRO_NO_FAST", "1")
        slow = one()
        assert fast == slow
