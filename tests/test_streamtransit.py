"""Equivalence tests for event-elided probe streams.

A probe stream rides the flow-transit domain (a solo stream is a domain
with zero flows), and the contract is *bit identity*: on every eligible
configuration, :class:`PacketRecord` stamps, link stats, monitor
samples, and pathload reports must equal — with ``==``, not ``approx`` —
what the per-packet path produces, because the domain evaluates the same
per-hop Lindley recursion in the same floating-point order.  Ineligible
configurations (qdiscs, RNG-bearing clocks, capacity schedules, full
tracers) must fall back automatically; per-packet foreground traffic (a
``fast=False`` TCP flow, a pinger) refuses nothing; and
mid-stream eligibility breaks (a link decommission, a schedule install)
must dissolve the domain onto the per-packet machinery with an identical
sample path.

Interference times in these tests are off the probe-send grid, as any
real configuration's are.
"""

import numpy as np
import pytest

from repro.core.probing import StreamSpec
from repro.netsim import LinkSpec, Simulator, build_path
from repro.netsim.clock import NoisyClock, SkewedClock
from repro.netsim.engine import SimulationError
from repro.netsim.qdisc import REDQueue
from repro.netsim.topologies import build_single_hop_path
from repro.transport.probe import ProbeChannel, SendJitter, run_pathload
from repro.transport.tcp import open_connection


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def run_streams(
    fast,
    hops=1,
    buffer_bytes=None,
    utilization=0.0,
    jitter_prob=0.0,
    skewed_clocks=False,
    n_streams=3,
    rate_bps=8e6,
    n_packets=60,
    seed=7,
    sanitize=False,
    tcp_at=None,
    tcp_bytes=120_000,
    tcp_fast=None,
    monitor_at=(),
    qdisc_hop=None,
    clocks=None,
    cap_install=None,
):
    """Send ``n_streams`` probe streams; return every observable series."""
    sim = Simulator(sanitize=sanitize)
    if utilization > 0.0:
        rng = np.random.default_rng(seed)
        setup = build_single_hop_path(
            sim, 10e6, utilization, rng, buffer_bytes=buffer_bytes
        )
        net = setup.network
    else:
        specs = [
            LinkSpec(10e6, prop_delay=1e-3, buffer_bytes=buffer_bytes, name=f"hop{i}")
            for i in range(hops)
        ]
        net = build_path(sim, specs)
    if qdisc_hop is not None:
        net.forward_links[qdisc_hop].qdisc = REDQueue(
            5_000, 20_000, np.random.default_rng(seed + 1)
        )
    if cap_install is not None:
        at, segments = cap_install
        sim.schedule_at(
            at, lambda: net.forward_links[0].set_capacity_segments(segments)
        )
    if clocks is not None:
        sender_clock, receiver_clock = clocks(sim)
    elif skewed_clocks:
        sender_clock = SkewedClock(offset=0.013, skew_ppm=40.0)
        receiver_clock = SkewedClock(offset=-0.007, skew_ppm=-25.0)
    else:
        sender_clock = receiver_clock = None
    jitter = (
        SendJitter(np.random.default_rng(seed + 2), prob=jitter_prob, max_delay=2e-4)
        if jitter_prob
        else None
    )
    chan = ProbeChannel(
        sim,
        net,
        sender_clock=sender_clock,
        receiver_clock=receiver_clock,
        jitter=jitter,
        fast=fast,
    )
    if tcp_at is not None:
        open_connection(
            sim, net, total_bytes=tcp_bytes, start=tcp_at, fast=tcp_fast
        )
    backlog_samples = []
    for t in monitor_at:
        sim.schedule_at(
            t,
            lambda: backlog_samples.append(
                (sim.now, [lk.backlog_bytes() for lk in net.forward_links])
            ),
        )
    spec = StreamSpec(rate_bps=rate_bps, packet_size=300, n_packets=n_packets)
    measurements = []
    start = 2.0
    for _ in range(n_streams):
        holder = {}
        sim.schedule_at(start, lambda: holder.update(ev=chan.send_stream(spec)))
        sim.run(until=start)
        m = sim.run_until(holder["ev"], limit=start + 30.0)
        measurements.append(
            (
                m.n_sent,
                m.n_received,
                tuple((r.seq, r.sender_stamp, r.recv_stamp) for r in m.records),
            )
        )
        start = sim.now + 0.013
    stats = [lk.stats.snapshot() for lk in net.forward_links]
    return measurements, stats, backlog_samples, chan, sim


def run_quick_pathload(
    fast, seed=11, utilization=0.3, tcp_at=None, tcp_fast=None, tracer=None
):
    """One short single-hop pathload; returns (report, stats, channel)."""
    sim = Simulator()
    if tracer is not None:
        tracer.attach(sim)
    rng = np.random.default_rng(seed)
    setup = build_single_hop_path(sim, 10e6, utilization, rng)
    if tracer is not None:
        tracer.register_network(setup.network)
    chan = ProbeChannel(sim, setup.network, fast=fast)
    if tcp_at is not None:
        open_connection(
            sim, setup.network, total_bytes=150_000, start=tcp_at, fast=tcp_fast
        )
    report = run_pathload(
        sim, setup.network, start=2.0, channel=chan, time_limit=600.0
    )
    stats = [lk.stats.snapshot() for lk in setup.network.forward_links]
    return report, stats, chan


# ----------------------------------------------------------------------
# Bit equality on eligible configurations
# ----------------------------------------------------------------------
class TestBitEquality:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(hops=1),
            dict(hops=3),
            dict(hops=2, buffer_bytes=4_000, rate_bps=9.5e6),
            dict(utilization=0.5),
            dict(utilization=0.7, buffer_bytes=15_000),
            dict(hops=2, jitter_prob=0.3),
            dict(utilization=0.4, jitter_prob=0.2, skewed_clocks=True),
            dict(hops=1, skewed_clocks=True, rate_bps=12e6),
        ],
        ids=[
            "idle-1hop",
            "idle-3hop",
            "droptail-2hop",
            "cross-0.5",
            "cross-0.7-finite",
            "jitter-2hop",
            "cross-jitter-skew",
            "overload-skew",
        ],
    )
    def test_streams_bit_identical(self, kwargs):
        mf, sf, _, chf, _ = run_streams(True, **kwargs)
        ms, ss, _, chs, _ = run_streams(False, **kwargs)
        assert mf == ms
        assert sf == ss
        assert chf.fastpath_streams == len(mf)
        assert not chf.fastpath_fallbacks
        assert chs.fastpath_streams == 0
        assert chs.fastpath_fallbacks.get("disabled") == len(ms)

    def test_pathload_report_bit_identical(self):
        rf, sf, chf = run_quick_pathload(True)
        rs, ss, _ = run_quick_pathload(False)
        assert rf == rs
        assert sf == ss
        assert chf.fastpath_streams == rf.n_streams_sent
        assert not chf.fastpath_fallbacks

    def test_per_packet_foreground_flow_keeps_elision(self):
        # A fast=False TCP flow started before the first stream sends
        # per-packet through the stream's hops all along; the domain's
        # cap-bounded walk is exact beside it, so streams stay elided.
        kwargs = dict(
            tcp_at=1.50007, tcp_bytes=30_000_000, tcp_fast=False,
            n_streams=2, utilization=0.3,
        )
        mf, sf, _, chan, _ = run_streams(True, **kwargs)
        assert chan.fastpath_streams == 2
        assert not chan.fastpath_fallbacks
        assert chan.network._ft_flows == 0
        ms, ss, _, _, _ = run_streams(False, **kwargs)
        assert mf == ms and sf == ss

    def test_mid_stream_monitor_read_uses_interleaved_fold(self):
        # Reads landing inside the stream window are real events, so they
        # split the domain's walk into rounds: each read must see the
        # per-packet queue state.  Off the send grid (multiples of the
        # 0.3 ms period), as any real configuration's reads are.
        times = (2.0051234, 2.0087071, 2.0123777)
        mf, sf, bf, _, _ = run_streams(
            True, utilization=0.6, monitor_at=times, n_streams=2
        )
        ms, ss, bs, _, _ = run_streams(
            False, utilization=0.6, monitor_at=times, n_streams=2
        )
        assert bf == bs
        assert len(bf) == len(times)
        assert mf == ms
        assert sf == ss


# ----------------------------------------------------------------------
# Piecewise-constant capacity schedules (Section VI dynamics)
# ----------------------------------------------------------------------
class TestCapacitySchedule:
    # Boundaries off the 0.3 ms probe-send grid, straddling the first
    # stream's ~17.7 ms window so the plan crosses rate changes mid-walk.
    SEGMENTS = ((2.00312345, 6e6), (2.00921234, 14e6))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(hops=1),
            dict(hops=2),
            dict(utilization=0.5),
            dict(hops=1, buffer_bytes=4_000, rate_bps=9.5e6),
            dict(utilization=0.6, buffer_bytes=15_000),
        ],
        ids=["idle-1hop", "idle-2hop", "cross-0.5", "droptail", "cross-finite"],
    )
    def test_scheduled_link_bit_identical(self, kwargs):
        kwargs = dict(kwargs, cap_install=(1.0, self.SEGMENTS))
        mf, sf, _, chf, _ = run_streams(True, **kwargs)
        ms, ss, _, chs, _ = run_streams(False, **kwargs)
        assert mf == ms
        assert sf == ss
        # The domain walk hoists one rate per hop, so a scheduled link
        # takes the per-packet path, which prices each start exactly.
        assert chf.fastpath_streams == 0
        assert chf.fastpath_fallbacks == {"link-config": len(mf)}
        assert chs.fastpath_streams == 0

    def test_scheduled_link_shadow_verify_passes(self):
        mf, sf, _, chf, _ = run_streams(
            True, utilization=0.5, sanitize=True,
            cap_install=(1.0, self.SEGMENTS),
        )
        mu, su, _, _, _ = run_streams(
            True, utilization=0.5, cap_install=(1.0, self.SEGMENTS)
        )
        assert (mf, sf) == (mu, su)
        assert chf.fastpath_fallbacks == {"link-config": len(mf)}

    def test_install_mid_stream_revokes_then_matches(self):
        # Installing a schedule while a stream is in the domain is a
        # planning chokepoint: the domain dissolves (its walk assumed one
        # rate per hop), rewinding the stream onto the per-packet path.
        segments = ((2.00791234, 6e6), (2.01321234, 14e6))
        kwargs = dict(
            utilization=0.4, cap_install=(2.00512345, segments)
        )
        mf, sf, _, chf, _ = run_streams(True, **kwargs)
        ms, ss, _, _, _ = run_streams(False, **kwargs)
        assert mf == ms
        assert sf == ss
        assert chf.fastpath_fallbacks.get("link-decommission") == 1


# ----------------------------------------------------------------------
# Planning refusals (fallback before the stream starts)
# ----------------------------------------------------------------------
class TestRefusal:
    def test_disabled_channel_counts_fallbacks(self):
        _, _, _, chan, _ = run_streams(False, n_streams=2)
        assert chan.fast is False
        assert chan.fastpath_fallbacks == {"disabled": 2}

    def test_no_fast_env_disables_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FAST", "1")
        sim = Simulator()
        net = build_path(sim, [LinkSpec(10e6)])
        assert ProbeChannel(sim, net).fast is False
        monkeypatch.delenv("REPRO_NO_FAST")
        assert ProbeChannel(sim, net).fast is True

    def test_qdisc_forces_per_packet(self):
        mf, sf, _, chan, _ = run_streams(True, hops=2, qdisc_hop=1, n_streams=2)
        assert chan.fastpath_streams == 0
        assert chan.fastpath_fallbacks == {"link-config": 2}
        ms, ss, _, _, _ = run_streams(False, hops=2, qdisc_hop=1, n_streams=2)
        assert mf == ms and sf == ss

    def test_impure_clock_forces_per_packet(self):
        def clocks(sim):
            return NoisyClock(np.random.default_rng(5), noise_max=2e-6), None

        _, _, _, chan, _ = run_streams(True, clocks=clocks, n_streams=2)
        assert chan.fastpath_streams == 0
        assert chan.fastpath_fallbacks == {"impure-clock": 2}



# ----------------------------------------------------------------------
# Mid-stream revocation (fallback after the plan is installed)
# ----------------------------------------------------------------------
class TestRevocation:
    @pytest.mark.parametrize("tcp_at", [2.0123457, 2.0300003])
    def test_tcp_attach_mid_stream(self, tcp_at):
        # A TCP flow starting mid-stream (off-grid instant) attaches to the
        # stream's domain: the walk carries both from then on, nothing
        # falls back, and every observable matches.
        kwargs = dict(
            tcp_at=tcp_at, n_streams=1, n_packets=200, buffer_bytes=25_000,
            utilization=0.3,
        )
        mf, sf, _, chan, _ = run_streams(True, **kwargs)
        assert chan.fastpath_streams == 1
        assert not chan.fastpath_fallbacks
        assert chan.network._ft_flows == 1
        ms, ss, _, _, _ = run_streams(False, **kwargs)
        assert mf == ms
        assert sf == ss

    def test_pathload_with_tcp_crossfire(self):
        # A per-packet crossfire flow sends through the domain's hops
        # between rounds: the cap-bounded walk stays exact, so every
        # stream is elided and the report is ==.
        rf, sf, chf = run_quick_pathload(True, tcp_at=2.01003, tcp_fast=False)
        rs, ss, _ = run_quick_pathload(False, tcp_at=2.01003, tcp_fast=False)
        assert rf == rs and sf == ss
        assert chf.fastpath_streams == rf.n_streams_sent
        assert not chf.fastpath_fallbacks

    def test_deadline_finalize_with_drops(self):
        # A stream over its own tiny drop-tail buffer: the closing packet
        # can be dropped, so the deadline event finalizes, and straggler
        # commit order (strict < at the deadline) must match per-packet.
        kwargs = dict(
            buffer_bytes=1_200, rate_bps=14e6, n_packets=80, n_streams=2
        )
        mf, sf, _, _, _ = run_streams(True, **kwargs)
        ms, ss, _, _, _ = run_streams(False, **kwargs)
        assert mf == ms
        assert sf == ss
        # The scenario actually exercises loss.
        assert any(m[1] < m[0] for m in mf)


# ----------------------------------------------------------------------
# Observability: tracing, digests, counters
# ----------------------------------------------------------------------
class TestObservability:
    def test_traced_report_equals_untraced(self, monkeypatch):
        from repro.netsim import flowtransit
        from repro.obs import Tracer

        tracer = Tracer(light=True)
        rt, st, _ = run_quick_pathload(True, tracer=tracer)
        ru, su, _ = run_quick_pathload(True)
        assert rt == ru
        assert st == su
        streams = tracer.metrics.counter("repro_fastpath_streams_total")
        assert streams.value == rt.n_streams_sent
        # A full tracer wants every per-packet callback: streams take the
        # per-packet path with reason "tracer", and the report is ==.
        monkeypatch.setattr(flowtransit, "_warned_tracer", True)  # silence
        rf, sf, chf = run_quick_pathload(True, tracer=Tracer())
        assert rf == ru and sf == su
        assert chf.fastpath_streams == 0
        assert chf.fastpath_fallbacks == {"tracer": rf.n_streams_sent}

    def test_traced_digest_reproducible_within_mode(self):
        from repro.obs import Tracer

        t1, t2 = Tracer(), Tracer()
        r1, _, _ = run_quick_pathload(True, tracer=t1)
        r2, _, _ = run_quick_pathload(True, tracer=t2)
        assert r1 == r2
        assert t1.event_digest() == t2.event_digest()

    def test_fallback_counter_labels(self):
        from repro.obs import Tracer

        tracer = Tracer()
        sim = Simulator()
        tracer.attach(sim)
        net = build_path(sim, [LinkSpec(10e6, prop_delay=1e-3)])
        chan = ProbeChannel(sim, net, fast=False)
        holder = {}
        spec = StreamSpec(rate_bps=8e6, packet_size=300, n_packets=10)
        sim.schedule_at(1.0, lambda: holder.update(ev=chan.send_stream(spec)))
        sim.run(until=1.0)
        sim.run_until(holder["ev"], limit=10.0)
        fallback = tracer.metrics.counter(
            "repro_fastpath_fallback_total", labels={"reason": "disabled"}
        )
        assert fallback.value == 1


# ----------------------------------------------------------------------
# Sanitize mode: shadow verification
# ----------------------------------------------------------------------
class TestSanitize:
    def test_digest_reproducible_in_fast_mode(self):
        # Digests are compared within a mode only (events are elided
        # relative to per-packet, so cross-mode digests differ by design).
        _, _, _, _, sim1 = run_streams(True, utilization=0.5, sanitize=True)
        _, _, _, _, sim2 = run_streams(True, utilization=0.5, sanitize=True)
        assert sim1.digest() == sim2.digest()

    def test_sanitize_verifies_every_stream_round(self, monkeypatch):
        from repro.netsim.flowtransit import FlowTransitDomain

        calls = []
        verify = FlowTransitDomain._verify_round

        def counting(self, snaps):
            calls.append(len(snaps))
            return verify(self, snaps)

        monkeypatch.setattr(FlowTransitDomain, "_verify_round", counting)
        checked = run_streams(True, utilization=0.5, sanitize=True)
        assert len(calls) >= len(checked[0])
        plain = run_streams(True, utilization=0.5)
        assert checked[:2] == plain[:2]

    def test_shadow_detects_planner_corruption(self, monkeypatch):
        from repro.netsim.flowtransit import FlowTransitDomain

        # A hop sweep that leaves the transmitter clock one nanosecond
        # off must fail the round's replay of its admission log.
        sweep_hop = FlowTransitDomain._sweep_hop

        def corrupted(self, vl, ts, ix, size):
            out = sweep_hop(self, vl, ts, ix, size)
            vl.free_at += 1e-9
            return out

        monkeypatch.setattr(FlowTransitDomain, "_sweep_hop", corrupted)
        with pytest.raises(SimulationError, match="flow-transit shadow check"):
            run_streams(True, utilization=0.5, sanitize=True, n_streams=1)
