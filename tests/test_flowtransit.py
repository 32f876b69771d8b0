"""Equivalence tests for the event-elided TCP flow transit.

The flow-transit domain's contract mirrors the stream fast path's: bit
identity, with ``==`` and never ``approx``.  Every sender/receiver
observable — sequence state, cwnd trajectory, RTT estimator internals,
delivery log, link statistics — must equal what the per-packet path
produces on every eligible configuration, because the domain walks the
same per-hop Lindley recursion in the same floating-point order.
Ineligible flows (Vegas is carried with its real transport code under
the domain's shims, tracer-attached runs are refused) and mid-flight
eligibility breaks (link decommission while an RTO timer is pending)
must land on a sample path identical to a run that never planned.

The headline regression here is intrusiveness (paper Section VII /
figs 17-18): concurrent SLoPS probe streams ride the same domain walk as
the foreground TCP flows.  A solo stream is a domain with zero flows, so
a flow starting mid-stream joins it, and per-packet traffic beside a
domain (a ``fast=False`` flow, a pinger) refuses nothing.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.probing import StreamSpec
from repro.netsim import LinkSpec, Simulator, build_path
from repro.netsim.engine import SimulationError
from repro.netsim.flowtransit import FlowTransitDomain
from repro.netsim.qdisc import REDQueue
from repro.netsim.topologies import build_single_hop_path
from repro.transport.ping import Pinger
from repro.transport.probe import ProbeChannel
from repro.transport.tcp import TCPConfig, open_connection


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def flow_state(snd, rcv):
    """Every observable a TCP connection exposes, as an ``==``-able tuple."""
    return (
        snd.snd_una,
        snd.snd_nxt,
        snd.cwnd,
        snd.ssthresh,
        snd.srtt,
        snd.rttvar,
        snd.rto,
        snd.base_rtt,
        snd.segments_sent,
        snd.retransmits,
        snd.timeouts,
        tuple(snd.cwnd_log),
        rcv.rcv_nxt,
        rcv.acks_sent,
        tuple(rcv.delivered_log),
        tuple(sorted(rcv._out_of_order.items())),
    )


def run_flow(
    fast,
    cc="reno",
    delayed_ack=False,
    buffer_bytes=None,
    hops=1,
    utilization=0.0,
    total_bytes=600_000,
    until=30.0,
    sanitize=False,
    min_rto=0.5,
    seed=7,
    n_streams=0,
    stream_start=0.05,
    mutate_at=None,
    mutate=None,
    second_flow_at=None,
):
    """One TCP transfer (plus optional concurrent probe streams)."""
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
    cfg = TCPConfig(
        congestion_control=cc, delayed_ack=delayed_ack, min_rto=min_rto
    )
    snd, rcv = open_connection(
        sim, net, config=cfg, total_bytes=total_bytes, start=0.0, fast=fast
    )
    flows = [(snd, rcv)]
    if second_flow_at is not None:
        snd2, rcv2 = open_connection(
            sim,
            net,
            config=cfg,
            total_bytes=total_bytes // 2,
            start=second_flow_at,
            fast=fast,
        )
        flows.append((snd2, rcv2))
    chan = None
    measurements = []
    if n_streams:
        chan = ProbeChannel(sim, net, fast=fast)
        spec = StreamSpec(rate_bps=4e6, packet_size=300, n_packets=40)

        def launch(i):
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

        for i in range(n_streams):
            sim.schedule_at(stream_start + 0.0513 * i, launch, i)
    if mutate_at is not None:
        sim.schedule_at(mutate_at, mutate, net)
    sim.run(until=until)
    states = tuple(flow_state(s, r) for s, r in flows)
    stats = tuple(lk.stats.snapshot() for lk in net.forward_links)
    return states, stats, measurements, net, chan


MATRIX = [
    # (cc, delayed_ack, buffer_bytes, hops, utilization)
    ("reno", False, None, 1, 0.0),
    ("reno", False, None, 2, 0.0),
    ("reno", False, 25_000, 1, 0.0),  # finite buffer: loss recovery + RTO
    ("reno", False, 25_000, 1, 0.3),  # ... plus cross traffic
    ("reno", True, None, 1, 0.0),  # delayed ack: receiver off-kernel
    ("reno", True, 25_000, 1, 0.3),
    ("vegas", False, None, 1, 0.0),  # Vegas: sender off-kernel
    ("vegas", True, 25_000, 1, 0.3),
]


# ----------------------------------------------------------------------
# The bit-equality matrix
# ----------------------------------------------------------------------
class TestEquality:
    @pytest.mark.parametrize("cc,delack,buf,hops,util", MATRIX)
    def test_flow_matrix(self, cc, delack, buf, hops, util):
        kwargs = dict(
            cc=cc, delayed_ack=delack, buffer_bytes=buf, hops=hops,
            utilization=util,
        )
        stf, sf, _, netf, _ = run_flow(True, **kwargs)
        sts, ss, _, _, _ = run_flow(False, **kwargs)
        assert stf == sts
        assert sf == ss
        assert netf._ft_flows == 1

    def test_two_planned_flows_share_domain(self):
        kwargs = dict(total_bytes=300_000, second_flow_at=0.31003)
        stf, sf, _, netf, _ = run_flow(True, **kwargs)
        sts, ss, _, _, _ = run_flow(False, **kwargs)
        assert stf == sts
        assert sf == ss
        assert netf._ft_flows == 2

    def test_sanitize_shadow_verification_passes(self):
        st1, s1, _, _, _ = run_flow(True, sanitize=True, utilization=0.3)
        st2, s2, _, _, _ = run_flow(True, sanitize=False, utilization=0.3)
        assert st1 == st2 and s1 == s2

    def test_corrupted_admission_is_caught_under_sanitize(self, monkeypatch):
        # A walk admission that leaves the hop's transmitter clock off by
        # one nanosecond must fail the round's replay of its admission log.
        admit = FlowTransitDomain._admit

        def corrupted(self, vl, t, size):
            done = admit(self, vl, t, size)
            if done is not None:
                vl.free_at = done + 1e-9
            return done

        monkeypatch.setattr(FlowTransitDomain, "_admit", corrupted)
        with pytest.raises(SimulationError, match="flow-transit shadow check"):
            run_flow(True, sanitize=True, hops=2, total_bytes=100_000)

    def test_flow_spans_recorded(self):
        _, _, _, net, _ = run_flow(True, total_bytes=100_000)
        assert len(net._ft_spans) == 1
        t0, t1, flow_id, segments = net._ft_spans[0]
        assert t1 > t0 and segments > 0


# ----------------------------------------------------------------------
# Probe coexistence (the figs 17-18 intrusiveness fix)
# ----------------------------------------------------------------------
class TestProbeCoexistence:
    def test_probe_not_refused_while_flow_planned(self):
        # With the foreground flow in the domain, probe streams are
        # adopted into the same walk, not refused.
        kwargs = dict(n_streams=3, utilization=0.3, total_bytes=2_000_000)
        stf, sf, mf, netf, chf = run_flow(True, **kwargs)
        assert chf.fastpath_streams == 3
        assert "foreground-active" not in chf.fastpath_fallbacks
        assert netf._ft_flows == 1
        sts, ss, ms, _, chs = run_flow(False, **kwargs)
        assert stf == sts
        assert sf == ss
        assert mf == ms

    def test_per_packet_flow_keeps_probe_elision(self):
        # A flow that genuinely runs per-packet (fast=False) sends through
        # the hops of a zero-flow domain carrying the stream; the walk is
        # exact beside it, so the stream stays elided and matches ==.
        def run(fast):
            sim = Simulator()
            setup = build_single_hop_path(
                sim, 10e6, 0.3, np.random.default_rng(7)
            )
            net = setup.network
            snd, rcv = open_connection(
                sim, net, config=TCPConfig(min_rto=0.5),
                total_bytes=2_000_000, start=0.0, fast=False,
            )
            chan = ProbeChannel(sim, net, fast=fast)
            spec = StreamSpec(rate_bps=4e6, packet_size=300, n_packets=40)
            out = []
            sim.schedule_at(
                0.05,
                lambda: chan.send_stream(spec).add_callback(
                    lambda m: out.append(
                        tuple((r.seq, r.sender_stamp, r.recv_stamp) for r in m.records)
                    )
                ),
            )
            sim.run(until=5.0)
            return out, flow_state(snd, rcv), chan, net

        outf, stf, chf, netf = run(True)
        outs, sts, _, _ = run(False)
        assert outf == outs
        assert stf == sts
        assert chf.fastpath_streams == 1
        assert not chf.fastpath_fallbacks
        assert netf._ft_flows == 0

    def test_flow_attach_joins_solo_stream_domain(self):
        # A solo stream is a domain with zero flows; a TCP flow starting
        # mid-stream attaches to that same domain, nothing falls back, and
        # the sample path still matches per-packet exactly.
        def run(fast):
            sim = Simulator()
            net = build_path(sim, [LinkSpec(10e6, prop_delay=1e-3)])
            chan = ProbeChannel(sim, net, fast=fast)
            spec = StreamSpec(rate_bps=4e6, packet_size=300, n_packets=200)
            out = []
            def launch():
                ev = chan.send_stream(spec)
                ev.add_callback(
                    lambda m: out.append(
                        tuple(
                            (r.seq, r.sender_stamp, r.recv_stamp)
                            for r in m.records
                        )
                    )
                )
            sim.schedule_at(1.0, launch)
            snd, rcv = open_connection(
                sim, net, config=TCPConfig(min_rto=0.5),
                total_bytes=200_000, start=1.0123457, fast=fast,
            )
            sim.run(until=10.0)
            return out, flow_state(snd, rcv), chan, net
        outf, stf, chf, netf = run(True)
        outs, sts, _, _ = run(False)
        assert outf == outs
        assert stf == sts
        assert chf.fastpath_streams == 1
        assert not chf.fastpath_fallbacks
        assert netf._ft_flows == 1


# ----------------------------------------------------------------------
# Mid-flight revocation
# ----------------------------------------------------------------------
class TestRevocation:
    def test_link_decommission_dissolves_domain(self):
        # Installing a qdisc mid-transfer (with segments in virtual
        # flight and an RTO timer pending) must dissolve the domain onto
        # the per-packet path with an unchanged sample path.
        def mutate(net):
            net.forward_links[0].qdisc = REDQueue(
                1 << 29, 1 << 30, np.random.default_rng(3)
            )

        kwargs = dict(
            total_bytes=2_000_000, mutate_at=0.2000123, mutate=mutate
        )
        stf, sf, _, netf, _ = run_flow(True, **kwargs)
        sts, ss, _, _, _ = run_flow(False, **kwargs)
        assert stf == sts
        assert netf._ft_flows == 1
        assert netf._ft_fallbacks == {"link-decommission": 1}

    def test_decommission_with_adopted_streams(self):
        def mutate(net):
            net.forward_links[0].qdisc = REDQueue(
                1 << 29, 1 << 30, np.random.default_rng(3)
            )

        kwargs = dict(
            total_bytes=2_000_000, utilization=0.3, n_streams=3,
            mutate_at=0.1070123, mutate=mutate,
        )
        stf, sf, mf, netf, chf = run_flow(True, **kwargs)
        sts, ss, ms, _, _ = run_flow(False, **kwargs)
        assert stf == sts
        assert sf == ss
        assert mf == ms
        assert netf._ft_fallbacks == {"link-decommission": 1}

    def test_stop_detaches_cleanly(self):
        def run(fast):
            sim = Simulator()
            net = build_path(sim, [LinkSpec(10e6, prop_delay=1e-3)])
            snd, rcv = open_connection(
                sim, net, config=TCPConfig(min_rto=0.5),
                total_bytes=10_000_000, start=0.0, fast=fast,
            )
            sim.schedule_at(1.5000123, snd.stop)
            sim.run(until=5.0)
            return flow_state(snd, rcv)

        assert run(True) == run(False)

    def test_capacity_schedule_refuses_attach(self):
        # The virtual-link walk hoists one capacity per hop, so a link
        # with a pre-installed piecewise schedule refuses flow planning
        # outright — the per-packet path handles the rate changes
        # exactly.
        def run(fast):
            sim = Simulator()
            net = build_path(sim, [LinkSpec(10e6, prop_delay=1e-3)])
            net.forward_links[0].set_capacity_segments(
                [(0.5000789, 6e6), (0.9000456, 12e6)]
            )
            snd, rcv = open_connection(
                sim, net, config=TCPConfig(min_rto=0.5),
                total_bytes=2_000_000, start=0.0, fast=fast,
            )
            sim.run(until=30.0)
            return flow_state(snd, rcv), net

        stf, netf = run(True)
        sts, _ = run(False)
        assert stf == sts
        assert netf._ft_flows == 0
        assert netf._ft_fallbacks == {"capacity-schedule": 1}

    def test_capacity_schedule_install_dissolves_domain(self):
        # Installing a schedule mid-transfer is a planning chokepoint
        # like rebinding deliver: the domain dissolves onto the
        # per-packet path with an unchanged sample path.
        def mutate_install(net):
            net.forward_links[0].set_capacity_segments(
                [(0.5000789, 6e6), (0.9000456, 12e6)]
            )

        kwargs = dict(
            total_bytes=2_000_000, mutate_at=0.2000123, mutate=mutate_install
        )
        stf, sf, _, netf, _ = run_flow(True, **kwargs)
        sts, ss, _, _, _ = run_flow(False, **kwargs)
        assert stf == sts
        assert sf == ss
        assert netf._ft_flows == 1
        assert netf._ft_fallbacks == {"link-decommission": 1}


# ----------------------------------------------------------------------
# Figure-level regression: the Section VII point run
# ----------------------------------------------------------------------
class TestFigurePointRun:
    def test_fig15_point_run_bit_identical(self, monkeypatch):
        # The full figs 15-16 testbed — BTC intervals, window-limited
        # background flows, pinger, MRTG monitor — must report the same
        # rows whether its TCP rides the planner or the per-packet path.
        from repro.experiments.fig15_16_btc import _simulate

        monkeypatch.delenv("REPRO_NO_FAST", raising=False)
        rows_fast = _simulate(seed=150, interval=12.0)
        monkeypatch.setenv("REPRO_NO_FAST", "1")
        rows_slow = _simulate(seed=150, interval=12.0)
        assert rows_fast == rows_slow

    def test_fig17_point_run_bit_identical(self, monkeypatch):
        # Figs 17-18: pathload streams adopted into the domain among the
        # Reno flows, with the 10 Hz pinger sending through the flows' hops
        # all along.  Same rows on the planned and the per-packet path.
        from repro.experiments.fig17_18_intrusiveness import _simulate

        monkeypatch.delenv("REPRO_NO_FAST", raising=False)
        rows_fast = _simulate(seed=170, interval=12.0)
        monkeypatch.setenv("REPRO_NO_FAST", "1")
        rows_slow = _simulate(seed=170, interval=12.0)
        assert rows_fast == rows_slow


# ----------------------------------------------------------------------
# Link state at arbitrary real instants
# ----------------------------------------------------------------------
def observed_link_state(
    buffer_bytes, utilization, n_flows, ping_interval, instants, streams=()
):
    """Reno flows, probe streams sent at ``streams`` (possibly
    overlapping) and a pinger on one hop (``buffer_bytes=None``: an
    infinite buffer); at each of ``instants`` a real event reads every
    link's stats, backlog and transmitter clock."""
    sim = Simulator()
    if utilization > 0.0:
        setup = build_single_hop_path(
            sim, 10e6, utilization, np.random.default_rng(11),
            buffer_bytes=buffer_bytes,
        )
        net = setup.network
    else:
        net = build_path(
            sim, [LinkSpec(10e6, prop_delay=0.01, buffer_bytes=buffer_bytes)]
        )
    cfg = TCPConfig(min_rto=0.5)
    flows = [
        open_connection(
            sim, net, config=cfg, total_bytes=400_000, start=0.0371 * i
        )
        for i in range(n_flows)
    ]
    Pinger(sim, net, interval=ping_interval, start=0.0123)
    chan = ProbeChannel(sim, net)
    spec = StreamSpec(rate_bps=4e6, packet_size=300, n_packets=40)
    received = []
    for t in streams:
        sim.schedule_at(
            t,
            lambda: chan.send_stream(spec).add_callback(
                lambda m: received.append(
                    tuple((r.seq, r.sender_stamp, r.recv_stamp) for r in m.records)
                )
            ),
        )
    links = (*net.forward_links, *net.reverse_links)
    samples = []

    def observe():
        for lk in links:
            samples.append(
                (
                    sim.now,
                    lk.name,
                    lk.stats.snapshot(),
                    lk.backlog_bytes(),
                    lk._free_at,
                )
            )

    for t in instants:
        sim.schedule_at(t, observe)
    sim.run(until=3.0)
    flow_states = tuple(flow_state(s, r) for s, r in flows)
    return samples, (flow_states, received), net, chan


class TestObservedLinkState:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        buffer_bytes=st.sampled_from([None, 12_000, 40_000]),
        utilization=st.sampled_from([0.0, 0.4]),
        n_flows=st.integers(0, 2),
        ping_interval=st.sampled_from([0.05, 0.1003]),
        instants=st.lists(
            st.floats(0.001, 2.999, allow_nan=False), min_size=1, max_size=8
        ),
        streams=st.lists(
            st.floats(0.01, 2.5, allow_nan=False), min_size=0, max_size=3
        ),
    )
    def test_reads_equal_per_packet(
        self, buffer_bytes, utilization, n_flows, ping_interval, instants,
        streams,
    ):
        args = (buffer_bytes, utilization, n_flows, ping_interval, instants, streams)
        samples_fast, out_fast, net, chan = observed_link_state(*args)
        assert net._ft_flows == n_flows
        assert chan.fastpath_streams == len(streams)
        with mock.patch.dict(os.environ, {"REPRO_NO_FAST": "1"}):
            samples_slow, out_slow, _, _ = observed_link_state(*args)
        assert samples_fast == samples_slow
        assert out_fast == out_slow
