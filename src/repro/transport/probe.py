"""UDP probe endpoints over the simulated network.

This is the simulation-backed implementation of the pathload transport: a
sender process that injects a periodic stream of UDP packets (timestamping
each with the *sender host's clock*), a receiver that records arrivals with
*its* clock, and a completion/timeout protocol that ships the measurement
back to the sender over the reverse path — the role played by pathload's
TCP control connection.

Host imperfections are explicit and optional:

* :class:`SendJitter` models context switches at the sender — occasional
  one-sided delays added to a packet's transmission instant.  The sender
  timestamps the *actual* send time, so the receiver can detect rate
  deviations from the sender-stamp gaps, exactly as the real tool does.
* Sender/receiver clocks may be any :class:`~repro.netsim.clock.Clock`
  (offset, skew, noise); SLoPS verdicts must be invariant to offset and to
  realistic skew, and the test suite checks that.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from ..core.pathload import PathloadController, PathloadReport
from ..core.probing import Idle, PacketRecord, SendStream, StreamMeasurement, StreamSpec
from ..netsim.clock import Clock, PerfectClock
from ..netsim.engine import Event, Process, Simulator
from ..netsim.fastpath import resolve_fast
from ..netsim.packet import Packet, PacketKind
from ..netsim.path import PathNetwork
from ..netsim.streamtransit import plan_stream

__all__ = ["SendJitter", "ProbeChannel", "drive_controller", "run_pathload"]


class SendJitter:
    """Context-switch model: with probability ``prob`` per packet, the send
    is delayed by ``Uniform(0, max_delay)`` seconds (one-sided)."""

    def __init__(self, rng: np.random.Generator, prob: float = 0.0, max_delay: float = 0.0):
        if not 0 <= prob <= 1:
            raise ValueError(f"prob must be in [0,1], got {prob}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.rng = rng
        self.prob = prob
        self.max_delay = max_delay

    def sample(self) -> float:
        """Extra delay for one packet send."""
        if self.prob <= 0 or self.max_delay <= 0:
            return 0.0
        if self.rng.random() >= self.prob:
            return 0.0
        return float(self.rng.uniform(0.0, self.max_delay))


class _StreamRun:
    """Bookkeeping for one in-flight stream (internal)."""

    __slots__ = (
        "spec",
        "flow_id",
        "records",
        "n_sent",
        "t_start",
        "done",
        "schedule",
        "plan",
        "deadline",
    )

    def __init__(self, spec: StreamSpec, flow_id: str, t_start: float):
        self.spec = spec
        self.flow_id = flow_id
        self.records: list[PacketRecord] = []
        self.n_sent = 0
        self.t_start = t_start
        self.done = False
        #: sorted ``(send_time, seq)`` pairs — all jitter drawn up front
        self.schedule: list[tuple[float, int]] = []
        #: StreamPlan while the flow-transit domain carries this stream
        self.plan = None
        #: the scheduled deadline finalize; cancelled if the stream
        #: finalizes before it
        self.deadline = None


class ProbeChannel:
    """Sender/receiver pair for periodic UDP probe streams.

    Parameters
    ----------
    network:
        The path to probe (forward direction).
    sender_clock / receiver_clock:
        Host clocks used for timestamps; default perfect clocks.
    jitter:
        Optional :class:`SendJitter` applied to each packet send.
    control_delay:
        Latency for the receiver's measurement report to reach the sender;
        defaults to half the path's queueing-free RTT.
    fast:
        Whether eligible streams ride the flow-transit domain
        (:mod:`repro.netsim.streamtransit`) — a virtual walk instead of
        one event per packet per hop, bit-identical results.  ``None``
        (default) enables it unless the environment sets
        ``REPRO_NO_FAST=1``.
    """

    def __init__(
        self,
        sim: Simulator,
        network: PathNetwork,
        sender_clock: Optional[Clock] = None,
        receiver_clock: Optional[Clock] = None,
        jitter: Optional[SendJitter] = None,
        control_delay: Optional[float] = None,
        fast: Optional[bool] = None,
    ):
        self.sim = sim
        self.network = network
        self.sender_clock = sender_clock if sender_clock is not None else PerfectClock()
        self.receiver_clock = (
            receiver_clock if receiver_clock is not None else PerfectClock()
        )
        self.jitter = jitter
        self.control_delay = (
            control_delay if control_delay is not None else network.min_rtt() / 2.0
        )
        self.fast = resolve_fast(fast)
        #: cumulative probe traffic accounting (intrusiveness studies)
        self.packets_sent = 0
        self.bytes_sent = 0
        #: streams carried by the flow-transit domain / per-packet fallbacks
        self.fastpath_streams = 0
        self.fastpath_fallbacks: dict[str, int] = {}
        # Cached tracer: the nil path costs one None-check per stream.
        self._tracer = sim.tracer
        # Per-channel stream ids: flow labels (and hence trace tracks) are
        # reproducible run-to-run instead of leaking a process-global count.
        self._stream_ids = itertools.count()

    # ------------------------------------------------------------------
    # Stream transmission
    # ------------------------------------------------------------------
    def send_stream(self, spec: StreamSpec) -> Event:
        """Send one periodic stream; the returned event triggers with its
        :class:`StreamMeasurement` once the receiver's report is back."""
        run = _StreamRun(spec, f"probe-{next(self._stream_ids)}", self.sim.now)
        done = self.sim.event()
        t0 = self.sim.now
        if self._tracer is not None:
            self._tracer.instant(
                t0,
                "stream",
                "send",
                track=run.flow_id,
                args={
                    "rate_bps": spec.rate_bps,
                    "n_packets": spec.n_packets,
                    "packet_size": spec.packet_size,
                    "period": spec.period,
                },
            )
        # All context-switch jitter is drawn up front, in sequence order —
        # exactly the draws (and draw order) the K-upfront-events scheduler
        # made — and the send order is the sorted (time, seq) sequence the
        # event heap would have popped, ties included.
        jitter = self.jitter
        period = spec.period
        if jitter is not None:
            schedule = sorted(
                (t0 + seq * period + jitter.sample(), seq)
                for seq in range(spec.n_packets)
            )
        else:
            schedule = [(t0 + seq * period, seq) for seq in range(spec.n_packets)]
        run.schedule = schedule
        plan = None
        if self.fast:
            plan, reason = plan_stream(self, run, done)
            if plan is None:
                self._note_fallback(reason)
            else:
                self.fastpath_streams += 1
                if self._tracer is not None:
                    self._tracer.metrics.counter(
                        "repro_fastpath_streams_total",
                        help="probe streams carried by the analytic "
                        "stream-transit fast path",
                    ).inc()
        else:
            self._note_fallback("disabled")
        if self._tracer is not None and spec.n_packets:
            self._tracer.metrics.counter(
                "repro_probe_packets_total",
                labels={"path": "elided" if plan is not None else "per-packet"},
                help="probe packets by transit path at send time",
            ).inc(spec.n_packets)
        if plan is None and schedule:
            # Per-packet path: one self-rescheduling sender callback — a
            # single outstanding heap entry per in-flight stream, not K.
            self.sim.schedule_at(schedule[0][0], self._send_next, run, 0, done)
        # Deadline: everything should have drained well before
        # last send + slack; stragglers after it count as lost.
        slack = (
            2.0 * self.network.min_rtt(spec.packet_size)
            + spec.n_packets * spec.packet_size * 8.0 / self.network.capacity_bps
            + 0.05
        )
        run.deadline = self.sim.schedule_at(
            t0 + spec.duration + slack, self._finalize, run, done
        )
        return done

    def _send_next(self, run: _StreamRun, i: int, done: Event) -> None:
        schedule = run.schedule
        seq = schedule[i][1]
        i += 1
        if i < len(schedule):
            # Reschedule before injecting: send events then sort ahead of
            # same-instant delivery events, as the K-upfront order did.
            self.sim.schedule_at(schedule[i][0], self._send_next, run, i, done)
        now = self.sim.now
        pkt = Packet(
            run.spec.packet_size,
            flow_id=run.flow_id,
            seq=seq,
            kind=PacketKind.PROBE,
            created_at=now,
            sender_stamp=self.sender_clock.read(now),
        )
        run.n_sent += 1
        self.packets_sent += 1
        self.bytes_sent += pkt.size
        self.network.send_forward(pkt, lambda p, run=run, done=done: self._on_arrival(run, p, done))

    def _note_fallback(self, reason: str) -> None:
        """Count one per-packet fallback, by reason."""
        counts = self.fastpath_fallbacks
        counts[reason] = counts.get(reason, 0) + 1
        if self._tracer is not None:
            self._tracer.metrics.counter(
                "repro_fastpath_fallback_total",
                labels={"reason": reason},
                help="probe streams that took the per-packet path, by reason",
            ).inc()

    def _fast_complete(self, run: _StreamRun, done: Event) -> None:
        """Walked delivery of the stream-closing packet (seq K-1).

        Commits every walked record delivered up to and including now —
        later deliveries are stragglers, lost exactly as on the
        per-packet path — then finalizes.
        """
        if run.done:
            return
        plan = run.plan
        if plan is not None:
            plan.commit(self.sim.now, inclusive=True)
        self._finalize(run, done)

    def _on_arrival(self, run: _StreamRun, pkt: Packet, done: Event) -> None:
        if run.done:
            return  # straggler after finalization: counted as lost
        run.records.append(
            PacketRecord(
                seq=pkt.seq,
                sender_stamp=pkt.sender_stamp,
                recv_stamp=self.receiver_clock.read(self.sim.now),
            )
        )
        if pkt.seq == run.spec.n_packets - 1:
            # FIFO path ⇒ the last packet is the last arrival.
            self._finalize(run, done)

    def _finalize(self, run: _StreamRun, done: Event) -> None:
        if run.done:
            return
        plan = run.plan
        if plan is not None:
            # Strictly-before commit (a no-op after _fast_complete's): on a
            # deadline finalize, a walked delivery at exactly the deadline
            # instant pops *after* the deadline event (which was inserted
            # at stream start) on the per-packet path, so it is
            # straggler-lost there — and therefore here.
            plan.commit(self.sim.now, inclusive=False)
            run.plan = None
            plan.domain.finish_stream(plan)
        run.done = True
        # A finalized stream's deadline would be a no-op; cancelling it
        # keeps it from bounding the next stream's flow-transit rounds.
        run.deadline.cancel()
        measurement = StreamMeasurement(
            spec=run.spec,
            records=run.records,
            n_sent=max(run.n_sent, run.spec.n_packets),
            t_start=run.t_start,
        )
        # The receiver reports back over the (uncongested) reverse path.
        report_at = self.sim.now + self.control_delay
        measurement.t_end = report_at
        if self._tracer is not None:
            self._tracer.span(
                run.t_start,
                report_at,
                "stream",
                "stream",
                track=run.flow_id,
                args={
                    "rate_bps": run.spec.rate_bps,
                    "n_sent": measurement.n_sent,
                    "n_received": len(run.records),
                },
            )
        self.sim.schedule_at(report_at, done.trigger, measurement)


# ----------------------------------------------------------------------
# Controller driving
# ----------------------------------------------------------------------
def drive_controller(
    sim: Simulator, controller: PathloadController, channel: ProbeChannel
) -> Process:
    """Run a pathload controller as a simulation process.

    The returned process's ``done_event`` triggers with the final
    :class:`~repro.core.pathload.PathloadReport`.
    """

    def _proc():
        gen = controller.run()
        try:
            action = next(gen)
            while True:
                if isinstance(action, SendStream):
                    measurement = yield channel.send_stream(action.spec)
                    action = gen.send(measurement)
                elif isinstance(action, Idle):
                    if action.duration > 0:
                        yield action.duration
                    action = gen.send(None)
                else:  # pragma: no cover - controller contract guard
                    raise TypeError(f"unexpected controller action {action!r}")
        except StopIteration as stop:
            return stop.value

    return sim.process(_proc(), name="pathload-driver")


def run_pathload(
    sim: Simulator,
    network: PathNetwork,
    config=None,
    rtt: Optional[float] = None,
    start: float = 0.0,
    channel: Optional[ProbeChannel] = None,
    time_limit: Optional[float] = None,
    fast: Optional[bool] = None,
) -> PathloadReport:
    """Convenience wrapper: start pathload at ``start`` and run the
    simulation until it reports.

    Other simulation activity (cross traffic, monitors) proceeds normally
    while the measurement runs.  ``time_limit`` guards against a
    non-converging setup in tests.
    """
    if channel is None:
        channel = ProbeChannel(sim, network, fast=fast)
    controller = PathloadController(
        config=config,
        rtt=rtt if rtt is not None else network.min_rtt(),
        tracer=sim.tracer,
    )
    holder: dict = {}

    def _kickoff() -> None:
        holder["process"] = drive_controller(sim, controller, channel)

    sim.schedule_at(start, _kickoff)
    sim.run(until=start)
    process: Process = holder["process"]
    return sim.run_until(process.done_event, limit=time_limit)
