"""The flow-transit domain: event-elided TCP flows and probe streams.

Background cross traffic is event-elided by the bulk-arrivals path
(:mod:`repro.netsim.bulkarrivals`).  What remains on the hot path of
every experiment is foreground traffic: each probe
packet and each TCP segment costs one event per hop plus its endpoint
callbacks.  A *domain* is a per-network virtual event loop that carries
every attached TCP flow and every probe stream with cheap tuples on a
private heap instead of engine events.  A solo probe stream is simply a
domain with zero flows.  The core loop is the per-hop Lindley recursion
``start = max(arrival, free_at); done = start + size*8/C`` of the
paper's path model (Section III-A), merged against each hop's
:class:`~repro.netsim.bulkarrivals.CrossAggregator` arrays, with exact
drop-tail replay on finite buffers.  Feedback traffic (data -> ack ->
cwnd growth -> more data) interleaves by walking the virtual heap in
timestamp order; a round that carries one lone probe stream and nothing
else sweeps it hop by hop instead (:meth:`FlowTransitDomain._sweep`),
with the vector kernel on long infinite-buffer hops.

Correctness rests on one invariant — the **cap-bounded walk**:

* Virtual events are processed only up to ``cap = min(next real engine
  event, the active ``run(until=...)`` bound, now + horizon)``.  No real
  callback can therefore observe — or interfere with — virtual state
  that lies in its own future; there is no speculation and no rollback.
* While attached, the domain *owns* its links' queue state (it is each
  link's ``_owner``): the walk admits straight into the link's in-flight
  deque and ``LinkStats``, folds the cross arrivals it passes exactly
  once, and writes the transmitter clock, backlog and cross cursor back
  at the end of every round.  Every walked admission lies before the
  next real event, so at any real sync point — a foreign ``Link.send``
  (ping, per-packet cross, a per-packet flow or stream), a monitor's
  ``stats`` read, a backlog query — the link already holds the
  per-packet path's state, and the ordinary cross-only ``Link.sync``
  brings it to the present.  The domain is therefore exact beside
  per-packet traffic and needs no claim on the network.
* Flow state (cwnd, RTT estimators, receiver buffers) is mutated
  directly on the real ``TCPSender``/``TCPReceiver`` objects while their
  ``sim``/``network`` attributes are shimmed; because of the cap
  invariant, any real read at a run boundary sees exactly the per-packet
  values.

Reno flows without delayed ACKs run through inlined transmit/ack kernels
(bit-identical mirrors of ``TCPSender._process_new_ack``/``_try_send``
and ``TCPReceiver.on_segment``); everything else — Vegas, delayed ACKs,
recovery episodes, RTO — executes the *real* transport code under the
shims, so there is exactly one implementation of the tricky parts.

Fallback: :func:`transit_refusal` is the one eligibility rule for flows
and streams (full tracer, impure stream clocks, a hook/qdisc/rebound
deliver or a capacity schedule on any link); refused traffic takes the
per-packet path.  A mid-flight ineligibility (link decommission, a
capacity schedule installed, a full tracer attached) *dissolves* the
domain — every in-flight virtual packet materializes as an ordinary
engine event at its already-committed time, flows return to the
per-packet path, adopted streams rewind their unsent suffix — so the
sample path equals a never-planned run.  ``Simulator(sanitize=True)``
replays every round's admission log per hop from the round-start
snapshot and raises on any divergence.
"""

from __future__ import annotations

import heapq
import math
import warnings
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from ..core.probing import PacketRecord
from . import kernels
from .engine import SimulationError
from .fastpath import resolve_fast
from .packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..transport.tcp import TCPSender

__all__ = [
    "FlowTransitDomain",
    "FLOW_FALLBACK_REASONS",
    "StreamPlan",
    "domain_of",
    "transit_refusal",
    "try_attach_flow",
]

#: Every reason ``repro_fastpath_flow_fallback_total`` may carry, for
#: declared-but-zero metric export (docs/observability.md).
FLOW_FALLBACK_REASONS: tuple[str, ...] = (
    "disabled",
    "tracer",
    "link-config",
    "link-decommission",
    "capacity-schedule",
)

_INF = float("inf")

_stat_counts = attrgetter(
    "bytes_forwarded", "packets_forwarded", "bytes_dropped", "packets_dropped"
)

# One warning per process: a full tracer silently costing the flow-transit
# fast path is the single most surprising perf cliff in a traced run.
_warned_tracer = False


def _warn_tracer_fallback() -> None:
    global _warned_tracer
    if not _warned_tracer:
        _warned_tracer = True
        warnings.warn(
            "a full tracer forces TCP flows and probe streams onto the "
            "per-packet path (reason 'tracer' in the repro_fastpath_*"
            "fallback_total counters); use a light tracer (--trace-light / "
            "Tracer(light=True)) to keep the flow-transit fast path while "
            "collecting aggregate telemetry",
            RuntimeWarning,
            stacklevel=3,
        )

#: Maximum virtual lookahead per round when no real event bounds the walk.
#: A persistent (BTC) flow is self-sustaining — data begets acks begets
#: data — so an unbounded walk would never return; per-packet ``run()``
#: with such a flow never terminates either, and the horizon preserves
#: that equivalence round by round instead of hanging inside one round.
_HORIZON = 64.0

# Virtual event kinds (tuple tag at index 2; index 1 is a unique sequence
# so heap comparisons never reach the payload).
K_ADMIT = 0  # (t, q, K_ADMIT, links, hop, size, tail): arrival at links[hop]
K_DATA = 1  # (t, q, K_DATA, fs, seq, length): segment delivery at receiver
K_ACK = 2  # (t, q, K_ACK, fs, ack): cumulative-ACK delivery at sender
K_TIMER = 3  # (t, q, K_TIMER, vt): shimmed sim.schedule() callback
K_XMIT = 4  # (t, q, K_XMIT, links, size, tail): out-of-walk send at t
K_SSEND = 5  # (t, q, K_SSEND, plan, i): probe-stream send of schedule index i
K_SDELIV = 6  # (t, q, K_SDELIV, plan, i): probe packet i delivery at receiver


class _VTimer:
    """Virtual-heap stand-in for a :class:`ScheduledCall` (lazy cancel)."""

    __slots__ = ("time", "fn", "args", "cancelled", "q", "pending")

    def __init__(self, time, fn, args):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        # RTO timers the ack kernel creates stay off the heap (pending=True,
        # with their would-have-been heap tiebreak in ``q``) until either
        # the walk clock reaches them or the walk ends; almost all are
        # cancelled by the next ack before ever touching the heap.
        self.q = 0
        self.pending = False

    def cancel(self) -> None:
        self.cancelled = True


class _VSim:
    """``sim`` shim installed on attached endpoints.

    ``now`` reads the walk's virtual clock while a round is in progress
    and the real clock otherwise; ``schedule``/``schedule_at`` land on
    the domain's virtual heap as :class:`_VTimer` entries.
    """

    __slots__ = ("domain",)

    def __init__(self, domain):
        self.domain = domain

    @property
    def now(self):
        d = self.domain
        return d._vnow if d._walking else d.sim._now

    def schedule(self, delay, fn, *args):
        d = self.domain
        t = (d._vnow if d._walking else d.sim._now) + delay
        return d._vtimer(t, fn, args)

    def schedule_at(self, time, fn, *args):
        return self.domain._vtimer(time, fn, args)


class _FlowVNet:
    """``network`` shim installed on attached endpoints: sends become
    virtual hop admissions instead of real ``Link.send`` calls."""

    __slots__ = ("domain", "fs")

    def __init__(self, domain, fs):
        self.domain = domain
        self.fs = fs

    def send_forward(self, pkt, handler) -> bool:
        fs = self.fs
        self.domain._send(fs.fwdv, pkt.size, (K_DATA, fs, pkt.seq, pkt.payload))
        return True

    def send_reverse(self, pkt, handler) -> bool:
        fs = self.fs
        self.domain._send(fs.revv, pkt.size, (K_ACK, fs, pkt.seq))
        return True


class _VLink:
    """One link's queue state as the walk sees it.

    ``infl`` *is* the link's ``_in_flight`` deque and admissions add to
    its ``LinkStats`` directly; the transmitter clock, backlog and cross
    cursor are cached here for the walk — re-read at every round's start
    (after ``link.sync()``) and written back at its end.  ``log`` holds
    the round's ``(t, size, accepted, done)`` admissions under
    ``Simulator(sanitize=True)`` only.
    """

    __slots__ = (
        "link",
        "stats",
        "cap",
        "prop",
        "buffer_bytes",
        "agg",
        "free_at",
        "backlog",
        "infl",
        "vci",
        "log",
    )

    def __init__(self, link):
        self.link = link
        self.stats = link._stats
        self.infl = link._in_flight
        self.log = None


class _FlowState:
    """Domain-side bookkeeping for one attached TCP flow."""

    __slots__ = (
        "sender",
        "receiver",
        "fwdv",
        "revv",
        "hdr",
        "ack_size",
        "flow_id",
        "tx_kernel",
        "rx_kernel",
        "vnet",
        "user_on_complete",
        "completing",
        "detached",
        "t0",
        "seg0",
        # kernel-cached config (config objects are not mutated mid-flow)
        "mss",
        "adv",
        "min_rto",
        "max_rto",
    )


class StreamPlan:
    """One probe stream carried by a flow-transit domain.

    Holds the stream's schedule and clocks for the walk, the receiver
    records it produced in delivery order, and the rewind state a
    dissolve needs.  Records are *committed* into the live ``_StreamRun``
    at finalize time (or at a rewind), so straggler accounting matches
    the per-packet path exactly.
    """

    __slots__ = (
        "domain",
        "channel",
        "run",
        "done",
        "sched",
        "n",
        "size",
        "fwdv",
        "sweepable",
        "sender_read",
        "receiver_read",
        "resume_i",
        "records",
        "rec_times",
        "_committed",
        "complete_call",
    )

    def __init__(self, domain, channel, run, done):
        self.domain = domain
        self.channel = channel
        self.run = run
        self.done = done
        sched = run.schedule
        self.sched = sched
        self.n = n = run.spec.n_packets
        self.size = run.spec.packet_size
        vls = domain._vl
        self.fwdv = fwdv = tuple(vls[link] for link in channel.network.forward_links)
        # A lone-stream round may sweep hop by hop only when the closing
        # packet is the last one sent (so its delivery is the stream's
        # last event) and no hop repeats (so hops hold independent state).
        self.sweepable = sched[-1][1] == n - 1 and len(set(fwdv)) == len(fwdv)
        self.sender_read = channel.sender_clock.read
        self.receiver_read = channel.receiver_clock.read
        self.resume_i = None
        self.records: list = []
        self.rec_times: list[float] = []
        self._committed = 0
        self.complete_call = None

    def commit(self, limit: float, inclusive: bool) -> None:
        """Append walked records with delivery time up to ``limit``.

        ``inclusive`` matches the per-packet event order at the boundary:
        the stream-closing arrival commits itself (<=), while the
        deadline event — inserted at stream start, hence popped first on
        an exact tie — cuts strictly (<).
        """
        times = self.rec_times
        p = self._committed
        if inclusive:
            q = bisect_right(times, limit, p)
        else:
            q = bisect_left(times, limit, p)
        if q > p:
            self.run.records.extend(self.records[p:q])
            self._committed = q

    def retire_or_revoke(self, reason: str) -> None:
        """Dissolve seam: a virtually complete stream (its closing
        delivery already walked, the completion event pending) simply
        retires — that event commits and finalizes it; any other stream
        is rewound onto the per-packet path."""
        if self.complete_call is None:
            self.revoke(reason)

    def revoke(self, reason: str) -> None:
        """Rewind onto the per-packet path after a dissolve.

        The dissolving domain has already materialized every in-flight
        packet as an engine event (and recorded in ``resume_i`` the first
        schedule index it had not sent); this commits the records
        delivered up to now and resumes the self-rescheduling sender at
        its precomputed send times, so jitter draws are not repeated and
        the sample path equals a run that never planned.
        """
        channel = self.channel
        sim = channel.sim
        run = self.run
        self.commit(sim._now, inclusive=True)
        run.plan = None
        channel._note_fallback(reason)
        i0 = self.resume_i if self.resume_i is not None else self.n
        if i0 < self.n:
            unsent = self.n - i0
            run.n_sent -= unsent
            channel.packets_sent -= unsent
            channel.bytes_sent -= unsent * self.size
            sim.schedule_at(self.sched[i0][0], channel._send_next, run, i0, self.done)


class FlowTransitDomain:
    """The per-network virtual event loop carrying flows and streams."""

    __slots__ = (
        "sim",
        "network",
        "links",
        "alive",
        "flows",
        "streams",
        "vsim",
        "_vheap",
        "_vseq",
        "_vnow",
        "_limit",
        "_walking",
        "_vl",
        "_round_call",
        "_pmin",
    )

    def __init__(self, sim, network):
        self.sim = sim
        self.network = network
        self.alive = True
        self.flows: list[_FlowState] = []
        self.streams: list[StreamPlan] = []
        self.vsim = _VSim(self)
        self._vheap: list = []
        self._vseq = 0
        self._vnow = sim._now
        self._limit = 0.0
        self._walking = False
        self._round_call = None
        self._pmin = _INF
        # One virtual link per distinct link (forward and reverse may share
        # hops in exotic topologies; dedupe preserves order).
        links = tuple(dict.fromkeys((*network.forward_links, *network.reverse_links)))
        self.links = links
        self._vl = {}
        for link in links:
            link._owner = self
            self._vl[link] = _VLink(link)

    # ------------------------------------------------------------------
    # Virtual scheduling
    # ------------------------------------------------------------------
    def _vtimer(self, time, fn, args) -> _VTimer:
        vt = _VTimer(time, fn, args)
        self._vseq = q = self._vseq + 1
        heapq.heappush(self._vheap, (time, q, K_TIMER, vt))
        if not self._walking:
            self._kick(time)
        return vt

    def _send(self, vlinks, size, tail) -> None:
        if self._walking:
            self._hop_admit(vlinks, 0, self._vnow, size, tail)
        else:
            # Out-of-walk send (e.g. the initial burst from ``start()``):
            # defer admission into a round at the same instant, so it is
            # computed against freshly synced link state.
            t = self.sim._now
            self._vseq = q = self._vseq + 1
            heapq.heappush(self._vheap, (t, q, K_XMIT, vlinks, size, tail))
            self._kick(t)

    def _defer(self, fn, *args):
        """Schedule ``fn`` as a *real* event at the walk's current instant
        and lower the walk limit so it runs before any later virtual work."""
        t = self._vnow
        call = self.sim.schedule_at(t, fn, *args)
        if t < self._limit:
            self._limit = t
        return call

    def _kick(self, t: float) -> None:
        if not self.alive or self._walking:
            return
        rc = self._round_call
        if rc is not None and not rc.cancelled:
            if rc.time <= t:
                return
            rc.cancel()
        self._round_call = self.sim.schedule_at(t, self._round)

    # ------------------------------------------------------------------
    # The Lindley admission core
    # ------------------------------------------------------------------
    def _fold_cross(self, vl: _VLink, t: float) -> None:
        """Fold cross arrivals <= ``t`` into ``vl``'s queue state, winning
        exact ties, with the same per-arrival purge, drop-tail decision
        and stats ``Link.sync`` applies."""
        agg = vl.agg
        if agg._horizon < t:
            agg.extend_until(t)
        times = agg.times
        ci = vl.vci
        if ci >= times.shape[0] or times[ci] > t:
            return
        cut = int(times.searchsorted(t, side="right"))
        free_at = vl.free_at
        backlog = vl.backlog
        infl = vl.infl
        stats = vl.stats
        cap = vl.cap
        buffer_bytes = vl.buffer_bytes
        if (
            buffer_bytes is None
            and cut - ci >= kernels.MIN_BATCH
            and kernels.enabled(self.sim.vector)
        ):
            # Infinite buffer: the whole slice folds unconditionally, so
            # the vector Lindley kernel applies.  The scalar loop's final
            # state is "every entry completing after the last folded
            # arrival, plus the purge/backlog that implies" — exactly the
            # kernel's ``keep_after = tc_last`` contract.
            tc_last = float(times[cut - 1])
            ts, ss = agg.arrays(ci, cut)
            folded = kernels.fold_slice(free_at, ts, ss, cap, tc_last, True)
            if folded is not None:
                free_at, kept, kept_bytes, fold_bytes = folded
                while infl and infl[0][0] <= tc_last:
                    backlog -= infl.popleft()[1]
                infl.extend(kept)
                stats.bytes_forwarded += fold_bytes
                stats.packets_forwarded += cut - ci
                vl.vci = cut
                vl.free_at = free_at
                vl.backlog = backlog + kept_bytes
                return
        fwd_bytes = drop_bytes = drop_pkts = 0
        for tc, sz in zip(times[ci:cut].tolist(), agg.sizes[ci:cut].tolist()):
            while infl and infl[0][0] <= tc:
                backlog -= infl.popleft()[1]
            if buffer_bytes is not None and backlog + sz > buffer_bytes:
                drop_bytes += sz
                drop_pkts += 1
            else:
                start = free_at if free_at > tc else tc
                free_at = start + sz * 8.0 / cap
                infl.append((free_at, sz))
                backlog += sz
                fwd_bytes += sz
        stats.bytes_forwarded += fwd_bytes
        stats.packets_forwarded += cut - ci - drop_pkts
        if drop_pkts:
            stats.bytes_dropped += drop_bytes
            stats.packets_dropped += drop_pkts
        vl.vci = cut
        vl.free_at = free_at
        vl.backlog = backlog

    def _admit(self, vl: _VLink, t: float, size: int) -> Optional[float]:
        """Admit ``size`` bytes at ``vl`` at time ``t``; return the
        transmission-complete time, or ``None`` on a drop-tail drop.

        The accounting ``Link.send`` performs for a packet sent at ``t``:
        cross arrivals <= t first (winning exact ties), the in-flight
        purge, the drop-tail decision, then the admission and its stats.
        """
        if vl.agg is not None:
            self._fold_cross(vl, t)
        backlog = vl.backlog
        infl = vl.infl
        while infl and infl[0][0] <= t:
            backlog -= infl.popleft()[1]
        stats = vl.stats
        buffer_bytes = vl.buffer_bytes
        if buffer_bytes is not None and backlog + size > buffer_bytes:
            vl.backlog = backlog
            stats.bytes_dropped += size
            stats.packets_dropped += 1
            if vl.log is not None:
                vl.log.append((t, size, False, 0.0))
            return None
        free_at = vl.free_at
        start = free_at if free_at > t else t
        done = start + size * 8.0 / vl.cap
        infl.append((done, size))
        vl.free_at = done
        vl.backlog = backlog + size
        stats.bytes_forwarded += size
        stats.packets_forwarded += 1
        if vl.log is not None:
            vl.log.append((t, size, True, done))
        return done

    def _hop_admit(self, vlinks, hop: int, t: float, size: int, tail) -> None:
        vl = vlinks[hop]
        done = self._admit(vl, t, size)
        if done is None:
            return  # dropped: the packet silently vanishes, as on a real path
        t_out = done + vl.prop
        self._vseq = q = self._vseq + 1
        hop += 1
        if hop < len(vlinks):
            heapq.heappush(self._vheap, (t_out, q, K_ADMIT, vlinks, hop, size, tail))
        else:
            heapq.heappush(self._vheap, (t_out, q) + tail)

    # ------------------------------------------------------------------
    # The round: read link state, walk, write it back, reschedule
    # ------------------------------------------------------------------
    def _round(self) -> None:
        self._round_call = None
        if not self.alive:
            return
        sim = self.sim
        tracer = sim.tracer
        if tracer is not None and not tracer.light:
            # A full tracer wants per-event visibility; hand everything
            # back.  Light tracers only buffer aggregate counters, so the
            # domain keeps walking (docs/observability.md).
            _warn_tracer_fallback()
            self.dissolve("tracer")
            return
        vheap = self._vheap
        heappop = heapq.heappop
        while vheap and vheap[0][2] == K_TIMER and vheap[0][3].cancelled:
            heappop(vheap)
        if not vheap:
            self._maybe_retire()
            return
        now = sim._now
        head = sim.peek_time()
        cap = head if head is not None else _INF
        until = sim._until
        if until is not None and until < cap:
            cap = until
        h = now + _HORIZON
        if h < cap:
            cap = h
        t0 = vheap[0][0]
        if t0 > now and t0 >= cap:
            self._round_call = sim.schedule_at(t0, self._round)
            return
        lone = self._lone_stream()
        if lone is None:
            vls = self._vl.values()
            snaps = self._load(vls, True)
        else:
            # The sweep folds every cross arrival it passes itself, those
            # due by now included, so its links need no sync first.
            vls = lone.fwdv
            snaps = self._load(vls, False)
        self._walking = True
        self._vnow = now
        self._limit = cap
        try:
            if lone is not None:
                self._sweep(lone, now)
            else:
                self._walk(now)
        finally:
            if self._pmin < _INF:
                self._flush_pending()
            self._walking = False
            for vl in vls:
                link = vl.link
                link._free_at = vl.free_at
                link._backlog_bytes = vl.backlog
                if vl.agg is not None:
                    vl.agg.idx = vl.vci
        if snaps is not None:
            self._verify_round(snaps)
        if not self.alive:
            return
        while vheap and vheap[0][2] == K_TIMER and vheap[0][3].cancelled:
            heappop(vheap)
        if vheap:
            self._round_call = sim.schedule_at(vheap[0][0], self._round)
        else:
            self._maybe_retire()

    def _load(self, vls, sync: bool):
        """Read ``vls``' queue state for a round (syncing their links first
        when ``sync``); return the round-start snapshots under sanitize,
        else None."""
        snaps = [] if self.sim._sanitize else None
        for vl in vls:
            link = vl.link
            if sync:
                link.sync()
            vl.cap = link.capacity_bps
            vl.prop = link.prop_delay
            vl.buffer_bytes = link.buffer_bytes
            vl.free_at = link._free_at
            vl.backlog = link._backlog_bytes
            agg = link._agg
            vl.agg = agg
            if agg is not None:
                # The walk's folds advance the cursor without compacting
                # (the shadow check slices by index), so trim here.
                agg.compact()
                vl.vci = agg.idx
            else:
                vl.vci = 0
            if snaps is not None:
                vl.log = []
                snaps.append(
                    (
                        vl,
                        vl.free_at,
                        vl.backlog,
                        tuple(vl.infl),
                        vl.vci,
                        _stat_counts(vl.stats),
                    )
                )
        return snaps

    def _walk(self, now: float) -> None:
        """Pop the virtual heap in timestamp order up to the round limit."""
        vheap = self._vheap
        heappop = heapq.heappop
        ev_ack = self._ev_ack
        ev_data = self._ev_data
        while True:
            if vheap:
                ev = vheap[0]
                t = ev[0]
            else:
                ev = None
                t = _INF
            if self._pmin <= t:
                if self._pmin == _INF:
                    break  # heap empty, no timers postponed
                # A postponed RTO timer is due at or before the head
                # event; surface it with its original tiebreak so the
                # heap restores exact eager-push dispatch order.
                self._flush_pending()
                continue
            if ev is None or (t > now and t >= self._limit):
                break
            heappop(vheap)
            k = ev[2]
            self._vnow = t
            if k == K_ACK:
                ev_ack(t, ev[3], ev[4])
            elif k == K_DATA:
                ev_data(t, ev[3], ev[4], ev[5])
            elif k == K_TIMER:
                vt = ev[3]
                if not vt.cancelled:
                    vt.fn(*vt.args)
            elif k == K_ADMIT:
                self._hop_admit(ev[3], ev[4], t, ev[5], ev[6])
            elif k == K_XMIT:
                self._hop_admit(ev[3], 0, t, ev[4], ev[5])
            elif k == K_SSEND:
                self._ev_ssend(t, ev[3], ev[4])
            else:  # K_SDELIV
                self._ev_sdeliv(t, ev[3], ev[4])

    # ------------------------------------------------------------------
    # The lone-stream hop sweep
    # ------------------------------------------------------------------
    def _lone_stream(self) -> Optional[StreamPlan]:
        """The stream this round may sweep hop by hop, or None.

        A round qualifies when it carries no flow and no postponed timer,
        exactly one stream whose closing packet is sent last, and nothing
        on the heap but that stream's events.  Its hops then hold
        independent state and its closing delivery is its last event, so
        walking each hop to the round limit in turn is the heap walk.
        """
        if self.flows or self._pmin < _INF or len(self.streams) != 1:
            return None
        plan = self.streams[0]
        if not plan.sweepable:
            return None
        for ev in self._vheap:
            k = ev[2]
            if k == K_ADMIT:
                if ev[6][1] is not plan:
                    return None
            elif k == K_TIMER or k == K_XMIT or ev[3] is not plan:
                return None
        return plan

    def _sweep(self, plan: StreamPlan, now: float) -> None:
        """Walk ``plan``'s packets hop by hop up to the round limit.

        Each hop admits, in time order, the arrivals the heap walk would
        have popped this round: the pending ones carried over from earlier
        rounds, then this round's exits of the previous hop (FIFO hops keep
        that concatenation sorted).  Arrivals at or beyond the limit go
        back on the heap as the events the heap walk would have left.
        """
        limit = self._limit
        vheap = self._vheap
        fwdv = plan.fwdv
        nh = len(fwdv)
        sched = plan.sched
        size = plan.size
        # Carried-over arrivals per hop; index nh holds receiver deliveries.
        pend: list[list] = [[] for _ in range(nh + 1)]
        send = None
        for ev in vheap:
            k = ev[2]
            if k == K_SSEND:
                send = ev
            elif k == K_ADMIT:
                pend[ev[4]].append(ev)
            else:  # K_SDELIV
                pend[nh].append(ev)
        vheap.clear()  # in place: the round holds an alias
        # An arrival is walked when at or before now, or before the limit.
        late = limit if limit > now else math.nextafter(now, _INF)
        ts: list[float] = []
        ix: list[int] = []
        if send is not None:
            i0 = send[4]
            i1 = bisect_left(sched, (late,), i0)
            if i1 < plan.n:
                if i1 == i0:
                    vheap.append(send)
                else:
                    self._vseq = q = self._vseq + 1
                    vheap.append((sched[i1][0], q, K_SSEND, plan, i1))
            ts = [t for t, _seq in sched[i0:i1]]
            ix = list(range(i0, i1))
        for h in range(nh + 1):
            carried = pend[h]
            if carried:
                carried.sort()
                c_t = [ev[0] for ev in carried]
                k = bisect_left(c_t, late)
                vheap.extend(carried[k:])
                if h < nh:
                    c_i = [ev[6][2] for ev in carried[:k]]
                else:
                    c_i = [ev[4] for ev in carried[:k]]
                if ts:
                    # This round's exits of the previous hop come after
                    # every carried arrival (FIFO), so carried ones lead.
                    ts = c_t[:k] + ts
                    ix = c_i + ix
                else:
                    ts = c_t[:k]
                    ix = c_i
            if not ts:
                continue
            k = bisect_left(ts, late)
            if k < len(ts):
                vseq = self._vseq
                if h < nh:
                    for t, i in zip(ts[k:], ix[k:]):
                        vseq += 1
                        vheap.append(
                            (t, vseq, K_ADMIT, fwdv, h, size, (K_SDELIV, plan, i))
                        )
                else:
                    for t, i in zip(ts[k:], ix[k:]):
                        vseq += 1
                        vheap.append((t, vseq, K_SDELIV, plan, i))
                self._vseq = vseq
                del ts[k:]
                del ix[k:]
                if not ts:
                    continue
            if h < nh:
                ts, ix = self._sweep_hop(fwdv[h], ts, ix, size)
                continue
            # The receiver: what _ev_sdeliv does per delivery.
            records_append = plan.records.append
            sender_read = plan.sender_read
            receiver_read = plan.receiver_read
            for t, i in zip(ts, ix):
                s, seq = sched[i]
                records_append(
                    PacketRecord(
                        seq=seq,
                        sender_stamp=sender_read(s),
                        recv_stamp=receiver_read(t),
                    )
                )
            plan.rec_times.extend(ts)
            if sched[ix[-1]][1] == plan.n - 1:
                # The closing delivery, the stream's last event (sweep
                # condition), is necessarily the last one walked.
                self._vnow = ts[-1]
                plan.complete_call = self._defer(
                    plan.channel._fast_complete, plan.run, plan.done
                )
        heapq.heapify(vheap)

    def _sweep_hop(self, vl: _VLink, ts: list, ix: list, size: int):
        """Admit one hop's sorted stream arrivals ``ts`` (schedule indices
        ``ix``) with the cross arrivals they pass; return the accepted
        packets' exit times and indices.

        The same accounting :meth:`_admit` performs per arrival: cross
        arrivals first on exact-time ties, the in-flight purge, the
        drop-tail decision, the admission and its stats.  Infinite
        buffers defer the purge to the hop's last arrival ``t_end``
        (nothing can drop, and completion times are monotone on a FIFO
        link), and fold long hops with :func:`kernels.plan_hop`.
        """
        t_end = ts[-1]
        agg = vl.agg
        ci = vl.vci
        cn = 0
        if agg is not None:
            if agg._horizon < t_end:
                agg.extend_until(t_end)
            times = agg.times
            if ci < times.shape[0] and times[ci] <= t_end:
                cn = int(times[ci:].searchsorted(t_end, side="right"))
        free_at = vl.free_at
        backlog = vl.backlog
        infl = vl.infl
        cap = vl.cap
        prop = vl.prop
        tx = size * 8.0 / cap
        log = vl.log
        buffer_bytes = vl.buffer_bytes
        n = len(ts)
        fwd_bytes = fwd_pkts = drop_bytes = drop_pkts = 0
        if buffer_bytes is None:
            planned = None
            big_enough = (
                cn + n >= kernels.MIN_BATCH if cn else n >= kernels.MIN_PROBES
            )
            if big_enough and kernels.enabled(self.sim.vector):
                ct, cs = agg.arrays(ci, ci + cn) if cn else (None, None)
                planned = kernels.plan_hop(
                    free_at, ct, cs, ts, size, cap, t_end, prop, True
                )
            if planned is not None:
                dones, xt, kept, free_at, fwd_bytes = planned
            else:
                dones = []
                xt = []
                kept = []
                kept_append = kept.append
                dones_append = dones.append
                xt_append = xt.append
                if not cn:
                    # No cross arrivals due on this hop: only the probes'
                    # own spacing matters — the bare Lindley chain.
                    for t in ts:  # simlint: vector-safe
                        start = free_at if free_at > t else t
                        free_at = start + tx
                        if free_at > t_end:
                            kept_append((free_at, size))
                        dones_append(free_at)
                        xt_append(free_at + prop)
                else:
                    c_times = agg.times[ci:ci + cn].tolist()
                    c_sizes = agg.sizes[ci:ci + cn].tolist()
                    k = 0
                    for t in ts:  # simlint: vector-safe
                        while k < cn:
                            tc = c_times[k]
                            if tc > t:
                                break
                            sz = c_sizes[k]
                            start = free_at if free_at > tc else tc
                            free_at = start + sz * 8.0 / cap
                            if free_at > t_end:
                                kept_append((free_at, sz))
                            fwd_bytes += sz
                            k += 1
                        start = free_at if free_at > t else t
                        free_at = start + tx
                        if free_at > t_end:
                            kept_append((free_at, size))
                        dones_append(free_at)
                        xt_append(free_at + prop)
                fwd_bytes += size * n
            fwd_pkts = cn + n
            while infl and infl[0][0] <= t_end:
                backlog -= infl.popleft()[1]
            infl.extend(kept)
            for _, sz in kept:
                backlog += sz
            if log is not None:
                log.extend(zip(ts, repeat(size), repeat(True), dones))
            xi = ix
        else:
            # Exact drop-tail replay: per-arrival purge, cross folded
            # first on exact-time ties, then the probe's own admission.
            xt = []
            xi = []
            if cn:
                c_times = agg.times[ci:ci + cn].tolist()
                c_sizes = agg.sizes[ci:ci + cn].tolist()
            k = 0
            for t, i in zip(ts, ix):
                while k < cn:
                    tc = c_times[k]
                    if tc > t:
                        break
                    sz = c_sizes[k]
                    while infl and infl[0][0] <= tc:
                        backlog -= infl.popleft()[1]
                    if backlog + sz > buffer_bytes:
                        drop_bytes += sz
                        drop_pkts += 1
                    else:
                        start = free_at if free_at > tc else tc
                        free_at = start + sz * 8.0 / cap
                        infl.append((free_at, sz))
                        backlog += sz
                        fwd_bytes += sz
                        fwd_pkts += 1
                    k += 1
                while infl and infl[0][0] <= t:
                    backlog -= infl.popleft()[1]
                if backlog + size > buffer_bytes:
                    drop_bytes += size
                    drop_pkts += 1
                    if log is not None:
                        log.append((t, size, False, 0.0))
                else:
                    start = free_at if free_at > t else t
                    free_at = start + tx
                    infl.append((free_at, size))
                    backlog += size
                    fwd_bytes += size
                    fwd_pkts += 1
                    if log is not None:
                        log.append((t, size, True, free_at))
                    xt.append(free_at + prop)
                    xi.append(i)
        stats = vl.stats
        stats.bytes_forwarded += fwd_bytes
        stats.packets_forwarded += fwd_pkts
        if drop_pkts:
            stats.bytes_dropped += drop_bytes
            stats.packets_dropped += drop_pkts
        vl.vci = ci + cn
        vl.free_at = free_at
        vl.backlog = backlog
        return xt, xi

    def _flush_pending(self) -> None:
        """Move live postponed RTO timers onto the virtual heap.

        Each carries the tiebreak ``q`` it was assigned at creation, so
        once pushed the heap pops it exactly where an eager push would
        have; cancelled ones (the overwhelmingly common case — the next
        ack kills them) are simply dropped without ever touching the heap.
        The ``_pmin`` watermark is stale-low: it may name a cancelled
        timer, in which case this flush is a no-op that resets it.
        """
        vheap = self._vheap
        for fs in self.flows:
            vt = fs.sender._rto_timer
            if type(vt) is _VTimer and vt.pending:
                vt.pending = False
                if not vt.cancelled:
                    heapq.heappush(vheap, (vt.time, vt.q, K_TIMER, vt))
        self._pmin = _INF

    # ------------------------------------------------------------------
    # TCP kernels (bit-identical inlines of the transport hot path)
    # ------------------------------------------------------------------
    def _ev_ack(self, t: float, fs: _FlowState, ack: int) -> None:
        snd = fs.sender
        if snd._stopped or snd._completed:
            return
        if not (fs.tx_kernel and not snd.in_recovery and ack > snd.snd_una):
            # Dup-acks, recovery episodes, Vegas, traced flows: run the
            # real transport code under the shims.
            pkt = Packet(fs.ack_size, flow_id=fs.flow_id, seq=ack, kind=PacketKind.ACK)
            snd.on_ack(pkt)
            return
        # Inline of _process_new_ack (non-recovery reno) + the on_ack tail.
        mss = fs.mss
        infl = snd._in_flight
        srtt = snd.srtt
        rttvar = snd.rttvar
        rto = snd.rto
        # _in_flight insertion order is ascending seq (new sends are
        # monotone, retransmits update in place, RTO clears the dict), so
        # the sorted() walk in _process_new_ack is a prefix pop here.
        while infl:
            for seq0 in infl:  # cheap "first key" (ascending-order dict)
                break
            if seq0 >= ack:
                break
            sent_at = infl.pop(seq0)
            if sent_at is not None:  # Karn: retransmitted segments map to None
                sample = t - sent_at
                base = snd.base_rtt
                if base is None or sample < base:
                    snd.base_rtt = sample
                snd._last_rtt_sample = sample
                if srtt is None:
                    srtt = sample
                    rttvar = sample / 2.0
                else:
                    d = srtt - sample
                    rttvar = 0.75 * rttvar + 0.25 * (d if d >= 0.0 else -d)
                    srtt = 0.875 * srtt + 0.125 * sample
                rto = srtt + 4.0 * rttvar
                if rto < fs.min_rto:
                    rto = fs.min_rto
                elif rto > fs.max_rto:
                    rto = fs.max_rto
        snd.srtt = srtt
        snd.rttvar = rttvar
        snd.rto = rto
        snd.snd_una = ack
        snd.dupacks = 0
        cwnd = snd.cwnd
        if cwnd < snd.ssthresh:
            cwnd += float(mss)
        else:
            cwnd += float(mss) * mss / cwnd
        snd.cwnd = cwnd
        snd._cwnd_t.append(t)
        snd._cwnd_v.append(cwnd)
        # _restart_rto: flight measured before the refill below.
        vt = snd._rto_timer
        vheap = self._vheap
        heappush = heapq.heappush
        snd_nxt = snd.snd_nxt
        rto_timer = None
        if snd_nxt - ack > 0:
            tp = t + rto
            self._vseq = q = self._vseq + 1
            if vt is not None and type(vt) is _VTimer and vt.pending and not vt.cancelled:
                # Still postponed off-heap from the previous ack: restart
                # it in place.  Cancel-then-replace would allocate a fresh
                # tuple-of-slots per ack for a timer that almost never
                # fires; mutating time and tiebreak is indistinguishable
                # (the ``q`` consumed here is the same one an eager
                # replacement would have been created with).
                rto_timer = vt
                rto_timer.time = tp
                rto_timer.q = q
            else:
                if vt is not None:
                    vt.cancel()
                snd._rto_timer = rto_timer = _VTimer(tp, snd._on_rto, ())
                rto_timer.q = q
                rto_timer.pending = True
            if tp < self._pmin:
                self._pmin = tp
        elif vt is not None:
            vt.cancel()
            snd._rto_timer = None
        # Inline of _try_send/_transmit.
        adv = fs.adv
        window = cwnd if cwnd <= adv else adv
        total = snd.total_bytes
        high = snd.high_water
        hdr = fs.hdr
        fwdv = fs.fwdv
        single = len(fwdv) == 1
        vl0 = fwdv[0]
        sent = 0
        vseq = self._vseq
        if single:
            # Every segment of this burst admits at the same instant ``t``,
            # so the cross fold and the in-flight purge _admit would repeat
            # per segment collapse to one pass; appended departures all
            # finish strictly after ``t`` and can never re-trigger either.
            if vl0.agg is not None:
                self._fold_cross(vl0, t)
            l_infl = vl0.infl
            backlog = vl0.backlog
            while l_infl and l_infl[0][0] <= t:
                backlog -= l_infl.popleft()[1]
            free_at = vl0.free_at
            cap = vl0.cap
            buffer_bytes = vl0.buffer_bytes
            prop = vl0.prop
            log = vl0.log
            fwd_bytes = fwd_pkts = drop_bytes = drop_pkts = 0
        while snd_nxt - ack + mss <= window:
            if total is not None:
                remaining = total - snd_nxt
                if remaining <= 0:
                    break
                length = mss if mss < remaining else remaining
            else:
                length = mss
            if snd_nxt < high:  # retransmission (go-back-N refill)
                infl[snd_nxt] = None
                snd.retransmits += 1
            else:  # fresh segment: cannot already be tracked
                infl[snd_nxt] = t
            sent += 1
            if single:
                size = length + hdr
                if buffer_bytes is not None and backlog + size > buffer_bytes:
                    drop_bytes += size
                    drop_pkts += 1
                    if log is not None:
                        log.append((t, size, False, 0.0))
                else:
                    start = free_at if free_at > t else t
                    done = start + size * 8.0 / cap
                    l_infl.append((done, size))
                    backlog += size
                    free_at = done
                    fwd_bytes += size
                    fwd_pkts += 1
                    if log is not None:
                        log.append((t, size, True, done))
                    vseq += 1
                    heappush(vheap, (done + prop, vseq, K_DATA, fs, snd_nxt, length))
            else:
                self._vseq = vseq
                self._hop_admit(fwdv, 0, t, length + hdr, (K_DATA, fs, snd_nxt, length))
                vseq = self._vseq
            if rto_timer is None:
                tp = t + rto
                snd._rto_timer = rto_timer = _VTimer(tp, snd._on_rto, ())
                vseq += 1
                rto_timer.q = vseq
                rto_timer.pending = True
                if tp < self._pmin:
                    self._pmin = tp
            snd_nxt += length
            if snd_nxt > high:
                high = snd_nxt
        if single:
            vl0.free_at = free_at
            vl0.backlog = backlog
            stats = vl0.stats
            stats.bytes_forwarded += fwd_bytes
            stats.packets_forwarded += fwd_pkts
            if drop_pkts:
                stats.bytes_dropped += drop_bytes
                stats.packets_dropped += drop_pkts
        self._vseq = vseq
        if sent:
            snd.segments_sent += sent
        snd.snd_nxt = snd_nxt
        snd.high_water = high
        if total is not None and ack >= total and not snd._completed:
            snd._completed = True
            vt = snd._rto_timer
            if vt is not None:
                vt.cancel()
                snd._rto_timer = None
            if snd.on_complete is not None:
                snd.on_complete(snd)

    def _ev_data(self, t: float, fs: _FlowState, seq: int, length: int) -> None:
        rcv = fs.receiver
        if not fs.rx_kernel:
            pkt = Packet(
                length + fs.hdr,
                flow_id=fs.flow_id,
                seq=seq,
                kind=PacketKind.DATA,
                payload=length,
            )
            rcv.on_segment(pkt)
            return
        # Inline of TCPReceiver.on_segment + _emit_ack(force=True).
        rcv_nxt = rcv.rcv_nxt
        if seq + length <= rcv_nxt:
            pass  # pure duplicate: re-ACK below
        elif seq > rcv_nxt:
            oob = rcv._out_of_order
            prev = oob.get(seq, 0)
            if length > prev:
                oob[seq] = length
        else:
            rcv_nxt = seq + length
            oob = rcv._out_of_order
            if oob:
                while rcv_nxt in oob:
                    rcv_nxt += oob.pop(rcv_nxt)
            rcv.rcv_nxt = rcv_nxt
            rcv._log_t.append(t)
            rcv._log_bytes.append(rcv_nxt)
        rcv.acks_sent += 1
        revv = fs.revv
        if len(revv) == 1:
            # Inline of _admit for the common single-hop reverse path.
            vl0 = revv[0]
            if vl0.agg is not None:
                self._fold_cross(vl0, t)
            infl0 = vl0.infl
            backlog = vl0.backlog
            while infl0 and infl0[0][0] <= t:
                backlog -= infl0.popleft()[1]
            size = fs.ack_size
            stats = vl0.stats
            buffer_bytes = vl0.buffer_bytes
            if buffer_bytes is not None and backlog + size > buffer_bytes:
                vl0.backlog = backlog
                stats.bytes_dropped += size
                stats.packets_dropped += 1
                if vl0.log is not None:
                    vl0.log.append((t, size, False, 0.0))
            else:
                free_at = vl0.free_at
                start = free_at if free_at > t else t
                done = start + size * 8.0 / vl0.cap
                infl0.append((done, size))
                vl0.backlog = backlog + size
                vl0.free_at = done
                stats.bytes_forwarded += size
                stats.packets_forwarded += 1
                if vl0.log is not None:
                    vl0.log.append((t, size, True, done))
                self._vseq = q = self._vseq + 1
                heapq.heappush(
                    self._vheap, (done + vl0.prop, q, K_ACK, fs, rcv_nxt)
                )
        else:
            self._hop_admit(revv, 0, t, fs.ack_size, (K_ACK, fs, rcv_nxt))

    # ------------------------------------------------------------------
    # Adopted probe streams
    # ------------------------------------------------------------------
    def adopt_stream(self, channel, run, done_event) -> StreamPlan:
        """Carry one probe stream inside the domain walk.

        Called from :func:`~repro.netsim.streamtransit.plan_stream` once
        :func:`transit_refusal` has passed; returns the stream's plan.
        """
        plan = StreamPlan(self, channel, run, done_event)
        self.streams.append(plan)
        run.plan = plan
        n = plan.n
        run.n_sent = n
        channel.packets_sent += n
        channel.bytes_sent += n * plan.size
        t = plan.sched[0][0]
        self._vseq = q = self._vseq + 1
        heapq.heappush(self._vheap, (t, q, K_SSEND, plan, 0))
        self._kick(t)
        return plan

    def finish_stream(self, plan: StreamPlan) -> None:
        """Finalize seam: drop a finished stream's state, and retire the
        domain once it carries nothing at all."""
        try:
            self.streams.remove(plan)
        except ValueError:  # a dissolve already let go of it
            return
        self._maybe_retire()

    def _ev_ssend(self, t: float, plan: StreamPlan, i: int) -> None:
        if plan.run.done:
            return
        j = i + 1
        if j < plan.n:
            # Push the next send before admitting this packet, mirroring
            # the per-packet sender's reschedule-before-inject tie order.
            self._vseq = q = self._vseq + 1
            heapq.heappush(self._vheap, (plan.sched[j][0], q, K_SSEND, plan, j))
        self._hop_admit(plan.fwdv, 0, t, plan.size, (K_SDELIV, plan, i))

    def _ev_sdeliv(self, t: float, plan: StreamPlan, i: int) -> None:
        run = plan.run
        if run.done:
            return  # straggler after deadline finalization: lost
        s, seq = plan.sched[i]
        plan.records.append(
            PacketRecord(
                seq=seq,
                sender_stamp=plan.sender_read(s),
                recv_stamp=plan.receiver_read(t),
            )
        )
        plan.rec_times.append(t)
        if seq == plan.n - 1:
            plan.complete_call = self._defer(
                plan.channel._fast_complete, run, plan.done
            )

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------
    def attach_flow(self, sender: "TCPSender") -> None:
        fs = _FlowState()
        receiver = sender.receiver
        cfg = sender.config
        network = self.network
        fs.sender = sender
        fs.receiver = receiver
        vls = self._vl
        fs.fwdv = tuple(vls[link] for link in network.forward_links)
        fs.revv = tuple(vls[link] for link in network.reverse_links)
        fs.hdr = cfg.header_bytes
        fs.mss = cfg.mss
        fs.adv = float(cfg.advertised_window_bytes)
        fs.min_rto = cfg.min_rto
        fs.max_rto = cfg.max_rto
        fs.ack_size = receiver.config.header_bytes
        fs.flow_id = sender.flow_id
        fs.tx_kernel = cfg.congestion_control == "reno" and sender._tracer is None
        fs.rx_kernel = not receiver.config.delayed_ack
        fs.vnet = _FlowVNet(self, fs)
        fs.user_on_complete = sender.on_complete
        fs.completing = False
        fs.detached = False
        fs.t0 = self.sim._now
        fs.seg0 = sender.segments_sent

        def _wrapped_complete(_snd, fs=fs, domain=self):
            fs.completing = True
            if domain._walking:
                domain._defer(domain._complete_flow, fs)
            else:  # pragma: no cover - completion always lands in a walk
                domain._complete_flow(fs)

        sender.on_complete = _wrapped_complete
        sender.sim = self.vsim
        receiver.sim = self.vsim
        sender.network = fs.vnet
        receiver.network = fs.vnet
        sender._ft = self
        sender._ft_fs = fs
        self.flows.append(fs)
        _note_flow_planned(network, self.sim)

    def on_flow_stop(self, sender: "TCPSender") -> None:
        """``TCPSender.stop()`` seam: hand the flow back to the real path."""
        fs = sender._ft_fs
        if fs is None or fs.detached or fs.completing:
            return
        self._detach(fs)
        self._maybe_retire()

    def _complete_flow(self, fs: _FlowState) -> None:
        fs.completing = False
        if not fs.detached:
            self._detach(fs)
        if fs.user_on_complete is not None:
            fs.user_on_complete(fs.sender)
        self._maybe_retire()

    def _detach(self, fs: _FlowState) -> None:
        if fs.detached:
            return
        fs.detached = True
        try:
            self.flows.remove(fs)
        except ValueError:  # pragma: no cover - dissolve already removed it
            pass
        self._drain_flow_events(fs)
        snd = fs.sender
        rcv = fs.receiver
        sim = self.sim
        snd.sim = sim
        rcv.sim = sim
        network = self.network
        snd.network = network
        rcv.network = network
        snd.on_complete = fs.user_on_complete
        snd._ft = None
        snd._ft_fs = None
        snd._rto_timer = self._to_real(snd._rto_timer)
        rcv._delack_timer = self._to_real(rcv._delack_timer)
        if sim.tracer is not None:
            sim.tracer.span(
                fs.t0,
                sim._now,
                "flow",
                "planned",
                track=fs.flow_id,
                args={"segments": snd.segments_sent - fs.seg0},
            )
        else:
            network._ft_spans.append(
                (fs.t0, sim._now, fs.flow_id, snd.segments_sent - fs.seg0)
            )

    def _to_real(self, vt):
        """Convert a live :class:`_VTimer` into a real scheduled call."""
        if vt is None or not isinstance(vt, _VTimer) or vt.cancelled:
            return vt
        vt.cancelled = True  # its heap entry is skipped from now on
        return self.sim.schedule_at(vt.time, vt.fn, *vt.args)

    def _drain_flow_events(self, fs: _FlowState) -> None:
        """Materialize this flow's pending virtual events as real ones."""
        kept: list = []
        owned: list = []
        for ev in self._vheap:
            k = ev[2]
            if k == K_DATA or k == K_ACK:
                (owned if ev[3] is fs else kept).append(ev)
            elif k == K_ADMIT:
                tail = ev[6]
                (owned if tail[0] != K_SDELIV and tail[1] is fs else kept).append(ev)
            elif k == K_XMIT:
                tail = ev[5]
                (owned if tail[0] != K_SDELIV and tail[1] is fs else kept).append(ev)
            else:
                kept.append(ev)
        if not owned:
            return
        owned.sort()
        for ev in owned:
            self._materialize(ev)
        # In place: _round's walk loop (and a mid-walk completion path
        # reaching here through _complete_flow) hold aliases to the list.
        vheap = self._vheap
        vheap[:] = kept
        heapq.heapify(vheap)

    def _pkt_from_tail(self, tail):
        k = tail[0]
        if k == K_DATA:
            _, fs, seq, length = tail
            pkt = Packet(
                length + fs.hdr,
                flow_id=fs.flow_id,
                seq=seq,
                kind=PacketKind.DATA,
                payload=length,
            )
            return pkt, fs.receiver.on_segment
        if k == K_ACK:
            _, fs, ack = tail
            pkt = Packet(
                fs.ack_size, flow_id=fs.flow_id, seq=ack, kind=PacketKind.ACK
            )
            return pkt, fs.sender.on_ack
        # K_SDELIV
        _, plan, i = tail
        s, seq = plan.sched[i]
        run = plan.run
        done = plan.done
        channel = plan.channel
        pkt = Packet(
            plan.size,
            flow_id=run.flow_id,
            seq=seq,
            kind=PacketKind.PROBE,
            created_at=s,
            sender_stamp=plan.sender_read(s),
        )
        handler = lambda p, run=run, done=done: channel._on_arrival(run, p, done)
        return pkt, handler

    def _materialize(self, ev) -> None:
        t = ev[0]
        k = ev[2]
        sim = self.sim
        if k == K_DATA or k == K_ACK or k == K_SDELIV:
            pkt, target = self._pkt_from_tail(ev[2:])
            if k == K_SDELIV:
                pkt.delivered_at = t
            sim.schedule_at(t, target, pkt)
        elif k == K_ADMIT:
            hop = ev[4]
            links = tuple(vl.link for vl in ev[3])
            pkt, target = self._pkt_from_tail(ev[6])
            pkt.route = links
            pkt.hop = hop
            pkt.handler = target
            sim.schedule_at(t, links[hop].send, pkt)
        elif k == K_XMIT:
            links = tuple(vl.link for vl in ev[3])
            pkt, target = self._pkt_from_tail(ev[5])
            pkt.route = links
            pkt.hop = 0
            pkt.handler = target
            sim.schedule_at(t, links[0].send, pkt)
        elif k == K_SSEND:
            plan, i = ev[3], ev[4]
            if plan.resume_i is None or i < plan.resume_i:
                plan.resume_i = i
        # K_TIMER: live timers are converted by _to_real at detach;
        # anything else on the heap is logically cancelled.

    # ------------------------------------------------------------------
    # Dissolution (mid-flight ineligibility)
    # ------------------------------------------------------------------
    def dissolve(self, reason: str) -> None:
        """Hand every flow and stream back to the per-packet machinery.

        All committed virtual state is at or before now (cap invariant),
        so in-flight virtual packets materialize as ordinary events at
        their already-exact times and the future replays per-packet: the
        sample path equals a never-planned run.
        """
        if not self.alive:
            return
        self._release()
        vheap = self._vheap
        drained = sorted(vheap)
        vheap.clear()  # in place: walk-loop aliases must observe the drain
        for ev in drained:
            if ev[2] != K_TIMER:
                self._materialize(ev)
        streams, self.streams = self.streams, []
        for plan in streams:
            plan.retire_or_revoke(reason)
        network = self.network
        sim = self.sim
        for fs in list(self.flows):
            if fs.completing:
                continue
            self._detach(fs)
            _note_flow_fallback(network, sim, reason)
        self.flows = [fs for fs in self.flows if fs.completing]

    def _maybe_retire(self) -> None:
        """Let go of the links once nothing is carried and nothing is
        pending, so a finished op holds no domain state; the next flow or
        stream on this network starts a fresh domain."""
        if self.flows or self.streams or self._walking or not self.alive:
            return
        for ev in self._vheap:
            if ev[2] != K_TIMER or not ev[3].cancelled:
                return
        self._vheap.clear()
        self._release()

    def _release(self) -> None:
        self.alive = False
        network = self.network
        if network._flow_domain is self:
            network._flow_domain = None
        rc = self._round_call
        if rc is not None:
            rc.cancel()
            self._round_call = None
        for link in self.links:
            link._owner = None

    # ------------------------------------------------------------------
    # Sanitize-mode shadow verification
    # ------------------------------------------------------------------
    def _verify_round(self, snaps) -> None:
        """Independently replay this round's admission log per hop from
        the round-start snapshot and raise :class:`SimulationError` on any
        divergence from what the walk admitted, dropped and counted."""
        for vl, free_at, backlog, infl0, vci0, stats0 in snaps:
            log = vl.log
            vl.log = None
            if not log and vl.vci == vci0:
                continue
            agg = vl.agg
            if agg is not None:
                cross_t = agg.times[vci0:vl.vci].tolist()
                cross_s = agg.sizes[vci0:vl.vci].tolist()
            else:
                cross_t = cross_s = []
            cross = [(tc, 0, k) for k, tc in enumerate(cross_t)]
            fg = [(entry[0], 1, i) for i, entry in enumerate(log)]
            infl = deque(infl0)
            cap = vl.cap
            buffer_bytes = vl.buffer_bytes
            link_name = vl.link.name
            fwd_bytes, fwd_pkts, drop_bytes, drop_pkts = stats0
            for t, tag, i in heapq.merge(cross, fg):
                while infl and infl[0][0] <= t:
                    backlog -= infl.popleft()[1]
                sz = cross_s[i] if tag == 0 else log[i][1]
                if buffer_bytes is not None and backlog + sz > buffer_bytes:
                    if tag == 1 and log[i][2]:
                        raise SimulationError(
                            f"flow-transit shadow check: hop {link_name!r} "
                            f"dropped admission {i} but the walk accepted it"
                        )
                    drop_bytes += sz
                    drop_pkts += 1
                    continue
                start = free_at if free_at > t else t
                free_at = start + sz * 8.0 / cap
                infl.append((free_at, sz))
                backlog += sz
                fwd_bytes += sz
                fwd_pkts += 1
                if tag == 1:
                    if not log[i][2]:
                        raise SimulationError(
                            f"flow-transit shadow check: hop {link_name!r} "
                            f"accepted admission {i} but the walk dropped it"
                        )
                    if log[i][3] != free_at:  # simlint: disable=SIM003 -- bit-identity shadow check
                        raise SimulationError(
                            f"flow-transit shadow check: hop {link_name!r} "
                            f"admission {i} done {free_at!r} != recorded "
                            f"{log[i][3]!r}"
                        )
            if free_at != vl.free_at:  # simlint: disable=SIM003 -- bit-identity shadow check
                raise SimulationError(
                    f"flow-transit shadow check: hop {link_name!r} end "
                    f"free_at {free_at!r} != walked {vl.free_at!r}"
                )
            counted = _stat_counts(vl.stats)
            if counted != (fwd_bytes, fwd_pkts, drop_bytes, drop_pkts):
                raise SimulationError(
                    f"flow-transit shadow check: hop {link_name!r} stats "
                    f"{counted!r} != replayed "
                    f"{(fwd_bytes, fwd_pkts, drop_bytes, drop_pkts)!r}"
                )


# ----------------------------------------------------------------------
# Module-level seams
# ----------------------------------------------------------------------
def transit_refusal(network, clocks=()) -> Optional[str]:
    """Why ``network``'s traffic cannot ride a flow-transit domain, or None.

    The one eligibility rule for TCP flows and probe streams:

    * ``"tracer"`` — a full tracer wants per-packet visibility (light
      tracers keep the fast path);
    * ``"impure-clock"`` — one of ``clocks`` (a stream's sender and
      receiver clocks; flows pass none) draws an RNG per read, so reading
      it in walk order would move the draws;
    * ``"link-config"`` — a hook, qdisc or rebound ``deliver`` on any
      forward or reverse link: the walk would skip their callbacks;
    * ``"capacity-schedule"`` — a piecewise capacity schedule: the walk
      hoists one rate per hop, and the per-packet path prices each
      transmission start exactly.
    """
    tracer = network.sim.tracer
    if tracer is not None and not tracer.light:
        return "tracer"
    for clock in clocks:
        if (
            getattr(clock, "_rng", None) is not None
            or getattr(clock, "rng", None) is not None
        ):
            return "impure-clock"
    advance = network._advance
    for link in (*network.forward_links, *network.reverse_links):
        if (
            link._deliver != advance
            or link._qdisc is not None
            or link._drop_hook is not None
        ):
            return "link-config"
        if link._cap_sched is not None:
            return "capacity-schedule"
    return None


def domain_of(network) -> FlowTransitDomain:
    """This network's live flow-transit domain, created on first use."""
    domain = network._flow_domain
    if domain is None:
        domain = network._flow_domain = FlowTransitDomain(network.sim, network)
    return domain


def try_attach_flow(sender: "TCPSender") -> bool:
    """``TCPSender._begin`` seam: attach to (or create) this network's
    flow-transit domain.  Returns True when attached; on False the caller
    takes the per-packet path."""
    network = sender.network
    sim = sender.sim
    if not resolve_fast(sender._fast):
        _note_flow_fallback(network, sim, "disabled")
        return False
    reason = transit_refusal(network)
    if reason is not None:
        if reason == "tracer":
            _warn_tracer_fallback()
        _note_flow_fallback(network, sim, reason)
        return False
    domain_of(network).attach_flow(sender)
    return True


def _note_flow_planned(network, sim) -> None:
    network._ft_flows += 1
    tracer = sim.tracer
    if tracer is not None:  # light tracers keep flows planned
        tracer.metrics.counter(
            "repro_fastpath_flows_total",
            help="TCP flows carried by the flow-transit fast path",
        ).inc()


def _note_flow_fallback(network, sim, reason: str) -> None:
    counts = network._ft_fallbacks
    counts[reason] = counts.get(reason, 0) + 1
    tracer = sim.tracer
    if tracer is not None:
        tracer.metrics.counter(
            "repro_fastpath_flow_fallback_total",
            labels={"reason": reason},
            help="TCP flows that took the per-packet path, by reason",
        ).inc()
