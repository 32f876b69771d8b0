"""Store-and-forward link model.

Each :class:`Link` is a FIFO transmission queue with:

* a fixed capacity ``C`` in bits per second — or an optional
  piecewise-constant capacity schedule (:meth:`Link.set_capacity_segments`)
  for time-varying channels,
* a propagation delay,
* an optional finite drop-tail buffer (in bytes).

The paper's path model (Section III-A) is exactly this: a sequence of
store-and-forward FIFO links, each with capacity ``C_i``, adequately buffered
in the verification simulations, finitely buffered in the TCP experiments of
Section VII.

Implementation
--------------
A *foreground* packet (probe, TCP, ping, per-packet cross traffic) costs
**one scheduled event**: the delivery callback at ``transmission_complete +
propagation_delay``.  Queueing is tracked analytically with a "transmitter
free at" clock (``_free_at``) plus a lazy deque of in-flight transmissions
used for byte-accurate backlog accounting (needed for drop-tail decisions
and queue-size monitoring).

Bulk-eligible cross traffic costs **no per-packet events at all**: sources
deposit batched absolute-arrival arrays with the link's
:class:`~repro.netsim.bulkarrivals.CrossAggregator`, and :meth:`Link.sync`
folds every arrival with timestamp ≤ now into ``_free_at``, the backlog
ledger, and :class:`LinkStats` before any foreground ``send()``, any
``backlog_bytes()``/``queueing_delay()`` read, and any ``stats`` access.
Foreground packets therefore observe exactly the queue state the
per-packet path would have produced.  The fold is :meth:`Link._advance`,
the hop's one batch Lindley recursion (the exact scan of
:mod:`repro.netsim.kernels` or a tight loop over plain floats/ints); the
flow-transit walk calls it too, with the probe arrivals a lone-stream
sweep merges into it.  Installing a ``qdisc``, a
``drop_hook``, or a new ``deliver`` callback on a link that carries bulk
traffic automatically reverts its sources to the per-packet path (the
future sample path is unchanged; see ``docs/performance.md``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Callable, Optional

from . import kernels
from .engine import Simulator
from .packet import Packet

__all__ = ["Link", "LinkStats"]


class LinkStats:
    """Cumulative per-link counters, read by monitors.

    ``bytes_forwarded`` counts bytes *accepted for transmission* (the
    quantity an SNMP interface counter — and therefore MRTG — reports).
    """

    __slots__ = ("bytes_forwarded", "packets_forwarded", "bytes_dropped", "packets_dropped")

    def __init__(self) -> None:
        self.bytes_forwarded = 0
        self.packets_forwarded = 0
        self.bytes_dropped = 0
        self.packets_dropped = 0

    def snapshot(self) -> dict:
        """Plain-dict copy of the counters."""
        return {
            "bytes_forwarded": self.bytes_forwarded,
            "packets_forwarded": self.packets_forwarded,
            "bytes_dropped": self.bytes_dropped,
            "packets_dropped": self.packets_dropped,
        }


class Link:
    """One store-and-forward hop.

    Parameters
    ----------
    sim:
        The simulation kernel.
    capacity_bps:
        Transmission rate in bits per second (the paper's ``C_i``).
    prop_delay:
        Propagation delay in seconds appended after transmission completes.
    buffer_bytes:
        Drop-tail buffer size in bytes, or ``None`` for an infinite buffer
        (the paper's "adequately buffered to avoid losses" setting).
    name:
        Human-readable label used in monitors and error messages.
    deliver:
        Callback invoked as ``deliver(packet)`` when a packet exits the link
        (i.e., after transmission + propagation).  Wired by the owning
        network; may also be set after construction.
    qdisc:
        Optional active queue management policy (e.g.
        :class:`~repro.netsim.qdisc.REDQueue`) consulted *before* the
        drop-tail check; any object with a
        ``should_drop(backlog_bytes, pkt_size, now, capacity_bps)`` method.
    """

    __slots__ = (
        "sim",
        "capacity_bps",
        "prop_delay",
        "buffer_bytes",
        "name",
        "_deliver",
        "_stats",
        "_drop_hook",
        "_qdisc",
        "_agg",
        "_owner",
        "_cap_sched",
        "_free_at",
        "_in_flight",
        "_backlog_bytes",
        "_tracer",
    )

    def __init__(
        self,
        sim: Simulator,
        capacity_bps: float,
        prop_delay: float = 0.0,
        buffer_bytes: Optional[int] = None,
        name: str = "link",
        deliver: Optional[Callable[[Packet], None]] = None,
        qdisc=None,
    ):
        if capacity_bps <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity_bps}")
        if prop_delay < 0:
            raise ValueError(f"propagation delay must be >= 0, got {prop_delay}")
        if buffer_bytes is not None and buffer_bytes <= 0:
            raise ValueError(f"buffer size must be positive or None, got {buffer_bytes}")
        self.sim = sim
        self.capacity_bps = float(capacity_bps)
        self.prop_delay = float(prop_delay)
        self.buffer_bytes = buffer_bytes
        self.name = name
        self._deliver = deliver
        self._stats = LinkStats()
        self._drop_hook: Optional[Callable[[Packet], None]] = None
        self._qdisc = qdisc
        self._agg = None  # CrossAggregator once bulk sources attach
        # FlowTransitDomain while one owns this link's queue state (TCP
        # flows and probe streams): its walk admits straight into
        # ``_in_flight``/``_stats`` and writes ``_free_at``/``_backlog_bytes``
        # back at every round's end.
        self._owner = None
        self._cap_sched = None  # (boundaries, rates) piecewise-constant schedule
        self._free_at = 0.0  # when the transmitter becomes idle
        self._in_flight: deque = deque()  # (tx_done_time, size_bytes)
        self._backlog_bytes = 0
        # Cached so the nil-tracer cost in send() is one slot None-check;
        # Tracer.register_link retrofits links built before attach and
        # leaves the slot None for light tracers (per-packet callbacks off,
        # elision stays eligible — see docs/observability.md).
        self._tracer = None
        tracer = sim.tracer
        if tracer is not None:
            tracer.register_link(self)

    # ------------------------------------------------------------------
    # Wired callbacks and policies (rebinding reverts bulk traffic)
    # ------------------------------------------------------------------
    @property
    def deliver(self) -> Optional[Callable[[Packet], None]]:
        """Delivery callback; installing one decommissions the bulk path
        (elided cross packets never reach ``deliver``)."""
        return self._deliver

    @deliver.setter
    def deliver(self, fn: Optional[Callable[[Packet], None]]) -> None:
        self._dissolve_owner()
        if self._agg is not None:
            self._decommission()
        self._deliver = fn

    @property
    def drop_hook(self) -> Optional[Callable[[Packet], None]]:
        """Optional hook called with each dropped packet (used by taps and
        loss-sensitive experiments); installing one decommissions the bulk
        path so every subsequent drop materializes a packet."""
        return self._drop_hook

    @drop_hook.setter
    def drop_hook(self, fn: Optional[Callable[[Packet], None]]) -> None:
        self._dissolve_owner()
        if self._agg is not None:
            self._decommission()
        self._drop_hook = fn

    @property
    def qdisc(self):
        """Active queue management policy; installing one decommissions the
        bulk path (AQM decisions must see every packet)."""
        return self._qdisc

    @qdisc.setter
    def qdisc(self, policy) -> None:
        self._dissolve_owner()
        if self._agg is not None:
            self._decommission()
        self._qdisc = policy

    def _dissolve_owner(self) -> None:
        """Link-config chokepoint: dissolve a flow-transit domain owning
        this hop, handing its flows and streams to the per-packet path."""
        if self._owner is not None:
            self._owner.dissolve("link-decommission")

    # ------------------------------------------------------------------
    # Piecewise-constant capacity schedule (plannable time variation)
    # ------------------------------------------------------------------
    def capacity_at(self, t: float) -> float:
        """Transmission rate in force at instant ``t``.

        Without a schedule this is ``capacity_bps``.  With one, the rate
        switches at each boundary; an instant exactly on a boundary takes
        the new rate.  Both data paths — per-packet ``send()`` and the
        bulk folds — serialize each packet at the rate in force when its
        transmission *starts*, so they agree bit for bit.
        """
        sched = self._cap_sched
        if sched is None:
            return self.capacity_bps
        bounds, caps = sched
        return caps[bisect_right(bounds, t)]

    def set_capacity_segments(self, segments) -> None:
        """Install a piecewise-constant capacity schedule.

        ``segments`` is an iterable of ``(time, capacity_bps)`` pairs
        with strictly increasing times, all in the future: from each
        time on, the link transmits at the paired rate until the next
        boundary (the last rate holds forever).  Each packet is
        serialized at the rate in force when its transmission *starts*
        (:meth:`capacity_at`); a transmission already under way when a
        boundary passes completes at its admission rate — the
        store-and-forward idealization of a rate change.

        Installing a schedule is a planning chokepoint like rebinding
        ``deliver``: a flow-transit domain owning the link dissolves, and
        its flows and probe streams continue per-packet, because its walk
        assumed one rate per hop.  Bulk cross traffic stays bulk — the
        folds look rates up per segment.  Reinstalling replaces the
        previous schedule; the rate currently in force becomes the rate
        before the first boundary.
        ``capacity_bps`` keeps the construction-time base rate (used by
        monitors' utilization normalization and AQM policies).
        """
        now = self.sim.now
        pairs = [(float(t), float(c)) for t, c in segments]
        if not pairs:
            raise ValueError("capacity schedule needs at least one segment")
        for t, c in pairs:
            if c <= 0:
                raise ValueError(f"segment capacity must be positive, got {c}")
            if t <= now:
                raise ValueError(
                    f"segment boundaries must be in the future, got {t} at t={now}"
                )
        bounds = [t for t, _ in pairs]
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError("segment boundaries must be strictly increasing")
        self._dissolve_owner()
        # Fold everything due under the schedule in force until now; the
        # per-packet path would have admitted those arrivals before this
        # call ran, under the same (old) rate function.
        if self._agg is not None:
            self.sync()
        base = self.capacity_at(now)
        self._cap_sched = (bounds, [base] + [c for _, c in pairs])

    @property
    def stats(self) -> LinkStats:
        """Cumulative counters, with pending bulk arrivals folded in first."""
        if self._agg is not None:
            self.sync()
        return self._stats

    # ------------------------------------------------------------------
    # Bulk cross-traffic admission (the event-elided data path)
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Fold pending bulk cross-traffic arrivals due by now into the
        queue state (:meth:`_advance` up to now), then trim the consumed
        prefix of the merged queue.

        Idempotent and cheap when nothing is pending; called automatically
        at every foreground sync point.  A flow-transit domain owning the
        hop (``_owner``) admits straight into this state, so only the
        cross arrivals after its last admission are left to fold here.
        """
        agg = self._agg
        if agg is None:
            return
        now = self.sim._now
        # Merged coverage lags now only while a source registered at this
        # instant awaits its deferred merge; none of its arrivals is due.
        if agg._horizon >= now:
            self._advance(now)
        agg.compact()

    def _advance(self, t: float, fg_times=(), fg_size: int = 0, log=None):
        """The hop's Lindley fold (Section III-A) up to instant ``t``.

        Admits, in time order, every merged cross arrival with timestamp
        ≤ ``t`` and the sorted foreground arrivals ``fg_times`` (all ≤
        ``t``, ``fg_size`` bytes each), cross first on exact-time ties —
        the order the per-packet path runs their events in.  Each arrival
        gets the accounting ``send()`` gives a packet: the transmitter
        clock ``start = max(arrival, free_at); done = start + size*8/C``
        (at the rate in force at ``start`` under a capacity schedule),
        the in-flight deque and backlog, the drop-tail decision on a
        finite buffer, and the stats.  On an infinite buffer nothing can
        drop, so the in-flight purge is deferred to ``t`` (completions
        are monotone on a FIFO link) and long batches go to the exact
        vector kernels.  The deque leaves purged to ``t``.

        Returns the foreground completion times in arrival order (None
        for a drop-tail drop) and appends ``(arrival, size, accepted,
        done)`` per foreground arrival to ``log`` when one is given.  The
        cross cursor ``agg.idx`` advances without compaction (the
        flow-transit shadow check slices by it); :meth:`sync` compacts.
        """
        agg = self._agg
        nc = 0
        if agg is not None:
            if agg._horizon < t:
                agg.extend_until(t)
            times = agg.times
            ci = agg.idx
            if ci < times.shape[0] and times[ci] <= t:
                nc = int(times.searchsorted(t, side="right")) - ci
        nf = len(fg_times)
        if not (nc or nf):
            return ()
        if nc:
            ct, cs = agg.arrays(ci, ci + nc)
            agg.idx = ci + nc
        free_at = self._free_at
        backlog = self._backlog_bytes
        in_flight = self._in_flight
        stats = self._stats
        cap = self.capacity_bps
        cap_sched = self._cap_sched
        buffer_bytes = self.buffer_bytes
        drop_bytes = drop_pkts = 0
        folded = None
        if (
            buffer_bytes is None
            and (nc + nf >= kernels.MIN_BATCH if nc else nf >= kernels.MIN_PROBES)
            and kernels.enabled(self.sim.vector)
        ):
            if nf:
                if cap_sched is None:
                    planned = kernels.plan_hop(
                        free_at, ct if nc else None, cs if nc else None,
                        fg_times, fg_size, cap, t, self.prop_delay, True,
                    )
                    if planned is not None:
                        dones, _exits, kept, end, fwd_bytes = planned
                        folded = (end, kept, sum(sz for _, sz in kept), fwd_bytes)
            elif cap_sched is None:
                folded = kernels.fold_slice(free_at, ct, cs, cap, t, True)
            else:
                folded = kernels.fold_slice_segmented(
                    free_at, ct, cs, cap_sched[0], cap_sched[1], t, True
                )
        if folded is None and nc:
            c_times = ct.tolist()
            c_sizes = cs.tolist()
        else:
            c_times = []
            c_sizes = []
        if folded is None and buffer_bytes is None and cap_sched is None:
            # Foreground arrivals lead the walk; the cross arrivals due
            # before each (ties included) fold first, the rest after the
            # last.  An arrival completing by ``t`` would be purged by
            # the trailing pass anyway, so it never enters the deque.
            tx = fg_size * 8.0 / cap
            kept = []
            kept_append = kept.append
            dones = []
            dones_append = dones.append
            k = 0
            for tf in fg_times:  # simlint: vector-safe
                while k < nc:
                    tc = c_times[k]
                    if tc > tf:
                        break
                    sz = c_sizes[k]
                    start = free_at if free_at > tc else tc
                    free_at = start + sz * 8.0 / cap
                    if free_at > t:
                        kept_append((free_at, sz))
                    k += 1
                start = free_at if free_at > tf else tf
                free_at = start + tx
                if free_at > t:
                    kept_append((free_at, fg_size))
                dones_append(free_at)
            for tc, sz in zip(c_times[k:], c_sizes[k:]):  # simlint: vector-safe
                start = free_at if free_at > tc else tc
                free_at = start + sz * 8.0 / cap
                if free_at > t:
                    kept_append((free_at, sz))
            folded = (
                free_at, kept, sum(sz for _, sz in kept),
                sum(c_sizes) + fg_size * nf,
            )
        if folded is not None:
            free_at, kept, kept_bytes, fwd_bytes = folded
            in_flight.extend(kept)
            backlog += kept_bytes
        else:
            # Drop-tail decisions (and per-start rates under a schedule)
            # replay in merge order with the per-arrival purge: the
            # backlog each arrival tests is the one the per-packet path
            # would have computed at that instant.
            cuts = [bisect_right(c_times, tf) for tf in fg_times]
            at = [c + j for j, c in enumerate(cuts)]  # foreground positions
            ts = c_times[:cuts[0]] if nf else c_times
            ss = c_sizes[:cuts[0]] if nf else c_sizes
            for tf, a, b in zip(fg_times, cuts, cuts[1:] + [nc]):
                ts.append(tf)
                ts.extend(c_times[a:b])
                ss.append(fg_size)
                ss.extend(c_sizes[a:b])
            if cap_sched is not None:
                bounds, caps = cap_sched
            out = []
            for tc, sz in zip(ts, ss):
                while in_flight and in_flight[0][0] <= tc:
                    backlog -= in_flight.popleft()[1]
                if buffer_bytes is not None and backlog + sz > buffer_bytes:
                    drop_bytes += sz
                    drop_pkts += 1
                    out.append(None)
                    continue
                start = free_at if free_at > tc else tc
                if cap_sched is not None:
                    cap = caps[bisect_right(bounds, start)]
                free_at = start + sz * 8.0 / cap
                in_flight.append((free_at, sz))
                backlog += sz
                out.append(free_at)
            fwd_bytes = sum(ss) - drop_bytes
            dones = [out[i] for i in at]
        while in_flight and in_flight[0][0] <= t:
            backlog -= in_flight.popleft()[1]
        self._free_at = free_at
        self._backlog_bytes = backlog
        stats.bytes_forwarded += fwd_bytes
        stats.packets_forwarded += nc + nf - drop_pkts
        if drop_pkts:
            stats.bytes_dropped += drop_bytes
            stats.packets_dropped += drop_pkts
        if not nf:
            return ()
        if log is not None:
            log.extend(
                (tf, fg_size, d is not None, 0.0 if d is None else d)
                for tf, d in zip(fg_times, dones)
            )
        return dones

    def _decommission(self) -> None:
        """Flush due bulk arrivals, then revert every source to per-packet."""
        agg = self._agg
        if agg is None:
            return
        self.sync()
        self._agg = None
        agg.release()

    # ------------------------------------------------------------------
    # Queue accounting
    # ------------------------------------------------------------------
    def backlog_bytes(self) -> int:
        """Bytes queued or in transmission now."""
        if self._agg is not None:
            self.sync()
        now = self.sim.now
        in_flight = self._in_flight
        while in_flight and in_flight[0][0] <= now:
            self._backlog_bytes -= in_flight.popleft()[1]
        return self._backlog_bytes

    def queueing_delay(self) -> float:
        """Time a zero-size arrival now would wait before service."""
        if self._agg is not None:
            self.sync()
        return max(0.0, self._free_at - self.sim.now)

    def transmission_time(self, size_bytes: int) -> float:
        """Serialization delay of a packet of ``size_bytes`` on this link."""
        return size_bytes * 8.0 / self.capacity_bps

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Accept ``pkt`` for transmission at the current simulated time.

        Returns ``True`` if the packet was enqueued, ``False`` if it was
        dropped by the drop-tail buffer.  On acceptance, the delivery
        callback fires at ``max(now, transmitter_free) + tx_time +
        prop_delay``.  Pending bulk cross-traffic arrivals (timestamp ≤
        now) are folded in first, so this packet queues behind them —
        the FIFO order the per-packet path produces.
        """
        sim = self.sim
        now = sim.now
        # A flow-transit domain owning this hop needs nothing here: its
        # walk never runs past the next real event, this one included.
        if self._agg is not None:
            self.sync()
        # Hot attributes bound once: this method runs once per foreground
        # packet, and slot loads dominated its profile.
        size = pkt.size
        in_flight = self._in_flight
        backlog = self._backlog_bytes
        while in_flight and in_flight[0][0] <= now:
            backlog -= in_flight.popleft()[1]
        buffer_bytes = self.buffer_bytes
        drop = buffer_bytes is not None and backlog + size > buffer_bytes
        if not drop:
            qdisc = self._qdisc
            if qdisc is not None:
                drop = qdisc.should_drop(backlog, size, now, self.capacity_bps)
        stats = self._stats
        if drop:
            self._backlog_bytes = backlog
            stats.bytes_dropped += size
            stats.packets_dropped += 1
            if self._tracer is not None:
                self._tracer.on_link_drop(self, pkt, now)
            drop_hook = self._drop_hook
            if drop_hook is not None:
                drop_hook(pkt)
            return False

        free_at = self._free_at
        start = free_at if free_at > now else now
        cap_sched = self._cap_sched
        if cap_sched is None:
            done = start + size * 8.0 / self.capacity_bps
        else:
            done = start + size * 8.0 / cap_sched[1][bisect_right(cap_sched[0], start)]
        self._free_at = done
        in_flight.append((done, size))
        backlog += size
        self._backlog_bytes = backlog
        stats.bytes_forwarded += size
        stats.packets_forwarded += 1
        if self._tracer is not None:
            self._tracer.on_link_enqueue(self.name, backlog)
        sim.schedule_at(done + self.prop_delay, self._exit, pkt)
        return True

    def _exit(self, pkt: Packet) -> None:
        if self._deliver is None:
            raise RuntimeError(f"link {self.name!r} has no delivery callback wired")
        self._deliver(pkt)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def utilization_of(self, bytes_forwarded: int, interval: float) -> float:
        """Average utilization implied by ``bytes_forwarded`` over ``interval``."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        return (bytes_forwarded * 8.0 / interval) / self.capacity_bps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap_mbps = self.capacity_bps / 1e6
        return f"<Link {self.name} {cap_mbps:.2f}Mb/s prop={self.prop_delay * 1e3:.2f}ms>"
