"""Batched cross-traffic arrivals: the event-elided data path.

Open-loop background traffic dominates the event budget of every
experiment: at the paper's operating points (ten Pareto sources per hop,
441 B mean packets) cross packets outnumber probe packets by well over an
order of magnitude, yet each one used to pay two heap operations and two
Python callback dispatches just to nudge a FIFO backlog that only
probe/TCP packets and monitors ever read.

This module removes those per-packet events.  Each bulk-eligible
:class:`~repro.netsim.crosstraffic.CrossTrafficSource` converts its
refill buffer into absolute arrival-time/size arrays (a cumulative sum
over the very same gap draws, RNG chunk order untouched) and registers
them with its link's :class:`CrossAggregator`.  The aggregator k-way
merges the link's sources in time order into one flat admission queue and
keeps exactly **one scheduled event per refill horizon** — the instant
the slowest source's buffer runs out — instead of one per packet.  The
owning :class:`~repro.netsim.link.Link` folds merged arrivals into its
transmitter/backlog ledger lazily, at its sync points (foreground
``send()``, backlog/queueing-delay reads, stats access), so foreground
packets observe exactly the queue state the per-packet path would have
produced.

Determinism contract
--------------------
The merged arrival sequence is byte-for-byte the sequence the per-packet
path generates: arrival times are the identical floating-point sums
(``t += gap`` mirrors ``Simulator.schedule(gap, ...)``), sizes come from
the same RNG draws in the same chunk order, and same-timestamp arrivals
merge in source-registration order (the per-packet path orders exact ties
by event insertion; with continuous interarrival draws such ties have
probability zero).

Modulated sources (``modulation=(interval, sigma)``) feed the aggregator
in *segment-planned* batches: generation runs one rate-factor segment at
a time, dividing each gap by the factor in force at the previous
arrival's instant and consuming each boundary's lognormal factor draw at
exactly the RNG position the per-packet ``_modulate`` timer would, so
every floating-point expression matches.  An arrival landing exactly on
a segment boundary is a measure-zero tie of the same kind: the bulk
generator applies the boundary first (the next gap uses the
post-boundary factor) while the per-packet ordering depends on event
insertion — continuous draws never produce the collision.  See the
``crosstraffic`` module docstring and ``docs/performance.md`` for the
full contract and the fallback conditions.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import kernels

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .crosstraffic import CrossTrafficSource
    from .engine import Simulator
    from .link import Link

__all__ = ["CrossAggregator"]

#: Consumed-prefix length beyond which the merged arrays are compacted.
_COMPACT_THRESHOLD = 16384

#: Initial capacity of the merged queue's buffers (they grow by doubling).
_INITIAL_CAPACITY = 4096

_NO_TIMES = np.empty(0, dtype=np.float64)
_NO_SIZES = np.empty(0, dtype=np.int64)


class _Feed:
    """One source's buffered future arrivals (absolute times, sizes)."""

    __slots__ = ("source", "times", "sizes", "done", "order")

    def __init__(self, source: "CrossTrafficSource", order: int):
        self.source = source
        self.times: np.ndarray = _NO_TIMES  # float64, sorted
        self.sizes: np.ndarray = _NO_SIZES  # int64
        self.done = False  # True once the source's stop time truncated a batch
        self.order = order  # registration order: owner index, tie-break


class CrossAggregator:
    """Per-link k-way merger of bulk cross-traffic sources.

    The aggregator owns the link's flat admission queue — ``times`` /
    ``sizes`` / ``owner`` (float64 / int64 / intp arrays; ``owner`` is
    each entry's feed registration index), consumed by the link's fold
    (:meth:`Link._advance`) via ``idx`` — and the single refill-horizon
    event that extends it.
    Entries are merged only up to the *safe horizon* — the earliest
    last-buffered time over all still-active sources — so a source
    refilling later can never insert an arrival behind one already
    merged.

    Merges only append (the three arrays are views of doubling buffers),
    and :meth:`compact` is the only operation that shifts indices: the
    flow-transit domain's round-start snapshot of ``idx`` relies on
    that, so only :meth:`Link.sync` and round starts compact.  Read the
    attributes afresh after anything that may merge.
    """

    __slots__ = (
        "sim",
        "link",
        "feeds",
        "times",
        "sizes",
        "owner",
        "idx",
        "_event",
        "_merge_pending",
        "_horizon",
    )

    def __init__(self, sim: "Simulator", link: "Link"):
        self.sim = sim
        self.link = link
        self.feeds: list[_Feed] = []
        #: merged admission queue; ``idx`` is the first not-yet-admitted entry
        self.times = np.empty(_INITIAL_CAPACITY, dtype=np.float64)[:0]
        self.sizes = np.empty(_INITIAL_CAPACITY, dtype=np.int64)[:0]
        self.owner = np.empty(_INITIAL_CAPACITY, dtype=np.intp)[:0]
        self.idx = 0
        self._event = None  # pending refill-horizon ScheduledCall
        self._merge_pending = False  # a coalescing merge event is queued
        # Merged coverage: every arrival ≤ _horizon is final (safe-horizon
        # invariant).  -inf until the first merge, +inf once all feeds end.
        self._horizon = -math.inf

    @classmethod
    def attach(cls, sim: "Simulator", link: "Link") -> "CrossAggregator":
        """Get or create the aggregator bound to ``link``."""
        agg = link._agg
        if agg is None:
            agg = cls(sim, link)
            link._agg = agg
        return agg

    # ------------------------------------------------------------------
    # Queue storage
    # ------------------------------------------------------------------
    def _resize(self, n: int) -> None:
        """Point ``times``/``sizes``/``owner`` at the first ``n`` slots."""
        self.times = self.times.base[:n]
        self.sizes = self.sizes.base[:n]
        self.owner = self.owner.base[:n]

    def _append(self, t: np.ndarray, s: np.ndarray, o) -> None:
        """Append merged entries (``o``: owner index array or scalar)."""
        n = self.times.shape[0]
        m = n + t.shape[0]
        if m > self.times.base.shape[0]:
            cap = max(2 * self.times.base.shape[0], m)
            for name in ("times", "sizes", "owner"):
                old = getattr(self, name)
                buf = np.empty(cap, dtype=old.dtype)
                buf[:n] = old
                setattr(self, name, buf[:n])
        self._resize(m)
        self.times[n:] = t
        self.sizes[n:] = s
        self.owner[n:] = o

    def _take_pending(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Remove the unadmitted tail; return it split per feed."""
        idx = self.idx
        tail_t = self.times[idx:]
        tail_s = self.sizes[idx:]
        tail_o = self.owner[idx:]
        split = []
        for feed in self.feeds:
            sel = tail_o == feed.order
            split.append((tail_t[sel], tail_s[sel]))
        self._resize(0)
        self.idx = 0
        return split

    # ------------------------------------------------------------------
    # Source registration
    # ------------------------------------------------------------------
    def register(self, source: "CrossTrafficSource") -> _Feed:
        """Add a bulk source and fold it into the merged queue.

        Unadmitted merged entries are first rolled back into their feeds
        so that a source registered mid-run cannot see its early arrivals
        ordered behind other sources' already-merged later ones.  The
        actual merge is deferred to a zero-delay event so the paper's
        "ten sources per link" attach pattern merges once, not ten times
        (every source's first arrival lies strictly after registration,
        so no arrival can come due before that event runs).
        """
        self._unmerge()
        feed = _Feed(source, order=len(self.feeds))
        self.feeds.append(feed)
        if not self._merge_pending:
            self._merge_pending = True
            self.sim.schedule(0.0, self._deferred_merge)
        return feed

    def _deferred_merge(self) -> None:
        self._merge_pending = False
        self._merge()

    def _unmerge(self) -> None:
        """Return unadmitted merged entries to their feeds (rare path)."""
        self._horizon = -math.inf  # a new source invalidates merged coverage
        for feed, (ts, ss) in zip(self.feeds, self._take_pending()):
            if ts.shape[0]:
                feed.times = np.concatenate((ts, feed.times))
                feed.sizes = np.concatenate((ss, feed.sizes))

    # ------------------------------------------------------------------
    # Merge machinery
    # ------------------------------------------------------------------
    def _merge(self) -> None:
        """Merge feed entries up to the safe horizon; reschedule the event.

        The merge is a stable argsort over the feeds' due prefixes,
        concatenated in registration order: sort stability then orders
        exact-time ties by registration, the same tie-break a (time,
        order)-keyed heap would apply — and the vectorized sort is an
        order of magnitude cheaper than per-entry heap operations.
        """
        for feed in self.feeds:
            if not feed.done and not feed.times.shape[0]:
                feed.source._bulk_fill(feed)
        horizons = [float(feed.times[-1]) for feed in self.feeds if not feed.done]
        safe = min(horizons) if horizons else math.inf
        self._horizon = safe
        parts_t: list[np.ndarray] = []
        parts_s: list[np.ndarray] = []
        orders: list[int] = []
        for feed in self.feeds:
            ft = feed.times
            if ft.shape[0] and ft[0] <= safe:
                cut = int(ft.searchsorted(safe, side="right"))
                parts_t.append(ft[:cut])
                parts_s.append(feed.sizes[:cut])
                orders.append(feed.order)
                feed.times = ft[cut:]
                feed.sizes = feed.sizes[cut:]
        if parts_t:
            mt, ms, part_idx = kernels.merge_parts(
                parts_t, parts_s, self.sim.vector
            )
            # Single contributing source (single-source links, and every
            # horizon where only the binding feed refilled past the
            # others' heads): its due prefix is spliced wholesale.
            owner = orders[0] if part_idx is None else np.asarray(orders)[part_idx]
            self._append(mt, ms, owner)
        self._reschedule(safe if horizons else None)

    def arrays(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Merged slice ``[lo:hi)`` as ``(float64, int64)`` array views."""
        return self.times[lo:hi], self.sizes[lo:hi]

    def _reschedule(self, safe) -> None:
        """Point the single refill-horizon event at ``safe`` (None: none)."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        if safe is not None:
            self._event = self.sim.schedule_at(safe, self._extend)

    def _extend(self) -> None:
        """Refill-horizon event: generate the next batches and re-merge.

        A link nobody reads for a while (the tight link after a
        measurement ends) would grow its buffers with every refill, so a
        long unconsumed queue is folded first; folding earlier never
        changes the queue state a later sync point observes.
        """
        self._event = None
        if self.times.shape[0] - self.idx > _COMPACT_THRESHOLD:
            self.link.sync()
        self._merge()

    def extend_until(self, t: float) -> None:
        """Force merged coverage of every arrival with timestamp ≤ ``t``.

        Used by the flow-transit walk (:mod:`repro.netsim.flowtransit`),
        which needs the cross-arrival sequence up to the instant it admits
        at *now* rather than at the refill events.  Each :meth:`_merge`
        drains the binding feed and
        refills it on the next pass, so the safe horizon strictly advances
        until it covers ``t`` (or every feed ends).  RNG draw order per
        source is untouched — batches are generated in the same sequence,
        only earlier in host time.
        """
        while self._horizon < t:
            prev = self._horizon
            self._merge()
            if self._horizon <= prev:  # pragma: no cover - invariant guard
                from .engine import SimulationError

                raise SimulationError(
                    f"cross-traffic merge horizon stalled at {prev!r} while "
                    f"extending {self.link.name!r} to {t!r}"
                )

    # ------------------------------------------------------------------
    # Fold support / teardown
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Trim the consumed prefix of the merged arrays (amortized O(1))."""
        idx = self.idx
        if idx > _COMPACT_THRESHOLD:
            n = self.times.shape[0]
            m = n - idx
            for arr in (self.times, self.sizes, self.owner):
                arr[:m] = arr[idx:]  # overlapping copy: numpy buffers it
            self._resize(m)
            self.idx = 0

    def release(self) -> None:
        """Hand every source back to the per-packet path.

        Called by the link when it stops being bulk-eligible (a qdisc,
        drop hook, or delivery callback was installed mid-run).  Due
        arrivals must already have been folded by the caller; the
        remaining future arrivals — the unadmitted merged tail plus each
        feed's unmerged buffer — are returned to their sources, which
        replay them as ordinary scheduled events.  The sample path is
        unchanged: times and sizes are exactly the ones the per-packet
        path would have produced.
        """
        if self._event is not None:
            self._event.cancel()
            self._event = None
        pending = self._take_pending()
        feeds, self.feeds = self.feeds, []
        for feed, (ts, ss) in zip(feeds, pending):
            feed.source._resume_per_packet(
                ts.tolist() + feed.times.tolist(),
                ss.tolist() + feed.sizes.tolist(),
                feed.done,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CrossAggregator link={self.link.name} sources={len(self.feeds)} "
            f"pending={len(self.times) - self.idx}>"
        )
