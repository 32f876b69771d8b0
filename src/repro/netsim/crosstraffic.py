"""Cross-traffic generation.

Section V of the paper generates cross traffic at each hop from **ten random
sources** whose interarrivals are either exponential (Poisson traffic) or
Pareto with ``alpha = 1.9`` (infinite variance, heavy-tailed), and whose
packet sizes follow the classic Internet mix:

    40% 40-byte packets, 50% 550-byte, 10% 1500-byte  (mean 441 B).

This module reproduces that workload:

* :class:`PacketMix` — the size distribution;
* :class:`CrossTrafficSource` — one renewal-process source feeding one link;
* :func:`attach_cross_traffic` — the paper's "ten sources per link" helper.

Two data paths deliver the packets to the link, chosen automatically per
source:

* **Bulk (default when eligible).**  Each 4096-sample refill is converted
  into absolute arrival-time/size arrays — a cumulative sum over the very
  same vectorized gap draws, RNG chunk order untouched — and registered
  with the link's :class:`~repro.netsim.bulkarrivals.CrossAggregator`.
  The link folds the merged arrivals into its queue state lazily at its
  sync points, so open-loop background load costs **zero scheduler events
  per packet** (one per refill horizon), while every foreground packet
  observes a bit-identical queue.
* **Per-packet (fallback).**  One heap event plus O(1) Python work per
  packet.  Engaged automatically when the sample path could depend on
  per-packet interaction: a link with a ``qdisc`` (AQM must see every
  packet), a ``drop_hook``, or a rebound delivery callback (taps must see
  every packet).  ``bulk=False`` forces this path, e.g. for equivalence
  tests.

Modulated sources and the bulk path
-----------------------------------
A ``modulation=(interval, sigma)`` source is piecewise-constant: its
rate factor only changes at the segment boundaries ``start + k *
interval``.  The bulk generator therefore emits its batched arrival
arrays *per rate-factor segment*: it walks the same gap draws the
per-packet path would consume, divides each gap by the factor in force
at the previous arrival's instant, and draws each boundary's
mean-reverting factor at the exact position in the source's RNG stream
where the per-packet ``_modulate`` event would draw it (boundaries
interleave with refills in event order; see ``_mod_consume``).  Draws
may happen *earlier in host time* — the established ``extend_until``
contract — but per-source draw order, and therefore every arrival
time, is bit-identical.

One measure-zero caveat: when an arrival lands **exactly** on a segment
boundary, the bulk generator applies the boundary first (the arrival's
own time is unaffected; the *next* gap uses the post-boundary factor),
while the per-packet path's ordering depends on event insertion order.
For the continuous interarrival models a float-exact collision has
probability zero, matching the exact-tie merge caveat documented in
``bulkarrivals.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import kernels
from .bulkarrivals import CrossAggregator
from .engine import Simulator
from .link import Link
from .packet import Packet, PacketKind
from .path import PathNetwork

__all__ = [
    "PAPER_PACKET_MIX",
    "PacketMix",
    "CrossTrafficSource",
    "attach_cross_traffic",
]

#: The paper's cross-traffic packet-size distribution (Section V-A).
PAPER_PACKET_MIX: tuple[tuple[int, float], ...] = (
    (40, 0.40),
    (550, 0.50),
    (1500, 0.10),
)

_BATCH = 4096  # samples buffered per refill
_CHUNK = 512  # RNG draw granularity within a refill (see _refill)


class PacketMix:
    """A discrete packet-size distribution.

    Parameters
    ----------
    sizes_probs:
        Sequence of ``(size_bytes, probability)`` pairs.  Probabilities must
        sum to 1 (within float tolerance).
    """

    def __init__(self, sizes_probs: Sequence[tuple[int, float]] = PAPER_PACKET_MIX):
        sizes_probs = tuple(sizes_probs)
        if not sizes_probs:
            raise ValueError("packet mix must contain at least one size")
        total = sum(p for _s, p in sizes_probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"packet mix probabilities sum to {total}, expected 1")
        if any(s <= 0 for s, _p in sizes_probs):
            raise ValueError("packet sizes must be positive")
        self.sizes = np.array([s for s, _p in sizes_probs], dtype=np.int64)
        self.probs = np.array([p for _s, p in sizes_probs], dtype=np.float64)
        # ``Generator.choice(sizes, p=probs)`` inverts this normalized CDF
        # at ``random()`` draws; inverting it here consumes the identical
        # draws without choice()'s per-call validation of ``p``.
        self._cdf = self.probs.cumsum()
        self._cdf /= self._cdf[-1]

    @property
    def mean_size(self) -> float:
        """Mean packet size in bytes."""
        return float(np.dot(self.sizes, self.probs))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` packet sizes (``==`` ``rng.choice(sizes, n, p=probs)``)."""
        return self.sizes[self._cdf.searchsorted(rng.random(n), side="right")]

    @classmethod
    def constant(cls, size: int) -> "PacketMix":
        """A degenerate mix of a single packet size."""
        return cls(((size, 1.0),))


class CrossTrafficSource:
    """A single renewal-process traffic source feeding one link.

    Parameters
    ----------
    rate_bps:
        Long-run average offered load in bits per second.
    model:
        Interarrival model: ``"poisson"`` (exponential), ``"pareto"``
        (heavy-tailed with shape ``alpha``), or ``"cbr"`` (constant spacing,
        a fluid-like deterministic source).
    alpha:
        Pareto shape; the paper uses 1.9 (finite mean, infinite variance).
    start / stop:
        Activity window in simulated seconds (``stop=None`` ⇒ forever).
    modulation:
        Optional ``(interval, sigma)`` slow-timescale load modulation: every
        ``interval`` seconds the source's instantaneous rate is multiplied
        by a mean-reverting lognormal factor (clamped to [0.25, 2.5]).
        This models the minutes-scale *non-stationarity* of real Internet
        load on top of the packet-scale burstiness — without it, the
        avail-bw process is stationary at every timescale, which real paths
        (Section VI) are not.  The long-run average rate stays ``rate_bps``.
        Modulation is piecewise-constant between boundaries, so a modulated
        source is bulk-eligible: arrivals are batch-generated per
        rate-factor segment (see the module docstring).
    bulk:
        ``None`` (default) selects the event-elided bulk path whenever the
        source and link are eligible; ``False`` forces the per-packet
        path; ``True`` requests bulk but still falls back when ineligible.

    ``packets_sent`` / ``bytes_sent`` count packets *offered to the link*
    (admitted to its queue or dropped by it).  On the bulk path they
    advance as arrivals are folded, and reading either property folds the
    link first — so any consistent read point sees the same values the
    per-packet path would report.
    """

    def __init__(
        self,
        sim: Simulator,
        network: PathNetwork,
        link: Link,
        rate_bps: float,
        rng: np.random.Generator,
        model: str = "pareto",
        alpha: float = 1.9,
        mix: Optional[PacketMix] = None,
        start: float = 0.0,
        stop: Optional[float] = None,
        name: str = "cross",
        modulation: Optional[tuple[float, float]] = None,
        bulk: Optional[bool] = None,
    ):
        if rate_bps < 0:
            raise ValueError(f"rate must be >= 0, got {rate_bps}")
        if model not in ("poisson", "pareto", "cbr"):
            raise ValueError(f"unknown interarrival model {model!r}")
        if model == "pareto" and alpha <= 1.0:
            raise ValueError(f"Pareto alpha must exceed 1 for a finite mean, got {alpha}")
        self.sim = sim
        self.network = network
        self.link = link
        self.rate_bps = float(rate_bps)
        self.rng = rng
        self.model = model
        self.alpha = float(alpha)
        self.mix = mix if mix is not None else PacketMix()
        self.stop = stop
        self.name = name
        self._packets_sent = 0
        self._bytes_sent = 0
        # Refilled in vectorized batches, then walked as plain Python lists:
        # indexing an ndarray yields numpy scalars, whose arithmetic in the
        # per-packet path is several times slower than float/int.
        self._sizes: list[int] = []
        self._gaps: list[float] = []
        self._idx = 0
        #: mean interarrival implied by the rate and mean packet size
        self.mean_gap = (
            float("inf")
            if rate_bps == 0
            else self.mix.mean_size * 8.0 / self.rate_bps
        )
        self._mod_factor = 1.0
        self.modulation = modulation
        # Segment-boundary chain: boundaries sit at exactly
        # ``_mod_anchor + k * interval`` (no float accumulation drift), on
        # both data paths.  ``_mod_next_b`` is the first boundary whose
        # factor draw has not been consumed yet; +inf once the chain dies
        # at ``stop`` (the per-packet event returns without rescheduling).
        self._mod_anchor = float(start)
        self._mod_k = 0
        self._mod_next_b = float("inf")
        # Bulk-path state (see _bulk_fill / _resume_per_packet).
        self._feed = None
        self._bulk_clock = float(start)
        self._bulk_first = True
        self._gen_packets = 0  # arrivals generated into the bulk pipeline
        self._gen_bytes = 0
        self._tail_times: list[float] = []
        self._tail_sizes: list[int] = []
        self._tail_idx = 0
        self._tail_exhausted = False
        if modulation is not None:
            interval, sigma = modulation
            if interval <= 0 or sigma < 0:
                raise ValueError(
                    f"modulation needs interval > 0 and sigma >= 0, got {modulation}"
                )
            self._mod_next_b = float(start)
        if rate_bps > 0 and bulk is not False and self._bulk_eligible():
            # Bulk sources consume boundary draws inside _bulk_fill; no
            # per-boundary events exist until a decommission restarts the
            # chain in _resume_per_packet.
            self._feed = CrossAggregator.attach(sim, link).register(self)
        else:
            if modulation is not None:
                sim.schedule_at(start, self._modulate)
            if rate_bps > 0:
                first_gap = self._warmup_offset()
                sim.schedule_at(start + first_gap, self._arrival)

    @property
    def is_bulk(self) -> bool:
        """True while this source feeds the link via the event-elided path."""
        return self._feed is not None

    @property
    def packets_sent(self) -> int:
        """Packets offered to the link so far (reading folds bulk arrivals)."""
        if self._feed is not None:
            return self._gen_packets - self._pending_counts()[0]
        return self._packets_sent

    @property
    def bytes_sent(self) -> int:
        """Bytes offered to the link so far (reading folds bulk arrivals)."""
        if self._feed is not None:
            return self._gen_bytes - self._pending_counts()[1]
        return self._bytes_sent

    def _pending_counts(self) -> tuple[int, int]:
        """(packets, bytes) generated but not yet offered to the link.

        The fold loop deliberately does no per-source bookkeeping; a
        counter read instead folds due arrivals and subtracts what is
        still pending — this source's share of the aggregator's merged
        tail (selected by its owner index) plus its own unmerged feed
        buffer.  Reads are rare (tests, end-of-run accounting); folds are
        the hot path.
        """
        self.link.sync()
        feed = self._feed
        n = feed.sizes.shape[0]
        nbytes = int(feed.sizes.sum())
        agg = self.link._agg
        if agg is not None:
            lo = agg.idx
            got = kernels.masked_pending(
                agg.owner[lo:], agg.sizes[lo:], feed.order, self.sim.vector
            )
            n += got[0]
            nbytes += got[1]
        return n, nbytes

    def _bulk_eligible(self) -> bool:
        """Whether the event-elided path reproduces this source exactly.

        Two things disqualify a source: a link *qdisc* or *drop_hook*
        (both must observe every packet), and a link whose delivery
        callback is not the owning network's forwarding routine (a tap or
        custom handler must see every cross packet exit).  Modulation does
        *not* disqualify: rate factors are piecewise-constant, so
        ``_bulk_fill`` generates per-segment batches with the boundary
        draws taken at their exact positions in the RNG stream.
        """
        link = self.link
        return (
            link.qdisc is None
            and link.drop_hook is None
            and link.deliver == self.network._advance
        )

    def _warmup_offset(self) -> float:
        """Randomize the first arrival so sources are not phase-aligned."""
        if self.model == "cbr":
            return float(self.rng.uniform(0.0, self.mean_gap))
        return float(self._next_gap())

    def _draw(self) -> tuple[np.ndarray, np.ndarray]:
        """One refill's interarrival gaps and sizes (float64, int64)."""
        mean = self.mean_gap
        rng = self.rng
        gaps = np.empty(_BATCH, dtype=np.float64)
        sizes = np.empty(_BATCH, dtype=np.int64)
        # Draw in _CHUNK-sized sub-batches, alternating gaps and sizes: the
        # RNG stream consumption order then depends only on _CHUNK, so the
        # buffer size amortizes refill overhead without perturbing the
        # sample path of any seeded experiment.
        for k in range(0, _BATCH, _CHUNK):
            if self.model == "poisson":
                gaps[k:k + _CHUNK] = rng.exponential(mean, size=_CHUNK)
            elif self.model == "pareto":
                gaps[k:k + _CHUNK] = rng.pareto(self.alpha, size=_CHUNK)
            sizes[k:k + _CHUNK] = self.mix.sample(rng, _CHUNK)
        if self.model == "pareto":
            # numpy's Generator.pareto draws Lomax samples (x_m = 1
            # shifted to zero); interarrival = x_m * (1 + lomax) has
            # mean x_m * alpha / (alpha - 1).
            gaps += 1.0
            gaps *= mean * (self.alpha - 1.0) / self.alpha
        elif self.model == "cbr":
            gaps.fill(mean)
        return gaps, sizes

    def _refill(self) -> None:
        """Buffer one refill as plain lists for the per-packet path."""
        gaps, sizes = self._draw()
        self._gaps = gaps.tolist()
        self._sizes = sizes.tolist()
        self._idx = 0

    def _ensure_buffered(self) -> None:
        """Refill once the current batch is exhausted (shared by the gap and
        size readers — the single refill-exhaustion check)."""
        if self._idx >= len(self._sizes):
            self._refill()

    def _next_gap(self) -> float:
        self._ensure_buffered()
        return self._gaps[self._idx]

    # ------------------------------------------------------------------
    # Per-packet data path
    # ------------------------------------------------------------------
    def _arrival(self) -> None:
        now = self.sim.now
        if self.stop is not None and now >= self.stop:
            return
        self._ensure_buffered()
        size = self._sizes[self._idx]
        pkt = Packet(size, flow_id=self.name, kind=PacketKind.CROSS)
        self.network.inject_at(self.link, pkt)
        self._packets_sent += 1
        self._bytes_sent += size
        self._idx += 1
        self.sim.schedule(self._next_gap() / self._mod_factor, self._arrival)

    def _modulate(self) -> None:
        """Mean-reverting lognormal random walk of the instantaneous rate.

        Rescheduled at the exactly representable ``anchor + k * interval``
        (not ``now + interval``), so segment boundaries carry no float
        accumulation drift and the bulk generator's ``_mod_consume`` lands
        on bit-identical boundary instants.
        """
        if self.stop is not None and self.sim.now >= self.stop:
            self._mod_next_b = float("inf")  # chain dies permanently
            return
        interval, sigma = self.modulation  # type: ignore[misc]
        # pull the log-factor halfway back to 0, then perturb
        log_factor = 0.5 * float(np.log(self._mod_factor))
        log_factor += float(self.rng.normal(0.0, sigma))
        self._mod_factor = float(np.clip(np.exp(log_factor), 0.25, 2.5))
        self._mod_k += 1
        self._mod_next_b = self._mod_anchor + self._mod_k * interval
        self.sim.schedule_at(self._mod_next_b, self._modulate)

    def _mod_consume(self, limit: float, inclusive: bool = True) -> None:
        """Consume every boundary draw up to ``limit`` (batch twin of the
        ``_modulate`` event chain).

        Applies the identical float expressions in the identical RNG
        stream positions; ``inclusive`` selects ``b <= limit`` (the bulk
        generator's boundary-first tie rule) vs ``b < limit`` (used by
        ``_resume_per_packet``, where a boundary at exactly *now* must
        stay an event because the decommission fired first).
        """
        b = self._mod_next_b
        if (b > limit) if inclusive else (b >= limit):
            return
        interval, sigma = self.modulation  # type: ignore[misc]
        stop = self.stop
        anchor = self._mod_anchor
        k = self._mod_k
        rng = self.rng
        f = self._mod_factor
        while (b <= limit) if inclusive else (b < limit):
            if stop is not None and b >= stop:
                b = float("inf")  # chain dies permanently, factor frozen
                break
            log_factor = 0.5 * float(np.log(f))
            log_factor += float(rng.normal(0.0, sigma))
            f = float(np.clip(np.exp(log_factor), 0.25, 2.5))
            k += 1
            b = anchor + k * interval
        self._mod_factor = f
        self._mod_k = k
        self._mod_next_b = b

    # ------------------------------------------------------------------
    # Bulk data path
    # ------------------------------------------------------------------
    def _bulk_fill(self, feed) -> None:
        """Append one refill horizon of absolute arrivals to ``feed``.

        The arrival times are the identical floating-point sums the
        per-packet path computes: ``Simulator.schedule(gap, ...)`` adds
        ``gap`` to the current arrival's timestamp, and so does the
        seeded prefix sum here.  RNG consumption order — warmup draw,
        then alternating gap/size chunks per refill, with modulation
        boundary draws interleaved at their event positions — is
        byte-identical.
        """
        if self.modulation is not None:
            times, sizes = self._segmented_times()
        else:
            times, sizes = self._stationary_times()
        stop = self.stop
        if stop is not None and times.shape[0] and times[-1] >= stop:
            # The per-packet path returns (without rescheduling) at the
            # first arrival >= stop; truncate there and finish the feed.
            keep = int(times.searchsorted(stop, side="left"))
            times = times[:keep]
            sizes = sizes[:keep]
            feed.done = True
        self._gen_packets += times.shape[0]
        self._gen_bytes += int(sizes.sum())
        if feed.times.shape[0]:
            feed.times = np.concatenate((feed.times, times))
            feed.sizes = np.concatenate((feed.sizes, sizes))
        else:
            feed.times = times
            feed.sizes = sizes

    def _stationary_times(self) -> tuple[np.ndarray, np.ndarray]:
        """One unmodulated refill horizon of absolute arrival times."""
        skip_first_gap = False
        if self._bulk_first:
            self._bulk_first = False
            if self.model == "cbr":
                # Mirrors _warmup_offset: the uniform phase offset replaces
                # the first buffered gap (which the per-packet path never
                # consumes for cbr either).
                self._bulk_clock += float(self.rng.uniform(0.0, self.mean_gap))
                skip_first_gap = True
        # The whole batch is consumed by this horizon; the per-packet
        # buffers stay empty, so a later switch to per-packet refills.
        gaps, sizes = self._draw()
        # The prefix-sum kernel rounds left-to-right, one addition per
        # element — bit-identical to the per-packet path's running
        # ``t += gap`` — on both its numpy and scalar paths.
        if skip_first_gap:
            times = kernels.prefix_sum(self._bulk_clock, gaps[1:], self.sim.vector)
        else:
            times = kernels.prefix_sum(self._bulk_clock, gaps, self.sim.vector)[1:]
        self._bulk_clock = float(times[-1])
        return times, sizes

    def _segmented_times(self) -> tuple[np.ndarray, np.ndarray]:
        """One modulated refill horizon, generated per rate-factor segment.

        Walks the batch's gap draws exactly as the per-packet path's
        event chain would: each gap is divided by the factor in force at
        the *previous* arrival's instant (``schedule(gap / factor)``
        happens at that event), and each boundary's factor draw is
        consumed once the walk reaches it — the same position in the RNG
        stream the ``_modulate`` event occupies.  Within a segment the
        arrival times are one seeded prefix sum over ``gap / factor``
        (elementwise division, then left-to-right adds — the identical
        float expressions, in order).
        """
        t = self._bulk_clock
        parts: list[np.ndarray] = []
        if self._bulk_first:
            self._bulk_first = False
            if self.model == "cbr":
                t += float(self.rng.uniform(0.0, self.mean_gap))
                # Boundaries up to the first arrival fire before its event
                # (and before the first refill, which the per-packet path
                # performs at that event).
                self._mod_consume(t)
                gaps, sizes = self._draw()
            else:
                gaps, sizes = self._draw()
                # The first arrival is scheduled at construction from the
                # raw first gap — never factor-divided (no boundary has
                # fired when it is computed).
                t = t + float(gaps[0])
            parts.append(np.array([t]))
            idx = 1  # gaps[0] consumed (or replaced by the cbr phase)
        else:
            # A boundary at or before the previous batch's last arrival
            # may be unconsumed (its crossing arrival closed that batch);
            # per-packet it fires before that arrival's event — which is
            # where this refill happens — so consume it before drawing.
            self._mod_consume(t)
            gaps, sizes = self._draw()
            idx = 0
        n = gaps.shape[0]
        mean_gap = self.mean_gap
        vector = self.sim.vector
        prefix_sum = kernels.prefix_sum
        while idx < n:
            # Boundaries at or before the last emitted arrival have fired
            # (boundary-first on an exact tie; see the module docstring).
            self._mod_consume(t)
            f = self._mod_factor
            b = self._mod_next_b
            if b == float("inf"):
                # Chain dead (stop reached): the factor is frozen.
                seg = prefix_sum(t, gaps[idx:] / f, vector)
                parts.append(seg[1:])
                t = float(seg[-1])
                break
            # Generate this segment's window: everything up to and
            # including the first arrival at or past the boundary (that
            # arrival's time was computed from a predecessor before the
            # boundary, so it still uses factor ``f``).
            est = int((b - t) * f / mean_gap * 1.25) + 16
            remaining = n - idx
            if est > remaining:
                est = remaining
            seg = prefix_sum(t, gaps[idx:idx + est] / f, vector)
            cut = int(seg.searchsorted(b, side="left"))  # seg[0] == t < b
            keep = cut if cut <= est else est
            parts.append(seg[1:keep + 1])
            t = float(seg[keep])
            idx += keep
        self._bulk_clock = t
        return np.concatenate(parts), sizes

    def _resume_per_packet(
        self, times: list[float], sizes: list[int], exhausted: bool
    ) -> None:
        """Switch back to the per-packet path (bulk decommissioning).

        ``times``/``sizes`` are this source's not-yet-admitted future
        arrivals, exactly as the per-packet path would have generated
        them; they are replayed as ordinary scheduled events.  Once the
        tail drains, generation continues from the next RNG refill —
        the same stream position the per-packet path would have reached.
        """
        self._feed = None
        # Everything generated minus the returned tail has been folded into
        # the link; resume the eager per-packet counters from there.
        self._packets_sent = self._gen_packets - len(times)
        self._bytes_sent = self._gen_bytes - sum(sizes)
        self._tail_times = times
        self._tail_sizes = sizes
        self._tail_idx = 0
        self._tail_exhausted = exhausted
        if times:
            self.sim.schedule_at(times[0], self._tail_arrival)
            if self.modulation is not None and not exhausted:
                # Boundary draws up to the tail's end were consumed when
                # its batch was generated (leftovers here); restart the
                # event chain for the boundaries beyond it.
                self._mod_consume(self._bulk_clock)
                if self._mod_next_b != float("inf"):
                    self.sim.schedule_at(self._mod_next_b, self._modulate)
        elif not exhausted:
            if self._bulk_first:
                # Decommissioned before the first batch was ever generated:
                # start exactly as the per-packet constructor would have.
                self._bulk_first = False
                first_gap = self._warmup_offset()
                if self.modulation is not None:
                    self._mod_consume(self.sim.now, inclusive=False)
                    if self._mod_next_b != float("inf"):
                        self.sim.schedule_at(self._mod_next_b, self._modulate)
                self.sim.schedule_at(self._bulk_clock + first_gap, self._arrival)
            else:
                if self.modulation is not None:
                    # Boundaries up to the last folded arrival were consumed
                    # with its batch; the refill below happens (per-packet)
                    # at that arrival's event, before any later boundary.
                    self._mod_consume(self._bulk_clock)
                gap = self._next_gap() / self._mod_factor
                if self.modulation is not None:
                    # Boundaries that per-packet fired between the last
                    # arrival and now draw here; the rest become events.
                    self._mod_consume(self.sim.now, inclusive=False)
                    if self._mod_next_b != float("inf"):
                        self.sim.schedule_at(self._mod_next_b, self._modulate)
                self.sim.schedule_at(self._bulk_clock + gap, self._arrival)

    def _tail_arrival(self) -> None:
        now = self.sim.now
        if self.stop is not None and now >= self.stop:
            return
        i = self._tail_idx
        size = self._tail_sizes[i]
        pkt = Packet(size, flow_id=self.name, kind=PacketKind.CROSS)
        self.network.inject_at(self.link, pkt)
        self._packets_sent += 1
        self._bytes_sent += size
        self._tail_idx = i = i + 1
        if i < len(self._tail_times):
            self.sim.schedule_at(self._tail_times[i], self._tail_arrival)
        elif not self._tail_exhausted:
            self._tail_times = []
            self._tail_sizes = []
            self.sim.schedule(self._next_gap() / self._mod_factor, self._arrival)


def attach_cross_traffic(
    sim: Simulator,
    network: PathNetwork,
    link: Link,
    rate_bps: float,
    rng: np.random.Generator,
    n_sources: int = 10,
    model: str = "pareto",
    alpha: float = 1.9,
    mix: Optional[PacketMix] = None,
    start: float = 0.0,
    stop: Optional[float] = None,
    modulation: Optional[tuple[float, float]] = None,
    bulk: Optional[bool] = None,
) -> list[CrossTrafficSource]:
    """Attach the paper's per-link workload: ``n_sources`` independent sources.

    The aggregate offered load is ``rate_bps``, split evenly; each source
    gets an independent RNG stream spawned from ``rng`` so that changing one
    source's draws cannot perturb another's.  ``bulk`` selects the data
    path per source (see :class:`CrossTrafficSource`).
    """
    if n_sources <= 0:
        raise ValueError(f"n_sources must be positive, got {n_sources}")
    children = rng.spawn(n_sources)
    return [
        CrossTrafficSource(
            sim,
            network,
            link,
            rate_bps / n_sources,
            child,
            model=model,
            alpha=alpha,
            mix=mix,
            start=start,
            stop=stop,
            name=f"cross-{link.name}-{i}",
            modulation=modulation,
            bulk=bulk,
        )
        for i, child in enumerate(children)
    ]
