"""Event-elided probe streams: SLoPS streams in the flow-transit domain.

With background cross traffic event-elided by the bulk-arrivals path,
the event budget of every pathload experiment is dominated by the probe
streams themselves — K send events plus K x H per-hop delivery events
per stream.  The paper's path model makes those elidable too: a periodic
stream through FIFO store-and-forward hops (Section III-A) is a per-hop
Lindley recursion

    start_i = max(arrival_i, free_at);  done_i = start_i + size*8/C

against the cross-traffic arrivals each link's
:class:`~repro.netsim.bulkarrivals.CrossAggregator` already holds as
sorted arrays.  Streams ride one planner, the
:class:`~repro.netsim.flowtransit.FlowTransitDomain`: a solo probe
stream is a domain with zero flows, swept hop by hop with one
:meth:`Link._advance <repro.netsim.link.Link._advance>` fold per hop,
and a stream concurrent with TCP flows is one more passenger of the
same walk.  :func:`plan_stream` is the probe channel's seam into it.

Determinism contract
--------------------
Every observable is bit-identical to the per-packet path: the walk uses
the same floating-point expressions in the same order as
``Link.send()``/``Link._advance()``, admits straight into the links' queue
state before the next real event (so ``LinkStats`` and monitor samples
agree at every read instant), and clock/jitter RNG draw *order* is
unchanged.  Engine digests are reproducible within a mode; across modes
they necessarily differ (events are elided), exactly as for the bulk
cross traffic.  See ``docs/performance.md``.

Fallback
--------
A stream takes the per-packet path (same sample path) when
:func:`~repro.netsim.flowtransit.transit_refusal` refuses the network —
a full tracer, a clock that carries an RNG, a hook/qdisc/rebound
delivery callback or a capacity schedule on any link — and is rewound
onto it when the domain dissolves mid-stream (link decommission, a
capacity schedule installed, a full tracer attached).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .flowtransit import StreamPlan, _warn_tracer_fallback, domain_of, transit_refusal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..transport.probe import ProbeChannel, _StreamRun

__all__ = [
    "StreamPlan",
    "STREAM_FALLBACK_REASONS",
    "plan_stream",
]

#: Every reason ``repro_fastpath_fallback_total`` may carry, for
#: declared-but-zero metric export (docs/observability.md).
#: ``foreground-active``, ``foreign-send`` and ``stream-overlap`` are
#: retired — the domain is exact beside per-packet traffic — and stay
#: declared at zero until the next benchmark refresh drops them.
STREAM_FALLBACK_REASONS: tuple[str, ...] = (
    "disabled",
    "foreground-active",
    "impure-clock",
    "link-config",
    "foreign-send",
    "link-decommission",
    "stream-overlap",
    "tracer",
)


def plan_stream(
    channel: "ProbeChannel", run: "_StreamRun", done_event
) -> tuple[Optional[StreamPlan], Optional[str]]:
    """Carry ``run`` in the network's flow-transit domain; return
    ``(plan, reason)``.

    On success the stream is adopted (the domain walks its sends and
    deliveries) and ``(plan, None)`` is returned.  On refusal returns
    ``(None, reason)`` and the caller takes the per-packet path; the
    sample path is identical either way.
    """
    network = channel.network
    reason = transit_refusal(
        network, (channel.sender_clock, channel.receiver_clock)
    )
    if reason is not None:
        if reason == "tracer":
            _warn_tracer_fallback()
        # A capacity schedule is a link configuration the walk refuses.
        return None, "link-config" if reason == "capacity-schedule" else reason
    return domain_of(network).adopt_stream(channel, run, done_event), None
