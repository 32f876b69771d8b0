"""Network paths: packet forwarding across a chain of links.

The paper's model (Section I-A) is a fixed, unique sequence of
store-and-forward links from a sender ``SND`` to a receiver ``RCV``.
:class:`PathNetwork` implements exactly that: a forward chain of
:class:`~repro.netsim.link.Link` objects, plus a reverse chain used by
acknowledgments, pathload's control channel, and ping replies.

Cross traffic enters and leaves at individual hops (the Fig. 4 topology), so
a cross-traffic packet's route is a single link, while probe/TCP packets
traverse the whole chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .engine import Simulator
from .link import Link
from .packet import Packet

__all__ = ["PathNetwork", "LinkSpec", "build_path", "sink"]


def sink(pkt: Packet) -> None:
    """Delivery handler that discards the packet (cross-traffic exit)."""


@dataclass(frozen=True)
class LinkSpec:
    """Declarative description of one hop, used by :func:`build_path`."""

    capacity_bps: float
    prop_delay: float = 0.0
    buffer_bytes: Optional[int] = None
    name: str = ""


class PathNetwork:
    """A unidirectional-pair network: forward chain and reverse chain.

    All links' delivery callbacks are wired to this network's advance
    routine; a packet carries its route (a tuple of links) and a final
    handler invoked on exit from the last hop.  A packet dropped by a
    drop-tail buffer simply never reaches its handler — receivers detect
    loss via sequence gaps or timeouts, as on a real path.
    """

    def __init__(
        self,
        sim: Simulator,
        forward_links: Sequence[Link],
        reverse_links: Sequence[Link],
    ):
        if not forward_links:
            raise ValueError("a path needs at least one forward link")
        self.sim = sim
        self.forward_links = tuple(forward_links)
        self.reverse_links = tuple(reverse_links)
        # Flow-transit support (repro.netsim.flowtransit): the live domain
        # carrying planned TCP flows and probe streams, plus
        # programmatic counters — flows planned, per-packet fallbacks by
        # reason, and (t_attach, t_detach, flow_id, segments) spans.
        self._flow_domain = None
        self._ft_flows = 0
        self._ft_fallbacks: dict[str, int] = {}
        self._ft_spans: list[tuple[float, float, str, int]] = []
        for link in (*self.forward_links, *self.reverse_links):
            link.deliver = self._advance

    # ------------------------------------------------------------------
    # Path properties
    # ------------------------------------------------------------------
    @property
    def capacity_bps(self) -> float:
        """End-to-end capacity: the narrow link's rate (paper Eq. 1)."""
        return min(link.capacity_bps for link in self.forward_links)

    @property
    def narrow_link(self) -> Link:
        """The forward link with minimum capacity."""
        return min(self.forward_links, key=lambda link: link.capacity_bps)

    def min_rtt(self, probe_size: int = 100) -> float:
        """Queueing-free round-trip time for a ``probe_size``-byte packet.

        Sum of propagation delays both ways plus store-and-forward
        serialization at every hop.
        """
        total = 0.0
        for link in (*self.forward_links, *self.reverse_links):
            total += link.prop_delay + link.transmission_time(probe_size)
        return total

    def one_way_prop_delay(self) -> float:
        """Total forward propagation delay (no queueing, no serialization)."""
        return sum(link.prop_delay for link in self.forward_links)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send_forward(
        self, pkt: Packet, handler: Callable[[Packet], None]
    ) -> bool:
        """Inject ``pkt`` at the first forward hop; ``handler`` runs on exit."""
        return self._inject(pkt, self.forward_links, handler)

    def send_reverse(
        self, pkt: Packet, handler: Callable[[Packet], None]
    ) -> bool:
        """Inject ``pkt`` at the first reverse hop (receiver-to-sender)."""
        return self._inject(pkt, self.reverse_links, handler)

    def inject_at(
        self,
        link: Link,
        pkt: Packet,
        handler: Callable[[Packet], None] = sink,
    ) -> bool:
        """Single-hop injection, used by per-link cross-traffic sources."""
        return self._inject(pkt, (link,), handler)

    def _inject(
        self,
        pkt: Packet,
        route: Sequence[Link],
        handler: Callable[[Packet], None],
    ) -> bool:
        pkt.route = tuple(route)
        pkt.hop = 0
        pkt.handler = handler
        pkt.created_at = self.sim.now
        return route[0].send(pkt)

    def flush(self) -> None:
        """Fold any pending bulk cross-traffic arrivals into every link.

        Links admit batched arrivals lazily (see
        :mod:`repro.netsim.bulkarrivals`); each sync point — ``send()``,
        backlog reads, stats access — folds automatically, so calling
        this is never required for correctness.  It is a convenience for
        end-of-run bookkeeping: after ``sim.run(until=T)``, one
        ``flush()`` brings every link's :class:`LinkStats` up to
        ``sim.now`` in a single pass.
        """
        for link in (*self.forward_links, *self.reverse_links):
            link.sync()

    def _advance(self, pkt: Packet) -> None:
        pkt.hop += 1
        if pkt.hop < len(pkt.route):
            pkt.route[pkt.hop].send(pkt)  # drop ⇒ packet silently vanishes
        else:
            pkt.delivered_at = self.sim.now
            pkt.handler(pkt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PathNetwork {len(self.forward_links)} fwd hops, "
            f"C={self.capacity_bps / 1e6:.2f}Mb/s>"
        )


def build_path(
    sim: Simulator,
    forward: Sequence[LinkSpec],
    reverse: Optional[Sequence[LinkSpec]] = None,
    reverse_capacity_bps: float = 1e9,
) -> PathNetwork:
    """Construct a :class:`PathNetwork` from declarative link specs.

    If ``reverse`` is omitted, the reverse path is a single uncongested
    high-capacity link whose propagation delay mirrors the total forward
    propagation delay — appropriate for experiments where only the forward
    path is loaded (all of the paper's experiments).
    """
    forward_links = [
        Link(
            sim,
            spec.capacity_bps,
            prop_delay=spec.prop_delay,
            buffer_bytes=spec.buffer_bytes,
            name=spec.name or f"fwd[{i}]",
        )
        for i, spec in enumerate(forward)
    ]
    if reverse is None:
        total_prop = sum(spec.prop_delay for spec in forward)
        reverse = [LinkSpec(reverse_capacity_bps, prop_delay=total_prop, name="rev")]
    reverse_links = [
        Link(
            sim,
            spec.capacity_bps,
            prop_delay=spec.prop_delay,
            buffer_bytes=spec.buffer_bytes,
            name=spec.name or f"rev[{i}]",
        )
        for i, spec in enumerate(reverse)
    ]
    return PathNetwork(sim, forward_links, reverse_links)
