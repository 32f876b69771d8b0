"""A ping-like RTT prober.

Sections VII and VIII of the paper sample the path RTT with ``ping`` every
second (Fig. 16) or every 100 ms (Fig. 18) to expose queue build-up at the
tight link.  :class:`Pinger` reproduces that: small echo packets travel the
forward path, are reflected onto the reverse path, and the sender records
``(send_time, rtt)`` pairs; unanswered probes count as lost after a
timeout.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..netsim.engine import Simulator
from ..netsim.packet import Packet, PacketKind
from ..netsim.path import PathNetwork

__all__ = ["Pinger"]

_ping_ids = itertools.count()


class Pinger:
    """Periodic RTT measurement over a path.

    Parameters
    ----------
    interval:
        Time between echo requests (paper: 1 s in Fig. 16, 100 ms in
        Fig. 18).
    packet_size:
        Echo request/reply size in bytes (classic ping payload ≈ 64 B).
    timeout:
        After this long an unanswered probe is recorded as lost.
    """

    def __init__(
        self,
        sim: Simulator,
        network: PathNetwork,
        interval: float = 1.0,
        packet_size: int = 64,
        timeout: float = 2.0,
        start: float = 0.0,
        stop: Optional[float] = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.sim = sim
        self.network = network
        self.interval = float(interval)
        self.packet_size = int(packet_size)
        self.timeout = float(timeout)
        self.stop = stop
        self.flow_id = f"ping-{next(_ping_ids)}"
        #: (send time, RTT) pairs of answered probes
        self.rtts: list[tuple[float, float]] = []
        self.sent = 0
        self.lost = 0
        self._outstanding: dict[int, float] = {}  # seq -> send time
        sim.schedule_at(start, self._send_probe)

    # ------------------------------------------------------------------
    def _send_probe(self) -> None:
        now = self.sim.now
        if self.stop is not None and now >= self.stop:
            return
        seq = self.sent
        self.sent += 1
        self._outstanding[seq] = now
        pkt = Packet(
            self.packet_size,
            flow_id=self.flow_id,
            seq=seq,
            kind=PacketKind.PING,
        )
        self.network.send_forward(pkt, self._echo)
        self.sim.schedule(self.timeout, self._check_timeout, seq)
        self.sim.schedule(self.interval, self._send_probe)

    def _echo(self, pkt: Packet) -> None:
        reply = Packet(
            self.packet_size,
            flow_id=self.flow_id,
            seq=pkt.seq,
            kind=PacketKind.PONG,
        )
        self.network.send_reverse(reply, self._reply_arrived)

    def _reply_arrived(self, pkt: Packet) -> None:
        sent_at = self._outstanding.pop(pkt.seq, None)
        if sent_at is None:
            return  # answered after timeout; already counted as lost
        self.rtts.append((sent_at, self.sim.now - sent_at))

    def _check_timeout(self, seq: int) -> None:
        if self._outstanding.pop(seq, None) is not None:
            self.lost += 1

    # ------------------------------------------------------------------
    def rtts_between(self, t_from: float, t_to: float) -> list[float]:
        """RTT samples whose probe was sent within ``[t_from, t_to)``."""
        return [rtt for t, rtt in self.rtts if t_from <= t < t_to]

    def max_rtt(self) -> float:
        """Largest observed RTT (0 if none)."""
        return max((rtt for _t, rtt in self.rtts), default=0.0)
