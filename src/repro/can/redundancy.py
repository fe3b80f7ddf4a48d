"""Media redundancy — the "Columbus' egg" scheme of Rufino et al. (FTCS-29).

The CANELy system model assumes the channel never partitions permanently.
The paper enforces that assumption with an extremely simple media-redundancy
scheme: the bus runs over two (or more) physical media carrying the *same*
bits; a media selection unit in front of each controller couples them so the
node keeps operating as long as at least one medium that it can reach is
healthy.

Because the media carry identical traffic, the scheme needs no protocol
changes at all — which is exactly the paper's point. We model it as a
:class:`MediaSet` that tracks per-medium health and answers the only
question the bus needs: *is the channel available between this pair of
nodes?* A partition only occurs when every medium has failed, which the
fault model rules out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.errors import ConfigurationError


@dataclass
class Medium:
    """One physical medium (a twisted-pair cable)."""

    medium_id: int
    healthy: bool = True
    #: Nodes whose tap on this medium has failed (receiver-side fault).
    faulty_taps: Set[int] = field(default_factory=set)

    def reaches(self, node_id: int) -> bool:
        """True when this medium can deliver traffic to ``node_id``."""
        return self.healthy and node_id not in self.faulty_taps


class MediaSet:
    """The replicated media of one CANELy channel."""

    def __init__(self, media_count: int = 2) -> None:
        if media_count < 1:
            raise ConfigurationError("at least one medium is required")
        self._media: List[Medium] = [Medium(i) for i in range(media_count)]

    @property
    def media_count(self) -> int:
        return len(self._media)

    def fail_medium(self, medium_id: int) -> None:
        """Hard failure of an entire medium (e.g. cable cut)."""
        self._medium(medium_id).healthy = False

    def restore_medium(self, medium_id: int) -> None:
        """Repair a medium."""
        self._medium(medium_id).healthy = True

    def fail_tap(self, medium_id: int, node_id: int) -> None:
        """Fail one node's tap on one medium."""
        self._medium(medium_id).faulty_taps.add(node_id)

    def restore_tap(self, medium_id: int, node_id: int) -> None:
        """Repair one node's tap."""
        self._medium(medium_id).faulty_taps.discard(node_id)

    def _medium(self, medium_id: int) -> Medium:
        for medium in self._media:
            if medium.medium_id == medium_id:
                return medium
        raise ConfigurationError(f"no such medium: {medium_id}")

    # -- queries -----------------------------------------------------------------

    def channel_available(self, node_id: int) -> bool:
        """True while at least one medium reaches ``node_id``."""
        return any(medium.reaches(node_id) for medium in self._media)

    def partitioned(self, node_ids) -> bool:
        """True if some node is cut off from the channel entirely.

        The system model forbids this (no permanent channel failure); tests
        assert that single-medium failures never partition a dual-media
        channel.
        """
        return any(not self.channel_available(node_id) for node_id in node_ids)

    def healthy_media_count(self) -> int:
        """Number of fully healthy media."""
        return sum(1 for medium in self._media if medium.healthy)
