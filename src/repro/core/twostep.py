"""COPSS two-step dissemination (the original COPSS's large-content mode).

Paper §III-B: "the one-step model of COPSS, where the data is directly
pushed to the subscribers, is used by G-COPSS" because gaming packets are
tiny.  The *two-step* model COPSS offers for large content pushes only a
small **snippet** (announcement) through the RP multicast tree; each
interested subscriber then pulls the full object query/response style,
letting Content Stores absorb the fan-out near the receivers.

This module implements two-step publishing on top of the existing
G-COPSS engine so the trade-off can be measured (the
``test_ablation_twostep`` benchmark): one-step wins for the paper's
50-350 B updates, two-step wins once objects grow past a few KB and
subscribers cluster behind shared edges.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

from repro.core.engine import GCopssHost
from repro.core.packets import MulticastPacket
from repro.names import Name
from repro.ndn.packets import Data, Interest

__all__ = ["TwoStepPublisher", "TwoStepSubscriber", "SNIPPET_BYTES"]

#: Wire size of a snippet announcement's body (content id + digest).
SNIPPET_BYTES = 20

_content_seq = itertools.count(1)


def content_name(publisher: str, content_id: int) -> Name:
    """NDN name under which a two-step payload is served."""
    return Name(["content", publisher, str(content_id)])


class TwoStepPublisher:
    """Publisher-side two-step support bound to a G-COPSS host.

    ``publish(cd, payload_size)`` multicasts a snippet under ``cd`` and
    registers the payload under ``/content/<host>/<id>`` for retrieval.
    """

    def __init__(self, host: GCopssHost, freshness_ms: float = 10_000.0) -> None:
        self.host = host
        self.freshness_ms = freshness_ms
        self._payloads: Dict[int, int] = {}
        self.snippets_published = 0
        self.payloads_served = 0
        host.serve(Name(["content", host.name]), self._serve_payload)

    def publish(self, cd: "Name | str", payload_size: int) -> int:
        """Announce ``payload_size`` bytes of content under ``cd``.

        Returns the content id subscribers will pull.
        """
        if payload_size < 0:
            raise ValueError(f"negative payload size: {payload_size}")
        content_id = next(_content_seq)
        self._payloads[content_id] = payload_size
        snippet = MulticastPacket(
            cd=Name.coerce(cd),
            payload_size=SNIPPET_BYTES,
            publisher=self.host.name,
            object_id=content_id,
            created_at=self.host.sim.now,
        )
        self.host.stats.published += 1
        self.host.send(self.host.access_face, snippet)
        self.snippets_published += 1
        return content_id

    def _serve_payload(self, interest: Interest) -> Optional[Data]:
        try:
            content_id = int(interest.name.leaf)
        except ValueError:
            return None
        size = self._payloads.get(content_id)
        if size is None:
            return None
        self.payloads_served += 1
        return Data(
            name=interest.name,
            payload_size=size,
            freshness=self.freshness_ms,
            content=("payload", content_id),
            created_at=self.host.sim.now,
        )


class TwoStepSubscriber:
    """Subscriber-side two-step support: pull payloads snippets announce.

    Wraps a host's update stream; snippets trigger an Interest for the
    announced content, and ``on_content(host, cd, content_id, latency_ms)``
    fires when the payload lands (latency measured from the snippet's
    publish stamp, i.e. the full two-step latency).

    ``wants(cd, content_id)`` is the *filter* that motivates two-step in
    COPSS ("users can select and filter the information desired"): only
    announcements it accepts are pulled, so uninterested subscribers cost
    one snippet instead of one payload.
    """

    def __init__(
        self,
        host: GCopssHost,
        on_content: Optional[Callable[[GCopssHost, Name, int, float], None]] = None,
        interest_lifetime_ms: float = 4000.0,
        wants: Optional[Callable[[Name, int], bool]] = None,
    ) -> None:
        self.host = host
        self.on_content = on_content
        self.interest_lifetime_ms = interest_lifetime_ms
        self.wants = wants
        self.snippets_seen = 0
        self.snippets_filtered = 0
        self.payloads_received = 0
        self.timeouts = 0
        host.on_update.append(self._on_snippet)

    def _on_snippet(self, host: GCopssHost, snippet: MulticastPacket) -> None:
        if snippet.publisher == host.name or snippet.object_id < 0:
            return
        self.snippets_seen += 1
        if self.wants is not None and not self.wants(snippet.cd, snippet.object_id):
            self.snippets_filtered += 1
            return
        name = content_name(snippet.publisher, snippet.object_id)
        published_at = snippet.created_at

        def got(data: Data, cd=snippet.cd, cid=snippet.object_id) -> None:
            self.payloads_received += 1
            if self.on_content is not None:
                self.on_content(host, cd, cid, host.sim.now - published_at)

        host.express_interest(
            name,
            on_data=got,
            lifetime=self.interest_lifetime_ms,
            on_timeout=lambda _n: self._timed_out(),
        )

    def _timed_out(self) -> None:
        self.timeouts += 1
