"""Subscription Table: per-face CD sets with Bloom-filter data plane.

Paper §III-C: "ST is a <Face, BloomFilter<CD>> table that stores the
subscriptions for each outgoing face".  A Multicast packet with CD ``c``
is forwarded on face ``f`` when ``c`` *or any prefix of* ``c`` hits the
filter of ``f`` — that is how a subscriber of ``/sports`` receives
``/sports/football`` publications.

Routers additionally need exact per-face CD multisets for the control
plane: unsubscribes, upstream-join refcounting and ST reversal during RP
migration all require knowing precisely what was subscribed.  The Bloom
filter remains the structure consulted on the forwarding fast path (and
whose false positives we account and ablate); the exact sets model the
end-host-refreshable state any deployable COPSS router keeps.

Forwarding fast path: game workloads publish thousands of packets per CD
between subscription-churn events, so :meth:`SubscriptionTable.match`
memoizes its result per CD.  The memo is invalidated wholesale by a
generation counter bumped on every mutation, and each cache entry stores
the per-packet false-positive face count so FP accounting stays exact
(counted per forwarded packet, never per cache fill).  A memo miss is
filled by the one per-face scan — an AND of the face's Bloom bit view
against each prefix's mask; setting
:attr:`SubscriptionTable.cache_enabled` to False runs that same scan on
every call, bypassing the memo.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterable, List, Set, Tuple, TypeVar

from repro.core.bloom import CountingBloomFilter, indexes_for, mask_for
from repro.names import Name

__all__ = ["SubscriptionTable"]

F = TypeVar("F", bound=Hashable)


class SubscriptionTable(Generic[F]):
    """Per-face subscription state with hierarchical matching."""

    def __init__(self, bloom_bits: int = 2048, bloom_hashes: int = 4) -> None:
        self._bloom_bits = bloom_bits
        self._bloom_hashes = bloom_hashes
        self._blooms: Dict[F, CountingBloomFilter] = {}
        self._exact: Dict[F, Dict[Name, int]] = {}
        self.false_positive_forwards = 0
        #: Data-plane memo switch; False runs the scan on every match.
        self.cache_enabled = True
        # cd -> (matched faces, false-positive face count), valid for
        # _cache_generation only.  _generation is bumped by every mutation.
        self._match_cache: Dict[Name, Tuple[List[F], int]] = {}
        self._generation = 0
        self._cache_generation = 0
        self._match_cache_limit = 4096

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def subscribe(self, face: F, cd: "Name | str") -> bool:
        """Record a subscription; True if the CD is new on this face."""
        cd = Name.coerce(cd)
        self._generation += 1
        bloom = self._blooms.get(face)
        if bloom is None:
            bloom = CountingBloomFilter(self._bloom_bits, self._bloom_hashes)
            self._blooms[face] = bloom
            self._exact[face] = {}
        counts = self._exact[face]
        counts[cd] = counts.get(cd, 0) + 1
        bloom.add(cd)
        return counts[cd] == 1

    def ensure(self, face: F, cd: "Name | str") -> bool:
        """Install a subscription only if absent; True when added.

        COPSS aggregation means a correct router never needs more than
        one logical subscription per (face, cd): downstream routers only
        propagate the first subscriber and migrations detach branches
        wholesale.  The forwarding engine therefore uses set semantics;
        the refcounted :meth:`subscribe` remains for callers that track
        multiple local requestors on one face.
        """
        cd = Name.coerce(cd)
        if cd in self._exact.get(face, ()):
            return False
        return self.subscribe(face, cd)

    def unsubscribe(self, face: F, cd: "Name | str") -> bool:
        """Remove one subscription; True if the CD vanished from the face.

        Raises ``KeyError`` when the subscription does not exist — a
        double-unsubscribe is a protocol bug worth surfacing.
        """
        cd = Name.coerce(cd)
        counts = self._exact.get(face)
        if not counts or cd not in counts:
            raise KeyError(f"face {face!r} has no subscription to {cd}")
        self._generation += 1
        counts[cd] -= 1
        self._blooms[face].remove(cd)
        if counts[cd] == 0:
            del counts[cd]
            if not counts:
                del self._exact[face]
                del self._blooms[face]
            return True
        return False

    def remove_all(self, face: F, cd: "Name | str") -> int:
        """Remove every count of ``cd`` on ``face`` (0 if absent).

        Used by the RP-handoff ST reversal, which atomically detaches a
        whole branch regardless of how many downstream subscribers were
        aggregated behind it.
        """
        cd = Name.coerce(cd)
        counts = self._exact.get(face)
        if not counts or cd not in counts:
            return 0
        self._generation += 1
        removed = counts.pop(cd)
        bloom = self._blooms[face]
        idxs = indexes_for(cd, self._bloom_bits, self._bloom_hashes)
        for _ in range(removed):
            bloom.remove(cd, idxs)
        if not counts:
            del self._exact[face]
            del self._blooms[face]
        return removed

    def drop_face(self, face: F) -> Set[Name]:
        """Remove all state for a face (link down / host left)."""
        self._generation += 1
        self._blooms.pop(face, None)
        counts = self._exact.pop(face, {})
        return set(counts)

    # ------------------------------------------------------------------
    # Data-plane matching
    # ------------------------------------------------------------------
    def match(self, cd: "Name | str") -> List[F]:
        """Faces whose Bloom filter matches ``cd`` or any of its prefixes.

        This is the forwarding decision for a Multicast packet.  False
        positives (bloom says yes, exact state says no) are counted in
        :attr:`false_positive_forwards` and still returned — that is the
        real COPSS behaviour and the extra network load it causes is part
        of the Bloom-filter ablation.

        Memoized per CD (see the module docstring); the cached entry is a
        pure function of the table state, so a generation bump on any
        mutation is the only invalidation needed.
        """
        name = cd if type(cd) is Name else Name.coerce(cd)
        if not self.cache_enabled:
            faces, fp_faces = self._scan(name)
            self.false_positive_forwards += fp_faces
            return faces
        cache = self._match_cache
        if self._cache_generation != self._generation:
            cache.clear()
            self._cache_generation = self._generation
        entry = cache.get(name)
        if entry is None:
            if len(cache) >= self._match_cache_limit:
                cache.clear()
            entry = cache[name] = self._scan(name)
        faces, fp_faces = entry
        self.false_positive_forwards += fp_faces
        return list(faces)

    def _scan(self, name: Name) -> Tuple[List[F], int]:
        """(matched faces, false-positive face count) for one CD.

        The one Bloom scan: per face, one AND of its filter's bit view
        against the precombined mask of each prefix of ``name``.  A face
        the exact state does not back counts as a false positive.
        """
        prefixes = name.prefixes()
        bits, hashes = self._bloom_bits, self._bloom_hashes
        masks = [mask_for(prefix, bits, hashes) for prefix in prefixes]
        matched: List[F] = []
        fp_faces = 0
        for face, bloom in self._blooms.items():
            view = bloom.bit_view
            for mask in masks:
                if view & mask == mask:
                    matched.append(face)
                    exact = self._exact[face]
                    if not any(prefix in exact for prefix in prefixes):
                        fp_faces += 1
                    break
        return matched, fp_faces

    def match_exact(self, cd: "Name | str") -> List[F]:
        """Ground-truth matching (no Bloom false positives); ablation arm."""
        name = Name.coerce(cd)
        prefixes = list(name.prefixes())
        return [
            face
            for face, exact in self._exact.items()
            if any(prefix in exact for prefix in prefixes)
        ]

    # ------------------------------------------------------------------
    # Control-plane queries
    # ------------------------------------------------------------------
    def faces(self) -> Set[F]:
        return set(self._exact)

    def cds_on(self, face: F) -> Set[Name]:
        return set(self._exact.get(face, {}))

    def all_cds(self) -> Set[Name]:
        cds: Set[Name] = set()
        for counts in self._exact.values():
            cds.update(counts)
        return cds

    def has_any_subscriber(self, cd: "Name | str") -> bool:
        return bool(self.match_exact(cd))

    def __len__(self) -> int:
        return sum(len(counts) for counts in self._exact.values())

    def __repr__(self) -> str:
        return f"SubscriptionTable({len(self._exact)} faces, {len(self)} entries)"

    def entries(self) -> Iterable[Tuple[F, Name, int]]:
        for face, counts in self._exact.items():
            for cd, count in counts.items():
                yield face, cd, count
