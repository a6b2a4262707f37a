"""Drivers for ``core.subscriptions``, ``core.bloom`` and ``names``."""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.core.bloom import CountingBloomFilter
from repro.core.subscriptions import SubscriptionTable
from repro.names import Name

from . import TraceInputs, ns_per_op

FACES = 24


def _face_subscriptions(inputs: TraceInputs) -> List[List[Name]]:
    """Per-face CD sets of a core router aggregating the trace's players."""
    hierarchy = inputs.game_map.hierarchy
    per_face: List[set] = [set() for _ in range(FACES)]
    for i, player in enumerate(sorted(inputs.generator.placement)):
        area = inputs.generator.placement[player]
        per_face[i % FACES].update(hierarchy.subscriptions_for(area))
    return [sorted(cds) for cds in per_face]


def _table(subscriptions: List[List[Name]]) -> SubscriptionTable:
    table: SubscriptionTable[int] = SubscriptionTable()
    for face, cds in enumerate(subscriptions):
        for cd in cds:
            table.subscribe(face, cd)
    return table


def _match_ns(table: SubscriptionTable, cds: List[Name]) -> float:
    def loop() -> None:
        match = table.match
        for cd in cds:
            match(cd)

    return ns_per_op(loop, len(cds))


def _match_after_write_ns(table: SubscriptionTable, cds: List[Name]) -> float:
    """One ST write before every match, so memo and columns are stale.

    Only the match is timed: what a read costs when writes sit beside it
    (the chaos workload's pattern), not what the write costs.
    """
    now = time.perf_counter_ns
    churn = Name.parse("/bench/churn")
    spent = 0
    for i, cd in enumerate(cds):
        if i % 2:
            table.unsubscribe(0, churn)
        else:
            table.subscribe(0, churn)
        start = now()
        table.match(cd)
        spent += now() - start
    if len(cds) % 2:
        table.unsubscribe(0, churn)
    return spent / len(cds)


def run(seed: int, inputs: TraceInputs) -> Dict[str, Any]:
    cds = inputs.cds
    texts = [str(cd) for cd in cds]
    subscriptions = _face_subscriptions(inputs)
    pairs = sum(len(face_cds) for face_cds in subscriptions)

    table = _table(subscriptions)
    for cd in cds:  # fill the memo
        table.match(cd)
    warm = _match_ns(table, cds)
    table.cache_enabled = False
    cold = _match_ns(table, cds)
    table.cache_enabled = True

    distinct = sorted(set(cds))

    def bloom_add() -> None:
        bloom = CountingBloomFilter(2048, 4)
        add = bloom.add
        for _ in range(10):
            for cd in distinct:
                add(cd)

    bloom = CountingBloomFilter(2048, 4)
    for cd in distinct[::2]:
        bloom.add(cd)

    def bloom_query() -> None:
        for cd in cds:
            cd in bloom  # noqa: B015 - the membership test is the work

    def parse() -> None:
        parse_one = Name.parse
        for text in texts:
            parse_one(text)

    def hash_all() -> None:
        for cd in cds:
            hash(cd)

    return {
        "core.subscriptions.match_ns_warm": warm,
        "core.subscriptions.match_ns_cold": cold,
        "core.subscriptions.match_ns_after_write": _match_after_write_ns(table, cds[:500]),
        "core.subscriptions.subscribe_ns": ns_per_op(lambda: _table(subscriptions), pairs),
        "core.bloom.add_ns": ns_per_op(bloom_add, 10 * len(distinct)),
        "core.bloom.query_ns": ns_per_op(bloom_query, len(cds)),
        "names.parse_ns": ns_per_op(parse, len(texts)),
        "names.hash_ns": ns_per_op(hash_all, len(cds)),
    }
