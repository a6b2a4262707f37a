"""Structural guard: each piece of node state has one name.

Counters live on ``node.stats``, routing tables on ``router.control``,
plane data on ``router.forwarding`` and role data on the attached roles.
The node classes re-export only the names ``bench/`` reads (it cannot
change in a no-gain refactor) plus the computed ``access_face``.  A
second name for the same state must not come back one property at a
time; this pins the exact set of properties each class defines.
"""

import pytest

from repro.baselines.ip_server import GameServerNode, IpClientNode, IpRouter
from repro.core.engine import GCopssHost, GCopssRouter
from repro.core.snapshot import SnapshotBroker
from repro.ndn.engine import NdnHost, NdnRouter
from repro.sim.network import Node

#: class -> the properties its own body may define.
ALLOWED = {
    Node: set(),
    NdnRouter: set(),
    NdnHost: {"access_face"},
    GCopssRouter: {
        "st", "cd_routes", "relinquished", "rp_prefixes",
        "decapsulations", "multicasts_forwarded",
    },
    GCopssHost: {"published"},
    SnapshotBroker: set(),
    IpRouter: set(),
    GameServerNode: set(),
    IpClientNode: {"access_face"},
}


@pytest.mark.parametrize("cls", list(ALLOWED), ids=lambda c: c.__name__)
def test_class_defines_only_the_allowed_properties(cls):
    defined = {name for name, value in vars(cls).items() if isinstance(value, property)}
    assert defined == ALLOWED[cls]


def test_bench_names_on_the_router_are_read_only():
    for name in ("st", "cd_routes", "relinquished", "rp_prefixes"):
        assert vars(GCopssRouter)[name].fset is None, name
