"""COPSS / G-COPSS core: the paper's primary contribution.

Layered on the NDN substrate (:mod:`repro.ndn`), this package implements:

* hierarchical Content Descriptors and the game-map naming hierarchy with
  synthetic "airspace" leaves (:mod:`repro.core.hierarchy`, paper §III-A);
* Bloom-filter Subscription Tables (:mod:`repro.core.bloom`,
  :mod:`repro.core.subscriptions`, §III-C);
* prefix-free Rendezvous Point tables (:mod:`repro.core.rp`, §III-B);
* the G-COPSS router engine — Subscribe/Unsubscribe propagation,
  RP-anchored multicast with Interest encapsulation, FIB control packets
  (:mod:`repro.core.engine`, §III-C and Fig. 2);
* dynamic RP load balancing with the three-stage no-loss handover
  (:mod:`repro.core.balancer`, §IV-B);
* snapshot brokers with query/response and cyclic-multicast dissemination
  for moving players (:mod:`repro.core.snapshot`, §IV-A);
* hybrid COPSS+IP deployment (:mod:`repro.core.hybrid`, §III-D).
"""

from repro.core.balancer import RpLoadBalancer, SplitPolicy
from repro.core.bloom import CountingBloomFilter
from repro.core.dedup import BoundedUidSet
from repro.core.engine import GCopssHost, GCopssNetworkBuilder, GCopssRouter
from repro.core.hierarchy import AIRSPACE, MapHierarchy
from repro.core.packets import (
    FibAddPacket,
    FibRemovePacket,
    MulticastPacket,
    SubscribePacket,
    UnsubscribePacket,
)
from repro.core.hybrid import HybridMapper
from repro.core.planes import ControlPlane, ForwardingPlane, RecoveryConfig
from repro.core.roles import RelayRole, RpRole
from repro.core.rp import RpTable
from repro.core.snapshot import (
    BrokerRole,
    CyclicSnapshotReceiver,
    QrSnapshotFetcher,
    SnapshotBroker,
)
from repro.core.subscriptions import SubscriptionTable

__all__ = [
    "AIRSPACE",
    "MapHierarchy",
    "CountingBloomFilter",
    "BoundedUidSet",
    "SubscriptionTable",
    "RpTable",
    "SubscribePacket",
    "UnsubscribePacket",
    "MulticastPacket",
    "FibAddPacket",
    "FibRemovePacket",
    "GCopssRouter",
    "GCopssHost",
    "GCopssNetworkBuilder",
    "ForwardingPlane",
    "ControlPlane",
    "RecoveryConfig",
    "RpRole",
    "RelayRole",
    "RpLoadBalancer",
    "SplitPolicy",
    "SnapshotBroker",
    "BrokerRole",
    "QrSnapshotFetcher",
    "CyclicSnapshotReceiver",
    "HybridMapper",
]
