"""Property suite for the balancer/autoscaler split policies.

Three families of properties, all driven by Hypothesis:

* the shared shed policy (:func:`repro.core.balancer.greedy_half`) is a
  deterministic, non-empty, proper, balanced partition;
* splitting preserves prefix-freeness: after any single split the two
  routers' served sets are mutually prefix-free and cover exactly the
  original set — and a single-CD RP (the unsplittable case) sheds
  nothing;
* ``cooldown`` suppresses cascades: however often the
  pressure trigger fires, the number of splits is bounded by the number
  of disjoint cooldown windows in the firing sequence.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GCopssNetworkBuilder,
    GCopssRouter,
    RpLoadBalancer,
    RpTable,
    SplitPolicy,
)
from repro.core.balancer import greedy_half
from repro.names import Name, ROOT
from repro.sim.network import Network

# Distinct sibling leaves: any subset is automatically prefix-free, so
# the interesting property is what *split* does with them, not how the
# strategy built them.
leaf_sets = st.lists(
    st.integers(min_value=0, max_value=40), min_size=2, max_size=12, unique=True
).map(lambda xs: [Name.parse(f"/{x}") for x in xs])

load_values = st.integers(min_value=0, max_value=100)


def prefix_free(names):
    names = list(names)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if a.is_prefix_of(b) or b.is_prefix_of(a):
                return False
    return True


class TestGreedyHalf:
    @given(prefixes=leaf_sets, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_nonempty_proper_partition(self, prefixes, data):
        loads = Counter(
            {p: data.draw(load_values, label=str(p)) for p in prefixes}
        )
        moved = greedy_half(prefixes, loads)
        kept = [p for p in prefixes if p not in moved]
        assert moved and kept
        assert len(moved) + len(kept) == len(prefixes)
        assert set(moved).isdisjoint(kept)

    @given(prefixes=leaf_sets, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, prefixes, data):
        loads = Counter(
            {p: data.draw(load_values, label=str(p)) for p in prefixes}
        )
        assert greedy_half(prefixes, loads) == greedy_half(list(prefixes), loads)
        # Input order must not matter: the policy sorts internally.
        shuffled = list(reversed(prefixes))
        assert greedy_half(shuffled, loads) == greedy_half(prefixes, loads)

    @given(prefixes=leaf_sets, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_balanced_within_heaviest_item(self, prefixes, data):
        # The classic greedy-partition bound: the two bins differ by at
        # most the heaviest single weight.
        loads = Counter(
            {p: data.draw(load_values, label=str(p)) for p in prefixes}
        )
        moved = greedy_half(prefixes, loads)
        kept = [p for p in prefixes if p not in moved]
        gap = abs(
            sum(loads[p] for p in moved) - sum(loads[p] for p in kept)
        )
        assert gap <= max(loads.values() or [0])


def build_pair(num_routers=3):
    net = Network()
    routers = [GCopssRouter(net, f"R{i}") for i in range(num_routers)]
    for i in range(num_routers - 1):
        net.connect(routers[i], routers[i + 1], 1.0)
    table = RpTable()
    table.assign(ROOT, "R0")
    GCopssNetworkBuilder(net, table).install()
    return net, routers


class TestSplitPreservesPrefixFreeness:
    @given(prefixes=leaf_sets, seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_served_sets_stay_prefix_free_and_cover(self, prefixes, seed):
        net, routers = build_pair()
        rp = routers[0]
        rp.rp_role.prefixes = set(prefixes)
        rp.cd_routes.clear()
        for p in prefixes:
            rp.cd_routes.add(p, "R0")
        balancer = RpLoadBalancer(
            rp,
            candidates=["R1"],
            policy=SplitPolicy.RANDOM,
            rng=random.Random(seed),
            spawn_on_split=False,
        )
        new_rp = balancer.split()
        net.sim.run()
        assert new_rp == "R1"
        served = list(rp.rp_prefixes) + list(routers[1].rp_prefixes)
        assert sorted(served) == sorted(prefixes)  # cover, no duplication
        assert rp.rp_prefixes and routers[1].rp_prefixes  # proper split
        assert prefix_free(served)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_single_hot_cd_sheds_nothing(self, seed):
        # One unsplittable CD and no refiner: the balancer must refuse
        # rather than shed its entire identity to the candidate.
        net, routers = build_pair()
        rp = routers[0]
        rp.rp_role.prefixes = {Name.parse("/7")}
        balancer = RpLoadBalancer(
            rp,
            candidates=["R1"],
            policy=SplitPolicy.RANDOM,
            refiner=None,
            rng=random.Random(seed),
            spawn_on_split=False,
        )
        assert balancer.split() is None
        net.sim.run()
        assert rp.rp_prefixes == {Name.parse("/7")}
        assert not routers[1].rp_prefixes


class TestCooldownSuppressesCascades:
    @given(
        offsets=st.lists(
            st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        cooldown=st.floats(min_value=100.0, max_value=2000.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_splits_bounded_by_cooldown_windows(self, offsets, cooldown):
        net, routers = build_pair(num_routers=8)
        rp = routers[0]
        prefixes = [Name.parse(f"/{i}") for i in range(8)]
        rp.rp_role.prefixes = set(prefixes)
        rp.cd_routes.clear()
        for p in prefixes:
            rp.cd_routes.add(p, "R0")
        balancer = RpLoadBalancer(
            rp,
            candidates=[f"R{i}" for i in range(1, 8)],
            queue_threshold=1,
            policy=SplitPolicy.RANDOM,
            rng=random.Random(1),
            spawn_on_split=False,
            cooldown=cooldown,
        )

        # Pressure is permanent for this property: every check sees an
        # over-threshold queue, so only the cooldown can say no.
        from types import SimpleNamespace

        pressured = SimpleNamespace(queue_length=10**6)
        fire_at = sorted(set(offsets))
        for t in fire_at:
            net.sim.schedule(t, lambda: balancer._check(pressured))
        net.sim.run()

        # Count the disjoint cooldown windows the firing sequence spans.
        windows = 0
        window_open_until = -float("inf")
        for t in fire_at:
            if t >= window_open_until:
                windows += 1
                window_open_until = t + cooldown
        assert balancer.splits_performed <= windows
