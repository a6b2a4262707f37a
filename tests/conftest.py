"""Shared test configuration.

Four concerns live here:

* **Hypothesis profiles.**  ``repro`` (default, local) explores freely
  with deadlines disabled: property tests drive real discrete-event
  simulations whose wall-clock time varies with machine load, and flaky
  DeadlineExceeded reports would drown real failures.  ``ci``
  additionally derandomizes — the example stream is a pure function of
  the test, so a red CI run reproduces locally with
  ``HYPOTHESIS_PROFILE=ci`` and no seed archaeology.

* **Per-test timeouts.**  A wedged event loop (the failure mode of a
  synchronization bug in the sharded executor) must fail the one test,
  not hang the whole suite.  When ``pytest-timeout`` is installed its
  ``--timeout`` machinery is used; otherwise a SIGALRM fallback arms the
  same budget around each test call on platforms that have it.

* **Slow marks.**  ``slow``-marked tests (multi-process digest
  differentials, big property sweeps) stay out of the default tier-1
  run; opt in with ``REPRO_SLOW=1`` or an explicit ``-m slow``.

* **The networkx oracle.**  The runtime routes without networkx; tests
  that check a topology or a route against it build the graph with
  :func:`nx_graph`.
"""

import os
import signal

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "ci",
    parent=settings.get_profile("repro"),
    derandomize=True,
    print_blob=True,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))

#: Seconds any single test may run before it is killed and failed.
TEST_TIMEOUT_S = int(os.environ.get("REPRO_TEST_TIMEOUT", "300"))

def nx_graph(network):
    """A built network as a networkx graph, edge ``weight`` = link delay."""
    import networkx as nx

    from repro.sim.routing import network_links

    graph = nx.Graph()
    graph.add_nodes_from(network.nodes)
    graph.add_weighted_edges_from(network_links(network))
    return graph


try:
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


def pytest_collection_modifyitems(config, items):
    if _HAVE_PYTEST_TIMEOUT:
        for item in items:
            if item.get_closest_marker("timeout") is None:
                item.add_marker(pytest.mark.timeout(TEST_TIMEOUT_S))
    if os.environ.get("REPRO_SLOW", "") in ("", "0") and not config.getoption("-m"):
        skip_slow = pytest.mark.skip(
            reason="slow differential test (set REPRO_SLOW=1 or pass -m slow)"
        )
        for item in items:
            if "slow" in item.keywords:
                item.add_marker(skip_slow)


@pytest.fixture(autouse=_HAVE_PYTEST_TIMEOUT is False and hasattr(signal, "SIGALRM"))
def _sigalrm_timeout(request):
    """SIGALRM fallback when pytest-timeout is unavailable.

    Coarser than the plugin (whole-seconds, main-thread only) but enough
    to turn an infinite-window hang into one failed test with a clear
    message.
    """
    marker = request.node.get_closest_marker("timeout")
    budget = int(marker.args[0]) if marker and marker.args else TEST_TIMEOUT_S

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded {budget}s (REPRO_TEST_TIMEOUT to adjust)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(budget)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
