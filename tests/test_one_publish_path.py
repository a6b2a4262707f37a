"""AST lint: a G-COPSS update is built in the publishers that own it.

A runner that assembles its own ``MulticastPacket`` skips what
:meth:`GCopssHost.publish` does for every update (``pub_seq`` stamping,
the ``published`` count, the tracer's ``publish`` root event), and its
results then differ from the runners that publish through the host.
Across ``src/repro`` the packet is constructed only by the three senders
that originate one: the host's one-step publish, the two-step
publisher's snippet and the snapshot broker's cyclic multicast.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

ALLOWED = {
    ("core/engine.py", "GCopssHost.publish"),
    ("core/twostep.py", "TwoStepPublisher.publish"),
    ("core/snapshot.py", "BrokerRole._cycle_step"),
}


def _constructions(tree: ast.AST, prefix: str = ""):
    """``qualname`` of the def around each ``MulticastPacket(...)`` call."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _constructions(node, f"{prefix}{node.name}.")
            continue
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "MulticastPacket":
                yield prefix.rstrip(".") or "<module>"
        yield from _constructions(node, prefix)


def multicast_constructions():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        if "MulticastPacket(" not in text:
            continue
        tree = ast.parse(text, filename=str(path))
        for qualname in _constructions(tree):
            found.add((path.relative_to(SRC).as_posix(), qualname))
    return found


def test_multicast_packets_are_built_only_by_their_publishers():
    assert multicast_constructions() == ALLOWED
