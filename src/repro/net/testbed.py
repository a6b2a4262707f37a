"""Launcher + trace driver for a localhost live testbed.

Spawns one :mod:`repro.net.runner` process per router (``--port 0``
ephemeral allocation, ports learned from each child's ``PORT`` line),
wires the cross links through a peer address map, then drives the same
phased schedule the simulator reference uses:

1. **subscribe** — one host at a time, with full-cluster quiescence
   between hosts, so control-plane propagation is a deterministic
   sequence (this is what makes even ``packets_received`` exactly
   comparable);
2. **publish** — the seeded trace is blasted over UDP (the lossy fast
   path), then a TCP ``drain`` pass re-delivers anything the datagrams
   lost — execution is idempotent per driver-assigned seq, so the phase
   is exactly-once regardless of UDP behavior;
3. **quiesce + collect** — quiescence is observed, not assumed: every
   node reports its timer-wheel backlog and cumulative counters, and the
   cluster is quiet only when all backlogs are zero and two consecutive
   global snapshots are identical.

:func:`run_differential` then replays the identical spec/trace in the
discrete-event simulator and requires exact counter agreement — the
simulator as a model checker for the deployable system.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import tempfile
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple

import repro
from repro.net.codec import FrameDecoder, encode_frame, pack_message, unpack_message
from repro.net.runner import DRIVER_NAME
from repro.net.world import compare_reports, merge_reports, run_reference

__all__ = ["LiveTestbed", "run_live", "run_differential"]


class DriverConn:
    """Blocking framed control connection from the driver to one runner."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self._decoder = FrameDecoder()
        self._ready: Deque[bytes] = deque()
        self.send({"op": "hello", "node": DRIVER_NAME})

    def send(self, msg: Dict[str, Any]) -> None:
        self.sock.sendall(encode_frame(pack_message(msg)))

    def recv(self) -> Dict[str, Any]:
        """Block until the next framed reply arrives and decode it."""
        while not self._ready:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("runner closed the control connection")
            self._ready.extend(self._decoder.feed(data))
        return unpack_message(self._ready.popleft())

    def rpc(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        self.send(msg)
        reply = self.recv()
        if not reply.get("ok"):
            raise RuntimeError(f"runner rejected {msg.get('op')!r}: {reply.get('error')}")
        return reply

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - best effort
            pass


def _src_env() -> Dict[str, str]:
    """Child env with the repro source tree importable."""
    env = os.environ.copy()
    src = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _read_port_line(proc: subprocess.Popen, timeout: float) -> Tuple[int, int]:
    """Wait for the child's ``PORT <tcp> <udp>`` line with a hard timeout."""
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        remaining = max(0.0, deadline - time.monotonic())
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            break
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith("PORT "):
            _, tcp, udp = line.split()
            return int(tcp), int(udp)
        # Ignore any other startup chatter and keep waiting for PORT.
    proc.kill()
    raise RuntimeError(
        f"runner {proc.args} did not report its ports within {timeout}s "
        f"(last line: {line!r})"
    )


class LiveTestbed:
    """A running localhost topology: one process per router."""

    def __init__(
        self,
        spec: Dict[str, Any],
        time_scale: float = 0.0,
        python: str = sys.executable,
        startup_timeout: float = 20.0,
    ) -> None:
        self.spec = spec
        self.time_scale = time_scale
        self.python = python
        self.startup_timeout = startup_timeout
        self.procs: Dict[str, subprocess.Popen] = {}
        self.conns: Dict[str, DriverConn] = {}
        self.ports: Dict[str, Tuple[int, int]] = {}
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self._udp_sock: Optional[socket.socket] = None
        self._next_seq = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "LiveTestbed":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.shutdown()
        else:
            self.kill()

    def start(self) -> None:
        """Spawn every runner, learn its ports, wire the cross links."""
        self._tmp = tempfile.TemporaryDirectory(prefix="gcopss-live-")
        spec_path = Path(self._tmp.name) / "spec.json"
        spec_path.write_text(json.dumps(self.spec, indent=2, sort_keys=True))
        env = _src_env()
        try:
            for node in self.spec["routers"]:
                proc = subprocess.Popen(
                    [
                        self.python, "-m", "repro.net.runner",
                        "--spec", str(spec_path),
                        "--node", node,
                        "--port", "0",
                        "--udp-port", "0",
                        "--time-scale", str(self.time_scale),
                    ],
                    stdout=subprocess.PIPE,
                    env=env,
                    text=True,
                )
                self.procs[node] = proc
            for node, proc in self.procs.items():
                self.ports[node] = _read_port_line(proc, self.startup_timeout)
            peers = {
                node: {"host": "127.0.0.1", "tcp": tcp, "udp": udp}
                for node, (tcp, udp) in self.ports.items()
            }
            for node, (tcp, _udp) in self.ports.items():
                self.conns[node] = DriverConn("127.0.0.1", tcp)
            # Send every config before reading any reply: a runner only
            # acks once all its peer links are up, and the links it is
            # *accepting* are dialed by peers that also need their config.
            for node in self.spec["routers"]:
                self.conns[node].send({"op": "config", "peers": peers})
            for node in self.spec["routers"]:
                reply = self.conns[node].recv()
                if not reply.get("ok"):
                    raise RuntimeError(f"{node} config failed: {reply.get('error')}")
            self._udp_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        except BaseException:
            self.kill()
            raise

    def shutdown(self, timeout: float = 10.0) -> None:
        """Orderly stop: every runner must exit 0 and release its ports.

        Every runner is asked to stop and reaped, and the temp dir goes,
        even when one of them has died; then the failures are raised
        together, each naming its runner.
        """
        failures = []
        for node, conn in self.conns.items():
            try:
                conn.rpc({"op": "shutdown"})
            except (OSError, RuntimeError) as exc:
                failures.append(f"{node}: shutdown failed ({exc})")
        failures += self._reap(timeout)
        if failures:
            raise RuntimeError("unclean shutdown: " + "; ".join(failures))

    def kill(self) -> None:
        """Hard teardown for error paths — never leaves orphans behind."""
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.kill()
        self._reap(5.0)

    def _reap(self, timeout: float) -> List[str]:
        """Close the control links, wait for every runner, clean up."""
        for conn in self.conns.values():
            conn.close()
        self.conns.clear()
        failures = []
        for node, proc in self.procs.items():
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
                failures.append(f"{node}: did not exit after shutdown (killed)")
                continue
            if code != 0:
                failures.append(f"{node}: exit code {code}")
        self._cleanup()
        return failures

    def _cleanup(self) -> None:
        if self._udp_sock is not None:
            self._udp_sock.close()
            self._udp_sock = None
        for proc in self.procs.values():
            if proc.stdout is not None:
                proc.stdout.close()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Dict[str, Any]]:
        return {node: conn.rpc({"op": "status"}) for node, conn in self.conns.items()}

    def quiesce(self, stable_polls: int = 2, poll_s: float = 0.03,
                timeout: float = 30.0) -> Dict[str, Dict[str, Any]]:
        """Block until the cluster is provably idle.

        Idle = every timer wheel empty *and* ``stable_polls`` consecutive
        global snapshots identical — a packet in flight between processes
        always shows up as a sender-side counter change, so stability
        across polls bounds in-flight work to (practically) nothing.
        """
        deadline = time.monotonic() + timeout
        prev = None
        stable = 0
        while time.monotonic() < deadline:
            statuses = self.status()
            for node, st in statuses.items():
                if st.get("failure"):
                    raise RuntimeError(f"runner {node} failed: {st['failure']}")
            snap = tuple(
                (node, st["pending"], st["events"], st["packets"], st["executed"])
                for node, st in sorted(statuses.items())
            )
            if all(st["pending"] == 0 for st in statuses.values()) and snap == prev:
                stable += 1
                if stable >= stable_polls:
                    return statuses
            else:
                stable = 0
            prev = snap
            time.sleep(poll_s)
        raise TimeoutError(f"cluster did not quiesce within {timeout}s: {prev}")

    def subscribe_phase(self) -> None:
        """Serialized subscriptions — see the module docstring for why."""
        owner = {h: conf["router"] for h, conf in self.spec["hosts"].items()}
        for host in sorted(self.spec["hosts"]):
            cds = self.spec["hosts"][host]["subs"]
            if not cds:
                continue
            self.conns[owner[host]].rpc(
                {"op": "subscribe", "host": host, "cds": list(cds)}
            )
            self.quiesce()

    def play(self, trace: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Publish phase: UDP blast, TCP drain backstop, quiesce.

        Returns perf numbers for the phase (wall time, packets carried).
        """
        owner = {h: conf["router"] for h, conf in self.spec["hosts"].items()}
        before = self.status()
        started = time.perf_counter()
        assert self._udp_sock is not None
        by_node: Dict[str, List[Dict[str, Any]]] = {}
        for event in trace:
            node = owner[event["host"]]
            by_node.setdefault(node, []).append(event)
            datagram = encode_frame(pack_message({"op": "publish", **event}))
            self._udp_sock.sendto(datagram, ("127.0.0.1", self.ports[node][1]))
        udp_received = 0
        resent = 0
        for node, events in sorted(by_node.items()):
            reply = self.conns[node].rpc({"op": "drain", "events": events})
            udp_received += reply["udp_received"]
            resent += reply["resent"]
        after = self.quiesce()
        wall_s = time.perf_counter() - started
        packets = sum(st["packets"] for st in after.values()) - sum(
            st["packets"] for st in before.values()
        )
        return {
            "wall_s": wall_s,
            "packets_carried": packets,
            "udp_received": udp_received,
            "tcp_resent": resent,
            "events": len(trace),
        }

    def collect(self) -> Dict[str, Any]:
        parts = [
            self.conns[node].rpc({"op": "collect"})["report"]
            for node in self.spec["routers"]
        ]
        return merge_reports(parts)


# ----------------------------------------------------------------------
# Front ends
# ----------------------------------------------------------------------
def run_live(
    spec: Dict[str, Any],
    trace: List[Dict[str, Any]],
    time_scale: float = 0.0,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run the full live schedule; returns ``(report, perf)``."""
    with LiveTestbed(spec, time_scale=time_scale) as bed:
        bed.quiesce()  # links up, nothing moving yet
        bed.subscribe_phase()
        perf = bed.play(trace)
        report = bed.collect()
    cores = len(spec["routers"])
    perf["cores"] = cores
    perf["packets_per_s"] = (
        perf["packets_carried"] / perf["wall_s"] if perf["wall_s"] > 0 else 0.0
    )
    perf["packets_per_s_per_core"] = perf["packets_per_s"] / cores
    return report, perf


def run_differential(
    spec: Dict[str, Any],
    trace: List[Dict[str, Any]],
    time_scale: float = 0.0,
) -> Dict[str, Any]:
    """Live testbed vs simulator on the same spec/trace; exact agreement."""
    live, perf = run_live(spec, trace, time_scale=time_scale)
    sim = run_reference(spec, trace)
    mismatches = compare_reports(live, sim)
    return {
        "match": not mismatches,
        "mismatches": mismatches,
        "live": live,
        "sim": sim,
        "perf": perf,
    }
