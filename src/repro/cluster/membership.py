"""Health-checked fleet membership: probing, draining, warm re-admission.

Each replica the router fronts is tracked as a :class:`Replica` record in
one of three states:

* ``healthy`` — owns its rendezvous-hash slice of group keys and takes
  traffic;
* ``down`` — drained: its key slice has remapped to the survivors and no
  traffic reaches it until it answers health probes again;
* ``warming`` — answering probes again but not yet re-admitted: the
  router is replaying the drained slice's group keys through the
  replica's ``POST /warm_up`` so its solver pools re-factorize *before*
  the first real request lands.

Transitions are driven from two directions.  A background prober GETs each
replica's ``/healthz`` every ``probe_interval_s`` and drains after
``failure_threshold`` consecutive failures (so a wedged-but-listening
replica is still caught).  The traffic path short-circuits that: a
connection-level :class:`~repro.cluster.proxy.ReplicaError` drains the
replica immediately — a SIGKILLed server refuses connections at once, and
waiting out the probe threshold would burn the retry budget of every
in-flight request in the meantime.  Recovery always runs the warm-up hook
before re-admission; a failed warm-up keeps the replica down.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.proxy import ReplicaClient, ReplicaError

__all__ = ["Replica", "Membership"]

#: States a replica moves through; see the module docstring.
HEALTHY, DOWN, WARMING = "healthy", "down", "warming"

#: Socket timeout on health probes — a probe must never park the prober
#: thread for the full request timeout.
PROBE_TIMEOUT_S = 5.0


class Replica:
    """One replica's identity, client and health state."""

    def __init__(self, url: str):
        self.client = ReplicaClient(url)
        self.url = self.client.base_url
        self.state = HEALTHY
        self.consecutive_failures = 0
        self.last_healthz: Optional[Dict[str, Any]] = None
        #: Recent state transitions as ``(monotonic_s, state)`` pairs —
        #: the chaos test asserts the healthy→down→warming→healthy cycle.
        self.transitions: List[tuple] = [(time.monotonic(), HEALTHY)]

    @property
    def name(self) -> str:
        """``host:port`` identity — the hashing id and the metrics label."""
        return self.client.name

    def describe(self) -> Dict[str, Any]:
        """JSON-safe snapshot for the fleet ``/healthz`` breakdown."""
        return {
            "name": self.name,
            "url": self.url,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "transitions": [state for _, state in self.transitions],
        }


class Membership:
    """Owns the replica set, the prober thread and state transitions.

    ``on_recover(replica)`` is called (outside the membership lock) when a
    down replica answers a probe again; it must perform the warm-up and
    return ``True`` to re-admit.  Returning ``False`` — or raising — keeps
    the replica down until the next probe round.
    """

    def __init__(
        self,
        urls: List[str],
        probe_interval_s: float = 1.0,
        failure_threshold: int = 2,
        on_recover: Optional[Callable[[Replica], bool]] = None,
    ):
        if not urls:
            raise ValueError("a fleet needs at least one replica URL")
        self.replicas: List[Replica] = [Replica(url) for url in urls]
        names = [replica.name for replica in self.replicas]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate replica URLs in membership: {names}")
        self.probe_interval_s = probe_interval_s
        self.failure_threshold = failure_threshold
        self.on_recover = on_recover
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._drains = 0
        self._recoveries = 0

    # ------------------------------------------------------------------
    def healthy(self) -> List[Replica]:
        """Replicas currently taking traffic (stable declaration order)."""
        with self._lock:
            return [r for r in self.replicas if r.state == HEALTHY]

    def healthy_names(self) -> List[str]:
        """Names of traffic-taking replicas — the rendezvous member set."""
        return [replica.name for replica in self.healthy()]

    def by_name(self, name: str) -> Replica:
        """Replica record for ``name`` (raises ``KeyError`` when unknown)."""
        for replica in self.replicas:
            if replica.name == name:
                return replica
        raise KeyError(f"no replica named '{name}' in the fleet")

    def _transition(self, replica: Replica, state: str) -> None:
        # Callers hold self._lock.
        if replica.state != state:
            replica.state = state
            replica.transitions.append((time.monotonic(), state))

    # ------------------------------------------------------------------
    def mark_failed(self, replica: Replica) -> None:
        """Traffic-path drain: a connection error proved the replica dead.

        Connection-level failures are immediate evidence (a SIGKILLed
        process refuses connections instantly), so the replica drains now
        rather than after ``failure_threshold`` probe rounds; the prober
        heals any false positive on its next successful probe.
        """
        with self._lock:
            replica.consecutive_failures += 1
            if replica.state == HEALTHY:
                self._transition(replica, DOWN)
                self._drains += 1

    # ------------------------------------------------------------------
    def probe_once(self) -> None:
        """One probe round over the whole fleet (also called by tests)."""
        for replica in list(self.replicas):
            try:
                payload = replica.client.get_json("/healthz", timeout_s=PROBE_TIMEOUT_S)
            except (ReplicaError, ValueError):
                with self._lock:
                    replica.consecutive_failures += 1
                    if (
                        replica.state == HEALTHY
                        and replica.consecutive_failures >= self.failure_threshold
                    ):
                        self._transition(replica, DOWN)
                        self._drains += 1
                continue
            with self._lock:
                replica.consecutive_failures = 0
                replica.last_healthz = payload
                if replica.state == HEALTHY:
                    continue
                self._transition(replica, WARMING)
            # Warm-up runs outside the lock: it POSTs to the replica and
            # may take factorisation time; probing must not block traffic.
            admitted = True
            if self.on_recover is not None:
                try:
                    admitted = bool(self.on_recover(replica))
                except Exception:
                    admitted = False
            with self._lock:
                if admitted:
                    self._transition(replica, HEALTHY)
                    self._recoveries += 1
                else:
                    self._transition(replica, DOWN)

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.probe_interval_s):
            self.probe_once()

    def start(self) -> None:
        """Start the background prober thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._probe_loop, name="fleet-prober", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Stop the prober and close every replica's connection pool."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        for replica in self.replicas:
            replica.client.close()

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """Fleet summary for the router's ``/healthz``."""
        with self._lock:
            replicas = [replica.describe() for replica in self.replicas]
        healthy_count = sum(1 for r in replicas if r["state"] == HEALTHY)
        if healthy_count == len(replicas):
            status = "ok"
        elif healthy_count > 0:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "member_count": len(replicas),
            "healthy_count": healthy_count,
            "drains": self._drains,
            "recoveries": self._recoveries,
            "replicas": replicas,
        }
