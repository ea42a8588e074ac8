"""Finite-bandwidth memory controllers.

Each socket owns one controller.  Cores draw at most ``core_bw`` bytes/s
on their own; when several cores stream concurrently the socket's peak
``socket_bw`` is divided between the active streams (processor-sharing
approximation, sampled at burst start).  This is the mechanism that caps
the Al-1000 / Lennard-Jones scaling in Fig. 1: each added core gets a
smaller slice of a fixed DRAM budget, so a bandwidth-bound phase stops
speeding up long before core count runs out.
"""

from __future__ import annotations

from typing import Dict, List


class MemoryController:
    """Bandwidth arbiter for one socket.

    Streams register while a burst with memory traffic executes; the
    effective per-stream rate is ``min(core_bw, socket_bw / n_active)``.
    Remote accesses (from another socket) pay a latency-derived rate
    penalty and also consume this controller's bandwidth.
    """

    def __init__(
        self,
        socket_id: int,
        socket_bw: float,
        core_bw: float,
        remote_penalty: float = 1.7,
    ):
        if socket_bw <= 0 or core_bw <= 0:
            raise ValueError("bandwidths must be positive")
        self.socket_id = socket_id
        self.socket_bw = float(socket_bw)
        self.core_bw = float(core_bw)
        self.remote_penalty = float(remote_penalty)
        self._active = 0
        self.bytes_served = 0.0
        self.bytes_remote = 0.0
        self.peak_active = 0

    @property
    def active_streams(self) -> int:
        return self._active

    def begin_stream(self) -> None:
        """Register one active memory stream (a running burst)."""
        self._active += 1
        self.peak_active = max(self.peak_active, self._active)

    def end_stream(self) -> None:
        """Deregister a stream begun with :meth:`begin_stream`."""
        if self._active <= 0:
            raise RuntimeError(
                f"memory controller {self.socket_id}: unbalanced end_stream"
            )
        self._active -= 1

    def effective_rate(self, extra_streams: int = 0) -> float:
        """Bytes/s one stream receives right now.

        ``extra_streams`` lets a caller include itself before it has
        registered (rate sampled at burst start).
        """
        n = max(1, self._active + extra_streams)
        return min(self.core_bw, self.socket_bw / n)

    def transfer_time(
        self, n_bytes: float, *, remote: bool = False, extra_streams: int = 0
    ) -> float:
        """Seconds to move ``n_bytes`` at the current contention level."""
        if n_bytes <= 0:
            return 0.0
        rate = self.effective_rate(extra_streams=extra_streams)
        if remote:
            rate /= self.remote_penalty
            self.bytes_remote += n_bytes
        self.bytes_served += n_bytes
        return n_bytes / rate


class MemorySystem:
    """All sockets' controllers plus interconnect accounting."""

    def __init__(self, spec, topology):
        self.spec = spec
        self.topology = topology
        self.controllers: List[MemoryController] = [
            MemoryController(
                s, spec.socket_bw, spec.core_bw, spec.remote_penalty
            )
            for s in range(spec.sockets)
        ]

    def controller_for_pu(self, pu: int) -> MemoryController:
        """The memory controller local to a PU's socket."""
        return self.controllers[self.topology.socket_of(pu)]

    def stats(self) -> Dict[int, Dict[str, float]]:
        """Per-socket traffic totals (served/remote bytes, peak load)."""
        return {
            c.socket_id: {
                "bytes_served": c.bytes_served,
                "bytes_remote": c.bytes_remote,
                "peak_active": c.peak_active,
            }
            for c in self.controllers
        }
