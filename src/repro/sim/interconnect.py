"""On-chip / cross-socket interconnect cost model.

The paper assumes a generic network between VDs, LLC slices and memory
controllers (Fig. 2) and stresses that NVOverlay scales "or even
distributed" beyond one socket.  Coherence behaviour never depends on
topology, so a hop-count latency model suffices: local L2 traffic is
free, reaching an LLC slice costs one hop, a forwarded request to
another VD costs two (requestor -> directory -> owner), and a
cache-to-cache transfer saves the hop back through the directory —
exactly the latency advantage §IV-A3 claims for the dirty-invalidation
optimization.

With ``num_sockets > 1`` VDs and LLC slices are split into contiguous
equal blocks, one block per socket (socket 0 holds VDs
``0 .. num_vds/num_sockets - 1``, and likewise for slices), and every
hop crossing a socket boundary pays ``socket_hop_penalty`` extra hops,
which is how the scalability sweeps model multi-socket machines.
"""

from __future__ import annotations

from .config import SystemConfig
from .stats import Stats


class Interconnect:
    """Hop-latency network between VDs, LLC slices and controllers."""

    def __init__(self, config: SystemConfig, stats: Stats) -> None:
        self.hop = config.interconnect_hop_latency
        # Direct ref into the counter dict: message-count bumps are on the
        # per-miss path.  Safe because Stats.reset() clears it in place.
        self._counters = stats._counters
        self.penalty = config.socket_hop_penalty * self.hop
        # The socket of every VD and slice, resolved once: contiguous
        # equal blocks per socket.
        sockets = config.num_sockets
        vds_per_socket = max(1, config.num_vds // sockets)
        slices_per_socket = max(1, config.llc_slices // sockets)
        self._vd_socket = [
            (vd // vds_per_socket) % sockets for vd in range(config.num_vds)
        ]
        self._slice_socket = [
            (s // slices_per_socket) % sockets for s in range(config.llc_slices)
        ]

    def _cross(self, socket_a: int, socket_b: int) -> int:
        """Extra latency of a hop between two sockets (0 within one)."""
        if socket_a == socket_b:
            return 0
        self._counters["net.cross_socket_msgs"] += 1
        return self.penalty

    # -- message costs ------------------------------------------------------
    def vd_to_llc(self, vd_id: int, slice_id: int) -> int:
        self._counters["net.vd_llc_msgs"] += 1
        return self.hop + self._cross(
            self._vd_socket[vd_id], self._slice_socket[slice_id]
        )

    def llc_to_vd(self, slice_id: int, vd_id: int) -> int:
        self._counters["net.llc_vd_msgs"] += 1
        return self.hop + self._cross(
            self._slice_socket[slice_id], self._vd_socket[vd_id]
        )

    def vd_to_vd_via_directory(self, from_vd: int, to_vd: int) -> int:
        """Request forwarded through the LLC directory to a peer VD."""
        self._counters["net.forwarded_msgs"] += 1
        vd_socket = self._vd_socket
        return 2 * self.hop + self._cross(vd_socket[from_vd], vd_socket[to_vd])

    def cache_to_cache(self, from_vd: int, to_vd: int) -> int:
        """Direct point-to-point transfer between peer caches."""
        self._counters["net.c2c_msgs"] += 1
        vd_socket = self._vd_socket
        return self.hop + self._cross(vd_socket[from_vd], vd_socket[to_vd])

    def vd_to_omc(self) -> int:
        """LLC-bypass path used for version write-backs (§IV-A2)."""
        self._counters["net.omc_msgs"] += 1
        return self.hop

    def epoch_sync_notify(self) -> int:
        """Batched epoch-advance announcement (VD -> master OMC).

        With per-store synchronization the advance piggybacks on the
        coherence reply that carried the RV (§III-C) — no separate
        message exists.  Batching replaces those piggybacked updates
        with one explicit notification per transaction boundary, which
        is the message this models.
        """
        self._counters["net.epoch_sync_msgs"] += 1
        return self.hop

    def snoop_broadcast(self, num_vds: int) -> int:
        """Bus-snoop request: every VD sees (and must check) the request.

        Arbitration plus a per-snooper term — the linear component that
        makes broadcast coherence stop scaling (§II-D's motivation for
        the distributed directory this simulator defaults to).
        """
        counters = self._counters
        counters["net.snoop_broadcasts"] += 1
        counters["net.snoop_msgs"] += max(num_vds - 1, 0)
        return 2 * self.hop + (num_vds * self.hop) // 8
