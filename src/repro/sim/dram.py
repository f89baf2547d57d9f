"""DRAM timing model: DDR3-1333 behind multiple controllers (Table II).

Working memory is latency-dominated in this simulator: a miss that falls
through the LLC pays the DRAM latency, slightly reduced by spreading
accesses across controllers.  DRAM bandwidth is never the bottleneck in
the paper's experiments (NVM is), so the model deliberately stays simple —
a per-controller occupancy window is enough to make pathological bursts
visible without slowing the simulation down.
"""

from __future__ import annotations

from .config import CACHE_LINE_SIZE, SystemConfig
from .stats import Stats


class DRAM:
    """Multi-controller DRAM with fixed latency and light occupancy."""

    # Cycles a controller stays busy per 64 B transfer.
    OCCUPANCY = 8

    def __init__(self, config: SystemConfig, stats: Stats) -> None:
        self.latency = config.dram_latency
        self.num_controllers = config.dram_controllers
        self.stats = stats
        # Outstanding-work queues, skew-tolerant like the NVM's (q.v.).
        self._backlog = [0] * config.dram_controllers
        self._last = [0] * config.dram_controllers
        # Interned stat keys: access() sits on every working-memory miss.
        self._read_keys = ("dram.reads", "dram.read_bytes")
        self._write_keys = ("dram.writes", "dram.write_bytes")
        # Direct ref into the counter dict (Stats.reset clears in place).
        self._counters = stats._counters

    def access(self, line: int, now: int, is_write: bool) -> int:
        """Perform one line transfer; returns the access latency."""
        # Hash address bits so strided patterns spread over controllers.
        ctrl = (line ^ (line >> 4) ^ (line >> 9)) % self.num_controllers
        backlog = self._backlog
        last = self._last[ctrl]
        if now > last:
            remaining = backlog[ctrl] - (now - last)
            backlog[ctrl] = remaining if remaining > 0 else 0
            self._last[ctrl] = now
        queue_delay = backlog[ctrl]
        backlog[ctrl] = queue_delay + self.OCCUPANCY
        count_key, bytes_key = self._write_keys if is_write else self._read_keys
        counters = self._counters
        counters[count_key] += 1
        counters[bytes_key] += CACHE_LINE_SIZE
        return queue_delay + self.latency

    def read(self, line: int, now: int) -> int:
        return self.access(line, now, is_write=False)

    def write(self, line: int, now: int) -> int:
        return self.access(line, now, is_write=True)
