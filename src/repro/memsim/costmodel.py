"""Cycle cost model: event counts -> simulated time.

Latencies approximate the paper's dual Xeon E5-2665 (Sandy Bridge EP,
2.4 GHz): ~4-cycle L1d, ~30-40-cycle LLC, ~200-cycle DRAM, page-walk cost on
a dTLB miss, and a cache-to-cache transfer comparable to an LLC-plus round
trip. Absolute values matter less than ratios — they control the *shape* of
the speedup curves, which is what the reproduction targets.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Cycle costs for memory and synchronisation events."""

    l1_hit_cycles: int = 4
    llc_hit_cycles: int = 36
    dram_cycles: int = 200
    tlb_miss_cycles: int = 80
    intercore_cycles: int = 120
    lock_cycles: int = 16
    lock_contended_cycles: int = 120
    alu_op_cycles: int = 1
    network_latency_s: float = 3e-6
    network_bandwidth_bytes_per_s: float = 4e9
    frequency_hz: float = 2.4e9

    def access_cycles(
        self, l1_hit: bool, llc_hit: bool, tlb_miss: bool, transferred: bool
    ) -> int:
        """Cycles for one line access given the simulator's outcome."""
        cycles = self.l1_hit_cycles
        if not l1_hit:
            if transferred:
                cycles += self.intercore_cycles
            elif llc_hit:
                cycles += self.llc_hit_cycles
            else:
                cycles += self.llc_hit_cycles + self.dram_cycles
        if tlb_miss:
            cycles += self.tlb_miss_cycles
        return cycles

    def seconds(self, cycles: float) -> float:
        """Convert simulated cycles into simulated seconds."""
        return cycles / self.frequency_hz

    def message_seconds(self, messages: int, total_bytes: int) -> float:
        """Network time for a batch of messages under the LogP-style model."""
        return (
            messages * self.network_latency_s
            + total_bytes / self.network_bandwidth_bytes_per_s
        )
