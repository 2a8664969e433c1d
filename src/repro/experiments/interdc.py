"""The inter-data-center experiment (Table 1).

The paper reserves 800 Mbps end-to-end on nine GENI/Internet2 site pairs and
compares PCC, SABUL, CUBIC and Illinois over 100-second transfers.  The key
property of those paths, called out explicitly in §4.1.2, is that the
bandwidth-reserving rate limiter has a *small buffer*: TCP repeatedly overflows
it and backs off, while PCC tracks the reserved rate.

We model each pair as a dedicated path whose bottleneck is a rate limiter with
a buffer of a handful of packets.  Bandwidth is scaled down (default 200 Mbps
instead of 800 Mbps) to keep pure-Python packet simulation tractable; the RTTs
are the paper's measured values.  EXPERIMENTS.md records the scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..netsim import (
    DEFAULT_MSS,
    FlowSpec,
    Simulator,
    single_bottleneck,
)
from ..units import BPS_PER_MBPS, MS_PER_S
from .runner import run_flows

__all__ = ["InterDCPair", "PAPER_PAIRS", "run_pair", "run_table"]


@dataclass
class InterDCPair:
    """One sender/receiver site pair from Table 1."""

    name: str
    rtt: float  # seconds
    paper_throughput_mbps: Dict[str, float]


#: The nine transfers of Table 1 with the paper's measured throughputs (Mbps).
PAPER_PAIRS: List[InterDCPair] = [
    InterDCPair("GPO -> NYSERNet", 0.0121,
                {"pcc": 818, "sabul": 563, "cubic": 129, "illinois": 326}),
    InterDCPair("GPO -> Missouri", 0.0465,
                {"pcc": 624, "sabul": 531, "cubic": 80.7, "illinois": 90.1}),
    InterDCPair("GPO -> Illinois", 0.0354,
                {"pcc": 766, "sabul": 664, "cubic": 84.5, "illinois": 102}),
    InterDCPair("NYSERNet -> Missouri", 0.0474,
                {"pcc": 816, "sabul": 662, "cubic": 108, "illinois": 109}),
    InterDCPair("Wisconsin -> Illinois", 0.00901,
                {"pcc": 801, "sabul": 700, "cubic": 547, "illinois": 562}),
    InterDCPair("GPO -> Wisc.", 0.0380,
                {"pcc": 783, "sabul": 487, "cubic": 79.3, "illinois": 120}),
    InterDCPair("NYSERNet -> Wisc.", 0.0383,
                {"pcc": 791, "sabul": 673, "cubic": 134, "illinois": 134}),
    InterDCPair("Missouri -> Wisc.", 0.0209,
                {"pcc": 807, "sabul": 698, "cubic": 259, "illinois": 262}),
    InterDCPair("NYSERNet -> Illinois", 0.0361,
                {"pcc": 808, "sabul": 674, "cubic": 141, "illinois": 141}),
]


def run_pair(
    pair: InterDCPair,
    scheme: str,
    reserved_bandwidth_bps: float = 200e6,
    limiter_buffer_packets: int = 8,
    duration: float = 25.0,
    seed: int = 3,
    mss: int = DEFAULT_MSS,
) -> float:
    """Run one protocol over one pair's emulated reserved path; Mbps goodput."""
    sim = Simulator(seed=seed)
    topo = single_bottleneck(
        sim,
        bandwidth_bps=reserved_bandwidth_bps,
        rtt=pair.rtt,
        buffer_bytes=limiter_buffer_packets * mss,
    )
    spec = FlowSpec(scheme=scheme, label=scheme)
    result = run_flows(sim, [topo.path], [spec], duration=duration, mss=mss)
    return result.flow(0).goodput_bps(duration) / BPS_PER_MBPS


def run_table(
    schemes: Sequence[str] = ("pcc", "sabul", "cubic", "illinois"),
    pairs: Optional[Sequence[InterDCPair]] = None,
    reserved_bandwidth_bps: float = 200e6,
    duration: float = 25.0,
) -> List[dict]:
    """Regenerate Table 1: one row per pair, one column per scheme (Mbps)."""
    rows = []
    for pair in (pairs if pairs is not None else PAPER_PAIRS):
        row = {"pair": pair.name, "rtt_ms": pair.rtt * MS_PER_S,
               "paper": pair.paper_throughput_mbps}
        for scheme in schemes:
            row[scheme] = run_pair(
                pair, scheme, reserved_bandwidth_bps=reserved_bandwidth_bps,
                duration=duration,
            )
        rows.append(row)
    return rows
