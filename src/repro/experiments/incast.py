"""The data-center incast experiment (Figure 10).

Many senders transfer a fixed-size block to one receiver simultaneously
through a shallow-buffered switch port.  TCP suffers goodput collapse (bursts
overflow the port buffer, flows take retransmission timeouts and the barrier
stalls); the paper shows PCC sustains 60-80% of the achievable goodput.

Goodput is defined as in the incast literature: total bytes delivered divided
by the time until the *last* flow completes.
"""

from __future__ import annotations

from typing import Optional

from ..netsim import Simulator, incast, incast_burst
from ..units import BITS_PER_BYTE, BPS_PER_MBPS
from .runner import run_flows

__all__ = ["run_incast"]


def run_incast(
    scheme: str,
    num_senders: int,
    block_size_bytes: float,
    bandwidth_bps: float = 1e9,
    rtt: float = 0.0004,
    buffer_bytes: float = 64_000.0,
    max_duration: float = 5.0,
    seed: int = 1,
    **controller_kwargs,
) -> dict:
    """Run one incast barrier transfer and report goodput.

    Returns a dict with ``goodput_mbps`` (0 if not all flows completed within
    ``max_duration``), the completion time, and the per-flow results.
    """
    sim = Simulator(seed=seed)
    topo = incast(
        sim, num_senders=num_senders, bandwidth_bps=bandwidth_bps, rtt=rtt,
        buffer_bytes=buffer_bytes,
    )
    specs = incast_burst(scheme, num_senders, block_size_bytes, rng=sim.rng,
                         **controller_kwargs)
    result = run_flows(sim, topo.paths, specs, duration=max_duration,
                       bin_width=0.01)
    fcts = [flow.flow_completion_time for flow in result.flows]
    finish_times = [
        flow.stats.completion_time for flow in result.flows
        if flow.stats.completion_time is not None
    ]
    completed = sum(1 for fct in fcts if fct is not None)
    barrier_time: Optional[float] = max(finish_times) if completed == num_senders else None
    total_bytes = num_senders * block_size_bytes
    goodput_bps = total_bytes * BITS_PER_BYTE / barrier_time if barrier_time else 0.0
    return {
        "scheme": scheme,
        "num_senders": num_senders,
        "block_size_bytes": block_size_bytes,
        "completed": completed,
        "barrier_time": barrier_time,
        "goodput_mbps": goodput_bps / BPS_PER_MBPS,
        "optimal_mbps": bandwidth_bps / BPS_PER_MBPS,
        "result": result,
    }
