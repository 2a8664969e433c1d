"""The "wild Internet" experiment (Figures 4 and 5).

The paper measures PCC against TCP CUBIC, SABUL and PCP over 510 sender/
receiver pairs across PlanetLab and GENI, spanning bandwidth-delay products
from 14.3 KB to 18 MB, and reports the CDF of per-pair throughput improvement
ratios.  We cannot reach PlanetLab, so — per the substitution rule — we sample
synthetic wide-area paths whose characteristics cover the regimes the paper
identifies as responsible for TCP's poor showing:

* high and low bandwidth-delay products (bandwidth 5–500 Mbps, RTT 10–400 ms);
* shallow to moderately provisioned bottleneck buffers (2% – 100% of BDP);
* small but non-zero random loss (0 – 1%), modelling unreliable hardware,
  rate shapers and wireless segments;
* optional background cross traffic occupying part of the bottleneck.

Each sampled path is run once per protocol under identical conditions, and the
improvement ratio distribution is reported exactly as Figure 5 does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..netsim import (
    FlowSpec,
    Simulator,
    bdp_bytes,
    single_bottleneck,
)
from ..units import BPS_PER_MBPS, MS_PER_S
from .runner import run_flows

__all__ = ["InternetPathConfig", "sample_paths", "run_path", "improvement_ratios",
           "ratio_cdf"]


@dataclass
class InternetPathConfig:
    """One synthetic wide-area path."""

    bandwidth_bps: float
    rtt: float
    loss_rate: float
    buffer_fraction_of_bdp: float
    seed: int

    @property
    def buffer_bytes(self) -> float:
        """Bottleneck buffer size implied by the BDP fraction (>= 2 packets)."""
        return max(3_000.0, self.buffer_fraction_of_bdp * bdp_bytes(
            self.bandwidth_bps, self.rtt))

    @property
    def bdp_bytes(self) -> float:
        """Bandwidth-delay product of the path in bytes."""
        return bdp_bytes(self.bandwidth_bps, self.rtt)

    def describe(self) -> str:
        """Short description used in benchmark printouts."""
        return (
            f"{self.bandwidth_bps / BPS_PER_MBPS:.0f} Mbps, {self.rtt * MS_PER_S:.0f} ms, "
            f"loss {self.loss_rate * 100:.2f}%, buffer {self.buffer_fraction_of_bdp:.2f} BDP"
        )


def sample_paths(count: int, seed: int = 7,
                 bandwidth_range_bps: tuple = (5e6, 200e6),
                 rtt_range: tuple = (0.010, 0.400),
                 loss_range: tuple = (0.0, 0.01),
                 buffer_fraction_range: tuple = (0.02, 1.0)) -> List[InternetPathConfig]:
    """Sample ``count`` synthetic Internet paths (log-uniform bandwidth/RTT)."""
    import random

    rng = random.Random(seed)
    paths = []
    for index in range(count):
        log_bw = rng.uniform(math.log(bandwidth_range_bps[0]),
                             math.log(bandwidth_range_bps[1]))
        log_rtt = rng.uniform(math.log(rtt_range[0]), math.log(rtt_range[1]))
        paths.append(
            InternetPathConfig(
                bandwidth_bps=math.exp(log_bw),
                rtt=math.exp(log_rtt),
                loss_rate=rng.uniform(*loss_range),
                buffer_fraction_of_bdp=rng.uniform(*buffer_fraction_range),
                seed=seed * 1000 + index,
            )
        )
    return paths


def run_path(config: InternetPathConfig, scheme: str, duration: float = 15.0,
             **controller_kwargs) -> float:
    """Run one protocol over one synthetic path; returns goodput in Mbps."""
    sim = Simulator(seed=config.seed)
    topo = single_bottleneck(
        sim,
        bandwidth_bps=config.bandwidth_bps,
        rtt=config.rtt,
        buffer_bytes=config.buffer_bytes,
        loss_rate=config.loss_rate,
    )
    spec = FlowSpec(scheme=scheme, controller_kwargs=controller_kwargs, label=scheme)
    result = run_flows(sim, [topo.path], [spec], duration=duration)
    return result.flow(0).goodput_bps(duration) / BPS_PER_MBPS


def improvement_ratios(
    paths: Sequence[InternetPathConfig],
    baseline_scheme: str,
    duration: float = 15.0,
    pcc_kwargs: Optional[dict] = None,
) -> List[float]:
    """PCC-over-baseline goodput ratio for every path (Figure 5's x axis)."""
    ratios = []
    for config in paths:
        pcc = run_path(config, "pcc", duration=duration, **(pcc_kwargs or {}))
        baseline = run_path(config, baseline_scheme, duration=duration)
        ratios.append(pcc / baseline if baseline > 0 else float("inf"))
    return ratios


def ratio_cdf(ratios: Sequence[float],
              thresholds: Sequence[float] = (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0),
              ) -> Dict[float, float]:
    """Fraction of trials with improvement ratio >= each threshold."""
    n = len(ratios)
    if n == 0:
        return {t: 0.0 for t in thresholds}
    return {t: sum(1 for r in ratios if r >= t) / n for t in thresholds}
