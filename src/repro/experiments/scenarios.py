"""Scenario builders for the paper's Emulab-style experiments.

Each function builds one of the Section 4 evaluation scenarios inside the
simulator, runs it, and returns the measurements the corresponding figure
plots.  Durations and, in a few cases, bandwidths are scaled down from the
paper so that pure-Python packet-level simulation completes in benchmark time;
every comparison keeps PCC and its baselines under identical scaled
conditions.  EXPERIMENTS.md records the scaling per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..core import LatencyUtility, LossResilientUtility
from ..units import BITS_PER_BYTE, BPS_PER_MBPS, MS_PER_S
from ..netsim import (
    CoDelQueue,
    FairQueue,
    FlowSpec,
    InfiniteQueue,
    LinkConfig,
    RandomLinkDynamics,
    Simulator,
    TraceLinkDynamics,
    bdp_bytes,
    dumbbell,
    make_qdisc,
    make_synthetic_trace,
    parking_lot,
    poisson_short_flows,
    single_bottleneck,
)
from ..analysis import (
    convergence_time,
    flow_completion_times,
    jain_index_over_timescales,
    rate_std_dev,
)
from .runner import ScenarioResult, run_flows

__all__ = [
    "ScenarioOutcome",
    "satellite_scenario",
    "lossy_link_scenario",
    "shallow_buffer_scenario",
    "rtt_unfairness_scenario",
    "dynamic_network_scenario",
    "parking_lot_scenario",
    "variable_bandwidth_scenario",
    "convergence_scenario",
    "fairness_index_over_timescales",
    "friendliness_scenario",
    "short_flow_scenario",
    "tradeoff_scenario",
    "extreme_loss_scenario",
    "aqm_power_scenario",
    "utility_ablation_scenario",
    "CONTENTION_BANDWIDTH_BPS",
    "RESPONSIVENESS_BANDWIDTH_BPS",
]

#: Default bottleneck capacities shared between the scenario signatures here
#: and the report specs that re-state them (named so the two can never drift
#: apart): 20 Mbps for the multi-flow contention scenarios (convergence,
#: fairness timescales, utility ablation), 50 Mbps for the single-flow
#: responsiveness scenarios (stability/reactiveness trade-off, extreme loss).
CONTENTION_BANDWIDTH_BPS = 20e6
RESPONSIVENESS_BANDWIDTH_BPS = 50e6

#: Scheme -> PCC-specific keyword arguments injected automatically.
_PCC_DEFAULTS: Dict[str, object] = {}


@dataclass
class ScenarioOutcome:
    """Uniform return value for single-number scenarios."""

    scheme: str
    goodput_mbps: float
    loss_rate: float
    mean_rtt_ms: float
    result: ScenarioResult

    @property
    def goodput_bps(self) -> float:
        """Goodput in bits per second."""
        return self.goodput_mbps * BPS_PER_MBPS


def _single_flow_outcome(scheme: str, result: ScenarioResult) -> ScenarioOutcome:
    flow = result.flow(0)
    return ScenarioOutcome(
        scheme=scheme,
        goodput_mbps=flow.goodput_bps(result.duration) / BPS_PER_MBPS,
        loss_rate=flow.loss_rate,
        mean_rtt_ms=flow.mean_rtt * MS_PER_S,
        result=result,
    )


# --------------------------------------------------------------------------- #
# Figure 6 — satellite link
# --------------------------------------------------------------------------- #
def satellite_scenario(
    scheme: str,
    buffer_bytes: float = 7_500.0,
    duration: float = 60.0,
    bandwidth_bps: float = 42e6,
    rtt: float = 0.8,
    loss_rate: float = 0.0074,
    seed: int = 1,
    **controller_kwargs,
) -> ScenarioOutcome:
    """The WINDS satellite link of §4.1.3: 42 Mbps, 800 ms RTT, 0.74% loss."""
    sim = Simulator(seed=seed)
    topo = single_bottleneck(
        sim, bandwidth_bps=bandwidth_bps, rtt=rtt,
        buffer_bytes=buffer_bytes, loss_rate=loss_rate,
    )
    spec = FlowSpec(scheme=scheme, controller_kwargs=controller_kwargs, label=scheme)
    result = run_flows(sim, [topo.path], [spec], duration=duration)
    return _single_flow_outcome(scheme, result)


# --------------------------------------------------------------------------- #
# Figure 7 — random loss
# --------------------------------------------------------------------------- #
def lossy_link_scenario(
    scheme: str,
    loss_rate: float,
    duration: float = 30.0,
    bandwidth_bps: float = 100e6,
    rtt: float = 0.03,
    seed: int = 1,
    **controller_kwargs,
) -> ScenarioOutcome:
    """The §4.1.4 lossy link: 100 Mbps, 30 ms RTT, loss on both directions."""
    sim = Simulator(seed=seed)
    topo = single_bottleneck(
        sim, bandwidth_bps=bandwidth_bps, rtt=rtt,
        buffer_bytes=bdp_bytes(bandwidth_bps, rtt),
        loss_rate=loss_rate, reverse_loss_rate=loss_rate,
    )
    spec = FlowSpec(scheme=scheme, controller_kwargs=controller_kwargs, label=scheme)
    result = run_flows(sim, [topo.path], [spec], duration=duration)
    return _single_flow_outcome(scheme, result)


# --------------------------------------------------------------------------- #
# Figure 9 — shallow buffers
# --------------------------------------------------------------------------- #
def shallow_buffer_scenario(
    scheme: str,
    buffer_bytes: float,
    duration: float = 30.0,
    bandwidth_bps: float = 100e6,
    rtt: float = 0.03,
    seed: int = 1,
    **controller_kwargs,
) -> ScenarioOutcome:
    """The §4.1.6 shallow-buffer bottleneck: 100 Mbps, 30 ms, clean link."""
    sim = Simulator(seed=seed)
    topo = single_bottleneck(
        sim, bandwidth_bps=bandwidth_bps, rtt=rtt, buffer_bytes=buffer_bytes,
    )
    spec = FlowSpec(scheme=scheme, controller_kwargs=controller_kwargs, label=scheme)
    result = run_flows(sim, [topo.path], [spec], duration=duration)
    return _single_flow_outcome(scheme, result)


# --------------------------------------------------------------------------- #
# Figure 8 — RTT unfairness
# --------------------------------------------------------------------------- #
def rtt_unfairness_scenario(
    scheme: str,
    long_rtt: float,
    short_rtt: float = 0.010,
    bandwidth_bps: float = 100e6,
    long_flow_head_start: float = 5.0,
    duration: float = 60.0,
    seed: int = 1,
    **controller_kwargs,
) -> dict:
    """The §4.1.5 RTT-unfairness experiment.

    A long-RTT flow starts first, then a short-RTT flow joins on the same
    bottleneck (buffer = one short-flow BDP).  Returns the long/short
    throughput ratio measured after the short flow joins.
    """
    sim = Simulator(seed=seed)
    bottleneck = LinkConfig(
        bandwidth_bps=bandwidth_bps,
        delay_s=short_rtt / 4.0,
        buffer_bytes=bdp_bytes(bandwidth_bps, short_rtt),
        name="bottleneck",
    )
    # Access-link delays make up the per-flow RTT difference.
    long_access = (long_rtt - short_rtt / 2.0) / 2.0
    short_access = short_rtt / 4.0
    topo = dumbbell(sim, bottleneck, access_delays=[long_access, short_access])
    specs = [
        FlowSpec(scheme=scheme, start_time=0.0, path_index=0, label="long",
                 controller_kwargs=dict(controller_kwargs)),
        FlowSpec(scheme=scheme, start_time=long_flow_head_start, path_index=1,
                 label="short", controller_kwargs=dict(controller_kwargs)),
    ]
    result = run_flows(sim, topo.paths, specs, duration=duration)
    measure_start = long_flow_head_start + 1.0
    window = duration - measure_start
    long_bytes = sum(
        result.by_label("long").stats.delivered_bins.bin_values(measure_start, duration)
    )
    short_bytes = sum(
        result.by_label("short").stats.delivered_bins.bin_values(measure_start, duration)
    )
    ratio = long_bytes / short_bytes if short_bytes > 0 else 0.0
    return {
        "scheme": scheme,
        "long_rtt_ms": long_rtt * MS_PER_S,
        "ratio": ratio,
        "long_mbps": long_bytes * BITS_PER_BYTE / window / BPS_PER_MBPS,
        "short_mbps": short_bytes * BITS_PER_BYTE / window / BPS_PER_MBPS,
        "result": result,
    }


# --------------------------------------------------------------------------- #
# Figure 11 — rapidly changing network
# --------------------------------------------------------------------------- #
def dynamic_network_scenario(
    scheme: str,
    duration: float = 100.0,
    change_period: float = 5.0,
    seed: int = 1,
    **controller_kwargs,
) -> dict:
    """The §4.1.7 rapidly changing network: bw/RTT/loss re-drawn every period."""
    sim = Simulator(seed=seed)
    topo = single_bottleneck(
        sim, bandwidth_bps=100e6, rtt=0.03, buffer_bytes=375_000.0,
    )
    dynamics = RandomLinkDynamics(
        sim, topo.forward, period=change_period,
        bandwidth_range_bps=(10e6, 100e6), rtt_range=(0.010, 0.100),
        loss_range=(0.0, 0.01), reverse_link=topo.reverse,
    )
    dynamics.start()
    spec = FlowSpec(scheme=scheme, controller_kwargs=controller_kwargs, label=scheme)
    result = run_flows(sim, [topo.path], [spec], duration=duration)
    flow = result.flow(0)
    optimal_mbps = dynamics.mean_optimal_rate(0.0, duration) / BPS_PER_MBPS
    return {
        "scheme": scheme,
        "goodput_mbps": flow.goodput_bps(duration) / BPS_PER_MBPS,
        "optimal_mbps": optimal_mbps,
        "fraction_of_optimal": (flow.goodput_bps(duration) / BPS_PER_MBPS) / optimal_mbps
        if optimal_mbps > 0 else 0.0,
        "rate_series": flow.stats.rate_series,
        "dynamics": dynamics,
        "result": result,
    }


# --------------------------------------------------------------------------- #
# §4.3 — multi-bottleneck parking lot with per-hop cross traffic
# --------------------------------------------------------------------------- #
def parking_lot_scenario(
    scheme: str,
    num_hops: int = 3,
    cross_scheme: Optional[str] = None,
    bandwidth_bps: float = 30e6,
    hop_rtt: float = 0.010,
    duration: float = 30.0,
    cross_start: float = 0.0,
    seed: int = 1,
    **controller_kwargs,
) -> dict:
    """One long flow crossing ``num_hops`` bottlenecks against per-hop cross
    traffic — the paper's multi-hop/RTT-diversity conditions (§4.3).

    The long flow (scheme ``scheme``) traverses every hop; each hop also
    carries one cross flow (``cross_scheme``, defaulting to the same scheme)
    that enters just before it and leaves right after.  Returns the long
    flow's goodput, the per-hop cross goodputs and the long flow's share of
    its fair allocation (``bandwidth_bps / 2`` with one cross flow per hop).
    """
    sim = Simulator(seed=seed)
    topo = parking_lot(
        sim,
        num_hops=num_hops,
        bandwidth_bps=bandwidth_bps,
        hop_delay=hop_rtt / 2.0,
        buffer_bytes=bdp_bytes(bandwidth_bps, num_hops * hop_rtt),
    )
    cross = cross_scheme or scheme
    specs = [
        FlowSpec(scheme=scheme, path_index=0, label="long",
                 controller_kwargs=dict(controller_kwargs)),
    ]
    for i in range(num_hops):
        specs.append(
            FlowSpec(scheme=cross, start_time=cross_start, path_index=1 + i,
                     label=f"cross-{i}")
        )
    result = run_flows(sim, topo.paths, specs, duration=duration)
    long_mbps = result.by_label("long").goodput_bps(duration) / BPS_PER_MBPS
    cross_mbps = [
        result.by_label(f"cross-{i}").goodput_bps(duration) / BPS_PER_MBPS
        for i in range(num_hops)
    ]
    fair_share_mbps = bandwidth_bps / 2.0 / BPS_PER_MBPS
    return {
        "scheme": scheme,
        "cross_scheme": cross,
        "num_hops": num_hops,
        "long_mbps": long_mbps,
        "cross_mbps": cross_mbps,
        "fair_share_mbps": fair_share_mbps,
        "long_share_of_fair": long_mbps / fair_share_mbps if fair_share_mbps else 0.0,
        "result": result,
    }


# --------------------------------------------------------------------------- #
# §4.1.7 complement — trace-driven time-varying capacity
# --------------------------------------------------------------------------- #
def variable_bandwidth_scenario(
    scheme: str,
    trace: str = "step",
    duration: float = 60.0,
    peak_bandwidth_bps: float = 100e6,
    rtt: float = 0.03,
    seed: int = 1,
    trace_seed: int = 0,
    **controller_kwargs,
) -> dict:
    """A bottleneck whose capacity follows a bundled synthetic trace.

    Complements :func:`dynamic_network_scenario` (which re-draws parameters at
    random): here the capacity follows the named piecewise-constant trace
    (``step``, ``sawtooth`` or ``cellular`` — see
    :func:`repro.netsim.make_synthetic_trace`), so runs are comparable across
    schemes point by point.  The cellular walk is seeded by ``trace_seed``,
    deliberately separate from the simulator ``seed``, so varying the latter
    across schemes keeps the capacity trace identical.  Returns goodput
    against the time-weighted optimal.
    """
    sim = Simulator(seed=seed)
    topo = single_bottleneck(
        sim, bandwidth_bps=peak_bandwidth_bps, rtt=rtt,
        buffer_bytes=bdp_bytes(peak_bandwidth_bps, rtt),
    )
    dynamics = TraceLinkDynamics(
        sim, topo.forward,
        bandwidth_trace=make_synthetic_trace(
            trace, peak_bps=peak_bandwidth_bps, duration=duration,
            seed=trace_seed,
        ),
    )
    dynamics.start()
    spec = FlowSpec(scheme=scheme, controller_kwargs=controller_kwargs, label=scheme)
    result = run_flows(sim, [topo.path], [spec], duration=duration)
    flow = result.flow(0)
    optimal_mbps = dynamics.mean_optimal_rate(0.0, duration) / BPS_PER_MBPS
    goodput_mbps = flow.goodput_bps(duration) / BPS_PER_MBPS
    return {
        "scheme": scheme,
        "trace": trace,
        "goodput_mbps": goodput_mbps,
        "optimal_mbps": optimal_mbps,
        "fraction_of_optimal": goodput_mbps / optimal_mbps if optimal_mbps > 0 else 0.0,
        "rate_series": flow.stats.rate_series,
        "dynamics": dynamics,
        "result": result,
    }


# --------------------------------------------------------------------------- #
# Figures 12/13 — convergence and fairness of competing flows
# --------------------------------------------------------------------------- #
def convergence_scenario(
    scheme: str,
    num_flows: int = 4,
    stagger: float = 25.0,
    flow_duration: float = 100.0,
    bandwidth_bps: float = CONTENTION_BANDWIDTH_BPS,
    rtt: float = 0.03,
    bin_width: float = 1.0,
    seed: int = 1,
    **controller_kwargs,
) -> ScenarioResult:
    """Staggered long-lived flows on a dumbbell (paper: 100 Mbps / 500 s spacing).

    Scaled down (20 Mbps bottleneck, 25 s spacing by default) so the packet
    count stays tractable; the convergence/stability *shape* is preserved.
    """
    sim = Simulator(seed=seed)
    bottleneck = LinkConfig(
        bandwidth_bps=bandwidth_bps, delay_s=rtt / 2.0 - 0.001,
        buffer_bytes=bdp_bytes(bandwidth_bps, rtt), name="bottleneck",
    )
    topo = dumbbell(sim, bottleneck, access_delays=[0.0005] * num_flows)
    specs = [
        FlowSpec(scheme=scheme, start_time=i * stagger, path_index=i,
                 label=f"{scheme}-{i}", controller_kwargs=dict(controller_kwargs))
        for i in range(num_flows)
    ]
    duration = stagger * (num_flows - 1) + flow_duration
    return run_flows(sim, topo.paths, specs, duration=duration, bin_width=bin_width)


def fairness_index_over_timescales(
    result: ScenarioResult,
    timescales: Sequence[float],
    bin_width: float = 1.0,
) -> Dict[float, float]:
    """Figure 13: Jain's index at several averaging time scales.

    Only the interval during which *all* flows are active is considered.
    """
    start = max(flow.spec.start_time for flow in result.flows) + 1.0
    end = result.duration
    series = [
        flow.throughput_series_mbps(start, end - bin_width) for flow in result.flows
    ]
    out: Dict[float, float] = {}
    for timescale in timescales:
        out[timescale] = jain_index_over_timescales(series, bin_width, timescale)
    return out


# --------------------------------------------------------------------------- #
# Figure 14 — TCP friendliness
# --------------------------------------------------------------------------- #
def friendliness_scenario(
    selfish_kind: str,
    num_selfish: int,
    bandwidth_bps: float = 30e6,
    rtt: float = 0.020,
    duration: float = 40.0,
    seed: int = 1,
) -> dict:
    """One normal TCP flow competing with ``num_selfish`` selfish flows.

    ``selfish_kind`` is either ``"pcc"`` (each selfish flow is one PCC flow) or
    ``"parallel_tcp"`` (each selfish flow is a bundle of 10 TCP connections,
    the §4.3.1 "TCP-Selfish").  Returns the normal TCP flow's goodput.
    """
    sim = Simulator(seed=seed)
    topo = single_bottleneck(
        sim, bandwidth_bps=bandwidth_bps, rtt=rtt,
        buffer_bytes=bdp_bytes(bandwidth_bps, rtt),
    )
    specs = [FlowSpec(scheme="cubic", label="normal-tcp")]
    for i in range(num_selfish):
        if selfish_kind == "pcc":
            specs.append(FlowSpec(scheme="pcc", label=f"selfish-{i}"))
        else:
            specs.append(
                FlowSpec(scheme="parallel_tcp", label=f"selfish-{i}",
                         controller_kwargs={"bundle_size": 10,
                                            "bundle_scheme": "cubic"})
            )
    result = run_flows(sim, [topo.path], specs, duration=duration)
    normal = result.by_label("normal-tcp")
    return {
        "selfish_kind": selfish_kind,
        "num_selfish": num_selfish,
        "normal_tcp_mbps": normal.goodput_bps(duration) / BPS_PER_MBPS,
        "result": result,
    }


# --------------------------------------------------------------------------- #
# Figure 15 — short-flow completion time
# --------------------------------------------------------------------------- #
def short_flow_scenario(
    scheme: str,
    load: float,
    duration: float = 60.0,
    bandwidth_bps: float = 15e6,
    rtt: float = 0.060,
    flow_size_bytes: float = 100_000.0,
    seed: int = 1,
    **controller_kwargs,
) -> dict:
    """The §4.3.2 short-flow FCT experiment: 100 KB flows, Poisson arrivals."""
    sim = Simulator(seed=seed)
    topo = single_bottleneck(
        sim, bandwidth_bps=bandwidth_bps, rtt=rtt,
        buffer_bytes=bdp_bytes(bandwidth_bps, rtt) * 2.0,
    )
    specs = poisson_short_flows(
        scheme, flow_size_bytes, load, bandwidth_bps, duration * 0.8,
        rng=sim.rng, **controller_kwargs,
    )
    result = run_flows(sim, [topo.path], specs, duration=duration)
    fcts = [flow.flow_completion_time for flow in result.flows]
    summary = flow_completion_times(fcts)
    summary.update({"scheme": scheme, "load": load, "offered_flows": len(specs),
                    "result": result})
    return summary


# --------------------------------------------------------------------------- #
# Figure 16 — stability / reactiveness trade-off
# --------------------------------------------------------------------------- #
def tradeoff_scenario(
    scheme: str,
    bandwidth_bps: float = RESPONSIVENESS_BANDWIDTH_BPS,
    rtt: float = 0.03,
    first_flow_head_start: float = 10.0,
    measure_duration: float = 60.0,
    bin_width: float = 1.0,
    seed: int = 1,
    **controller_kwargs,
) -> dict:
    """Two flows sharing a bottleneck; measures the second flow's convergence
    time (±25% of fair share held for 5 s) and its post-convergence rate
    standard deviation — the two axes of Figure 16.
    """
    sim = Simulator(seed=seed)
    topo_cfg = LinkConfig(
        bandwidth_bps=bandwidth_bps, delay_s=rtt / 2.0 - 0.001,
        buffer_bytes=bdp_bytes(bandwidth_bps, rtt), name="bottleneck",
    )
    topo = dumbbell(sim, topo_cfg, access_delays=[0.0005, 0.0005])
    specs = [
        FlowSpec(scheme=scheme, start_time=0.0, path_index=0, label="first",
                 controller_kwargs=dict(controller_kwargs)),
        FlowSpec(scheme=scheme, start_time=first_flow_head_start, path_index=1,
                 label="second", controller_kwargs=dict(controller_kwargs)),
    ]
    duration = first_flow_head_start + measure_duration
    result = run_flows(sim, topo.paths, specs, duration=duration,
                       bin_width=bin_width)
    second = result.by_label("second")
    fair_share_mbps = bandwidth_bps / 2.0 / BPS_PER_MBPS
    series = second.throughput_series_mbps(first_flow_head_start, duration - bin_width)
    conv = convergence_time(series, fair_share_mbps, bin_width=bin_width,
                            tolerance=0.25, window=5.0)
    if conv is None:
        stddev = rate_std_dev(series, 0.0, bin_width=bin_width)
    else:
        stddev = rate_std_dev(series, conv, duration=30.0, bin_width=bin_width)
    return {
        "scheme": scheme,
        "controller_kwargs": controller_kwargs,
        "convergence_time": conv,
        "rate_std_dev_mbps": stddev,
        "result": result,
    }


# --------------------------------------------------------------------------- #
# §4.4.2 — extreme random loss with the loss-resilient utility
# --------------------------------------------------------------------------- #
def extreme_loss_scenario(
    loss_rate: float,
    scheme: str = "pcc",
    duration: float = 30.0,
    bandwidth_bps: float = RESPONSIVENESS_BANDWIDTH_BPS,
    rtt: float = 0.03,
    seed: int = 1,
) -> ScenarioOutcome:
    """§4.4.2: a fair-queueing bottleneck with 10–50% forward loss.

    PCC runs the loss-resilient utility ``T (1 - L)``; the comparison point is
    CUBIC on the same link.
    """
    sim = Simulator(seed=seed)
    topo = single_bottleneck(
        sim, bandwidth_bps=bandwidth_bps, rtt=rtt,
        buffer_bytes=bdp_bytes(bandwidth_bps, rtt),
        loss_rate=loss_rate,
        queue_factory=lambda: FairQueue(per_flow_capacity_bytes=bdp_bytes(
            bandwidth_bps, rtt)),
    )
    kwargs = {}
    if scheme == "pcc":
        kwargs["utility_function"] = LossResilientUtility()
    spec = FlowSpec(scheme=scheme, controller_kwargs=kwargs, label=scheme)
    result = run_flows(sim, [topo.path], [spec], duration=duration)
    return _single_flow_outcome(scheme, result)


# --------------------------------------------------------------------------- #
# Figure 17 — AQM / FQ power comparison
# --------------------------------------------------------------------------- #
def aqm_power_scenario(
    scheme: str,
    aqm: str,
    bandwidth_bps: float = 40e6,
    rtt: float = 0.020,
    duration: float = 30.0,
    num_flows: int = 2,
    seed: int = 1,
) -> dict:
    """§4.4.1 / Figure 17: interactive flows under the AQM/FQ matrix.

    ``aqm`` is ``"codel"`` or ``"bufferbloat"`` (the paper's two columns,
    both behind per-flow fair queueing, kept construction-for-construction
    as they predate the qdisc registry) or any registered queue-discipline
    name (``red``, ``pie``, ``fq_codel``, ...) resolved via
    :func:`repro.netsim.make_qdisc` with the scenario's 5 MB buffer.  PCC
    flows use the latency (power-maximising) utility; TCP flows are CUBIC.
    Returns per-flow power (delivered bits per second divided by mean RTT)
    averaged over flows.
    """
    if aqm == "codel":
        queue_factory = lambda: FairQueue(  # noqa: E731
            child_factory=lambda: CoDelQueue(capacity_bytes=5_000_000.0),
            per_flow_capacity_bytes=5_000_000.0,
        )
    elif aqm == "bufferbloat":
        queue_factory = lambda: FairQueue(  # noqa: E731
            child_factory=InfiniteQueue,
        )
    else:
        # Registry fallback: the extended Figure 17 matrix (red / pie /
        # fq_codel / third-party disciplines) flows through the same
        # scenario without touching this module again.
        queue_factory = lambda: make_qdisc(aqm, 5_000_000.0)  # noqa: E731
    sim = Simulator(seed=seed)
    topo = single_bottleneck(
        sim, bandwidth_bps=bandwidth_bps, rtt=rtt,
        buffer_bytes=5_000_000.0, queue_factory=queue_factory,
    )
    kwargs: Dict[str, object] = {}
    if scheme == "pcc":
        kwargs["utility_function"] = LatencyUtility()
    specs = [
        FlowSpec(scheme=scheme, label=f"{scheme}-{i}",
                 controller_kwargs=dict(kwargs))
        for i in range(num_flows)
    ]
    result = run_flows(sim, [topo.path], specs, duration=duration)
    powers = []
    for flow in result.flows:
        goodput = flow.goodput_bps(duration)
        delay_s = flow.mean_rtt
        powers.append(goodput / delay_s if delay_s > 0 else 0.0)
    return {
        "scheme": scheme,
        "aqm": aqm,
        "mean_power": sum(powers) / len(powers) if powers else 0.0,
        "per_flow_power": powers,
        "mean_rtt_ms": sum(f.mean_rtt for f in result.flows) / len(result.flows) * MS_PER_S,
        "result": result,
    }


# --------------------------------------------------------------------------- #
# §4.4 — utility-function ablation
# --------------------------------------------------------------------------- #
def utility_ablation_scenario(
    environment: str = "lossy",
    utilities: Sequence[Optional[str]] = (None, "loss_resilient", "latency"),
    bandwidth_bps: float = CONTENTION_BANDWIDTH_BPS,
    rtt: float = 0.03,
    loss_rate: float = 0.3,
    buffer_bytes: float = 2_000_000.0,
    duration: float = 20.0,
    seed: int = 1,
) -> Dict[str, ScenarioOutcome]:
    """§4.4: the same PCC machinery under each registered utility function.

    Two environments stress the two flexibility claims:

    * ``"lossy"`` — a BDP-buffered bottleneck with heavy random loss
      (§4.4.2): the loss-resilient utility should keep most of the achievable
      ``(1 - loss) * bandwidth`` goodput while the safe utility's 5% loss cap
      makes it collapse.
    * ``"deep_buffer"`` — a bufferbloated drop-tail bottleneck (§4.4.1): the
      latency utility should keep mean RTT near the base RTT while the safe
      utility fills the buffer.

    ``utilities`` entries are registered utility names (``None`` means the
    scheme default, i.e. the safe utility).  Returns one
    :class:`ScenarioOutcome` per utility, keyed by name (``None`` → "safe").
    Every comparison runs from the same seed, so the utilities face identical
    random loss and MI-length draws as far as trajectories allow.
    """
    if environment == "lossy":
        link = dict(loss_rate=loss_rate,
                    buffer_bytes=bdp_bytes(bandwidth_bps, rtt))
    elif environment == "deep_buffer":
        link = dict(loss_rate=0.0, buffer_bytes=buffer_bytes)
    else:
        raise ValueError("environment must be 'lossy' or 'deep_buffer'")
    outcomes: Dict[str, ScenarioOutcome] = {}
    for utility in utilities:
        sim = Simulator(seed=seed)
        topo = single_bottleneck(sim, bandwidth_bps=bandwidth_bps, rtt=rtt, **link)
        kwargs = {} if utility is None else {"utility": utility}
        name = utility or "safe"
        spec = FlowSpec(scheme="pcc", controller_kwargs=kwargs, label=name)
        result = run_flows(sim, [topo.path], [spec], duration=duration)
        outcomes[name] = _single_flow_outcome("pcc", result)
    return outcomes
