"""Parallel scenario-grid sweeps.

Every figure in the paper's evaluation (Figs. 5-17) is a *sweep*: the same
scenario re-run over a grid of parameters (congestion-control scheme x link
rate x RTT x loss rate x buffer size x flow count).  This module is the one
place that fan-out lives:

* :class:`SweepGrid` declares the grid declaratively; its ``topology`` names a
  registered **topology builder** (``single_bottleneck`` by default, plus
  ``parking_lot`` multi-bottleneck chains and ``trace_bottleneck``
  time-varying links; extendable via :func:`register_topology`);
* scheme entries are **scheme specs** resolved against the
  :mod:`repro.schemes` registry — any registered base name plus optional
  variant suffix (``"pcc:gradient"``, ``"pcc:latency"``, …) naming controller
  kwargs (a learning policy, a utility function, an ablation switch) — and
  the grid has a ``utilities`` axis crossing registered utility names with
  every other axis, the §4.4 flexibility experiments as first-class sweep
  dimensions;
* :func:`sweep` fans the cells out across CPU cores with
  :mod:`multiprocessing`, seeding every cell deterministically from
  ``(base_seed, cell_index)`` via :func:`derive_seed`, so the result is
  **bit-identical regardless of worker count**;
* results are a streaming, resumable
  :class:`~repro.experiments.results.ResultSet`: pass ``jsonl_path`` to
  append identity-keyed records to disk as cells complete, and
  ``resume_from`` to skip every cell whose identity already appears in a
  prior (possibly interrupted) run's file; the canonical
  :meth:`~repro.experiments.results.ResultSet.to_json` view keeps per-cell
  wall times out of the payload, so two runs of the same grid — resumed or
  not — produce byte-identical files;
* ``python -m repro.experiments.sweep`` exposes the same machinery as a CLI
  (``--jsonl`` / ``--resume-from`` included).

The per-figure benchmarks in ``benchmarks/`` build their grids here instead of
hand-rolling serial loops over :func:`repro.experiments.run_flows`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..core import make_utility, policy_names, utility_names
from ..registry import NameRegistry
from ..units import BPS_PER_MBPS, BYTES_PER_KB, MS_PER_S
from ..schemes import (
    SchemeSpec,
    available_schemes,
    register_scheme_variant,
    resolve_scheme_spec,
    scheme_variant_names,
)
from .execute import PROFILE_TOP_N, execute_cells
from .executors import DEFAULT_EXECUTOR as DEFAULT_EXECUTOR_NAME
from .executors import executor_names
from .results import ResultSet, ResultSetWriter, cell_identity_key
from .store import CellStore
from ..netsim import (
    DEFAULT_QDISC,
    SYNTHETIC_TRACES,
    Path,
    QueueDiscipline,
    Simulator,
    TraceLinkDynamics,
    bdp_bytes,
    make_qdisc,
    make_synthetic_trace,
    parking_lot,
    qdisc_names,
    resolve_qdisc_kwargs,
    single_bottleneck,
    validate_trace_repeat_period,
)
from .runner import run_flows
from .workload import (
    DEFAULT_WORKLOAD,
    build_workload,
    register_workload,
    resolve_workload_kwargs,
    workload_names,
)

__all__ = [
    "ResultSet",
    "ResultSetWriter",
    "SweepCell",
    "SweepGrid",
    "cell_identity_key",
    "derive_seed",
    "register_scheme_variant",
    "register_topology",
    "register_workload",
    "resolve_scheme_spec",
    "resolve_topology_kwargs",
    "resolve_workload_kwargs",
    "build_workload",
    "scheme_variant_names",
    "topology_names",
    "workload_names",
    "sweep",
    "main",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(base_seed: int, cell_index: int) -> int:
    """Deterministic per-cell seed derived from ``(base_seed, cell_index)``.

    A splitmix64-style finalizer over the two inputs: bit-identical across
    platforms, Python versions and processes (unlike ``hash()``), and well
    mixed, so neighbouring cells do not receive correlated random streams.
    The result is confined to 63 bits so it round-trips through JSON readers
    that only handle signed 64-bit integers.
    """
    z = ((base_seed & _MASK64) ^ 0xA076_1D64_78BD_642F) & _MASK64
    z = (z + (cell_index & _MASK64) * _GOLDEN + _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z & 0x7FFF_FFFF_FFFF_FFFF


@dataclass
class SweepCell:
    """One fully-resolved point of a sweep grid."""

    index: int
    scheme: str
    bandwidth_bps: float
    rtt: float
    loss_rate: float
    buffer_bytes: Optional[float]  # ``None`` means one bandwidth-delay product
    num_flows: int
    duration: float
    seed: int
    reverse_loss: bool = False
    stagger: float = 0.0
    controller_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Name of the registered topology builder that lays out this cell's
    #: links/paths (see :func:`register_topology`).
    topology: str = "single_bottleneck"
    #: Extra JSON-serializable arguments interpreted by the topology builder
    #: (e.g. ``{"num_hops": 3}`` for ``parking_lot``).
    topology_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Registered utility-function name for this cell's PCC flows (``None``
    #: means the scheme default, i.e. the safe utility).
    utility: Optional[str] = None
    #: Registered queue discipline on the cell's bottleneck link(s) (see
    #: :func:`repro.netsim.register_qdisc`).  Part of the identity when
    #: non-default; access links keep their plain drop-tail queues.
    qdisc: str = DEFAULT_QDISC
    #: Extra JSON-serializable arguments for the qdisc factory
    #: (e.g. ``{"ecn": True}`` for codel/red/pie).
    qdisc_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Registered workload generator emitting this cell's flow schedule (see
    #: :func:`repro.experiments.register_workload`).  Part of the identity
    #: when non-default.
    workload: str = DEFAULT_WORKLOAD
    #: Extra JSON-serializable arguments for the workload builder
    #: (e.g. ``{"load": 0.7}`` for poisson/web storms).
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)

    def resolved_scheme_kwargs(self) -> Dict[str, Any]:
        """Controller kwargs this cell's scheme spec + utility resolve to.

        The scheme registry's declared kwarg defaults come first (resolved
        into the identity so archived sweeps keep their meaning even if a
        registry default changes later), then the variant's kwargs, then the
        ``utilities`` axis value; grid-level ``controller_kwargs`` are layered
        on top at simulation time (they may contain non-JSON objects, so they
        are not part of the identity — :class:`SweepGrid` rejects ones that
        would override a recorded key).  Empty for a plain default cell.
        """
        parsed = SchemeSpec.parse(self.scheme)
        kwargs = {**parsed.info().kwarg_defaults, **parsed.kwargs}
        if self.utility is not None:
            kwargs["utility"] = self.utility
        return kwargs

    def resolved_buffer_bytes(self) -> float:
        """The concrete bottleneck buffer for this cell (BDP if unspecified)."""
        if self.buffer_bytes is None:
            return bdp_bytes(self.bandwidth_bps, self.rtt)
        return float(self.buffer_bytes)

    def params(self) -> Dict[str, Any]:
        """The JSON-friendly identity of this cell (everything but results)."""
        out: Dict[str, Any] = {
            "index": self.index,
            "scheme": self.scheme,
            "bandwidth_bps": self.bandwidth_bps,
            "rtt": self.rtt,
            "loss_rate": self.loss_rate,
            "buffer_bytes": self.resolved_buffer_bytes(),
            "num_flows": self.num_flows,
            "duration": self.duration,
            "seed": self.seed,
            "reverse_loss": self.reverse_loss,
            "stagger": self.stagger,
            "topology": self.topology,
            "topology_kwargs": dict(self.topology_kwargs),
        }
        # Cells whose scheme needs no kwargs (every paper grid: pcc and the
        # TCP family declare no defaults) carry neither extra key, so archived
        # JSON from before the policy/utility axes stays byte-comparable;
        # schemes with declared kwarg defaults (parallel_tcp's bundle shape)
        # record them so the archive fully specifies what was simulated.
        if self.utility is not None:
            out["utility"] = self.utility
        scheme_kwargs = self.resolved_scheme_kwargs()
        if scheme_kwargs:
            out["scheme_kwargs"] = scheme_kwargs
        # The queue discipline and the workload are recorded only when
        # non-default, fully resolved (defaults merged in) so archived
        # cells keep their meaning even if a factory default changes later.
        if self.qdisc != DEFAULT_QDISC or self.qdisc_kwargs:
            out["qdisc"] = self.qdisc
            out["qdisc_kwargs"] = resolve_qdisc_kwargs(
                self.qdisc, dict(self.qdisc_kwargs))
        if self.workload != DEFAULT_WORKLOAD or self.workload_kwargs:
            out["workload"] = self.workload
            out["workload_kwargs"] = resolve_workload_kwargs(
                self.workload, dict(self.workload_kwargs))
        return out

    def queue_factory(self) -> Optional[Callable[[], QueueDiscipline]]:
        """Bottleneck queue factory for this cell, or ``None`` for the
        default.

        Returning ``None`` on the default path (plain drop-tail, no kwargs)
        lets topology builders keep their pre-registry construction exactly,
        so archived default sweeps stay byte-identical.
        """
        if self.qdisc == DEFAULT_QDISC and not self.qdisc_kwargs:
            return None
        buffer_bytes = self.resolved_buffer_bytes()
        return lambda: make_qdisc(self.qdisc, buffer_bytes,
                                  **self.qdisc_kwargs)


# --------------------------------------------------------------------------- #
# Topology builder registry
# --------------------------------------------------------------------------- #
#: A topology builder lays a cell's links out inside ``sim`` and returns the
#: flow paths.  Flow ``i`` of the cell is attached to ``paths[i % len(paths)]``,
#: so the order paths are returned in is part of the builder's contract.
TopologyBuilder = Callable[[Simulator, SweepCell], Sequence[Path]]


@dataclass(frozen=True)
class _Topology:
    builder: TopologyBuilder
    kwarg_defaults: Dict[str, Any]
    supports_reverse_loss: bool
    #: Optional validator called as ``validate(grid, resolved_kwargs)`` from
    #: :meth:`SweepGrid.__post_init__`, so topology-specific
    #: mis-configurations fail at grid construction, not mid-sweep in a worker.
    validate_grid: Optional[Callable[["SweepGrid", Dict[str, Any]], None]]


_TOPOLOGIES: NameRegistry[_Topology] = NameRegistry("topology")


def register_topology(
    name: str,
    builder: TopologyBuilder,
    kwarg_defaults: Optional[Dict[str, Any]] = None,
    supports_reverse_loss: bool = True,
    validate_grid: Optional[Callable[["SweepGrid", Dict[str, Any]], None]] = None,
) -> None:
    """Register ``builder`` under ``name`` for use as a grid's ``topology``.

    ``kwarg_defaults`` declares every ``topology_kwargs`` key the builder
    accepts together with its default value.  :meth:`SweepGrid.cells` merges
    the defaults under the grid's explicit kwargs, so the *resolved* values
    are recorded in each cell's identity JSON (archived sweeps keep their
    meaning even if a builder default changes later), and rejects unknown
    keys at grid construction time.  Builders that do not honor the grid's
    ``reverse_loss`` flag register with ``supports_reverse_loss=False`` so a
    grid combining the two is rejected at construction rather than mid-sweep
    in a worker.

    Builders must be deterministic given ``(sim, cell)``.  Cells cross the
    process boundary carrying only the topology *name*; each worker resolves
    it against its own registry.  Under the ``spawn`` start method workers
    re-import modules from scratch, so custom topologies must be registered
    at module import time (top level of an imported module), not inside an
    ``if __name__ == "__main__":`` block or an interactive session —
    otherwise multi-worker sweeps fail with "unknown topology".
    """
    _TOPOLOGIES.register(name, _Topology(
        builder=builder,
        kwarg_defaults=dict(kwarg_defaults or {}),
        supports_reverse_loss=supports_reverse_loss,
        validate_grid=validate_grid,
    ))


def resolve_topology_kwargs(name: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Merge ``kwargs`` over the topology's declared defaults, rejecting keys
    the builder never declared."""
    defaults = _TOPOLOGIES.get(name).kwarg_defaults
    unknown = set(kwargs) - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown topology_kwargs for {name!r}: {sorted(unknown)}"
        )
    return {**defaults, **kwargs}


def topology_names() -> List[str]:
    """All registered topology names, sorted."""
    return _TOPOLOGIES.names()


def _build_single_bottleneck(sim: Simulator, cell: SweepCell) -> List[Path]:
    """One bottleneck link pair; every flow shares the single path."""
    resolve_topology_kwargs("single_bottleneck", dict(cell.topology_kwargs))
    topo = single_bottleneck(
        sim,
        bandwidth_bps=cell.bandwidth_bps,
        rtt=cell.rtt,
        buffer_bytes=cell.resolved_buffer_bytes(),
        loss_rate=cell.loss_rate,
        reverse_loss_rate=cell.loss_rate if cell.reverse_loss else None,
        queue_factory=cell.queue_factory(),
    )
    return [topo.path]


def _parking_lot_hop_delay(rtt: float, num_hops: int, access_delay: float) -> float:
    """Per-hop one-way delay for a parking lot whose *long* flow has base RTT
    ``rtt``.  One shared implementation backs both the grid-construction
    validator and the worker-side builder, so the two can never disagree."""
    if num_hops < 1:
        raise ValueError("a parking lot needs at least one hop")
    hop_delay = (rtt / 2.0 - access_delay) / num_hops
    if hop_delay < 1e-5:
        # Refuse rather than clamp: a clamped hop delay would simulate an
        # RTT different from the one recorded in the cell identity, turning
        # an RTT sweep into identical points with different labels.
        raise ValueError(
            f"rtt={rtt} is too small for a {num_hops}-hop parking lot "
            f"with access_delay={access_delay}; need rtt >= "
            f"{2 * (access_delay + num_hops * 1e-5)}"
        )
    return hop_delay


def _build_parking_lot(sim: Simulator, cell: SweepCell) -> List[Path]:
    """A multi-bottleneck chain: path 0 crosses every hop, path ``1 + i`` only
    hop ``i``.  ``cell.rtt`` is the *long* flow's base RTT; each hop gets an
    equal share of it, so cross flows are RTT-diverse by construction.  The
    per-cell ``num_flows`` should normally be ``1 + num_hops`` (one long flow
    plus one cross flow per hop); fewer flows leave the later hops uncontested.
    """
    # Resolve against the registry's declared defaults (the single source of
    # truth), so a hand-built SweepCell gets the same values a SweepGrid does.
    kwargs = resolve_topology_kwargs("parking_lot", dict(cell.topology_kwargs))
    num_hops = int(kwargs["num_hops"])
    access_delay = float(kwargs["access_delay"])
    if cell.reverse_loss:
        # The parking lot builds clean ACK hops; silently recording
        # reverse_loss=true in the cell identity while not simulating it
        # would lie to downstream analysis.
        raise ValueError("reverse_loss is not supported by the parking_lot "
                         "topology (ACK hops are loss-free)")
    hop_delay = _parking_lot_hop_delay(cell.rtt, num_hops, access_delay)
    topo = parking_lot(
        sim,
        num_hops=num_hops,
        bandwidth_bps=cell.bandwidth_bps,
        hop_delay=hop_delay,
        buffer_bytes=cell.resolved_buffer_bytes(),
        loss_rate=cell.loss_rate,
        access_delay=access_delay,
        queue_factory=cell.queue_factory(),
    )
    return topo.paths


def _build_trace_bottleneck(sim: Simulator, cell: SweepCell) -> List[Path]:
    """A single bottleneck whose capacity follows a bundled synthetic trace.

    ``cell.bandwidth_bps`` is the trace's peak rate; the ``trace`` kwarg picks
    the shape (``step`` / ``sawtooth`` / ``cellular``).  The cellular walk is
    seeded from the ``trace_seed`` kwarg — *not* the per-cell seed — so cells
    differing only by scheme face the identical capacity trace and stay
    comparable point by point (vary ``trace_seed`` for other realizations).
    """
    kwargs = resolve_topology_kwargs("trace_bottleneck", dict(cell.topology_kwargs))
    trace_name = str(kwargs["trace"])
    repeat_every = kwargs["repeat_every"]
    topo = single_bottleneck(
        sim,
        bandwidth_bps=cell.bandwidth_bps,
        rtt=cell.rtt,
        buffer_bytes=cell.resolved_buffer_bytes(),
        loss_rate=cell.loss_rate,
        reverse_loss_rate=cell.loss_rate if cell.reverse_loss else None,
        queue_factory=cell.queue_factory(),
    )
    trace = make_synthetic_trace(
        trace_name, peak_bps=cell.bandwidth_bps, duration=cell.duration,
        seed=int(kwargs["trace_seed"]),
    )
    TraceLinkDynamics(
        sim, topo.forward, bandwidth_trace=trace, repeat_every=repeat_every,
    ).start()
    return [topo.path]


def _validate_parking_lot_grid(grid: "SweepGrid", kwargs: Dict[str, Any]) -> None:
    num_hops = int(kwargs["num_hops"])
    access_delay = float(kwargs["access_delay"])
    for rtt in grid.rtts:
        _parking_lot_hop_delay(float(rtt), num_hops, access_delay)


def _validate_trace_bottleneck_grid(grid: "SweepGrid", kwargs: Dict[str, Any]) -> None:
    # Building the trace validates the name; its entry *times* depend only on
    # the duration (never the seed), so the repeat_every check holds per cell.
    trace = make_synthetic_trace(str(kwargs["trace"]), peak_bps=1.0,
                                 duration=grid.duration)
    validate_trace_repeat_period(kwargs["repeat_every"], trace)


register_topology("single_bottleneck", _build_single_bottleneck)
register_topology("parking_lot", _build_parking_lot,
                  {"num_hops": 3, "access_delay": 0.0005},
                  supports_reverse_loss=False,
                  validate_grid=_validate_parking_lot_grid)
register_topology("trace_bottleneck", _build_trace_bottleneck,
                  {"trace": "step", "repeat_every": None, "trace_seed": 0},
                  validate_grid=_validate_trace_bottleneck_grid)


@dataclass
class SweepGrid:
    """A declarative grid of scenarios over one named topology.

    Cells are enumerated as the cartesian product in the fixed axis order
    ``scheme x bandwidth x rtt x loss x buffer x flow count x utility`` (the
    slowest varying axis first), so cell indices — and therefore the derived
    per-cell seeds — are a pure function of the grid declaration.
    """

    schemes: Sequence[str]
    bandwidths_bps: Sequence[float] = (100e6,)
    rtts: Sequence[float] = (0.03,)
    loss_rates: Sequence[float] = (0.0,)
    buffers_bytes: Sequence[Optional[float]] = (None,)
    flow_counts: Sequence[int] = (1,)
    #: Registered utility-function names (§4.4 flexibility axis); ``None``
    #: means the scheme default (safe utility).  The fastest-varying axis, so
    #: the default ``(None,)`` leaves the cell enumeration — and therefore
    #: every derived per-cell seed — of pre-existing grids untouched.
    utilities: Sequence[Optional[str]] = (None,)
    duration: float = 15.0
    #: Apply the forward loss rate to the reverse (ACK) direction too, as in
    #: the Figure 7 lossy-link experiment (single-path topologies only).
    reverse_loss: bool = False
    #: Start flow ``i`` at ``i * stagger`` seconds (multi-flow cells).
    stagger: float = 0.0
    #: Extra keyword arguments forwarded to every flow's controller.
    controller_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Registered topology builder resolved per cell (see
    #: :func:`register_topology`); every cell of the grid shares one shape.
    topology: str = "single_bottleneck"
    #: JSON-serializable arguments interpreted by the topology builder.
    topology_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Registered queue discipline on every cell's bottleneck link(s) (see
    #: :func:`repro.netsim.register_qdisc`).  Part of the cell identity when
    #: non-default.
    qdisc: str = DEFAULT_QDISC
    #: JSON-serializable arguments for the qdisc factory.
    qdisc_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Registered workload generator shared by every cell (see
    #: :func:`repro.experiments.register_workload`).  Part of the cell
    #: identity when non-default.
    workload: str = DEFAULT_WORKLOAD
    #: JSON-serializable arguments for the workload builder.
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("a sweep grid needs at least one scheme")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not self.utilities:
            raise ValueError("a sweep grid needs at least one utilities entry "
                             "(use (None,) for the scheme default)")
        # Resolve every scheme spec now: unknown schemes and variants fail at
        # grid construction, not mid-sweep inside a worker.
        parsed_specs = {spec: SchemeSpec.parse(spec) for spec in self.schemes}
        # The policy and utility a cell ran with are identity: they must
        # arrive via scheme specs or the utilities axis, which are recorded in
        # the cell identity JSON.  Smuggled through grid-level
        # controller_kwargs they would be simulated but not recorded, so
        # archived sweeps would lie about what ran.
        identity_keys = {"policy", "utility", "utility_function"} \
            & set(self.controller_kwargs)
        if identity_keys:
            raise ValueError(
                f"controller_kwargs cannot set {sorted(identity_keys)}; select "
                f"policies via scheme specs (e.g. 'pcc:gradient') and "
                f"utilities via the utilities axis so the cell identity "
                f"records them"
            )
        smuggled = {"qdisc", "workload"} & set(self.controller_kwargs)
        if smuggled:
            # Same rule: queue discipline and workload are cell identity
            # (when non-default), never controller knobs.
            raise ValueError(
                f"controller_kwargs cannot set {sorted(smuggled)}; pass them "
                f"as the grid's qdisc/workload fields so the cell identity "
                f"records them"
            )
        # Fail fast on unknown qdisc/workload names or undeclared kwargs.
        resolve_qdisc_kwargs(self.qdisc, dict(self.qdisc_kwargs))
        resolve_workload_kwargs(self.workload, dict(self.workload_kwargs))
        # Registry kwarg defaults and variant kwargs are recorded in cell
        # identity JSON; letting grid-level controller_kwargs override either
        # would make the archived identity lie about what was simulated.
        for spec, parsed in parsed_specs.items():
            recorded = {**parsed.info().kwarg_defaults, **parsed.kwargs}
            conflict = set(recorded) & set(self.controller_kwargs)
            if conflict:
                raise ValueError(
                    f"controller_kwargs {sorted(conflict)} would override the "
                    f"kwargs recorded for scheme spec {spec!r}; register a "
                    f"scheme variant to vary them"
                )
        named_utilities = [u for u in self.utilities if u is not None]
        for name in named_utilities:
            # Instantiating validates the name with the registry's canonical
            # unknown-name error; the throwaway instance is trivial.
            make_utility(name)
        if named_utilities:
            # The utilities axis only configures PCC flows; silently crossing
            # it with TCP schemes would duplicate cells under different labels.
            for spec, parsed in parsed_specs.items():
                if parsed.base != "pcc":
                    raise ValueError(
                        f"the utilities axis applies only to pcc-based "
                        f"schemes; {spec!r} resolves to base {parsed.base!r}"
                    )
                if "utility" in parsed.kwargs:
                    raise ValueError(
                        f"scheme spec {spec!r} already fixes the utility; "
                        f"it cannot be crossed with a utilities axis"
                    )
        # Fail fast on unknown topology names, undeclared kwargs, or
        # topology-specific mis-configurations.
        resolved = resolve_topology_kwargs(self.topology, dict(self.topology_kwargs))
        topology = _TOPOLOGIES.get(self.topology)
        if self.reverse_loss and not topology.supports_reverse_loss:
            raise ValueError(
                f"topology {self.topology!r} does not support reverse_loss"
            )
        if topology.validate_grid is not None:
            topology.validate_grid(self, resolved)

    def cells(self, base_seed: int) -> List[SweepCell]:
        """Enumerate the grid with deterministic per-cell seeds."""
        out: List[SweepCell] = []
        # Resolved once (defaults merged in) and copied per cell, so every
        # recorded cell identity fully specifies what was simulated.
        resolved_kwargs = resolve_topology_kwargs(
            self.topology, dict(self.topology_kwargs)
        )
        axes = product(
            self.schemes,
            self.bandwidths_bps,
            self.rtts,
            self.loss_rates,
            self.buffers_bytes,
            self.flow_counts,
            self.utilities,
        )
        for index, (scheme, bandwidth, rtt, loss, buffer_bytes, flows,
                    utility) in enumerate(axes):
            out.append(
                SweepCell(
                    index=index,
                    scheme=scheme,
                    bandwidth_bps=float(bandwidth),
                    rtt=float(rtt),
                    loss_rate=float(loss),
                    buffer_bytes=buffer_bytes,
                    num_flows=int(flows),
                    duration=self.duration,
                    seed=derive_seed(base_seed, index),
                    reverse_loss=self.reverse_loss,
                    stagger=self.stagger,
                    controller_kwargs=dict(self.controller_kwargs),
                    topology=self.topology,
                    topology_kwargs=dict(resolved_kwargs),
                    utility=utility,
                    qdisc=self.qdisc,
                    qdisc_kwargs=dict(self.qdisc_kwargs),
                    workload=self.workload,
                    workload_kwargs=dict(self.workload_kwargs),
                )
            )
        return out


def run_cell(cell: SweepCell) -> Dict[str, Any]:
    """Simulate one sweep cell and return its JSON-friendly outcome.

    The cell's topology builder lays out the links and paths; flow ``i`` is
    attached to path ``i % len(paths)`` (for ``single_bottleneck`` every flow
    shares the one path; for ``parking_lot`` flow 0 is the long flow and flow
    ``1 + i`` the hop-``i`` cross flow).  The returned dict contains the
    deterministic payload (cell identity, flow summaries, engine counters)
    plus the non-deterministic ``wall_time_s``, which :func:`sweep` strips
    into :attr:`~repro.experiments.results.ResultSet.timings` so that the
    canonical JSON stays byte-identical run to run.
    """
    # repro-lint: disable=RPL001 wall-time telemetry; stripped into ResultSet.timings, never canonical JSON
    start = time.perf_counter()
    sim = Simulator(seed=cell.seed)
    paths = _TOPOLOGIES.get(cell.topology).builder(sim, cell)
    # The full scheme spec goes to the runner, which resolves any variant
    # against the scheme registry — the identical resolution recorded in the
    # cell identity.  The utilities-axis value and grid-level
    # controller_kwargs layer on top.
    extra_kwargs: Dict[str, Any] = {}
    if cell.utility is not None:
        extra_kwargs["utility"] = cell.utility
    scheme_kwargs = {**extra_kwargs, **cell.controller_kwargs}
    # The registered workload emits the flow schedule (the default "bulk"
    # reproduces the classic staggered long flows byte for byte); the cell's
    # scheme kwargs layer *under* any per-flow overrides the builder set.
    specs = build_workload(cell)
    for spec in specs:
        spec.controller_kwargs = {**scheme_kwargs, **spec.controller_kwargs}
    result = run_flows(sim, paths, specs, duration=cell.duration)
    wall = time.perf_counter() - start  # repro-lint: disable=RPL001 wall-time telemetry
    return {
        "cell": cell.params(),
        "flows": result.summary_rows(),
        "engine": {
            "events_processed": sim.events_processed,
            "pending_events": sim.pending_events,
            "simulated_seconds": cell.duration,
        },
        "wall_time_s": wall,
    }


def sweep(
    grid: SweepGrid,
    base_seed: int = 0,
    workers: int = 1,
    jsonl_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    profile: bool = False,
    executor: str = DEFAULT_EXECUTOR_NAME,
    store: Union[str, CellStore, None] = None,
    progress: Optional[bool] = None,
) -> ResultSet:
    """Run every cell of ``grid``, fanning out across ``workers`` processes.

    The returned :class:`~repro.experiments.results.ResultSet` is in
    cell-index order and bit-identical for any ``workers`` value because each
    cell owns a private simulator seeded by :func:`derive_seed`; the workers
    share no random state.

    ``jsonl_path`` streams each cell's record to disk the moment it completes
    (appending when it is the same file as ``resume_from``, otherwise starting
    fresh), so an interrupted sweep loses at most the in-flight cells.
    ``resume_from`` loads a prior run — a streaming JSONL file or a legacy
    canonical JSON — and skips every grid cell whose identity already appears
    there, simulating only the missing ones; a path that does not exist yet is
    treated as an empty prior run, so ``sweep(grid, jsonl_path=p,
    resume_from=p)`` is an idempotent, crash-restartable invocation.  The
    prior file must have been produced with the same ``base_seed`` (cell
    identities embed their derived seeds, so a mismatch could never match
    anyway — it is reported as the error it is).

    ``executor`` names a registered cell executor (``local`` pool —
    the default — ``sharded`` independent processes, or ``work-queue``
    crash-tolerant leases; see :mod:`repro.experiments.executors`); every
    executor produces byte-identical canonical results.  ``store`` (a
    directory path or open :class:`~repro.experiments.store.CellStore`)
    reuses every cell ever computed across runs — store hits skip execution
    exactly like ``resume_from`` hits — and ``progress`` controls the live
    progress/ETA line on stderr (default: only when stderr is a terminal).

    The streaming/resume/reuse machinery itself lives in
    :func:`repro.experiments.execute.execute_cells`, shared with the report
    layer's scenario-list specs; ``profile`` (serial-only) prints each cell's
    hottest functions to stderr without touching canonical output.
    """
    return execute_cells(grid.cells(base_seed), run_cell, base_seed,
                         workers=workers, jsonl_path=jsonl_path,
                         resume_from=resume_from, profile=profile,
                         executor=executor, store=store, progress=progress)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def _buffer_value(text: str) -> Optional[float]:
    """Parse a --buffer-kb operand: a number in kilobytes, or 'bdp'."""
    if text.lower() == "bdp":
        return None
    return float(text) * BYTES_PER_KB


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.sweep",
        description="Run a scenario-parameter sweep grid across CPU cores.",
    )
    parser.add_argument("--schemes", nargs="+", default=["pcc", "cubic"],
                        metavar="SPEC",
                        help="congestion-control scheme specs (axis 1); "
                             "registered (variant specs included): "
                             f"{', '.join(available_schemes())}")
    parser.add_argument("--bandwidth-mbps", nargs="+", type=float, default=[100.0],
                        help="bottleneck rates in Mbps (axis 2)")
    parser.add_argument("--rtt-ms", nargs="+", type=float, default=[30.0],
                        help="round-trip times in ms (axis 3)")
    parser.add_argument("--loss", nargs="+", type=float, default=[0.0],
                        help="random loss rates (axis 4)")
    parser.add_argument("--buffer-kb", nargs="+", type=_buffer_value, default=[None],
                        dest="buffer_bytes", metavar="KB|bdp",
                        help="bottleneck buffers in KB, or 'bdp' (axis 5); "
                             "parsed straight into bytes")
    parser.add_argument("--flows", nargs="+", type=int, default=None,
                        help="concurrent flow counts (axis 6); default 1, or "
                             "1 + hops for parking_lot so every hop carries "
                             "cross traffic")
    parser.add_argument("--utility", nargs="+", default=None,
                        choices=sorted([*utility_names(), "default"]),
                        metavar="NAME",
                        help="utility functions for pcc-based schemes "
                             f"(axis 7): {', '.join(utility_names())}, or "
                             "'default' for the scheme default")
    parser.add_argument("--policy", nargs="+", default=None,
                        choices=policy_names(), metavar="NAME",
                        help="learning policies: each plain 'pcc' entry in "
                             "--schemes is expanded to one spec per policy "
                             f"({', '.join(policy_names())}; 'pcc' is the "
                             "default three-state machine)")
    parser.add_argument("--topology", default="single_bottleneck",
                        choices=topology_names(),
                        help="registered topology builder shared by every cell")
    parser.add_argument("--qdisc", default=DEFAULT_QDISC,
                        choices=qdisc_names(),
                        help="registered queue discipline on every cell's "
                             "bottleneck link(s); recorded in each cell's "
                             "identity when non-default")
    parser.add_argument("--workload", default=DEFAULT_WORKLOAD,
                        choices=workload_names(),
                        help="registered workload generator emitting each "
                             "cell's flow schedule; recorded in each cell's "
                             "identity when non-default")
    parser.add_argument("--hops", type=int, default=None,
                        help="parking_lot only: number of bottleneck hops "
                             "(flows cycle over the long path then one cross "
                             "path per hop); default from the topology "
                             "registry")
    parser.add_argument("--trace", default=None, choices=SYNTHETIC_TRACES,
                        help="trace_bottleneck only: bundled bandwidth trace; "
                             "default from the topology registry")
    parser.add_argument("--duration", type=float, default=15.0,
                        help="simulated seconds per cell")
    parser.add_argument("--stagger", type=float, default=0.0,
                        help="start flow i at i*stagger seconds")
    parser.add_argument("--reverse-loss", action="store_true",
                        help="apply the loss rate to the ACK direction too")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (results identical for any value)")
    parser.add_argument("--output", default=None,
                        help="write canonical sweep JSON to this path")
    parser.add_argument("--jsonl", default=None, metavar="PATH",
                        help="stream per-cell records to this JSON-Lines file "
                             "as they complete (with --resume-from pointing "
                             "at the same file, the file accumulates toward "
                             "the full grid across restarts)")
    parser.add_argument("--resume-from", default=None, metavar="PATH",
                        help="skip cells whose identity already appears in "
                             "this result file (a --jsonl stream or a legacy "
                             "--output JSON) and run only the missing ones")
    parser.add_argument("--executor", default=DEFAULT_EXECUTOR_NAME,
                        choices=executor_names(),
                        help="registered cell executor: 'local' in-process "
                             "pool, 'sharded' independent slice-owning "
                             "processes, 'work-queue' crash-tolerant leases; "
                             "canonical output is byte-identical for all")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="content-addressed cell store directory: cells "
                             "already stored skip execution (like "
                             "--resume-from, but across every run ever made "
                             "with this store), fresh cells are stored back")
    parser.add_argument("--progress", action="store_true",
                        help="force the live progress/ETA line on stderr "
                             "(default: only when stderr is a terminal)")
    parser.add_argument("--timing", action="store_true",
                        help="include per-cell wall times in the JSON output")
    parser.add_argument("--profile", action="store_true",
                        help="profile each cell with cProfile and print the "
                             f"top {PROFILE_TOP_N} cumulative entries to "
                             "stderr (serial only; canonical output is "
                             "untouched)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Fail loudly when a topology-specific flag is given without its topology
    # (an explicitly-passed flag that got silently ignored would run a
    # different experiment than the user asked for).
    if args.hops is not None and args.topology != "parking_lot":
        parser.error("--hops requires --topology parking_lot")
    if args.trace is not None and args.topology != "trace_bottleneck":
        parser.error("--trace requires --topology trace_bottleneck")
    if args.profile and args.workers != 1:
        parser.error("--profile requires --workers 1 (per-cell profiles from "
                     "concurrent workers would interleave)")
    if args.profile and args.executor != DEFAULT_EXECUTOR_NAME:
        parser.error("--profile requires --executor local (profiles from "
                     "independent worker processes would interleave)")
    schemes = list(args.schemes)
    if args.policy is not None:
        # Expand each plain pcc entry into one spec per requested policy
        # ("pcc" itself names the default three-state machine, so it maps to
        # the unsuffixed spec).  A --policy that cannot apply to any scheme
        # would silently run a different experiment than asked — error out.
        if "pcc" not in schemes:
            parser.error("--policy requires a plain 'pcc' entry in --schemes")
        expanded: List[str] = []
        for scheme in schemes:
            if scheme == "pcc":
                expanded.extend(
                    "pcc" if policy == "pcc" else f"pcc:{policy}"
                    for policy in args.policy
                )
            else:
                expanded.append(scheme)
        schemes = expanded
    utilities: List[Optional[str]] = [None]
    if args.utility is not None:
        utilities = [None if name == "default" else name for name in args.utility]
    # Only explicitly-passed flags become topology_kwargs; unset ones resolve
    # to the registry's declared defaults (the single source of truth).
    topology_kwargs: Dict[str, Any] = {}
    if args.hops is not None:
        topology_kwargs["num_hops"] = args.hops
    if args.trace is not None:
        topology_kwargs["trace"] = args.trace
    resolved_kwargs = resolve_topology_kwargs(args.topology, topology_kwargs)
    if args.flows is None:
        # A parking lot with the generic 1-flow default would silently run an
        # uncontested chain; default to one long flow plus per-hop cross flows.
        if args.topology == "parking_lot":
            flows = [1 + int(resolved_kwargs["num_hops"])]
        else:
            flows = [1]
    else:
        flows = args.flows
    try:
        grid = SweepGrid(
            schemes=schemes,
            bandwidths_bps=[mbps * BPS_PER_MBPS for mbps in args.bandwidth_mbps],
            rtts=[ms / MS_PER_S for ms in args.rtt_ms],
            loss_rates=args.loss,
            buffers_bytes=args.buffer_bytes,
            flow_counts=flows,
            utilities=utilities,
            duration=args.duration,
            reverse_loss=args.reverse_loss,
            stagger=args.stagger,
            topology=args.topology,
            topology_kwargs=topology_kwargs,
            qdisc=args.qdisc,
            workload=args.workload,
        )
    except ValueError as exc:
        # Mis-combined axes (e.g. a utilities axis over a TCP scheme) carry
        # their explanation in the exception; surface it as a CLI error.
        parser.error(str(exc))
    if args.resume_from is not None and not os.path.exists(args.resume_from):
        # The library treats a missing resume file as an empty prior run (the
        # idempotent-restart pattern), but an explicitly-typed CLI path that
        # does not exist is far more likely a typo silently rerunning
        # everything — fail loudly.  Exception: --resume-from pointing at the
        # --jsonl stream itself IS the restart pattern, and must work on the
        # first invocation too (before the stream exists).
        restartable = (args.jsonl is not None and
                       os.path.abspath(args.resume_from) == os.path.abspath(args.jsonl))
        if not restartable:
            parser.error(f"--resume-from: {args.resume_from} does not exist")
    try:
        result = sweep(grid, base_seed=args.seed, workers=args.workers,
                       jsonl_path=args.jsonl, resume_from=args.resume_from,
                       profile=args.profile, executor=args.executor,
                       store=args.store,
                       progress=True if args.progress else None)
    except ValueError as exc:
        # e.g. resuming from a file produced with a different base seed.
        parser.error(str(exc))

    if args.topology != "single_bottleneck":
        print(f"topology: {args.topology} {json.dumps(resolved_kwargs, sort_keys=True)}")
    header = f"{'cell':>4}  {'scheme':<22} {'mbps':>7} {'rtt_ms':>7} {'loss':>7} " \
             f"{'buf_kb':>8} {'flows':>5} {'goodput':>8}"
    print(header)
    for cell in result.cells:
        identity = cell["cell"]
        goodput = sum(flow["goodput_mbps"] for flow in cell["flows"])
        label = identity["scheme"]
        if "utility" in identity:
            label = f"{label}+{identity['utility']}"
        print(f"{identity['index']:>4}  {label:<22} "
              f"{identity['bandwidth_bps'] / BPS_PER_MBPS:>7.1f} {identity['rtt'] * MS_PER_S:>7.1f} "
              f"{identity['loss_rate']:>7.4f} {identity['buffer_bytes'] / BYTES_PER_KB:>8.1f} "
              f"{identity['num_flows']:>5} {goodput:>8.2f}")
    print(f"{len(result.cells)} cells, {result.total_events:,} events in "
          f"{result.total_wall_time_s:.2f} s of simulation work "
          f"({result.events_per_second():,.0f} events/s)")
    if args.jsonl:
        print(f"streamed per-cell records to {args.jsonl}")
    if args.output:
        result.write(args.output, include_timing=args.timing)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
