"""Workload generators: declarative :class:`FlowSpec` schedules for sweeps.

The paper's figures mostly run a handful of long bulk flows, but its FCT
experiment (Figure 15) and the production-shaped traffic questions around it
need richer arrival processes: Poisson flow arrivals with drawn sizes,
heavy-tailed (Pareto) size distributions, web-style short-flow storms,
N-sender incast waves, and mixed long/short tenant traffic.  This module puts
those generators behind a :class:`~repro.registry.NameRegistry` — the same
pluggable-by-JSON-name pattern schemes, topologies and queue
disciplines use — so a sweep cell selects its traffic with a ``workload``
name plus declarative kwargs.

Determinism contract: :func:`build_workload` hands every builder a private
``random.Random`` seeded from ``derive_seed(cell.seed, _WORKLOAD_STREAM)``.
The stream is decoupled from the simulator RNG, so generating the schedule
never perturbs the event stream, and it depends only on the cell identity —
the same cell emits a byte-identical schedule regardless of worker count,
executor, or resume, exactly like every other per-cell random stream.

Builders receive ``(cell, rng, **resolved_kwargs)`` and return the list of
:class:`FlowSpec` to run.  ``run_cell`` layers the cell's scheme kwargs
*under* each spec's ``controller_kwargs`` afterwards, so builders only set
per-flow overrides.  The default ``"bulk"`` workload reproduces the
long-running staggered flows every archived sweep ran, and cell identities
record ``workload`` only when it differs from the default, so golden JSON
artifacts stay byte-comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..registry import NameRegistry
from ..units import BITS_PER_BYTE, BYTES_PER_KB
from ..netsim import DEFAULT_MSS, FlowSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .sweep import SweepCell

__all__ = [
    "DEFAULT_WORKLOAD",
    "build_workload",
    "register_workload",
    "resolve_workload_kwargs",
    "workload_names",
]

#: The workload every entry point uses unless told otherwise.  Cell
#: identities record ``workload`` only when it differs from this.
DEFAULT_WORKLOAD = "bulk"

#: Stream tag ("WKLD") mixed into ``derive_seed`` so the workload's random
#: stream never collides with the simulator RNG seeded from the cell seed.
_WORKLOAD_STREAM = 0x574B4C44

#: A workload builder: ``builder(cell, rng, **kwargs) -> List[FlowSpec]``.
WorkloadBuilder = Callable[..., List[FlowSpec]]


@dataclass(frozen=True)
class _Workload:
    builder: WorkloadBuilder
    kwarg_defaults: Dict[str, Any] = field(default_factory=dict)


_WORKLOADS: NameRegistry[_Workload] = NameRegistry("workload")


def register_workload(
    name: str,
    builder: WorkloadBuilder,
    kwarg_defaults: Optional[Dict[str, Any]] = None,
) -> None:
    """Register ``builder`` under ``name`` for use as a cell's ``workload``.

    ``builder(cell, rng, **kwargs)`` must derive its schedule only from the
    cell's identity fields and the provided ``rng`` (never wall clock or
    global randomness), so the schedule is byte-identical across worker
    counts and executors.  ``kwarg_defaults`` declares every kwarg the
    builder accepts; unknown keys are rejected at grid-construction time.

    Cells cross the process boundary carrying only the workload *name*;
    each worker resolves it against its own registry, so custom workloads
    must be registered at module import time (top level of an imported
    module) — otherwise multi-worker sweeps fail with "unknown workload".
    """
    _WORKLOADS.register(name, _Workload(
        builder=builder,
        kwarg_defaults=dict(kwarg_defaults or {}),
    ))


def resolve_workload_kwargs(name: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Merge ``kwargs`` over the workload's declared defaults, rejecting keys
    the builder never declared."""
    defaults = _WORKLOADS.get(name).kwarg_defaults
    unknown = set(kwargs) - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown workload_kwargs for {name!r}: {sorted(unknown)}"
        )
    return {**defaults, **kwargs}


def build_workload(cell: "SweepCell") -> List[FlowSpec]:
    """Emit the cell's flow schedule from its registered workload.

    The builder's random stream is derived from the cell seed (not drawn
    from the simulator RNG), so schedule generation leaves the event stream
    untouched and two runs of the same cell — any worker count, any
    executor, resumed or not — emit byte-identical schedules.
    """
    from .sweep import derive_seed  # runtime import: sweep imports this module

    entry = _WORKLOADS.get(cell.workload)
    resolved = resolve_workload_kwargs(cell.workload, dict(cell.workload_kwargs))
    rng = random.Random(derive_seed(cell.seed, _WORKLOAD_STREAM))
    return entry.builder(cell, rng, **resolved)


def workload_names() -> List[str]:
    """All registered workload names, sorted."""
    return _WORKLOADS.names()


# --------------------------------------------------------------------------- #
# Built-in workloads
# --------------------------------------------------------------------------- #


def _bulk(cell: "SweepCell", rng: random.Random) -> List[FlowSpec]:
    """The classic sweep traffic: ``num_flows`` long-running flows, flow ``i``
    starting at ``i * stagger`` on path ``i`` — exactly the schedule every
    archived grid ran, so the default workload changes nothing."""
    return [
        FlowSpec(
            scheme=cell.scheme,
            start_time=i * cell.stagger,
            path_index=i,
            label=f"{cell.scheme}-{i}",
        )
        for i in range(cell.num_flows)
    ]


def _arrival_rate(cell: "SweepCell", load: float, mean_size_bytes: float) -> float:
    """Flow arrivals per second that offer ``load`` of the bottleneck."""
    if not 0.0 < load:
        raise ValueError("load must be positive")
    return load * cell.bandwidth_bps / (mean_size_bytes * BITS_PER_BYTE)


def _poisson_schedule(
    cell: "SweepCell",
    rng: random.Random,
    mean_size_bytes: float,
    load: float,
    draw_size: Callable[[random.Random], float],
    kind: str,
    first_path: int = 0,
    start_after: float = 0.0,
) -> List[FlowSpec]:
    """Shared arrival loop: Poisson arrivals until the cell's duration, each
    flow sized by ``draw_size``, so every generator draws from the rng in
    one canonical order (size after inter-arrival, per flow)."""
    rate = _arrival_rate(cell, load, mean_size_bytes)
    specs: List[FlowSpec] = []
    now = start_after
    index = 0
    while True:
        now += rng.expovariate(rate)
        if now >= cell.duration:
            break
        size = max(float(draw_size(rng)), float(DEFAULT_MSS))
        specs.append(FlowSpec(
            scheme=cell.scheme,
            size_bytes=int(round(size)),
            start_time=now,
            path_index=first_path + index,
            label=f"{cell.scheme}-{kind}-{index}",
        ))
        index += 1
    return specs


def _poisson(cell: "SweepCell", rng: random.Random, load: float = 0.5,
             mean_size_kb: float = 100.0) -> List[FlowSpec]:
    """Poisson flow arrivals with exponentially distributed sizes offering
    ``load`` of the bottleneck bandwidth."""
    mean_size = mean_size_kb * BYTES_PER_KB
    return _poisson_schedule(
        cell, rng, mean_size, load,
        lambda r: r.expovariate(1.0 / mean_size), kind="poisson")


def _pareto(cell: "SweepCell", rng: random.Random, load: float = 0.5,
            mean_size_kb: float = 100.0, alpha: float = 1.5) -> List[FlowSpec]:
    """Poisson arrivals with heavy-tailed (Pareto) sizes: most flows are
    mice, a few elephants carry most of the bytes — the canonical
    production traffic shape."""
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1 so the size distribution has "
                         "a finite mean")
    mean_size = mean_size_kb * BYTES_PER_KB
    scale = mean_size * (alpha - 1.0) / alpha
    return _poisson_schedule(
        cell, rng, mean_size, load,
        lambda r: scale * r.paretovariate(alpha), kind="pareto")


def _web(cell: "SweepCell", rng: random.Random, load: float = 0.5,
         size_kb: float = 100.0) -> List[FlowSpec]:
    """Web-style short-flow storm: fixed-size requests arriving Poisson at
    ``load`` — Figure 15's FCT-vs-load traffic, generalized beyond its four
    hand-built cells."""
    size = size_kb * BYTES_PER_KB
    return _poisson_schedule(
        cell, rng, size, load, lambda r: size, kind="web")


def _incast(cell: "SweepCell", rng: random.Random, waves: int = 5,
            wave_interval: float = 1.0, size_kb: float = 50.0,
            jitter: float = 0.0005) -> List[FlowSpec]:
    """N-sender incast: every ``wave_interval`` seconds all ``num_flows``
    senders fire a ``size_kb`` response toward the same sink, each jittered
    by up to ``jitter`` seconds — the synchronized burst that hammers
    shallow buffers."""
    if waves < 1:
        raise ValueError("waves must be at least 1")
    size = int(round(size_kb * BYTES_PER_KB))
    specs: List[FlowSpec] = []
    for wave in range(waves):
        base = wave * wave_interval
        if base >= cell.duration:
            break
        for i in range(cell.num_flows):
            specs.append(FlowSpec(
                scheme=cell.scheme,
                size_bytes=size,
                start_time=base + rng.uniform(0.0, jitter),
                path_index=i,
                label=f"{cell.scheme}-incast-w{wave}-{i}",
            ))
    return specs


def _mixed(cell: "SweepCell", rng: random.Random, num_long: int = 1,
           load: float = 0.3, short_size_kb: float = 50.0) -> List[FlowSpec]:
    """Mixed tenants: ``num_long`` long-running bulk flows (paths 0..)
    sharing with a Poisson storm of short flows at ``load`` — long flows on
    a parking lot become the multi-hop tenant, shorts the per-hop cross
    traffic."""
    if num_long < 1:
        raise ValueError("num_long must be at least 1")
    specs = [
        FlowSpec(
            scheme=cell.scheme,
            start_time=i * cell.stagger,
            path_index=i,
            label=f"{cell.scheme}-long-{i}",
        )
        for i in range(num_long)
    ]
    size = short_size_kb * BYTES_PER_KB
    specs.extend(_poisson_schedule(
        cell, rng, size, load, lambda r: size, kind="short",
        first_path=num_long))
    return specs


register_workload("bulk", _bulk)
register_workload("poisson", _poisson,
                  {"load": 0.5, "mean_size_kb": 100.0})
register_workload("pareto", _pareto,
                  {"load": 0.5, "mean_size_kb": 100.0, "alpha": 1.5})
register_workload("web", _web, {"load": 0.5, "size_kb": 100.0})
register_workload("incast", _incast,
                  {"waves": 5, "wave_interval": 1.0, "size_kb": 50.0,
                   "jitter": 0.0005})
register_workload("mixed", _mixed,
                  {"num_long": 1, "load": 0.3, "short_size_kb": 50.0})
