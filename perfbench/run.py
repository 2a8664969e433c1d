"""The simulator benchmark: one workload, timed end to end or traced by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pcc_bulk --seed 1 --seconds 50 --trace 0

A *pass* sweeps every grid of the workload (``workloads.py``) serially
through the public sweep API, at ``--seed`` and, for a workload whose
traffic swings with the seed, at seeds derived from it: a cold ``sweep()``
into a fresh ``CellStore`` with a JSONL stream, then a warm re-sweep that
must execute no cell, then ``ResultSet.to_json()``.  Every record is
checked, the warm JSON must match the cold JSON byte for byte, and every
pass of a run must produce the same canonical JSON.

``--trace 0`` makes ``--seconds`` worth of untraced passes (the count is
fixed by ``PASS_SECONDS``) with set-up probes in fresh processes
(``setup_probe.py``) spread among them.  The pass time is built from the
fastest repeat of each of its parts (``fastest_parts``); set-up is the
median of the probes.  ``--trace 1`` runs one pass with spans around the
calls into each layer and one pass under cProfile, and prints the
per-layer metrics (``layers.py`` folds the profile).

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (cells) and the ``metrics``.  When ``repro``
cannot be imported from ``src/`` next to this directory the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import os
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import (Any, Callable, ContextManager, Dict, Iterator, List,
                    Optional, Sequence, Tuple)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, SRC)
try:
    import repro.experiments.sweep as sweep_module
    from repro.experiments import CellStore
    from repro.experiments.sweep import derive_seed, run_cell, sweep
    from repro.netsim import DEFAULT_MSS, Simulator
    from repro.units import BITS_PER_BYTE, BPS_PER_MBPS
except ModuleNotFoundError as missing:
    print(f"perfbench: cannot import the program from {SRC} ({missing}); "
          f"run the benchmark from a checkout of the repository",
          file=sys.stderr)
    sys.exit(2)

from layers import LAYERS, UNMAPPED, ProfileFold  # noqa: E402
from workloads import PASS_SECONDS, SEEDS_PER_PASS, WORKLOADS  # noqa: E402

#: Fresh processes whose median gives ``setup_s``.
SETUP_PROBES = 7

#: Metrics printed with their unit but left out of ``BENCHMARK.json``:
#: a pass's host seconds follow how much traffic the seed's cells carry,
#: so across seeds they measure the seed as much as the program.
REPORTED_ONLY = {"wall_s": "s"}

#: Fewest passes of an untraced run.
MIN_PASSES = 2

#: An untraced run stops early once it has taken this many times
#: ``--seconds`` (on a host slowed far beyond ``PASS_SECONDS``).
OVERRUN = 1.25

#: Allowed excess of a cell's total goodput over its bottleneck capacity,
#: for float rounding only.
CAPACITY_SLACK = 1e-9


@dataclass
class PassResult:
    """What one pass measured and found."""

    #: Base seeds the pass swept every grid at.
    seeds: Tuple[int, ...]
    wall_s: float = 0.0
    #: Wall seconds of the pass's parts, in a fixed order: every cold cell
    #: as ``run_cell`` measured it; per sweep (a grid at one seed) the rest
    #: of its cold sweep, its warm sweep and its ``to_json``; then what is
    #: left (opening and closing the store).  The parts add up to
    #: ``wall_s``.
    parts: List[float] = field(default_factory=list)
    cells: int = 0
    failed: int = 0
    events: int = 0
    pkts: float = 0.0
    flows: int = 0
    digest: str = ""
    problems: List[str] = field(default_factory=list)


class Tracer:
    """In-memory spans: name, start, end and the index of the parent span."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the time spent inside the ``with`` block as ``name``."""
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for span_name, start, end, _ in self.spans
                   if span_name == name)

    def count(self, name: str) -> int:
        """Number of spans called ``name``."""
        return sum(1 for span in self.spans if span[0] == name)

    def self_total(self, name: str, child: str) -> float:
        """Summed duration of ``name`` spans minus their ``child`` spans."""
        own = {index: span[2] - span[1] for index, span in enumerate(self.spans)
               if span[0] == name}
        for span_name, start, end, parent in self.spans:
            if span_name == child and parent in own:
                own[parent] -= end - start
        return sum(own.values())

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap ``run_cell`` and ``Simulator.run`` in spans while active."""
        run_cell = sweep_module.run_cell
        simulator_run = Simulator.run

        def traced_run_cell(cell: Any) -> Dict[str, Any]:
            with self.span("run_cell"):
                return run_cell(cell)

        def traced_simulator_run(sim: Any, until: float) -> None:
            with self.span("Simulator.run"):
                simulator_run(sim, until)

        sweep_module.run_cell = traced_run_cell
        Simulator.run = traced_simulator_run
        try:
            yield
        finally:
            sweep_module.run_cell = run_cell
            Simulator.run = simulator_run


def check_record(record: Dict[str, Any]) -> List[str]:
    """Invariants every cell record must hold; one message per breach."""
    cell = record["cell"]
    problems = []
    total_mbps = 0.0
    for flow in record["flows"]:
        goodput = flow["goodput_mbps"]
        if not (math.isfinite(goodput) and goodput >= 0.0):
            problems.append(f"goodput {goodput!r} Mbps")
        else:
            total_mbps += goodput
        if not 0.0 <= flow["loss_rate"] <= 1.0:
            problems.append(f"loss_rate {flow['loss_rate']!r}")
        if not math.isfinite(flow["mean_rtt_ms"]):
            problems.append(f"mean_rtt_ms {flow['mean_rtt_ms']!r}")
    capacity_mbps = cell["bandwidth_bps"] / BPS_PER_MBPS
    if total_mbps > capacity_mbps * (1.0 + CAPACITY_SLACK):
        problems.append(f"total goodput {total_mbps} Mbps above the "
                        f"{capacity_mbps} Mbps bottleneck")
    if record["engine"]["events_processed"] <= 0:
        problems.append("no events processed")
    return [f"cell {cell['index']} ({cell['scheme']}): {problem}"
            for problem in problems]


def delivered_packets(record: Dict[str, Any]) -> float:
    """Data packets the cell delivered: goodput x duration / MSS."""
    mbps = sum(flow["goodput_mbps"] for flow in record["flows"])
    delivered_bytes = mbps * BPS_PER_MBPS * record["cell"]["duration"] \
        / BITS_PER_BYTE
    return delivered_bytes / DEFAULT_MSS


def run_pass(grids: List[Any], seeds: Sequence[int], work_root: str,
             tracer: Optional[Tracer] = None,
             profiler: Optional[cProfile.Profile] = None) -> PassResult:
    """Sweep ``grids`` at ``seeds`` cold, re-sweep them warm, and check."""
    result = PassResult(tuple(seeds))
    sweeps = [(grid, seed) for seed in seeds for grid in grids]
    with tempfile.TemporaryDirectory(prefix="pass-", dir=work_root) as work:
        try:
            cold, warm, texts = _timed_sweeps(sweeps, work, result, tracer,
                                              profiler)
        except Exception:  # repro-lint: disable=RPL005 each failing cell is counted
            # A cell that raises must not end the run: report it, then find
            # the failing cells one by one.
            traceback.print_exc()
            return isolate_failures(sweeps, result.seeds)
    for index, (cold_result, warm_result, text) in enumerate(
            zip(cold, warm, texts, strict=True)):
        if warm_result.reuse["executed"] != 0:
            result.problems.append(f"sweep {index}: warm re-sweep executed "
                                   f"{warm_result.reuse['executed']} cells")
        if cold_result.to_json() != text:
            result.problems.append(f"sweep {index}: warm JSON differs from "
                                   f"cold JSON")
        for record in cold_result.cells:
            breaches = check_record(record)
            result.problems.extend(breaches)
            result.failed += bool(breaches)
            result.cells += 1
            result.events += record["engine"]["events_processed"]
            result.pkts += delivered_packets(record)
            result.flows += len(record["flows"])
    result.digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return result


def _timed_sweeps(sweeps: List[Tuple[Any, int]], work: str,
                  result: PassResult, tracer: Optional[Tracer],
                  profiler: Optional[cProfile.Profile]) -> tuple:
    """The timed (and profiled) part of a pass; times go into ``result``."""
    span: Callable[[str], ContextManager[None]] = (
        tracer.span if tracer is not None else (lambda name: nullcontext()))
    clock = time.perf_counter
    cold: List[Any] = []
    warm: List[Any] = []
    texts: List[str] = []
    sections: List[float] = []
    wall_start = clock()
    if profiler is not None:
        profiler.enable()
    try:
        with CellStore(os.path.join(work, "store")) as store:
            for index, (grid, seed) in enumerate(sweeps):
                start = clock()
                with span("sweep.cold"):
                    cold.append(sweep(
                        grid, base_seed=seed, store=store,
                        jsonl_path=os.path.join(work, f"sweep{index}.jsonl")))
                sections.append(clock() - start - sum(cold[-1].timings))
            for grid, seed in sweeps:
                start = clock()
                with span("sweep.warm"):
                    warm.append(sweep(grid, base_seed=seed, store=store))
                sections.append(clock() - start)
            for warm_result in warm:
                start = clock()
                with span("to_json"):
                    texts.append(warm_result.to_json())
                sections.append(clock() - start)
    finally:
        if profiler is not None:
            profiler.disable()
    result.wall_s = clock() - wall_start
    cells = [wall for cold_result in cold for wall in cold_result.timings]
    result.parts = cells + sections + [
        result.wall_s - sum(cells) - sum(sections)]
    return cold, warm, texts


def isolate_failures(sweeps: List[Tuple[Any, int]],
                     seeds: Tuple[int, ...]) -> PassResult:
    """Run every cell on its own and count those that raise or fail a check."""
    result = PassResult(seeds)
    for grid, seed in sweeps:
        for cell in grid.cells(seed):
            result.cells += 1
            try:
                breaches = check_record(run_cell(cell))
            except Exception as exc:  # repro-lint: disable=RPL005 counted as a failed cell
                breaches = [f"cell {cell.index} ({cell.scheme}) raised "
                            f"{type(exc).__name__}: {exc}"]
            result.problems.extend(breaches)
            result.failed += bool(breaches)
    result.problems.append("a sweep raised; timings of this pass are void")
    return result


def pass_seeds(workload: str, seed: int) -> List[int]:
    """``seed`` and the seeds derived from it that each pass sweeps at."""
    return [seed] + [derive_seed(seed, k)
                     for k in range(1, SEEDS_PER_PASS[workload])]


def measure_setup(workload: str, seed: int, work_root: str) -> float:
    """Set-up seconds of one fresh probe process (``setup_probe.py``)."""
    probe = os.path.join(HERE, "setup_probe.py")
    with tempfile.TemporaryDirectory(prefix="setup-", dir=work_root) as work:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed), work],
            capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def end_to_end(workload: str, seed: int, seconds: float,
               work_root: str) -> tuple[List[PassResult], Dict[str, float]]:
    """Untraced passes worth ``seconds`` at ``seed``; the end-to-end metrics.

    The pass count depends only on ``seconds`` and the workload, so two
    commits compared do the same work; a run stops early only when it
    overruns ``seconds`` by :data:`OVERRUN`.  The set-up probes are spread
    over the run, so that their median sees the same host as the passes.
    """
    grids = WORKLOADS[workload]()
    seeds = pass_seeds(workload, seed)
    count = max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))
    probe_before = {k * count // SETUP_PROBES for k in range(SETUP_PROBES)}
    deadline = time.perf_counter() + OVERRUN * seconds
    setup: List[float] = []
    passes: List[PassResult] = []
    for k in range(count):
        if k in probe_before:
            setup.append(measure_setup(workload, seed, work_root))
        passes.append(run_pass(grids, seeds, work_root))
        if passes[-1].problems or (len(passes) >= MIN_PASSES
                                   and time.perf_counter() > deadline):
            break
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(workload, seed, work_root))
    timed = [p for p in passes if not p.problems] or passes
    wall = fastest_parts(timed)
    metrics = {
        "wall_s": wall,
        "us_per_pkt": 1e6 * _ratio(wall, timed[0].pkts),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return passes, metrics


def fastest_parts(repeats: List[PassResult]) -> float:
    """Wall seconds of a pass built from the fastest repeat of each part.

    Every part of a pass (``PassResult.parts``: a cell, the rest of a
    cold sweep, a warm sweep, a ``to_json``) counts with its fastest
    run among the repeats.  Other tenants of a shared host slow every
    process on it by up to ~1.9x, in phases of seconds to minutes; a
    median follows them, a whole pass rarely runs between them, but with
    some 25-40 repeats spread over the run each part of 1-300 ms usually
    has one that did.
    """
    return sum(min(times)
               for times in zip(*(p.parts for p in repeats), strict=True))


def per_layer(workload: str, seed: int,
              work_root: str) -> tuple[List[PassResult], Dict[str, float]]:
    """One span-traced pass and one profiled pass; the per-layer metrics."""
    grids = WORKLOADS[workload]()
    seeds = pass_seeds(workload, seed)
    tracer = Tracer()
    with tracer.installed():
        spanned = run_pass(grids, seeds, work_root, tracer=tracer)
    profiler = cProfile.Profile()
    profiled = run_pass(grids, seeds, work_root, profiler=profiler)
    fold = ProfileFold(pstats.Stats(profiler).stats, SRC)
    events, pkts, cells = spanned.events, spanned.pkts, spanned.cells
    enqueues = fold.calls("repro.netsim.link", "enqueue")
    scheduled = fold.calls("repro.netsim.engine", "schedule_at")
    metrics = {f"{layer}.self_share": fold.share(layer) for layer in LAYERS}
    metrics.update({
        "engine.events": events,
        "engine.events_per_s": _ratio(events, tracer.total("Simulator.run")),
        "engine.events_per_pkt": _ratio(events, pkts),
        "engine.lt_per_event": _ratio(
            fold.calls("repro.netsim.engine", "__lt__"), profiled.events),
        "engine.stale_frac": _ratio(scheduled - profiled.events, scheduled),
        "queue.offered_per_pkt": _ratio(enqueues, pkts),
        "queue.drop_frac": _ratio(
            fold.calls("repro.netsim.queues", "_drop"), enqueues),
        "endpoints.pkts": pkts,
        "endpoints.flows": spanned.flows,
        "core.mi_count": fold.calls("repro.core.controller", "on_mi_complete"),
        "core.interval_lookups_per_pkt": _ratio(
            fold.calls("repro.core.monitor", "current_interval"), pkts),
        "cc.acks": fold.calls("repro.cc", "on_ack"),
        "setup.per_cell_ms": 1e3 * _ratio(
            tracer.self_total("run_cell", "Simulator.run"),
            tracer.count("run_cell")),
        "harness.per_cell_us": 1e6 * _ratio(
            tracer.total("sweep.cold") - tracer.total("run_cell"), cells),
        "harness.store_get_us": 1e6 * _ratio(tracer.total("sweep.warm"), cells),
        "harness.json_ms": 1e3 * tracer.total("to_json"),
        "trace.overhead": _ratio(profiled.wall_s, spanned.wall_s),
        "trace.unmapped_share": fold.share(UNMAPPED),
    })
    return [spanned, profiled], metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in contract[kind]}
    printed_units = {**REPORTED_ONLY, **units}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        if args.trace:
            passes, metrics = per_layer(args.workload, args.seed, work)
        else:
            passes, metrics = end_to_end(args.workload, args.seed,
                                         args.seconds, work)
    attempted = sum(p.cells for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [problem for p in passes for problem in p.problems]
    digests: Dict[Tuple[int, ...], str] = {}
    for p in passes:
        if digests.setdefault(p.seeds, p.digest) != p.digest:
            problems.append(f"two passes at seeds {p.seeds} disagree on the "
                            f"canonical JSON")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for k, p in enumerate(passes):
        seeds = ",".join(map(str, p.seeds))
        print(f"  pass {k} seeds={seeds} wall={p.wall_s:.3f}s cells={p.cells} "
              f"events={p.events} pkts={p.pkts:.0f} flows={p.flows} "
              f"sha256={p.digest}")
    print(f"  failed_frac {_ratio(failed, attempted):g} ({failed}/{attempted} "
          f"cells)")
    for problem in problems:
        print(f"  FAILED {problem}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {printed_units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
