"""Execute report specs into result sets, rows, and evaluated claims.

Both execution modes funnel through
:func:`repro.experiments.execute.execute_cells`, so every spec — sweep-grid
or scenario-list — inherits the sweep layer's guarantees verbatim: streaming
JSONL as cells complete, cell-exact resume from a prior (possibly
interrupted) run, and results that are byte-identical for any worker count.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from ..experiments.execute import execute_cells
from ..experiments.executors import DEFAULT_EXECUTOR
from ..experiments.results import ResultSet
from ..experiments.store import CellStore
from ..experiments.sweep import run_cell
from ..experiments.workload import DEFAULT_WORKLOAD
from ..netsim import DEFAULT_QDISC
from .spec import (
    ClaimResult,
    GridRun,
    ReportSpec,
    ScenarioCell,
    get_report_spec,
    get_scenario_runner,
)

__all__ = ["SpecOutcome", "evaluate_claims", "run_report_spec"]


def _run_scenario_cell(cell: ScenarioCell) -> Dict[str, Any]:
    """Run one scenario cell and return its JSON-friendly record.

    The registered runner is resolved by name inside the worker process
    (spawn-method workers re-import the catalog, mirroring how sweep workers
    resolve topology/scheme names).  The record carries the cell identity,
    the runner's metrics dict, and the non-deterministic ``wall_time_s`` that
    the executor strips into :attr:`ResultSet.timings`.
    """
    # repro-lint: disable=RPL001 wall-time telemetry; stripped into ResultSet.timings, never canonical JSON
    start = time.perf_counter()
    fn = get_scenario_runner(cell.runner)
    metrics = fn(seed=cell.seed, **cell.kwargs)
    return {
        "cell": cell.params(),
        "metrics": metrics,
        # repro-lint: disable=RPL001 wall-time telemetry
        "wall_time_s": time.perf_counter() - start,
    }


@dataclass
class SpecOutcome:
    """Everything one executed spec contributes to the report."""

    spec: ReportSpec
    result: ResultSet
    rows: List[Dict[str, Any]]
    claims: List[ClaimResult]

    def status_counts(self) -> Dict[str, int]:
        """``{status: count}`` over this spec's evaluated claims."""
        counts = {"PASS": 0, "DEVIATION": 0, "FAIL": 0}
        for claim in self.claims:
            counts[claim.status] += 1
        return counts

    def failed(self) -> List[ClaimResult]:
        """The claims whose checks did not hold."""
        return [claim for claim in self.claims if claim.status == "FAIL"]


def evaluate_claims(spec: ReportSpec, rows: List[Dict[str, Any]],
                    result: ResultSet) -> List[ClaimResult]:
    """Evaluate every claim of ``spec`` against the extracted results.

    A check that raises is reported as FAIL with the exception text as the
    measurement — a claim that cannot even be evaluated certainly did not
    reproduce — so one broken extraction cannot abort the whole report.
    """
    out: List[ClaimResult] = []
    for claim in spec.claims:
        try:
            ok, measured = claim.check(rows, result)
        except Exception as exc:  # repro-lint: disable=RPL005 converted, not swallowed: any check error becomes a FAIL verdict below
            ok, measured = False, f"check raised {type(exc).__name__}: {exc}"
        status = claim.expected_status() if ok else "FAIL"
        out.append(ClaimResult(claim=claim, measured=measured, status=status))
    return out


def run_report_spec(
    spec: Union[str, ReportSpec],
    workers: int = 1,
    jsonl_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    profile: bool = False,
    executor: str = DEFAULT_EXECUTOR,
    store: Union[str, CellStore, None] = None,
    progress: Optional[bool] = None,
    qdisc: str = DEFAULT_QDISC,
    workload: str = DEFAULT_WORKLOAD,
) -> SpecOutcome:
    """Execute one spec (by id or instance) and evaluate its claims.

    ``jsonl_path`` / ``resume_from`` behave exactly as in
    :func:`repro.experiments.sweep.sweep`: records stream to ``jsonl_path``
    as cells complete, and cells whose identity already appears in
    ``resume_from`` are not re-simulated.  ``executor`` names the registered
    cell executor (``local`` / ``sharded`` / ``work-queue``) and ``store``
    the cross-run content-addressed cell store — store hits skip execution
    exactly like resume hits, so a report re-run over a warm store executes
    zero cells.  The extracted rows — and therefore the rendered report —
    are byte-identical for any ``workers`` value, any executor, and for
    resumed versus uninterrupted runs.

    ``qdisc`` and ``workload`` override the bottleneck queue discipline and
    the flow-schedule generator of every *grid* cell — scenario cells fix
    their queueing/traffic as part of what they reproduce and are left
    untouched.  ``profile`` prints each cell's hottest functions to stderr
    (serial only; see :func:`repro.experiments.execute.execute_cells`).
    """
    if isinstance(spec, str):
        spec = get_report_spec(spec)
    run = spec.run
    if isinstance(run, GridRun):
        # A default qdisc/workload argument must not clobber a grid that
        # fixes its own non-default value (the FCT-vs-load spec pins a web
        # workload); only an explicit override replaces it.
        overrides: Dict[str, Any] = {}
        if qdisc != DEFAULT_QDISC:
            overrides["qdisc"] = qdisc
        if workload != DEFAULT_WORKLOAD:
            overrides["workload"] = workload
        cells: List[Any] = [
            cell
            for grid in run.grids
            for cell in dataclasses.replace(grid, **overrides)
            .cells(run.base_seed)
        ]
        run_one = run_cell
    else:
        cells = run.cells()
        run_one = _run_scenario_cell
    result = execute_cells(cells, run_one, run.base_seed, workers=workers,
                           jsonl_path=jsonl_path, resume_from=resume_from,
                           profile=profile, executor=executor, store=store,
                           progress=progress)
    rows = spec.rows(result)
    claims = evaluate_claims(spec, rows, result)
    return SpecOutcome(spec=spec, result=result, rows=rows, claims=claims)
