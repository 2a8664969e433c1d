"""Tests for the repro.report layer: determinism, resume, CLI, catalog.

The tiny specs registered at module import time (so fork-method workers
inherit them) keep the packet-level work small enough for the tier-1 suite:
a 2x2 one-second grid and a pure-arithmetic scenario runner.
"""

import os
import subprocess
import sys

import pytest

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.results import ResultSet
from repro.experiments.sweep import SweepGrid
from repro.report import (
    Claim,
    GridRun,
    ReportSpec,
    ScenarioCell,
    ScenarioRun,
    evaluate_claims,
    register_report_spec,
    register_scenario_runner,
    render_report,
    report_spec_ids,
    run_report_spec,
)
from repro.report.cli import main as report_main

_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", ".."))
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

_TINY_SCHEMES = ("pcc", "cubic")
_TINY_LOSSES = (0.0, 0.01)


def _tiny_grid_rows(result):
    goodput = result.aggregate("goodput_mbps", by=("scheme", "loss_rate"))
    return [
        {"loss": loss,
         **{scheme: goodput[(scheme, loss)] for scheme in _TINY_SCHEMES}}
        for loss in _TINY_LOSSES
    ]


register_report_spec(ReportSpec(
    spec_id="tiny_grid",
    title="Tiny test grid",
    paper_section="test",
    run=GridRun(grids=(SweepGrid(
        schemes=_TINY_SCHEMES,
        bandwidths_bps=(5e6,),
        rtts=(0.03,),
        loss_rates=_TINY_LOSSES,
        duration=1.0,
    ),), base_seed=1),
    rows=_tiny_grid_rows,
    columns=("loss",) + _TINY_SCHEMES,
    claims=(
        Claim(
            "goodput-positive",
            "Every cell moves traffic",
            lambda rows, result: (
                all(row[scheme] > 0 for row in rows
                    for scheme in _TINY_SCHEMES),
                f"min cell goodput "
                f"{min(row[s] for row in rows for s in _TINY_SCHEMES):.3f} "
                f"Mbps"),
        ),
        Claim(
            "weakened-claim",
            "A deliberately weakened claim reports DEVIATION",
            lambda rows, result: (True, "always holds"),
            deviation="EXPERIMENTS.md (test pointer)",
        ),
    ),
    sim_seconds=4.0,
))


def _tiny_scenario_runner(seed, x, scale):
    """Pure-arithmetic runner: deterministic, instant, JSON-friendly."""
    return {"value": (seed * 31 + x) * scale, "x": x}


register_scenario_runner("tiny_scenario_runner", _tiny_scenario_runner)

register_report_spec(ReportSpec(
    spec_id="tiny_scenario",
    title="Tiny test scenario list",
    paper_section="test",
    run=ScenarioRun(cells_list=tuple(
        ScenarioCell(index=i, runner="tiny_scenario_runner", seed=7,
                     kwargs={"x": x, "scale": 2})
        for i, x in enumerate((1, 2, 3))
    ), base_seed=7),
    rows=lambda result: [
        {"x": record["metrics"]["x"], "value": record["metrics"]["value"]}
        for record in result.cells
    ],
    columns=("x", "value"),
    claims=(
        Claim(
            "values-scale",
            "Every value is twice the affine seed transform",
            lambda rows, result: (
                all(row["value"] == (7 * 31 + row["x"]) * 2 for row in rows),
                f"values {[row['value'] for row in rows]}"),
        ),
    ),
    sim_seconds=0.0,
))


class TestCatalog:
    def test_catalog_matches_experiment_registry(self):
        ids = set(report_spec_ids())
        assert set(EXPERIMENTS) <= ids
        # The only extras are the tiny specs this module registers.
        assert ids - set(EXPERIMENTS) == {"tiny_grid", "tiny_scenario"}

    def test_unknown_spec_id_lists_valid_ids(self):
        with pytest.raises(ValueError, match="fig7"):
            run_report_spec("no_such_spec")

    def test_experiment_registry_links_to_report_specs(self):
        assert EXPERIMENTS["fig7"].report_spec().spec_id == "fig7"

    def test_every_catalog_spec_enumerates_cells(self):
        from repro.report import list_report_specs
        for spec in list_report_specs():
            cells = spec.run.cells()
            assert cells, spec.spec_id
            identities = [str(sorted(cell.params().items()))
                          for cell in cells]
            assert len(set(identities)) == len(identities), spec.spec_id


class TestClaimEvaluation:
    def _spec_with(self, *claims):
        return ReportSpec(
            spec_id="throwaway", title="t", paper_section="t",
            run=ScenarioRun(cells_list=(), base_seed=0),
            rows=lambda result: [], columns=(), claims=tuple(claims),
            sim_seconds=0.0,
        )

    def test_pass_fail_deviation_statuses(self):
        spec = self._spec_with(
            Claim("ok", "holds", lambda rows, result: (True, "m1")),
            Claim("weak", "holds weakly",
                  lambda rows, result: (True, "m2"), deviation="note"),
            Claim("bad", "does not hold",
                  lambda rows, result: (False, "m3")),
            Claim("weak-bad", "deviation that fails is still FAIL",
                  lambda rows, result: (False, "m4"), deviation="note"),
        )
        results = evaluate_claims(spec, [], ResultSet(base_seed=0))
        assert [claim.status for claim in results] == \
            ["PASS", "DEVIATION", "FAIL", "FAIL"]
        assert [claim.measured for claim in results] == \
            ["m1", "m2", "m3", "m4"]

    def test_raising_check_is_fail_not_crash(self):
        spec = self._spec_with(
            Claim("boom", "raises",
                  lambda rows, result: 1 / 0),
        )
        (result,) = evaluate_claims(spec, [], ResultSet(base_seed=0))
        assert result.status == "FAIL"
        assert "ZeroDivisionError" in result.measured


class TestDeterminism:
    def test_workers_do_not_change_rendered_report(self):
        one = run_report_spec("tiny_grid", workers=1)
        two = run_report_spec("tiny_grid", workers=2)
        assert render_report([one]) == render_report([two])
        assert one.result.to_json() == two.result.to_json()

    def test_scenario_workers_do_not_change_rendered_report(self):
        one = run_report_spec("tiny_scenario", workers=1)
        two = run_report_spec("tiny_scenario", workers=2)
        assert render_report([one]) == render_report([two])

    def test_grid_resume_is_byte_identical(self, tmp_path):
        stream = str(tmp_path / "tiny_grid.jsonl")
        baseline = render_report([run_report_spec("tiny_grid")])
        full = run_report_spec("tiny_grid", jsonl_path=stream)
        assert render_report([full]) == baseline
        # Simulate a crash: drop the last record line, then resume.
        with open(stream) as handle:
            lines = handle.read().splitlines(keepends=True)
        with open(stream, "w") as handle:
            handle.writelines(lines[:-1])
        resumed = run_report_spec("tiny_grid", jsonl_path=stream,
                                  resume_from=stream)
        assert render_report([resumed]) == baseline
        # The stream is now complete and self-contained.
        assert len(ResultSet.load(stream)) == len(full.result)

    def test_scenario_resume_is_byte_identical(self, tmp_path):
        stream = str(tmp_path / "tiny_scenario.jsonl")
        baseline = render_report([run_report_spec("tiny_scenario")])
        run_report_spec("tiny_scenario", jsonl_path=stream)
        with open(stream) as handle:
            lines = handle.read().splitlines(keepends=True)
        with open(stream, "w") as handle:
            handle.writelines(lines[:-1])
        resumed = run_report_spec("tiny_scenario", jsonl_path=stream,
                                  resume_from=stream)
        assert render_report([resumed]) == baseline
        assert len(ResultSet.load(stream)) == 3

    def test_golden_tiny_report(self):
        golden_path = os.path.join(_DATA_DIR, "golden_tiny_report.md")
        with open(golden_path) as handle:
            golden = handle.read()
        rendered = render_report([run_report_spec("tiny_grid")])
        assert rendered == golden, (
            "rendered tiny report deviates from the golden file; if the "
            "renderer changed intentionally, regenerate "
            "tests/experiments/data/golden_tiny_report.md"
        )


class TestProfileFlag:
    def test_report_cli_profile_requires_serial(self, capsys):
        with pytest.raises(SystemExit):
            report_main(["--only", "theorems", "--report", "/dev/null",
                         "--profile", "--workers", "2"])
        assert "--workers 1" in capsys.readouterr().err


class TestCli:
    def test_unknown_only_id_errors_listing_valid_ids(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            report_main(["--only", "fig99"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown report spec id" in err
        assert "fig99" in err
        assert "fig7" in err  # the error names the valid ids

    def test_check_requires_matrix(self, capsys):
        with pytest.raises(SystemExit):
            report_main(["--check", "EXPERIMENTS.md"])
        assert "--check requires --matrix" in capsys.readouterr().err

    def test_cli_runs_tiny_spec_and_writes_report(self, tmp_path, capsys):
        report = str(tmp_path / "REPORT.md")
        jsonl_dir = str(tmp_path / "cells")
        code = report_main(["--only", "tiny_scenario", "--report", report,
                            "--jsonl", jsonl_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "tiny_scenario: 3 cells" in out
        assert os.path.exists(os.path.join(jsonl_dir,
                                           "tiny_scenario.jsonl"))
        with open(report) as handle:
            text = handle.read()
        assert "Tiny test scenario list" in text

    def test_only_without_explicit_report_path_errors(self, capsys):
        # A partial ledger written to the default path would silently
        # replace the checked-in full REPORT.md.
        with pytest.raises(SystemExit):
            report_main(["--only", "tiny_scenario"])
        assert "--report" in capsys.readouterr().err

    def test_cli_resume_missing_directory_errors(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            report_main(["--only", "tiny_scenario",
                         "--report", str(tmp_path / "r.md"),
                         "--resume-from", str(tmp_path / "nope")])
        assert "--resume-from" in capsys.readouterr().err

    def test_matrix_check_against_experiments_md(self):
        # A clean interpreter: the tiny specs this module registers must not
        # leak into the checked matrix.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.report", "--matrix", "--check",
             "EXPERIMENTS.md"],
            cwd=_REPO_ROOT, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr or proc.stdout
