"""Tests of the benchmark's own code.

Run from the repository root: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import ast
import json
import os

import pytest

import layers
import run
import workloads
from repro.experiments.sweep import SweepGrid

HERE = os.path.dirname(os.path.abspath(__file__))

#: The only names the benchmark may take from ``repro``: the public sweep
#: API and plain constants.  Anything else could disappear in a refactor.
ALLOWED_IMPORTS = {
    "repro.experiments": {"CellStore"},
    "repro.experiments.sweep": {"SweepGrid", "derive_seed", "run_cell",
                                "sweep"},
    "repro.netsim": {"DEFAULT_MSS", "Simulator"},
    "repro.units": {"BITS_PER_BYTE", "BPS_PER_MBPS"},
}
ALLOWED_MODULE_IMPORTS = {"repro.experiments.sweep"}

#: Features slated for removal that the benchmark must never touch.
FORBIDDEN_WORDS = {"backend", "hybrid", "sharded", "work-queue", "registry",
                   "scenarios", "HybridSimulator", "create_simulator",
                   "executor"}


def _benchmark_sources():
    for name in sorted(os.listdir(HERE)):
        if name.endswith(".py") and not name.startswith("test_"):
            path = os.path.join(HERE, name)
            with open(path) as handle:
                yield name, ast.parse(handle.read(), filename=path)


def test_every_repro_module_has_a_layer():
    modules = layers.repro_modules(run.SRC)
    assert "repro.netsim.engine" in modules
    for module in modules:
        layers.layer_of(module)


def test_a_new_module_is_reported_unmapped():
    with pytest.raises(layers.UnmappedModuleError):
        layers.layer_of("repro.netsim.not_yet_written")
    assert layers.layer_of("repro.cc.some_new_controller") == "cc"
    assert layers.layer_of("repro.report.render") is None


def test_benchmark_imports_only_the_public_sweep_api():
    for name, tree in _benchmark_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").startswith("repro"):
                allowed = ALLOWED_IMPORTS.get(node.module, set())
                for alias in node.names:
                    assert alias.name in allowed, (name, node.module,
                                                   alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro"):
                        assert alias.name in ALLOWED_MODULE_IMPORTS, (
                            name, alias.name)


def test_benchmark_never_names_features_slated_for_removal():
    for name, tree in _benchmark_sources():
        if name == "layers.py":
            # The layer table names every module, the doomed ones too.
            continue
        for node in ast.walk(tree):
            words = set()
            if isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                words.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                words.add(node.value)
            assert not words & FORBIDDEN_WORDS, (name, words & FORBIDDEN_WORDS)


def test_fold_gives_builtin_and_stdlib_time_to_the_caller_layer():
    engine = (os.path.join(run.SRC, "repro", "netsim", "engine.py"), 1,
              "schedule_at")
    results = (os.path.join(run.SRC, "repro", "experiments", "results.py"),
               1, "to_json")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    dumps = (os.path.join(layers.STDLIB_ROOTS[0], "json", "__init__.py"),
             1, "dumps")
    encode = ("~", 0, "<built-in method encode>")
    bench = (os.path.join(HERE, "run.py"), 1, "run_pass")
    stats = {
        bench: (1, 1, 0.5, 10.0, {}),
        engine: (1, 4, 2.0, 5.0, {bench: (1, 4, 2.0, 5.0)}),
        results: (1, 1, 1.0, 4.0, {bench: (1, 1, 1.0, 4.0)}),
        heappush: (4, 4, 3.0, 3.0, {engine: (4, 4, 3.0, 3.0)}),
        dumps: (1, 1, 1.0, 3.0, {results: (1, 1, 1.0, 3.0)}),
        encode: (2, 2, 2.0, 2.0, {dumps: (1, 1, 1.5, 1.5),
                                  encode: (1, 1, 0.5, 0.5)}),
    }
    fold = layers.ProfileFold(stats, run.SRC)
    assert fold.self_s["engine"] == pytest.approx(5.0)
    assert fold.self_s["harness"] == pytest.approx(4.0)
    assert fold.self_s[layers.UNMAPPED] == pytest.approx(0.5)
    assert fold.share("engine") == pytest.approx(5.0 / 9.5)
    assert fold.calls("repro.netsim.engine", "schedule_at") == 4
    assert fold.calls("repro.netsim", "schedule_at") == 4
    assert fold.calls("repro.cc", "schedule_at") == 0


def _record(goodput=10.0, loss=0.0, rtt=30.0, events=100):
    return {
        "cell": {"index": 0, "scheme": "pcc", "bandwidth_bps": 20e6,
                 "duration": 1.0},
        "flows": [{"goodput_mbps": goodput, "loss_rate": loss,
                   "mean_rtt_ms": rtt}],
        "engine": {"events_processed": events},
    }


def test_check_record_accepts_a_sane_record():
    assert run.check_record(_record()) == []
    assert run.delivered_packets(_record()) == pytest.approx(
        10e6 / 8 / 1500)


@pytest.mark.parametrize("bad", [
    {"goodput": -1.0}, {"goodput": float("nan")}, {"goodput": 25.0},
    {"loss": 1.5}, {"rtt": float("inf")}, {"events": 0},
])
def test_check_record_flags_each_breach(bad):
    assert len(run.check_record(_record(**bad))) == 1


TINY = [SweepGrid(schemes=("pcc", "cubic"), flow_counts=(1, 2),
                  duration=1.0)]


def test_a_pass_is_checked_and_deterministic(tmp_path):
    first = run.run_pass(TINY, [3], str(tmp_path))
    again = run.run_pass(TINY, [3], str(tmp_path))
    assert first.problems == [] and first.failed == 0
    assert first.cells == 4 and first.events > 0 and first.pkts > 0
    assert first.digest == again.digest
    assert len(first.parts) == first.cells + 3 * len(TINY) + 1
    assert sum(first.parts) == pytest.approx(first.wall_s)
    assert run.run_pass(TINY, [4], str(tmp_path)).digest != first.digest
    both = run.run_pass(TINY, [3, 4], str(tmp_path))
    assert both.cells == 2 * first.cells and both.seeds == (3, 4)


def test_fastest_parts_takes_each_part_from_its_fastest_repeat():
    slow_first = run.PassResult((1,), wall_s=5.0, parts=[1.0, 3.0, 1.0])
    slow_second = run.PassResult((1,), wall_s=4.5, parts=[2.0, 1.0, 1.5])
    assert run.fastest_parts([slow_first, slow_second]) == pytest.approx(
        1.0 + 1.0 + 1.0)


def test_a_raising_cell_is_counted_without_ending_the_run(tmp_path,
                                                          monkeypatch):
    real_run_cell = run.run_cell

    def flaky(cell):
        if cell.index == 1:
            raise RuntimeError("broken model")
        return real_run_cell(cell)

    def failing_sweep(*args, **kwargs):
        raise RuntimeError("broken model")

    monkeypatch.setattr(run, "run_cell", flaky)
    monkeypatch.setattr(run, "sweep", failing_sweep)
    result = run.run_pass(TINY, [3], str(tmp_path))
    assert (result.cells, result.failed) == (4, 1)
    assert any("broken model" in problem for problem in result.problems)


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", lambda: TINY)
    monkeypatch.setitem(workloads.SEEDS_PER_PASS, "tiny", 1)
    passes, metrics = run.per_layer("tiny", 3, str(tmp_path))
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert set(metrics) == {m["name"] for m in contract["per_layer"]}
    assert passes[0].digest == passes[1].digest
    shares = sum(metrics[f"{layer}.self_share"] for layer in layers.LAYERS)
    assert shares + metrics["trace.unmapped_share"] == pytest.approx(1.0)
    assert metrics["trace.unmapped_share"] < 0.05
    assert metrics["engine.events"] == passes[0].events
    assert metrics["core.mi_count"] > 0 and metrics["cc.acks"] > 0


def test_every_workload_builds_and_is_timed():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert [w["name"] for w in contract["workloads"]] == list(
        workloads.WORKLOADS)
    assert set(workloads.PASS_SECONDS) == set(workloads.WORKLOADS)
    assert set(workloads.SEEDS_PER_PASS) == set(workloads.WORKLOADS)
    assert run.pass_seeds("pcc_bulk", 5)[0] == 5
    for name in sorted(workloads.WORKLOADS):
        grids = workloads.WORKLOADS[name]()
        assert grids and all(isinstance(grid, SweepGrid) for grid in grids)
