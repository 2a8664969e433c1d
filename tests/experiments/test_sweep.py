"""Tests for the parallel scenario-sweep subsystem.

The load-bearing property is determinism: the same grid and base seed must
produce byte-identical result JSON regardless of how many worker processes
the sweep fans out across.
"""

import json

import pytest

from repro.experiments.sweep import (
    SweepGrid,
    derive_seed,
    main,
    register_scheme_variant,
    register_topology,
    resolve_scheme_spec,
    run_cell,
    scheme_variant_names,
    sweep,
    topology_names,
)
from repro.netsim import bdp_bytes

#: A tiny grid that exercises multi-cell fan-out while staying fast: a slow
#: link and short duration keep the packet counts small.
def tiny_grid(**overrides):
    params = dict(
        schemes=("cubic", "pcc"),
        bandwidths_bps=(5e6,),
        rtts=(0.03,),
        loss_rates=(0.0, 0.01),
        duration=3.0,
    )
    params.update(overrides)
    return SweepGrid(**params)


class TestSeedDerivation:
    def test_pinned_values(self):
        """The derivation is a cross-platform contract: changing it silently
        reseeds every persisted sweep, so the exact values are pinned."""
        assert [derive_seed(0, i) for i in range(3)] == [
            4870315401550313391,
            7606563966112757074,
            9080966467317087633,
        ]
        assert derive_seed(7, 0) == 6551058038977729289

    def test_deterministic(self):
        assert derive_seed(42, 17) == derive_seed(42, 17)

    def test_distinct_across_cells_and_bases(self):
        seeds = {derive_seed(base, index)
                 for base in range(20) for index in range(50)}
        assert len(seeds) == 20 * 50

    def test_json_safe_range(self):
        for base in (0, 1, 2**63 - 1):
            for index in (0, 999):
                assert 0 <= derive_seed(base, index) < 2**63


class TestGridEnumeration:
    def test_cell_order_is_cartesian_product(self):
        grid = tiny_grid()
        cells = grid.cells(base_seed=0)
        assert [(c.scheme, c.loss_rate) for c in cells] == [
            ("cubic", 0.0), ("cubic", 0.01), ("pcc", 0.0), ("pcc", 0.01),
        ]
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert [c.seed for c in cells] == [derive_seed(0, i) for i in range(4)]

    def test_default_buffer_resolves_to_bdp(self):
        cell = tiny_grid().cells(0)[0]
        assert cell.resolved_buffer_bytes() == bdp_bytes(5e6, 0.03)
        assert cell.params()["buffer_bytes"] == bdp_bytes(5e6, 0.03)

    def test_empty_schemes_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(schemes=())

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(schemes=("pcc",), duration=0.0)


class TestTopologyRegistry:
    def test_builtin_topologies_registered(self):
        names = topology_names()
        for name in ("single_bottleneck", "parking_lot", "trace_bottleneck"):
            assert name in names

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_topology("single_bottleneck", lambda sim, cell: [])

    def test_unknown_topology_rejected_at_grid_construction(self):
        with pytest.raises(ValueError):
            tiny_grid(topology="no-such-topology")

    def test_unknown_topology_kwargs_rejected_at_grid_construction(self):
        with pytest.raises(ValueError, match="bogus"):
            tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                      topology="parking_lot",
                      topology_kwargs={"num_hops": 2, "bogus": 1})

    def test_invalid_hop_count_rejected_at_grid_construction(self):
        with pytest.raises(ValueError, match="at least one hop"):
            tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                      topology="parking_lot",
                      topology_kwargs={"num_hops": 0})

    def test_trace_misconfigurations_rejected_at_grid_construction(self):
        with pytest.raises(ValueError, match="repeat_every"):
            tiny_grid(schemes=("cubic",), loss_rates=(0.0,), duration=15.0,
                      topology="trace_bottleneck",
                      topology_kwargs={"trace": "step", "repeat_every": 5.0})
        with pytest.raises(ValueError, match="unknown trace"):
            tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                      topology="trace_bottleneck",
                      topology_kwargs={"trace": "bogus"})

    def test_parking_lot_rejects_reverse_loss_at_grid_construction(self):
        """parking_lot builds clean ACK hops; a grid asking for reverse loss
        must fail loudly at construction rather than record an un-simulated
        flag (or die mid-sweep inside a worker)."""
        with pytest.raises(ValueError, match="reverse_loss"):
            tiny_grid(schemes=("cubic",), loss_rates=(0.01,),
                      reverse_loss=True, topology="parking_lot")

    def test_parking_lot_rejects_unachievable_rtt(self):
        """An RTT too small for the hop count must error at grid
        construction, not silently clamp to a different RTT than the one
        recorded in the cell identity."""
        with pytest.raises(ValueError, match="too small"):
            tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                      rtts=(0.0005,), topology="parking_lot",
                      topology_kwargs={"num_hops": 3})

    def test_topology_recorded_in_cell_identity(self):
        grid = tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                         topology="parking_lot",
                         topology_kwargs={"num_hops": 2})
        cell = grid.cells(0)[0]
        assert cell.params()["topology"] == "parking_lot"
        # Builder defaults are resolved into the identity, so archived JSON
        # fully specifies what was simulated.
        assert cell.params()["topology_kwargs"] == {
            "num_hops": 2, "access_delay": 0.0005,
        }

    def test_builder_defaults_resolved_into_cells(self):
        grid = tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                         topology="trace_bottleneck")
        cell = grid.cells(0)[0]
        assert cell.topology_kwargs == {
            "trace": "step", "repeat_every": None, "trace_seed": 0,
        }

    def test_cellular_trace_identical_across_schemes(self):
        """Cells differing only by scheme must face the identical capacity
        trace (the walk is seeded by trace_seed, not the per-cell seed), so
        scheme comparisons are point-by-point on the same network."""
        from repro.experiments.sweep import _build_trace_bottleneck

        from repro.netsim import Simulator

        grid = trace_grid()  # schemes = (cubic, pcc), trace = cellular
        cells = grid.cells(base_seed=1)
        assert cells[0].seed != cells[1].seed  # sim randomness still differs
        histories = []
        for cell in cells:
            sim = Simulator(seed=cell.seed)
            paths = _build_trace_bottleneck(sim, cell)
            link = paths[0].forward_links[0]
            series = []
            for step in range(1, 8):
                sim.run(cell.duration * step / 8.0)
                series.append(link.bandwidth_bps)
            histories.append(series)
        assert histories[0] == histories[1]


def parking_lot_grid(**overrides):
    # Two cells so workers=4 really exercises the multiprocessing fan-out.
    params = dict(
        schemes=("cubic", "pcc"),
        bandwidths_bps=(5e6,),
        rtts=(0.03,),
        flow_counts=(3,),  # long flow + one cross flow per hop
        duration=3.0,
        topology="parking_lot",
        topology_kwargs={"num_hops": 2},
    )
    params.update(overrides)
    return SweepGrid(**params)


def trace_grid(**overrides):
    params = dict(
        schemes=("cubic", "pcc"),
        bandwidths_bps=(5e6,),
        rtts=(0.03,),
        duration=4.0,
        topology="trace_bottleneck",
        topology_kwargs={"trace": "cellular"},
    )
    params.update(overrides)
    return SweepGrid(**params)


class TestSweepDeterminism:
    def test_workers_do_not_change_results(self, tmp_path):
        """workers=1 and workers=4 must produce byte-identical JSON files."""
        serial = sweep(tiny_grid(), base_seed=1, workers=1)
        parallel = sweep(tiny_grid(), base_seed=1, workers=4)
        assert serial.to_json() == parallel.to_json()

        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        serial.write(str(serial_path))
        parallel.write(str(parallel_path))
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_parking_lot_workers_do_not_change_results(self):
        """The determinism guarantee holds for multi-path topologies too."""
        serial = sweep(parking_lot_grid(), base_seed=1, workers=1)
        parallel = sweep(parking_lot_grid(), base_seed=1, workers=4)
        assert serial.to_json() == parallel.to_json()
        for cell in serial.cells:
            assert cell["cell"]["topology"] == "parking_lot"
            assert len(cell["flows"]) == 3
            # Every path carries traffic: the long flow and both cross flows.
            assert all(flow["goodput_mbps"] > 0.0 for flow in cell["flows"])

    def test_trace_workers_do_not_change_results(self):
        """The cellular trace is seeded per cell, so worker fan-out cannot
        perturb a trace-driven grid either."""
        serial = sweep(trace_grid(), base_seed=1, workers=1)
        parallel = sweep(trace_grid(), base_seed=1, workers=4)
        assert serial.to_json() == parallel.to_json()
        for cell in serial.cells:
            assert cell["cell"]["topology_kwargs"]["trace"] == "cellular"
            assert cell["flows"][0]["goodput_mbps"] > 0.0

    def test_repeated_runs_identical(self):
        grid = tiny_grid(schemes=("cubic",), loss_rates=(0.01,))
        assert sweep(grid, base_seed=3).to_json() == sweep(grid, base_seed=3).to_json()

    def test_different_base_seed_changes_results(self):
        grid = tiny_grid(schemes=("cubic",), loss_rates=(0.01,))
        a = sweep(grid, base_seed=1)
        b = sweep(grid, base_seed=2)
        assert a.to_json() != b.to_json()

    def test_timing_excluded_from_canonical_json(self):
        result = sweep(tiny_grid(schemes=("cubic",), loss_rates=(0.0,)), base_seed=0)
        canonical = json.loads(result.to_json())
        assert "timing" not in canonical
        assert all("wall_time_s" not in cell for cell in canonical["cells"])
        with_timing = json.loads(result.to_json(include_timing=True))
        assert with_timing["timing"]["wall_time_s"] == result.timings

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            sweep(tiny_grid(), workers=0)


class TestSweepResults:
    def test_cell_payload_shape(self):
        result = sweep(tiny_grid(schemes=("cubic",), loss_rates=(0.0,)), base_seed=0)
        (cell,) = result.cells
        assert cell["cell"]["scheme"] == "cubic"
        assert cell["engine"]["events_processed"] > 0
        assert cell["engine"]["simulated_seconds"] == 3.0
        assert len(cell["flows"]) == 1
        assert cell["flows"][0]["goodput_mbps"] > 1.0  # link mostly utilized
        assert len(result.timings) == 1 and result.timings[0] > 0.0

    def test_lookup_helpers(self):
        result = sweep(tiny_grid(), base_seed=1)
        assert len(result.find(scheme="pcc")) == 2
        goodput = result.goodput_mbps(scheme="cubic", loss_rate=0.0)
        assert goodput > 1.0
        with pytest.raises(KeyError):
            result.goodput_mbps(scheme="pcc")  # two cells match
        with pytest.raises(KeyError):
            result.goodput_mbps(scheme="no-such-scheme")

    def test_multi_flow_cells_summarize_every_flow(self):
        grid = tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                         flow_counts=(2,), stagger=0.5)
        result = sweep(grid, base_seed=0)
        (cell,) = result.cells
        assert len(cell["flows"]) == 2
        assert cell["cell"]["num_flows"] == 2

    def test_run_cell_reports_wall_time(self):
        cell = tiny_grid(schemes=("cubic",), loss_rates=(0.0,)).cells(0)[0]
        outcome = run_cell(cell)
        assert outcome["wall_time_s"] > 0.0


class TestCli:
    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "cubic",
            "--bandwidth-mbps", "5",
            "--loss", "0.0", "0.01",
            "--duration", "2",
            "--seed", "1",
            "--workers", "2",
            "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["base_seed"] == 1
        assert len(payload["cells"]) == 2
        printed = capsys.readouterr().out
        assert "events/s" in printed
        assert str(out) in printed

    def test_buffer_accepts_bdp_and_kb(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "cubic",
            "--bandwidth-mbps", "5",
            "--buffer-kb", "bdp", "30",
            "--duration", "2",
            "--output", str(out),
        ])
        assert code == 0
        cells = json.loads(out.read_text())["cells"]
        assert cells[0]["cell"]["buffer_bytes"] == bdp_bytes(5e6, 0.03)
        assert cells[1]["cell"]["buffer_bytes"] == 30_000.0

    def test_parking_lot_topology(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "cubic",
            "--bandwidth-mbps", "5",
            "--topology", "parking_lot",
            "--hops", "2",
            "--flows", "3",
            "--duration", "2",
            "--workers", "2",
            "--output", str(out),
        ])
        assert code == 0
        (cell,) = json.loads(out.read_text())["cells"]
        assert cell["cell"]["topology"] == "parking_lot"
        assert cell["cell"]["topology_kwargs"]["num_hops"] == 2
        assert len(cell["flows"]) == 3
        assert "parking_lot" in capsys.readouterr().out

    def test_parking_lot_defaults_to_one_flow_per_path(self, tmp_path):
        """With no --flows, a parking-lot sweep must cover every hop with
        cross traffic rather than silently running an uncontested chain."""
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "cubic",
            "--bandwidth-mbps", "5",
            "--topology", "parking_lot",
            "--hops", "2",
            "--duration", "2",
            "--output", str(out),
        ])
        assert code == 0
        (cell,) = json.loads(out.read_text())["cells"]
        assert cell["cell"]["num_flows"] == 3  # long flow + 2 cross flows

    def test_topology_flags_require_their_topology(self, capsys):
        """--hops / --trace without the matching --topology must error rather
        than run a different experiment than the user asked for."""
        with pytest.raises(SystemExit):
            main(["--schemes", "cubic", "--trace", "cellular"])
        assert "--topology trace_bottleneck" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["--schemes", "cubic", "--hops", "2"])
        assert "--topology parking_lot" in capsys.readouterr().err

    def test_resume_flag_fresh_vs_partial_produce_identical_json(self, tmp_path):
        """A fresh CLI run and a partial-file resume must write byte-identical
        canonical JSON (the interrupted-sweep acceptance criterion)."""
        base_args = [
            "--schemes", "cubic", "pcc",
            "--bandwidth-mbps", "5",
            "--loss", "0.0", "0.01",
            "--duration", "2",
            "--seed", "1",
        ]
        fresh_out = tmp_path / "fresh.json"
        jsonl = tmp_path / "stream.jsonl"
        assert main([*base_args, "--workers", "2", "--jsonl", str(jsonl),
                                 "--output", str(fresh_out)]) == 0
        # Simulate the interruption: drop the 4-cell stream to header + 1 cell.
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(
            line + "\n" for line in jsonl.read_text().splitlines()[:2]))
        resumed_out = tmp_path / "resumed.json"
        assert main([*base_args, "--workers", "2",
                                 "--resume-from", str(partial),
                                 "--jsonl", str(partial),
                                 "--output", str(resumed_out)]) == 0
        assert resumed_out.read_bytes() == fresh_out.read_bytes()
        # The resumed stream file has accumulated to the full grid.
        assert len(json.loads(resumed_out.read_text())["cells"]) == 4
        from repro.experiments.results import ResultSet
        assert ResultSet.load(str(partial)).to_json() == \
            ResultSet.load(str(fresh_out)).to_json()

    def test_resume_from_missing_file_errors(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--schemes", "cubic", "--duration", "1",
                  "--resume-from", str(tmp_path / "nope.jsonl")])
        assert "does not exist" in capsys.readouterr().err

    def test_restartable_invocation_works_before_the_stream_exists(self, tmp_path):
        """--resume-from pointing at the --jsonl stream is the documented
        crash-restart pattern and must work on the very first run, when the
        stream file does not exist yet."""
        jsonl = tmp_path / "stream.jsonl"
        args = ["--schemes", "cubic", "--bandwidth-mbps", "5",
                "--duration", "1", "--jsonl", str(jsonl),
                "--resume-from", str(jsonl)]
        assert main(args) == 0  # fresh start: creates the stream
        assert main(args) == 0  # restart: resumes from it (zero cells run)
        from repro.experiments.results import ResultSet
        assert len(ResultSet.load(str(jsonl))) == 1

    def test_resume_from_mismatched_seed_errors(self, tmp_path, capsys):
        jsonl = tmp_path / "seed1.jsonl"
        args = ["--schemes", "cubic", "--bandwidth-mbps", "5",
                "--duration", "1"]
        assert main([*args, "--seed", "1", "--jsonl", str(jsonl)]) == 0
        with pytest.raises(SystemExit):
            main([*args, "--seed", "2", "--resume-from", str(jsonl)])
        assert "base_seed" in capsys.readouterr().err

    def test_trace_topology(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "cubic",
            "--bandwidth-mbps", "5",
            "--topology", "trace_bottleneck",
            "--trace", "sawtooth",
            "--duration", "2",
            "--output", str(out),
        ])
        assert code == 0
        (cell,) = json.loads(out.read_text())["cells"]
        assert cell["cell"]["topology"] == "trace_bottleneck"
        assert cell["cell"]["topology_kwargs"]["trace"] == "sawtooth"
        assert cell["flows"][0]["goodput_mbps"] > 0.0


class TestGoldenBehaviorPreservation:
    def test_default_pcc_grid_matches_pre_refactor_golden_json(self, tmp_path):
        """The policy/utility refactor must change structure, not
        trajectories: a fixed-seed default-PCC grid reproduces the JSON
        captured *before* the RateControlPolicy extraction, byte for byte,
        at any worker count."""
        import pathlib

        golden_path = (pathlib.Path(__file__).parent / "data"
                       / "golden_pcc_sweep_seed7.json")
        grid = SweepGrid(
            schemes=("pcc",),
            bandwidths_bps=(5e6, 20e6),
            rtts=(0.03,),
            loss_rates=(0.0, 0.01),
            flow_counts=(1, 2),
            duration=3.0,
            stagger=0.5,
        )
        result = sweep(grid, base_seed=7, workers=2)
        out = tmp_path / "sweep.json"
        result.write(str(out))
        assert out.read_bytes() == golden_path.read_bytes()


class TestSchemeVariants:
    def test_plain_scheme_resolves_to_itself(self):
        assert resolve_scheme_spec("pcc") == ("pcc", {})
        assert resolve_scheme_spec("cubic") == ("cubic", {})

    def test_builtin_variants_registered(self):
        names = scheme_variant_names()
        for name in ("gradient", "latency", "loss_resilient", "no_rct"):
            assert name in names

    def test_variant_resolves_to_controller_kwargs(self):
        assert resolve_scheme_spec("pcc:gradient") == ("pcc", {"policy": "gradient"})
        assert resolve_scheme_spec("pcc:latency") == ("pcc", {"utility": "latency"})
        assert resolve_scheme_spec("pcc:no_rct") == ("pcc", {"use_rct": False})

    def test_unknown_variant_rejected_at_grid_construction(self):
        with pytest.raises(ValueError, match="no-such-variant"):
            tiny_grid(schemes=("pcc:no-such-variant",))

    def test_variant_on_wrong_base_scheme_rejected(self):
        with pytest.raises(ValueError, match="base scheme"):
            tiny_grid(schemes=("cubic:gradient",))

    def test_duplicate_variant_registration_rejected(self):
        with pytest.raises(ValueError):
            register_scheme_variant("gradient", {"policy": "gradient"})

    def test_variant_kwargs_recorded_in_cell_identity(self):
        grid = tiny_grid(schemes=("pcc:gradient",), loss_rates=(0.0,))
        cell = grid.cells(0)[0]
        assert cell.params()["scheme_kwargs"] == {"policy": "gradient"}

    def test_default_cells_carry_no_extra_identity_keys(self):
        """Plain cells must keep the pre-refactor identity layout so archived
        sweep JSON stays byte-comparable."""
        cell = tiny_grid().cells(0)[0]
        assert "utility" not in cell.params()
        assert "scheme_kwargs" not in cell.params()


class TestUtilitiesAxis:
    def test_utilities_is_the_fastest_varying_axis(self):
        grid = tiny_grid(schemes=("pcc",), loss_rates=(0.0, 0.01),
                         utilities=(None, "latency"))
        cells = grid.cells(0)
        assert [(c.loss_rate, c.utility) for c in cells] == [
            (0.0, None), (0.0, "latency"), (0.01, None), (0.01, "latency"),
        ]

    def test_utility_recorded_in_cell_identity(self):
        grid = tiny_grid(schemes=("pcc",), loss_rates=(0.0,),
                         utilities=("loss_resilient",))
        params = grid.cells(0)[0].params()
        assert params["utility"] == "loss_resilient"
        assert params["scheme_kwargs"] == {"utility": "loss_resilient"}

    def test_empty_utilities_rejected(self):
        with pytest.raises(ValueError, match="utilities"):
            tiny_grid(schemes=("pcc",), utilities=())

    def test_unknown_utility_rejected_at_grid_construction(self):
        with pytest.raises(ValueError, match="registered"):
            tiny_grid(schemes=("pcc",), utilities=("no-such-utility",))

    def test_utilities_axis_requires_pcc_schemes(self):
        with pytest.raises(ValueError, match="pcc"):
            tiny_grid(utilities=("latency",))  # grid includes cubic

    def test_utilities_axis_conflicts_with_utility_fixing_variant(self):
        with pytest.raises(ValueError, match="already fixes"):
            tiny_grid(schemes=("pcc:latency",), utilities=("safe",))

    def test_utility_axis_changes_results(self):
        base = tiny_grid(schemes=("pcc",), loss_rates=(0.01,), utilities=(None,))
        resilient = tiny_grid(schemes=("pcc",), loss_rates=(0.01,),
                              utilities=("loss_resilient",))
        a = sweep(base, base_seed=5)
        b = sweep(resilient, base_seed=5)
        assert a.cells[0]["flows"] != b.cells[0]["flows"]


class TestGradientPolicySweeps:
    def test_gradient_workers_do_not_change_results(self):
        """The byte-identical-across-worker-counts guarantee must hold for
        policy-bearing scheme specs too."""
        grid = tiny_grid(schemes=("pcc", "pcc:gradient"))
        serial = sweep(grid, base_seed=1, workers=1)
        parallel = sweep(grid, base_seed=1, workers=4)
        assert serial.to_json() == parallel.to_json()
        for cell in serial.find(scheme="pcc:gradient"):
            assert cell["cell"]["scheme_kwargs"] == {"policy": "gradient"}

    def test_gradient_repeated_runs_identical(self):
        grid = tiny_grid(schemes=("pcc:gradient",), loss_rates=(0.01,))
        assert sweep(grid, base_seed=3).to_json() == sweep(grid, base_seed=3).to_json()

    def test_gradient_converges_in_a_sweep_cell(self):
        grid = tiny_grid(schemes=("pcc:gradient",), loss_rates=(0.0,),
                         duration=10.0)
        result = sweep(grid, base_seed=0)
        assert result.goodput_mbps(scheme="pcc:gradient") > 0.6 * 5.0


class TestPolicyUtilityCli:
    def test_gradient_scheme_spec(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "pcc:gradient",
            "--bandwidth-mbps", "5",
            "--duration", "2",
            "--output", str(out),
        ])
        assert code == 0
        (cell,) = json.loads(out.read_text())["cells"]
        assert cell["cell"]["scheme"] == "pcc:gradient"
        assert cell["cell"]["scheme_kwargs"] == {"policy": "gradient"}

    def test_utility_flag_builds_the_axis(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "pcc",
            "--bandwidth-mbps", "5",
            "--utility", "default", "loss_resilient",
            "--duration", "2",
            "--output", str(out),
        ])
        assert code == 0
        cells = json.loads(out.read_text())["cells"]
        assert len(cells) == 2
        assert "utility" not in cells[0]["cell"]
        assert cells[1]["cell"]["utility"] == "loss_resilient"

    def test_policy_flag_expands_pcc_entries(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "pcc", "cubic",
            "--bandwidth-mbps", "5",
            "--policy", "pcc", "gradient",
            "--duration", "2",
            "--output", str(out),
        ])
        assert code == 0
        cells = json.loads(out.read_text())["cells"]
        assert [c["cell"]["scheme"] for c in cells] == [
            "pcc", "pcc:gradient", "cubic",
        ]

    def test_policy_flag_requires_a_pcc_scheme(self, capsys):
        with pytest.raises(SystemExit):
            main(["--schemes", "cubic", "--policy", "gradient"])
        assert "--policy" in capsys.readouterr().err

    def test_utility_flag_with_tcp_scheme_errors_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["--schemes", "cubic", "--utility", "latency"])
        assert "pcc" in capsys.readouterr().err


class TestControllerKwargsIdentityIntegrity:
    def test_controller_kwargs_cannot_smuggle_policy_or_utility(self):
        """The policy/utility a cell ran with are identity: they must arrive
        via scheme specs or the utilities axis (which are recorded), never
        via grid controller_kwargs (which are not)."""
        with pytest.raises(ValueError, match="cannot set"):
            tiny_grid(schemes=("pcc",), loss_rates=(0.0,),
                      controller_kwargs={"policy": "gradient"})
        with pytest.raises(ValueError, match="cannot set"):
            tiny_grid(schemes=("pcc",), loss_rates=(0.0,),
                      controller_kwargs={"utility": "latency"})

    def test_controller_kwargs_cannot_override_variant_kwargs(self):
        """The variant kwargs recorded in the identity JSON must be what the
        flows actually receive; a grid-level override would make archived
        sweeps lie."""
        with pytest.raises(ValueError, match="override"):
            tiny_grid(schemes=("pcc:no_rct",), loss_rates=(0.0,),
                      controller_kwargs={"use_rct": True})

    def test_controller_kwargs_cannot_set_utility_under_a_utilities_axis(self):
        with pytest.raises(ValueError, match="utilities axis"):
            tiny_grid(schemes=("pcc",), utilities=("latency",),
                      controller_kwargs={"utility": "safe"})
        with pytest.raises(ValueError, match="utilities axis"):
            tiny_grid(schemes=("pcc",), utilities=("latency",),
                      controller_kwargs={"utility_function": object()})

    def test_unrelated_controller_kwargs_still_pass(self):
        grid = tiny_grid(schemes=("pcc:gradient",),
                         controller_kwargs={"min_packets_per_mi": 10})
        assert grid.cells(0)[0].controller_kwargs == {"min_packets_per_mi": 10}


class TestHelpListsRegistries:
    """`--help` must list the registries dynamically, not hard-coded examples
    that drift when schemes/variants/topologies are registered."""

    @staticmethod
    def _unwrapped_help() -> str:
        """The help text with argparse's line wrapping undone, so names that
        were split across lines (argparse breaks at hyphens) match again."""
        import re
        from repro.experiments.sweep import _build_parser

        return re.sub(r"\n\s*", "", _build_parser().format_help())

    def test_help_lists_every_scheme_spec_and_topology(self):
        from repro.schemes import available_schemes
        from repro.experiments.sweep import topology_names

        help_text = self._unwrapped_help()
        for spec in available_schemes():
            assert spec in help_text, f"--help does not mention {spec}"
        for topology in topology_names():
            assert topology in help_text

    def test_help_lists_policies_and_utilities(self):
        from repro.core import policy_names, utility_names

        help_text = self._unwrapped_help()
        for name in policy_names():
            assert name in help_text
        for name in utility_names():
            assert name in help_text


class TestProfileFlag:
    def test_execute_cells_profile_requires_serial(self):
        from repro.experiments.execute import execute_cells
        with pytest.raises(ValueError, match="profile requires workers=1"):
            execute_cells([], lambda cell: {}, base_seed=0, workers=2,
                          profile=True)

    def test_sweep_cli_profile_requires_serial(self, capsys):
        with pytest.raises(SystemExit):
            main(["--schemes", "cubic", "--duration", "1",
                  "--profile", "--workers", "2"])
        assert "--workers 1" in capsys.readouterr().err

    def test_profile_prints_stats_to_stderr_not_stdout(self, tmp_path,
                                                       capsys):
        """The canonical JSON is byte-identical with and without --profile;
        the cProfile tables go to stderr only."""
        args = ["--schemes", "cubic", "--bandwidth-mbps", "5",
                "--duration", "1"]
        plain, profiled = tmp_path / "plain.json", tmp_path / "profiled.json"
        assert main([*args, "--output", str(plain)]) == 0
        captured = capsys.readouterr()
        assert "cumulative" not in captured.err
        assert main([*args, "--output", str(profiled), "--profile"]) == 0
        captured = capsys.readouterr()
        assert "profile: cell" in captured.err
        assert "cumulative" in captured.err
        assert "profile: cell" not in captured.out
        assert plain.read_bytes() == profiled.read_bytes()


class TestArchivedEngineBackendRecords:
    def test_hybrid_records_are_never_reused(self, tmp_path):
        """Archives written while the engine had a ``hybrid`` backend can
        hold records whose cell identity and engine payload carry
        ``"backend": "hybrid"``.  Such a record must never satisfy a cell of
        today's single engine, from a resume stream or from the store, while
        the default records next to it are reused as usual."""
        import copy

        from repro.experiments.results import ResultSetWriter
        from repro.experiments.store import CellStore

        grid = tiny_grid(schemes=("cubic",), bandwidths_bps=(5e6, 10e6),
                         duration=1.0)
        fresh = sweep(grid, base_seed=1)
        records = json.loads(fresh.to_json())["cells"]
        assert len(records) == 4

        def as_hybrid(record):
            hybrid = copy.deepcopy(record)
            hybrid["cell"]["backend"] = "hybrid"
            hybrid["engine"]["backend"] = "hybrid"
            # A visibly different outcome, so any reuse would show.
            for flow in hybrid["flows"]:
                flow["goodput_mbps"] = -1.0
            return hybrid

        jsonl = tmp_path / "archived.jsonl"
        with ResultSetWriter(str(jsonl), base_seed=1) as writer:
            writer.write(records[0], wall_time_s=0.5)
            writer.write(as_hybrid(records[1]), wall_time_s=0.5)
        with CellStore(str(tmp_path / "store")) as store:
            store.put(records[2], wall_time_s=0.5)
            store.put(as_hybrid(records[3]), wall_time_s=0.5)

        resumed = sweep(grid, base_seed=1, resume_from=str(jsonl),
                        store=str(tmp_path / "store"))
        assert resumed.reuse == {"cells": 4, "resume_hits": 1,
                                 "store_hits": 1, "executed": 2}
        assert resumed.to_json() == fresh.to_json()
