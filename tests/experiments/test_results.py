"""Tests for the streaming, resumable ResultSet API.

The load-bearing properties: the canonical JSON view is byte-identical
however the records were accumulated (streamed, loaded, merged, resumed), and
a resumed sweep runs only the missing cells yet produces output identical to
an uninterrupted run.
"""

import json

import pytest

from repro.experiments.results import (
    RESULTSET_FORMAT,
    ResultSet,
    ResultSetWriter,
    cell_identity_key,
)
from repro.experiments.sweep import SweepGrid, sweep


def tiny_grid(**overrides):
    params = dict(
        schemes=("cubic", "pcc"),
        bandwidths_bps=(5e6,),
        rtts=(0.03,),
        loss_rates=(0.0, 0.01),
        duration=2.0,
    )
    params.update(overrides)
    return SweepGrid(**params)


def _record(index, scheme="cubic", loss=0.0, goodput=4.0, utility=None):
    cell = {"index": index, "scheme": scheme, "loss_rate": loss,
            "bandwidth_bps": 5e6, "seed": 1000 + index}
    if utility is not None:
        cell["utility"] = utility
    return {
        "cell": cell,
        "flows": [{"goodput_mbps": goodput, "loss_rate": loss,
                   "mean_rtt_ms": 31.0, "scheme": scheme, "label": f"{scheme}-0",
                   "fct": None}],
        "engine": {"events_processed": 10 + index, "pending_events": 0,
                   "simulated_seconds": 2.0},
    }


class TestCanonicalView:
    def test_ordering_is_canonical_regardless_of_append_order(self):
        in_order = ResultSet(0, [_record(0), _record(1), _record(2)])
        shuffled = ResultSet(0)
        for index in (2, 0, 1):
            shuffled.append(_record(index))
        assert shuffled.to_json() == in_order.to_json()
        assert [r["cell"]["index"] for r in shuffled.cells] == [0, 1, 2]

    def test_timings_follow_canonical_order(self):
        rs = ResultSet(0)
        rs.append(_record(1), wall_time_s=1.0)
        rs.append(_record(0), wall_time_s=0.5)
        assert rs.timings == [0.5, 1.0]
        assert rs.total_wall_time_s == 1.5

    def test_len_and_iter(self):
        rs = ResultSet(0, [_record(0), _record(1)])
        assert len(rs) == 2
        assert [r["cell"]["index"] for r in rs] == [0, 1]

    def test_record_without_identity_rejected(self):
        with pytest.raises(ValueError, match="cell"):
            ResultSet(0, [{"flows": []}])

    def test_misaligned_timings_rejected(self):
        with pytest.raises(ValueError, match="align"):
            ResultSet(0, [_record(0)], timings=[0.1, 0.2])


class TestJsonlRoundTrip:
    def test_write_jsonl_then_load(self, tmp_path):
        path = tmp_path / "run.jsonl"
        rs = ResultSet(7, [_record(0), _record(1)], timings=[0.25, 0.5])
        rs.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"format": RESULTSET_FORMAT, "base_seed": 7}
        assert len(lines) == 3
        # Each record line is canonical (sorted keys) and identity-keyed.
        record = json.loads(lines[1])
        assert list(record) == sorted(record)
        assert record["wall_time_s"] == 0.25
        loaded = ResultSet.load(str(path))
        assert loaded.to_json() == rs.to_json()
        assert loaded.timings == [0.25, 0.5]

    def test_load_legacy_canonical_json(self, tmp_path):
        path = tmp_path / "legacy.json"
        rs = ResultSet(3, [_record(0)], timings=[0.125])
        rs.write(str(path), include_timing=True)
        loaded = ResultSet.load(str(path))
        assert loaded.base_seed == 3
        assert loaded.to_json() == rs.to_json()
        assert loaded.timings == [0.125]

    def test_load_identical_duplicates_collapse(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        with ResultSetWriter(str(path), base_seed=0) as writer:
            writer.write(_record(0))
            writer.write(_record(0))
        assert len(ResultSet.load(str(path))) == 1

    def test_load_conflicting_duplicates_rejected(self, tmp_path):
        path = tmp_path / "conflict.jsonl"
        with ResultSetWriter(str(path), base_seed=0) as writer:
            writer.write(_record(0, goodput=4.0))
            writer.write(_record(0, goodput=1.0))
        with pytest.raises(ValueError, match="conflicting"):
            ResultSet.load(str(path))

    def test_append_validates_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ResultSetWriter(str(path), base_seed=1) as writer:
            writer.write(_record(0))
        with pytest.raises(ValueError, match="base_seed 1"):
            ResultSetWriter(str(path), base_seed=2, append=True)
        with ResultSetWriter(str(path), base_seed=1, append=True) as writer:
            writer.write(_record(1))
        assert len(ResultSet.load(str(path))) == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ResultSet.load(str(path))


class TestMerge:
    def test_merge_partial_runs(self):
        a = ResultSet(5, [_record(0)], timings=[0.1])
        b = ResultSet(5, [_record(1)], timings=[0.2])
        merged = ResultSet.merge([a, b])
        assert [r["cell"]["index"] for r in merged.cells] == [0, 1]
        assert merged.timings == [0.1, 0.2]

    def test_merge_overlapping_runs_dedupes(self):
        a = ResultSet(5, [_record(0), _record(1)])
        b = ResultSet(5, [_record(1), _record(2)])
        assert len(ResultSet.merge([a, b])) == 3

    def test_merge_conflicting_payloads_rejected(self):
        a = ResultSet(5, [_record(0, goodput=4.0)])
        b = ResultSet(5, [_record(0, goodput=2.0)])
        with pytest.raises(ValueError, match="conflicting"):
            ResultSet.merge([a, b])

    def test_merge_mixed_base_seeds_rejected(self):
        with pytest.raises(ValueError, match="base seeds"):
            ResultSet.merge([ResultSet(1), ResultSet(2)])

    def test_merge_needs_input(self):
        with pytest.raises(ValueError):
            ResultSet.merge([])


class TestQueries:
    def _result(self):
        return ResultSet(0, [
            _record(0, scheme="cubic", loss=0.0, goodput=4.5),
            _record(1, scheme="cubic", loss=0.01, goodput=2.0),
            _record(2, scheme="pcc", loss=0.0, goodput=4.8),
            _record(3, scheme="pcc", loss=0.01, goodput=4.4),
        ])

    def test_filter_returns_resultset(self):
        cubic = self._result().filter(scheme="cubic")
        assert isinstance(cubic, ResultSet)
        assert len(cubic) == 2
        assert cubic.goodput_mbps(loss_rate=0.01) == 2.0

    def test_filter_accepts_predicates(self):
        lossy = self._result().filter(loss_rate=lambda v: v > 0)
        assert [r["cell"]["index"] for r in lossy] == [1, 3]

    def test_groupby_single_key(self):
        groups = self._result().groupby("scheme")
        assert set(groups) == {"cubic", "pcc"}
        assert len(groups["pcc"]) == 2

    def test_groupby_multiple_keys(self):
        groups = self._result().groupby("scheme", "loss_rate")
        assert ("pcc", 0.01) in groups
        assert len(groups[("pcc", 0.01)]) == 1

    def test_aggregate_scalar(self):
        assert self._result().aggregate("goodput_mbps", reduce=sum) == \
            pytest.approx(4.5 + 2.0 + 4.8 + 4.4)

    def test_aggregate_by_key(self):
        means = self._result().aggregate("goodput_mbps", by="scheme")
        assert means["cubic"] == pytest.approx((4.5 + 2.0) / 2)
        assert means["pcc"] == pytest.approx((4.8 + 4.4) / 2)

    def test_aggregate_callable_metric(self):
        worst = self._result().aggregate(
            lambda record: record["flows"][0]["loss_rate"],
            by="scheme", reduce=max)
        assert worst["cubic"] == 0.01

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ResultSet(0).aggregate("goodput_mbps")


class TestGoodputLookupErrors:
    """The zero-match and many-match cases raise distinct, parameter-naming
    errors (previously both were a bare count message)."""

    def _result(self):
        return ResultSet(0, [
            _record(0, scheme="cubic", loss=0.0),
            _record(1, scheme="cubic", loss=0.01),
            _record(2, scheme="pcc", loss=0.0),
        ])

    def test_zero_matches_names_the_bad_parameter_and_observed_values(self):
        with pytest.raises(KeyError) as excinfo:
            self._result().goodput_mbps(scheme="no-such-scheme")
        message = str(excinfo.value)
        assert "no cells match" in message
        assert "scheme='no-such-scheme'" in message
        assert "'cubic'" in message and "'pcc'" in message

    def test_zero_matches_from_a_bad_combination(self):
        with pytest.raises(KeyError, match="no single cell satisfies"):
            self._result().goodput_mbps(scheme="pcc", loss_rate=0.01)

    def test_many_matches_names_the_disambiguating_parameters(self):
        with pytest.raises(KeyError) as excinfo:
            self._result().goodput_mbps(scheme="cubic")
        message = str(excinfo.value)
        assert "2 cells match" in message
        assert "loss_rate" in message
        # index/seed always differ; suggesting them would be noise.
        assert "'index'" not in message and "'seed'" not in message

    def test_empty_resultset_zero_match_message(self):
        with pytest.raises(KeyError, match="empty"):
            ResultSet(0).goodput_mbps(scheme="pcc")

    def test_single_match_returns_flow_sum(self):
        assert self._result().goodput_mbps(scheme="pcc") == 4.0


class TestSweepStreamingAndResume:
    def test_sweep_streams_jsonl_as_cells_complete(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        result = sweep(tiny_grid(), base_seed=1, workers=2,
                       jsonl_path=str(path))
        loaded = ResultSet.load(str(path))
        assert loaded.to_json() == result.to_json()

    def test_resume_from_partial_jsonl_matches_uninterrupted_run(self, tmp_path):
        """The acceptance criterion: an interrupted sweep resumed from its
        partial JSONL yields canonical JSON identical to a full run."""
        full_path = tmp_path / "full.jsonl"
        fresh = sweep(tiny_grid(), base_seed=1, workers=1,
                      jsonl_path=str(full_path))
        # Simulate the interruption: keep the header and the first two of
        # four records.
        partial_path = tmp_path / "partial.jsonl"
        partial_path.write_text(
            "".join(line + "\n"
                    for line in full_path.read_text().splitlines()[:3]))
        resumed = sweep(tiny_grid(), base_seed=1, workers=2,
                        jsonl_path=str(partial_path),
                        resume_from=str(partial_path))
        assert resumed.to_json() == fresh.to_json()
        # The continued file now holds every cell and loads to the same view.
        assert ResultSet.load(str(partial_path)).to_json() == fresh.to_json()

    def test_resume_runs_only_missing_cells(self, tmp_path, monkeypatch):
        path = tmp_path / "partial.jsonl"
        grid = tiny_grid()
        fresh = sweep(grid, base_seed=1, workers=1, jsonl_path=str(path))
        ran = []
        import repro.experiments.sweep as sweep_module

        real_run_cell = sweep_module.run_cell
        monkeypatch.setattr(sweep_module, "run_cell",
                            lambda cell: ran.append(cell.index)
                            or real_run_cell(cell))
        resumed = sweep(grid, base_seed=1, workers=1, resume_from=str(path))
        assert ran == []  # every identity was already on disk
        assert resumed.to_json() == fresh.to_json()

    def test_resume_ignores_records_outside_the_grid(self, tmp_path):
        path = tmp_path / "bigger.jsonl"
        bigger = tiny_grid(loss_rates=(0.0, 0.01, 0.02))
        sweep(bigger, base_seed=1, workers=1, jsonl_path=str(path))
        smaller = tiny_grid(loss_rates=(0.0,))
        # The smaller grid enumerates different cell indices (and therefore
        # seeds), so nothing from the bigger run can be reused: identity
        # matching must reject, not mix up, the extra records.
        result = sweep(smaller, base_seed=1, workers=1,
                       resume_from=str(path))
        assert result.to_json() == sweep(smaller, base_seed=1).to_json()

    def test_resume_reuses_cells_of_a_grid_prefix(self, tmp_path):
        """Extending a grid along its fastest-varying axis keeps earlier cell
        identities aligned, so a resume reuses them and runs only the new
        points."""
        path = tmp_path / "axis.jsonl"
        base = tiny_grid(schemes=("cubic",), loss_rates=(0.0, 0.01))
        sweep(base, base_seed=1, workers=1, jsonl_path=str(path))
        extended = tiny_grid(schemes=("cubic",), loss_rates=(0.0, 0.01, 0.02))
        result = sweep(extended, base_seed=1, workers=1,
                       resume_from=str(path))
        assert result.to_json() == sweep(extended, base_seed=1).to_json()

    def test_resume_base_seed_mismatch_rejected(self, tmp_path):
        path = tmp_path / "seeded.jsonl"
        sweep(tiny_grid(), base_seed=1, workers=1, jsonl_path=str(path))
        with pytest.raises(ValueError, match="base_seed"):
            sweep(tiny_grid(), base_seed=2, resume_from=str(path))

    def test_resume_from_missing_path_runs_fresh(self, tmp_path):
        """The idempotent-restart pattern: jsonl_path == resume_from works on
        the very first invocation too."""
        path = tmp_path / "new.jsonl"
        result = sweep(tiny_grid(schemes=("cubic",), loss_rates=(0.0,)),
                       base_seed=1, jsonl_path=str(path),
                       resume_from=str(path))
        assert len(result) == 1
        assert path.exists()

    def test_resume_from_legacy_canonical_json(self, tmp_path):
        path = tmp_path / "legacy.json"
        fresh = sweep(tiny_grid(), base_seed=1, workers=1)
        fresh.write(str(path))
        resumed = sweep(tiny_grid(), base_seed=1, resume_from=str(path))
        assert resumed.to_json() == fresh.to_json()


class TestIdentityKey:
    def test_key_is_canonical_json(self):
        params = {"scheme": "pcc", "index": 0}
        assert cell_identity_key(params) == '{"index": 0, "scheme": "pcc"}'

    def test_key_order_insensitive(self):
        assert cell_identity_key({"a": 1, "b": 2}) == \
            cell_identity_key({"b": 2, "a": 1})


class TestFreshStreamCarriesResumedRecords:
    def test_new_jsonl_target_is_complete_despite_resume(self, tmp_path):
        """Resuming from one file while streaming to another must leave the
        new stream complete (loadable without the prior file)."""
        old = tmp_path / "old.jsonl"
        grid = tiny_grid()
        fresh = sweep(grid, base_seed=1, workers=1, jsonl_path=str(old))
        new = tmp_path / "new.jsonl"
        sweep(grid, base_seed=1, workers=1, jsonl_path=str(new),
              resume_from=str(old))
        assert ResultSet.load(str(new)).to_json() == fresh.to_json()


class TestCrashTruncatedTail:
    def test_load_drops_a_truncated_final_line(self, tmp_path):
        path = tmp_path / "crashed.jsonl"
        rs = ResultSet(1, [_record(0), _record(1)])
        rs.write_jsonl(str(path))
        full = path.read_text()
        # A kill mid-write leaves a partial last line (no trailing newline).
        path.write_text(full[:-40])
        recovered = ResultSet.load(str(path))
        assert len(recovered) == 1
        assert recovered.cells[0]["cell"]["index"] == 0

    def test_load_rejects_corruption_before_the_tail(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        rs = ResultSet(1, [_record(0), _record(1)])
        rs.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-30]  # damage a *middle* record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt record"):
            ResultSet.load(str(path))

    def test_resume_after_a_crash_truncated_stream(self, tmp_path):
        """The end-to-end crash-restart contract: truncate the stream
        mid-record, resume into the same file, get byte-identical output."""
        path = tmp_path / "crashed.jsonl"
        fresh = sweep(tiny_grid(), base_seed=1, workers=1,
                      jsonl_path=str(path))
        full = path.read_text()
        path.write_text(full[: len(full) // 2])
        resumed = sweep(tiny_grid(), base_seed=1, workers=1,
                        jsonl_path=str(path), resume_from=str(path))
        assert resumed.to_json() == fresh.to_json()
        assert ResultSet.load(str(path)).to_json() == fresh.to_json()


class TestSchemeDefaultsInIdentity:
    def test_bundle_defaults_recorded_in_cell_identity(self):
        """Registry kwarg defaults resolve into the identity (like topology
        defaults), so archived sweeps keep their meaning even if a default
        changes later."""
        grid = SweepGrid(schemes=("parallel_tcp",), bandwidths_bps=(5e6,),
                         duration=1.0)
        params = grid.cells(0)[0].params()
        assert params["scheme_kwargs"] == {"bundle_scheme": "cubic",
                                           "bundle_size": 10}

    def test_grid_kwargs_cannot_override_recorded_defaults(self):
        with pytest.raises(ValueError, match="override"):
            SweepGrid(schemes=("parallel_tcp",),
                      controller_kwargs={"bundle_size": 4})


class TestUnreadableFiles:
    def test_load_garbage_file_raises_valueerror_naming_the_path(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_text('{"base_seed": 1, "cells": [{"truncated...')
        with pytest.raises(ValueError) as excinfo:
            ResultSet.load(str(path))
        assert "garbage.bin" in str(excinfo.value)
        assert not isinstance(excinfo.value, json.JSONDecodeError)

    def test_writer_repairs_truncated_tail_without_parsing_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        rs = ResultSet(1, [_record(0), _record(1)])
        rs.write_jsonl(str(path))
        full = path.read_text()
        path.write_text(full[:-25])  # partial final record, no newline
        with ResultSetWriter(str(path), base_seed=1, append=True) as writer:
            writer.write(_record(2))
        loaded = ResultSet.load(str(path))
        assert [r["cell"]["index"] for r in loaded.cells] == [0, 2]

    def test_records_property_aliases_cells(self):
        rs = ResultSet(0, [_record(1), _record(0)])
        assert rs.records == rs.cells
