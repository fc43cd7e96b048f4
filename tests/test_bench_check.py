"""The metrics-backed regression gate (``bench check``)."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import check as check_mod
from repro.bench.__main__ import main


@pytest.fixture(scope="module")
def fig08_collection():
    return check_mod.collect(["fig08"])


class TestCollect:
    def test_collection_shape(self, fig08_collection):
        doc = fig08_collection
        assert doc["schema"] == 2
        assert doc["fidelity"] == "packet"
        metrics = doc["scenarios"]["fig08"]
        assert metrics["ops"] == 2.0
        assert metrics["spans"] > 0
        assert metrics["wall_us"] > 0
        assert metrics["uc_commands_executed"] == 2.0
        # Attributed phase time covers the whole wall window.
        phase_total = sum(v for k, v in metrics.items()
                          if k.startswith("phase_us."))
        assert phase_total == pytest.approx(metrics["wall_us"], rel=1e-9)
        # Class-global kernel counters must not leak into the gate.
        assert not any("kernel" in k for k in metrics)

    def test_collection_is_deterministic(self, fig08_collection):
        again = check_mod.collect(["fig08"])
        assert again["scenarios"] == fig08_collection["scenarios"]

    def test_events_are_kernel_counter_deltas_across_the_replay(
            self, monkeypatch):
        from repro.obs import capture
        from repro.sim.kernel import Environment

        deltas = {}
        replay = capture.trace_artifact

        def counted(name):
            events0 = Environment.total_events_processed
            ff0 = Environment.total_events_fast_forwarded
            cap = replay(name)
            deltas[name] = (Environment.total_events_processed - events0,
                            Environment.total_events_fast_forwarded - ff0)
            return cap

        monkeypatch.setattr(capture, "trace_artifact", counted)
        metrics = check_mod.collect(["fig07"], fidelity="flow")[
            "scenarios"]["fig07"]
        assert (metrics["events"], metrics["events_ff"]) == deltas["fig07"]
        assert metrics["events"] > 0 and metrics["events_ff"] > 0


class TestCompare:
    def test_self_compare_is_clean(self, fig08_collection):
        rows = check_mod.compare(fig08_collection, fig08_collection)
        assert rows and all(row["ok"] for row in rows)
        assert check_mod.violations(rows) == []

    def test_deviation_beyond_tolerance_fails(self, fig08_collection):
        current = copy.deepcopy(fig08_collection)
        current["scenarios"]["fig08"]["wall_us"] *= 1.10
        rows = check_mod.compare(fig08_collection, current)
        bad = check_mod.violations(rows)
        assert [row["metric"] for row in bad] == ["wall_us"]
        # A generous tolerance lets the same deviation pass.
        rows = check_mod.compare(fig08_collection, current, default_tol=0.5)
        assert check_mod.violations(rows) == []

    def test_per_metric_tolerance_overrides(self, fig08_collection):
        baseline = copy.deepcopy(fig08_collection)
        baseline["tolerances"] = {"fig08.wall_us": 0.5, "spans": 0.0}
        current = copy.deepcopy(fig08_collection)
        current["scenarios"]["fig08"]["wall_us"] *= 1.10
        rows = check_mod.compare(baseline, current)
        assert check_mod.violations(rows) == []

    def test_missing_scenario_and_metric_fail(self, fig08_collection):
        baseline = copy.deepcopy(fig08_collection)
        baseline["scenarios"]["ghost"] = {"ops": 1.0}
        current = copy.deepcopy(fig08_collection)
        del current["scenarios"]["fig08"]["spans"]
        rows = check_mod.compare(baseline, current)
        notes = {(r["scenario"], r["metric"]): r["note"]
                 for r in check_mod.violations(rows)}
        assert notes[("ghost", "*")] == "scenario missing from current run"
        assert notes[("fig08", "spans")] == "missing"

    def test_render_table_flags_failures(self, fig08_collection):
        current = copy.deepcopy(fig08_collection)
        current["scenarios"]["fig08"]["wall_us"] *= 2
        table = check_mod.render_check_table(
            check_mod.compare(fig08_collection, current))
        assert "FAIL" in table and "wall_us" in table


_COMMITTED = Path(__file__).resolve().parents[1] / check_mod.DEFAULT_BASELINE


class TestCommittedBaseline:
    """Integer counts repeat exactly, so the committed baseline gates them
    with zero tolerance; simulated times keep the default."""

    def test_integer_counts_have_zero_tolerance(self):
        doc = check_mod.load_baseline(str(_COMMITTED))
        counts = {"events", "events_ff", "ops", "spans",
                  *check_mod._GAUGE_TOTALS}
        assert doc["tolerances"] == {name: 0.0 for name in counts}
        for mode in ("packet", "flow"):
            for metrics in doc["modes"][mode].values():
                assert counts <= set(metrics)

    @pytest.mark.parametrize("mode", ["packet", "flow"])
    def test_one_event_off_fails_inside_the_default(self, mode):
        view = check_mod.mode_view(check_mod.load_baseline(str(_COMMITTED)),
                                   mode)
        current = {"scenarios": copy.deepcopy(view["scenarios"])}
        current["scenarios"]["fig07"]["events"] += 1
        bad = check_mod.violations(check_mod.compare(view, current))
        assert [(row["scenario"], row["metric"]) for row in bad] == \
            [("fig07", "events")]
        # The 2% default alone would have let it through.
        loose = dict(view, tolerances={})
        assert check_mod.violations(check_mod.compare(loose, current)) == []


class TestBaselineSchema2:
    def test_mode_view_shapes_for_compare(self):
        doc = {"schema": 2, "default_tolerance": 0.01,
               "tolerances": {"spans": 0.0},
               "modes": {"flow": {"fig08": {"ops": 2.0}}}}
        flow = check_mod.mode_view(doc, "flow")
        assert flow["scenarios"] == {"fig08": {"ops": 2.0}}
        assert flow["default_tolerance"] == 0.01
        assert check_mod.mode_view(doc, "packet")["scenarios"] == {}

    def test_write_baseline_folds_modes_independently(self, tmp_path):
        path = tmp_path / "baseline.json"
        packet = {"schema": 2, "fidelity": "packet",
                  "scenarios": {"fig08": {"ops": 2.0}}}
        check_mod.write_baseline(str(path), packet)
        flow = {"schema": 2, "fidelity": "flow",
                "scenarios": {"fig08": {"ops": 2.0}, "fig07": {"ops": 6.0}}}
        previous = check_mod.load_baseline(str(path))
        check_mod.write_baseline(str(path), flow, previous)
        doc = json.loads(path.read_text())
        assert doc["modes"]["packet"] == {"fig08": {"ops": 2.0}}
        assert sorted(doc["modes"]["flow"]) == ["fig07", "fig08"]


class TestCheckCli:
    def test_update_then_pass_then_regress(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["check", "fig08", "--update",
                     "--baseline", str(baseline)]) == 0
        assert main(["check", "fig08", "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        doc = json.loads(baseline.read_text())
        doc["modes"]["packet"]["fig08"]["wall_us"] *= 1.5
        baseline.write_text(json.dumps(doc))
        assert main(["check", "fig08", "--baseline", str(baseline)]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_committed_baseline_one_event_off_exits_1(self, tmp_path,
                                                       capsys):
        doc = json.loads(_COMMITTED.read_text())
        doc["modes"]["packet"]["allreduce"]["events"] += 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        assert main(["check", "allreduce", "--baseline", str(baseline),
                     "--json", str(report)]) == 1
        failed = [(m["scenario"], m["metric"])
                  for m in json.loads(report.read_text())["metrics"]
                  if m["verdict"] == "fail"]
        assert failed == [("allreduce", "events")]

    def test_missing_baseline_hints_update(self, tmp_path, capsys):
        rc = main(["check", "fig08",
                   "--baseline", str(tmp_path / "none.json")])
        assert rc == 2
        assert "--update" in capsys.readouterr().err

    def test_missing_mode_section_hints_update(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["check", "fig08", "--update",
                     "--baseline", str(baseline)]) == 0
        rc = main(["check", "fig08", "--baseline", str(baseline),
                   "--fidelity", "flow"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no 'flow' section" in err and "--fidelity flow" in err

    def test_flow_mode_update_then_pass(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["check", "fig08", "--update",
                     "--baseline", str(baseline),
                     "--fidelity", "flow"]) == 0
        assert main(["check", "fig08", "--baseline", str(baseline),
                     "--fidelity", "flow"]) == 0
        assert "[flow]" in capsys.readouterr().out

    def test_update_merges_and_keeps_tolerances(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main(["check", "fig08", "--update",
                     "--baseline", str(baseline)]) == 0
        doc = json.loads(baseline.read_text())
        doc["tolerances"] = {"fig08.wall_us": 0.3}
        doc["modes"]["packet"]["keepme"] = {"ops": 1.0}
        baseline.write_text(json.dumps(doc))
        assert main(["check", "fig08", "--update",
                     "--baseline", str(baseline)]) == 0
        merged = json.loads(baseline.read_text())
        assert merged["tolerances"] == {"fig08.wall_us": 0.3}
        assert "keepme" in merged["modes"]["packet"]
        assert "fig08" in merged["modes"]["packet"]

    def test_committed_baseline_passes(self):
        """The repo baseline must stay green (the CI gate's clean run)."""
        assert main(["check"]) == 0

    def test_committed_baseline_passes_flow(self):
        assert main(["check", "--fidelity", "flow"]) == 0
