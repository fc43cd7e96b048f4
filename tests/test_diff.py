"""Differential comparison: ranked deltas, cause attribution, check wiring."""

import copy
import json

import pytest

from repro.bench import check as check_mod
from repro.bench.runner import SweepPoint, SweepRunner
from repro.obs import capture
from repro.obs.diff import (diff_files, diff_runs, load_run,
                            metric_delta_attribution, normalize_run,
                            render_check_attribution, render_diff)
from repro.obs.export import attribute_op


def _critpath_doc(ops):
    """Minimal critpath document: [(name, wall_s, totals_s)]."""
    return {"artifact": "fig07",
            "ops": [{"name": name, "wall_s": wall_s, "totals": dict(totals)}
                    for name, wall_s, totals in ops]}


BASE_OPS = [
    ("collective:allreduce", 100e-6,
     {"wire": 60e-6, "wait:credit_stall": 10e-6, "uc": 30e-6}),
    ("collective:bcast", 50e-6, {"wire": 50e-6}),
]
BASE = _critpath_doc(BASE_OPS)


class TestNormalize:
    def test_trajectory_doc_keys_points_by_kernel_and_params(self):
        run = normalize_run({"artifacts": {
            "fig12": {"points": [
                {"kernel": "accl_collective", "value": 2e-6, "sim_s": 5e-6,
                 "params": {"size": 8192, "opcode": "reduce"}},
                # structured values time the point by its simulated seconds
                {"kernel": "vecmat", "value": {"speedup": 1.5}, "sim_s": 3e-6,
                 "params": {"ranks": 2}},
                {"kernel": "accl_collective", "value": None, "sim_s": 0.0,
                 "params": {"size": 4096, "opcode": "reduce"},
                 "skipped": True},
            ]},
            "tab01": {"points": [{"kernel": "tab01", "value": [],
                                  "sim_s": 0.0, "params": {}}]},
        }})
        assert run["kind"] == "trajectory"
        assert {key: ent["wall_us"] for key, ent in run["entries"].items()} \
            == pytest.approx({
                "fig12/accl_collective/opcode=reduce,size=8192": 2.0,
                "fig12/vecmat/ranks=2": 3.0,
                "tab01/tab01": 0.0})

    def test_trajectory_point_without_value_rejected(self):
        with pytest.raises(ValueError, match="no recorded value"):
            normalize_run({"artifacts": {"fig08": {"points": [
                {"kernel": "fig08_kernel_nop", "params": {"repeats": 5},
                 "sim_s": 1e-6}]}}}, label="old.json")

    def test_trace_doc_keys_by_name_occurrence(self):
        run = normalize_run({
            "artifact": "fig08",
            "ops": [
                {"name": "collective:nop", "wall_s": 1e-6,
                 "totals": {"uc": 1e-6}},
                {"name": "collective:nop", "wall_s": 2e-6,
                 "phases": {"uc": 1e-6, "other": 1e-6},
                 "totals": {"uc": 2e-6}},
            ],
        })
        assert run["kind"] == "trace"
        assert set(run["entries"]) == \
            {"fig08/collective:nop#0", "fig08/collective:nop#1"}
        # the critical-path totals are the buckets, never the phases
        assert run["entries"]["fig08/collective:nop#1"]["crit_us"] == \
            pytest.approx({"uc": 2.0})

    def test_trace_op_without_totals_rejected(self, tmp_path, capsys):
        """A trace JSON written when ops carried only ``phases`` would diff
        phase buckets against critical-path ones: exit 2, naming the file."""
        from repro.bench.__main__ import main

        old = tmp_path / "old_trace.json"
        old.write_text(json.dumps({"artifact": "fig08", "ops": [
            {"name": "collective:nop", "wall_s": 1e-6,
             "phases": {"uc": 1e-6}}]}))
        with pytest.raises(ValueError, match="no critical-path totals"):
            load_run(str(old))
        new = tmp_path / "new_trace.json"
        new.write_text(json.dumps(_critpath_doc(BASE_OPS)))
        assert main(["diff", str(new), str(old)]) == 2
        err = capsys.readouterr().err
        assert str(old) in err and "collective:nop#0" in err

    def test_unrecognized_doc_rejected(self):
        with pytest.raises(ValueError):
            normalize_run({"rows": []}, label="x.json")


class TestDiffRuns:
    def test_identical_runs_have_zero_deltas(self):
        rows = diff_runs(normalize_run(BASE), normalize_run(BASE))
        assert rows == []

    def test_perturbed_entry_ranks_first_with_correct_cause(self):
        cur = _critpath_doc([
            # +40us, +38 of it credit_stall: the regression
            ("collective:allreduce", 140e-6,
             {"wire": 62e-6, "wait:credit_stall": 48e-6, "uc": 30e-6}),
            # small improvement elsewhere
            ("collective:bcast", 48e-6, {"wire": 48e-6}),
        ])
        rows = diff_runs(normalize_run(BASE), normalize_run(cur))
        assert [r["key"] for r in rows] == \
            ["fig07/collective:allreduce#0", "fig07/collective:bcast#0"]
        top = rows[0]
        assert top["delta_us"] == pytest.approx(40.0)
        assert top["rel"] == pytest.approx(0.40)
        # the majority of the delta is attributed to the perturbed cause
        assert top["causes"][0]["bucket"] == "wait:credit_stall"
        assert top["causes"][0]["delta_us"] > abs(
            sum(c["delta_us"] for c in top["causes"][1:]))
        assert rows[1]["delta_us"] == pytest.approx(-2.0)

    def test_regressions_rank_before_equal_improvements(self):
        cur = _critpath_doc([
            ("collective:allreduce", 110e-6, {"wire": 70e-6}),
            ("collective:bcast", 40e-6, {"wire": 40e-6}),
        ])
        rows = diff_runs(normalize_run(BASE), normalize_run(cur))
        # +10 beats -10
        assert rows[0]["key"] == "fig07/collective:allreduce#0"

        # Equal up to float noise: fig10's 1 KiB allreduce with ACCL+ 1 us
        # faster (-1.0 us) and MPI 1 us slower (+0.9999999999999929 us).
        def fig10(accl_s, mpi_s):
            return normalize_run({"artifacts": {"fig10": {"points": [
                {"kernel": "accl", "params": {}, "value": accl_s,
                 "sim_s": 0.0},
                {"kernel": "mpi", "params": {}, "value": mpi_s,
                 "sim_s": 0.0}]}}})

        accl_s, mpi_s = 1.991616e-05, 3.297453401709402e-05
        rows = diff_runs(fig10(accl_s, mpi_s),
                         fig10(accl_s - 1e-6, mpi_s + 1e-6))
        assert [row["delta_us"] for row in rows] == \
            [0.9999999999999929, -1.0]
        assert rows[0]["key"] == "fig10/mpi"

    def test_added_and_removed_entries_are_noted(self):
        cur = _critpath_doc([BASE_OPS[0],
                             ("collective:reduce", 70e-6, {"wire": 70e-6})])
        rows = diff_runs(normalize_run(BASE), normalize_run(cur))
        notes = {r["key"]: r["note"] for r in rows}
        assert notes == {"fig07/collective:reduce#0": "only in b",
                         "fig07/collective:bcast#0": "only in a"}


class TestDiffFilesAndRendering:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_diff_files_and_render(self, tmp_path):
        a = self._write(tmp_path, "a.json", BASE)
        b = self._write(tmp_path, "b.json", _critpath_doc([
            ("collective:allreduce", 130e-6,
             {"wire": 60e-6, "wait:credit_stall": 40e-6, "uc": 30e-6}),
            ("collective:bcast", 50e-6, {"wire": 50e-6}),
        ]))
        doc = diff_files(a, b)
        assert doc["kind"] == "trace"
        assert not doc["identical"]
        text = render_diff(doc)
        assert "ranked by regression magnitude" in text
        assert "wait:credit_stall" in text

    def test_identical_files_render_as_identical(self, tmp_path):
        a = self._write(tmp_path, "a.json", BASE)
        doc = diff_files(a, a)
        assert doc["identical"]
        assert "identical: no deltas" in render_diff(doc)

    def test_load_run_accepts_trace_docs(self, tmp_path):
        path = self._write(tmp_path, "t.json", {
            "artifact": "fig08",
            "ops": [{"name": "collective:nop", "wall_s": 1e-6,
                     "totals": {"uc": 1e-6}}],
        })
        assert load_run(path)["kind"] == "trace"

    def test_trajectory_and_trace_do_not_diff(self, tmp_path):
        a = self._write(tmp_path, "a.json", BASE)
        b = self._write(tmp_path, "b.json", {"artifacts": {}})
        with pytest.raises(ValueError, match="keys never match"):
            diff_files(a, b)


class TestTrajectoryDiff:
    def test_engines_at_one_size_are_separate_rows(self, tmp_path):
        """fig10 at 1 KiB: ACCL+ 1 us faster and MPI 1 us slower.  Pooled
        by (artifact, collective, size, ranks) the mean would not move;
        point by point both rows show."""
        runner = SweepRunner()
        runner.run([
            SweepPoint.make("fig10", "accl_best_protocol", opcode="allreduce",
                            size=1024, n_nodes=8, location="device",
                            via_driver=False),
            SweepPoint.make("fig10", "mpi_f2f_collective", opcode="allreduce",
                            size=1024, n_ranks=8),
        ])
        base = runner.trajectory()
        cur = copy.deepcopy(base)
        accl, mpi = cur["artifacts"]["fig10"]["points"]
        accl["value"] -= 1e-6
        mpi["value"] += 1e-6
        paths = []
        for name, doc in (("a.json", base), ("b.json", cur)):
            paths.append(str(tmp_path / name))
            with open(paths[-1], "w") as fh:
                json.dump(doc, fh)

        doc = diff_files(*paths)
        assert doc["kind"] == "trajectory"
        assert {row["key"]: row["delta_us"] for row in doc["rows"]} == \
            pytest.approx({
                "fig10/mpi_f2f_collective/n_ranks=8,opcode=allreduce,"
                "size=1024": 1.0,
                "fig10/accl_best_protocol/location=device,n_nodes=8,"
                "opcode=allreduce,size=1024,via_driver=False": -1.0})
        assert "identical: no deltas" in render_diff(
            diff_files(paths[0], paths[0]))


def _critpath_run(**kwargs):
    """A traced figX_scale replay shaped as ``bench critpath --json``."""
    cap = capture.trace_artifact("figX_scale", **kwargs)
    return normalize_run({"artifact": cap.artifact,
                          "ops": [attribute_op(cap.tracer, op)
                                  for op in cap.op_ids]})


class TestEndToEndSlowLink:
    """Acceptance: a perturbed figX_scale run diffs against baseline with
    the perturbed op first and the delta blamed on the wire/link path."""

    def test_slow_link_is_ranked_and_attributed(self):
        kwargs = dict(n_nodes=8, size=256 * 1024)
        base = _critpath_run(**kwargs)
        rows = diff_runs(base, _critpath_run(
            slow_link="fpga3.down", slow_factor=8.0, **kwargs))
        assert rows, "slow link must produce deltas"
        top = rows[0]
        assert top["delta_us"] > 0
        # majority of the regression lands on the serialization path
        majority = sum(c["delta_us"] for c in top["causes"]
                       if c["bucket"] in ("wire", "wait:link_busy"))
        regress = sum(c["delta_us"] for c in top["causes"]
                      if c["delta_us"] > 0)
        assert majority > 0.5 * regress
        # identical reruns stay silent
        assert diff_runs(base, _critpath_run(**kwargs)) == []

    def test_critpath_and_trace_json_write_the_same_ops(self, tmp_path,
                                                         capsys):
        """``bench critpath --json`` and ``bench trace --json`` save the
        same per-op reports, so ``bench diff`` reads either, and the
        slowed run's top delta is the op that crossed the slow link."""
        from repro.bench.__main__ import main

        args = ["figX_scale", "--arg", "n_nodes=8", "--arg", "size=262144"]
        slow = ["--arg", "slow_link=fpga3.down", "--arg", "slow_factor=8.0"]
        base, cur, traced = (
            str(tmp_path / name) for name in
            ("base.json", "slow.json", "slow_trace.json"))
        assert main(["critpath", *args, "--json", base]) == 0
        assert main(["critpath", *args, *slow, "--json", cur]) == 0
        assert main(["trace", *args, *slow, "--json", traced]) == 0
        capsys.readouterr()
        with open(cur) as fa, open(traced) as fb:
            assert json.load(fa)["ops"] == json.load(fb)["ops"]
        rows = diff_files(base, cur)["rows"]
        assert rows[0]["key"] == "figX_scale/collective:bcast#3"
        assert diff_files(base, traced)["rows"] == rows


class TestCheckAttribution:
    def test_metric_delta_attribution_sorts_by_magnitude(self):
        base = {"wall_us": 100.0, "wait_us.credit_stall": 10.0,
                "phase_us.wire": 60.0, "spans": 4.0}
        cur = {"wall_us": 130.0, "wait_us.credit_stall": 38.0,
               "phase_us.wire": 62.0, "spans": 4.0}
        causes = metric_delta_attribution(base, cur)
        assert causes[0]["bucket"] == "wait_us.credit_stall"
        assert causes[0]["share"] == pytest.approx(0.28)
        assert {c["bucket"] for c in causes} == \
            {"wait_us.credit_stall", "phase_us.wire"}

    def test_render_names_scenario_and_top_cause(self):
        line = render_check_attribution(
            "fig07", {"wall_us": 100.0, "wait_us.rx_match": 5.0},
            {"wall_us": 112.0, "wait_us.rx_match": 16.0})
        assert "fig07" in line
        assert "+12.0%" in line
        assert "wait_us.rx_match" in line

    def test_no_moved_metric_is_called_out(self):
        line = render_check_attribution(
            "fig08", {"wall_us": 100.0}, {"wall_us": 100.0})
        assert "no wait/phase metric moved" in line


class TestCheckJsonReport:
    def test_report_doc_shape(self):
        rows = [
            {"scenario": "fig08", "metric": "wall_us", "base": 5.8,
             "cur": 5.8, "rel": 0.0, "tol": 0.02, "ok": True, "note": ""},
            {"scenario": "fig08", "metric": "spans", "base": 6.0,
             "cur": 9.0, "rel": 0.5, "tol": 0.02, "ok": False, "note": ""},
        ]
        doc = check_mod.report_doc(rows, "packet", "benchmarks/x.json")
        assert doc["ok"] is False
        assert doc["violations"] == 1
        verdicts = {m["metric"]: m["verdict"] for m in doc["metrics"]}
        assert verdicts == {"wall_us": "ok", "spans": "fail"}
        assert doc["metrics"][0]["observed"] == 5.8
        assert doc["metrics"][0]["tolerance"] == 0.02

    def test_check_cli_writes_json_report(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out = str(tmp_path / "report.json")
        rc = main(["check", "fig08", "--json", out])
        assert rc == 0
        capsys.readouterr()
        doc = json.load(open(out))
        assert doc["schema"] == 1
        assert doc["ok"] is True
        assert all(m["verdict"] == "ok" for m in doc["metrics"])
