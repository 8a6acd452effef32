import csv
import json
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest

import coexsim
from coexsim.cli import (EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION,
                         compare_command, compare_report, main, render_run_json, run_command)
from coexsim.engine import Engine, run
from coexsim.medium import POSITION_LIMIT_M
from coexsim.scenario import emit_scenario, load_scenario
from conftest import scenario_path
from oracles import line_by_line_hash


def run_emulation(tmp_path, name, fmt="json", duration=3_000_000, seed=1, trace=None):
    out = tmp_path / name
    code = run_command(scenario_path("emulation"), seed=seed, duration_us=duration,
                       out=str(out), fmt=fmt,
                       trace_path=str(tmp_path / trace) if trace else None)
    assert code == EXIT_OK
    return out


def write_cut(tmp_path, name):
    """A 100 ms cut of a shipped scenario, 20 ms of it warm-up, and its path."""
    cfg = replace(load_scenario(scenario_path(name)), duration_us=100_000, warmup_us=20_000)
    path = tmp_path / f"{name}-cut.yaml"
    path.write_text(emit_scenario(cfg))
    return cfg, str(path)


class TestRunCommand:
    def test_json_report_shape(self, tmp_path):
        out = run_emulation(tmp_path, "r.json")
        report = json.loads(out.read_text())
        assert report["seed"] == 1
        assert "node2->ap" in report["links"]
        link = report["links"]["node2->ap"]
        for key in ("offered_bytes", "delivered_bytes", "corrupted_frames",
                    "retransmissions", "dropped_frames", "airtime_us",
                    "max_delay_us", "throughput_bytes_per_s"):
            assert key in link
        assert "fairness_index" in report
        assert "trace_hash" in report

    def test_reports_byte_identical_across_reruns(self, tmp_path):
        a = run_emulation(tmp_path, "a.json")
        b = run_emulation(tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_csv_and_json_agree(self, tmp_path):
        j = json.loads(run_emulation(tmp_path, "r.json").read_text())
        c = run_emulation(tmp_path, "r.csv", fmt="csv")
        rows = list(csv.DictReader(c.read_text().splitlines()))
        link_rows = {r["link"]: r for r in rows if r["link"] != "TOTAL"}
        assert set(link_rows) == set(j["links"])
        for lid, row in link_rows.items():
            jl = j["links"][lid]
            assert int(row["offered_bytes"]) == jl["offered_bytes"]
            assert int(row["delivered_bytes"]) == jl["delivered_bytes"]
            assert float(row["airtime_share"]) == pytest.approx(jl["airtime_share"])
            assert float(row["throughput_bytes_per_s"]) == pytest.approx(
                jl["throughput_bytes_per_s"])
        total = next(r for r in rows if r["link"] == "TOTAL")
        assert float(total["fairness_index"]) == pytest.approx(j["fairness_index"])
        assert total["trace_hash"] == j["trace_hash"]

    def test_trace_file_written(self, tmp_path):
        out = run_emulation(tmp_path, "r.json", trace="trace.log")
        data = (tmp_path / "trace.log").read_bytes()
        lines = data.decode().splitlines()
        assert lines
        assert all("|" in l for l in lines)
        assert data.endswith(b"\n")
        # one line per popped event, which the hash does not cover, and the
        # behaviour notes, which it covers
        events = [l for l in lines if l.split("|")[1].isdigit()]
        assert events and len(events) < len(lines)
        assert line_by_line_hash(lines) == json.loads(out.read_text())["trace_hash"]

    def test_missing_scenario_leaves_no_partial_output(self, tmp_path):
        out = tmp_path / "never.json"
        code = run_command(str(tmp_path / "ghost.yaml"), out=str(out))
        assert code == EXIT_VALIDATION
        assert not out.exists()

    def test_invalid_scenario_exits_validation(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("nodes:\n  - {id: a, kind: wifi, position: [0.0, 0.0], bogus: 1}\n")
        assert run_command(str(bad)) == EXIT_VALIDATION


class TestCompareCommand:
    def test_arbiter_toggle_report(self, tmp_path):
        out = tmp_path / "cmp.json"
        code = compare_command(scenario_path("colocated"), "arbiter", [1, 2],
                               out=str(out))
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["toggle"] == "arbiter"
        conflict = report["metrics"]["colocated_conflict_us"]
        assert conflict["on_mean"] == 0.0
        assert conflict["off_mean"] > 0.0
        for row in report["per_seed"]:
            assert row["on"]["colocated_conflict_us"] == 0
            assert row["off"]["colocated_conflict_us"] > 0

    def test_off_arm_equals_a_run_with_the_mechanism_disabled(self, tmp_path):
        from coexsim.cli import extract_metrics
        from coexsim.engine import run
        from coexsim.scenario import load_scenario, toggled
        cfg = load_scenario(scenario_path("colocated"))
        out = tmp_path / "cmp.json"
        assert compare_command(scenario_path("colocated"), "arbiter", [3],
                               out=str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        direct = extract_metrics(run(toggled(cfg, "arbiter", False), seed=3), cfg)
        assert report["per_seed"][0]["off"] == direct

    def test_quiet_scenario_toggle_changes_nothing_but_overhead(self, tmp_path):
        # without interferers the reservation scheme must cost nothing:
        # no CTS airtime and a throughput delta lost in the noise
        from dataclasses import replace
        from coexsim.scenario import emit_scenario, load_scenario
        cfg = load_scenario(scenario_path("conference_room"))
        quiet = replace(cfg, duration_us=10_000_000,
                        nodes=tuple(n for n in cfg.nodes
                                    if n.id in ("bs", "ss1", "ss1_wifi")))
        path = tmp_path / "quiet.yaml"
        path.write_text(emit_scenario(quiet))
        out = tmp_path / "cmp.json"
        assert compare_command(str(path), "reservation", [1], out=str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["metrics"]["cts_airtime_us"]["on_mean"] == 0.0
        delivered = report["metrics"]["wimax_delivered_bytes"]
        assert abs(delivered["delta"]) <= 0.02 * delivered["off_mean"]

    def test_compare_csv(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = compare_command(scenario_path("colocated"), "arbiter", [1],
                               out=str(out), fmt="csv")
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        metrics = {r["metric"] for r in rows}
        assert "colocated_conflict_us" in metrics
        assert "wimax_corrupted_frames" in metrics


class TestMain:
    @pytest.mark.parametrize("name", ["colocated", "conference_room"])
    def test_reports_byte_identical_across_hash_seeds(self, name):
        # one process cannot show that no output follows the order of a
        # str-keyed set; interpreters with different hash seeds can.  Two
        # seeds put two keys in the same order half the time, hence three
        src = str(pathlib.Path(coexsim.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        reports = [subprocess.run([sys.executable, "-m", "coexsim.cli", "run", scenario_path(name),
                                   "--duration-us", "2000000"],
                                  env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                                  capture_output=True, check=True, timeout=60).stdout
                   for seed in ("0", "1", "2")]
        assert json.loads(reports[0])["duration_us"] == 2_000_000
        assert reports[0] == reports[1] == reports[2]

    def test_run_without_out_prints_the_report(self, tmp_path, capsys):
        cfg, path = write_cut(tmp_path, "conference_room")
        assert main(["run", path]) == EXIT_OK
        assert capsys.readouterr().out == render_run_json(run(cfg))

    def test_compare_via_main(self, tmp_path, capsys):
        cfg, path = write_cut(tmp_path, "colocated")
        assert main(["compare", path, "--toggle", "arbiter", "--seeds", "1,2"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == compare_report(cfg, "arbiter", [1, 2])

    @pytest.mark.parametrize("seeds, message", [
        (",", "error: empty seed list"),
        ("x", "error: argument --seeds: bad seed list: 'x'"),
    ], ids=["empty", "not_a_number"])
    def test_bad_seed_list_is_a_usage_error(self, capsys, seeds, message):
        assert main(["compare", scenario_path("colocated"), "--toggle", "arbiter",
                     "--seeds", seeds]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == message

    def test_trace_needs_collect_trace(self, emulation_cfg):
        with pytest.raises(RuntimeError, match="collect_trace=True"):
            Engine(emulation_cfg).trace

    def test_dangling_peer_is_a_validation_error(self, tmp_path, capsys):
        # accepted by earlier versions: the idle ap's peer became a link
        # ap->ghost and a system of its own
        bad = tmp_path / "bad.yaml"
        bad.write_text("duration_us: 100000\nwarmup_us: 0\nnodes:\n"
                       "  - {id: sta, kind: wifi, position: [0.0, 0.0], peer: ap,"
                       " traffic: {kind: saturated}}\n"
                       "  - {id: ap, kind: wifi, position: [3.0, 0.0], peer: ghost}\n")
        assert main(["run", str(bad), "--out", os.devnull]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "error: nodes[1].peer: 'ghost' is not a wifi node"]

    def test_usage_error_exit_code(self, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["run"]) == EXIT_USAGE
        assert main(["compare", "x.yaml"]) == EXIT_USAGE

    def test_run_via_main(self, tmp_path):
        out = tmp_path / "m.json"
        code = main(["run", scenario_path("emulation"), "--duration-us", "2500000",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_bad_format_rejected(self):
        assert main(["run", "x.yaml", "--format", "xml"]) == EXIT_USAGE

    def test_duration_override_inside_the_warmup_is_a_validation_error(self, capsys):
        assert main(["run", scenario_path("colocated"), "--duration-us", "1000000"]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "error: --duration-us: warm-up must be shorter than the run"]

    @pytest.mark.parametrize("duration", ["0", "-5"])
    def test_duration_override_below_one_microsecond_is_a_validation_error(self, capsys,
                                                                           duration):
        """The override meets the field's own bound before the warm-up rule."""
        assert main(["run", scenario_path("colocated"), "--duration-us", duration]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "error: --duration-us: duration_us: must be >= 1"]

    def test_warmup_at_the_run_end_is_a_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("duration_us: 1000\nwarmup_us: 1000\n")
        assert main(["run", str(bad)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: (top).warmup_us: warm-up must be shorter than the run\n")

    def test_scenario_that_is_not_utf8_cannot_be_read(self, tmp_path, capsys):
        # earlier versions let UnicodeDecodeError out: a traceback and exit 1
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(b"duration_us: 1000\nnodes: [\xff]\n")
        assert main(["run", str(bad)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read scenario: ") and len(err.splitlines()) == 1

    def test_subframe_geometry_is_a_validation_error(self, tmp_path, capsys):
        # accepted by earlier versions, then crashed in the first frame map
        bad = tmp_path / "bad.yaml"
        bad.write_text("wimax: {frame_us: 100, ttg_us: 100}\n"
                       "nodes:\n  - {id: bs, kind: wimax-bs, position: [0.0, 0.0]}\n")
        assert main(["run", str(bad)]) == EXIT_VALIDATION
        assert "error: wimax." in capsys.readouterr().err

    @pytest.mark.parametrize("setting, field", [
        ("capacity_bytes_per_us: 1.0e+307", "wimax.capacity_bytes_per_us"),
        ("frame_us: 1" + "0" * 400, "wimax.frame_us"),
    ], ids=["capacity", "frame"])
    def test_overflowing_top_up_is_a_validation_error(self, tmp_path, capsys, setting, field):
        # accepted by earlier versions, then the frame's top-up bytes overflowed
        # in Engine.__init__ and the run exited 3
        bad = tmp_path / "bad.yaml"
        with open(scenario_path("colocated"), encoding="utf-8") as fh:
            bad.write_text(fh.read() + f"wimax: {{{setting}}}\n")
        assert main(["run", str(bad), "--duration-us", "1100000"]) == EXIT_VALIDATION
        assert f"error: {field}: must be <= " in capsys.readouterr().err

    def test_unbounded_injected_train_is_a_validation_error(self, tmp_path, capsys):
        # accepted by earlier versions, then the run set out to build all of
        # its ~6.1 M chunks before the first went on air
        bad = tmp_path / "bad.yaml"
        bad.write_text("duration_us: 250000\nwarmup_us: 50000\nnodes:\n"
                       "  - {id: a, kind: wifi, position: [0.0, 0.0], traffic:"
                       " {kind: cts-inject, reservation_us: 200000000000}}\n"
                       "  - {id: b, kind: wifi, position: [5.0, 0.0]}\n")
        assert main(["run", str(bad)]) == EXIT_VALIDATION
        assert "error: nodes[0].traffic.reservation_us: must be <= " in capsys.readouterr().err

    def test_incomplete_spillage_entry_is_a_validation_error(self, tmp_path, capsys):
        # earlier versions read a missing separation_mhz as 1.0 MHz
        bad = tmp_path / "bad.yaml"
        bad.write_text("medium: {spillage: [{rejection_db: 30.0}]}\n")
        assert main(["run", str(bad)]) == EXIT_VALIDATION
        assert "medium.spillage[0].separation_mhz: required" in capsys.readouterr().err

    def test_coincident_radios_are_a_validation_error(self, tmp_path, capsys):
        # accepted by earlier versions, then path loss failed at distance 0
        bad = tmp_path / "bad.yaml"
        bad.write_text("nodes:\n"
                       "  - {id: a, kind: wifi, position: [0.0, 0.0], peer: b,"
                       " traffic: {kind: saturated}}\n"
                       "  - {id: b, kind: wifi, position: [0.0, 0.0]}\n")
        assert main(["run", str(bad)]) == EXIT_VALIDATION
        assert "nodes[1].position" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
    @pytest.mark.parametrize("value, code", [
        (POSITION_LIMIT_M, EXIT_OK), (-POSITION_LIMIT_M, EXIT_OK),
        (math.nextafter(POSITION_LIMIT_M, math.inf), EXIT_VALIDATION),
        (-math.nextafter(POSITION_LIMIT_M, math.inf), EXIT_VALIDATION),
    ], ids=["at", "at-neg", "past", "past-neg"])
    def test_positions_past_the_bound_are_a_validation_error(self, tmp_path, capsys, axis,
                                                             value, code):
        # accepted by earlier versions: an access point at [1.0e+160, 0.0]
        # overflowed a squared distance, and the run exited 3
        position = [3.0, 3.0]
        position[axis] = value
        scene = tmp_path / "far.yaml"
        scene.write_text("duration_us: 20000\nwarmup_us: 0\nnodes:\n"
                         "  - {id: sta, kind: wifi, position: [0.0, 0.0], peer: ap,"
                         " traffic: {kind: saturated}}\n"
                         f"  - {{id: ap, kind: wifi, position: [{position[0]!r},"
                         f" {position[1]!r}]}}\n")
        assert main(["run", str(scene), "--out", os.devnull]) == code
        lines = capsys.readouterr().err.splitlines()
        if code == EXIT_OK:
            assert lines == []
        else:
            assert lines and all(line.startswith("error: nodes[1].position: ") for line in lines)

    @pytest.mark.parametrize("node_id", ["sta|1", "ss->1", "a>", "None"])
    def test_separator_in_a_node_id_is_a_validation_error(self, tmp_path, capsys, node_id):
        # accepted by earlier versions: link ids split on "->" and notes on "|"
        # then misread the node, e.g. compare missed an "ss->1" uplink
        bad = tmp_path / "bad.yaml"
        bad.write_text("nodes:\n"
                       "  - {id: a, kind: wifi, position: [0.0, 0.0]}\n"
                       f"  - {{id: '{node_id}', kind: wifi, position: [5.0, 0.0]}}\n")
        assert main(["run", str(bad)]) == EXIT_VALIDATION
        assert f"error: nodes[1].id: node id {node_id!r} contains" in capsys.readouterr().err

    def test_engine_failure_is_a_one_line_runtime_error(self, tmp_path, monkeypatch, capsys):
        def fail(self):
            raise RuntimeError("engine gave up\nat some depth")

        monkeypatch.setattr(Engine, "run", fail)
        out = tmp_path / "r.json"
        assert main(["run", scenario_path("emulation"), "--out", str(out)]) == EXIT_RUNTIME
        assert not out.exists()
        assert compare_command(scenario_path("colocated"), "arbiter", [1]) == EXIT_RUNTIME
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: RuntimeError: engine gave up at some depth"] * 2
