"""Command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parent.parent


def _trace_kinds(path: Path) -> set:
    return {json.loads(line).get("kind") for line in path.read_text().splitlines()}


class TestEmbed:
    def test_embed_happy_path(self, capsys):
        rc = main(["embed", "--family", "random", "--height", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dilation" in out and "load=16" in out

    def test_embed_show_placement(self, capsys):
        rc = main(["embed", "--family", "path", "--height", "1", "--show-placement"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "-> (0, 0)" in out and "eps" in out

    def test_embed_validate_flag(self, capsys):
        assert main(["embed", "--height", "2", "--validate"]) == 0


class TestVerify:
    def test_verify_all_pass(self, capsys):
        rc = main(["verify", "--height", "2", "--family", "remy", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MISS" not in out
        assert "Theorem 1" in out and "Theorem 4" in out


class TestSimulate:
    def test_simulate_single_program(self, capsys):
        rc = main(["simulate", "--height", "2", "--program", "reduction"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reduction" in out and "slowdown" in out

    def test_simulate_link_capacity(self, capsys):
        rc = main(
            ["simulate", "--height", "1", "--program", "neighbor_exchange", "--link-capacity", "4"]
        )
        assert rc == 0

    def test_simulate_traced_matches_untraced(self, capsys, tmp_path):
        # the untraced run takes the vector kernel, the traced one the
        # reference loop: both must print the same cycle table
        args = ["simulate", "--height", "2", "--program", "reduction"]
        tables = []
        for extra in ([], ["--trace", str(tmp_path / "t.jsonl")]):
            assert main(args + extra) == 0
            lines = capsys.readouterr().out.splitlines()[1:]
            tables.append([l for l in lines if not l.startswith("wrote trace")])
        assert tables[0] == tables[1]

    def test_mid_delivery_fault_completes_and_is_traced(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["simulate", "--height", "3", "--router", "adaptive",
                     "--faults", str(REPO / "examples" / "faults_single_link.json"),
                     "--trace", str(trace)]) == 0
        assert "fault" in _trace_kinds(trace)


class TestByzantine:
    def test_integrity_exit_codes_and_trace(self, tmp_path, capsys):
        # recoverable corruption exits 0; the storm exits 1 naming the reason
        assert main(["runtime", str(REPO / "scenarios" / "byzantine.json")]) == 0
        capsys.readouterr()
        storm = REPO / "scenarios" / "byzantine_storm.json"
        assert main(["runtime", str(storm), "--json"]) == 1
        assert '"integrity"' in capsys.readouterr().out
        trace = tmp_path / "t.jsonl"
        assert main(["simulate", "--height", "3", "--router", "adaptive",
                     "--faults", str(REPO / "examples" / "faults_byzantine.json"),
                     "--trace", str(trace)]) == 0
        assert {"corrupt", "retransmit"} <= _trace_kinds(trace)


class TestSeparator:
    def test_paper_matches_default_and_flow_runs(self, capsys):
        tables = []
        for extra in ([], ["--separator", "paper"]):
            assert main(["embed", "--height", "3", *extra]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]
        assert main(["embed", "--height", "3", "--separator", "flow"]) == 0
        assert main(["simulate", "--height", "3", "--program", "reduction",
                     "--separator", "flow"]) == 0


class TestTune:
    def test_seeded_runs_write_identical_log_and_doc(self, tmp_path, capsys):
        written = []
        for run in "ab":
            doc, log = tmp_path / f"doc_{run}.json", tmp_path / f"log_{run}.json"
            assert main(["tune", "route-hotspot",
                         "--scenario", str(REPO / "scenarios" / "hot_spot_terminal.json"),
                         "--method", "random", "--budget", "2", "--seed", "0",
                         "--out", str(doc), "--log", str(log)]) == 0
            written.append((doc.read_bytes(), log.read_bytes()))
        assert written[0] == written[1]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_service_run_is_gone(self):
        # `runtime` runs a scenario document in-process
        with pytest.raises(SystemExit) as exc:
            main(["service", "run", str(REPO / "scenarios" / "hot_spot.json")])
        assert exc.value.code == 2

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["embed", "--family", "nope"])


class TestRuntimeExitCodes:
    """PR-7 satellite: `runtime` exits exactly like `simulate` — 0 only
    when every job finished with every message delivered, 1 for degraded
    or incomplete runs and for RepairError."""

    def config(self, tmp_path, jobs, **extra):
        import json

        doc = {"host": {"name": "xtree", "args": [4]}, "jobs": jobs}
        doc.update(extra)
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def faults(self, tmp_path, events):
        import json

        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"events": events}))
        return str(path)

    def test_complete_run_exits_0(self, tmp_path, capsys):
        cfg = self.config(tmp_path, [
            {"name": "a", "program": "reduction", "tree_n": 15,
             "capacity": 4, "height": 4},
        ])
        assert main(["runtime", cfg]) == 0
        assert "done" in capsys.readouterr().out

    def test_budget_exhausted_exits_1_and_names_job(self, tmp_path, capsys):
        cfg = self.config(tmp_path, [
            {"name": "starved", "program": "prefix_sum", "tree_n": 15,
             "capacity": 4, "height": 4, "cycle_budget": 3},
        ])
        assert main(["runtime", cfg]) == 1
        err = capsys.readouterr().err
        assert "incomplete job 'starved'" in err
        assert "budget_exhausted" in err

    def test_repair_error_exits_1(self, tmp_path, capsys):
        cfg = self.config(tmp_path, [
            {"name": "a", "program": "prefix_sum", "tree_n": 12,
             "capacity": 4, "height": 4},
        ], max_load=5)
        flt = self.faults(tmp_path, [
            {"cycle": 1 + 3 * i, "action": "fail_node", "u": [4, i]}
            for i in range(8)
        ])
        assert main(["runtime", cfg, "--faults", flt]) == 1
        assert "online repair failed" in capsys.readouterr().err

    def test_degraded_faulted_run_exits_1_with_report(self, tmp_path, capsys):
        # dead links (no repair for link faults) terminally drop messages
        import json

        cfg = tmp_path / "jobs.json"
        cfg.write_text(json.dumps({
            "host": {"name": "xtree", "args": [3]},
            "jobs": [{"name": "a", "program": "neighbor_exchange",
                      "tree_n": 15, "capacity": 4, "height": 3}],
        }))
        cfg = str(cfg)
        flt = self.faults(tmp_path, [
            {"cycle": 2, "action": "fail_link", "u": [2, 0], "v": [3, 0]},
            {"cycle": 2, "action": "fail_link", "u": [3, 0], "v": [3, 1]},
        ])
        assert main(["runtime", cfg, "--faults", flt]) == 1
        err = capsys.readouterr().err
        assert "incomplete job 'a'" in err and "failed messages" in err

    def test_checkpoint_resume_keeps_exit_code(self, tmp_path, capsys):
        cfg = self.config(tmp_path, [
            {"name": "a", "program": "reduction", "tree_n": 15,
             "capacity": 4, "height": 4},
        ])
        ckpt = tmp_path / "c.json"
        assert main(["runtime", cfg, "--checkpoint", str(ckpt)]) == 0
        # resume from the finished checkpoint: still complete, still 0
        assert main(["runtime", cfg, "--checkpoint", str(ckpt)]) == 0
        assert "resumed from" in capsys.readouterr().out

    def test_unknown_config_key_exits_1_and_names_it(self, tmp_path, capsys):
        cfg = self.config(tmp_path, [
            {"name": "a", "program": "reduction", "tree_n": 15,
             "capacity": 4, "height": 4},
        ], max_laod=4, polcy="fair")
        assert main(["runtime", cfg]) == 1
        err = capsys.readouterr().err
        assert "max_laod" in err and "polcy" in err

    def test_scenario_faults_are_played(self, capsys):
        # the config is a scenario document: its faults run, as on a
        # service worker, and cut messages off
        assert main(["runtime", str(REPO / "scenarios" / "partition.json")]) == 1
        assert "failed messages" in capsys.readouterr().err

    def test_checkpoint_every_0_exits_1(self, tmp_path, capsys):
        args = ["runtime", str(REPO / "examples" / "runtime_jobs.json"),
                "--checkpoint-every", "0"]
        assert main(args) == 1
        assert "checkpoint_every must be >= 1" in capsys.readouterr().err

    def test_checkpoint_every_0_on_resume_exits_1(self, tmp_path, capsys):
        # a checkpoint with supersteps left resumes without the scenario's
        # validation; drive_runtime rejects the interval before any step
        from repro.service import Scenario
        from repro.service.scenario import SCENARIO_VERSION

        cfg = REPO / "examples" / "runtime_jobs.json"
        doc = {"version": SCENARIO_VERSION, "name": "jobs"} | json.loads(cfg.read_text())
        rt = Scenario.from_obj(doc).build_runtime()
        rt.step()
        ckpt = tmp_path / "c.json"
        rt.checkpoint_json(ckpt)
        before = ckpt.read_bytes()
        args = ["runtime", str(cfg), "--checkpoint", str(ckpt), "--checkpoint-every", "0"]
        assert main(args) == 1
        assert "checkpoint_every must be >= 1" in capsys.readouterr().err
        assert ckpt.read_bytes() == before

    def test_unbuildable_scenario_exits_1(self, tmp_path, capsys):
        # the document parses, but its first job cannot embed into the host
        doc = json.loads((REPO / "scenarios" / "hot_spot.json").read_text())
        doc["jobs"][0]["height"] = 2
        path = tmp_path / "hot_spot.json"
        path.write_text(json.dumps(doc))
        assert main(["runtime", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad scenario {path}: ")
        assert "Traceback" not in err

    def test_fault_on_a_node_the_host_lacks_exits_1(self, tmp_path, capsys):
        # rejected with the document, before any job is admitted or run
        doc = json.loads((REPO / "scenarios" / "chaos.json").read_text())
        doc["faults"]["events"][0]["u"] = "x"
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps(doc))
        assert main(["runtime", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: bad scenario {path}: Scenario.faults.events[0].u: ")
        assert "admitted" not in out

    def test_node_death_repairs_and_checkpoint_resumes(self, tmp_path, capsys):
        # two jobs on one host, a node killed mid-run: online repair shows
        # in the trace, and the rerun resumes from the checkpoint
        args = ["runtime", str(REPO / "examples" / "runtime_jobs.json"),
                "--faults", str(REPO / "examples" / "faults_node_death.json"),
                "--checkpoint", str(tmp_path / "c.json")]
        trace = tmp_path / "t.jsonl"
        assert main(args + ["--trace", str(trace)]) == 0
        assert "repair" in _trace_kinds(trace)
        assert "resumed from" not in capsys.readouterr().out
        assert main(args) == 0
        assert "resumed from" in capsys.readouterr().out


SHIPPED = sorted(p.stem for p in (REPO / "scenarios").glob("*.json"))


class TestRuntimeResume:
    """Re-running a `runtime` command on its checkpoint continues the run
    bit-identically: the checkpoint supplies the state, the scenario its
    `batch` and `checkpoint_every`."""

    @pytest.mark.parametrize("batch", [False, True], ids=["shipped", "batch"])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_resume_matches_uninterrupted_run(self, tmp_path, capsys, name, batch):
        from repro.service import Scenario, run_scenario

        doc = json.loads((REPO / "scenarios" / f"{name}.json").read_text())
        if batch:
            doc["batch"] = True
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        scenario = Scenario.from_obj(doc)
        res = run_scenario(scenario)
        rt = scenario.build_runtime()
        for _ in range(3):
            if (rt.step_batch() if batch else rt.step()) in ([], None):
                break
        ckpt = tmp_path / "c.json"
        rt.checkpoint_json(ckpt)
        rc = main(["runtime", str(path), "--checkpoint", str(ckpt), "--json"])
        out, err = capsys.readouterr()
        assert out == json.dumps(res.as_dict(), indent=2) + "\n"
        assert rc == (0 if res.complete else 1)
        assert err.startswith(f"resumed from {ckpt}: ")

    def test_resume_drives_with_the_scenarios_knobs(self, tmp_path, monkeypatch):
        import repro.service.scenario as scenario_module

        doc = json.loads((REPO / "scenarios" / "contention.json").read_text())
        doc.update(batch=True, checkpoint_every=3)
        path = tmp_path / "contention.json"
        path.write_text(json.dumps(doc))
        ckpt = tmp_path / "c.json"
        seen = []
        drive = scenario_module.drive_runtime

        def spy(rt, **kwargs):
            seen.append((kwargs["batch"], kwargs["checkpoint_every"]))
            return drive(rt, **kwargs)

        monkeypatch.setattr(scenario_module, "drive_runtime", spy)
        rt = scenario_module.Scenario.from_obj(doc).build_runtime()
        rt.step_batch()
        rt.checkpoint_json(ckpt)
        assert main(["runtime", str(path), "--checkpoint", str(ckpt)]) == 0
        assert main(["runtime", str(path), "--checkpoint", str(ckpt),
                     "--checkpoint-every", "4"]) == 0
        assert seen == [(True, 3), (True, 4)]
