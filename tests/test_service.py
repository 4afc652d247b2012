"""The PR-7 service layer: scenarios, store, fleet, API, and the CLI.

The load-bearing guarantees:

* a scenario document is validated strictly (versioned, unknown keys
  rejected) and round-trips through JSON;
* the store's rename-based queues claim each job exactly once, in
  priority-then-submission order, and requeue a dead worker's job —
  possibly onto a different shard — without losing the checkpoint;
* N concurrent submissions across >= 2 worker shards, *including
  node-death fault scenarios*, produce per-job results **bit-identical**
  to direct in-process ``run_scenario`` runs;
* SIGKILLing a worker mid-job loses nothing: recovery requeues the job,
  another worker resumes from the checkpoint, and the final result is
  still bit-identical to an uninterrupted run;
* the REST API speaks the documented routes and error contract.
"""

from __future__ import annotations

import copy
import json
import re
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.service import (
    Fleet,
    Scenario,
    ServiceClient,
    run_load,
    run_scenario,
    scenario_variants,
)
from repro.service.api import ApiServer
from repro.service.client import ServiceError
from repro.service.store import JobRecord, Store
from repro.service.worker import worker_main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

BASE_DOC = {
    "version": 1,
    "name": "base",
    "host": {"name": "xtree", "args": [3]},
    "jobs": [
        {"name": "a", "program": "reduction", "tree_n": 15,
         "capacity": 4, "height": 3},
    ],
}

FAULT_DOC = {
    "version": 1,
    "name": "faulty",
    "host": {"name": "xtree", "args": [4]},
    "jobs": [
        {"name": "a", "program": "prefix_sum", "tree_n": 15,
         "capacity": 4, "height": 4},
        {"name": "b", "program": "broadcast", "tree_n": 15,
         "capacity": 4, "height": 4},
    ],
    "faults": {"events": [
        {"cycle": 1, "action": "fail_node", "u": [2, 1]},
        {"cycle": 8, "action": "fail_node", "u": [3, 2]},
    ]},
}


def doc(**overrides) -> dict:
    d = dict(BASE_DOC)
    d.update(overrides)
    return d


def json_roundtrip(obj):
    return json.loads(json.dumps(obj))


class TestScenario:
    def test_roundtrip_identity(self):
        sc = Scenario.from_obj(FAULT_DOC)
        assert Scenario.from_obj(json_roundtrip(sc.as_dict())) == sc

    def test_defaults_omitted(self):
        d = Scenario.from_obj(BASE_DOC).as_dict()
        for key in ("router", "policy", "engine", "max_load", "batch",
                    "trace", "priority", "checkpoint_every"):
            assert key not in d

    def test_version_required_and_checked(self):
        with pytest.raises(ValueError, match="version"):
            Scenario.from_obj(doc(version=99))
        with pytest.raises(ValueError, match="version"):
            Scenario.from_obj({k: v for k, v in BASE_DOC.items() if k != "version"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_obj(doc(colour="red"))

    def test_missing_required_fields(self):
        for key in ("name", "host", "jobs"):
            bad = {k: v for k, v in BASE_DOC.items() if k != key}
            with pytest.raises(ValueError, match=key):
                Scenario.from_obj(bad)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError, match="unknown router"):
            Scenario.from_obj(doc(router="psychic"))
        # a policy tree is built from its document, never from a name: the
        # bare name fails here, not later on a worker
        with pytest.raises(ValueError, match="unknown router 'tree'"):
            Scenario.from_obj(doc(router="tree"))
        with pytest.raises(ValueError, match="unknown scheduling policy 'tree'"):
            Scenario.from_obj(doc(policy="tree"))
        with pytest.raises(ValueError, match="unknown engine"):
            Scenario.from_obj(doc(engine="warp"))
        with pytest.raises(ValueError, match="unknown.*policy"):
            Scenario.from_obj(doc(policy="chaotic"))
        with pytest.raises(ValueError, match="unknown host topology"):
            Scenario.from_obj(doc(host={"name": "torus", "args": [3]}))
        with pytest.raises(ValueError, match="takes 1 argument"):
            Scenario.from_obj(doc(host={"name": "universal", "args": [9, "radius"]}))
        with pytest.raises(ValueError, match="priority"):
            Scenario.from_obj(doc(priority=0))
        with pytest.raises(ValueError, match="checkpoint_every"):
            Scenario.from_obj(doc(checkpoint_every=0))

    @pytest.mark.parametrize("legacy", ["auto", "classic", "vector"])
    def test_legacy_engine_field_ignored(self, legacy):
        # the retired engine selector only picked between bit-identical
        # delivery paths: old documents still parse, to the same scenario
        sc = Scenario.from_obj(doc(engine=legacy))
        assert sc == Scenario.from_obj(BASE_DOC)
        assert "engine" not in sc.as_dict()
        assert run_scenario(sc).as_dict() == run_scenario(
            Scenario.from_obj(BASE_DOC)).as_dict()

    def test_field_mutations_parse_or_name_the_field(self):
        """Every top-level field of each shipped scenario, and its host's
        ``name`` and ``args``, set to null, 7, "x", [] or {}, or deleted:
        the document parses or raises a ValueError naming the top-level
        field.  The fields the shipped documents leave out are set as well.
        ``faults`` is :meth:`FaultSchedule.from_obj`'s to check."""
        fields = ("version", "name", "description", "priority", "host", "policy",
                  "router", "engine", "max_load", "link_capacity", "batch",
                  "trace", "checkpoint_every", "jobs")
        values = (None, 7, "x", [], {})
        n_rejected = 0
        for path in sorted(SCENARIOS.glob("*.json")):
            base = json.loads(path.read_text())
            mutations = [
                (key, {k: v for k, v in base.items() if k != key}) for key in fields
            ] + [(key, {**base, key: v}) for key in fields for v in values]
            for key in ("name", "args"):
                host = base["host"]
                mutations.append(
                    (f"host.{key}", {**base, "host": {k: v for k, v in host.items() if k != key}})
                )
                mutations += [
                    (f"host.{key}", {**base, "host": {**host, key: v}}) for v in values
                ]
            for key, obj in mutations:
                try:
                    Scenario.from_obj(obj)
                except ValueError as exc:
                    field = key.partition(".")[0]
                    assert field in str(exc), f"{path.name}: {key}: {exc}"
                    n_rejected += 1
        assert n_rejected > 0

    @pytest.mark.parametrize("host,field", [
        ({"name": "xtree", "args": ["4"]}, "host.args[0]"),
        ({"name": "xtree", "args": [4.0]}, "host.args[0]"),
        ({"name": "xtree", "args": [None]}, "host.args[0]"),
        ({"name": "xtree", "args": [True]}, "host.args[0]"),
        ({"name": "grid2d", "args": [3, "5"]}, "host.args[1]"),
        ({"name": "xtree", "args": [4], "agrs": [9]}, "'agrs'"),
    ])
    def test_bad_host_rejected_at_parse(self, host, field):
        """A host argument that is not an integer, or a key inside ``host``
        other than ``name`` and ``args``, is refused when the document is
        parsed, not when the runtime builds the host."""
        hot_spot = json.loads((SCENARIOS / "hot_spot.json").read_text())
        with pytest.raises(ValueError, match=re.escape(field)):
            Scenario.from_obj(dict(hot_spot, host=host))

    def test_fault_mutations_parse_or_name_the_path(self):
        """Every field inside the ``faults`` object of the three fault
        scenarios, nested events and node labels included, set to null, 7,
        "x", [] or {}, or deleted: the document parses or raises a
        ValueError whose message starts with the path of the field or of
        the object holding it, under ``Scenario.faults``."""
        values = (None, 7, "x", [], {})

        def fields(obj, path=()):
            items = obj.items() if isinstance(obj, dict) else enumerate(obj)
            for key, value in items:
                yield path + (key,)
                if isinstance(value, (dict, list)):
                    yield from fields(value, path + (key,))

        def dotted(path):
            return "Scenario.faults" + "".join(
                f"[{k}]" if isinstance(k, int) else f".{k}" for k in path
            )

        n_mutations = n_rejected = 0
        for name in ("chaos", "byzantine", "byzantine_storm"):
            base = json.loads((SCENARIOS / f"{name}.json").read_text())
            for path in fields(base["faults"]):
                for value in (*values, "delete"):
                    obj = copy.deepcopy(base)
                    parent = obj["faults"]
                    for key in path[:-1]:
                        parent = parent[key]
                    if value == "delete":
                        del parent[path[-1]]
                    else:
                        parent[path[-1]] = value
                    n_mutations += 1
                    try:
                        Scenario.from_obj(obj)
                    except ValueError as exc:
                        n_rejected += 1
                        assert str(exc).startswith((dotted(path), dotted(path[:-1]))), (
                            f"{name}: {dotted(path)} = {value!r}: {exc}"
                        )
        assert n_mutations == 600
        assert n_rejected > 0

    @pytest.mark.parametrize("key,value", [
        ("batch", "false"), ("trace", 1), ("max_load", "x"), ("link_capacity", 0),
        ("max_load", True), ("description", 7),
    ])
    def test_ill_typed_field_rejected_at_parse(self, key, value):
        with pytest.raises(ValueError, match=f"Scenario.{key} must be"):
            Scenario.from_obj(doc(**{key: value}))

    @pytest.mark.parametrize("event,end,node", [
        (0, "u", "x"), (0, "u", 7), (0, "u", [9, 9]), (1, "v", [9, 9]),
    ], ids=["u-string", "u-int", "u-list", "v-list"])
    def test_fault_on_a_node_the_host_lacks_rejected_at_parse(self, event, end, node):
        """It used to parse and fail only when the runtime applied it."""
        chaos = json.loads((SCENARIOS / "chaos.json").read_text())
        chaos["faults"]["events"][event][end] = node
        label = tuple(node) if isinstance(node, list) else node
        with pytest.raises(ValueError, match=re.escape(
                f"Scenario.faults.events[{event}].{end}: {label!r} is not a node of host")):
            Scenario.from_obj(chaos)

    def test_program_arg_the_program_does_not_take_rejected_at_parse(self):
        """It used to parse and fail with a TypeError when the job was built."""
        hot_spot = json.loads((SCENARIOS / "hot_spot.json").read_text())
        hot_spot["jobs"][0]["program_args"] = {"bogus": 1}
        with pytest.raises(ValueError, match=re.escape(
                "JobSpec.program_args.bogus: program 'hot_spot' does not take 'bogus'")):
            Scenario.from_obj(hot_spot)

    def test_duplicate_job_names_rejected(self):
        jobs = [dict(BASE_DOC["jobs"][0]), dict(BASE_DOC["jobs"][0])]
        with pytest.raises(ValueError, match="duplicate job names"):
            Scenario.from_obj(doc(jobs=jobs))

    def test_weight_sums_job_capacities(self):
        assert Scenario.from_obj(FAULT_DOC).weight == 8

    def test_variants_distinct_names_same_workload(self):
        base = Scenario.from_obj(BASE_DOC)
        variants = scenario_variants(base, 3)
        assert [v.name for v in variants] == ["base-000", "base-001", "base-002"]
        assert all(v.jobs == base.jobs for v in variants)


class TestRunScenario:
    def test_matches_plain_runtime_run(self):
        sc = Scenario.from_obj(FAULT_DOC)
        via_scenario = run_scenario(sc).as_dict()
        rt = sc.build_runtime()
        assert via_scenario == rt.run().as_dict()

    def test_resume_from_checkpoint_bit_identical(self, tmp_path):
        sc = Scenario.from_obj(FAULT_DOC)
        ref = run_scenario(sc).as_dict()
        # run halfway, checkpointing, then "crash" and resume from disk
        ckpt = tmp_path / "c.json"
        rt = sc.build_runtime()
        for _ in range(7):
            rt.step()
        ckpt.write_text(json.dumps(rt.checkpoint()))
        assert run_scenario(sc, checkpoint_path=ckpt).as_dict() == ref


class TestStore:
    def rec(self, job_id, *, shard=0, priority=1, seq=1, weight=4):
        return JobRecord(id=job_id, name=job_id, status="queued", shard=shard,
                         priority=priority, weight=weight, seq=seq)

    def test_claim_order_priority_then_seq(self, tmp_path):
        store = Store(tmp_path, n_shards=1)
        store.enqueue("low", {}, self.rec("low", priority=1, seq=1))
        store.enqueue("late-high", {}, self.rec("late-high", priority=5, seq=3))
        store.enqueue("early", {}, self.rec("early", priority=1, seq=2))
        order = [store.claim(0) for _ in range(3)]
        assert order == ["late-high", "low", "early"]
        assert store.claim(0) is None

    def test_claim_marks_running_with_pid(self, tmp_path):
        store = Store(tmp_path, n_shards=1)
        store.enqueue("j", {}, self.rec("j"))
        assert store.claim(0) == "j"
        rec = store.read_meta("j")
        assert rec.status == "running" and rec.attempts == 1
        assert rec.worker_pid is not None

    def test_complete_releases_marker(self, tmp_path):
        store = Store(tmp_path, n_shards=1)
        store.enqueue("j", {}, self.rec("j"))
        store.claim(0)
        store.complete("j", 0, {"exit_code": 0})
        assert store.read_meta("j").status == "done"
        assert store.running_jobs(0) == []
        assert store.read_result("j") == {"exit_code": 0}

    def test_requeue_migrates_shard(self, tmp_path):
        store = Store(tmp_path, n_shards=2)
        store.enqueue("j", {"doc": 1}, self.rec("j", shard=0))
        store.claim(0)
        assert store.requeue_running(0, "j", new_shard=1)
        rec = store.read_meta("j")
        assert rec.status == "queued" and rec.shard == 1
        assert store.claim(1) == "j"  # claimable on the new shard
        assert store.claim(0) is None

    def test_requeue_keeps_published_result(self, tmp_path):
        # worker died after writing result.json but before releasing the
        # marker: recovery must finalise, not re-run
        store = Store(tmp_path, n_shards=1)
        store.enqueue("j", {}, self.rec("j"))
        store.claim(0)
        store.result_path("j").write_text('{"exit_code": 0}')
        assert not store.requeue_running(0, "j", new_shard=0)
        assert store.read_meta("j").status == "done"
        assert store.claim(0) is None

    def test_outstanding_weight(self, tmp_path):
        store = Store(tmp_path, n_shards=2)
        store.enqueue("a", {}, self.rec("a", shard=0, weight=8, seq=1))
        store.enqueue("b", {}, self.rec("b", shard=0, weight=4, seq=2))
        store.enqueue("c", {}, self.rec("c", shard=1, weight=4, seq=3))
        assert store.outstanding_weight(0) == 12
        assert store.outstanding_weight(1) == 4
        store.claim(0)  # running jobs still count
        assert store.outstanding_weight(0) == 12

    def test_concurrent_admissions_each_land(self, tmp_path):
        # API threads admitting into one job at once: every arrival gets
        # its own file, none is overwritten, and no tmp file is left
        store = Store(tmp_path, n_shards=1)
        n = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(5):
                job_id = f"j{trial}"
                barrier = threading.Barrier(n)
                names, errors = [], []

                def admit(i):
                    barrier.wait(timeout=10)
                    try:
                        names.append(
                            store.write_admission(job_id, i, {"name": f"x{i}"}))
                    except OSError as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=admit, args=(i,))
                           for i in range(n)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                    assert not t.is_alive()
                assert errors == []
                assert sorted(names) == [f"admit-{i:04d}.json" for i in range(n)]
                got = store.read_admissions(job_id)
                assert sorted(c for c, _ in got) == list(range(n))
                assert {spec["name"] for _, spec in got} == {f"x{i}" for i in range(n)}
                left = sorted(p.name for p in store.admissions_dir(job_id).iterdir())
                assert left == sorted(names)
        finally:
            sys.setswitchinterval(interval)

    def test_documents_written_compact(self, tmp_path):
        store = Store(tmp_path, n_shards=1)
        store.enqueue("j", {"a": [1, 2]}, self.rec("j"))
        store.write_admission("j", 3, {"name": "late"})
        store.claim(0)
        store.complete("j", 0, {"exit_code": 0, "result": {"b": 1}})
        paths = [store.scenario_path("j"), store.meta_path("j"),
                 store.result_path("j"), store.admissions_dir("j") / "admit-0000.json"]
        for path in paths:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"


class TestWorkerInline:
    """Drive the worker loop in-process (max_jobs) — no subprocess."""

    def test_worker_executes_and_publishes(self, tmp_path):
        store = Store(tmp_path, n_shards=1)
        fleet = Fleet(tmp_path, n_shards=1)  # used only for submit/placement
        jid = fleet.submit(Scenario.from_obj(BASE_DOC))
        assert worker_main(str(tmp_path), 0, 1, max_jobs=1) == 1
        rec = store.read_meta(jid)
        assert rec.status == "done"
        result = store.read_result(jid)
        assert result["exit_code"] == 0 and result["complete"]
        ref = json_roundtrip(run_scenario(Scenario.from_obj(BASE_DOC)).as_dict())
        assert result["result"] == ref

    def test_worker_records_failure(self, tmp_path):
        # repeated deaths exhaust the embedding slack -> RepairError ->
        # the job is failed with the error recorded, not lost
        bad = {
            "version": 1,
            "name": "doomed",
            "host": {"name": "xtree", "args": [4]},
            "max_load": 5,
            "jobs": [{"name": "a", "program": "prefix_sum", "tree_n": 12,
                      "capacity": 4, "height": 4}],
            "faults": {"events": [
                {"cycle": 1 + 3 * i, "action": "fail_node", "u": [4, i]}
                for i in range(8)
            ]},
        }
        fleet = Fleet(tmp_path, n_shards=1)
        jid = fleet.submit(Scenario.from_obj(bad))
        worker_main(str(tmp_path), 0, 1, max_jobs=1)
        rec = fleet.store.read_meta(jid)
        assert rec.status == "failed"
        assert "RepairError" in rec.error
        assert fleet.store.read_result(jid)["exit_code"] == 1

    def test_degraded_scenario_is_done_with_exit_1(self, tmp_path):
        sc = Scenario.from_json(str(SCENARIOS / "partition.json"))
        fleet = Fleet(tmp_path, n_shards=1)
        jid = fleet.submit(sc)
        worker_main(str(tmp_path), 0, 1, max_jobs=1)
        assert fleet.store.read_meta(jid).status == "done"
        result = fleet.store.read_result(jid)
        assert result["exit_code"] == 1 and not result["complete"]


class TestPlacement:
    def test_least_weight_shard_wins(self, tmp_path):
        fleet = Fleet(tmp_path, n_shards=2)
        heavy = Scenario.from_obj(doc(name="heavy", jobs=[
            {"name": "a", "program": "reduction", "tree_n": 15,
             "capacity": 8, "height": 3},
        ]))
        light = Scenario.from_obj(BASE_DOC)
        j1 = fleet.submit(heavy)   # shard 0 (tie -> lowest)
        j2 = fleet.submit(light)   # shard 1 (weight 0 < 8)
        j3 = fleet.submit(light)   # shard 1 again (4 < 8)
        j4 = fleet.submit(light)   # now shard 0 has 8, shard 1 has 8 -> 0
        shards = [fleet.store.read_meta(j).shard for j in (j1, j2, j3, j4)]
        assert shards == [0, 1, 1, 0]


@pytest.mark.slow
class TestFleetEndToEnd:
    def test_concurrent_jobs_with_faults_bit_identical(self, tmp_path):
        """Plain + node-death scenarios, concurrently, across 2 shards:
        every distributed result must equal its direct in-process run."""
        scenarios = (
            scenario_variants(Scenario.from_obj(BASE_DOC), 4)
            + scenario_variants(Scenario.from_obj(FAULT_DOC), 4)
        )
        with Fleet(tmp_path, n_shards=2) as fleet:
            report = run_load(fleet, scenarios, concurrency=8, timeout=120)
        assert report.ok, report.as_dict()
        assert report.n_done == 8 and report.n_mismatched == 0
        assert len(report.jobs_per_shard) == 2  # both shards actually ran jobs

    def test_killed_worker_job_recovers_bit_identical(self, tmp_path):
        sc = Scenario.from_json(str(SCENARIOS / "long_run.json"))
        ref = json_roundtrip(run_scenario(sc).as_dict())
        fleet = Fleet(tmp_path, n_shards=2)
        fleet.start()
        try:
            jid = fleet.submit(sc)
            store = fleet.store
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                rec = store.read_meta(jid)
                if rec.status == "running" and store.checkpoint_path(jid).exists():
                    break
                time.sleep(0.002)
            else:
                pytest.fail("job never reached running-with-checkpoint")
            fleet.kill_worker(rec.shard)
            assert store.read_result(jid) is None, "finished before the kill"
            assert fleet.recover() == [jid]
            fleet.wait([jid], timeout=60)
            rec = store.read_meta(jid)
            result = store.read_result(jid)
        finally:
            fleet.stop()
        assert rec.status == "done" and rec.attempts == 2
        assert result["exit_code"] == 0
        assert result["result"] == ref


@pytest.mark.slow
class TestApi:
    @pytest.fixture()
    def service(self, tmp_path):
        fleet = Fleet(tmp_path, n_shards=2)
        fleet.start()
        server = ApiServer(fleet)
        server.serve_background()
        try:
            yield ServiceClient(server.address)
        finally:
            server.shutdown()
            fleet.stop()

    def test_submit_poll_fetch(self, service):
        jid = service.submit(BASE_DOC)
        meta = service.wait(jid, timeout=60)
        assert meta["status"] == "done"
        result = service.result(jid)
        assert result["exit_code"] == 0
        ref = json_roundtrip(run_scenario(Scenario.from_obj(BASE_DOC)).as_dict())
        assert result["result"] == ref
        assert service.scenario(jid)["name"] == "base"
        assert any(j["id"] == jid for j in service.jobs())

    def test_trace_streams_jsonl(self, service):
        jid = service.submit(doc(trace=True))
        service.wait(jid, timeout=60)
        lines = service.trace_lines(jid)
        assert lines, "trace endpoint returned nothing"
        kinds = {rec.get("kind") for rec in lines}
        assert "inject" in kinds or "deliver" in kinds

    def test_malformed_fault_schedule_is_400(self, service):
        hot_spot = json.loads((SCENARIOS / "hot_spot.json").read_text())
        event = {"cycle": 1, "action": "fail_node"}
        for faults, field in (({"version": 1}, "events"),
                              ({"events": [event]}, "u")):
            with pytest.raises(ServiceError) as exc:
                service.submit(dict(hot_spot, faults=faults))
            assert exc.value.status == 400
            assert f"missing required field '{field}'" in str(exc.value)

    def test_error_contract(self, service):
        with pytest.raises(ServiceError) as exc:
            service.submit({"version": 99})
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            service.job("no-such-job")
        assert exc.value.status == 404
        # result before terminal state: 409, distinguishable from 404
        jid = service.submit(doc(name="pending"))
        try:
            service.result(jid)
        except ServiceError as e:
            assert e.status == 409
        assert service.healthz()
        assert service.fleet()["n_shards"] == 2


@pytest.mark.slow
class TestApiRequests:
    """Requests the API must refuse with a status line, served by a fleet
    with no workers: nothing here gets as far as running a job."""

    @pytest.fixture()
    def server(self, tmp_path):
        server = ApiServer(Fleet(tmp_path, n_shards=1))
        server.serve_background()
        try:
            yield server
        finally:
            server.shutdown()

    def test_tree_router_name_is_400(self, server):
        with pytest.raises(ServiceError) as exc:
            ServiceClient(server.address).submit(doc(router="tree"))
        assert exc.value.status == 400
        assert "unknown router 'tree'" in str(exc.value)

    def test_link_capacity_0_is_400(self, server):
        # rejected at submission, not by a worker that then fails the job
        hot_spot = json.loads((SCENARIOS / "hot_spot.json").read_text())
        with pytest.raises(ServiceError) as exc:
            ServiceClient(server.address).submit(dict(hot_spot, link_capacity=0))
        assert exc.value.status == 400
        assert "Scenario.link_capacity must be >= 1" in str(exc.value)

    def test_host_arg_string_is_400(self, server):
        hot_spot = json.loads((SCENARIOS / "hot_spot.json").read_text())
        with pytest.raises(ServiceError) as exc:
            ServiceClient(server.address).submit(
                dict(hot_spot, host={"name": "xtree", "args": ["4"]}))
        assert exc.value.status == 400
        assert "host.args[0]" in str(exc.value)

    def test_ill_typed_fault_field_is_400(self, server):
        # used to answer 400 with the raw TypeError text
        chaos = json.loads((SCENARIOS / "chaos.json").read_text())
        chaos["faults"]["events"][3]["cycle"] = "x"
        with pytest.raises(ServiceError) as exc:
            ServiceClient(server.address).submit(chaos)
        assert exc.value.status == 400
        assert ("Scenario.faults.events[3].cycle must be an integer >= 0, got 'x'"
                in str(exc.value))

    def test_fault_on_a_node_the_host_lacks_is_400(self, server):
        # used to answer 201, then fail the job on the worker
        chaos = json.loads((SCENARIOS / "chaos.json").read_text())
        chaos["faults"]["events"][0]["u"] = [9, 9]
        with pytest.raises(ServiceError) as exc:
            ServiceClient(server.address).submit(chaos)
        assert exc.value.status == 400
        assert "Scenario.faults.events[0].u: (9, 9) is not a node" in str(exc.value)

    def test_program_arg_the_program_does_not_take_is_400(self, server):
        # used to answer 201, then fail the job on the worker
        hot_spot = json.loads((SCENARIOS / "hot_spot.json").read_text())
        hot_spot["jobs"][0]["program_args"] = {"bogus": 1}
        with pytest.raises(ServiceError) as exc:
            ServiceClient(server.address).submit(hot_spot)
        assert exc.value.status == 400
        assert "JobSpec.program_args.bogus" in str(exc.value)

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, server, length):
        host, port = server.httpd.server_address[:2]
        head = (f"POST /v1/jobs HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {length}\r\n\r\n")
        reply = b""
        with socket.create_connection((host, port), timeout=3) as sock:
            sock.sendall(head.encode() + b"{}")
            while chunk := sock.recv(65536):
                reply += chunk
        status, _, body = reply.partition(b"\r\n")
        assert status.startswith(b"HTTP/1.1 400 ")
        assert f"bad Content-Length: '{length}'".encode() in body


class TestServiceCLI:
    """The in-process ``runtime`` runner over shipped scenarios, and the
    ``service loadgen`` front end."""

    def test_run_complete_scenario_exits_0(self, capsys):
        assert main(["runtime", str(SCENARIOS / "chaos.json")]) == 0
        out = capsys.readouterr().out
        assert "2 repairs" in out

    def test_run_degraded_scenario_exits_1(self, capsys):
        assert main(["runtime", str(SCENARIOS / "partition.json")]) == 1

    def test_run_json_output(self, capsys):
        assert main(["runtime", str(SCENARIOS / "hot_spot.json"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["makespan"] > 0 and len(payload["jobs"]) == 2

    def test_run_bad_scenario_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "name": "x"}')
        assert main(["runtime", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_ill_typed_fault_exits_1(self, tmp_path, capsys):
        chaos = json.loads((SCENARIOS / "chaos.json").read_text())
        chaos["faults"]["events"][1]["delay"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(chaos))
        assert main(["runtime", str(bad)]) == 1
        assert "Scenario.faults.events[1].delay" in capsys.readouterr().err

    def test_run_resumes_from_checkpoint(self, tmp_path, capsys):
        sc = Scenario.from_json(str(SCENARIOS / "chaos.json"))
        ref = run_scenario(sc).as_dict()
        ckpt = tmp_path / "c.json"
        rt = sc.build_runtime()
        for _ in range(5):
            rt.step()
        ckpt.write_text(json.dumps(rt.checkpoint()))
        rc = main(["runtime", str(SCENARIOS / "chaos.json"),
                   "--checkpoint", str(ckpt), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == json_roundtrip(ref)

    @pytest.mark.slow
    def test_loadgen_local_fleet(self, tmp_path, capsys):
        rc = main(["service", "loadgen", str(SCENARIOS / "hot_spot.json"),
                   "-n", "4", "--root", str(tmp_path / "lg"), "--shards", "2"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["ok"] and report["n_done"] == 4
        assert report["n_mismatched"] == 0


class TestScenarioLibrary:
    """Every shipped scenario parses, round-trips, and runs as documented."""

    @pytest.mark.parametrize("name,complete", [
        ("hot_spot", True),
        ("chaos", True),
        ("partition", False),
        ("contention", True),
        ("long_run", True),
    ])
    def test_scenario_runs_as_documented(self, name, complete):
        sc = Scenario.from_json(str(SCENARIOS / f"{name}.json"))
        assert Scenario.from_obj(json_roundtrip(sc.as_dict())) == sc
        res = run_scenario(sc)
        assert res.complete is complete
        if name == "chaos":
            assert res.n_repairs > 0
        if name == "partition":
            assert sum(len(j["failed"]) for j in res.jobs) > 0
