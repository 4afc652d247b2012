"""The PR-5 multi-tenant runtime: scheduling, repair, checkpoint/resume.

Covers the tentpole semantics end to end:

* ``JobSpec`` validation and JSON round-trips;
* admission control against the load-16 bound (two capacity-8 jobs fill
  it exactly; a third is rejected; finished jobs release their share);
* FIFO vs fair-share scheduling order and per-job cycle budgets;
* online repair — a scheduled node death remaps the affected jobs'
  images mid-run and migrates stranded messages, and the run completes;
* latency faults (``delay_link``) never trigger repair;
* repair edge cases: the nearest slack slot itself dead, and repeated
  deaths exhausting the slack into ``RepairError``;
* checkpoint → restore → continue is bit-identical to the uninterrupted
  run (also as a Hypothesis property over fault timing and cut points,
  and with adaptive-router state in the checkpoint);
* the checkpoint writer: compact and indented files restore alike, a
  failed write keeps the last good file, and the memoised ``phi`` follows
  every repair;
* the checkpoint file (a base plus one delta per cut): at every cut of
  the shipped scenarios it reads back as ``checkpoint()`` and stays under
  twice its base; torn tails, replaced files and broken numbering.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.oracle import oracle_for
from repro.cli import main
from repro.networks import Grid2D, XTree
from repro.obs import TraceRecorder
from repro.runtime import (
    AdmissionError,
    FairSharePolicy,
    FifoPolicy,
    Job,
    JobSpec,
    Runtime,
    make_policy,
)
from repro.runtime import jobs
from repro.runtime.core import _read_checkpoint
from repro.service import Scenario
from repro.simulate import FaultEvent, FaultSchedule, RepairError
from repro.simulate.routing import AdaptiveRouter


def two_job_runtime(policy="fair", faults=None, recorder=None, router=None,
                    capacity=4, **kw):
    rt = Runtime(XTree(4), policy=policy, faults=faults, recorder=recorder,
                 router=router, **kw)
    rt.admit(JobSpec(name="a", program="reduction", tree_n=15,
                     capacity=capacity, height=4))
    rt.admit(JobSpec(name="b", program="prefix_sum", tree_n=12, tree_seed=3,
                     capacity=capacity, height=4))
    return rt


class TestJobSpec:
    def test_roundtrip(self):
        spec = JobSpec(name="j", program="reduction", tree_n=20, tree_seed=7,
                       capacity=8, priority=3, ttl=40, cycle_budget=500)
        assert JobSpec.from_obj(json.loads(json.dumps(spec.as_dict()))) == spec

    def test_defaults_omitted_from_dict(self):
        d = JobSpec(name="j", program="reduction", tree_n=20).as_dict()
        assert "capacity" not in d and "priority" not in d and "ttl" not in d

    def test_unknown_program_rejected(self):
        with pytest.raises(ValueError, match="unknown program"):
            JobSpec(name="j", program="nope", tree_n=10)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown JobSpec fields"):
            JobSpec.from_obj({"name": "j", "program": "reduction",
                              "tree_n": 10, "colour": "red"})

    def test_bad_priority_and_budget(self):
        with pytest.raises(ValueError, match="priority"):
            JobSpec(name="j", program="reduction", tree_n=10, priority=0)
        with pytest.raises(ValueError, match="cycle_budget"):
            JobSpec(name="j", program="reduction", tree_n=10, cycle_budget=0)

    @pytest.mark.parametrize("program,args,message", [
        ("hot_spot", {"bogus": 1}, "JobSpec.program_args.bogus: program 'hot_spot' "
         "does not take 'bogus'; it takes ['n_hot', 'rounds', 'seed']"),
        ("hot_spot", {"tree": 1}, "JobSpec.program_args.tree: program 'hot_spot' "
         "does not take 'tree'"),
        ("reduction", {"rounds": 2}, "JobSpec.program_args.rounds: program "
         "'reduction' does not take 'rounds'; it takes no arguments"),
        ("hot_spot", {"rounds": True}, "JobSpec.program_args.rounds must be an "
         "integer, got True"),
        ("permutation", {"seed": "3"}, "JobSpec.program_args.seed must be an "
         "integer, got '3'"),
        ("neighbor_exchange", {"rounds": 2.0}, "JobSpec.program_args.rounds must be "
         "an integer, got 2.0"),
    ])
    def test_program_args_the_program_does_not_take(self, program, args, message):
        """Used to parse, then fail with a TypeError when the job was built."""
        with pytest.raises(ValueError, match=re.escape(message)):
            JobSpec.from_obj({"name": "j", "program": program, "tree_n": 15,
                              "program_args": args})

    def test_program_args_the_program_takes_build(self):
        spec = JobSpec(name="j", program="hot_spot", tree_n=15, height=4,
                       program_args={"rounds": 3, "n_hot": 2, "seed": 5})
        assert Job.build(spec, XTree(4)).program.n_supersteps == 3

    def test_wrong_host_height_rejected(self):
        spec = JobSpec(name="j", program="reduction", tree_n=15, height=3)
        with pytest.raises(ValueError, match="height"):
            Job.build(spec, XTree(4))

    def test_field_mutations_parse_or_name_the_field(self):
        """Each field of a shipped job entry set to null, 7, "x", [] or {},
        or deleted: the spec parses (and then builds, or fails to build
        with a ValueError) or ``from_obj`` raises a ValueError naming the
        field."""
        doc = json.loads(
            (Path(__file__).resolve().parent.parent / "scenarios" / "hot_spot.json").read_text()
        )
        host = XTree(4)
        for entry in doc["jobs"]:
            mutations = [
                (key, {k: v for k, v in entry.items() if k != key}) for key in entry
            ] + [
                (f.name, {**entry, f.name: value})
                for f in dataclasses.fields(JobSpec)
                for value in (None, 7, "x", [], {})
            ]
            for key, obj in mutations:
                try:
                    spec = JobSpec.from_obj(obj)
                except ValueError as exc:
                    assert repr(key) in str(exc) or f"JobSpec.{key}" in str(exc), exc
                    continue
                try:
                    Job.build(spec, host)
                except ValueError:
                    pass


class TestAdmission:
    def test_two_capacity8_jobs_fill_load16_exactly(self):
        rt = Runtime(XTree(3))
        rt.admit(JobSpec(name="a", program="reduction", tree_n=15,
                         capacity=8, height=3))
        rt.admit(JobSpec(name="b", program="reduction", tree_n=15,
                         capacity=8, height=3))
        occ = rt.occupancy()
        assert set(occ.values()) == {16}

    def test_third_job_rejected(self):
        rt = Runtime(XTree(3))
        for name in ("a", "b"):
            rt.admit(JobSpec(name=name, program="reduction", tree_n=15,
                             capacity=8, height=3))
        with pytest.raises(AdmissionError, match="max_load"):
            rt.admit(JobSpec(name="c", program="reduction", tree_n=15,
                             capacity=8, height=3))

    def test_duplicate_name_rejected(self):
        rt = Runtime(XTree(3))
        rt.admit(JobSpec(name="a", program="reduction", tree_n=15,
                         capacity=8, height=3))
        with pytest.raises(AdmissionError, match="already admitted"):
            rt.admit(JobSpec(name="a", program="reduction", tree_n=15,
                             capacity=4, height=3))

    def test_prebuilt_job_must_sit_on_the_runtime_host(self):
        rt = Runtime(XTree(3))
        spec = JobSpec(name="a", program="reduction", tree_n=15, height=3)
        with pytest.raises(ValueError, match="another host instance"):
            rt.admit(Job.build(spec, XTree(3)))
        assert rt.admit(Job.build(spec, rt.host)).embedding.host is rt.host

    def test_finished_jobs_release_their_share(self):
        rt = Runtime(XTree(3))
        rt.admit(JobSpec(name="a", program="reduction", tree_n=15,
                         capacity=8, height=3))
        rt.admit(JobSpec(name="b", program="reduction", tree_n=15,
                         capacity=8, height=3))
        rt.run()
        # both terminal: a third tenant now fits
        late = rt.admit(JobSpec(name="c", program="reduction", tree_n=15,
                                capacity=8, height=3))
        assert late.status == "active"
        res = rt.run()
        assert res.jobs[-1]["status"] == "done"


class TestScheduling:
    def test_fifo_runs_to_completion_in_order(self):
        rt = two_job_runtime(policy="fifo")
        order = []
        while True:
            job = rt.step()
            if job is None:
                break
            order.append(job.spec.name)
        # job a finishes entirely before b starts
        switch = order.index("b")
        assert all(n == "a" for n in order[:switch])
        assert all(n == "b" for n in order[switch:])

    def test_fair_share_interleaves(self):
        rt = two_job_runtime(policy="fair")
        order = []
        while True:
            job = rt.step()
            if job is None:
                break
            order.append(job.spec.name)
        switch = order.index("b")
        assert not all(n == "b" for n in order[switch:]), "fair share never interleaved"

    def test_both_policies_complete_everything(self):
        for policy in ("fifo", "fair"):
            res = two_job_runtime(policy=policy).run()
            assert res.complete, policy

    def test_priority_biases_fair_share(self):
        rt = Runtime(XTree(4), policy="fair")
        rt.admit(JobSpec(name="lo", program="prefix_sum", tree_n=12,
                         capacity=4, height=4, priority=1))
        rt.admit(JobSpec(name="hi", program="prefix_sum", tree_n=12,
                         capacity=4, height=4, priority=4))
        first_done = None
        while True:
            job = rt.step()
            if job is None:
                break
            if first_done is None:
                done = [j for j in rt.jobs if j.status == "done"]
                if done:
                    first_done = done[0].spec.name
        assert first_done == "hi"

    def test_fair_share_picks_least_virtual_time(self):
        # Regression: the old pick divided lifetime consumed_cycles by the
        # *current* weight (priority * backlog), retroactively re-pricing
        # history.  Job A is nearly done: 90 cycles consumed, but mostly
        # while heavily loaded, so its accrued virtual time is small (1.0).
        # Job B is a loaded latecomer: 30 cycles over backlog 10 — old key
        # 30/10 = 3.0 vs A's 90/1 = 90.0, so the old code starved A at the
        # finish line; the monotone accumulator runs A.
        import types

        def stub(name, virtual_time, consumed, backlog):
            return types.SimpleNamespace(
                spec=types.SimpleNamespace(name=name, priority=1),
                virtual_time=virtual_time,
                consumed_cycles=consumed,
                backlog=backlog,
            )

        a = stub("a", virtual_time=1.0, consumed=90, backlog=1)
        b = stub("b", virtual_time=3.0, consumed=30, backlog=10)
        assert FairSharePolicy().pick([a, b]) is a
        assert FairSharePolicy().pick([b, a]) is a

    def test_fair_share_virtual_time_is_monotone(self):
        # incremental accrual can only add non-negative charges — a
        # draining backlog must never move any job's clock backwards
        rt = two_job_runtime(policy="fair")
        last = {j.spec.name: j.virtual_time for j in rt.jobs}
        while rt.step() is not None:
            for j in rt.jobs:
                assert j.virtual_time >= last[j.spec.name], j.spec.name
                last[j.spec.name] = j.virtual_time
        assert all(v > 0.0 for v in last.values())

    def test_fair_share_batched_accrual_matches_solo(self):
        # step_batch merges link-disjoint supersteps into one delivery but
        # must charge each job at its own pre-superstep weight — the same
        # accrual the solo path computes
        solo = two_job_runtime(policy="fair")
        batched = two_job_runtime(policy="fair")
        solo.run()
        while batched.step_batch() not in ([], None):
            pass
        for s, b in zip(solo.jobs, batched.jobs):
            assert s.virtual_time == b.virtual_time, s.spec.name

    def test_cycle_budget_terminates_job(self):
        rt = Runtime(XTree(4))
        rt.admit(JobSpec(name="capped", program="prefix_sum", tree_n=12,
                         capacity=4, height=4, cycle_budget=10))
        res = rt.run()
        (job,) = res.jobs
        assert job["status"] == "budget_exhausted"
        assert job["supersteps_run"] < job["n_supersteps"]
        assert not res.complete

    def test_make_policy_resolution(self):
        assert isinstance(make_policy(None), FifoPolicy)
        assert isinstance(make_policy("fair"), FairSharePolicy)
        p = FifoPolicy()
        assert make_policy(p) is p
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("lottery")

    def test_non_xtree_host(self):
        # the runtime is topology-agnostic as long as specs target the host
        rt = Runtime(Grid2D(4, 8), max_load=4)
        spec = JobSpec(name="g", program="reduction", tree_n=30, capacity=2)
        with pytest.raises(ValueError):
            rt.admit(spec)  # embed targets an X-tree, host is a grid


NODE_FAULT = FaultSchedule([FaultEvent(cycle=1, action="fail_node", u=(2, 1))])


class TestOnlineRepair:
    def test_node_death_repairs_and_completes(self):
        rec = TraceRecorder()
        rt = two_job_runtime(faults=NODE_FAULT, recorder=rec)
        res = rt.run()
        assert res.complete
        assert res.n_repairs >= 1
        assert res.n_migrated >= 1
        for job in rt.jobs:
            assert (2, 1) not in set(job.embedding.phi.values())
        s = rec.summary()
        assert s["repairs"] == res.n_repairs
        assert s["messages_migrated"] == res.n_migrated
        kinds = {e.kind for e in rec.events}
        assert "repair" in kinds and "migrate" in kinds

    def test_migrated_messages_are_delivered_not_failed(self):
        res = two_job_runtime(faults=NODE_FAULT).run()
        for j in res.jobs:
            assert not j["failed"]
            assert j["n_delivered"] == j["n_messages"]

    def test_repair_respects_other_tenants_load(self):
        rt = two_job_runtime(faults=NODE_FAULT)
        rt.run()
        occ = rt.occupancy()  # empty: all jobs terminal
        loads = {}
        for job in rt.jobs:
            for h in job.embedding.phi.values():
                loads[h] = loads.get(h, 0) + 1
        assert max(loads.values()) <= rt.max_load

    def test_latency_fault_never_triggers_repair(self):
        slow = FaultSchedule([
            FaultEvent(cycle=2, action="delay_link", u=(4, 3), v=(3, 1), delay=6),
            FaultEvent(cycle=9, action="delay_link", u=(2, 1), v=(1, 0), delay=9),
        ])
        res = two_job_runtime(faults=slow).run()
        assert res.n_repairs == 0
        assert res.n_migrated == 0
        assert res.complete

    def test_slow_runtime_is_no_faster_than_clean(self):
        clean = two_job_runtime().run()
        slow = two_job_runtime(faults=FaultSchedule.slow_link(
            (2, 1), (1, 0), slow_at=1, delay=8)).run()
        assert slow.makespan >= clean.makespan
        assert slow.complete

    def test_full_admission_leaves_no_repair_slack(self):
        # two capacity-8 jobs fill every node to exactly 16: the load bound
        # admits them, but a node death then has nowhere to remap
        rt = two_job_runtime(faults=NODE_FAULT, capacity=8)
        with pytest.raises(RepairError, match="slack"):
            rt.run()

    def test_repair_when_nearest_slack_slot_is_dead(self):
        # kill a node *and* its whole neighbourhood's nearest candidates:
        # both children of (2,1) die with it, so the BFS ring must skip the
        # dead tier and remap further away — and still complete
        faults = FaultSchedule([
            FaultEvent(cycle=1, action="fail_node", u=(2, 1)),
            FaultEvent(cycle=1, action="fail_node", u=(3, 2)),
            FaultEvent(cycle=1, action="fail_node", u=(3, 3)),
        ])
        rt = two_job_runtime(faults=faults)
        res = rt.run()
        assert res.complete
        dead = {(2, 1), (3, 2), (3, 3)}
        for job in rt.jobs:
            assert not dead & set(job.embedding.phi.values())

    def test_repeated_deaths_exhaust_slack(self):
        # with max_load == the jobs' own capacity there is zero slack per
        # node pair; kill nodes one after another until repair must fail
        events = [
            FaultEvent(cycle=1 + 3 * i, action="fail_node", u=(4, i))
            for i in range(8)
        ]
        rt = Runtime(XTree(4), faults=FaultSchedule(events), max_load=5)
        rt.admit(JobSpec(name="a", program="prefix_sum", tree_n=12,
                         capacity=4, height=4))
        with pytest.raises(RepairError):
            rt.run()

    def test_dead_node_before_first_step_repairs_proactively(self):
        # fault at cycle 0 of the very first superstep: the images move
        # before any message is sent on a later superstep
        faults = FaultSchedule([FaultEvent(cycle=0, action="fail_node", u=(4, 5))])
        res = two_job_runtime(faults=faults).run()
        assert res.complete


class TestCheckpointRestore:
    def assert_bit_identical(self, make, cuts=(1, 3, 7, 12)):
        full = make().run().as_dict()
        for cut in cuts:
            rt = make()
            for _ in range(cut):
                if rt.step() is None:
                    break
            blob = json.dumps(rt.checkpoint())
            restored = Runtime.restore(json.loads(blob))
            assert restored.run().as_dict() == full, f"cut at step {cut}"
        return full

    def test_clean_run_bit_identical(self):
        self.assert_bit_identical(lambda: two_job_runtime())

    def test_faulted_run_bit_identical(self):
        full = self.assert_bit_identical(
            lambda: two_job_runtime(faults=NODE_FAULT))
        assert full["n_repairs"] >= 1

    def test_adaptive_router_state_in_checkpoint(self):
        make = lambda: two_job_runtime(
            faults=NODE_FAULT, router=AdaptiveRouter(detour_budget=4))
        self.assert_bit_identical(make, cuts=(2, 5))

    def test_checkpoint_json_roundtrip_via_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        rt = two_job_runtime(faults=NODE_FAULT)
        for _ in range(4):
            rt.step()
        rt.checkpoint_json(path)
        restored = Runtime.restore_json(path)
        assert restored.run().as_dict() == two_job_runtime(
            faults=NODE_FAULT).run().as_dict()

    @pytest.mark.parametrize("legacy_bound", [None, 1, 9999])
    def test_legacy_vector_max_nodes_key_ignored(self, legacy_bound):
        # earlier builds stamped a dense-table bound into every checkpoint;
        # it only picked between two bit-identical engines, so restore
        # ignores it and new checkpoints no longer carry it
        full = two_job_runtime().run().as_dict()
        rt = two_job_runtime()
        for _ in range(3):
            rt.step()
        state = json.loads(json.dumps(rt.checkpoint()))
        assert "vector_max_nodes" not in state
        legacy = dict(state, vector_max_nodes=legacy_bound)
        assert Runtime.restore(legacy).run().as_dict() == full
        assert Runtime.restore(state).run().as_dict() == full

    @pytest.mark.parametrize("legacy_engine", ["auto", "classic", "vector"])
    def test_legacy_engine_key_ignored(self, legacy_engine):
        # earlier builds stamped the delivery-engine choice into every
        # checkpoint; all engines gave bit-identical results, so restore
        # ignores it and new checkpoints no longer carry it
        full = two_job_runtime().run().as_dict()
        rt = two_job_runtime()
        for _ in range(3):
            rt.step()
        state = json.loads(json.dumps(rt.checkpoint()))
        assert "engine" not in state
        legacy = dict(state, engine=legacy_engine)
        assert Runtime.restore(legacy).run().as_dict() == full
        assert Runtime.restore(state).run().as_dict() == full

    @pytest.mark.parametrize("cut", [0, 3, 5])
    def test_legacy_endpoints_key_ignored(self, cut):
        # earlier builds stored every message's guest endpoints so that a
        # migration could re-send it; the program determines them, so
        # restore ignores the column (here filled with wrong pairs) and new
        # checkpoints no longer carry it.  The node dies in flight during
        # the sixth superstep, after every cut, so each restored run
        # migrates.
        faults = FaultSchedule([FaultEvent(cycle=10, action="fail_node", u=(2, 1))])
        full = two_job_runtime(faults=faults).run().as_dict()
        assert full["n_migrated"] >= 1
        rt = two_job_runtime(faults=faults)
        for _ in range(cut):
            rt.step()
        state = json.loads(json.dumps(rt.checkpoint()))
        assert not any("endpoints" in job for job in state["jobs"])
        assert not any(job["n_migrated"] for job in state["jobs"])
        legacy = json.loads(json.dumps(state))
        for job in legacy["jobs"]:
            job["endpoints"] = [[m, 0, 0, 0] for m in range(job["msg_seq"])]
        assert Runtime.restore(legacy).run().as_dict() == full
        assert Runtime.restore(state).run().as_dict() == full

    def test_restore_rejects_unknown_version(self):
        state = two_job_runtime().checkpoint()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            Runtime.restore(state)

    def test_checkpoint_preserves_policy_and_clock(self):
        rt = two_job_runtime(policy="fair")
        for _ in range(5):
            rt.step()
        restored = Runtime.restore(rt.checkpoint())
        assert restored.policy.name == "fair"
        assert restored.cycle == rt.cycle
        assert [j.spec.name for j in restored.jobs] == ["a", "b"]

    @settings(max_examples=15, deadline=None)
    @given(
        fault_cycle=st.integers(min_value=0, max_value=40),
        cut=st.integers(min_value=0, max_value=20),
        policy=st.sampled_from(["fifo", "fair"]),
    )
    def test_property_restore_is_bit_identical(self, fault_cycle, cut, policy):
        faults = FaultSchedule([
            FaultEvent(cycle=fault_cycle, action="fail_node", u=(3, 1)),
        ])
        make = lambda: two_job_runtime(policy=policy, faults=faults)
        full = make().run().as_dict()
        rt = make()
        for _ in range(cut):
            if rt.step() is None:
                break
        restored = Runtime.restore(json.loads(json.dumps(rt.checkpoint())))
        assert restored.run().as_dict() == full


NODE_DEATH = FaultSchedule.from_json(
    Path(__file__).resolve().parents[1] / "examples" / "faults_node_death.json"
)


class TestCheckpointWriter:
    """``checkpoint_json`` is the one writer: compact JSON through an
    atomic tmp + rename, with each embedding's ``phi`` serialised once."""

    def test_indented_and_compact_files_restore_alike(self, tmp_path):
        full = two_job_runtime(faults=NODE_FAULT).run().as_dict()
        rt = two_job_runtime(faults=NODE_FAULT)
        for _ in range(4):
            rt.step()
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        # the format every earlier build wrote
        old.write_text(json.dumps(rt.checkpoint(), indent=2) + "\n")
        rt.checkpoint_json(new)
        text = new.read_text()
        assert text.endswith("\n") and "\n" not in text[:-1]
        assert json.loads(text) == json.loads(old.read_text())
        from_old = Runtime.restore_json(old).run().as_dict()
        from_new = Runtime.restore_json(new).run().as_dict()
        assert from_old == from_new == full

    def test_failed_write_keeps_last_good_checkpoint(self, tmp_path, monkeypatch):
        # each of the writer's two writes fails on its own path: the base
        # through tmp + rename (Path.write_text), the delta through an
        # append (os.write); both raise after writing half their data
        path = tmp_path / "ckpt.json"
        full = two_job_runtime(faults=NODE_FAULT).run().as_dict()
        rt = two_job_runtime(faults=NODE_FAULT)
        for _ in range(4):
            rt.step()
        rt.checkpoint_json(path)
        good = path.read_bytes()
        good_state = json.loads(good)
        write_text, os_write = Path.write_text, os.write

        def torn_write(self, data, *args, **kwargs):
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")

        def torn_append(fd, data):
            os_write(fd, bytes(data[: len(data) // 2]))
            raise OSError(28, "No space left on device")

        for _ in range(3):
            rt.step()
        monkeypatch.setattr(os, "write", torn_append)
        with pytest.raises(OSError):
            rt.checkpoint_json(path)
        monkeypatch.undo()
        torn = path.read_bytes()
        assert torn.startswith(good) and len(torn) > len(good)
        assert _read_checkpoint(torn.decode()) == good_state
        assert Runtime.restore_json(path).run().as_dict() == full

        # the append raised, so the next cut writes a fresh base; make that
        # base write fail too: the torn file stays as it was
        rt.step()
        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError):
            rt.checkpoint_json(path)
        monkeypatch.undo()
        assert path.read_bytes() == torn
        assert list(tmp_path.iterdir()) == [path]  # no tmp file left behind
        assert Runtime.restore_json(path).run().as_dict() == full

        rt.step()
        rt.checkpoint_json(path)
        assert path.read_text() == compact(rt.checkpoint())
        assert Runtime.restore_json(path).run().as_dict() == full

    def test_raised_append_means_a_fresh_base(self, tmp_path, monkeypatch):
        # the append fails before writing a byte: the file is unchanged,
        # but the writer no longer trusts it and rewrites the base
        path = tmp_path / "ckpt.json"
        rt = two_job_runtime()
        rt.step()
        rt.checkpoint_json(path)
        good = path.read_bytes()

        def no_space(fd, data):
            raise OSError(28, "No space left on device")

        rt.step()
        monkeypatch.setattr(os, "write", no_space)
        with pytest.raises(OSError):
            rt.checkpoint_json(path)
        monkeypatch.undo()
        assert path.read_bytes() == good
        rt.step()
        rt.checkpoint_json(path)
        assert path.read_text() == compact(rt.checkpoint())

    def test_phi_follows_repair_at_every_cut(self):
        rt = two_job_runtime(faults=NODE_DEATH)
        seen = {job.spec.name: set() for job in rt.jobs}
        while True:
            cp = rt.checkpoint()
            for job, state in zip(rt.jobs, cp["jobs"]):
                live = sorted(job.embedding.phi.items())
                assert state["phi"] == [[g, list(h)] for g, h in live]
                seen[job.spec.name].add(json.dumps(state["phi"]))
            if rt.step() is None:
                break
        assert rt.result().n_repairs >= 1
        # a repaired job's checkpoints carry both its old and its new phi
        assert max(len(phis) for phis in seen.values()) >= 2

    def test_mutating_a_checkpoint_leaves_the_next_alone(self):
        rt = two_job_runtime(faults=NODE_FAULT)
        for _ in range(4):
            rt.step()
        cp = rt.checkpoint()
        before = json.dumps(cp)
        cp["jobs"][0]["phi"].clear()
        cp["jobs"][1]["phi"].reverse()
        cp["jobs"][1]["phi"].append([999, [0, 0]])
        cp["jobs"][0]["delivered"].clear()
        cp["jobs"].pop()
        cp["counters"]["bogus"] = 1
        cp["cycle"] = -1
        assert json.dumps(rt.checkpoint()) == before


ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))


def compact(cp: dict) -> str:
    return json.dumps(cp, separators=(",", ":")) + "\n"


def _no_construction(*args, **kwargs):
    raise AssertionError("restore ran the Theorem 1 construction")


def cut_and_check(rt: Runtime, path: Path) -> tuple[int, dict]:
    """Cut a checkpoint into ``path``; the file must read back as the
    checkpoint dict and stay under twice its base.  Returns the number of
    documents in the file and the last one."""
    rt.checkpoint_json(path)
    text = path.read_text()
    assert _read_checkpoint(text) == json.loads(json.dumps(rt.checkpoint()))
    lines = text.splitlines(keepends=True)
    assert len(text) <= 2 * len(lines[0])
    return len(lines), json.loads(lines[-1])


class TestCheckpointFile:
    """The file ``checkpoint_json`` writes is a base plus one appended delta
    per cut, and ``restore_json`` reads back exactly :meth:`checkpoint`."""

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
    def test_file_reads_as_checkpoint_at_every_cut(self, scenario, tmp_path,
                                                   monkeypatch):
        sc = Scenario.from_json(scenario)
        rt = sc.build_runtime()
        path = tmp_path / "ckpt.json"
        rt.checkpoint_json(path)
        assert path.read_text() == compact(rt.checkpoint())
        integrity, bases = ["integrity" in rt.checkpoint()], 1
        while rt.step_batch() if sc.batch else rt.step():
            n_docs, last = cut_and_check(rt, path)
            integrity.append("integrity" in last)
            bases += n_docs == 1
        if scenario.stem == "byzantine":
            # quarantine state appears after the first cut and clears later
            assert integrity[0] is False and True in integrity
            assert integrity[-1] is False
        if scenario.stem == "long_run":
            assert bases >= 2  # the deltas outgrew a base at least once
        # restoring reads every job's placement back from the file; it
        # never runs the Theorem 1 construction again
        monkeypatch.setattr(jobs, "embed_binary_tree", _no_construction)
        restored = Runtime.restore_json(path).checkpoint()
        assert json.loads(json.dumps(restored)) == _read_checkpoint(path.read_text())

    def test_repair_writes_phi_into_the_delta(self, tmp_path):
        path = tmp_path / "ckpt.json"
        rt = two_job_runtime(faults=NODE_DEATH)
        cut_and_check(rt, path)
        swapped = 0
        while rt.step() is not None:
            _, last = cut_and_check(rt, path)
            if "delta" in last:
                swapped += sum("phi" in job for job in last["jobs"])
        assert rt.result().n_repairs >= 1 and rt.result().n_migrated >= 1
        assert swapped >= 1

    def test_admission_between_cuts(self, tmp_path):
        path = tmp_path / "ckpt.json"
        rt = two_job_runtime()
        for _ in range(3):
            rt.step()
            cut_and_check(rt, path)
        rt.admit(JobSpec(name="c", program="broadcast", tree_n=15,
                         capacity=4, height=4))
        _, last = cut_and_check(rt, path)
        assert last["delta"] and last["jobs"][2] == json.loads(
            json.dumps(rt.jobs[2].state()))
        while rt.step() is not None:
            cut_and_check(rt, path)
        assert Runtime.restore_json(path).run().as_dict() == rt.result().as_dict()

    def test_torn_last_delta_restores_previous_cut(self, tmp_path):
        path = tmp_path / "ckpt.json"
        rt = two_job_runtime(faults=NODE_FAULT)
        for _ in range(3):
            rt.step()
            cut_and_check(rt, path)
        text = path.read_text()
        start = text.rindex("\n", 0, len(text) - 1) + 1
        previous = _read_checkpoint(text[:start])
        last = _read_checkpoint(text)
        assert previous != last
        for end in range(start, len(text) - 1):
            assert _read_checkpoint(text[:end]) == previous, end
        # the whole object without its newline is complete
        assert _read_checkpoint(text[:-1]) == last
        # a runtime resumed from the torn file starts it over with a base
        path.write_text(text[: (start + len(text)) // 2])
        resumed = Runtime.restore_json(path)
        resumed.step()
        resumed.checkpoint_json(path)
        assert path.read_text() == compact(resumed.checkpoint())

    @pytest.mark.parametrize("replacement", ["same_bytes", "older_file"])
    def test_replaced_file_gets_a_fresh_base(self, tmp_path, replacement):
        path = tmp_path / "ckpt.json"
        rt = two_job_runtime()
        rt.step()
        rt.checkpoint_json(path)
        older = path.read_text()
        rt.step()
        rt.checkpoint_json(path)
        other = tmp_path / "other.json"
        other.write_text(path.read_text() if replacement == "same_bytes" else older)
        os.replace(other, path)
        rt.step()
        rt.checkpoint_json(path)
        assert path.read_text() == compact(rt.checkpoint())

    def test_older_build_fails_loudly_on_deltas(self, tmp_path):
        path = tmp_path / "ckpt.json"
        rt = two_job_runtime()
        for _ in range(2):
            rt.step()
            rt.checkpoint_json(path)
        with pytest.raises(json.JSONDecodeError, match="Extra data"):
            json.loads(path.read_text())

    def test_read_stops_where_the_numbering_breaks(self, tmp_path):
        path = tmp_path / "ckpt.json"
        rt = two_job_runtime()
        states = []
        for _ in range(3):
            rt.step()
            rt.checkpoint_json(path)
            states.append(json.loads(json.dumps(rt.checkpoint())))
        base, d1, d2 = path.read_text().splitlines(keepends=True)
        assert _read_checkpoint(base + d1 + d2) == states[2]
        assert _read_checkpoint(base + d2 + d1) == states[0]
        assert _read_checkpoint(base + d1 + d1 + d2) == states[1]

    def test_malformed_delta_is_a_value_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        rt = two_job_runtime()
        rt.step()
        rt.checkpoint_json(path)
        path.write_text(path.read_text() + '{"delta":1,"cycle":3}\n')
        with pytest.raises(ValueError, match="delta 1"):
            Runtime.restore_json(path)


class TestBatchFallbackObservability:
    """PR-7 satellite: ``step_batch`` falling back to per-job stepping is
    no longer silent — every fallback lands in a named counter and, when
    a recorder listens, a ``batch_fallback`` trace event."""

    def test_faults_reason_counted(self):
        rt = two_job_runtime(faults=NODE_FAULT)
        rt.step_batch()
        assert rt.counters["batch_fallback.faults"] == 1

    def test_multiple_reasons_counted_separately(self):
        rt = two_job_runtime(faults=NODE_FAULT, recorder=TraceRecorder(),
                             router=AdaptiveRouter())
        rt.step_batch()
        for reason in ("faults", "recorder", "adaptive_router"):
            assert rt.counters[f"batch_fallback.{reason}"] == 1
        assert "batch_fallback.ttl" not in rt.counters

    def test_ttl_reason_counted(self):
        rt = Runtime(XTree(4))
        rt.admit(JobSpec(name="a", program="reduction", tree_n=15,
                         capacity=4, height=4, ttl=60))
        rt.admit(JobSpec(name="b", program="prefix_sum", tree_n=12,
                         capacity=4, height=4))
        rt.step_batch()
        assert rt.counters["batch_fallback.ttl"] == 1

    def test_single_job_reason_counted(self):
        rt = Runtime(XTree(4))
        rt.admit(JobSpec(name="solo", program="reduction", tree_n=15,
                         capacity=4, height=4))
        rt.step_batch()
        assert rt.counters["batch_fallback.single_job"] == 1

    def test_link_overlap_reason_counted(self):
        # two copies of the same spec embed identically, so their routes
        # collide on every superstep: no link-disjoint round exists
        rt = Runtime(XTree(4))
        for name in ("a", "b"):
            rt.admit(JobSpec(name=name, program="reduction", tree_n=15,
                             capacity=4, height=4))
        rt.step_batch()
        assert rt.counters["batch_fallback.link_overlap"] == 1

    def test_merged_round_counts_nothing(self):
        rt = two_job_runtime()
        ran = rt.step_batch()
        if len(ran) >= 2:  # genuinely merged
            assert not any(k.startswith("batch_fallback") for k in rt.counters)

    def test_trace_event_emitted_with_reasons(self):
        rec = TraceRecorder()
        rt = two_job_runtime(faults=NODE_FAULT, recorder=rec)
        rt.step_batch()
        events = [e for e in rec.events if e.kind == "batch_fallback"]
        assert len(events) == 1
        assert "faults" in events[0].detail and "recorder" in events[0].detail
        assert "n_active=2" in events[0].detail
        assert rec.summary()["batch_fallbacks"] == 1

    def test_counters_reach_result_and_checkpoint(self):
        rt = two_job_runtime(faults=NODE_FAULT)
        res = rt.run(batch=True)
        assert res.counters["batch_fallback.faults"] >= 1
        assert res.as_dict()["counters"] == res.counters

    def test_counters_survive_restore_bit_identical(self):
        make = lambda: two_job_runtime(faults=NODE_FAULT)
        full = make().run(batch=True).as_dict()
        rt = make()
        for _ in range(5):
            rt.step_batch()
        resumed = Runtime.restore(json.loads(json.dumps(rt.checkpoint())))
        assert resumed.counters == rt.counters
        assert resumed.run(batch=True).as_dict() == full


class TestCheckpointFaultBoundary:
    """PR-7 satellite audit: fault events falling exactly on a checkpoint
    cut are applied exactly once — never lost, never double-applied."""

    FAULTS = FaultSchedule([
        FaultEvent(cycle=0, action="fail_node", u=(4, 5)),
        FaultEvent(cycle=1, action="fail_node", u=(2, 1)),
        FaultEvent(cycle=3, action="delay_link", u=(1, 0), v=(2, 0), delay=2),
        FaultEvent(cycle=6, action="heal_link", u=(1, 0), v=(2, 0)),
        FaultEvent(cycle=9, action="fail_link", u=(3, 1), v=(3, 2)),
        FaultEvent(cycle=14, action="heal_link", u=(3, 1), v=(3, 2)),
        FaultEvent(cycle=20, action="heal_node", u=(2, 1)),
    ])

    def make(self):
        return two_job_runtime(faults=self.FAULTS)

    def test_every_cut_applies_each_event_exactly_once(self):
        full_rt = self.make()
        full = full_rt.run().as_dict()
        full_applied = [e.as_dict() for e in full_rt.applied_events]
        # cut after every superstep of the whole run
        n_steps = 0
        probe = self.make()
        while probe.step() is not None:
            n_steps += 1
        for cut in range(n_steps + 1):
            rt = self.make()
            for _ in range(cut):
                rt.step()
            state = json.loads(json.dumps(rt.checkpoint()))
            resumed = Runtime.restore(state)
            # restore replays applied events verbatim, in order
            assert [e.as_dict() for e in resumed.applied_events] == [
                e.as_dict() for e in rt.applied_events
            ], f"cut={cut}"
            # network fault state carries over exactly
            assert resumed.network.failed == rt.network.failed, f"cut={cut}"
            assert resumed.network.link_delays == rt.network.link_delays, f"cut={cut}"
            while resumed.step() is not None:
                pass
            assert resumed.result().as_dict() == full, f"cut={cut}"
            assert [e.as_dict() for e in resumed.applied_events] == full_applied, (
                f"cut={cut}: events lost or double-applied across the cut"
            )

    def test_no_event_applied_twice(self):
        rt = self.make()
        for _ in range(4):
            rt.step()
        resumed = Runtime.restore(json.loads(json.dumps(rt.checkpoint())))
        while resumed.step() is not None:
            pass
        seen = [e.as_dict() for e in resumed.applied_events]
        assert len(seen) == len({json.dumps(d, sort_keys=True) for d in seen})

    def test_double_restore_is_stable(self):
        # checkpoint -> restore -> checkpoint immediately: the second
        # checkpoint must equal the first (restore is a fixed point)
        rt = self.make()
        for _ in range(6):
            rt.step()
        state = json.loads(json.dumps(rt.checkpoint()))
        again = json.loads(json.dumps(Runtime.restore(state).checkpoint()))
        assert again == state


#: a scheduling policy tree, whose policy object is bound to its runtime
_SCHEDULING_TREE = {
    "version": 1, "name": "by-backlog", "domain": "scheduling",
    "tree": {"action": "score", "weights": {"backlog": -1.0}},
}


@pytest.mark.parametrize("policy", [None, _SCHEDULING_TREE], ids=["fifo", "tree"])
def test_dropped_runtime_frees_its_routing_tables(policy):
    # without a full collection: no reference cycle may keep the host, and
    # through it the oracle's (n, n) routing table, alive
    scenario = Scenario.from_json(
        Path(__file__).resolve().parent.parent / "scenarios" / "universal_route.json"
    )
    if policy is not None:
        scenario = dataclasses.replace(scenario, policy=policy)
    gc.collect()
    gc.disable()
    try:
        rt = scenario.build_runtime()
        rt.run()
        tables = weakref.ref(oracle_for(rt.host).next_hop_edges())
        del rt
        assert tables() is None
    finally:
        gc.enable()


def checkpoint_cut(name: str, steps: int) -> dict:
    """The parsed checkpoint of shipped scenario ``name`` after ``steps``
    supersteps."""
    rt = Scenario.from_json(ROOT / "scenarios" / f"{name}.json").build_runtime()
    for _ in range(steps):
        rt.step()
    return json.loads(json.dumps(rt.checkpoint()))


def checkpoint_mutations(state: dict):
    """Every field of ``state``, nested ones included (of a list, its first
    three entries), set to null, 7, "x", [] or {}, or deleted: yields
    ``(path, mutated copy)``."""

    def fields(obj, path=()):
        items = obj.items() if isinstance(obj, dict) else list(enumerate(obj))[:3]
        for key, value in items:
            yield path + (key,)
            if isinstance(value, (dict, list)):
                yield from fields(value, path + (key,))

    blob = json.dumps(state)
    for path in fields(state):
        for value in (None, 7, "x", [], {}, "delete"):
            obj = json.loads(blob)
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            if value == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield path, obj


def dotted(path) -> str:
    return "checkpoint" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


class TestRestoreIsTotal:
    """``Runtime.restore`` checks every field before it uses it: a mutated
    checkpoint raises ``ValueError`` naming the field (or an object holding
    it), or restores into a runtime that runs to the end."""

    @pytest.mark.parametrize("name,steps,n_fields", [
        ("hot_spot", 2, 114), ("byzantine", 1, 174),
    ])
    def test_every_mutation_is_rejected_or_runs(self, name, steps, n_fields):
        n_mutations = n_rejected = 0
        for path, obj in checkpoint_mutations(checkpoint_cut(name, steps)):
            n_mutations += 1
            try:
                rt = Runtime.restore(obj)
            except ValueError as exc:
                n_rejected += 1
                holders = tuple(dotted(path[:k]) for k in range(len(path) + 1))
                msg = str(exc)
                assert any(
                    msg.startswith(h) and msg[len(h)] in " :.[" for h in holders
                ), f"{dotted(path)}: {msg}"
                continue
            rt.run()
        assert n_mutations == 6 * n_fields
        assert 0 < n_rejected < n_mutations

    def test_next_step_past_the_program_is_named(self):
        state = checkpoint_cut("hot_spot", 2)
        state["jobs"][0]["next_step"] = 7
        with pytest.raises(ValueError, match=re.escape(
                "checkpoint.jobs[0].next_step must be an integer in [0, ")):
            Runtime.restore(state)

    def test_fault_event_off_the_host_is_named(self):
        state = checkpoint_cut("byzantine", 1)
        state["faults"]["events"][2]["u"] = 7
        with pytest.raises(ValueError, match=re.escape(
                "checkpoint.faults.events[2].u: 7 is not a node of host xtree [4]")):
            Runtime.restore(state)

    def test_fault_event_on_a_non_link_is_named(self):
        state = checkpoint_cut("byzantine", 1)
        state["faults"]["events"][2]["v"] = [3, 7]
        with pytest.raises(ValueError, match=re.escape(
                "checkpoint.faults.events[2].v: (2, 1) -- (3, 7) is not a link")):
            Runtime.restore(state)

    @pytest.mark.parametrize("field,value,message", [
        (("jobs", 0, "next_step"), 7, "checkpoint.jobs[0].next_step must be"),
        (("jobs", 1, "delivered", 0), None, "checkpoint.jobs[1].delivered[0] must be"),
        (("dead_nodes",), "x", "checkpoint.dead_nodes must be a list"),
        (("host", "args", 0), "x", "checkpoint.host: host.args[0]"),
    ])
    def test_cli_resume_exits_1_with_the_message(self, tmp_path, capsys,
                                                  field, value, message):
        cfg = ROOT / "scenarios" / "hot_spot.json"
        ckpt = tmp_path / "c.json"
        state = checkpoint_cut("hot_spot", 2)
        parent = state
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = value
        ckpt.write_text(json.dumps(state))
        assert main(["runtime", str(cfg), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot restore checkpoint {ckpt}: {message}" in err
