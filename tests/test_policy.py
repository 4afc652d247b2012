"""Tests of the declarative policy DSL (:mod:`repro.policy`).

Property suite for the document format (round-trip through JSON, strict
unknown-key rejection with actionable messages, pure deterministic
evaluation), the tree-driven scheduler and router (no-op parity with the
built-ins, checkpoint round-trips with bit-identical picks), the tuner
(reproducible seeded sweeps), and the committed documents in
``policies/``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.policy import (
    ACTION_SIGNALS,
    CONDITION_SIGNALS,
    OPS,
    POLICY_VERSION,
    TIEBREAKS,
    PolicyDoc,
    evaluate,
)
from repro.policy.tune import apply_policy, evaluate_doc, tune
from repro.runtime import Runtime, TreeSchedulerPolicy
from repro.runtime.policies import make_policy
from repro.service.scenario import Scenario, run_scenario
from repro.simulate import TreeRouter
from repro.simulate.routing import make_router

REPO = Path(__file__).resolve().parent.parent

# -- hypothesis strategies over valid documents -------------------------

_floats = st.floats(allow_nan=False, allow_infinity=False,
                    min_value=-100, max_value=100)


def _conditions(domain: str):
    leaf = st.one_of(
        st.fixed_dictionaries({
            "signal": st.sampled_from(sorted(CONDITION_SIGNALS[domain])),
            "op": st.sampled_from(OPS),
            "value": _floats,
        }),
        st.fixed_dictionaries({"const": st.booleans()}),
    )
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.fixed_dictionaries({"all": st.lists(children, min_size=1, max_size=3)}),
            st.fixed_dictionaries({"any": st.lists(children, min_size=1, max_size=3)}),
            st.fixed_dictionaries({"not": children}),
        ),
        max_leaves=4,
    )


def _actions(domain: str):
    optional = {
        "bias": _floats,
        "tiebreak": st.sampled_from(TIEBREAKS[domain]),
    }
    if domain == "routing":
        optional["detour_margin"] = st.floats(min_value=0.1, max_value=10,
                                              allow_nan=False)
    return st.fixed_dictionaries(
        {
            "action": st.just("score"),
            "weights": st.dictionaries(
                st.sampled_from(sorted(ACTION_SIGNALS[domain])),
                _floats, max_size=3,
            ),
        },
        optional=optional,
    )


def _trees(domain: str):
    return st.recursive(
        _actions(domain),
        lambda t: st.fixed_dictionaries(
            {"if": _conditions(domain), "then": t, "else": t}
        ),
        max_leaves=3,
    )


def _docs():
    return st.sampled_from(("scheduling", "routing")).flatmap(
        lambda domain: st.fixed_dictionaries(
            {
                "version": st.just(POLICY_VERSION),
                "name": st.just(f"prop-{domain}"),
                "domain": st.just(domain),
                "tree": _trees(domain),
            },
            optional={"description": st.text(min_size=1, max_size=20)},
        )
    )


def _signals(domain: str):
    return st.dictionaries(
        st.sampled_from(sorted(CONDITION_SIGNALS[domain])), _floats
    )


class TestDocumentFormat:
    @settings(max_examples=60)
    @given(_docs())
    def test_round_trip_is_identity(self, obj):
        doc = PolicyDoc.from_obj(obj)
        d = doc.as_dict()
        assert PolicyDoc.from_obj(d).as_dict() == d
        # canonical at the JSON boundary too: serialising is the identity
        assert json.loads(json.dumps(d)) == d
        assert PolicyDoc.from_obj(json.loads(json.dumps(d))).as_dict() == d

    @settings(max_examples=40)
    @given(_docs())
    def test_as_dict_is_detached(self, obj):
        doc = PolicyDoc.from_obj(obj)
        d = doc.as_dict()
        d["tree"] = {"action": "score", "weights": {}}
        assert doc.as_dict()["tree"] != d["tree"] or obj["tree"] == d["tree"]

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            PolicyDoc.from_obj({"version": 99, "name": "x", "domain": "routing",
                                "tree": {"action": "score", "weights": {}}})

    def test_unknown_doc_key_rejected(self):
        with pytest.raises(ValueError, match="wieghts|unknown"):
            PolicyDoc.from_obj({
                "version": 1, "name": "x", "domain": "routing",
                "tree": {"action": "score", "weights": {}},
                "wieghts": {},
            })

    def test_unknown_signal_names_alternatives(self):
        bad = {
            "version": 1, "name": "x", "domain": "routing",
            "tree": {
                "if": {"signal": "link_heat", "op": "ge", "value": 1},
                "then": {"action": "score", "weights": {}},
                "else": {"action": "score", "weights": {}},
            },
        }
        with pytest.raises(ValueError) as exc:
            PolicyDoc.from_obj(bad)
        # actionable: the message carries the path and the vocabulary
        assert "link_heat" in str(exc.value)
        assert "max_link_ewma" in str(exc.value)

    def test_unknown_weight_signal_rejected_cross_domain(self):
        # a scheduling signal inside a routing action must not validate
        bad = {
            "version": 1, "name": "x", "domain": "routing",
            "tree": {"action": "score", "weights": {"backlog": 1.0}},
        }
        with pytest.raises(ValueError, match="backlog"):
            PolicyDoc.from_obj(bad)

    def test_wrong_domain_tiebreak_rejected(self):
        bad = {
            "version": 1, "name": "x", "domain": "scheduling",
            "tree": {"action": "score", "weights": {}, "tiebreak": "seeded"},
        }
        with pytest.raises(ValueError, match="seeded"):
            PolicyDoc.from_obj(bad)

    def test_error_messages_carry_json_path(self):
        bad = {
            "version": 1, "name": "x", "domain": "routing",
            "tree": {
                "if": {"any": [{"const": True}, {"signal": "dist"}]},
                "then": {"action": "score", "weights": {}},
                "else": {"action": "score", "weights": {}},
            },
        }
        with pytest.raises(ValueError, match=r"any\[1\]"):
            PolicyDoc.from_obj(bad)

    def test_field_mutations_parse_or_raise_value_error(self):
        """Every field of ``policies/hot_spot_router.json``, nested ones
        included, set to null, 7, "x", [] or {}, or deleted: the document
        parses or raises ValueError (a list or object as a condition's
        ``signal`` or ``op`` used to raise TypeError)."""

        def fields(obj, path=()):
            items = obj.items() if isinstance(obj, dict) else enumerate(obj)
            for key, value in items:
                yield path + (key,)
                if isinstance(value, (dict, list)):
                    yield from fields(value, path + (key,))

        base = json.loads((REPO / "policies" / "hot_spot_router.json").read_text())
        n_mutations = n_rejected = 0
        for path in fields(base):
            for value in (None, 7, "x", [], {}, "delete"):
                obj = copy.deepcopy(base)
                parent = obj
                for key in path[:-1]:
                    parent = parent[key]
                if value == "delete":
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
                n_mutations += 1
                try:
                    PolicyDoc.from_obj(obj)
                except ValueError:
                    n_rejected += 1
        assert n_mutations == 6 * len(list(fields(base)))
        assert n_rejected > 0

    @pytest.mark.parametrize("key", ["signal", "op"])
    @pytest.mark.parametrize("value", [[], {}, 7])
    def test_condition_signal_and_op_must_be_strings(self, key, value):
        doc = json.loads((REPO / "policies" / "hot_spot_router.json").read_text())
        doc["tree"]["if"][key] = value
        with pytest.raises(ValueError, match=f'policy tree: tree.if: "{key}" must be a string'):
            PolicyDoc.from_obj(doc)

    def test_detour_margin_is_routing_only(self):
        bad = {
            "version": 1, "name": "x", "domain": "scheduling",
            "tree": {"action": "score", "weights": {}, "detour_margin": 1.0},
        }
        with pytest.raises(ValueError, match="detour_margin"):
            PolicyDoc.from_obj(bad)


class TestEvaluation:
    @settings(max_examples=60)
    @given(st.data())
    def test_pure_and_deterministic(self, data):
        domain = data.draw(st.sampled_from(("scheduling", "routing")))
        tree = data.draw(_trees(domain))
        signals = data.draw(_signals(domain))
        tree_before = copy.deepcopy(tree)
        signals_before = dict(signals)
        first = evaluate(tree, signals)
        second = evaluate(tree, signals)
        assert first == second
        assert tree == tree_before, "evaluation mutated the tree"
        assert signals == signals_before, "evaluation mutated the signals"
        assert first.get("action") == "score"

    def test_missing_signals_read_as_zero(self):
        tree = {
            "if": {"signal": "dist", "op": "gt", "value": 0.5},
            "then": {"action": "score", "weights": {}, "bias": 1.0},
            "else": {"action": "score", "weights": {}, "bias": 2.0},
        }
        assert evaluate(tree, {})["bias"] == 2.0
        assert evaluate(tree, {"dist": 3})["bias"] == 1.0


def _tree_scenario():
    """hot_spot.json (two jobs) driven by tree documents in both domains."""
    sc = Scenario.from_json(REPO / "scenarios" / "hot_spot.json")
    router = {
        "version": 1, "name": "spread", "domain": "routing",
        "tree": {
            "if": {"signal": "max_link_ewma", "op": "ge", "value": 0.5},
            "then": {"action": "score",
                     "weights": {"cycle_picks": 1.0, "link_ewma": 1.0},
                     "tiebreak": "seeded"},
            "else": {"action": "score", "weights": {}, "tiebreak": "index"},
        },
    }
    policy = {
        "version": 1, "name": "fairlike", "domain": "scheduling",
        "tree": {"action": "score",
                 "weights": {"virtual_time": 1.0, "backlog": -0.001}},
    }
    import dataclasses

    return dataclasses.replace(sc, router=router, policy=policy)


class TestTreePolicies:
    def test_make_policy_and_router_accept_docs(self):
        policy = make_policy({
            "version": 1, "name": "p", "domain": "scheduling",
            "tree": {"action": "score", "weights": {}},
        })
        assert isinstance(policy, TreeSchedulerPolicy)
        assert policy.name == "tree:p"
        router = make_router({
            "version": 1, "name": "r", "domain": "routing",
            "tree": {"action": "score", "weights": {}},
        })
        assert isinstance(router, TreeRouter)

    def test_bare_tree_name_needs_document(self):
        with pytest.raises(ValueError, match="document"):
            make_policy("tree")
        with pytest.raises(ValueError, match="document"):
            make_router("tree")

    def test_wrong_domain_rejected(self):
        sched_doc = {"version": 1, "name": "p", "domain": "scheduling",
                     "tree": {"action": "score", "weights": {}}}
        route_doc = {"version": 1, "name": "r", "domain": "routing",
                     "tree": {"action": "score", "weights": {}}}
        with pytest.raises(ValueError, match="domain"):
            make_policy(route_doc)
        with pytest.raises(ValueError, match="domain"):
            make_router(sched_doc)
        with pytest.raises(ValueError, match="domain"):
            Scenario.from_obj({
                "version": 1, "name": "s",
                "host": {"name": "xtree", "args": [4]},
                "policy": route_doc,
                "jobs": [{"name": "a", "program": "reduction", "tree_n": 15,
                          "capacity": 4, "height": 4}],
            })

    def test_scenario_document_round_trip(self):
        sc = _tree_scenario()
        d = sc.as_dict()
        assert Scenario.from_obj(d).as_dict() == d
        assert json.loads(json.dumps(d)) == d

    def test_checkpoint_restores_tree_policies_bit_identically(self):
        sc = _tree_scenario()
        full = run_scenario(sc).as_dict()
        for cut in (1, 4, 9):
            rt = sc.build_runtime()
            for _ in range(cut):
                if rt.step() is None:
                    break
            blob = json.dumps(rt.checkpoint())
            restored = Runtime.restore(json.loads(blob))
            assert restored.policy.name == rt.policy.name
            assert restored.run().as_dict() == full, f"cut at step {cut}"

    def test_checkpoint_with_queue_weight_restores(self):
        # earlier builds wrote the tree router's unused queue_weight into
        # every checkpoint; such a checkpoint still resumes exactly
        sc = _tree_scenario()
        full = run_scenario(sc).as_dict()
        rt = sc.build_runtime()
        for _ in range(4):
            rt.step()
        state = json.loads(json.dumps(rt.checkpoint()))
        assert state["router"]["name"] == "tree"
        assert "queue_weight" not in state["router"]["params"]
        state["router"]["params"]["queue_weight"] = 0.5
        assert Runtime.restore(state).run().as_dict() == full

    def test_runtime_result_is_canonical_json(self):
        # the fixed-point contract callers used to re-derive by hand with
        # json.loads(json.dumps(...)) — now guaranteed at the source
        d = run_scenario(_tree_scenario()).as_dict()
        assert json.loads(json.dumps(d)) == d


class TestTuner:
    def _scenarios(self):
        return [
            Scenario.from_json(REPO / "scenarios" / "hot_spot_terminal.json"),
            Scenario.from_json(REPO / "scenarios" / "hot_spot_interior.json"),
        ]

    def test_unknown_template_and_method_rejected(self):
        with pytest.raises(ValueError, match="template"):
            tune("nope", self._scenarios(), budget=1)
        with pytest.raises(ValueError, match="method"):
            tune("route-hotspot", self._scenarios(), method="anneal", budget=1)
        with pytest.raises(ValueError, match="budget"):
            tune("route-hotspot", self._scenarios(), budget=0)
        with pytest.raises(ValueError, match="scenario"):
            tune("route-hotspot", [], budget=1)

    def test_seeded_sweep_reproduces_exactly(self, tmp_path):
        logs = []
        for i in range(2):
            path = tmp_path / f"log{i}.json"
            tune("route-hotspot", self._scenarios(), method="random",
                 budget=3, seed=7, log_path=path)
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    def test_log_records_every_candidate(self):
        res = tune("route-hotspot", self._scenarios(), method="random",
                   budget=5, seed=0)
        assert len(res.log["candidates"]) == 5
        assert res.objective == min(
            c["objective"] for c in res.log["candidates"])
        assert res.log["best"]["objective"] == res.objective

    def test_apply_policy_dispatches_by_domain(self):
        sc = self._scenarios()[0]
        route = tune("route-hotspot", [sc], method="grid", budget=1).doc
        applied = apply_policy(sc, route)
        assert applied.router == route.as_dict()
        assert applied.policy == sc.policy
        sched = tune("sched-fair", [sc], method="grid", budget=1).doc
        applied = apply_policy(sc, sched)
        assert applied.policy == sched.as_dict()
        assert applied.router == sc.router

    def test_evaluate_doc_totals_per_scenario(self):
        scs = self._scenarios()
        doc = tune("route-hotspot", scs, method="grid", budget=1).doc
        out = evaluate_doc(doc, scs)
        assert out["total"] == sum(out["per_scenario"].values())
        assert set(out["per_scenario"]) == {sc.name for sc in scs}

    def test_provenance_names_the_sweep(self):
        res = tune("route-hotspot", self._scenarios(), method="grid",
                   budget=2, seed=3)
        prov = res.doc.provenance
        assert prov["method"] == "grid" and prov["seed"] == 3
        assert prov["objective"] == res.objective
        assert set(prov["baselines"]) == {"deterministic", "adaptive"}


class TestCommittedPolicies:
    def test_committed_documents_validate(self):
        docs = sorted((REPO / "policies").glob("*.json"))
        assert docs, "policies/ has no committed documents"
        for path in docs:
            if path.name.endswith(".tuning.json"):
                log = json.loads(path.read_text())
                assert log["version"] == 1
                assert log["candidates"], path.name
                continue
            doc = PolicyDoc.from_json(path)
            assert doc.provenance is not None, (
                f"{path.name} has no provenance: committed winners must "
                "say how they were produced"
            )

    def test_committed_router_still_beats_baselines(self):
        # the full gate lives in benchmarks/bench_policy.py; here: cheap
        # sanity that the committed provenance objective reproduces
        doc = PolicyDoc.from_json(REPO / "policies" / "hot_spot_router.json")
        scs = [
            Scenario.from_json(REPO / "scenarios" / f"{n}.json")
            for n in ("hot_spot_terminal", "hot_spot_interior")
        ]
        total = sum(run_scenario(apply_policy(sc, doc)).makespan for sc in scs)
        assert total == doc.provenance["objective"]


class TestCli:
    def test_tune_writes_doc_and_log(self, tmp_path, capsys):
        out = tmp_path / "doc.json"
        log = tmp_path / "log.json"
        rc = cli_main([
            "tune", "route-hotspot",
            "--scenario", str(REPO / "scenarios" / "hot_spot_terminal.json"),
            "--method", "random", "--budget", "2", "--seed", "0",
            "--out", str(out), "--log", str(log),
        ])
        assert rc == 0
        PolicyDoc.from_json(out)  # validates
        assert json.loads(log.read_text())["budget"] == 2
        assert "tuned" in capsys.readouterr().out

    def test_runtime_policy_override(self, capsys):
        for scenario in ("hot_spot_interior", "hot_spot_terminal"):
            rc = cli_main([
                "runtime",
                str(REPO / "scenarios" / f"{scenario}.json"),
                "--policy", str(REPO / "policies" / "hot_spot_router.json"),
            ])
            assert rc == 0

    def test_simulate_rejects_scheduling_document(self, tmp_path, capsys):
        doc = tmp_path / "sched.json"
        doc.write_text(json.dumps({
            "version": 1, "name": "s", "domain": "scheduling",
            "tree": {"action": "score", "weights": {}},
        }))
        rc = cli_main(["simulate", "--height", "3", "--program", "reduction",
                       "--policy", str(doc)])
        assert rc == 1
        assert "routing" in capsys.readouterr().err

    def test_simulate_accepts_routing_document(self, capsys):
        rc = cli_main([
            "simulate", "--height", "3", "--program", "reduction",
            "--policy", str(REPO / "policies" / "hot_spot_router.json"),
        ])
        assert rc == 0
        assert "tree:route-hotspot" in capsys.readouterr().out

    def test_bad_policy_file_is_an_error(self, tmp_path, capsys):
        doc = tmp_path / "bad.json"
        doc.write_text('{"version": 1}')
        rc = cli_main(["simulate", "--height", "3", "--program", "reduction",
                       "--policy", str(doc)])
        assert rc == 1
        assert "bad policy document" in capsys.readouterr().err
