"""The gate runner's own checks: exact anchors, and cases that fail."""

from __future__ import annotations

from types import SimpleNamespace

import gates


def _result(name="case", **values):
    return {"bench": "demo", "name": name, "params": {"n": 1},
            "gated": True, "passed": True, **values}


def _record(*results):
    return {gates.anchor_key(r): gates.anchored(r) for r in results}


class TestCompare:
    def test_equal_records_pass(self):
        assert gates.compare(_record(_result(cycles=5)), _record(_result(cycles=5))) == []

    def test_changed_value_fails_naming_both(self):
        (line,) = gates.compare(_record(_result(cycles=5)), _record(_result(cycles=6)))
        assert line == 'demo/case {"n":1} cycles: anchored 5, fresh 6'

    def test_missing_entry_fails(self):
        (line,) = gates.compare(_record(_result(), _result("gone")), _record(_result()))
        assert line.startswith('demo/gone {"n":1}: missing')

    def test_extra_entry_fails(self):
        (line,) = gates.compare(_record(_result()), _record(_result(), _result("new")))
        assert line.startswith('demo/new {"n":1}: not anchored')

    def test_missing_and_extra_field_fail(self):
        lines = gates.compare(_record(_result(a=1)), _record(_result(b=1)))
        assert lines == ['demo/case {"n":1} a: anchored 1, fresh <absent>',
                         'demo/case {"n":1} b: anchored <absent>, fresh 1']

    def test_timing_never_takes_part(self):
        slow = _result(cycles=5, timing={"wall_s": 9.0, "speedup": 1.5})
        fast = _result(cycles=5, timing={"wall_s": 0.1, "speedup": 40.0})
        assert "timing" not in gates.anchored(slow)
        assert gates.compare(_record(slow), _record(fast)) == []

    def test_machine_decided_values_are_not_anchored(self):
        load = _result("concurrent_load_bit_identity", n_done=12,
                       shards_used=2, jobs_per_shard={"0": 7, "1": 5})
        assert gates.anchored(load) == {"gated": True, "passed": True, "n_done": 12}


class TestRunCases:
    @staticmethod
    def _run(*cases):
        return gates.run_cases({"demo": SimpleNamespace(run=lambda smoke: list(cases))}, True)

    def test_case_that_raises_is_a_failed_gate(self, capsys):
        def broken():
            raise AssertionError("traced stats differ")

        def fine():
            return {"name": "fine", "params": {}, "gated": True, "passed": True}

        results, failures = self._run(broken, fine)
        assert [r["name"] for r in results] == ["fine"]
        assert failures == ["demo/broken raised AssertionError('traced stats differ')"]
        assert "FAIL  demo/broken raised" in capsys.readouterr().out

    def test_only_gated_results_that_did_not_pass_fail(self):
        def rows():
            return [
                {"name": "kept", "gated": True, "passed": True},
                {"name": "broken", "gated": True, "passed": False, "gate": "x<=2"},
                {"name": "warned", "gated": False, "passed": False},
            ]

        results, failures = self._run(rows)
        assert [r["bench"] for r in results] == ["demo"] * 3
        assert failures == ["demo/broken {} failed its gate x<=2"]
