"""Pinned outputs of the reference delivery loop across its modes.

``SynchronousNetwork.deliver_classic`` is the executable spec the vector
kernel is diffed against, and every fault, integrity, latency and
observability feature lives in it alone.  These tests pin everything it
makes observable with one sha256 per mode:

* the canonical :class:`~repro.simulate.engine.DeliveryStats` of every
  delivery, plus the network's quarantine and corruption-EWMA state after
  it (the integrity state checkpoints carry);
* the streamed :class:`~repro.obs.TraceRecorder` file: every event and
  per-cycle sample in capture order, then the summary header;
* the program-level result.

Each mode runs a program through a Theorem 1 embedding on X(4); barrier
mode restarts the cycle count per superstep, so fault schedules run with
``fault_offset > 0``.  An untraced rerun must return the same stats.  The
runtime scenarios that exercise repair, partition and byzantine recovery
are pinned the same way, by a sha256 of ``RuntimeResult.as_dict()``,
and the payload-carrying :func:`~repro.simulate.simulated_reduction` and
:func:`~repro.simulate.simulated_prefix` by one sha256 of their result,
cycles, fault report, deliveries and streamed trace per mode.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core import theorem1_embedding
from repro.obs import TraceRecorder
from repro.service.scenario import Scenario, run_scenario
from repro.simulate import (
    PROGRAMS,
    FaultEvent,
    FaultSchedule,
    Message,
    SynchronousNetwork,
    simulate_on_host,
    simulated_prefix,
    simulated_reduction,
)
from repro.trees import make_tree, theorem1_guest_size

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

_TREE = make_tree("random", theorem1_guest_size(4), seed=1)
_EMBEDDING = theorem1_embedding(_TREE).embedding
_HOST = _EMBEDDING.host


def _canon(obj):
    """JSON-safe form with every mapping sorted by the repr of its keys."""
    if dataclasses.is_dataclass(obj):
        return _canon(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return sorted([repr(k), _canon(v)] for k, v in obj.items())
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, float):
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return repr(obj)


def _capture(monkeypatch) -> list:
    """Record the stats and integrity state of every delivery from now on."""
    records = []
    real = SynchronousNetwork.deliver_scheduled

    def spy(self, schedule, **kwargs):
        stats = real(self, schedule, **kwargs)
        records.append((stats, dict(self.quarantined), dict(self.corruption_ewma)))
        return stats

    monkeypatch.setattr(SynchronousNetwork, "deliver_scheduled", spy)
    return records


def _failed_links_bsp(program, recorder):
    """Barrier supersteps on a host with statically failed links and no
    fault schedule (the unreachable-raises, non-fault-mode path)."""
    net = SynchronousNetwork(
        _HOST, failed_links=[((1, 0), (2, 0)), ((2, 1), (2, 2)), ((3, 4), (3, 5))]
    )
    phi = _EMBEDDING.phi
    msg_id = 0
    per_step = []
    for k, step in enumerate(program.supersteps):
        if recorder is not None:
            recorder.begin_phase(f"{program.name}[{k}]")
        schedule = []
        for src, dst in step:
            schedule.append((0, Message(msg_id, phi[src], phi[dst])))
            msg_id += 1
        per_step.append(net.deliver_scheduled(schedule, recorder=recorder).cycles)
    return per_step


def _chaos_faults():
    return FaultSchedule.chaos(
        _HOST, n_cycles=120, link_rate=0.3, node_rate=0.05, seed=3, heal_after=6
    )


def _byzantine_chaos_faults():
    return FaultSchedule.chaos(
        _HOST, n_cycles=120, link_rate=0.1, corrupt_rate=0.2, flaky_rate=0.2,
        seed=5, byzantine_p=0.3,
    )


def _slow_faults():
    return FaultSchedule([
        FaultEvent(2, "delay_link", (1, 0), (2, 0), delay=3),
        FaultEvent(3, "delay_link", (2, 1), (3, 2), delay=2),
        FaultEvent(40, "delay_link", (1, 0), (2, 0), delay=0),
    ])


#: mode -> (program, simulate_on_host keyword arguments)
MODES = {
    "chaos_ttl": ("neighbor_exchange", lambda: {"faults": _chaos_faults(), "ttl": 12}),
    "chaos_ttl_pipelined": (
        "neighbor_exchange",
        lambda: {"faults": _chaos_faults(), "ttl": 12, "barrier": False},
    ),
    "byzantine_chaos": ("neighbor_exchange", lambda: {"faults": _byzantine_chaos_faults()}),
    # three bad crossings quarantine the link; it probe-heals 24 cycles
    # later, in a later superstep, and keeps corrupting
    "quarantine_probe_heal": (
        "neighbor_exchange",
        lambda: {
            "faults": FaultSchedule.byzantine_link(
                (1, 0), (2, 0), corrupt_at=1, rate=0.9, seed=7
            )
        },
    ),
    "slow_links": ("neighbor_exchange", lambda: {"faults": _slow_faults()}),
    "adaptive_router": ("permutation", lambda: {"router": "adaptive"}),
    "recorder_only": ("permutation", lambda: {}),
    "failed_links_no_schedule": ("hot_spot", None),
    "link_capacity_2": ("hot_spot", lambda: {"link_capacity": 2}),
}

MODE_SHA256 = {
    "chaos_ttl": "be8a26a120fc7f201219beb321fa365cd8a2e1804eb8cdeb8a544052549239f3",
    "chaos_ttl_pipelined": "a373f560bd9361fe1fc041bcbe8c166e2544ff06db03bc552d8084fd01850e5d",
    "byzantine_chaos": "617c66daa2a840361f91f60fa4f94dafd8c88cafb4de8568c86f018d2374481d",
    "quarantine_probe_heal": "96e6bafb66da0264ab4d87dad834c30c933c2d886e93a0896bb7ce38a853b2a3",
    "slow_links": "0145e2c36d8ab7ef2e7a087b48551fb7e8b4586d668ddaabf852951247fd954a",
    "adaptive_router": "a7389944709084ba24c5e689123914919512a694c5da92c1e4af39dc95e2d8fa",
    "recorder_only": "2c02a94dcd66488d390185f43e795e90e25cd5e43afd9c27c66c10cfed8fc3e6",
    "failed_links_no_schedule": "6c6712356954a12829c6ee44f345769a72ff2c5fa9491064f9b8edb84e61ec82",
    "link_capacity_2": "c88b9ba9b54558e4ef6b95b98ac2a88f67e0bf450ba1a0e27b93709dea73ce5e",
}

SCENARIO_SHA256 = {
    "chaos": "7350a582203b095ad5be9562fa7032e606daea9108b0a7a951968512f393c8f0",
    "partition": "0ead1a6a31c6e8110d66f0c22a40b124aa638ebaad6c4e18951522d4383c8026",
    "byzantine": "311cb5f1e8c5fc0d5be6b8b42a7627b8d0b5259a9bdcc173610d8d9bac0bf7d6",
    "byzantine_storm": "9023ba242dbaf1800b0e96d129ae9314c5ff3f39d585ef938d7467ff479422bc",
}


def _run_mode(mode: str, recorder):
    program_name, kwargs = MODES[mode]
    program = PROGRAMS[program_name](_TREE)
    if kwargs is None:
        return _failed_links_bsp(program, recorder)
    return simulate_on_host(program, _EMBEDDING, recorder=recorder, **kwargs())


@pytest.mark.parametrize("mode", sorted(MODES))
def test_reference_loop_mode_pinned(mode, monkeypatch, tmp_path):
    records = _capture(monkeypatch)
    trace = tmp_path / "trace.jsonl"
    with TraceRecorder(path=trace) as recorder:
        result = _run_mode(mode, recorder)
    traced = [_canon(r) for r in records]
    records.clear()
    untraced_result = _run_mode(mode, None)
    assert [_canon(r[0]) for r in records] == [r[0] for r in traced]
    assert _canon(untraced_result) == _canon(result)
    doc = {
        "deliveries": traced,
        "result": _canon(result),
        "trace": trace.read_text(encoding="utf-8").splitlines(),
    }
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == MODE_SHA256[mode], (mode, digest)


@pytest.mark.parametrize("name", sorted(SCENARIO_SHA256))
def test_runtime_scenario_pinned(name):
    result = run_scenario(Scenario.from_json(SCENARIOS / f"{name}.json"))
    digest = hashlib.sha256(
        json.dumps(result.as_dict(), sort_keys=True).encode()
    ).hexdigest()
    assert digest == SCENARIO_SHA256[name], (name, digest)


#: fault mode -> keyword arguments shared by the two compute functions
COMPUTE_MODES = {
    "recorder_only": lambda: {},
    # a TTL tight enough that both programs lose messages, so the report's
    # (superstep, msg_id) keys are pinned too
    "chaos_ttl": lambda: {"faults": _chaos_faults(), "ttl": 4},
    "byzantine_chaos": lambda: {"faults": _byzantine_chaos_faults()},
}

COMPUTE_FUNCTIONS = {"reduction": simulated_reduction, "prefix": simulated_prefix}

COMPUTE_SHA256 = {
    "prefix:byzantine_chaos": "084f16f57b656789ac1fb55beebb4eb64ad5719c93bb24dd15dd74d8ea3b3d1c",
    "prefix:chaos_ttl": "ec1b4617014a317757b5ea093c9fdda3d7377f34dd85d861a42de5e5413585da",
    "prefix:recorder_only": "d7c1340728feb22ccd263c98dfcaccc9602f6d186e561bd47f6abf61138ac1bc",
    "reduction:byzantine_chaos": "24054d9cf8b164d48cc68d7525a7c4bd437fe33278e66b6b0c4898f9f5e4f78b",
    "reduction:chaos_ttl": "184b5aed850d8d1b07786ac0152c234548341d1032eb0d7d54cfc75efb3afc34",
    "reduction:recorder_only": "80339d6d74e017292297c426bdb2ceeaca4d49155525b7a17ba6d309cda08eda",
}


@pytest.mark.parametrize("mode", sorted(COMPUTE_MODES))
@pytest.mark.parametrize("function", sorted(COMPUTE_FUNCTIONS))
def test_compute_mode_pinned(function, mode, monkeypatch, tmp_path):
    compute = COMPUTE_FUNCTIONS[function]
    values = [(7 * v + 3) % 101 for v in range(_EMBEDDING.guest.n)]
    records = _capture(monkeypatch)
    trace = tmp_path / "trace.jsonl"
    with TraceRecorder(path=trace) as recorder:
        result = compute(_EMBEDDING, values, recorder=recorder, **COMPUTE_MODES[mode]())
    traced = [_canon(r) for r in records]
    untraced_result = compute(_EMBEDDING, values, **COMPUTE_MODES[mode]())
    assert _canon(untraced_result) == _canon(result)
    doc = {
        "deliveries": traced,
        "result": _canon(result),
        "trace": trace.read_text(encoding="utf-8").splitlines(),
    }
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    key = f"{function}:{mode}"
    assert digest == COMPUTE_SHA256[key], (key, digest)
