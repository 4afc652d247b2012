"""Phase bookkeeping fixes and recorder threading through the compute layer.

Two PR-3 satellites:

* a recorder driven without any :meth:`~repro.obs.Recorder.begin_phase`
  call (direct ``deliver`` use) renders cleanly — the implicit phase 0
  appears as ``(unphased)`` in :func:`trace_summary_text` and
  :func:`metrics_report`, and a later explicit phase does not steal or
  mislabel the early samples;
* :func:`simulated_reduction` / :func:`simulated_prefix` accept
  ``recorder`` (one phase per superstep, like ``simulate_on_host``) and
  ``router``, with unchanged numeric results either way.
"""

from __future__ import annotations

import pytest

from repro.analysis.trace_report import metrics_report, trace_summary_text
from repro.core import theorem1_embedding
from repro.networks import Grid2D
from repro.obs import TraceRecorder, span_summary
from repro.simulate import (
    Message,
    SynchronousNetwork,
    simulated_prefix,
    simulated_reduction,
)
from repro.trees import make_tree, theorem1_guest_size


def _deliver_some(net, recorder, base_id=0):
    msgs = [
        Message(base_id, (0, 0), (1, 2)),
        Message(base_id + 1, (1, 2), (0, 0)),
        Message(base_id + 2, (0, 1), (1, 1)),
    ]
    return net.deliver(msgs, recorder=recorder)


class TestUnphasedTraces:
    def test_phaseless_summary_renders(self):
        rec = TraceRecorder()
        _deliver_some(SynchronousNetwork(Grid2D(2, 3)), rec)
        text = trace_summary_text(rec)
        assert "(unphased)" in text
        assert "3/3 messages delivered" in text
        assert "phase 0" not in text  # no raw-index fallback labels

    def test_phaseless_metrics_report_renders(self):
        rec = TraceRecorder()
        _deliver_some(SynchronousNetwork(Grid2D(2, 3)), rec)
        text = metrics_report(rec)
        assert "(unphased)" in text

    def test_phaseless_summary_counts_no_phase(self):
        rec = TraceRecorder()
        _deliver_some(SynchronousNetwork(Grid2D(2, 3)), rec)
        assert rec.phases == []
        assert rec.summary()["n_phases"] == 0
        assert all(s.phase == 0 for s in rec.cycles)

    def test_implicit_then_explicit_phase_keeps_labels(self):
        """Unphased traffic followed by begin_phase must not relabel the
        early samples: the explicit phase gets index 1, not 0."""
        rec = TraceRecorder()
        net = SynchronousNetwork(Grid2D(2, 3))
        _deliver_some(net, rec)
        rec.begin_phase("wave")
        _deliver_some(net, rec, base_id=10)
        assert rec.phases == ["(unphased)", "wave"]
        phases_seen = {s.phase for s in rec.cycles}
        assert phases_seen == {0, 1}
        text = trace_summary_text(rec)
        assert "(unphased)" in text and "wave" in text

    def test_explicit_first_phase_has_no_unphased_entry(self):
        """begin_phase before any traffic: nothing to backfill."""
        rec = TraceRecorder()
        rec.begin_phase("only")
        _deliver_some(SynchronousNetwork(Grid2D(2, 3)), rec)
        assert rec.phases == ["only"]
        assert "(unphased)" not in trace_summary_text(rec)

    def test_empty_recorder_renders(self):
        text = trace_summary_text(TraceRecorder())
        assert "0/0 messages delivered" in text


@pytest.fixture(scope="module")
def embedding():
    tree = make_tree("random", theorem1_guest_size(2), seed=0)
    return theorem1_embedding(tree).embedding


class TestComputeRecorder:
    def test_reduction_records_one_phase_per_superstep(self, embedding):
        values = list(range(embedding.guest.n))
        rec = TraceRecorder()
        result, cycles = simulated_reduction(embedding, values, recorder=rec)
        assert result == sum(values)
        assert cycles > 0
        assert rec.phases == [
            f"reduction[{k}]" for k in range(len(rec.phases))
        ] and rec.phases
        assert rec.tally["delivered"] == rec.tally["inject"] > 0
        assert "reduction[0]" in trace_summary_text(rec)

    def test_prefix_records_one_phase_per_superstep(self, embedding):
        values = [1] * embedding.guest.n
        rec = TraceRecorder()
        out, cycles = simulated_prefix(embedding, values, recorder=rec)
        depths = embedding.guest.depths()
        assert out == [depths[v] for v in range(embedding.guest.n)]
        assert rec.phases and all(p.startswith("broadcast[") for p in rec.phases)

    def test_recorder_does_not_change_results(self, embedding):
        values = [3 * v + 1 for v in range(embedding.guest.n)]
        plain = simulated_reduction(embedding, values)
        traced = simulated_reduction(embedding, values, recorder=TraceRecorder())
        assert plain == traced

    def test_router_threads_through(self, embedding):
        """An adaptive router changes routes, never the computed value."""
        values = list(range(embedding.guest.n))
        for fn, check in (
            (simulated_reduction, lambda r: r == sum(values)),
            (simulated_prefix, lambda r: len(r) == embedding.guest.n),
        ):
            result, cycles = fn(embedding, values, router="adaptive")
            assert check(result)
            assert cycles > 0

    def test_compute_emits_spans(self, embedding):
        values = [0] * embedding.guest.n
        simulated_reduction(embedding, values)
        simulated_prefix(embedding, values)
        summary = span_summary()
        assert "simulate.reduction" in summary
        assert "simulate.prefix" in summary
