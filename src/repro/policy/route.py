"""Tree-policy routing: a :class:`PolicyDoc` driving next-hop scoring.

:class:`TreeRouter` subclasses :class:`~repro.simulate.routing.AdaptiveRouter`
and re-parameterises its score hook per routing decision: when the engine
asks for a next hop, the candidates are classified as usual, one
decision-level snapshot is taken (distances, candidate counts, EWMA
aggregates, detour budget, fault state), the policy tree evaluates to a
leaf action, and that action decides how this particular decision scores
its candidates — which feedback signals to weigh, how to break ties, and
what detour margin applies.  All the learned feedback (link/queue EWMAs,
per-cycle picks, sticky last-picks) is inherited from the adaptive
router, as is its checkpoint format, so tree routers ride the existing
bit-identical resume machinery.

The two built-in regimes are expressible as leaf actions:

* deterministic — ``{"action": "score", "weights": {}, "tiebreak":
  "index"}``: every candidate ties at zero and the canonical node index
  decides, which is exactly :class:`ShortestPathRouter`'s rule (parity is
  gated in ``tests/test_policy.py``);
* adaptive — ``{"action": "score", "weights": {"cycle_picks": 1.0,
  "link_ewma": 1.0, "queue_ewma": 0.5}, "tiebreak": "seeded"}``: the
  adaptive router's default scoring.

A tree that *conditions* on live congestion to switch between those
regimes is how the §7 terminal-bound hot-spot regression is closed: stay
deterministic while signals are cold (adaptive routing's losses there
come from committing flows on empty estimates), spread only when the
minimal links are measurably hot (see ``policies/`` and
``benchmarks/bench_policy.py``).
"""

from __future__ import annotations

from ..simulate.routing import AdaptiveRouter, Node
from .dsl import PolicyDoc, evaluate

__all__ = ["TreeRouter"]


class TreeRouter(AdaptiveRouter):
    """Route by evaluating a declarative policy tree per decision.

    Constructor knobs mirror :class:`AdaptiveRouter` (EWMA smoothing,
    detour budget/margin, tie-break seed) minus ``hysteresis``: sticky
    damping is a *policy* here — a tree opts in by weighting
    ``is_last_pick`` negatively — so the implicit mechanism stays off and
    everything the router does is readable from the document.
    """

    def __init__(
        self,
        doc: PolicyDoc | dict,
        *,
        ewma_alpha: float = 0.5,
        queue_weight: float = 0.5,
        detour_budget: int = 0,
        detour_margin: float = 2.0,
        seed: int = 0,
    ):
        super().__init__(
            ewma_alpha=ewma_alpha,
            queue_weight=queue_weight,
            detour_budget=detour_budget,
            detour_margin=detour_margin,
            hysteresis=0.0,
            seed=seed,
        )
        if isinstance(doc, dict):
            doc = PolicyDoc.from_obj(doc)
        if doc.domain != "routing":
            raise ValueError(
                f"policy document {doc.name!r} has domain {doc.domain!r}; "
                f'a router needs domain "routing"'
            )
        self.doc = doc
        #: the base margin the document's actions may override per decision
        self._base_margin = detour_margin
        # current decision's action parameters (set by _begin_decision;
        # next_hop always calls it before any scoring happens)
        self._weights: dict = {}
        self._bias = 0.0
        self._tb_index = False
        self._cur_dst: Node | None = None

    # -- per-decision re-parameterisation -------------------------------
    def _decision_signals(
        self,
        node: Node,
        dst: Node,
        minimal: list[Node],
        sideways: list[Node],
        backwards: list[Node],
        msg_id: int | None,
    ) -> dict:
        le, qe, cp = self._link_ewma, self._queue_ewma, self._cycle_picks
        link_vals = [le.get((node, v), 0.0) for v in minimal]
        queue_vals = [qe.get(v, 0.0) for v in minimal]
        return {
            "dist": float(self.network._dist_table(dst)[node]),
            "n_minimal": float(len(minimal)),
            "n_sideways": float(len(sideways)),
            "n_backwards": float(len(backwards)),
            "max_link_ewma": max(link_vals),
            "min_link_ewma": min(link_vals),
            "max_queue_ewma": max(queue_vals),
            "min_queue_ewma": min(queue_vals),
            "total_picks": float(sum(cp[(node, v)] for v in minimal)),
            "budget": float(
                self._budget.get(msg_id, self.detour_budget)
                if msg_id is not None
                else 0
            ),
            "faulted": 1.0 if self.network.failed else 0.0,
        }

    def _begin_decision(self, node, dst, minimal, sideways, backwards, msg_id):
        action = evaluate(
            self.doc.tree,
            self._decision_signals(node, dst, minimal, sideways, backwards, msg_id),
        )
        self._cur_dst = dst
        self._weights = action.get("weights", {})
        self._bias = action.get("bias", 0.0)
        self._tb_index = action.get("tiebreak", "seeded") == "index"
        self.detour_margin = action.get("detour_margin", self._base_margin)

    # -- scoring under the current action -------------------------------
    def _score(self, node: Node, v: Node) -> float:
        total = self._bias
        for sig, w in self._weights.items():
            if sig == "cycle_picks":
                x = float(self._cycle_picks[(node, v)])
            elif sig == "link_ewma":
                x = self._link_ewma.get((node, v), 0.0)
            elif sig == "queue_ewma":
                x = self._queue_ewma.get(v, 0.0)
            else:  # is_last_pick — validation allows nothing else
                x = 1.0 if self._last_pick.get((node, self._cur_dst)) == v else 0.0
            total += w * x
        return total

    def _tiebreak_key(self, v: Node) -> int:
        if self._tb_index:
            return self.network.topology.index(v)
        return self._tiebreak[v]

    # -- checkpointing ---------------------------------------------------
    def spec(self) -> dict:
        return {
            "name": "tree",
            "doc": self.doc.as_dict(),
            "params": {
                "ewma_alpha": self.ewma_alpha,
                "queue_weight": self.queue_weight,
                "detour_budget": self.detour_budget,
                # the *base* margin: detour_margin itself is scratch state
                # the last decision's action may have overridden
                "detour_margin": self._base_margin,
                "seed": self.seed,
            },
            "state": self.state(),
        }
