"""Next-hop routing policies for :class:`~repro.simulate.engine.SynchronousNetwork`.

The engine historically hard-coded one policy: shortest path, ties broken
towards the smallest canonical node index.  That is deterministic and
optimal per message, but adversarial traffic (many sources aiming at one
hot node) piles every tied flow onto the same link while equally short
alternatives sit idle — congestion, not dilation, then dominates the
measured slowdown (DESIGN.md section 5; the paper's Theorem 1 controls
dilation and *load*, so bounded congestion is what turns its guarantee
into bounded slowdown).

This module extracts the policy behind a small :class:`Router` protocol:

* :class:`ShortestPathRouter` — the historical policy, bit-identical to
  :meth:`SynchronousNetwork.next_hop` (it *is* that method, behind the
  protocol).  The engine calls that method directly for any
  non-adaptive router, and the vector kernel serves it too.
* :class:`AdaptiveRouter` — congestion-aware: among the live neighbours
  that make equal progress towards the destination it picks the one with
  the lowest recent load, scored from an EWMA over the engine's own
  per-cycle link utilisation and queue occupancy (the same dicts a
  :class:`~repro.obs.TraceRecorder` samples) plus the picks already made
  this cycle.  Ties break through a seeded pseudo-random permutation of
  the node indices, so runs stay exactly reproducible.  An optional
  *detour budget* allows up to that many non-minimal (sideways) hops per
  message when every minimal link is much busier than a sideways one;
  the budget strictly decreases, so every message still terminates and a
  zero budget preserves shortest-path hop counts exactly.
* :class:`TreeRouter` — the adaptive router re-parameterised per decision
  by a routing-domain :class:`~repro.policy.PolicyDoc`.

Routers are constructed unbound and attached with :meth:`Router.bind`
(the engine does this), so ``SynchronousNetwork(topo, router="adaptive")``
and ``SynchronousNetwork(topo, router=AdaptiveRouter(detour_budget=2))``
both work; :func:`make_router` also takes a policy document.  Every router
writes its recipe and learned state with :meth:`Router.spec`, and
:func:`router_from_spec` builds it back for a checkpoint restore.
"""

from __future__ import annotations

import random
import weakref
from collections import Counter

from .._util import node_from_json as _j2n
from .._util import node_to_json as _n2j
from ..policy import PolicyDoc, evaluate
from .messages import Node, UnreachableError

__all__ = [
    "Router",
    "ShortestPathRouter",
    "AdaptiveRouter",
    "TreeRouter",
    "make_router",
    "router_from_spec",
    "ROUTERS",
]


class Router:
    """Next-hop policy protocol the engine drives.

    ``adaptive = False`` routers are pure functions of ``(node, dst)`` and
    the current failure set; the engine then calls its own
    :meth:`~repro.simulate.engine.SynchronousNetwork.next_hop` directly
    and skips every feedback hook.  ``adaptive = True`` routers receive
    :meth:`begin_delivery` once per delivery and :meth:`end_cycle` after
    every active cycle with the engine's per-cycle state.
    """

    #: when False the engine calls its built-in shortest-path next_hop
    adaptive: bool = False
    network = None

    def bind(self, network) -> "Router":
        """Attach to the network whose traffic this router will steer.

        The network owns its router, so the router keeps a weak proxy of
        it: a dropped network is freed at once, with no reference cycle.
        """
        self.network = weakref.proxy(network)
        return self

    def next_hop(self, node: Node, dst: Node, msg_id: int | None = None) -> Node:
        """The neighbour of ``node`` this message should cross to next."""
        raise NotImplementedError

    def begin_delivery(self) -> None:
        """A new delivery starts: forget per-message state (budgets)."""

    def end_cycle(self, cycle: int, link_use: dict, occupancy: dict) -> None:
        """One active cycle finished.

        ``link_use`` maps each directed link to the messages that actually
        crossed it this cycle; ``occupancy`` maps each node with a
        non-empty output queue to its length — the same dicts the engine
        hands to :meth:`repro.obs.Recorder.on_cycle_end`, so read them and
        do not mutate them.
        """

    def state(self) -> dict | None:
        """JSON-serialisable cross-delivery state, for checkpointing.

        ``None`` means the policy is stateless between deliveries (the
        deterministic router): restoring it needs nothing.  Adaptive
        policies return their learned estimates so a checkpointed run can
        resume bit-identically (see :mod:`repro.runtime`).
        """
        return None

    def load_state(self, state: dict | None) -> None:
        """Restore what :meth:`state` captured (no-op for stateless)."""

    def spec(self) -> dict:
        """Constructor recipe + :meth:`state`, for runtime checkpoints.

        The base form covers every stateless deterministic policy; adaptive
        routers override it with their parameters and learned estimates.
        """
        return {"name": "deterministic", "params": {}, "state": None}


class ShortestPathRouter(Router):
    """The historical deterministic policy, behind the protocol.

    Shortest path with ties broken towards the smallest canonical node
    index — exactly :meth:`SynchronousNetwork.next_hop`, which this class
    delegates to, so engine runs with the default router are bit-identical
    to runs that never heard of routers.
    """

    def next_hop(self, node: Node, dst: Node, msg_id: int | None = None) -> Node:
        return self.network.next_hop(node, dst)


class AdaptiveRouter(Router):
    """Congestion-aware shortest-path routing with seeded tie-breaks.

    Scoring: each candidate next hop ``v`` of a message at ``node`` costs

    ``picks_this_cycle(node, v) + link_ewma(node, v) + queue_weight * queue_ewma(v)``

    where the EWMAs fold in the engine's per-cycle link utilisation and
    queue occupancy with smoothing ``ewma_alpha`` (per active cycle).
    The picks term makes saturation a *soft* cost: a link that already
    absorbed this cycle's capacity scores higher but stays eligible, so a
    message may queue behind a good link rather than spill onto a path
    whose history says it feeds a bottleneck.  Among equal scores a
    seeded pseudo-random permutation of the node indices decides, so a
    fixed seed reproduces a run exactly.

    With ``detour_budget > 0`` a message may spend that budget on
    non-minimal hops when the cheapest minimal candidate is much more
    loaded than a non-minimal one: a *sideways* hop (same distance,
    +1 path length, costs 1 budget) needs a score gap of at least
    ``detour_margin``; an *escape* hop (distance + 1, so +2 path length
    and 2 budget) needs twice that.  Escape hops are what close the
    EXPERIMENTS.md E15 ``k = 2`` degradation spike: when fail-overs leave
    one minimal entry link into a hot node, every remote flow funnels
    into it and serialises while other entries sit idle — the growing
    per-cycle pick count on the funnel link eventually clears the
    ``2 * detour_margin`` bar and queued traffic backs out one level to
    the idle entries.  The budget strictly decreases and an escape costs
    its full path-length penalty up front, so every message still takes
    at most ``distance + budget`` hops and terminates.  Unreachability
    semantics are unchanged: a cut-off destination raises
    :class:`~repro.simulate.engine.UnreachableError` just as the
    deterministic policy does.

    ``hysteresis`` damps tie-break churn: once a ``(node, dst)`` flow has
    chosen a link, it keeps choosing it while its score stays within
    ``hysteresis`` of the momentary best, instead of flip-flopping
    between near-equal candidates every time their EWMAs leapfrog by an
    epsilon.  Stickiness applies only while *live* signal exists: once
    every estimate on a decision has decayed to zero, the remembered pick
    is discarded and the canonical tie-break decides, so a fully cooled
    router routes exactly like a fresh one (regression-tested: a once-hot
    link is re-chosen after its congestion drains).
    ``hysteresis = 0`` restores the old behaviour.  (Measured:
    damping alone does *not* move the E15 spike — that failure mode is
    funnel serialisation, not oscillation — but it stabilises flow
    assignment under chaos churn at no cost.)
    """

    adaptive = True

    def __init__(
        self,
        *,
        ewma_alpha: float = 0.5,
        queue_weight: float = 0.5,
        detour_budget: int = 0,
        detour_margin: float = 2.0,
        hysteresis: float = 0.5,
        seed: int = 0,
    ):
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if detour_budget < 0:
            raise ValueError(f"detour budget must be >= 0, got {detour_budget}")
        if hysteresis < 0:
            raise ValueError(f"hysteresis must be >= 0, got {hysteresis}")
        self.ewma_alpha = ewma_alpha
        self.queue_weight = queue_weight
        self.detour_budget = detour_budget
        self.detour_margin = detour_margin
        self.hysteresis = hysteresis
        self.seed = seed
        self._link_ewma: dict[tuple[Node, Node], float] = {}
        self._queue_ewma: dict[Node, float] = {}
        self._cycle_picks: Counter = Counter()
        self._budget: dict[int, int] = {}
        self._tiebreak: dict[Node, int] = {}
        #: sticky per-flow choice: (node, dst) -> last link taken from node
        self._last_pick: dict[tuple[Node, Node], Node] = {}

    def bind(self, network) -> "AdaptiveRouter":
        super().bind(network)
        topo = network.topology
        order = list(range(topo.n_nodes))
        random.Random(self.seed).shuffle(order)
        self._tiebreak = {v: order[topo.index(v)] for v in topo.nodes()}
        return self

    # -- engine hooks ---------------------------------------------------
    def begin_delivery(self) -> None:
        self._cycle_picks.clear()
        self._budget.clear()

    def end_cycle(self, cycle: int, link_use: dict, occupancy: dict) -> None:
        self._observe(link_use, occupancy)
        self._cycle_picks.clear()

    def _observe(self, link_use: dict, occupancy: dict) -> None:
        """Fold one cycle of engine feedback into the EWMA estimates.

        *Every* previously-seen key decays toward zero on every active
        cycle — links that went idle and nodes whose queues drained to
        empty included — so no congestion estimate outlives the traffic
        that produced it.  A fully cooled, currently idle key is dropped
        from the table entirely: absent and zero score identically, and
        the tables stay proportional to *live* congestion, not to
        everything ever observed.
        """
        alpha = self.ewma_alpha
        decay = 1.0 - alpha
        for table, current in ((self._link_ewma, link_use), (self._queue_ewma, occupancy)):
            for key in list(table):
                cooled = table[key] * decay
                if cooled < 1e-4 and key not in current:
                    del table[key]  # fully cooled and idle: stop tracking
                else:
                    table[key] = cooled
            for key, count in current.items():
                table[key] = table.get(key, 0.0) + alpha * count

    # -- policy ---------------------------------------------------------
    def _score(self, node: Node, v: Node) -> float:
        return (
            self._cycle_picks[(node, v)]
            + self._link_ewma.get((node, v), 0.0)
            + self.queue_weight * self._queue_ewma.get(v, 0.0)
        )

    def _tiebreak_key(self, v: Node) -> int:
        """Secondary sort key among equal scores (the seeded permutation)."""
        return self._tiebreak[v]

    def _best(self, node: Node, candidates: list[Node]) -> tuple[Node, float]:
        """Lowest-score candidate; :meth:`_tiebreak_key` breaks exact ties.

        Saturation is deliberately *not* a hard precedence: hard-preferring
        any unsaturated link forces overflow traffic onto historically bad
        paths even when queueing one cycle behind the good link is cheaper
        (measured: the hard rule costs 5-10% makespan on hot-spot traffic).
        """
        best = None
        best_key = None
        for v in candidates:
            key = (self._score(node, v), self._tiebreak_key(v))
            if best_key is None or key < best_key:
                best, best_key = v, key
        return best, best_key[0]

    def _begin_decision(
        self,
        node: Node,
        dst: Node,
        minimal: list[Node],
        sideways: list[Node],
        backwards: list[Node],
        msg_id: int | None,
    ) -> None:
        """Hook: one routing decision starts, candidates classified.

        The base router scores every decision the same way; subclasses
        (the policy-tree router) re-parameterise scoring per decision from
        this snapshot before :meth:`_best` runs.
        """

    def next_hop(self, node: Node, dst: Node, msg_id: int | None = None) -> Node:
        net = self.network
        if node == dst:
            raise ValueError("message already at destination")
        dist = net._dist_table(dst)
        if node not in dist:
            raise UnreachableError(f"{node!r} cannot reach {dst!r} (failed links)")
        here = dist[node]
        minimal: list[Node] = []
        sideways: list[Node] = []
        backwards: list[Node] = []
        for v in net.live_neighbors(node):
            dv = dist.get(v)
            if dv == here - 1:
                minimal.append(v)
            elif dv == here:
                sideways.append(v)
            elif dv == here + 1:
                backwards.append(v)
        self._begin_decision(node, dst, minimal, sideways, backwards, msg_id)
        hop, score = self._best(node, minimal)
        if self.hysteresis > 0:
            sticky = self._last_pick.get((node, dst))
            if sticky is not None and sticky != hop and sticky in minimal:
                sticky_score = self._score(node, sticky)
                # stale-feedback guard: stickiness only damps churn between
                # *live* near-equal signals.  Once every estimate on this
                # decision has decayed to zero the remembered pick is pure
                # history — honouring it would pin a flow to its flee
                # target forever after the congestion that justified the
                # detour has drained (the once-hot link would never be
                # re-chosen).  With no signal, fall back to the canonical
                # tie-break, which is what a fresh router would do.
                if sticky_score > 0.0 or score > 0.0:
                    if sticky_score <= score + self.hysteresis:
                        hop = sticky
        if msg_id is not None and self.detour_budget > 0:
            remaining = self._budget.get(msg_id, self.detour_budget)
            alt = None
            alt_score = 0.0
            alt_cost = 0
            if remaining >= 1 and sideways:
                v, s = self._best(node, sideways)
                if score - s >= self.detour_margin:
                    alt, alt_score, alt_cost = v, s, 1
            if remaining >= 2 and backwards:
                # escape hop: step *away* from the destination (+2 path
                # length, so it costs 2 budget) to reach an idle entry
                # when every minimal link is a saturated funnel
                v, s = self._best(node, backwards)
                if score - s >= 2 * self.detour_margin and (
                    alt is None or s < alt_score
                ):
                    alt, alt_cost = v, 2
            if alt is not None:
                self._budget[msg_id] = remaining - alt_cost
                hop = alt
        self._last_pick[(node, dst)] = hop
        self._cycle_picks[(node, hop)] += 1
        return hop

    # -- checkpointing ---------------------------------------------------
    def state(self) -> dict:
        """The learned tables, JSON-safe (node tuples become lists)."""
        return {
            "link_ewma": [
                [_n2j(u), _n2j(v), x] for (u, v), x in sorted(self._link_ewma.items())
            ],
            "queue_ewma": [[_n2j(v), x] for v, x in sorted(self._queue_ewma.items())],
            "last_pick": [
                [_n2j(u), _n2j(d), _n2j(v)]
                for (u, d), v in sorted(self._last_pick.items())
            ],
        }

    def load_state(self, state: dict | None) -> None:
        if state is None:
            return
        self._link_ewma = {
            (_j2n(u), _j2n(v)): x for u, v, x in state.get("link_ewma", [])
        }
        self._queue_ewma = {_j2n(v): x for v, x in state.get("queue_ewma", [])}
        self._last_pick = {
            (_j2n(u), _j2n(d)): _j2n(v) for u, d, v in state.get("last_pick", [])
        }

    def spec(self) -> dict:
        return {
            "name": "adaptive",
            "params": {
                "ewma_alpha": self.ewma_alpha,
                "queue_weight": self.queue_weight,
                "detour_budget": self.detour_budget,
                "detour_margin": self.detour_margin,
                "hysteresis": self.hysteresis,
                "seed": self.seed,
            },
            "state": self.state(),
        }


class TreeRouter(AdaptiveRouter):
    """Route by evaluating a routing-domain policy document per decision.

    Each decision classifies the candidates as :class:`AdaptiveRouter`
    does, evaluates the document's tree on one snapshot (distances,
    candidate counts, EWMA aggregates, detour budget, fault state), and
    scores the candidates by the leaf action's weights, tie-break and
    detour margin.  The learned feedback and the checkpoint state are the
    adaptive router's.  The action ``{"action": "score", "weights": {},
    "tiebreak": "index"}`` routes exactly like :class:`ShortestPathRouter`
    (gated in ``tests/test_policy.py``).

    The knobs are :class:`AdaptiveRouter`'s minus ``queue_weight`` (the
    document's weights score every candidate) and ``hysteresis`` (a tree
    opts into stickiness by weighting ``is_last_pick``).
    """

    def __init__(
        self,
        doc: PolicyDoc | dict,
        *,
        ewma_alpha: float = 0.5,
        detour_budget: int = 0,
        detour_margin: float = 2.0,
        seed: int = 0,
    ):
        super().__init__(
            ewma_alpha=ewma_alpha,
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
                "detour_budget": self.detour_budget,
                # the *base* margin: detour_margin itself is scratch state
                # the last decision's action may have overridden
                "detour_margin": self._base_margin,
                "seed": self.seed,
            },
            "state": self.state(),
        }


#: CLI / config names for the built-in policies.  A policy-tree router
#: has no name here: it is built from its policy document.
ROUTERS = {"deterministic": ShortestPathRouter, "adaptive": AdaptiveRouter}


def make_router(spec: Router | str | dict | PolicyDoc | None) -> Router:
    """Resolve ``None`` / a registry name / a ready instance / a policy
    document (a parsed dict or :class:`~repro.policy.PolicyDoc` with
    ``domain == "routing"``) to a Router."""
    if spec is None:
        return ShortestPathRouter()
    if isinstance(spec, Router):
        return spec
    if isinstance(spec, str):
        try:
            return ROUTERS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown router {spec!r}: expected one of {sorted(ROUTERS)} "
                f"or a policy document"
            ) from None
    if isinstance(spec, (dict, PolicyDoc)):
        return TreeRouter(spec)
    raise TypeError(
        f"router must be a Router, a name, a policy document, or None, "
        f"got {type(spec)!r}"
    )


def router_from_spec(spec: dict) -> Router:
    """The inverse of :meth:`Router.spec`: the router a checkpoint names,
    with its learned state loaded.  A tree router's ``queue_weight``, which
    earlier builds wrote and the document's weights overrode, is ignored."""
    params = dict(spec["params"])
    if spec["name"] == "tree":
        params.pop("queue_weight", None)
        router: Router = TreeRouter(spec["doc"], **params)
    elif spec["name"] == "adaptive":
        router = AdaptiveRouter(**params)
    else:
        router = make_router(spec["name"])
    router.load_state(spec["state"])
    return router
