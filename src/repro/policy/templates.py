"""Parametric policy trees, the knob spaces :mod:`repro.policy.tune` searches.

Only the document format is imported here, so the ``tune`` CLI lists
:data:`TEMPLATES` without loading the service layer the search runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .dsl import POLICY_VERSION, PolicyDoc

__all__ = ["Param", "Template", "TEMPLATES"]


@dataclass(frozen=True)
class Param:
    """One numeric knob of a template: its range and its grid points."""

    name: str
    lo: float
    hi: float
    grid: tuple = ()
    integer: bool = False

    def clip(self, x: float) -> float:
        x = min(max(x, self.lo), self.hi)
        # round for stable JSON round-trips of the tuning log
        return int(round(x)) if self.integer else round(x, 6)


@dataclass(frozen=True)
class Template:
    """A parametric policy tree: knobs + a tree builder."""

    name: str
    domain: str
    params: tuple
    build: Callable[[dict], dict]
    description: str = ""

    def make_doc(self, params: dict, provenance: dict | None = None) -> PolicyDoc:
        return PolicyDoc.from_obj({
            "version": POLICY_VERSION,
            "name": self.name,
            "domain": self.domain,
            "description": self.description,
            **({"provenance": provenance} if provenance is not None else {}),
            "tree": self.build(params),
        })


def _route_hotspot_tree(p: dict) -> dict:
    """Deterministic while cold, adaptive spreading once measurably hot.

    The §7 terminal-bound regression is adaptive routing committing flows
    on empty estimates; this template gates the adaptive regime behind a
    live-congestion threshold on the minimal links.
    """
    return {
        "if": {"signal": "max_link_ewma", "op": "ge", "value": p["hot"]},
        "then": {
            "action": "score",
            "weights": {
                "cycle_picks": p["w_picks"],
                "link_ewma": p["w_link"],
                "queue_ewma": p["w_queue"],
            },
            "tiebreak": "seeded",
        },
        "else": {"action": "score", "weights": {}, "tiebreak": "index"},
    }


def _sched_fair_tree(p: dict) -> dict:
    """Fair share with a tunable backlog/admission-order blend."""
    return {
        "action": "score",
        "weights": {
            "virtual_time": 1.0,
            "backlog": p["w_backlog"],
            "order": p["w_order"],
        },
    }


#: built-in parametric trees the ``xtree-embed tune`` CLI can search
TEMPLATES = {
    "route-hotspot": Template(
        name="route-hotspot",
        domain="routing",
        params=(
            Param("hot", 0.25, 4.0, grid=(0.5, 1.0, 2.0)),
            Param("w_picks", 0.0, 2.0, grid=(0.5, 1.0)),
            Param("w_link", 0.0, 2.0, grid=(0.5, 1.0)),
            Param("w_queue", 0.0, 1.0, grid=(0.0, 0.5)),
        ),
        build=_route_hotspot_tree,
        description=(
            "deterministic below a live-congestion threshold on the minimal "
            "links, adaptive spreading above it"
        ),
    ),
    "sched-fair": Template(
        name="sched-fair",
        domain="scheduling",
        params=(
            Param("w_backlog", -0.05, 0.05, grid=(-0.01, 0.0, 0.01)),
            Param("w_order", 0.0, 2.0, grid=(0.0, 1.0)),
        ),
        build=_sched_fair_tree,
        description="fair share with a tunable backlog/admission-order blend",
    ),
}
