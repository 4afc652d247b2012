"""The declarative policy-tree DSL: versioned, validated, JSON round-trip.

A *policy document* is a JSON decision tree over the feedback signals the
engine and runtime already expose — queue occupancy, link-utilisation
EWMAs, backlog, priority, consumed cycles, fault state.  Evaluating the
tree against a *signal snapshot* walks ``if``/``then``/``else`` nodes to
a leaf **action** that parameterises the decision (how to score the
candidate next hops, or the candidate jobs).  Every scheduling/routing
improvement thereby becomes a data change: a new document next to
``scenarios/``, not new code.

Schema (``version`` is required and checked — the wire format is a
compatibility promise, like scenarios and checkpoints)::

    {
      "version": 1,
      "name": "hotspot-route",
      "domain": "routing",                  // or "scheduling"
      "description": "optional free text",
      "provenance": {"...": "how this document was produced (optional)"},
      "tree": {
        "if":   {"signal": "max_link_ewma", "op": "ge", "value": 1.5},
        "then": {"action": "score",
                 "weights": {"cycle_picks": 1.0, "link_ewma": 1.0},
                 "tiebreak": "seeded"},
        "else": {"action": "score", "weights": {}, "tiebreak": "index"}
      }
    }

**Conditions** read *decision-level* signals (one snapshot per decision,
:data:`CONDITION_SIGNALS` per domain) and compose::

    {"signal": <name>, "op": "lt|le|gt|ge|eq|ne", "value": <number>}
    {"all": [cond, ...]}    {"any": [cond, ...]}    {"not": cond}
    {"const": true|false}

**Actions** (``"action": "score"`` is the only verb) score each
*candidate* — a next hop, or an active job — as ``bias + sum(weights[s] *
signal(candidate, s))`` over :data:`ACTION_SIGNALS`; the lowest score
wins and ``tiebreak`` breaks exact ties (``"order"`` — admission order —
for scheduling; ``"seeded"`` — the adaptive router's seeded permutation —
or ``"index"`` — canonical node index, the deterministic router's rule —
for routing).  Routing actions may also carry ``detour_margin`` to
re-parameterise the detour test per decision.  An empty ``weights`` makes
every candidate tie, so ``{"weights": {}, "tiebreak": "index"}`` *is* the
deterministic baseline — a tree can interpolate between the deterministic
and adaptive regimes and a tuner (:mod:`repro.policy.tune`) can search
the interpolation.

Validation is strict like :class:`repro.service.scenario.Scenario`:
unknown keys, unknown signals, unknown ops, or malformed nodes raise
:class:`ValueError` with the JSON path and the allowed vocabulary — a
typo'd knob must not silently run with defaults.  :func:`evaluate` is a
pure function of ``(tree, signals)``: no clock, no randomness, no state,
which is what makes documents checkpoint-safe and tuning honest.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "POLICY_VERSION",
    "DOMAINS",
    "OPS",
    "TIEBREAKS",
    "CONDITION_SIGNALS",
    "ACTION_SIGNALS",
    "PolicyDoc",
    "evaluate",
]

#: wire-format version of the policy document; bumped on breaking change
POLICY_VERSION = 1

DOMAINS = ("scheduling", "routing")

#: comparison operators a leaf condition may use
OPS = ("lt", "le", "gt", "ge", "eq", "ne")

#: allowed ``tiebreak`` values per domain (first entry is the default)
TIEBREAKS = {
    "scheduling": ("order",),
    "routing": ("seeded", "index"),
}

#: decision-level signals conditions may read, per domain.  Scheduling
#: trees see one snapshot per pick (aggregates over the active jobs plus
#: runtime state); routing trees see one snapshot per (node, dst) routing
#: decision (aggregates over the minimal candidates plus message state).
CONDITION_SIGNALS = {
    "scheduling": frozenset({
        "n_active",        # number of schedulable jobs
        "cycle",           # global runtime clock
        "faulted",         # 1.0 while dead nodes / failed links exist
        "total_backlog",   # sum of active jobs' backlogs
        "max_backlog",
        "min_backlog",
        "max_priority",
    }),
    "routing": frozenset({
        "dist",            # remaining hops to the destination
        "n_minimal",       # candidate counts after classification
        "n_sideways",
        "n_backwards",
        "max_link_ewma",   # aggregates over the minimal candidates
        "min_link_ewma",
        "max_queue_ewma",
        "min_queue_ewma",
        "total_picks",     # picks already made from this node this cycle
        "budget",          # message's remaining detour budget
        "faulted",         # 1.0 while the network has failed links
    }),
}

#: candidate-level signals action weights may combine, per domain
ACTION_SIGNALS = {
    "scheduling": frozenset({
        "virtual_time",    # fair-share accumulator (monotone)
        "consumed_cycles",
        "backlog",
        "priority",
        "remaining_steps",
        "next_step",
        "total_messages",
        "n_delivered",
        "n_failed",
        "n_repairs",
        "order",           # admission order among the active jobs
    }),
    "routing": frozenset({
        "cycle_picks",     # picks already routed over (node, candidate)
        "link_ewma",       # learned utilisation of (node, candidate)
        "queue_ewma",      # learned occupancy of the candidate's queue
        "is_last_pick",    # 1.0 if the flow chose this link last time
    }),
}

_DOC_KEYS = {"version", "name", "domain", "description", "provenance", "tree"}
_IF_KEYS = {"if", "then", "else"}
_LEAF_COND_KEYS = {"signal", "op", "value"}
_ACTION_KEYS = {
    "scheduling": {"action", "weights", "bias", "tiebreak"},
    "routing": {"action", "weights", "bias", "tiebreak", "detour_margin"},
}


def _err(path: str, message: str) -> "ValueError":
    return ValueError(f"policy tree: {path}: {message}")


def _check_number(x: Any, path: str, what: str) -> None:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise _err(path, f"{what} must be a number, got {type(x).__name__}")


def _check_condition(cond: Any, domain: str, path: str) -> None:
    if not isinstance(cond, dict):
        raise _err(path, f"condition must be an object, got {type(cond).__name__}")
    forms = [k for k in ("all", "any", "not", "const", "signal") if k in cond]
    if len(forms) != 1:
        raise _err(
            path,
            "condition must be exactly one of "
            '{"signal"/"op"/"value"}, {"all": [...]}, {"any": [...]}, '
            '{"not": ...}, {"const": bool}; got keys ' + str(sorted(cond)),
        )
    form = forms[0]
    if form in ("all", "any"):
        extra = set(cond) - {form}
        if extra:
            raise _err(path, f'unknown keys {sorted(extra)} next to "{form}"')
        branch = cond[form]
        if not isinstance(branch, list) or not branch:
            raise _err(path, f'"{form}" needs a non-empty list of conditions')
        for i, sub in enumerate(branch):
            _check_condition(sub, domain, f"{path}.{form}[{i}]")
    elif form == "not":
        extra = set(cond) - {"not"}
        if extra:
            raise _err(path, f'unknown keys {sorted(extra)} next to "not"')
        _check_condition(cond["not"], domain, f"{path}.not")
    elif form == "const":
        extra = set(cond) - {"const"}
        if extra:
            raise _err(path, f'unknown keys {sorted(extra)} next to "const"')
        if not isinstance(cond["const"], bool):
            raise _err(path, f'"const" must be true or false, got {cond["const"]!r}')
    else:
        extra = set(cond) - _LEAF_COND_KEYS
        if extra:
            raise _err(
                path,
                f"unknown condition keys {sorted(extra)}: "
                f"a leaf condition has exactly {sorted(_LEAF_COND_KEYS)}",
            )
        missing = _LEAF_COND_KEYS - set(cond)
        if missing:
            raise _err(path, f"condition is missing {sorted(missing)}")
        for key in ("signal", "op"):
            if not isinstance(cond[key], str):
                raise _err(path, f'"{key}" must be a string, got {type(cond[key]).__name__}')
        allowed = CONDITION_SIGNALS[domain]
        if cond["signal"] not in allowed:
            raise _err(
                path,
                f"unknown {domain} condition signal {cond['signal']!r}: "
                f"expected one of {sorted(allowed)}",
            )
        if cond["op"] not in OPS:
            raise _err(
                path, f"unknown op {cond['op']!r}: expected one of {list(OPS)}"
            )
        _check_number(cond["value"], path, '"value"')


def _check_action(action: Any, domain: str, path: str) -> None:
    if not isinstance(action, dict):
        raise _err(path, f"action must be an object, got {type(action).__name__}")
    allowed_keys = _ACTION_KEYS[domain]
    extra = set(action) - allowed_keys
    if extra:
        raise _err(
            path,
            f"unknown action keys {sorted(extra)}: a {domain} action "
            f"allows {sorted(allowed_keys)}",
        )
    if action.get("action") != "score":
        raise _err(
            path,
            f'actions must declare "action": "score" (the only verb), '
            f"got {action.get('action')!r}",
        )
    weights = action.get("weights", {})
    if not isinstance(weights, dict):
        raise _err(path, f'"weights" must be an object, got {type(weights).__name__}')
    allowed = ACTION_SIGNALS[domain]
    for sig, w in weights.items():
        if sig not in allowed:
            raise _err(
                path,
                f"unknown {domain} weight signal {sig!r}: "
                f"expected one of {sorted(allowed)}",
            )
        _check_number(w, path, f"weights[{sig!r}]")
    if "bias" in action:
        _check_number(action["bias"], path, '"bias"')
    tiebreak = action.get("tiebreak", TIEBREAKS[domain][0])
    if tiebreak not in TIEBREAKS[domain]:
        raise _err(
            path,
            f"unknown {domain} tiebreak {tiebreak!r}: "
            f"expected one of {list(TIEBREAKS[domain])}",
        )
    if "detour_margin" in action:
        _check_number(action["detour_margin"], path, '"detour_margin"')


def _check_node(node: Any, domain: str, path: str) -> None:
    if not isinstance(node, dict):
        raise _err(path, f"node must be an object, got {type(node).__name__}")
    if "if" in node:
        extra = set(node) - _IF_KEYS
        if extra:
            raise _err(
                path,
                f"unknown decision keys {sorted(extra)}: a decision node "
                f"has exactly {sorted(_IF_KEYS)}",
            )
        missing = _IF_KEYS - set(node)
        if missing:
            raise _err(path, f"decision node is missing {sorted(missing)}")
        _check_condition(node["if"], domain, f"{path}.if")
        _check_node(node["then"], domain, f"{path}.then")
        _check_node(node["else"], domain, f"{path}.else")
    elif "action" in node:
        _check_action(node, domain, path)
    else:
        raise _err(
            path,
            'node must be a decision ({"if"/"then"/"else"}) or an action '
            '({"action": "score", ...}); got keys ' + str(sorted(node)),
        )


@dataclass(frozen=True)
class PolicyDoc:
    """One validated policy document (see the module docstring).

    ``tree`` is kept as the parsed JSON structure it arrived as (validated
    on construction, deep-copied on ``as_dict``); treat it as immutable.
    """

    name: str
    domain: str
    tree: Any
    description: str = ""
    provenance: dict | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("policy document needs a non-empty name")
        if self.domain not in DOMAINS:
            raise ValueError(
                f"unknown policy domain {self.domain!r}: "
                f"expected one of {list(DOMAINS)}"
            )
        if self.provenance is not None and not isinstance(self.provenance, dict):
            raise ValueError(
                f'"provenance" must be an object, got {type(self.provenance).__name__}'
            )
        _check_node(self.tree, self.domain, "tree")

    # -- wire format ----------------------------------------------------
    @classmethod
    def from_obj(cls, obj: Any) -> "PolicyDoc":
        """Parse and validate one policy document (parsed JSON)."""
        if not isinstance(obj, dict):
            raise ValueError(
                f"policy document must be a JSON object, got {type(obj).__name__}"
            )
        version = obj.get("version")
        if version != POLICY_VERSION:
            raise ValueError(
                f"unsupported policy version {version!r} "
                f"(this build reads {POLICY_VERSION})"
            )
        unknown = set(obj) - _DOC_KEYS
        if unknown:
            raise ValueError(
                f"unknown policy document fields: {sorted(unknown)} "
                f"(allowed: {sorted(_DOC_KEYS)})"
            )
        for key in ("name", "domain", "tree"):
            if key not in obj:
                raise ValueError(f"policy document is missing required field {key!r}")
        return cls(
            name=obj["name"],
            domain=obj["domain"],
            tree=obj["tree"],
            description=obj.get("description", ""),
            provenance=obj.get("provenance"),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "PolicyDoc":
        return cls.from_obj(json.loads(Path(path).read_text()))

    def as_dict(self) -> dict:
        """JSON-safe round-trip form (``from_obj(as_dict())`` is identity)."""
        d: dict = {
            "version": POLICY_VERSION,
            "name": self.name,
            "domain": self.domain,
            "tree": copy.deepcopy(self.tree),
        }
        if self.description:
            d["description"] = self.description
        if self.provenance is not None:
            d["provenance"] = copy.deepcopy(self.provenance)
        return d

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), indent=2) + "\n")


def _truth(cond: Mapping, signals: Mapping) -> bool:
    if "const" in cond:
        return cond["const"]
    if "all" in cond:
        return all(_truth(c, signals) for c in cond["all"])
    if "any" in cond:
        return any(_truth(c, signals) for c in cond["any"])
    if "not" in cond:
        return not _truth(cond["not"], signals)
    x = float(signals.get(cond["signal"], 0.0))
    v = cond["value"]
    op = cond["op"]
    if op == "lt":
        return x < v
    if op == "le":
        return x <= v
    if op == "gt":
        return x > v
    if op == "ge":
        return x >= v
    if op == "eq":
        return x == v
    return x != v


def evaluate(tree: Mapping, signals: Mapping) -> Mapping:
    """Walk ``tree`` against ``signals`` down to its leaf action.

    A **pure deterministic function**: the result depends on nothing but
    the arguments (no clock, no randomness, no mutation of either input),
    and missing signals read as ``0.0``.  The returned mapping is the
    tree's own leaf node — callers must not mutate it.
    """
    node = tree
    while "if" in node:
        node = node["then"] if _truth(node["if"], signals) else node["else"]
    return node
