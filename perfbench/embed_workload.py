"""Workload ``embed``: the Theorem 1 construction over a ladder of trees.

Each ladder pass takes, for r = 9 down to 6, one seeded tree from each of
the ten ``repro.trees.FAMILIES`` through ``make_tree``, then
``theorem1_embedding``, then ``Embedding.load_factor()`` / ``dilation()``.
Passes repeat with fresh tree seeds until the window closes; a rung's
cost is its median over the passes.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from harness import Calibration, Ledger, Tracer, derive_seed
from repro import FAMILIES, make_tree, theorem1_embedding, theorem1_guest_size

HEIGHTS = (6, 7, 8, 9)
SMALL_HEIGHTS = (2, 3)
#: the library's own construction spans, reported as per-layer phases
PHASES = ("round0", "adjust", "split", "finalize")


@dataclass
class State:
    seed: int
    heights: tuple[int, ...]
    families: tuple[str, ...]
    passes: int = 0
    info: dict = field(default_factory=dict)


def setup(seed: int, small: bool, workdir, root) -> State:
    state = State(seed, SMALL_HEIGHTS if small else HEIGHTS, tuple(FAMILIES))
    # one construction before timing, so lazily imported modules are loaded
    theorem1_embedding(make_tree("random", theorem1_guest_size(1), seed=seed))
    return state


def finish(state: State, ledger: Ledger) -> None:
    pass


def teardown(state: State) -> float:
    return 0.0


def _one_tree(state, r, family, ledger: Ledger, tracer: Tracer, times: dict) -> None:
    """One ladder rung; records its four timestamps (start, tree made,
    embedded, checked) when its output is correct."""
    n = theorem1_guest_size(r)
    tree_seed = derive_seed(state.seed, "embed", state.passes, r, family)
    try:
        t0 = time.perf_counter()
        with tracer.call("trees.make_tree"):
            tree = make_tree(family, n, seed=tree_seed)
        t1 = time.perf_counter()
        with tracer.call("core.embed"):
            embedding = theorem1_embedding(tree).embedding
        t2 = time.perf_counter()
        with tracer.call("oracle.verify"):
            load = embedding.load_factor()
            dilation = embedding.dilation()
        t3 = time.perf_counter()
    except Exception as exc:  # a crash is a failed operation, not a crashed run
        ledger.record(False, f"{family} r={r}: {type(exc).__name__}: {exc}")
        return
    placed = len(embedding.phi) == n and all(v in embedding.phi for v in tree.nodes())
    ok = load <= 16 and dilation <= 3 and placed
    if ledger.record(ok, f"{family} r={r} seed={tree_seed}: load {load}, "
                         f"dilation {dilation}, placed {placed}"):
        times.setdefault((r, family), []).append((t0, t1, t2, t3))


def measure(state: State, seconds: float, ledger: Ledger, tracer: Tracer,
            cal: Calibration) -> dict:
    """Ladder passes until the window closes, and at least one whole pass.

    Returns ``(r, family) -> [(start, made, embedded, checked), ...]``."""
    times: dict = {}
    deadline = time.perf_counter() + seconds
    first = True
    while True:
        for r in reversed(state.heights):  # the costly rungs get the most samples
            for family in state.families:
                if not first and time.perf_counter() >= deadline:
                    return times
                cal.maybe_sample()
                _one_tree(state, r, family, ledger, tracer, times)
        state.passes += 1
        first = False


def _ladder(times: dict, cal: Calibration, part=None, heights=None) -> float:
    """Reference-machine seconds for one ladder: the sum over rungs of each
    rung's median time (of one part, or of all three).  The median over the
    trees a window saw of one rung shrugs off a noisy moment and an odd
    tree."""
    total = 0.0
    for (r, _family), samples in times.items():
        if heights is None or r in heights:
            lo, hi = (0, 3) if part is None else (part, part + 1)
            total += statistics.median(
                (t[hi] - t[lo]) / cal.slowdown(t[0], t[3]) for t in samples)
    return total


def primary(times: dict, cal: Calibration) -> float:
    nodes = sum(theorem1_guest_size(r) for r, _ in times)
    return nodes / _ladder(times, cal)


def end_to_end(state: State, times: dict, cal: Calibration) -> dict:
    return {"ops_per_s": (primary(times, cal), "ops/s")}


def per_layer(state: State, times: dict, tracer: Tracer, ledger: Ledger,
              setup_infos: list, cal: Calibration) -> dict:
    out = {
        "trees.make_tree_s": (_ladder(times, cal, 0), "s"),
        "core.embed_s": (_ladder(times, cal, 1), "s"),
        "oracle.verify_s": (_ladder(times, cal, 2), "s"),
    }
    # the library's phase spans: window totals scaled to one ladder
    spans = tracer.by_name()
    per_ladder = out["core.embed_s"][0] / spans["core.embed"]["total_s"]
    for phase in PHASES:
        out[f"core.{phase}_s"] = (spans[f"embed.{phase}"]["total_s"] * per_ladder, "s")
    for r in set(state.heights) & set(HEIGHTS):  # the small ladder has no named rungs
        nodes = len(state.families) * theorem1_guest_size(r)
        out[f"core.us_per_node.r{r}"] = (_ladder(times, cal, 1, {r}) / nodes * 1e6, "us/node")
    return out
