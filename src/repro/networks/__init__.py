"""Host network topologies.

The star of the show is :class:`~repro.networks.xtree.XTree` (the paper's
host).  The others either appear in the paper's derived results (hypercube)
or reproduce the introduction's context (complete binary tree, grid,
cube-connected cycles, butterfly).
"""

from .._util import is_int
from .base import Topology, bfs_distance, bfs_distances_from
from .binary_tree_net import CompleteBinaryTreeNet
from .butterfly import Butterfly
from .ccc import CubeConnectedCycles
from .grid import Grid2D
from .hypercube import Hypercube, hamming_distance
from .shuffle import DeBruijn, ShuffleExchange
from .universal import UniversalGraph, universal_graph_size
from .xtree import (
    XAddr,
    XTree,
    addr_from_string,
    addr_to_string,
    xtree_optimal_height,
    xtree_size,
)

#: Registry of every host topology, keyed by its ``Topology.name``.  The
#: oracle tests and benchmark harness sweep over this to prove properties on
#: the whole library at once.
TOPOLOGIES: dict[str, type[Topology]] = {
    cls.name: cls
    for cls in (
        XTree,
        Hypercube,
        CompleteBinaryTreeNet,
        Grid2D,
        CubeConnectedCycles,
        Butterfly,
        ShuffleExchange,
        DeBruijn,
        UniversalGraph,
    )
}

#: Each registered topology's constructor parameters, in constructor
#: order; every one is also the instance attribute that holds its value.
#: Checkpoints and scenarios write a host as ``{"name", "args": [...]}``
#: in this order, embedding files as ``{"type", <parameter>: value}``.
HOST_PARAMS: dict[str, tuple[str, ...]] = {
    "xtree": ("height",),
    "hypercube": ("dimension",),
    "complete-binary-tree": ("height",),
    "grid2d": ("rows", "cols"),
    "ccc": ("dimension",),
    "butterfly": ("dimension",),
    "shuffle-exchange": ("dimension",),
    "debruijn": ("dimension",),
    "universal": ("t",),
}


def host_params(host: Topology) -> dict:
    """The constructor keyword arguments that rebuild ``host``, e.g.
    ``{"height": 3}``, ``{"rows": 3, "cols": 5}`` or ``{"t": 9}``."""
    try:
        names = HOST_PARAMS[host.name]
    except KeyError:
        raise TypeError(f"host {host.name!r} is not a registered topology") from None
    return {p: getattr(host, p) for p in names}


def check_host(name: str, args) -> None:
    """Raise ValueError unless ``name`` is a registered topology and
    ``args`` holds exactly its constructor arguments, each an integer."""
    if name not in HOST_PARAMS:
        raise ValueError(
            f"unknown host topology {name!r}: expected one of {sorted(TOPOLOGIES)}"
        )
    names = HOST_PARAMS[name]
    if len(args) != len(names):
        raise ValueError(
            f"host {name!r} takes {len(names)} argument(s) {list(names)}, "
            f"got {list(args)}"
        )
    for i, arg in enumerate(args):
        if not is_int(arg):
            raise ValueError(
                f"host.args[{i}] ({names[i]} of {name!r}) must be an integer, "
                f"got {arg!r}"
            )


def build_host(name: str, args) -> Topology:
    """The registered topology ``name`` built from its constructor
    arguments ``args``, in :data:`HOST_PARAMS` order."""
    check_host(name, args)
    return TOPOLOGIES[name](*args)


def registry_instances(scale: int = 3) -> dict[str, Topology]:
    """One representative instance per registered topology.

    ``scale`` steers the size class (height/dimension); grids get a
    rectangular shape so row/column asymmetries are exercised.
    """
    return {
        "xtree": XTree(scale),
        "hypercube": Hypercube(scale),
        "complete-binary-tree": CompleteBinaryTreeNet(scale),
        "grid2d": Grid2D(scale, scale + 2),
        "ccc": CubeConnectedCycles(scale),
        "butterfly": Butterfly(scale),
        "shuffle-exchange": ShuffleExchange(scale + 1),
        "debruijn": DeBruijn(scale + 1),
        # t = scale + 4 keeps the sweep instance small (scale 3 -> 112
        # vertices) while still exercising several slot groups
        "universal": UniversalGraph(scale + 4),
    }


__all__ = [
    "Topology",
    "bfs_distance",
    "bfs_distances_from",
    "XAddr",
    "XTree",
    "addr_from_string",
    "addr_to_string",
    "xtree_size",
    "xtree_optimal_height",
    "Hypercube",
    "hamming_distance",
    "CompleteBinaryTreeNet",
    "CubeConnectedCycles",
    "Butterfly",
    "Grid2D",
    "ShuffleExchange",
    "DeBruijn",
    "UniversalGraph",
    "universal_graph_size",
    "TOPOLOGIES",
    "HOST_PARAMS",
    "host_params",
    "check_host",
    "build_host",
    "registry_instances",
]
