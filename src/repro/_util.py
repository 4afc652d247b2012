"""Small shared helpers used across the :mod:`repro` package.

Nothing here is specific to the paper; these are the kind of utilities a
production library keeps in one private module so the public modules stay
focused on the domain.
"""

from __future__ import annotations

import os
import random
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import TypeVar

T = TypeVar("T")

__all__ = [
    "as_rng",
    "atomic_write_text",
    "check_nonnegative",
    "check_positive",
    "is_power_of_two",
    "node_from_json",
    "node_to_json",
    "pairwise_disjoint",
]


def node_to_json(value):
    """A topology node label in JSON-serialisable form.

    Labels are ints (hypercube) or (nested) tuples of ints (X-tree
    ``(level, index)``, grid coordinates, CCC ``(corner, pos)``); JSON has
    no tuples, so tuples become lists, recursively.  Inverse of
    :func:`node_from_json`.
    """
    if isinstance(value, tuple):
        return [node_to_json(v) for v in value]
    return value


def node_from_json(value):
    """JSON form of a node label back to the canonical hashable form.

    Lists round-trip back into tuples, recursively (see
    :func:`node_to_json`).
    """
    if isinstance(value, list):
        return tuple(node_from_json(v) for v in value)
    return value


def atomic_write_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` so a reader sees the old or the new file.

    The text goes to a sibling tmp file that is then renamed over ``path``
    (``os.replace``, atomic on POSIX): a process killed mid-write, or a
    write that raises, leaves the previous file as it was.
    """
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_text(text)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def as_rng(seed: int | random.Random | None) -> random.Random:
    """Normalise ``seed`` into a :class:`random.Random` instance.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (fresh generator with a fixed default seed so that library
    behaviour is reproducible unless the caller opts out).
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        return random.Random(0xA11CE)
    return random.Random(seed)


def check_nonnegative(name: str, value: int) -> int:
    """Validate that ``value`` is a non-negative integer and return it."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def check_positive(name: str, value: int) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def pairwise_disjoint(sets: Iterable[Sequence[T] | set[T] | frozenset[T]]) -> bool:
    """Return True when no element appears in more than one of ``sets``."""
    seen: set[T] = set()
    for group in sets:
        for item in group:
            if item in seen:
                return False
            seen.add(item)
    return True
