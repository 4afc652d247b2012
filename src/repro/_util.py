"""Small shared helpers used across the :mod:`repro` package.

Nothing here is specific to the paper; these are the kind of utilities a
production library keeps in one private module so the public modules stay
focused on the domain.
"""

from __future__ import annotations

import os
import random
import threading
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import TypeVar

T = TypeVar("T")

__all__ = [
    "as_rng",
    "atomic_write_text",
    "check_items",
    "check_nonnegative",
    "check_object",
    "check_positive",
    "check_rows",
    "is_int",
    "is_number",
    "is_power_of_two",
    "node_from_json",
    "node_to_json",
    "pairwise_disjoint",
    "tmp_sibling",
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


def tmp_sibling(path: Path) -> Path:
    """A tmp name beside ``path`` that no concurrent writer shares: it
    carries the process id and the calling thread's id."""
    return path.with_name(f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}")


def atomic_write_text(path: Path, text: str) -> os.stat_result:
    """Replace ``path`` with ``text`` so a reader sees the old or the new file.

    The text goes to a sibling tmp file (:func:`tmp_sibling`) that is then
    renamed over ``path`` (``os.replace``, atomic on POSIX): a process
    killed mid-write, or a write that raises, leaves the previous file as
    it was.  Returns the stat of the file written, taken before the rename.
    """
    tmp = tmp_sibling(path)
    try:
        tmp.write_text(text)
        st = tmp.stat()
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return st


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


def is_int(value, low: int | None = None) -> bool:
    """``value`` is an int (not a bool) and at least ``low``, if given."""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and (low is None or value >= low)
    )


def is_number(value) -> bool:
    """``value`` is an int or a float (not a bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_object(value, path: str, required: Iterable[str] = ()) -> dict:
    """Return ``value`` if it is a dict holding every ``required`` key;
    otherwise raise :class:`ValueError` naming ``path``."""
    if not isinstance(value, dict):
        raise ValueError(f"{path} must be an object, got {value!r}")
    for key in required:
        if key not in value:
            raise ValueError(f"{path} is missing required field {key!r}")
    return value


def check_items(value, path: str, test, want: str) -> list:
    """Return ``value`` if it is a list whose every item passes ``test``;
    otherwise raise :class:`ValueError` naming the path of the first bad
    item, e.g. ``checkpoint.dead_nodes[2] must be a node of host xtree``."""
    if not isinstance(value, list):
        raise ValueError(f"{path} must be a list, got {value!r}")
    for i, item in enumerate(value):
        if not test(item):
            raise ValueError(f"{path}[{i}] must be {want}, got {item!r}")
    return value


def check_rows(value, path: str, *columns: tuple) -> list:
    """Return ``value`` if it is a list of rows, each a list with one cell
    per column, and a column a ``(test, want)`` pair every cell in it
    passes; otherwise raise :class:`ValueError` naming the path of the
    first bad row or cell, e.g. ``job.delivered[3][1] must be an integer
    >= 0``."""
    check_items(
        value, path, lambda row: isinstance(row, list) and len(row) == len(columns),
        f"a list of {len(columns)} entries",
    )
    for i, row in enumerate(value):
        for j, (test, want) in enumerate(columns):
            if not test(row[j]):
                raise ValueError(f"{path}[{i}][{j}] must be {want}, got {row[j]!r}")
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
