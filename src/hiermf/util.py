"""Shared plumbing: derived random streams, optional process parallelism, checked
config numbers, atomic writes."""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np


def derived_rng(*keys: int) -> np.random.Generator:
    """Independent generator for stream (seed, index, ...).

    The same key tuple always yields the same stream, so work split across
    workers by index is reproducible regardless of worker count.
    """
    return np.random.default_rng(list(keys))


def parallel_map(fn: Callable[[Any], Any], items: Sequence[Any], jobs: int = 1) -> list:
    """Map preserving order, optionally across processes.

    `fn` must be picklable (module-level) when jobs > 1. Results are ordered
    by input position, never by completion time. At most
    min(jobs, len(items), os.cpu_count()) workers are started.
    """
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def write_json_atomic(path: str | os.PathLike, payload: Any, indent: int | None = 2) -> None:
    """Write JSON via a temp file + rename so readers never see partial content."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=indent, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def decoded_lines(fh, path: str | os.PathLike) -> Iterator[str]:
    """Lines of the open text file `fh`; a decoding error names the file `path`."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc


def checked_int(value: Any, name: str, minimum: int | None = None) -> int:
    """`value` if it is an integer of at least `minimum`; errors name `name`.

    A bool or a float is not an integer here: JSON `true` or `2.7` is an
    error, not 1 or 2, and so is a numeric string such as "400".
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def checked_number(value: Any, name: str) -> float:
    """`value` as a float if it is a finite int or float but not a bool; errors name `name`."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    # JSON and argparse both take NaN and infinities; NaN fails any comparison
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def checked_type(value: Any, kinds, name: str, expected: str) -> Any:
    """`value` if it is an instance of `kinds`; errors name `name` and the `expected` type."""
    if not isinstance(value, kinds):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return value


def format_float(x: float) -> str:
    """Shortest round-trip decimal form, stable across runs."""
    return repr(float(x))


_NUMBER_TYPES = frozenset((int, float))
_NEEDS_QUOTES = re.compile(r'[",\r\n]')


def _quoted(text: str) -> str:
    """csv's minimal quoting: a cell holding a comma, a quote or a line break is quoted."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with "\n" line ends and round-trip floats (byte-stable by content).

    A cell holding a comma, a quote or a line break is quoted, as csv's
    minimal quoting does, so csv.reader reads every row back whole.
    """
    with open(path, "w", newline="") as fh:
        for row in itertools.chain([header], rows):
            if _NUMBER_TYPES.issuperset(map(type, row)):
                cells = map(repr, row)  # repr of a Python int or float is already its cell
            else:
                cells = [
                    format_float(c) if isinstance(c, (float, np.floating)) else _quoted(str(c))
                    for c in row
                ]
            fh.write(",".join(cells) + "\n")
