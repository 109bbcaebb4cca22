"""Shared plumbing: derived random streams, optional process parallelism, checked
config numbers, the one input reader, atomic writes."""

from __future__ import annotations

import csv
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


def _write_error(path: str | os.PathLike, exc: OSError) -> ValueError:
    """An OSError of a writer as the ValueError a command reports, naming `path`."""
    return ValueError(f"cannot write {os.fspath(path)}: {exc.strerror or exc}")


def write_json_atomic(path: str | os.PathLike, payload: Any, indent: int | None = 2) -> None:
    """Write JSON via a temp file + rename so readers never see partial content.

    A file that cannot be written is a ValueError naming `path`.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
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
    except OSError as exc:
        raise _write_error(path, exc) from exc


def input_lines(path: str | os.PathLike) -> Iterator[str]:
    """Lines of the UTF-8 file `path`, a leading byte-order mark dropped, line ends kept.

    Every input file is read here. A file that cannot be opened or decoded
    is a ValueError naming `path`.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    with fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not utf-8 text ({exc.reason})") from exc


def csv_rows(
    lines: Iterable[str], path: str | os.PathLike, offset: int = 0, delimiter: str = ","
) -> Iterator[tuple[int, list[str]]]:
    """csv.reader's rows of `lines`, each with the physical line of `path` it ends on.

    `offset` is the number of lines of the file before `lines`. A csv.Error,
    such as a cell longer than csv.field_size_limit(), is a ValueError naming
    `path` and the line.
    """
    reader = csv.reader(lines, delimiter=delimiter)
    try:
        for row in reader:
            yield offset + reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"{path}:{offset + reader.line_num}: {exc}") from None


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


def _csv_line(row: Sequence) -> str:
    """One CSV line of `row`, line end included."""
    if _NUMBER_TYPES.issuperset(map(type, row)):
        cells = map(repr, row)  # repr of a Python int or float is already its cell
    else:
        cells = [
            format_float(c) if isinstance(c, (float, np.floating)) else _quoted(str(c))
            for c in row
        ]
    return ",".join(cells) + "\n"


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with "\n" line ends and round-trip floats (byte-stable by content).

    A cell holding a comma, a quote or a line break is quoted, as csv's
    minimal quoting does, so csv.reader reads every row back whole. A file
    that cannot be written is a ValueError naming `path`.
    """
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            for row in itertools.chain([header], rows):
                fh.write(_csv_line(row))
    except OSError as exc:
        raise _write_error(path, exc) from exc


# rows of a digit table formatted at a time
DIGIT_BLOCK_ROWS = 65_536


def write_digit_csv(
    path: str | os.PathLike, header: Sequence[str], first_index: int, digits: np.ndarray
) -> None:
    """The bytes of write_csv for rows [first_index + t, *digits[t]] of a table of digits 0-9.

    Each line is built as ASCII in numpy: the row index, then "," and one
    digit per column, then "\n". Rows go out in blocks of at most
    DIGIT_BLOCK_ROWS whose indices share one width. A file that cannot be
    written is a ValueError naming `path`.
    """
    digits = np.asarray(digits)
    if digits.ndim != 2 or first_index < 0:
        raise ValueError("a digit table is a 2-d array with a non-negative first index")
    if not np.issubdtype(digits.dtype, np.integer) or (
        digits.size and not (digits.min() >= 0 and digits.max() <= 9)
    ):
        raise ValueError("a digit table holds only the integers 0 to 9")
    stop = first_index + digits.shape[0]
    edges = sorted({
        first_index, stop,
        *range(first_index, stop, DIGIT_BLOCK_ROWS),
        *(10**w for w in range(1, len(str(stop))) if first_index < 10**w < stop),
    })
    try:
        with open(path, "wb") as fh:
            fh.write(_csv_line(header).encode("utf-8"))
            for lo, hi in zip(edges, edges[1:]):
                width = len(str(lo))
                lines = np.empty((hi - lo, width + 2 * digits.shape[1] + 1), dtype=np.uint8)
                index = np.arange(lo, hi)
                for k in range(width):
                    lines[:, width - 1 - k] = index // 10**k % 10 + ord("0")
                lines[:, width:-1:2] = ord(",")
                lines[:, width + 1 :: 2] = digits[lo - first_index : hi - first_index] + ord("0")
                lines[:, -1] = ord("\n")
                fh.write(lines.tobytes())
    except OSError as exc:
        raise _write_error(path, exc) from exc
