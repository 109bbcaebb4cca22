"""The row-by-row CSV formatter that `hiermf.util.write_csv` replaced.

It formats each cell in Python: `repr` of a row made only of Python ints and
floats, else `repr(float(c))` of each float or np.floating cell and csv's
minimal quoting of `str(c)` of every other cell. It is kept, unchanged, only
as the oracle that the numpy block writer is checked against: the same bytes
for any header and rows.
"""

from __future__ import annotations

import itertools
import os
import re
from typing import Iterable, Sequence

import numpy as np


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


def cell_text(cell) -> str:
    """One cell as the oracle writes it in a row that is not all Python ints and floats."""
    return format_float(cell) if isinstance(cell, (float, np.floating)) else _quoted(str(cell))


def csv_line(row: Sequence) -> str:
    """One CSV line of `row`, line end included."""
    if _NUMBER_TYPES.issuperset(map(type, row)):
        cells = map(repr, row)  # repr of a Python int or float is already its cell
    else:
        cells = [cell_text(c) for c in row]
    return ",".join(cells) + "\n"


def oracle_write_csv(path: str | os.PathLike, header: Sequence, rows: Iterable[Sequence]) -> None:
    """CSV with "\n" line ends and round-trip floats, one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in itertools.chain([header], rows):
            fh.write(csv_line(row))
