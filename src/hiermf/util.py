"""Shared plumbing: derived random streams, optional process parallelism, checked
config numbers, the one input reader, atomic writes."""

from __future__ import annotations

import csv
import functools
import itertools
import json
import os
import re
import secrets
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np


def derived_rng(*keys: int) -> np.random.Generator:
    """Independent generator for stream (seed, index, ...).

    The same key tuple always yields the same stream, so work split across
    workers by index is reproducible regardless of worker count.
    """
    return np.random.default_rng(list(keys))


def available_cpus() -> int | None:
    """CPUs this process may run on: its affinity mask where the platform has one, else
    os.cpu_count(), which is None when unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def parallel_map(fn: Callable[[Any], Any], items: Sequence[Any], jobs: int = 1) -> list:
    """Map preserving order, optionally across processes.

    `fn` must be picklable (module-level) when jobs > 1. Results are ordered
    by input position, never by completion time. At most
    min(jobs, len(items), available_cpus()) workers are started.
    """
    workers = min(jobs, len(items), available_cpus() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _write_error(path: str | os.PathLike, exc: OSError) -> ValueError:
    """An OSError of a writer as the ValueError a command reports, naming `path`."""
    return ValueError(f"cannot write {os.fspath(path)}: {exc.strerror or exc}")


def write_json_atomic(path: str | os.PathLike, payload: Any, indent: int | None = 2) -> None:
    """Write JSON via a temp file + rename so readers never see partial content.

    The file gets the mode open() would give it, 0o666 less the umask, like
    every CSV output. A file that cannot be written is a ValueError naming
    `path`.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f"tmp{secrets.token_hex(8)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


# Float cells in numpy: Schubfach's shortest round-trip decimal (R. Giulietti, "The
# Schubfach way to render doubles", 2020, as in Java's DoubleToDecimal), laid out as
# Python's repr. Java also tries two digits where one would do; repr does not, so
# here the shorter candidate is always tried and no subnormal is scaled up.
_U64 = np.uint64
_MASK32 = _U64(2**32 - 1)
_MASK63 = _U64(2**63 - 1)
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of the table below


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


def _power_table() -> tuple[np.ndarray, np.ndarray]:
    """g = floor(10**-k / 2**r) + 1 with 2**125 <= g < 2**126, split as g1 * 2**63 + g0."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        g = (10 ** max(-k, 0) << max(shift, 0)) // (10 ** max(k, 0) << max(-shift, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
    return np.array(g1, dtype=_U64), np.array(g0, dtype=_U64)


_G1, _G0 = _power_table()


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return x >> _U64(32), x & _MASK32


def _mulhi(a: tuple, b: tuple) -> np.ndarray:
    """The high 64 bits of the 128-bit products of uint64 arrays given as 32-bit halves."""
    (a1, a0), (b1, b0) = a, b
    t = a1 * b0 + ((a0 * b0) >> _U64(32))
    w = (t & _MASK32) + a0 * b1
    return a1 * b1 + (t >> _U64(32)) + (w >> _U64(32))


def _round_to_odd(g1: np.ndarray, g: tuple, cp: np.ndarray) -> np.ndarray:
    """floor(g * cp / 2**127), its lowest bit set when the division is inexact."""
    halves = _halves(cp)
    z = ((g1 * cp) >> _U64(1)) + _mulhi(g[1], halves)
    return (_mulhi(g[0], halves) + (z >> _U64(63))) | (((z & _MASK63) + _MASK63) >> _U64(63))


def _shortest_decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k), uint64 and int64, with f * 10**k the decimal repr gives each finite nonzero
    double of `bits`, its sign dropped; f may end in zeros. Other doubles give garbage."""
    biased = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64)
    fraction = bits & _U64(2**52 - 1)
    normal = biased != 0
    c = np.where(normal, fraction | _U64(2**52), fraction)
    q = np.where(normal, biased - 1075, -1074)  # the double is c * 2**q
    # at a power of two the next double down is half as far as the next one up
    irregular = normal & (fraction == 0) & (biased > 1)
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U64)
    g1 = _G1[k - _K_MIN]
    g = (_halves(g1), _halves(_G0[k - _K_MIN]))
    # vb, vbl, vbr: 4 * (the double, the lower and the upper rounding bound) / 10**k;
    # a double with an even c rounds its bounds to itself, so they count as inside
    odd = c & _U64(1)
    cb = c << _U64(2)
    vb = _round_to_odd(g1, g, cb << h)
    vbl = _round_to_odd(g1, g, (cb - np.where(irregular, _U64(1), _U64(2))) << h) + odd
    vbr = _round_to_odd(g1, g, (cb + _U64(2)) << h) - odd
    s = vb >> _U64(2)
    # one digit fewer: whichever of the two multiples of 10 around s lies within the bounds
    u10 = s // _U64(10) * _U64(10)
    u10_in = vbl <= u10 << _U64(2)
    w10_in = (u10 + _U64(10)) << _U64(2) <= vbr
    t = s + _U64(1)
    u_in = vbl <= s << _U64(2)
    w_in = t << _U64(2) <= vbr
    # both s and t within the bounds: the closer one, the even one on a tie
    closer = vb.astype(np.int64) - ((s + t) << _U64(1)).astype(np.int64)
    pick_s = np.where(u_in != w_in, u_in, (closer < 0) | ((closer == 0) & (s & _U64(1) == 0)))
    f = np.where(u10_in != w10_in, np.where(u10_in, u10, u10 + _U64(10)), np.where(pick_s, s, t))
    return f, k


_POW10 = np.array([10**i for i in range(18)], dtype=_U64)
_GROUPS4 = np.arange(10_000, dtype=np.uint16)  # small, so building the tables adds little RSS
_TRAILING_ZEROS4 = sum(_GROUPS4 % 10**p == 0 for p in (1, 2, 3)) + (_GROUPS4 == 0)  # 4 for 0
# [g]: the digits of the 4-digit group g, each followed by a NUL, where a point may go;
# [10_000 + g]: the same with the group's trailing zeros NUL too, all NUL for g = 0
_DIGITS4 = np.zeros((2, 10_000, 4, 2), dtype=np.uint8)
_DIGITS4[:, :, :, 0] = _GROUPS4[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")
_DIGITS4[1, :, :, 0] *= np.arange(4) < 4 - _TRAILING_ZEROS4[:, None]
_DIGITS4 = _DIGITS4.reshape(20_000, 8).view(_U64).ravel()
# A float cell's slots: 0 the lead byte, 1 the sign, 2-6 "0." and up to three zeros,
# 7-39 17 digits with a point slot after each of the first 16, 40-44 the exponent.
FLOAT_CELL_BYTES = 45
_DIGIT_MASK = np.array(  # [m]: the first m digit slots kept
    [[0xFF if j % 2 == 0 and j < 2 * m else 0 for j in range(33)] for m in range(18)],
    dtype=np.uint8,
)
_PREFIX = np.frombuffer(  # [5 * negative + z]: sign, then "0." and z - 1 zeros if z
    b"".join(
        sign + (b"0." + b"0" * (z - 1) if z else b"").ljust(5, b"\0")
        for sign in (b"\0", b"-") for z in range(5)
    ),
    dtype=np.uint8,
).reshape(10, 6)
_E_MIN = -400
_EXPONENT = np.frombuffer(  # [e - _E_MIN]: "e", the sign, two or three digits
    b"".join(b"e%c%3s" % (b"-+"[e >= 0], b"%02d" % abs(e)) for e in range(_E_MIN, -_E_MIN))
    .replace(b" ", b"\0"),
    dtype=np.uint8,
).reshape(-1, 5)


def _float_cells(x: np.ndarray, lead: int) -> np.ndarray:
    """(x.size, FLOAT_CELL_BYTES) uint8: byte `lead`, then repr(float(v)) of each value of x
    with NUL in every slot the text does not use."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    bits = x.view(_U64)
    n = x.size
    cells = np.zeros((n, FLOAT_CELL_BYTES), dtype=np.uint8)
    cells[:, 0] = lead
    finite_nonzero = np.isfinite(x) & (x != 0)
    f, k = _shortest_decimal(bits)
    f[~finite_nonzero] = 0
    length = np.searchsorted(_POW10, f, side="right")  # digits of f
    digits17 = f * _POW10[17 - length]
    first = digits17 // _U64(10**16)
    rest = digits17 - first * _U64(10**16)
    high = (rest // _U64(10**8)).astype(np.int64)
    low = (rest - high.astype(_U64) * _U64(10**8)).astype(np.int64)
    groups = np.empty((n, 4), dtype=np.int64)
    np.divmod(high, 10_000, out=(groups[:, 0], groups[:, 1]))
    np.divmod(low, 10_000, out=(groups[:, 2], groups[:, 3]))
    zeros = _TRAILING_ZEROS4[groups]
    zeros = zeros[:, 3] + (zeros[:, 3] == 4) * (
        zeros[:, 2] + (zeros[:, 2] == 4) * (zeros[:, 1] + (zeros[:, 1] == 4) * zeros[:, 0])
    )
    significant = 17 - zeros
    point = k + length  # the value is 0.d1d2... * 10**point
    significant[~finite_nonzero] = 1  # zero: the digit 0, then ".0"
    point[~finite_nonzero] = 1
    scientific = (point <= -4) | (point > 16)
    fraction = ~scientific & (point <= 0)
    # the digit slots, the trailing zeros of the significand left NUL
    digit_slots = cells[:, 7:40]
    digit_slots[:, 0] = first.astype(np.uint8) + ord("0")
    stripped = groups + 10_000 * (zeros[:, None] >= np.arange(12, -1, -4))
    digit_slots[:, 2:] = _DIGITS4[stripped].view(np.uint8).reshape(n, 32)[:, :31]
    # a whole number keeps its zeros up to the point and one after it
    whole = np.flatnonzero(~scientific & (point >= significant))
    digit_slots[whole, 2:] = (
        _DIGITS4[groups[whole]].view(np.uint8).reshape(whole.size, 32)[:, :31]
        & _DIGIT_MASK[point[whole] + 1, 2:]
    )
    # the point after digit point_after, none for 0; slot 6 is rewritten below
    point_after = np.where(scientific, significant > 1, np.where(fraction, 0, point))
    cells.reshape(-1)[np.arange(6, n * FLOAT_CELL_BYTES, FLOAT_CELL_BYTES) + 2 * point_after] = (
        np.where(point_after > 0, ord("."), 0)
    )
    cells[:, 1:7] = _PREFIX[(bits >> _U64(63)).astype(np.intp) * 5 + np.where(fraction, 1 - point, 0)]
    rows = np.flatnonzero(scientific)
    cells[rows, 40:] = _EXPONENT[point[rows] - 1 - _E_MIN]
    rows = np.flatnonzero(~np.isfinite(x))
    if rows.size:
        nan = np.isnan(x[rows])
        cells[rows, 2:] = 0
        cells[rows, 7:10] = np.where(nan[:, None], np.frombuffer(b"nan", np.uint8),
                                     np.frombuffer(b"inf", np.uint8))
        cells[rows[nan], 1] = 0  # repr drops the sign of a nan
    return cells


def _int_width(x: np.ndarray) -> int:
    """Bytes of the widest repr of the ints of x: digits, and a sign if any is negative."""
    if not x.size:
        return 1
    low, high = int(x.min()), int(x.max())
    return max(len(str(abs(low))), len(str(high))) + (low < 0)


def _int_cells(x: np.ndarray, lead: int, width: int) -> np.ndarray:
    """(x.size, 1 + width) uint8: byte `lead`, then repr(int(v)) of each value of x in
    `width` slots, a minus sign first and NULs between it and the digits."""
    x = x.ravel()
    cells = np.zeros((x.size, 1 + width), dtype=np.uint8)
    cells[:, 0] = lead
    magnitude = x.astype(_U64)
    negative = x < 0  # none for an unsigned x
    magnitude[negative] = _U64(0) - magnitude[negative]
    for j in range(width):
        digit = (magnitude % _U64(10)).astype(np.uint8) + ord("0")
        cells[:, width - j] = digit if j == 0 else np.where(magnitude != 0, digit, 0)
        magnitude //= _U64(10)
    cells[negative, 1] = ord("-")  # a negative number has fewer than `width` digits
    return cells


# a row block's NUL-padded text stays below this many bytes
TABLE_BLOCK_BYTES = 1 << 18


def write_table_csv(
    path: str | os.PathLike, header: Sequence[str], first_column, values: np.ndarray
) -> None:
    """The bytes of write_csv for rows [first_cell, *values[r].tolist()] of a 2-d int or float array.

    `first_column` is either the first row's index, each later row's one
    more, or one label per row; a label is a cell as write_csv writes it.
    The numbers are formatted in numpy a block of rows at a time: each
    cell's text goes into fixed slots of a NUL-filled buffer, which
    bytes.translate then compacts. Labels never pass through that buffer.
    A file that cannot be written is a ValueError naming `path`.
    """
    values = np.asarray(values)
    if values.ndim != 2 or not (
        values.dtype.kind in "iu" or (values.dtype.kind == "f" and values.dtype.itemsize <= 8)
    ):
        raise ValueError("a table is a 2-d array of integers or of floats")
    n_rows, n_columns = values.shape
    if isinstance(first_column, (int, np.integer)) and not isinstance(first_column, bool):
        labels = None
        start = int(first_column)
        index_width = _int_width(np.array([start, start + max(n_rows - 1, 0)]))
        first_bytes = 1 + index_width
    else:
        labels = [_csv_line([c])[:-1].encode("utf-8") for c in first_column]
        if len(labels) != n_rows:
            raise ValueError(f"{len(labels)} labels for a table of {n_rows} rows")
        first_bytes = 0
    if values.dtype.kind == "f":
        cell_bytes = FLOAT_CELL_BYTES
        format_cells = functools.partial(_float_cells, lead=ord(","))
    else:
        width = _int_width(values)
        cell_bytes = 1 + width
        format_cells = functools.partial(_int_cells, lead=ord(","), width=width)
    line_bytes = first_bytes + n_columns * cell_bytes + 1
    block_rows = max(1, TABLE_BLOCK_BYTES // line_bytes)
    try:
        with open(path, "wb") as fh:
            fh.write(_csv_line(header).encode("utf-8"))
            for lo in range(0, n_rows, block_rows):
                block = values[lo : lo + block_rows]
                lines = np.empty((len(block), line_bytes), dtype=np.uint8)
                if labels is None:
                    index = np.arange(start + lo, start + lo + len(block))
                    lines[:, :first_bytes] = _int_cells(index, 0, index_width)
                lines[:, first_bytes:-1] = format_cells(block).reshape(len(block), -1)
                lines[:, -1] = ord("\n")
                text = lines.tobytes().translate(None, b"\0")
                if labels is not None:  # each row's label, then its numbers
                    ends = np.cumsum(np.count_nonzero(lines, axis=1)).tolist()
                    text = b"".join(label + text[a:b] for label, a, b in zip(labels[lo:], [0, *ends], ends))
                fh.write(text)
    except OSError as exc:
        raise _write_error(path, exc) from exc
