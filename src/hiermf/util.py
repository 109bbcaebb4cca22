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
    # imported here, so that a process that never starts a pool never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

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


_NEEDS_QUOTES = re.compile(r'[",\r\n]')


def _quoted(text: str) -> str:
    """csv's minimal quoting: a cell holding a comma, a quote or a line break is quoted."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


# Float cells in numpy: Schubfach's shortest round-trip decimal (R. Giulietti, "The
# Schubfach way to render doubles", 2020, as in Java's DoubleToDecimal), laid out as
# Python's repr. Java also tries two digits where one would do; repr does not, so
# here the shorter candidate is always tried and no subnormal is scaled up.
_U64 = np.uint64
# the uint64 constants of the kernels as 0-d arrays, which a ufunc takes about twice as
# fast as numpy scalars, so a call on a few values costs less
_UINT = {
    v: np.array(v, dtype=_U64) for v in (0, 1, 2, 10, 32, 52, 63, 0x7FF, 10**8, 2**52 - 1, 2**52, 10**16)
}
_MASK32 = np.array(2**32 - 1, dtype=_U64)
_MASK63 = np.array(2**63 - 1, dtype=_U64)
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
    return x >> _UINT[32], x & _MASK32


def _mulhi(a: tuple, b: tuple) -> np.ndarray:
    """The high 64 bits of the 128-bit products of uint64 arrays given as 32-bit halves."""
    (a1, a0), (b1, b0) = a, b
    t = a1 * b0 + ((a0 * b0) >> _UINT[32])
    w = (t & _MASK32) + a0 * b1
    return a1 * b1 + (t >> _UINT[32]) + (w >> _UINT[32])


def _round_to_odd(g1: np.ndarray, g: tuple, cp: np.ndarray) -> np.ndarray:
    """floor(g * cp / 2**127), its lowest bit set when the division is inexact."""
    halves = _halves(cp)
    z = ((g1 * cp) >> _UINT[1]) + _mulhi(g[1], halves)
    return (_mulhi(g[0], halves) + (z >> _UINT[63])) | (((z & _MASK63) + _MASK63) >> _UINT[63])


def _shortest_decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k), uint64 and int64, with f * 10**k the decimal repr gives each finite nonzero
    double of `bits`, its sign dropped; f may end in zeros. Other doubles give garbage."""
    biased = ((bits >> _UINT[52]) & _UINT[0x7FF]).astype(np.int64)
    fraction = bits & _UINT[2**52 - 1]
    normal = biased != 0
    c = np.where(normal, fraction | _UINT[2**52], fraction)
    q = np.where(normal, biased - 1075, -1074)  # the double is c * 2**q
    # at a power of two the next double down is half as far as the next one up
    irregular = normal & (fraction == 0) & (biased > 1)
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U64)
    g1 = _G1[k - _K_MIN]
    g = (_halves(g1), _halves(_G0[k - _K_MIN]))
    # vb, vbl, vbr: 4 * (the double, the lower and the upper rounding bound) / 10**k;
    # a double with an even c rounds its bounds to itself, so they count as inside
    odd = c & _UINT[1]
    cb = c << _UINT[2]
    vb = _round_to_odd(g1, g, cb << h)
    vbl = _round_to_odd(g1, g, (cb - np.where(irregular, _UINT[1], _UINT[2])) << h) + odd
    vbr = _round_to_odd(g1, g, (cb + _UINT[2]) << h) - odd
    s = vb >> _UINT[2]
    # one digit fewer: whichever of the two multiples of 10 around s lies within the bounds
    u10 = s // _UINT[10] * _UINT[10]
    u10_in = vbl <= u10 << _UINT[2]
    w10_in = (u10 + _UINT[10]) << _UINT[2] <= vbr
    t = s + _UINT[1]
    u_in = vbl <= s << _UINT[2]
    w_in = t << _UINT[2] <= vbr
    # both s and t within the bounds: the closer one, the even one on a tie
    closer = vb.astype(np.int64) - ((s + t) << _UINT[1]).astype(np.int64)
    pick_s = np.where(u_in != w_in, u_in, (closer < 0) | ((closer == 0) & (s & _UINT[1] == 0)))
    f = np.where(u10_in != w10_in, np.where(u10_in, u10, u10 + _UINT[10]), np.where(pick_s, s, t))
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
    first = digits17 // _UINT[10**16]
    rest = digits17 - first * _UINT[10**16]
    high = (rest // _UINT[10**8]).astype(np.int64)
    low = (rest - high.astype(_U64) * _UINT[10**8]).astype(np.int64)
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
    cells[:, 1:7] = _PREFIX[(bits >> _UINT[63]).astype(np.intp) * 5 + np.where(fraction, 1 - point, 0)]
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
    magnitude[negative] = _UINT[0] - magnitude[negative]
    for j in range(width):
        digit = (magnitude % _UINT[10]).astype(np.uint8) + ord("0")
        cells[:, width - j] = digit if j == 0 else np.where(magnitude != 0, digit, 0)
        magnitude //= _UINT[10]
    cells[negative, 1] = ord("-")  # a negative number has fewer than `width` digits
    return cells


# a row block's NUL-padded text stays below this many bytes
TABLE_BLOCK_BYTES = 1 << 18
_FLOATS = (float, np.floating)
_LABEL_SLOTS = np.array([ord(","), ord("\n")], dtype=np.uint8)
_LINE_END = np.array([ord("\n")], dtype=np.uint8)


def _label_texts(cells: Sequence) -> list[bytes]:
    """Each cell's text for joining in around the NUL buffer: repr(float(c)) from _float_cells
    for a float or np.floating, _quoted(str(c)) for anything else."""
    texts = [None if isinstance(c, _FLOATS) else _quoted(str(c)).encode("utf-8") for c in cells]
    at = [i for i, text in enumerate(texts) if text is None]
    if at:
        floats = _float_cells(np.array([cells[i] for i in at], dtype=np.float64), ord(","))
        for i, text in zip(at, floats.tobytes().translate(None, b"\0").split(b",")[1:]):
            texts[i] = text
    return texts


def _block_lines(n_rows: int, columns: Sequence) -> bytes:
    """The CSV lines of `n_rows` rows from their columns in order: uint8 arrays of `n_rows`
    rows of number cells as _float_cells and _int_cells lay them out, each led by a comma,
    and lists of label texts, one per row.

    Each label takes two slots of the NUL-padded buffer, a comma and a line break that
    marks its place; bytes.translate drops the NULs, and the labels are joined in at the
    marks, so they never pass through the buffer.
    """
    slots, labels = [], []
    for column in columns:
        if isinstance(column, np.ndarray):
            slots.append(column)
        else:
            slots.append(np.broadcast_to(_LABEL_SLOTS, (n_rows, 2)))
            labels.append(column)
    lines = np.concatenate([*slots, np.broadcast_to(_LINE_END, (n_rows, 1))], axis=1)
    if columns:
        lines[:, 0] = 0  # a row's first cell has no comma before it
    text = lines.tobytes().translate(None, b"\0")
    if not labels:
        return text
    # per row: numbers, label, numbers, ..., label, numbers, each piece ended by a line break
    step = len(labels) + 1
    numbers = text.split(b"\n")
    pieces = [b"\n"] * (2 * step * n_rows)
    for k in range(step):
        pieces[2 * k :: 2 * step] = numbers[k : -1 : step]
    for k, label in enumerate(labels):
        pieces[2 * k + 1 :: 2 * step] = label
    return b"".join(pieces)


@functools.lru_cache(maxsize=64)
def _signature_kinds(signatures: frozenset) -> tuple:
    """For rows whose cell types are the tuples `signatures`, each column's kind: np.float64
    if all its types are float or np.floating, np.int64 if all are int or np.integer (bool
    is neither), else None, a column of labels."""
    kinds = []
    for types in zip(*signatures):
        if all(issubclass(t, _FLOATS) for t in types):
            kinds.append(np.float64)
        elif all(t is int or issubclass(t, np.integer) for t in types):
            kinds.append(np.int64)
        else:
            kinds.append(None)
    return tuple(kinds)


def _typed_columns(rows: list) -> list:
    """The columns of equal-length `rows` for _block_lines, each run of adjacent columns of
    one kind as one array; one _float_cells call formats all the float columns and one
    _int_cells call all the int columns. An int column is labels unless all of it fits int64."""
    cells = list(zip(*rows))
    kinds = list(_signature_kinds(frozenset(tuple(map(type, row)) for row in rows)))
    for j, kind in enumerate(kinds):
        if kind is np.int64:
            ints = list(map(int, cells[j]))
            if not -(2**63) <= min(ints) <= max(ints) < 2**63:
                kinds[j] = None
    formatted = {}
    for kind in (np.float64, np.int64):
        numbers = np.array([c for c, k in zip(cells, kinds) if k is kind], dtype=kind).T
        if numbers.size:
            if kind is np.float64:
                numbers = _float_cells(numbers, ord(","))
            else:
                numbers = _int_cells(numbers, ord(","), _int_width(numbers))
            formatted[kind] = numbers.reshape(len(rows), -1, numbers.shape[1])
    columns, used = [], dict.fromkeys(formatted, 0)
    for kind, group in itertools.groupby(zip(kinds, cells), key=lambda pair: pair[0]):
        group = [column for _, column in group]
        if kind is None:
            columns += map(_label_texts, group)
        else:
            at = used[kind]
            used[kind] += len(group)
            columns.append(formatted[kind][:, at : at + len(group)].reshape(len(rows), -1))
    return columns


def _header_line(header: Sequence[str]) -> bytes:
    """The header line, its cells written as labels."""
    return b",".join(_label_texts(header)) + b"\n"


def _row_blocks(rows: Iterable[Sequence]) -> Iterator[list]:
    """`rows` in lists of consecutive rows, each as many as TABLE_BLOCK_BYTES holds when every
    cell takes FLOAT_CELL_BYTES of the buffer, and at least one."""
    block, size = [], 0
    for row in rows:
        row_bytes = len(row) * FLOAT_CELL_BYTES + 1
        if block and size + row_bytes > TABLE_BLOCK_BYTES:
            yield block
            block, size = [], 0
        block.append(row)
        size += row_bytes
    if block:
        yield block


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with "\\n" line ends and round-trip floats (byte-stable by content).

    `rows` is any iterable of sequences, a generator too; it is read a block
    of rows at a time, so the writer holds one block and its text. Within a
    block, each run of rows of one length is typed column by column: a
    column of floats (float or np.floating) or of ints (int or np.integer,
    all within int64) is formatted in numpy, one kernel call for each run of
    adjacent columns of one kind. Any other column is labels: str() of each
    cell, but repr(float(c)) of a float. A cell holding a comma, a quote or a
    line break is quoted, as csv's minimal quoting does, so csv.reader reads
    every row back whole. A file that cannot be written is a ValueError
    naming `path`.
    """
    try:
        with open(path, "wb") as fh:
            fh.write(_header_line(header))
            for block in _row_blocks(rows):
                for _, run in itertools.groupby(block, len):
                    run = list(run)
                    fh.write(_block_lines(len(run), _typed_columns(run)))
    except OSError as exc:
        raise _write_error(path, exc) from exc


def write_table_csv(
    path: str | os.PathLike, header: Sequence[str], first_column, values: np.ndarray
) -> None:
    """The bytes of write_csv for rows [first_cell, *values[r]] of a 2-d int or float array.

    `first_column` is either the first row's index, each later row's one
    more, or one label per row, written as write_csv writes a label column.
    One kernel call formats each block of rows of `values`. A file that
    cannot be written is a ValueError naming `path`.
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
        first_bytes = 1 + _int_width(np.array([start, start + max(n_rows - 1, 0)]))
    else:
        labels = _label_texts(list(first_column))
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
    block_rows = max(1, TABLE_BLOCK_BYTES // (first_bytes + n_columns * cell_bytes + 1))
    try:
        with open(path, "wb") as fh:
            fh.write(_header_line(header))
            for lo in range(0, n_rows, block_rows):
                block = values[lo : lo + block_rows]
                if labels is None:
                    index = np.arange(start + lo, start + lo + len(block))
                    first = _int_cells(index, ord(","), first_bytes - 1)
                else:
                    first = labels[lo : lo + block_rows]
                fh.write(_block_lines(len(block), [first, format_cells(block).reshape(len(block), -1)]))
    except OSError as exc:
        raise _write_error(path, exc) from exc
