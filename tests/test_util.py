import csv
import errno
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiermf import util
from hiermf.util import parallel_map


def square(x):
    return x * x


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in-process."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def executor(monkeypatch):
    RecordingExecutor.started = []
    monkeypatch.setattr(util, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(util, "available_cpus", lambda: 4)
    return RecordingExecutor


@pytest.mark.parametrize(
    "jobs, n_items, workers",
    [(1000, 10, 4), (3, 10, 3), (8, 2, 2), (8, 1, None), (1, 10, None), (0, 10, None)],
)
def test_worker_count_is_clamped(executor, jobs, n_items, workers):
    items = list(range(n_items))
    assert parallel_map(square, items, jobs=jobs) == [x * x for x in items]
    assert executor.started == ([] if workers is None else [workers])


def test_unknown_cpu_count_runs_in_process(executor, monkeypatch):
    monkeypatch.setattr(util, "available_cpus", lambda: None)
    assert parallel_map(square, range(5), jobs=8) == [0, 1, 4, 9, 16]
    assert executor.started == []


def test_available_cpus_counts_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(util.os, "cpu_count", lambda: 64)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {0, 3})
        assert util.available_cpus() == 2
    monkeypatch.delattr(util.os, "sched_getaffinity", raising=False)
    assert util.available_cpus() == 64


def test_write_csv_cells(tmp_path):
    path = tmp_path / "out.csv"
    util.write_csv(path, ["name", "x", "k"], [
        ["plain", 0.1, 3],
        ['a,b "c"', np.float64(1 / 3), np.uint8(1)],
        [np.int64(7), np.float32(0.5), True],
        [1, 2.5, -0.0],
    ])
    assert path.read_bytes() == (
        b'name,x,k\nplain,0.1,3\n"a,b ""c""",0.3333333333333333,1\n7,0.5,True\n1,2.5,-0.0\n'
    )
    with open(path, newline="") as fh:
        assert [len(row) for row in csv.reader(fh)] == [3] * 5


def float_texts(values):
    """The text _float_cells lays out for each double of `values`."""
    cells = util._float_cells(np.asarray(values, dtype=np.float64), ord(","))
    return cells.tobytes().translate(None, b"\0").decode().split(",")[1:]


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40))
@settings(max_examples=300, deadline=None)
def test_float_cells_are_repr_of_any_double(values):
    assert float_texts(values) == [repr(v) for v in values]


def test_float_cells_are_repr_of_random_bit_patterns():
    bits = np.random.default_rng(2020).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert float_texts(values) == [repr(v) for v in values.tolist()]


def test_float_cells_are_repr_at_the_edges():
    powers = np.array([2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)])
    fixed = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, float(2**53 - 1),
             float(2**53), float(2**53 + 1), float(2**53 + 2), 1e15, 1e16, 1e17, 1e-4, 1e-5, 0.0, np.nan, np.inf]
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), fixed])
    values = np.concatenate([values, -values])
    assert float_texts(values) == [repr(v) for v in values.tolist()]


def assert_table_is_write_csv(tmp_path, header, first_column, values):
    values = np.asarray(values)
    if isinstance(first_column, int):
        firsts = range(first_column, first_column + len(values))
    else:
        firsts = first_column
    util.write_csv(tmp_path / "rows.csv", header,
                   ([first, *row] for first, row in zip(firsts, values.tolist())))
    util.write_table_csv(tmp_path / "table.csv", header, first_column, values)
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize(
    "first_index, rows, columns",
    [
        (0, 0, 3),
        (0, 1, 0),
        (5, 10, 15),  # index widths 1 and 2
        (0, 65_537, 2),  # a block edge
        (99_990, 65_556, 4),  # a width change and block edges
    ],
)
def test_write_digit_csv_is_write_csv_of_the_rows(tmp_path, first_index, rows, columns):
    """An activation table: digits 0-9, numbered by the step."""
    digits = np.random.default_rng(rows).integers(0, 10, (rows, columns), dtype=np.uint8)
    header = ["t", *[f"node_{i}" for i in range(columns)]]
    assert_table_is_write_csv(tmp_path, header, first_index, digits)


@pytest.mark.parametrize(
    "values",
    [
        np.array([[-3, 0, 12], [7, -120, 5]], dtype=np.int8),
        np.array([[np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0]]),
        np.array([[np.iinfo(np.uint64).max, 10**19, 9]], dtype=np.uint64),
        np.random.default_rng(3).integers(-10**12, 10**12, (50, 6)),
        np.zeros((0, 4), dtype=np.int64),
        np.zeros((3, 0), dtype=np.int64),
    ],
)
@pytest.mark.parametrize("first_index", [95, -7])  # widths 2 and 3; a sign, then none
def test_write_table_csv_of_ints_is_write_csv_of_the_rows(tmp_path, monkeypatch, values,
                                                          first_index):
    monkeypatch.setattr(util, "TABLE_BLOCK_BYTES", 256)
    assert_table_is_write_csv(tmp_path, ["t", *"abcdef"[: values.shape[1]]], first_index, values)


@pytest.mark.parametrize(
    "values",
    [
        np.random.default_rng(4).standard_normal((300, 5)) * 0.01,
        np.array([[0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324], [1e16, 1e-5, 123.0, -0.1, 2.5e300, 7.0]]),
        (np.random.default_rng(5).standard_normal((40, 3)) * 1e3).astype(np.float32),
        np.zeros((0, 3)),
        np.zeros((4, 0)),
    ],
)
def test_write_table_csv_of_floats_is_write_csv_of_the_rows(tmp_path, monkeypatch, values):
    monkeypatch.setattr(util, "TABLE_BLOCK_BYTES", 2000)
    assert_table_is_write_csv(tmp_path, ["t", *"abcdef"[: values.shape[1]]], 0, values)


def test_write_table_csv_quotes_labels_as_write_csv_does(tmp_path, monkeypatch):
    monkeypatch.setattr(util, "TABLE_BLOCK_BYTES", 200)
    labels = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\r", "nul\0byte", "naïve ü", "", 7, 2.5]
    values = np.random.default_rng(6).standard_normal((len(labels), 3))
    assert_table_is_write_csv(tmp_path, ["", "x,y", "z", "w"], labels, values)
    with open(tmp_path / "table.csv", newline="", encoding="utf-8") as fh:
        assert [row[0] for row in csv.reader(fh)][1:] == [str(label) for label in labels]


def test_write_table_csv_formats_small_blocks(tmp_path, monkeypatch):
    """A 400 x 400 matrix goes out a few rows at a time, never as one buffer."""
    sizes = []
    float_cells = util._float_cells
    monkeypatch.setattr(util, "_float_cells", lambda x, lead: sizes.append(x.size) or float_cells(x, lead))
    values = np.random.default_rng(7).uniform(-1, 1, (400, 400))
    util.write_table_csv(tmp_path / "c.csv", ["", *map(str, range(400))], list(map(str, range(400))), values)
    assert sum(sizes) == values.size and len(sizes) > 1
    assert max(sizes) * util.FLOAT_CELL_BYTES <= util.TABLE_BLOCK_BYTES < 1 << 20


def test_write_table_csv_peaks_at_a_few_blocks():
    values = np.random.default_rng(8).standard_normal((200_000, 16))
    tracemalloc.start()
    try:
        util.write_table_csv(os.devnull, ["t", *"abcdefghijklmnop"], 0, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the text is about 20 bytes a cell, 64 MB in all
    assert peak < 12 * util.TABLE_BLOCK_BYTES


@pytest.mark.parametrize(
    "first_column, values",
    [(0, np.zeros(3)), (0, np.zeros((1, 1, 1))), (0, np.zeros((1, 1), dtype=bool)),
     (0, np.zeros((1, 1), dtype=complex)), (0, np.array([["1"]])), (["a", "b"], np.zeros((1, 1)))],
)
def test_write_table_csv_rejects_what_is_not_a_table(tmp_path, first_column, values):
    with pytest.raises(ValueError, match="table"):
        util.write_table_csv(tmp_path / "out.csv", ["t", "a"], first_column, values)
    assert not (tmp_path / "out.csv").exists()


def test_writers_name_a_file_they_cannot_write(tmp_path):
    missing = tmp_path / "no-such-dir" / "out.csv"
    reason = os.strerror(errno.ENOENT)
    with pytest.raises(ValueError, match=f"^cannot write {missing}: {reason}$"):
        util.write_csv(missing, ["a"], [[1]])
    with pytest.raises(ValueError, match=f"^cannot write {missing}: {reason}$"):
        util.write_table_csv(missing, ["t", "a"], 0, np.zeros((1, 1), dtype=np.uint8))
    with pytest.raises(ValueError, match=f"^cannot write {missing}: {reason}$"):
        util.write_json_atomic(missing, {"a": 1})
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    with pytest.raises(ValueError, match=f"^cannot write {blocked}: {os.strerror(errno.EISDIR)}$"):
        util.write_json_atomic(blocked, {"a": 1})
    assert not list(tmp_path.glob("*.tmp"))  # the temp file is gone
