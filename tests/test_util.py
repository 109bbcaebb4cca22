import csv
import errno
import os

import numpy as np
import pytest

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
    monkeypatch.setattr(util.os, "cpu_count", lambda: 4)
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
    monkeypatch.setattr(util.os, "cpu_count", lambda: None)
    assert parallel_map(square, range(5), jobs=8) == [0, 1, 4, 9, 16]
    assert executor.started == []



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


@pytest.mark.parametrize(
    "first_index, rows, columns",
    [
        (0, 0, 3),
        (0, 1, 0),
        (5, 10, 15),  # index widths 1 and 2
        (0, util.DIGIT_BLOCK_ROWS + 1, 2),
        (99_990, util.DIGIT_BLOCK_ROWS + 20, 4),  # a width change and a block edge
    ],
)
def test_write_digit_csv_is_write_csv_of_the_rows(tmp_path, first_index, rows, columns):
    digits = np.random.default_rng(rows).integers(0, 10, (rows, columns), dtype=np.uint8)
    header = ["t", *[f"node_{i}" for i in range(columns)]]
    util.write_csv(tmp_path / "rows.csv", header,
                   ([first_index + t, *row] for t, row in enumerate(digits.tolist())))
    util.write_digit_csv(tmp_path / "table.csv", header, first_index, digits)
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize(
    "first_index, digits",
    [(0, np.array([[10]], dtype=np.uint8)), (0, np.array([[-1]])), (0, np.array([[0.5]])),
     (0, np.zeros(3, dtype=np.uint8)), (-1, np.zeros((1, 1), dtype=np.uint8))],
)
def test_write_digit_csv_rejects_what_is_not_a_digit_table(tmp_path, first_index, digits):
    with pytest.raises(ValueError, match="digit table"):
        util.write_digit_csv(tmp_path / "out.csv", ["t", "a"], first_index, digits)


def test_writers_name_a_file_they_cannot_write(tmp_path):
    missing = tmp_path / "no-such-dir" / "out.csv"
    reason = os.strerror(errno.ENOENT)
    with pytest.raises(ValueError, match=f"^cannot write {missing}: {reason}$"):
        util.write_csv(missing, ["a"], [[1]])
    with pytest.raises(ValueError, match=f"^cannot write {missing}: {reason}$"):
        util.write_digit_csv(missing, ["t", "a"], 0, np.zeros((1, 1), dtype=np.uint8))
    with pytest.raises(ValueError, match=f"^cannot write {missing}: {reason}$"):
        util.write_json_atomic(missing, {"a": 1})
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    with pytest.raises(ValueError, match=f"^cannot write {blocked}: {os.strerror(errno.EISDIR)}$"):
        util.write_json_atomic(blocked, {"a": 1})
    assert not list(tmp_path.glob("*.tmp"))  # the temp file is gone
