import csv
import io
import itertools
import math
import operator
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from hiermf import market_data, util
from hiermf.market_data import (
    CsvSchema,
    PricePanel,
    ReturnsPanel,
    WindowSpec,
    load_prices_csv,
    log_returns,
    returns_panel,
    rolling_windows,
)


def make_panel(**columns):
    """A PricePanel of equal-length price columns named by keyword, on generated dates."""
    prices = np.column_stack([np.asarray(c, float) for c in columns.values()])
    dates = [f"2020-{1 + t // 28:02d}-{1 + t % 28:02d}" for t in range(prices.shape[0])]
    return PricePanel(dates=dates, tickers=tuple(columns), prices=prices)


def column(panel, ticker):
    """(dates, prices) of the valid rows of one ticker."""
    prices = panel.prices[:, panel.tickers.index(ticker)]
    valid = ~np.isnan(prices)
    return tuple(itertools.compress(panel.dates, valid.tolist())), prices[valid]


# --- CSV ingestion ---


def test_load_identity(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("date,AAA\n2020-01-01,100\n2020-01-02,110\n2020-01-03,121\n")
    panel, report = load_prices_csv(f)
    assert panel.dates == ("2020-01-01", "2020-01-02", "2020-01-03")
    assert panel.tickers == ("AAA",)
    assert panel.prices.tolist() == [[100.0], [110.0], [121.0]]
    assert report.drop_counts == {"AAA": 0}


def test_load_drops_bad_rows_per_ticker(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text(
        "date,AAA,BBB\n"
        "2020-01-01,100,50\n"
        "2020-01-02,-4,51\n"
        "2020-01-03,121,52\n"
    )
    panel, report = load_prices_csv(f)
    assert panel.prices[:, 0].tolist()[::2] == [100.0, 121.0] and math.isnan(panel.prices[1, 0])
    assert report.drop_counts == {"AAA": 1, "BBB": 0}
    assert panel.prices[:, 1].tolist() == [50.0, 51.0, 52.0]


def test_load_missing_cell_drops(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("date,AAA\n2020-01-01,100\n2020-01-02,\n2020-01-03,105\n")
    panel, report = load_prices_csv(f)
    dates, prices = column(panel, "AAA")
    assert dates == ("2020-01-01", "2020-01-03") and prices.tolist() == [100.0, 105.0]
    assert report.drop_counts["AAA"] == 1


def test_load_non_monotone_dates(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("date,AAA\n2020-01-05,100\n2020-01-02,110\n")
    with pytest.raises(ValueError, match="not strictly increasing"):
        load_prices_csv(f)


def test_load_unreadable(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        load_prices_csv(tmp_path / "missing.csv")


def test_load_no_valid_rows(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("date,AAA\n2020-01-01,-1\n2020-01-02,-2\n2020-01-03,5\n")
    with pytest.raises(ValueError, match="fewer than 2 valid rows"):
        load_prices_csv(f)


def test_load_full_sample_span(tmp_path):
    rows = ["date,AAA"]
    rng = np.random.default_rng(0)
    price = 100.0
    for t in range(4026):
        price *= math.exp(0.01 * rng.standard_normal())
        rows.append(f"{10000 + t},{price}")
    f = tmp_path / "span.csv"
    f.write_text("\n".join(rows) + "\n")
    panel, _ = load_prices_csv(f)
    assert panel.prices.shape == (4026, 1) and not np.isnan(panel.prices).any()


def test_configurable_delimiter(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("date;AAA\n2020-01-01;100\n2020-01-02;110\n")
    panel, _ = load_prices_csv(f, CsvSchema(delimiter=";"))
    assert panel.tickers == ("AAA",) and panel.prices.tolist() == [[100.0], [110.0]]


@pytest.mark.parametrize("delimiter", [";;", "", '"', "\r", "\n", 5])
def test_schema_rejects_a_delimiter_the_reader_cannot_use(delimiter):
    with pytest.raises(ValueError, match="delimiter must be one character other than a quote or a line break"):
        CsvSchema(delimiter=delimiter)


def reference_load_prices_csv(path, schema=None):
    """The row-at-a-time DictReader loader that load_prices_csv replaced.

    Kept only as the oracle for the column-at-a-time loader.
    """
    schema = schema or CsvSchema()
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh, delimiter=schema.delimiter)
        if reader.fieldnames is None or schema.date_column not in reader.fieldnames:
            raise ValueError(f"{path}: missing date column {schema.date_column!r}")
        tickers = list(schema.price_columns or [c for c in reader.fieldnames if c != schema.date_column])
        for t in tickers:
            if t not in reader.fieldnames:
                raise ValueError(f"{path}: missing price column {t!r}")
        if not tickers:
            raise ValueError(f"{path}: no price columns")
        dates = []
        kept = {t: [] for t in tickers}
        drop_counts = {t: 0 for t in tickers}
        prev_date = None
        for lineno, row in enumerate(reader, start=2):
            date = (row.get(schema.date_column) or "").strip()
            if not date:
                raise ValueError(f"{path}:{lineno}: empty date")
            if prev_date is not None and not prev_date < date:
                raise ValueError(
                    f"{path}:{lineno}: dates not strictly increasing ({date!r} after {prev_date!r})"
                )
            prev_date = date
            dates.append(date)
            for t in tickers:
                cell = (row.get(t) or "").strip()
                try:
                    price = float(cell)
                except ValueError:
                    price = math.nan
                if math.isfinite(price) and price > 0:
                    kept[t].append((date, price))
                else:
                    drop_counts[t] += 1
        if not dates:
            raise ValueError(f"{path}: no data rows")
    series = {}
    for t in tickers:
        if len(kept[t]) < 2:
            raise ValueError(f"{path}: ticker {t!r} has fewer than 2 valid rows")
        ts, px = zip(*kept[t])
        series[t] = (ts, np.array(px))
    return series, drop_counts


@dataclass(frozen=True)
class ReferenceSeries:
    """The per-ticker price series that PricePanel replaced, with its checks."""

    ticker: str
    timestamps: tuple
    prices: np.ndarray

    def __post_init__(self):
        if len(self.timestamps) != self.prices.shape[0]:
            raise ValueError(f"{self.ticker}: {len(self.timestamps)} timestamps vs {self.prices.shape[0]} prices")
        if self.prices.shape[0] < 2:
            raise ValueError(f"{self.ticker}: need at least 2 prices, got {self.prices.shape[0]}")
        if not np.all(np.isfinite(self.prices)) or np.any(self.prices <= 0):
            raise ValueError(f"{self.ticker}: prices must be finite and strictly positive")
        if not all(map(operator.lt, self.timestamps, self.timestamps[1:])):
            raise ValueError(f"{self.ticker}: timestamps not strictly increasing")


def reference_align_series(series):
    """Intersect the series' date sets, as alignment did before the price matrix."""
    common = set(series[0].timestamps).intersection(*(s.timestamps for s in series[1:]))
    if len(common) < 2:
        running = set(series[0].timestamps)
        for s in series[1:]:
            running.intersection_update(s.timestamps)
            if len(running) < 2:
                break
        raise ValueError(
            f"fewer than 2 common dates across tickers; ticker {s.ticker!r} ({len(s.timestamps)} dates) "
            f"leaves {len(running)} in common with the tickers before it"
        )
    dates = tuple(filter(common.__contains__, series[0].timestamps))
    matrix = np.column_stack([
        s.prices[np.fromiter(map(common.__contains__, s.timestamps), bool, len(s.timestamps))]
        for s in series
    ])
    return dates, tuple(s.ticker for s in series), matrix


def reference_returns(path, schema=None):
    """(times, returns bytes, drop counts) of the series path, or its error message.

    The reference loader builds one ReferenceSeries per ticker, the series
    are intersection-aligned, and log-returns are taken of the aligned
    matrix; this is the pipeline that load_prices_csv + returns_panel replaced.
    """
    try:
        loaded, drops = reference_load_prices_csv(path, schema)
        series = [ReferenceSeries(t, stamps, prices) for t, (stamps, prices) in loaded.items()]
        dates, tickers, matrix = reference_align_series(series)
        logs = np.log(matrix)
        values = logs[1:] - logs[:-1]
    except ValueError as exc:
        return str(exc)
    return tickers, dates[1:], values.tobytes(), drops


def matrix_returns(path, schema=None):
    """The same outcome through load_prices_csv and returns_panel."""
    try:
        panel, report = load_prices_csv(path, schema)
        returns = returns_panel(panel)
    except ValueError as exc:
        return str(exc)
    return returns.assets, returns.times, returns.values.tobytes(), report.drop_counts


def load_outcome(loader, path, schema):
    try:
        return loader(path, schema)
    except ValueError as exc:
        return str(exc)


ORACLE_FILES = {
    "bad_cells": (
        "date,A,B\n"
        "d01,,1\nd02,  ,2\nd03,-4,3\nd04,0,4\nd05,nan,5\nd06,inf,6\n"
        "d07,1_000,7\nd08, 1.5 ,8\nd09,abc,9\nd10,1e,10\nd11,2.5,-inf\nd12,3,1e400\n",
        CsvSchema(),
    ),
    "short_and_long_rows": (
        "date,A,B,C\nd1,1,2,3\nd2,4\nd3,5,6,7,8,9\nd4,6,,\nd5,7,8\n",
        CsvSchema(),
    ),
    "repeated_date_column": (
        "date,A,date\nx1,1,d1\nx0,2,d2\nx2,3,d3\n",
        CsvSchema(),
    ),
    "repeated_selected_column": (
        "date,A,B,A\nd1,1,5,10\nd2,2,6,\nd3,3,7,30\nd4,4,8,40\n",
        CsvSchema(price_columns=("A", "B")),
    ),
    "quoted_fields": (
        'date,"A,1",B\n"d1","1.5",2\nd2,"1,5",3\n"d3",3,"4"\nd4,"4",5\n',
        CsvSchema(),
    ),
    "semicolon_blank_lines": (
        "date;A;B\n\nd1;1,5;2\n\nd2;2;3\nd3;3;4\n\n",
        CsvSchema(delimiter=";"),
    ),
    "all_cells_bad": (
        "date,A,B\nd1,1,x\nd2,2,\nd3,3,-1\n",
        CsvSchema(),
    ),
    "whitespace_dates": (
        "date,A\n d1 ,1\nd2\t,2\n",
        CsvSchema(),
    ),
    "empty_date": ("date,A\nd1,1\n  ,2\nd3,3\n", CsvSchema()),
    "non_monotone_then_empty": ("date,A\nd1,1\nd3,2\nd2,3\n,4\n", CsvSchema()),
    "empty_then_non_monotone": ("date,A\nd1,1\n,2\nd0,3\n", CsvSchema()),
    "equal_dates": ("date,A\nd1,1\nd1,2\n", CsvSchema()),
    "short_row_without_date": ("x,y,date,A\n1,2,d1,3\n1,2\n", CsvSchema()),
    "missing_date_column": ("day,A\nd1,1\n", CsvSchema()),
    "missing_price_column": ("date,A\nd1,1\nd2,2\n", CsvSchema(price_columns=("A", "Z"))),
    "no_price_columns": ("date\nd1\nd2\n", CsvSchema()),
    "no_data_rows": ("date,A\n\n\n", CsvSchema()),
    "empty_file": ("", CsvSchema()),
    "blank_header": ("\ndate,A\nd1,1\n", CsvSchema()),
    "one_valid_row": ("date,A,B\nd1,1,1\nd2,2,0\nd3,3,\n", CsvSchema()),
}


def assert_loader_matches_reference(f, schema=None):
    """load_prices_csv and the DictReader reference give the same columns, drops or error."""
    expected = load_outcome(reference_load_prices_csv, f, schema)
    got = load_outcome(load_prices_csv, f, schema)
    if isinstance(expected, str):
        assert got == expected
        return
    assert not isinstance(got, str), got
    panel, report = got
    ref_series, ref_drops = expected
    assert report.drop_counts == ref_drops
    assert list(report.drop_counts) == list(ref_drops)
    assert panel.tickers == tuple(ref_series)
    for t, (stamps, prices) in ref_series.items():
        got_stamps, got_prices = column(panel, t)
        assert got_stamps == stamps
        assert got_prices.tobytes() == prices.tobytes()


@pytest.mark.parametrize("name", sorted(ORACLE_FILES))
def test_loader_matches_dictreader_reference(tmp_path, name):
    text, schema = ORACLE_FILES[name]
    f = tmp_path / f"{name}.csv"
    f.write_text(text)
    assert_loader_matches_reference(f, schema)


def test_loader_cell_rules(tmp_path):
    text, schema = ORACLE_FILES["bad_cells"]
    f = tmp_path / "p.csv"
    f.write_text(text)
    panel, report = load_prices_csv(f, schema)
    dates, prices = column(panel, "A")
    assert dates == ("d07", "d08", "d11", "d12")
    assert prices.tolist() == [1000.0, 1.5, 2.5, 3.0]
    assert report.drop_counts == {"A": 8, "B": 2}


def test_loader_matches_reference_on_generated_panel(tmp_path):
    rng = np.random.default_rng(4)
    prices = 100 * np.exp(np.cumsum(0.02 * rng.standard_normal((300, 6)), axis=0))
    cells = prices.astype(object)
    cells[rng.random(prices.shape) < 0.05] = ""
    cells[rng.random(prices.shape) < 0.02] = "-1"
    lines = ["date," + ",".join(f"T{j}" for j in range(6))]
    lines += [f"{10000 + t}," + ",".join(map(str, row)) for t, row in enumerate(cells)]
    f = tmp_path / "p.csv"
    f.write_text("\n".join(lines) + "\n")
    panel, report = load_prices_csv(f)
    ref_series, ref_drops = reference_load_prices_csv(f)
    assert report.drop_counts == ref_drops and sum(ref_drops.values()) > 0
    for t, (stamps, px) in ref_series.items():
        got_stamps, got_prices = column(panel, t)
        assert got_stamps == stamps
        assert got_prices.tobytes() == px.tobytes()


def write_gappy_panel(path, n_rows=240, n_tickers=6, seed=0, edit=None):
    """A price CSV with some cells blanked, zeroed or negated by `edit(cells, rng)`."""
    rng = np.random.default_rng(seed)
    prices = 100 * np.exp(np.cumsum(0.02 * rng.standard_normal((n_rows, n_tickers)), axis=0))
    cells = prices.astype(object)
    if edit:
        edit(cells, rng)
    lines = ["date," + ",".join(f"T{j}" for j in range(n_tickers))]
    lines += [f"{10000 + t}," + ",".join(map(str, row)) for t, row in enumerate(cells)]
    path.write_text("\n".join(lines) + "\n")


def _late_listings(cells, rng):
    cells[:40, 1] = ""
    cells[:95, 4] = ""


def _scattered_bad_cells(cells, rng):
    cells[rng.random(cells.shape) < 0.04] = ""
    cells[rng.random(cells.shape) < 0.01] = "0"
    cells[rng.random(cells.shape) < 0.01] = "-2.5"
    cells[rng.random(cells.shape) < 0.005] = "nan"


def _trading_halt(cells, rng):
    cells[100:112, :] = ""


def _short_ticker(cells, rng):
    cells[1:, 3] = ""


def _short_intersection(cells, rng):
    # T0 trades only in the first half and T2 only from its last row on
    cells[120:, 0] = ""
    cells[:119, 2] = ""


def _all_of_them(cells, rng):
    for edit in (_late_listings, _scattered_bad_cells, _trading_halt):
        edit(cells, rng)


GAPPY_PANELS = {
    "complete": None,
    "late_listings": _late_listings,
    "scattered_blank_zero_negative": _scattered_bad_cells,
    "trading_halt": _trading_halt,
    "short_ticker": _short_ticker,
    "short_intersection": _short_intersection,
    "all_gaps": _all_of_them,
}


# each id keeps its "-1" suffix (the returns' scale), so each case keeps its name
@pytest.mark.parametrize("name", list(GAPPY_PANELS), ids=lambda name: f"{name}-1")
def test_returns_match_the_series_oracle_on_gappy_panels(tmp_path, name):
    f = tmp_path / f"{name}.csv"
    write_gappy_panel(f, seed=len(name), edit=GAPPY_PANELS[name])
    expected = reference_returns(f)
    assert matrix_returns(f) == expected
    if name.startswith("short"):
        assert isinstance(expected, str)
    else:
        assert not isinstance(expected, str), expected


def test_short_panel_errors_name_the_ticker_and_both_counts(tmp_path):
    f = tmp_path / "p.csv"
    write_gappy_panel(f, edit=_short_intersection)
    assert matrix_returns(f) == (
        "fewer than 2 common dates across tickers; ticker 'T2' (121 dates) "
        "leaves 1 in common with the tickers before it"
    )
    write_gappy_panel(f, edit=_short_ticker)
    assert matrix_returns(f) == f"{f}: ticker 'T3' has fewer than 2 valid rows"


@pytest.mark.parametrize("name", sorted(ORACLE_FILES))
def test_returns_match_the_series_oracle_on_edge_files(tmp_path, name):
    text, schema = ORACLE_FILES[name]
    f = tmp_path / f"{name}.csv"
    f.write_text(text)
    assert matrix_returns(f, schema) == reference_returns(f, schema)


def test_loader_rejects_duplicate_price_column(tmp_path):
    # the reference counted such a column twice and failed on repeated dates
    f = tmp_path / "p.csv"
    f.write_text("date,A,B,A\nd1,1,5,10\nd2,2,6,20\n")
    with pytest.raises(ValueError, match=r"p\.csv: duplicate price column 'A'"):
        load_prices_csv(f)


def test_loader_keeps_each_tickers_valid_dates(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("date,A,B,C\nd1,1,2,3\nd2,2,,4\nd3,3,4,5\n")
    panel, _ = load_prices_csv(f)
    assert column(panel, "A")[0] == column(panel, "C")[0] == ("d1", "d2", "d3")
    assert column(panel, "B")[0] == ("d1", "d3")
    assert math.isnan(panel.prices[1, 1])


BLOCK = market_data.LOAD_BLOCK_ROWS


def straddling_rows(n_rows=2 * BLOCK + 1):
    """Rows of a 3-ticker price CSV with odd rows at each block edge.

    The last two rows of a block hold a price cell quoted over two lines and
    a short row, blank lines follow the block, and the next block starts
    with a short row.
    """
    rows = ["date,A,B,C"]
    for t in range(n_rows):
        cells = [f"{10000 + t}", f"{100 + t}", f"{200 + t / 2}", f"{300 - t / 4}"]
        if t % BLOCK == BLOCK - 2:
            cells[2] = f'"{cells[2]}\n"'
        if t % BLOCK == BLOCK - 1 or (t and t % BLOCK == 0):
            cells = cells[: 1 + t % 2]
        rows.append(",".join(cells))
        if t % BLOCK == BLOCK - 1:
            rows += ["", ""]
    return rows


def last_row_error(last, message):
    """(text, message) of straddling_rows() ending in the row `last`; the message names its physical line."""
    rows = straddling_rows()
    rows[-1] = last
    text = "\n".join(rows) + "\n"
    return text, f":{text.count(chr(10))}: {message}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("date,A\n2020-01-01,1\n\n\n2020-01-03,2\n2020-01-02,3\n",
         ":6: dates not strictly increasing ('2020-01-02' after '2020-01-03')"),
        ("date,A\n\n2020-01-01,1\n\n,2\n", ":5: empty date"),
        # dates compare as text, so integer dates must be zero-padded
        ("date,A\n9999,1\n10000,2\n", ":3: dates not strictly increasing ('10000' after '9999')"),
        ('date,A\n2020-01-02,"1\n"\n2020-01-01,2\n', ":4: dates not strictly increasing"),
        # blank lines and a two-line cell at each block edge before the bad row
        last_row_error("10000,1,2,3",
                       f"dates not strictly increasing ('10000' after '{10000 + 2 * BLOCK - 1}')"),
        last_row_error(",1,2,3", "empty date"),
    ],
    ids=["blank_lines", "blank_lines_then_empty_date", "integer_dates_compare_as_text",
         "multiline_quoted_cell", "last_block_out_of_order", "last_block_empty_date"],
)
def test_date_errors_name_the_physical_line(tmp_path, text, message):
    f = tmp_path / "p.csv"
    f.write_text(text)
    with pytest.raises(ValueError) as info:
        load_prices_csv(f)
    assert str(info.value).startswith(f"{f}{message}")


def test_date_error_reads_the_file_once_and_keeps_its_line(tmp_path, monkeypatch):
    f = tmp_path / "p.csv"
    f.write_text("date,A\n\n2020-01-02,1\n2020-01-01,2\n")
    opened = []

    def open_and_rewrite(path, *args, **kwargs):
        # hand over the content, then shorten the file as a writer might
        opened.append(path)
        with open(path, *args, **kwargs) as fh:
            text = fh.read()
        f.write_text("date,A\n")
        return io.StringIO(text)

    monkeypatch.setattr(util, "open", open_and_rewrite, raising=False)
    with pytest.raises(ValueError) as info:
        load_prices_csv(f)
    assert str(info.value) == (
        f"{f}:4: dates not strictly increasing ('2020-01-01' after '2020-01-02')"
    )
    assert opened == [f]


@pytest.mark.parametrize(
    "n_rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1],
    ids=["block-1", "block", "block+1", "2block+1"],
)
def test_loader_matches_the_oracle_at_block_edges(tmp_path, n_rows):
    f = tmp_path / "p.csv"
    write_gappy_panel(f, n_rows=n_rows, seed=n_rows, edit=_scattered_bad_cells)
    assert_loader_matches_reference(f)
    assert matrix_returns(f) == reference_returns(f)


def test_blank_lines_short_rows_and_quoted_cells_at_block_edges_match_the_oracle(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("\n".join(straddling_rows()) + "\n")
    panel, report = load_prices_csv(f)
    assert panel.prices.shape == (2 * BLOCK + 1, 3)
    assert report.drop_counts == {"A": 2, "B": 4, "C": 4}
    assert_loader_matches_reference(f)
    assert matrix_returns(f) == reference_returns(f)


def test_a_ticker_valid_only_in_the_last_block_is_named(tmp_path):
    rows = straddling_rows()
    for k in range(1, len(rows) - 1):
        cells = rows[k].split(",")
        if len(cells) == 4:  # blank C's cell; short rows and blank lines have none
            rows[k] = ",".join(cells[:3] + [""])
    f = tmp_path / "p.csv"
    f.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError) as info:
        load_prices_csv(f)
    assert str(info.value) == f"{f}: ticker 'C' has fewer than 2 valid rows"


def test_load_memory_is_the_price_array_plus_one_block(tmp_path):
    # half the 40.6 MB peak of a loader that holds every cell string of this file at once
    f = tmp_path / "wide.csv"
    write_gappy_panel(f, n_rows=1260, n_tickers=400, seed=1, edit=_scattered_bad_cells)
    tracemalloc.start()
    try:
        panel, _ = load_prices_csv(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert panel.prices.shape == (1260, 400)
    assert peak <= 0.5 * 40.6e6


def test_blank_and_padded_cells_skip_the_per_cell_parse(tmp_path, monkeypatch):
    parsed, parse_cell = [], market_data._parse_cell

    def record(cell):
        parsed.append(cell)
        return parse_cell(cell)

    monkeypatch.setattr(market_data, "_parse_cell", record)
    f = tmp_path / "p.csv"
    f.write_text("\n".join(straddling_rows()) + "\n")
    panel, report = load_prices_csv(f)
    assert parsed == [] and report.drop_counts == {"A": 2, "B": 4, "C": 4}
    write_gappy_panel(f, n_rows=2 * BLOCK, edit=_all_of_them)
    load_prices_csv(f)
    assert parsed == []

    f.write_text("date,A,B\nd1,1,\nd2, abc ,2\nd3,3,  \nd4,4\nd5,5,6\n")
    panel, report = load_prices_csv(f)
    assert "abc" in parsed and report.drop_counts == {"A": 1, "B": 3}
    assert math.isnan(panel.prices[1, 0])


def test_load_peak_is_the_price_array_plus_about_two_blocks(tmp_path):
    # 10 blocks of 200 tickers: the price array is 3 blocks, so a second copy of it breaks the bound
    n_rows, n_tickers = 10 * BLOCK, 200
    f = tmp_path / "long.csv"
    write_gappy_panel(f, n_rows=n_rows, n_tickers=n_tickers, seed=2, edit=_scattered_bad_cells)
    tracemalloc.start()
    try:
        panel, _ = load_prices_csv(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a block: LOAD_BLOCK_ROWS lines of the file and their parsed prices
    block = BLOCK * (f.stat().st_size / (n_rows + 1) + 8 * n_tickers)
    assert panel.prices.nbytes > 3 * block
    assert peak <= panel.prices.nbytes + 2.5 * block


def parser_calls(monkeypatch):
    """Records of which parser read each block: loadtxt's and _parse_block's row counts."""
    calls = {"loadtxt": [], "loadtxt_failed": [], "parse_block": []}
    loadtxt, parse_block = np.loadtxt, market_data._parse_block

    def record_loadtxt(lines, *args, **kwargs):
        try:
            values = loadtxt(lines, *args, **kwargs)
        except ValueError:
            calls["loadtxt_failed"].append(len(lines))
            raise
        calls["loadtxt"].append(len(values))
        return values

    def record_parse_block(rows, *args):
        calls["parse_block"].append(len(rows))
        return parse_block(rows, *args)

    monkeypatch.setattr(market_data.np, "loadtxt", record_loadtxt)
    monkeypatch.setattr(market_data, "_parse_block", record_parse_block)
    return calls


def test_blank_cells_and_line_ends_keep_blocks_on_loadtxt(tmp_path, monkeypatch):
    calls = parser_calls(monkeypatch)
    f = tmp_path / "p.csv"
    write_gappy_panel(f, n_rows=2 * BLOCK + 1, seed=3, edit=_all_of_them)
    f.write_bytes(f.read_bytes().replace(b"\n", b"\r\n"))
    panel, report = load_prices_csv(f)
    assert calls == {"loadtxt": [BLOCK, BLOCK, 1], "loadtxt_failed": [], "parse_block": []}
    assert sum(report.drop_counts.values()) == np.count_nonzero(np.isnan(panel.prices)) > 0
    assert_loader_matches_reference(f)


def test_a_rejected_block_alone_goes_cell_by_cell(tmp_path, monkeypatch):
    calls = parser_calls(monkeypatch)
    rows = [f"{10000 + t},{100 + t}.5,{200 - t / 8!r}" for t in range(2 * BLOCK + 1)]
    rows[BLOCK + 3] = f"{10000 + BLOCK + 3},N/A,  "  # junk and an all-space cell in block 2
    f = tmp_path / "p.csv"
    f.write_text("date,A,B\n" + "\n".join(rows) + "\n")
    panel, report = load_prices_csv(f)
    assert calls == {"loadtxt": [BLOCK, 1], "loadtxt_failed": [BLOCK], "parse_block": [BLOCK]}
    assert report.drop_counts == {"A": 1, "B": 1}
    assert_loader_matches_reference(f)


def test_the_first_quote_hands_the_rest_of_the_file_to_csv_reader(tmp_path, monkeypatch):
    calls = parser_calls(monkeypatch)
    rows = [f"{10000 + t},{100 + t}.5,{200 - t / 8!r}" for t in range(2 * BLOCK + 1)]
    rows[BLOCK // 2] = f'{10000 + BLOCK // 2},"1,5","7\n.5"'  # a cell over two lines
    f = tmp_path / "p.csv"
    f.write_text("date,A,B\n" + "\n".join(rows) + "\n")
    panel, report = load_prices_csv(f)
    assert calls == {"loadtxt": [BLOCK // 2], "loadtxt_failed": [],
                     "parse_block": [BLOCK, BLOCK // 2 + 1]}
    assert report.drop_counts == {"A": 1, "B": 1}
    assert_loader_matches_reference(f)


def test_a_cell_over_the_csv_field_limit_names_the_file_and_line(tmp_path):
    f = tmp_path / "p.csv"
    big = "1" * (csv.field_size_limit() + 1)
    f.write_text(f"date,A\n\n10000,1\n10001,{big}\n10002,3\n")
    with pytest.raises(ValueError) as info:
        load_prices_csv(f)
    assert str(info.value) == f"{f}:4: field larger than field limit ({csv.field_size_limit()})"


# --- domain type validation ---


def test_returns_panel_drops_nonpositive_and_non_finite_prices():
    panel = make_panel(X=[100, 0, 101, -3, 102, np.inf, 103, np.nan, 104], Y=np.arange(1.0, 10.0))
    returns = returns_panel(panel)
    assert returns.times == panel.dates[2::2]
    assert returns.values[:, 0].tolist() == np.diff(np.log([100.0, 101, 102, 103, 104])).tolist()


def test_returns_panel_names_a_ticker_with_fewer_than_2_valid_rows():
    with pytest.raises(ValueError, match="^ticker 'Y' has fewer than 2 valid rows$"):
        returns_panel(make_panel(X=[1, 2, 3], Y=[np.nan, 5, -1], Z=[0, 0, 0]))


def test_price_series_rejects_unsorted_dates(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("date,X\n2020-01-02,1\n2020-01-01,2\n")
    with pytest.raises(ValueError, match="strictly increasing"):
        load_prices_csv(f)


def test_price_series_names_the_first_unsorted_date(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("date,X\nd1,1\nd3,2\nd2,3\nd2,4\n")
    with pytest.raises(ValueError) as info:
        load_prices_csv(f)
    assert str(info.value) == f"{f}:4: dates not strictly increasing ('d2' after 'd3')"


@pytest.mark.parametrize(
    "dates, tickers, shape",
    [(("d1", "d2"), ("a", "b"), (2, 3)), (("d1",), ("a",), (2, 1)), (("d1", "d2"), ("a",), (2,))],
    ids=["tickers", "dates", "one_dimensional"],
)
def test_price_panel_rejects_shape_mismatch(dates, tickers, shape):
    with pytest.raises(ValueError, match="prices of shape"):
        PricePanel(dates=dates, tickers=tickers, prices=np.ones(shape))


def test_price_panel_needs_a_ticker():
    with pytest.raises(ValueError, match="no price columns"):
        PricePanel(dates=("d1", "d2"), tickers=(), prices=np.ones((2, 0)))


def test_panel_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ReturnsPanel(assets=("a", "b"), times=(0, 1), values=np.zeros((2, 3)))


def test_panel_rejects_nan():
    values = np.zeros((2, 2))
    values[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ReturnsPanel(assets=("a", "b"), times=(0, 1), values=values)


@pytest.mark.parametrize(
    "cells", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]], ids=["nan", "inf", "-inf", "inf-pair"]
)
def test_panel_rejects_each_kind_of_non_finite_entry(cells):
    values = np.ones((4, 3))
    values.flat[[5, 10][: len(cells)]] = cells
    with pytest.raises(ValueError, match="non-finite"):
        ReturnsPanel(assets=("a", "b", "c"), times=(0, 1, 2, 3), values=values)


def test_panel_accepts_finite_entries_whose_sum_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        panel = ReturnsPanel(assets=("a", "b"), times=(0, 1, 2), values=np.full((3, 2), 1e308))
    assert panel.values.max() == 1e308


def test_panel_finiteness_check_allocates_no_panel_sized_temporary():
    values = np.ones((100_000, 16))
    assets = tuple(f"a{j}" for j in range(16))
    times = tuple(range(100_000))
    tracemalloc.start()
    try:
        ReturnsPanel(assets=assets, times=times, values=values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * values.nbytes


# --- log returns ---


def test_log_returns_scale_one():
    prices = np.array([1.0, math.e, math.e**2])
    assert np.allclose(log_returns(prices, 1), [1.0, 1.0], atol=1e-12)


def test_log_returns_scale_two():
    prices = np.array([1.0, math.e, math.e**2])
    assert np.allclose(log_returns(prices, 2), [2.0], atol=1e-12)


def test_log_returns_constant_prices():
    assert np.all(log_returns(np.full(10, 7.0), 1) == 0.0)


def test_log_returns_scale_too_large():
    with pytest.raises(ValueError, match="scale"):
        log_returns(np.array([1.0, 2.0, 3.0]), 3)


def test_log_returns_of_a_price_matrix_is_per_column():
    prices = np.exp(np.random.default_rng(5).uniform(4.0, 5.0, size=(30, 3)))
    out = log_returns(prices, 2)
    assert out.shape == (28, 3)
    for j in range(3):
        assert out[:, j].tobytes() == log_returns(prices[:, j], 2).tobytes()


def test_round_trip_reconstruction():
    rng = np.random.default_rng(1)
    prices = 100 * np.exp(np.cumsum(0.01 * rng.standard_normal(500)))
    r1 = log_returns(prices, 1)
    rebuilt = prices[0] * np.exp(np.cumsum(r1))
    assert np.allclose(rebuilt, prices[1:], rtol=1e-12)


def test_telescoping_is_exact():
    # log-prices within a factor-2 band make every partial sum exactly
    # representable, so the identity holds with equality, not approximately
    rng = np.random.default_rng(2)
    prices = np.exp(rng.uniform(4.0, 5.0, size=300))
    r1 = log_returns(prices, 1)
    for scale in (2, 5, 17):
        expected = np.array([r1[t : t + scale].sum() for t in range(len(r1) - scale + 1)])
        assert np.array_equal(log_returns(prices, scale), expected)


# --- windows ---


def test_single_window_is_whole_panel():
    panel = ReturnsPanel(("a",), tuple(range(100)), np.zeros((100, 1)))
    (w,) = rolling_windows(panel, WindowSpec(length=100, count=1))
    assert w.n_times == 100
    assert w.times == panel.times


def test_window_stride_full_sample():
    spec = WindowSpec(length=752, count=50)
    starts = spec.starts(4026)
    assert len(starts) == 50
    assert starts[0] == 0
    assert starts[1] - starts[0] == 66
    assert starts[-1] == 4026 - 752


def test_window_starts_small():
    assert WindowSpec(length=4, count=3).starts(10) == [0, 3, 6]


def test_windows_cover_sample():
    spec = WindowSpec(length=30, count=7)
    starts = spec.starts(100)
    covered = set()
    for s in starts:
        covered.update(range(s, s + 30))
    assert covered == set(range(100))


def test_window_infeasible():
    with pytest.raises(ValueError, match="do not fit"):
        WindowSpec(length=100, count=3).starts(100)
    with pytest.raises(ValueError, match="exceeds sample"):
        WindowSpec(length=101, count=1).starts(100)


def test_rolling_windows_are_views():
    panel = ReturnsPanel(("a", "b"), tuple(range(50)), np.random.default_rng(0).standard_normal((50, 2)))
    windows = rolling_windows(panel, WindowSpec(length=20, count=4))
    assert len(windows) == 4
    assert windows[0].values.base is panel.values or windows[0].values.base is panel.values.base
    assert windows[-1].times[-1] == panel.times[-1]


def test_returns_panel_keeps_a_range_and_tuples_anything_else():
    values = np.zeros((4, 1))
    assert isinstance(ReturnsPanel(("a",), range(4), values).times, range)
    assert ReturnsPanel(("a",), ["d1", "d2", "d3", "d4"], values).times == ("d1", "d2", "d3", "d4")
    assert ReturnsPanel(("a",), (t for t in range(4)), values).times == (0, 1, 2, 3)
    with pytest.raises(ValueError, match="4 rows vs 5 times"):
        ReturnsPanel(("a",), range(5), values)


def test_rolling_windows_of_a_range_panel_are_ranges():
    panel = ReturnsPanel(("a",), range(50), np.arange(50.0)[:, None])
    spec = WindowSpec(length=20, count=4)
    windows = rolling_windows(panel, spec)
    for start, w in zip(spec.starts(50), windows):
        assert w.times == range(start, start + 20)
        assert w.values[:, 0].tolist() == list(w.times)


# --- alignment ---


def test_alignment_intersects_dates():
    panel = PricePanel(
        dates=("d1", "d2", "d3", "d4", "d5"),
        tickers=("A", "B"),
        prices=np.array([[1.0, np.nan], [2.0, 5.0], [3.0, 6.0], [4.0, 7.0], [np.nan, 8.0]]),
    )
    returns = returns_panel(panel)
    assert returns.times == ("d3", "d4")
    assert returns.assets == ("A", "B")
    assert returns.values.shape == (2, 2)
    assert np.allclose(returns.values[:, 0], np.log([3 / 2, 4 / 3]))


@pytest.mark.parametrize("drops", [0, 5], ids=["equal_dates", "dropped_dates"])
def test_alignment_matches_dict_lookup(drops):
    rng = np.random.default_rng(3)
    stamps = tuple(f"d{t:03d}" for t in range(50))
    prices = np.exp(rng.standard_normal((50, 4)))
    for j in range(4):
        prices[rng.choice(50, size=drops, replace=False), j] = np.nan
    panel = PricePanel(dates=stamps, tickers=("T0", "T1", "T2", "T3"), prices=prices)
    returns = returns_panel(panel)
    lookups = [dict(zip(*column(panel, t))) for t in panel.tickers]
    dates = tuple(sorted(set.intersection(*(set(lookup) for lookup in lookups))))
    assert returns.times == dates[1:]
    assert len(dates) <= 50 - drops
    assert returns.assets == ("T0", "T1", "T2", "T3")
    expected = np.array([[lookup[d] for lookup in lookups] for d in dates])
    assert returns.values.tobytes() == log_returns(expected).tobytes()
    assert returns.values.flags.c_contiguous


def test_returns_panel_from_price_panel():
    panel = returns_panel(make_panel(A=[100, 110, 121, 133.1], B=[50, 55, 60.5, 66.55]))
    assert panel.assets == ("A", "B")
    assert panel.n_times == 3
    assert np.allclose(panel.values[:, 0], math.log(1.1))


def test_log_price_paths_anchor():
    panel = ReturnsPanel(("a",), (0, 1, 2), np.array([[0.1], [0.2], [-0.05]]))
    paths = panel.log_price_paths()
    assert paths[0, 0] == 0.0
    assert np.allclose(np.diff(paths[:, 0]), panel.values[:, 0])
