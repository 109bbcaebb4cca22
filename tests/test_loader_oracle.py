"""The numpy block parser of load_prices_csv against the csv.reader loader it replaced.

Both loaders must give the same PricePanel (bitwise, NaN positions included),
the same LoadReport, or the same error message, physical line numbers
included, on every generated file.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from hiermf.market_data import LOAD_BLOCK_ROWS as BLOCK, CsvSchema, load_prices_csv
from oracle_loader import oracle_load_prices_csv

DELIMITERS = [",", ";", "\t", "|", " "]
LINE_ENDS = ["\n", "\r\n", "\r"]
ROW_COUNTS = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
JUNK = ["N/A", "1_0", "١", "0x10", "inf", "-inf", "nan", "0", "-2.5", "1e400", " 7.25 "]


def outcome(loader, path, schema):
    """Everything a load returns, as comparable values, or its error message."""
    try:
        panel, report = loader(path, schema)
    except ValueError as exc:
        return str(exc)
    return (
        panel.dates,
        panel.tickers,
        panel.prices.dtype,
        panel.prices.shape,
        panel.prices.tobytes(),
        report.source,
        report.schema,
        list(report.drop_counts.items()),
    )


def odd_cells(d):
    """A cell that is not a plain price: blank, junk or quoted."""
    return st.sampled_from(["", " ", "   ", *JUNK, f'"1{d}5"', '"1""5"', '"2\n5"', '"3.5"'])


def block_rows(n_rows):
    """A row in the first, a middle or the last block, or at a block edge."""
    edges = [0, BLOCK - 1, BLOCK, n_rows // 2, n_rows - 1]
    return st.one_of(st.sampled_from([r for r in edges if r < n_rows]), st.integers(0, n_rows - 1))


@st.composite
def price_files(draw):
    """(text, schema) of a price CSV with odd cells, rows and line ends."""
    d = draw(st.sampled_from(DELIMITERS))
    n_rows = draw(st.sampled_from(ROW_COUNTS))
    n_tickers = draw(st.integers(1, 4))
    tickers = [f"T{j}" for j in range(n_tickers)]
    header = list(tickers)
    date_at = draw(st.integers(0, n_tickers))
    header.insert(date_at, "date")
    price_columns = None
    if draw(st.booleans()):
        order = draw(st.permutations(tickers))
        price_columns = tuple(order[: draw(st.integers(1, n_tickers))])

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prices = 100 * np.exp(np.cumsum(0.02 * rng.standard_normal((n_rows, n_tickers)), axis=0))
    rows = []
    for t in range(n_rows):
        cells = [repr(p) for p in prices[t].tolist()]
        cells.insert(date_at, f"{10000 + t}")
        rows.append(cells)

    for _ in range(draw(st.integers(0, 12))):
        t = draw(block_rows(n_rows))
        j = draw(st.integers(0, n_tickers))
        if j != date_at:
            rows[t][j] = draw(odd_cells(d))
    # whole columns blank for a while, as for a late listing
    if draw(st.booleans()):
        j = draw(st.integers(0, n_tickers).filter(lambda j: j != date_at))
        for t in range(draw(st.integers(1, n_rows))):
            rows[t][j] = ""
    # a bad or missing date is an error, so it is drawn least
    kinds = ["short"] * 3 + ["extra"] * 3 + ["short_of_date", "bad_date", "blank_date"]
    for _ in range(draw(st.integers(0, 4))):
        t = draw(block_rows(n_rows))
        kind = draw(st.sampled_from(kinds))
        if kind == "short" and date_at < n_tickers:
            rows[t] = rows[t][: draw(st.integers(date_at + 1, n_tickers))]
        elif kind == "short_of_date" and date_at == n_tickers:
            rows[t] = rows[t][:-1]  # only the last-position date cell is missing
        elif kind == "extra":
            rows[t] = rows[t] + ["9.5", ""][: draw(st.integers(1, 2))]
        elif kind == "bad_date" and t and date_at < len(rows[t]):
            rows[t][date_at] = f"{10000 + t - 2}"
        elif kind == "blank_date" and date_at < len(rows[t]):
            rows[t][date_at] = " "

    lines = [d.join(header)] + [d.join(cells) for cells in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = draw(st.sampled_from(LINE_ENDS))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, CsvSchema(price_columns=price_columns, delimiter=d)


@given(price_files())
@settings(max_examples=60, deadline=None)
def test_loader_matches_the_csv_reader_oracle(tmp_path_factory, case):
    text, schema = case
    path = tmp_path_factory.mktemp("oracle") / "prices.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert outcome(load_prices_csv, path, schema) == outcome(oracle_load_prices_csv, path, schema)


@st.composite
def odd_text_files(draw):
    """(text, schema) of a few rows whose cells are any short text, or any float's repr.

    Two last rows of valid prices keep every ticker loadable, so each odd
    cell's value shows in the panel.
    """
    d = draw(st.sampled_from(DELIMITERS))
    cell = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.text(st.characters(exclude_categories=("Cs",)), max_size=6),
        st.text(f"0123456789.eE+-_ \t{d}", max_size=8),
    )
    n_tickers = draw(st.integers(1, 3))
    rows = [
        d.join([f"{10000 + t}", *draw(st.lists(cell, min_size=n_tickers, max_size=n_tickers))])
        for t in range(draw(st.integers(1, 6)))
    ]
    rows += [d.join([f"{10100 + t}", *["1.5"] * n_tickers]) for t in range(2)]
    header = d.join(["date", *(f"T{j}" for j in range(n_tickers))])
    return "\n".join([header, *rows]) + "\n", CsvSchema(delimiter=d)


@given(odd_text_files())
@settings(max_examples=150, deadline=None)
def test_loader_matches_the_oracle_on_any_cell_text(tmp_path_factory, case):
    text, schema = case
    path = tmp_path_factory.mktemp("cells") / "prices.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert outcome(load_prices_csv, path, schema) == outcome(oracle_load_prices_csv, path, schema)
