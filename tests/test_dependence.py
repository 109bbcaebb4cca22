import csv
import math

import numpy as np
import pytest

from hiermf.dependence import (
    CorrelationMatrix,
    WeightScheme,
    corr_to_distance,
    elliptical_tau,
    exp_weights,
    flat_weights,
    _discordant_pairs,
    kendall_tau,
    kendall_tau_matrix,
    read_correlation_csv,
    weighted_pearson_matrix,
    write_correlation_csv,
)
from hiermf.market_data import ReturnsPanel


def panel_from(values):
    values = np.asarray(values, dtype=float)
    assets = tuple(f"a{j}" for j in range(values.shape[1]))
    return ReturnsPanel(assets=assets, times=tuple(range(values.shape[0])), values=values)


# --- weights ---


def test_exp_weights_small_example():
    w = exp_weights(3, 1.0).weights
    assert np.allclose(w, [0.0900305732, 0.2447284711, 0.6652409558], atol=1e-4)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_exp_weights_flat_limit():
    w = exp_weights(4, 1e9).weights
    assert np.allclose(w, 0.25, atol=1e-6)


def test_exp_weights_full_window_parameters():
    scheme = exp_weights(4026, 4026 / 3)
    assert scheme.theta == pytest.approx(1342.0)
    assert scheme.weights.shape == (4026,)
    assert np.all(scheme.weights > 0)


def test_exp_weights_recent_heaviest():
    w = exp_weights(100, 25.0).weights
    assert np.all(np.diff(w) > 0)


def test_exp_weights_validation():
    with pytest.raises(ValueError):
        exp_weights(1, 1.0)
    with pytest.raises(ValueError):
        exp_weights(10, 0.0)


def test_nan_theta_and_nan_weights_are_rejected():
    with pytest.raises(ValueError, match="theta must be positive"):
        exp_weights(10, math.nan)
    with pytest.raises(ValueError, match="strictly positive"):
        WeightScheme(delta_t=3, theta=1.0, weights=np.array([0.5, math.nan, 0.5]))
    with pytest.raises(ValueError, match="strictly positive"):
        WeightScheme(delta_t=2, theta=1.0, weights=np.full(2, math.nan))


# --- weighted Pearson ---


def test_identical_columns_correlate_to_one():
    rng = np.random.default_rng(0)
    col = rng.standard_normal(60)
    panel = panel_from(np.column_stack([col, col]))
    corr = weighted_pearson_matrix(panel, exp_weights(60, 20.0))
    assert corr.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_negated_column_correlates_to_minus_one():
    rng = np.random.default_rng(1)
    col = rng.standard_normal(60)
    panel = panel_from(np.column_stack([col, -col]))
    corr = weighted_pearson_matrix(panel, exp_weights(60, 20.0))
    assert corr.values[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_hand_computed_pearson_with_flat_weights():
    panel = panel_from([[1, 2], [2, 1], [3, 4], [4, 3], [10, 8]])
    corr = weighted_pearson_matrix(panel, flat_weights(5))
    assert corr.values[0, 1] == pytest.approx(36.0 / math.sqrt(1460.0), abs=1e-12)


def test_flat_weights_match_unweighted_estimator():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((200, 5))
    corr = weighted_pearson_matrix(panel_from(values), flat_weights(200))
    assert np.allclose(corr.values, np.corrcoef(values.T), atol=1e-12)


def test_scale_invariance():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((150, 4))
    scheme = exp_weights(150, 50.0)
    base = weighted_pearson_matrix(panel_from(values), scheme)
    scaled_values = values.copy()
    scaled_values[:, 2] *= 137.0
    scaled = weighted_pearson_matrix(panel_from(scaled_values), scheme)
    assert np.allclose(base.values, scaled.values, atol=1e-12)


def test_zero_variance_column_is_named():
    values = np.random.default_rng(4).standard_normal((50, 3))
    values[:, 1] = 2.5
    with pytest.raises(ValueError, match="a1"):
        weighted_pearson_matrix(panel_from(values), flat_weights(50))


def test_scheme_length_mismatch():
    panel = panel_from(np.random.default_rng(5).standard_normal((50, 2)))
    with pytest.raises(ValueError, match="50"):
        weighted_pearson_matrix(panel, flat_weights(49))


def test_correlation_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        CorrelationMatrix(("a", "b"), np.array([[1.0, 0.4], [0.2, 1.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        CorrelationMatrix(("a", "b"), np.array([[0.9, 0.2], [0.2, 1.0]]))
    with pytest.raises(ValueError, match="PSD"):
        CorrelationMatrix(
            ("a", "b", "c"),
            np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]),
        )


# --- Kendall tau ---


def test_tau_monotone_is_one():
    x = np.arange(50, dtype=float)
    assert kendall_tau(x, np.exp(x / 10)) == pytest.approx(1.0)
    assert kendall_tau(x, -x) == pytest.approx(-1.0)


def test_tau_small_example():
    assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1.0 / 3.0)


def test_tau_constant_input_rejected():
    with pytest.raises(ValueError, match="constant"):
        kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_tau_non_finite_input_rejected():
    with pytest.raises(ValueError, match="^x contains non-finite values$"):
        kendall_tau([1, 2, math.nan, 4, 5], [1, 3, 2, 5, 4])
    with pytest.raises(ValueError, match="^y contains non-finite values$"):
        kendall_tau([1, 3, 2, 5, 4], [1, 2, math.inf, 4, 5])


def test_tau_gaussian_matches_elliptical_relation():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((100_000, 2))
    for rho in (0.2, 0.5, 0.8):
        x = z[:, 0]
        y = rho * z[:, 0] + math.sqrt(1 - rho * rho) * z[:, 1]
        assert kendall_tau(x, y) == pytest.approx(elliptical_tau(rho), abs=0.01)


def test_tau_handles_ties_like_pair_enumeration():
    rng = np.random.default_rng(12)
    x = rng.integers(0, 4, 120).astype(float)
    y = rng.integers(0, 4, 120).astype(float)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(120, 1)
    s = dx[iu] * dy[iu]
    n0 = len(iu[0])
    expected = ((s > 0).sum() - (s < 0).sum()) / math.sqrt(
        (n0 - (dx[iu] == 0).sum()) * (n0 - (dy[iu] == 0).sum())
    )
    assert kendall_tau(x, y) == pytest.approx(expected, abs=1e-12)


def brute_discordant(perm):
    perm = np.asarray(perm)
    return int(np.triu(perm[:, None] > perm[None, :], 1).sum())


@pytest.mark.parametrize("n", [*range(1, 71), 63, 64, 65, 1023, 1024, 1025])
def test_discordant_pair_count_matches_brute_force(n):
    rng = np.random.default_rng(n)
    rows = np.array([rng.permutation(n) for _ in range(4)] + [np.arange(n), np.arange(n)[::-1]])
    counts = _discordant_pairs(rows.astype(np.int32))
    assert counts.tolist() == [brute_discordant(row) for row in rows]
    assert counts[-2:].tolist() == [0, n * (n - 1) // 2]


def _tie_panel(rng, ties_in):
    """n x 2 panel with ties in the named columns, neither column constant."""
    n = int(rng.integers(2, 301))
    values = rng.standard_normal((n, 2))
    for column in ties_in:
        values[:, column] = rng.integers(0, int(rng.integers(2, max(3, n // 2))), n)
        values[0, column], values[-1, column] = -1.0, 1e6  # never constant
    return values


@pytest.mark.parametrize("ties_in", [(), (0,), (1,), (0, 1)], ids=["none", "x", "y", "both"])
def test_tau_matrix_equals_scipy_bitwise(ties_in):
    from scipy import stats

    rng = np.random.default_rng(len(ties_in) + 10 * sum(ties_in))
    for _ in range(130):
        values = _tie_panel(rng, ties_in)
        tau = kendall_tau_matrix(values)
        assert tau.shape == (2, 2) and tau[0, 0] == tau[1, 1] == 1.0
        assert tau[0, 1] == stats.kendalltau(values[:, 0], values[:, 1]).statistic
        assert tau[1, 0] == stats.kendalltau(values[:, 1], values[:, 0]).statistic
        assert kendall_tau(values[:, 0], values[:, 1]) == tau[0, 1]


def test_tau_matrix_equals_scipy_across_chunks():
    from scipy import stats

    # 20,000 rows put 3 pairs in a chunk, so the 15 pairs span 5 chunks; columns 1 and 4 tie
    rng = np.random.default_rng(5)
    values = rng.standard_normal((20_000, 6)) @ rng.standard_normal((6, 6))
    values[:, 1] = np.round(values[:, 1])
    values[:, 4] = rng.integers(0, 50, 20_000)
    tau = kendall_tau_matrix(values)
    for i in range(6):
        for j in range(6):
            expected = 1.0 if i == j else stats.kendalltau(values[:, i], values[:, j]).statistic
            assert tau[i, j] == expected


@pytest.mark.parametrize(
    "bad,message",
    [(math.nan, "^column 2 contains non-finite values$"),
     (math.inf, "^column 2 contains non-finite values$"),
     (-math.inf, "^column 2 contains non-finite values$"),
     (None, "^tau undefined for constant column 2$")],
)
def test_tau_matrix_rejects_a_bad_column_by_index(bad, message):
    values = np.random.default_rng(0).standard_normal((30, 4))
    if bad is None:
        values[:, 2] = 0.25
    else:
        values[7, 2] = bad
    with pytest.raises(ValueError, match=message):
        kendall_tau_matrix(values)


def test_tau_matrix_needs_two_rows():
    with pytest.raises(ValueError, match="at least 2 rows"):
        kendall_tau_matrix(np.ones((1, 3)))
    with pytest.raises(ValueError, match="at least 2 rows"):
        kendall_tau_matrix(np.arange(5.0))


# --- elliptical relation and distances ---


@pytest.mark.parametrize("rho,expected", [(0.0, 0.0), (1.0, 1.0), (0.5, 1.0 / 3.0), (-1.0, -1.0)])
def test_elliptical_tau_values(rho, expected):
    assert elliptical_tau(rho) == pytest.approx(expected, abs=1e-12)


def test_elliptical_tau_domain():
    with pytest.raises(ValueError):
        elliptical_tau(1.01)


def test_corr_to_distance_values():
    corr = CorrelationMatrix(
        ("a", "b", "c"),
        np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]]),
    )
    d = corr_to_distance(corr)
    assert d[0, 1] == pytest.approx(1.0)
    assert d[0, 2] == pytest.approx(math.sqrt(2.0))
    assert np.all(np.diag(d) == 0)
    assert np.allclose(d, d.T)


def test_corr_to_distance_extremes():
    corr = CorrelationMatrix(("a", "b"), np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert corr_to_distance(corr)[0, 1] == pytest.approx(2.0)
    corr = CorrelationMatrix(("a", "b"), np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert corr_to_distance(corr)[0, 1] == pytest.approx(0.0)


# --- serialization ---


def test_correlation_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    values = rng.standard_normal((80, 4))
    corr = weighted_pearson_matrix(panel_from(values), exp_weights(80, 26.7))
    f = tmp_path / "corr.csv"
    write_correlation_csv(corr, f)
    back = read_correlation_csv(f)
    assert back.assets == corr.assets
    assert np.array_equal(back.values, corr.values)


def reference_write_correlation_csv(matrix, path):
    """The csv.writer writer that write_correlation_csv replaced: "\r\n" line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["", *matrix.assets])
        for label, row in zip(matrix.assets, matrix.values):
            writer.writerow([label, *(repr(float(v)) for v in row)])


def test_correlation_csv_matches_csv_writer_up_to_line_ends(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.standard_normal((60, 5))
    values[:, 4] = values[:, 0]  # an exact 1.0 off the diagonal
    corr = weighted_pearson_matrix(panel_from(values), exp_weights(60, 20.0))
    corr = CorrelationMatrix(("X,Y", 'Q"T', "plain", " pad ", "Z"), corr.values)
    write_correlation_csv(corr, tmp_path / "new.csv")
    reference_write_correlation_csv(corr, tmp_path / "old.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert b"\r" not in new
    assert new == (tmp_path / "old.csv").read_bytes().replace(b"\r\n", b"\n")
    back = read_correlation_csv(tmp_path / "new.csv")
    assert back.assets == corr.assets
    assert np.array_equal(back.values, corr.values)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_correlation_csv_reader_skips_blank_lines(tmp_path):
    f = write_lines(tmp_path / "c.csv", ["", ",a,b", "", "a,1.0,0.5", "", "b,0.5,1.0", ""])
    back = read_correlation_csv(f)
    assert back.assets == ("a", "b")
    assert np.array_equal(back.values, [[1.0, 0.5], [0.5, 1.0]])


@pytest.mark.parametrize(
    "row_b, message",
    [
        ("b,0.5", r"c\.csv: row 'b' has 1 values, expected 2"),
        ("b,0.5,1.0,0.0", r"c\.csv: row 'b' has 3 values, expected 2"),
        ("b,0.5,x", r"c\.csv: row 'b': could not convert string to float: 'x'"),
    ],
    ids=["short_row", "long_row", "non_number"],
)
def test_correlation_csv_reader_names_file_and_row(tmp_path, row_b, message):
    f = write_lines(tmp_path / "c.csv", [",a,b", "a,1.0,0.5", row_b])
    with pytest.raises(ValueError, match=message):
        read_correlation_csv(f)
