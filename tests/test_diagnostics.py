import math

import numpy as np
import pytest
import scipy.stats

from hiermf.diagnostics import (
    acf,
    excess_kurtosis,
    fit_powerlaw_decay,
    hill_alpha,
    order_conditional_mean,
    quantile_summary,
    trend_test,
)


# --- order-conditional statistics ---


def test_two_point_group():
    stats = order_conditional_mean({"a": 0.02, "b": 0.04}, {"a": 5, "b": 5})
    assert stats.orders == (5,)
    assert stats.means[0] == pytest.approx(0.03)
    assert stats.stds[0] == pytest.approx(math.sqrt(2) / 100, abs=1e-12)
    assert stats.std_errors[0] == pytest.approx(0.01, abs=1e-12)
    assert stats.counts == (2,)


def test_singleton_groups_flagged():
    stats = order_conditional_mean({"a": 0.02, "b": 0.04}, {"a": 3, "b": 7})
    assert stats.means == (0.02, 0.04)
    assert all(math.isnan(s) for s in stats.stds)
    assert stats.orders == (3, 7)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        order_conditional_mean({}, {})
    with pytest.raises(ValueError, match="same assets"):
        order_conditional_mean({"a": 0.1}, {"b": 2})


def test_group_means_recombine_to_global_mean():
    rng = np.random.default_rng(0)
    dh = {f"a{i}": float(rng.normal()) for i in range(40)}
    orders = {k: int(rng.integers(2, 6)) for k in dh}
    stats = order_conditional_mean(dh, orders)
    recombined = sum(m * c for m, c in zip(stats.means, stats.counts)) / sum(stats.counts)
    assert recombined == pytest.approx(np.mean(list(dh.values())), abs=1e-14)
    assert sum(stats.counts) == 40
    assert all(a < b for a, b in zip(stats.orders, stats.orders[1:]))


# --- trend test ---


def test_perfect_trend():
    for sign in (1.0, -1.0):
        t = trend_test([1, 2, 3, 4], [sign * 2, sign * 4, sign * 6, sign * 8])
        assert (t.r, t.t, t.p_value, t.n) == (sign, sign * math.inf, 0.0, 4)


def test_known_r_half_with_twenty_points():
    # engineer a sample whose Pearson r is exactly 0.5
    n = 20
    x = np.arange(n, dtype=float)
    xc = (x - x.mean()) / np.linalg.norm(x - x.mean())
    z = np.tile([1.0, -1.0], n // 2)
    z -= z @ xc * xc
    z /= np.linalg.norm(z)
    y = 0.5 * xc + math.sqrt(0.75) * z
    result = trend_test(x, y)
    assert result.r == pytest.approx(0.5, abs=1e-12)
    assert result.t == pytest.approx(2.449489742783178, abs=1e-9)
    assert result.p_value == pytest.approx(0.0249, abs=2.5e-4)


def sample_with_r(n, r):
    """x = 0..n-1 and a y whose Pearson correlation with x is r, up to rounding."""
    x = np.arange(n, dtype=float)
    xc = (x - x.mean()) / np.linalg.norm(x - x.mean())
    z = np.resize([1.0, -1.0], n)
    z -= z.mean()
    z -= z @ xc * xc
    z /= np.linalg.norm(z)
    return x, r * xc + math.sqrt(1.0 - r * r) * z


@pytest.mark.parametrize("n", [3, 4, 5, 10, 50, 400, 4026])
@pytest.mark.parametrize(
    "r", [0.0, 0.3, -0.3, 0.9, -0.9, 1 - 1e-6, -(1 - 1e-6), 1 - 1e-9, -(1 - 1e-9), 1 - 1e-12, -(1 - 1e-12)]
)
def test_p_value_is_bitwise_scipy_stats_t_sf(n, r):
    """The scipy.special.stdtr p-value equals the scipy.stats.t.sf one it replaced, bit for bit."""
    result = trend_test(*sample_with_r(n, r))
    assert result.r == pytest.approx(r, abs=1e-9)
    if abs(r) > 1 - 1e-10:
        assert abs(result.t) > 1e5
    expected = 2.0 * float(scipy.stats.t.sf(abs(result.t), df=n - 2))
    assert result.p_value.hex() == expected.hex()


def test_null_p_values_are_uniform():
    rng = np.random.default_rng(12)
    hits = 0
    for _ in range(1000):
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        hits += trend_test(x, y).p_value < 0.05
    assert 0.03 <= hits / 1000 <= 0.07


def test_trend_affine_invariance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(30)
    y = 0.4 * x + rng.standard_normal(30)
    base = trend_test(x, y)
    shifted = trend_test(2.5 * x + 7.0, 0.3 * y - 11.0)
    assert shifted.r == pytest.approx(base.r, abs=1e-12)
    assert shifted.p_value == pytest.approx(base.p_value, abs=1e-12)


def test_trend_test_input_validation():
    with pytest.raises(ValueError):
        trend_test([1, 2], [1, 2])
    with pytest.raises(ValueError, match="zero variance"):
        trend_test([1, 1, 1], [1, 2, 3])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["x", "y"])
def test_trend_test_rejects_non_finite_input(name, bad):
    # max(-1, min(1, nan)) is 1, so an unchecked NaN reads as a perfect trend
    inputs = {"x": [1.0, 2.0, 3.0, 4.0], "y": [1.0, 2.0, 3.0, 5.0]}
    inputs[name][2] = bad
    with pytest.raises(ValueError, match=f"{name} contains non-finite values"):
        trend_test(inputs["x"], inputs["y"])


# --- autocorrelation ---


def test_white_noise_acf_is_small():
    x = np.random.default_rng(4).standard_normal(100_000)
    values = acf(x, 5)
    assert values[0] == 1.0
    assert np.all(np.abs(values[1:]) < 3 / math.sqrt(x.size))


def test_ar1_acf_geometric():
    rng = np.random.default_rng(5)
    n = 100_000
    x = np.empty(n)
    x[0] = rng.standard_normal()
    noise = rng.standard_normal(n)
    for t in range(1, n):
        x[t] = 0.5 * x[t - 1] + noise[t]
    values = acf(x, 5)
    for h in range(1, 6):
        assert values[h] == pytest.approx(0.5**h, abs=0.03)


def test_periodic_series_acf():
    x = np.tile([1.0, -1.0], 500)
    values = acf(x, 4)
    assert values[2] > 0.95
    assert values[1] < -0.95


def test_acf_rejects_constant_and_bad_lag():
    with pytest.raises(ValueError, match="constant"):
        acf(np.ones(100), 5)
    with pytest.raises(ValueError, match="max_lag"):
        acf(np.arange(100.0), 30)


# --- power-law fit ---


def test_exact_power_law_recovered():
    h = np.arange(0, 201, dtype=float)
    for beta in (0.5, 1.0):
        values = np.empty(201)
        values[0] = 1.0
        values[1:] = h[1:] ** -beta
        assert fit_powerlaw_decay(values, (1, 100)) == pytest.approx(beta, abs=1e-10)


def test_power_law_amplitude_independent():
    h = np.arange(0, 151, dtype=float)
    values = np.ones(151)
    values[1:] = h[1:] ** -0.4
    assert fit_powerlaw_decay(7.3 * values, (1, 100)) == pytest.approx(
        fit_powerlaw_decay(values, (1, 100)), abs=1e-10
    )


def test_power_law_fit_rejects_nonpositive():
    values = np.array([1.0, 0.5, -0.1, 0.2, 0.1, 0.05])
    with pytest.raises(ValueError, match="non-positive"):
        fit_powerlaw_decay(values, (1, 5))


def test_power_law_range_validation():
    values = np.ones(10)
    with pytest.raises(ValueError):
        fit_powerlaw_decay(values, (1, 20))
    with pytest.raises(ValueError):
        fit_powerlaw_decay(values, (5, 5))


# --- kurtosis ---


def test_gaussian_excess_kurtosis_near_zero():
    x = np.random.default_rng(6).standard_normal(1_000_000)
    assert excess_kurtosis(x) == pytest.approx(0.0, abs=0.05)


def test_two_point_distribution():
    x = np.tile([-1.0, 1.0], 100)
    assert excess_kurtosis(x) == pytest.approx(-2.0, abs=1e-12)


def test_kurtosis_validation():
    with pytest.raises(ValueError):
        excess_kurtosis(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="zero variance"):
        excess_kurtosis(np.ones(10))


# --- Hill estimator ---


def pareto_sample(alpha, n, seed):
    u = np.random.default_rng(seed).random(n)
    return (1.0 - u) ** (-1.0 / alpha)


def test_hill_on_pareto_oracles():
    assert hill_alpha(pareto_sample(3.0, 100_000, 3)) == pytest.approx(3.0, abs=0.15)
    assert hill_alpha(pareto_sample(1.5, 100_000, 4)) == pytest.approx(1.5, abs=0.1)


def test_hill_scale_invariance():
    x = pareto_sample(2.0, 50_000, 5)
    assert hill_alpha(931.7 * x) == pytest.approx(hill_alpha(x), abs=1e-12)


def test_hill_needs_enough_tail_points():
    with pytest.raises(ValueError, match="at least 20"):
        hill_alpha(np.random.default_rng(6).random(100), 0.05)
    with pytest.raises(ValueError):
        hill_alpha(np.random.default_rng(7).random(1000), 0.7)


def test_exponential_tail_estimate_grows_with_sample():
    # no finite power-law tail: with the tail count held fixed, the estimate
    # climbs as the threshold moves out (see decisions ledger)
    rng = np.random.default_rng(5)
    grew = 0
    for _ in range(30):
        big = rng.exponential(size=100_000)
        small = rng.exponential(size=1_000)
        grew += hill_alpha(big, 50 / 100_000) > hill_alpha(small, 50 / 1_000)
    assert grew >= 27


# --- quantiles ---


def test_quantile_interpolation_convention():
    (summary,) = quantile_summary({"g": np.arange(1.0, 101.0)}, levels=(0.5,))
    assert summary.values[0] == pytest.approx(50.5)


def test_quantiles_of_constant_sample():
    (summary,) = quantile_summary({"g": np.full(10, 3.3)})
    assert all(v == pytest.approx(3.3) for v in summary.values)


def test_quantiles_sorted_and_monotone():
    rng = np.random.default_rng(8)
    (summary,) = quantile_summary({"g": rng.standard_normal(500)}, levels=(0.975, 0.025, 0.5))
    assert summary.levels == (0.025, 0.5, 0.975)
    assert summary.values[0] <= summary.values[1] <= summary.values[2]


def test_quantiles_validation():
    with pytest.raises(ValueError, match="empty"):
        quantile_summary({"g": np.array([])})
    with pytest.raises(ValueError):
        quantile_summary({"g": np.ones(3)}, levels=(1.5,))
