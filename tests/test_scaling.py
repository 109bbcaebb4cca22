import math
import warnings

import numpy as np
import pytest

from hiermf import scaling
from hiermf.market_data import ReturnsPanel, WindowSpec, rolling_windows
from hiermf.scaling import (
    FbmSpec,
    _circulant_sample,
    _embedding_eigenvalues,
    _moment_table,
    calibrate_threshold,
    delta_h,
    estimate_ghe,
    fgn_autocovariance,
    generate_fbm,
    ghe_from_moments,
    q_moment,
)
from hiermf.util import derived_rng


# --- q-moments ---


def test_q_moment_deterministic_drift():
    c = 0.37
    x = c * np.arange(400, dtype=float)
    for q in (0.5, 1.0, 2.0, 3.0):
        for scale in (1, 4, 9):
            assert q_moment(x, q, scale) == pytest.approx((c * scale) ** q, rel=1e-12)


def test_q_moment_scale_one_is_mean_abs_power():
    rng = np.random.default_rng(0)
    x = np.cumsum(rng.standard_normal(200))
    r = np.diff(x)
    assert q_moment(x, 1.5, 1) == pytest.approx(np.mean(np.abs(r) ** 1.5), rel=1e-12)


def test_q_moment_degenerate_returns_zero():
    assert q_moment(np.full(50, 3.0), 2.0, 1) == 0.0


def test_q_moment_validates_inputs():
    x = np.arange(10, dtype=float)
    with pytest.raises(ValueError):
        q_moment(x, -1.0, 1)
    with pytest.raises(ValueError):
        q_moment(x, 1.0, 10)


def test_q_moment_fbm_scaling_slope():
    # mean log-log slope of M(2, l) across seeds approaches 2H
    slopes = []
    log_l = np.log(np.arange(1, 20, dtype=float))
    for seed in range(100):
        path = generate_fbm(FbmSpec(hurst=0.3, length=2**13, seed=seed))
        log_m = np.log([q_moment(path, 2.0, l) for l in range(1, 20)])
        slopes.append(np.polyfit(log_l, log_m, 1)[0])
    assert np.mean(slopes) == pytest.approx(0.6, abs=0.02)


# --- GHE estimation ---


def test_linear_log_price_gives_unit_hurst():
    est = estimate_ghe(0.37 * np.arange(400, dtype=float))
    assert est.h(1.0) == pytest.approx(1.0, abs=1e-10)
    assert est.h(2.0) == pytest.approx(1.0, abs=1e-10)
    assert delta_h(est) == pytest.approx(0.0, abs=1e-10)


def test_exact_power_law_moments_recovered_for_every_lmax():
    qs = (1.0, 2.0)
    for hurst in (0.3, 0.55, 0.8):
        scales = np.arange(1, 20, dtype=float)
        moments = np.vstack([2.7 * scales ** (q * hurst) for q in qs])
        est = ghe_from_moments(moments, qs)
        per_fit = est.slopes / np.array(qs)[:, None]
        assert np.allclose(per_fit, hurst, atol=1e-10)
        assert est.h(1.0) == pytest.approx(hurst, abs=1e-10)


def test_slopes_matrix_shape_and_mean_recomputation():
    rng = np.random.default_rng(3)
    est = estimate_ghe(np.cumsum(rng.standard_normal(4025)))
    assert est.slopes.shape == (2, 15)
    assert est.h(1.0) == pytest.approx(np.mean(est.slopes[0] / 1.0), rel=1e-14)
    assert est.h(2.0) == pytest.approx(np.mean(est.slopes[1] / 2.0), rel=1e-14)
    assert len(est.std_errors) == 2


def test_white_noise_hurst_half():
    h1, h2, dh = [], [], []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        path = np.concatenate(([0.0], np.cumsum(rng.standard_normal(4025))))
        est = estimate_ghe(path)
        h1.append(est.h(1.0))
        h2.append(est.h(2.0))
        dh.append(delta_h(est))
    assert np.mean(h1) == pytest.approx(0.5, abs=0.03)
    assert np.mean(h2) == pytest.approx(0.5, abs=0.03)
    assert abs(np.mean(dh)) < 0.015


def test_series_too_short():
    with pytest.raises(ValueError, match="10"):
        estimate_ghe(np.arange(100, dtype=float))
    with pytest.raises(ValueError, match=r"series length 189 < 10 \* max scale 19"):
        estimate_ghe(np.zeros((189, 4)))


def test_degenerate_scale_is_named():
    with pytest.raises(ValueError, match="l=1"):
        estimate_ghe(np.zeros(400))


def test_delta_h_values():
    est = ghe_from_moments(
        np.vstack(
            [np.arange(1, 20.0) ** 0.55, np.arange(1, 20.0) ** (2 * 0.50)]
        ),
        (1.0, 2.0),
    )
    assert delta_h(est) == pytest.approx(0.05, abs=1e-10)


def test_delta_h_requires_q1_and_q2():
    scales = np.arange(1, 20.0)
    est = ghe_from_moments(np.vstack([scales, scales]), (1.0, 3.0))
    with pytest.raises(ValueError, match="q=2"):
        delta_h(est)


# --- batched GHE against the per-column loop it replaced ---


def reference_moments(x, q_values=(1.0, 2.0), hi=19):
    """Moment table of one series, computed as before batching."""
    moments = np.empty((len(q_values), hi))
    for scale in range(1, hi + 1):
        inc = np.abs(x[scale:] - x[:-scale])
        for i, q in enumerate(q_values):
            moments[i, scale - 1] = np.mean(inc**q)
    return moments


def reference_fit(moments, q_values=(1.0, 2.0), lmax_range=(5, 19)):
    """(slopes, H, std_errors) of one moment table, fitted one lmax at a time."""
    lo, hi = lmax_range
    log_l = np.log(np.arange(1, hi + 1, dtype=float))
    log_m = np.log(moments[:, :hi])
    slopes = np.empty((len(q_values), hi - lo + 1))
    for k, lmax in enumerate(range(lo, hi + 1)):
        xc = log_l[:lmax] - log_l[:lmax].mean()
        for i in range(len(q_values)):
            y = log_m[i, :lmax]
            slopes[i, k] = float(xc @ (y - y.mean())) / float(xc @ xc)
    h_per_fit = slopes / np.asarray(q_values)[:, None]
    return slopes, h_per_fit.mean(axis=1), h_per_fit.std(axis=1, ddof=1)


def returns_panel_of(n_times, n_assets, seed, burst_share=0.0):
    """Returns with common volatility bursts and per-asset scales; the first
    `burst_share` of the rows can be made 100x as volatile."""
    rng = np.random.default_rng(seed)
    vol = np.exp(rng.standard_normal((n_times, 1)))
    scale = 10.0 ** rng.uniform(-4, 0, size=n_assets)
    values = scale * vol * rng.standard_normal((n_times, n_assets))
    values[: int(burst_share * n_times)] *= 100.0
    return ReturnsPanel(assets=[f"a{j}" for j in range(n_assets)], times=range(n_times), values=values)


def random_log_price_panel(n_times, n_assets, seed):
    return returns_panel_of(n_times - 1, n_assets, seed).log_price_paths()


@pytest.mark.parametrize("n_times,n_assets,seed", [(753, 50, 0), (253, 400, 1), (4027, 50, 2)])
def test_batched_ghe_matches_per_column_loop(n_times, n_assets, seed):
    panel = random_log_price_panel(n_times, n_assets, seed)
    (moments,) = _moment_table(np.ascontiguousarray(panel.T), (1.0, 2.0), range(1, 20))
    estimates = estimate_ghe(panel)
    assert len(estimates) == n_assets
    for j, est in enumerate(estimates):
        ref = reference_moments(panel[:, j])
        assert np.array_equal(moments[j], ref)
        slopes, h, se = reference_fit(ref)
        assert np.max(np.abs(est.slopes - slopes)) <= 1e-14
        assert np.max(np.abs(np.asarray(est.h_values) - h)) <= 1e-14
        assert np.max(np.abs(np.asarray(est.std_errors) - se)) <= 1e-14


def test_batched_column_equals_single_series_call():
    panel = random_log_price_panel(753, 50, 3)
    for j, est in enumerate(estimate_ghe(panel)):
        alone = estimate_ghe(panel[:, j])
        assert np.array_equal(est.slopes, alone.slopes)
        assert est.h_values == alone.h_values
        assert est.std_errors == alone.std_errors


def test_batched_zero_moment_names_column():
    panel = random_log_price_panel(400, 5, 4)
    panel[:, 3] = 1.5
    with pytest.raises(ValueError, match=r"M\(q=1.0, l=1\) = 0 in column 3"):
        estimate_ghe(panel)


# --- windowed GHE against per-window estimates ---


def reference_moment_table(series, q_values, scales):
    """_moment_table before windows: M[j, i, k] over the whole of each row."""
    n_assets, n_times = series.shape
    sums = np.empty((n_assets, len(q_values), len(scales)))
    inc = np.empty((n_assets, n_times - 1))
    powered = np.empty_like(inc)
    for k, scale in enumerate(scales):
        width = n_times - scale
        d = inc[:, :width]
        np.subtract(series[:, scale:], series[:, :width], out=d)
        np.abs(d, out=d)
        for i, q in enumerate(q_values):
            out = d if i == len(q_values) - 1 else powered[:, :width]
            term = d if q == 1.0 else np.power(d, q, out=out)
            np.add.reduce(term, axis=1, out=sums[:, i, k])
    return sums / (n_times - np.asarray(scales, dtype=float))


@pytest.mark.parametrize("n_times,n_assets,seed", [(4026, 50, 0), (1259, 400, 1), (600, 7, 2)])
def test_single_window_moments_equal_the_old_kernel_bit_for_bit(n_times, n_assets, seed):
    series = np.ascontiguousarray(returns_panel_of(n_times, n_assets, seed).log_price_paths().T)
    for q_values in ((1.0, 2.0), (0.5, 1.0, 3.0), (2.0,)):
        (table,) = _moment_table(series, q_values, range(1, 20))
        assert np.array_equal(table, reference_moment_table(series, q_values, range(1, 20)))


def test_single_whole_window_estimate_equals_the_plain_estimate_bit_for_bit():
    paths = returns_panel_of(1000, 9, 3).log_price_paths()
    (windowed,) = estimate_ghe(paths, windows=WindowSpec(length=1000, count=1))
    for est, plain in zip(windowed, estimate_ghe(paths)):
        assert np.array_equal(est.slopes, plain.slopes)
        assert est.h_values == plain.h_values
        assert est.std_errors == plain.std_errors


WINDOW_CASES = {
    "panel50": (4026, 50, 752, 50, 0.0),
    "wide400": (1259, 400, 252, 10, 0.0),
    "volatile_start": (4026, 50, 752, 50, 0.4),
    "count_1": (1000, 5, 300, 1, 0.0),
    "abutting": (1000, 5, 250, 4, 0.4),  # stride 250 = length
    "uneven_last_jump": (1000, 5, 300, 4, 0.4),  # jumps 233, 233, 234
}


@pytest.mark.parametrize("case", WINDOW_CASES, ids=list(WINDOW_CASES))
def test_windowed_ghe_matches_per_window_estimates(case):
    n_times, n_assets, length, count, burst_share = WINDOW_CASES[case]
    panel = returns_panel_of(n_times, n_assets, 5, burst_share)
    spec = WindowSpec(length=length, count=count)
    windowed = estimate_ghe(panel.log_price_paths(), windows=spec)
    windows = rolling_windows(panel, spec)
    assert len(windowed) == len(windows) == count
    for estimates, window in zip(windowed, windows):
        assert len(estimates) == n_assets
        for est, alone in zip(estimates, estimate_ghe(window.log_price_paths())):
            assert np.max(np.abs(np.subtract(est.h_values, alone.h_values))) <= 1e-12
            assert np.max(np.abs(np.subtract(est.std_errors, alone.std_errors))) <= 1e-12


@pytest.mark.parametrize("case", ["abutting", "uneven_last_jump"])
def test_window_moments_are_the_old_kernel_on_each_slice(case):
    n_times, n_assets, length, count, burst_share = WINDOW_CASES[case]
    series = np.ascontiguousarray(
        returns_panel_of(n_times, n_assets, 6, burst_share).log_price_paths().T
    )
    starts = WindowSpec(length=length, count=count).starts(n_times)
    tables = _moment_table(series, (1.0, 2.0), range(1, 20), starts, length + 1)
    for table, s in zip(tables, starts):
        window = np.ascontiguousarray(series[:, s : s + length + 1])
        assert np.array_equal(table, reference_moment_table(window, (1.0, 2.0), range(1, 20)))


def test_windowed_series_gives_one_estimate_per_window():
    path = returns_panel_of(800, 1, 7).log_price_paths()
    spec = WindowSpec(length=400, count=3)
    windowed = estimate_ghe(path[:, 0], windows=spec)
    assert [est.h_values for est in windowed] == [
        columns[0].h_values for columns in estimate_ghe(path, windows=spec)
    ]


def test_windowed_zero_moment_names_window_and_column():
    panel = returns_panel_of(1000, 5, 8)
    values = panel.values.copy()
    values[520:, 3] = 0.0  # window 3 is flat, window 2 still moves in its first 20 rows
    panel = ReturnsPanel(assets=panel.assets, times=panel.times, values=values)
    with pytest.raises(ValueError, match=r"M\(q=1.0, l=1\) = 0 in window 3, column 3"):
        estimate_ghe(panel.log_price_paths(), windows=WindowSpec(length=250, count=4))


def test_windows_shorter_than_the_fit_are_rejected():
    paths = returns_panel_of(1000, 2, 9).log_price_paths()
    with pytest.raises(ValueError, match=r"series length 189 < 10 \* max scale 19"):
        estimate_ghe(paths, windows=WindowSpec(length=188, count=6))


# --- fBm generation ---


def test_fbm_half_is_white_noise():
    inc = np.diff(generate_fbm(FbmSpec(hurst=0.5, length=2**13, seed=1)))
    inc = inc - inc.mean()
    acf1 = (inc[:-1] @ inc[1:]) / (inc @ inc)
    assert abs(acf1) < 3 / np.sqrt(inc.size)


def test_fbm_increment_autocovariance_matches_closed_form():
    inc = np.diff(generate_fbm(FbmSpec(hurst=0.7, length=2**14, seed=42)))
    centered = inc - inc.mean()
    n = centered.size
    for lag in range(1, 11):
        sample = (centered[:-lag] @ centered[lag:]) / n
        assert sample == pytest.approx(fgn_autocovariance(0.7, lag)[0], abs=0.02)


def test_fbm_deterministic():
    spec = FbmSpec(hurst=0.62, length=4096, seed=9)
    assert np.array_equal(generate_fbm(spec), generate_fbm(spec))


def test_fbm_starts_at_zero_and_has_requested_length():
    path = generate_fbm(FbmSpec(hurst=0.3, length=1000, seed=0))
    assert path.shape == (1000,)
    assert path[0] == 0.0


def test_an_embedding_that_clips_nothing_reports_a_positive_zero_mass():
    eig, mass = _embedding_eigenvalues(fgn_autocovariance(0.7, np.arange(65)), clip_negative=True)
    assert eig.min() >= 0 and mass == 0.0
    # params.json writes this value: it must read 0.0, not -0.0
    assert math.copysign(1.0, mass) == 1.0


def reference_fgn(length, hurst, rng):
    cov = fgn_autocovariance(hurst, np.arange(length + 1))
    sample, _ = _circulant_sample(cov, rng, clip_negative=False)
    return sample


def reference_generate_fbm(spec):
    """generate_fbm before it shared its path builder with the calibration draw."""
    fgn = reference_fgn(spec.length - 1, spec.hurst, np.random.default_rng(spec.seed))
    path = np.empty(spec.length)
    path[0] = 0.0
    np.cumsum(fgn, out=path[1:])
    return path


def reference_calibration_draw(index, seed, lo, hi, length):
    rng = derived_rng(seed, index)
    hurst = rng.uniform(lo, hi)
    path = np.concatenate(([0.0], np.cumsum(reference_fgn(length - 1, hurst, rng))))
    return delta_h(estimate_ghe(path))


@pytest.mark.parametrize("length", [2, 3, 190, 1000, 4026])
def test_fbm_paths_are_bitwise_equal_to_the_old_builders(length):
    for hurst, seed in ((0.1, 0), (0.5, 1), (0.83, 2)):
        spec = FbmSpec(hurst=hurst, length=length, seed=seed)
        assert np.array_equal(generate_fbm(spec), reference_generate_fbm(spec))
    if length >= 190:
        for index in range(3):
            args = (index, 5, 0.1, 0.9, length)
            assert scaling._calibration_draw(*args) == reference_calibration_draw(*args)


def test_fbm_spec_validation():
    with pytest.raises(ValueError):
        FbmSpec(hurst=1.2, length=100, seed=0)
    with pytest.raises(ValueError):
        FbmSpec(hurst=0.5, length=1, seed=0)


def test_delta_h_unbiased_on_fbm():
    dhs = [
        delta_h(estimate_ghe(generate_fbm(FbmSpec(hurst=0.6, length=4026, seed=s))))
        for s in range(500)
    ]
    assert abs(np.mean(dhs)) < 0.005


def test_lognormal_cascade_is_detected_as_multiscaling():
    # a pure common-volatility series (no tree risks) must clear the
    # length-matched uniscaling threshold in >= 80% of seeds; see the
    # decisions ledger for why the cutoff is length-matched
    from hiermf.dependence import CorrelationMatrix
    from hiermf.dhm import DhmSpec, LogVolSpec, Regime, RiskTree, simulate_returns
    from hiermf.hierarchy import comb_tree

    length = 2**16
    threshold = calibrate_threshold(100, (0.1, 0.9), length, seed=5).threshold
    tree = comb_tree(2, ["a", "b"])
    risk = RiskTree(tree.with_probabilities({n.id: 0.0 for n in tree.nodes}))
    noise = CorrelationMatrix(assets=("a", "b"), values=np.eye(2))
    hits = 0
    for seed in range(12):
        spec = DhmSpec(
            noise=noise, regimes=(Regime(risk, length),), logvol=LogVolSpec(),
            length=length, seed=seed,
        )
        path = np.concatenate(([0.0], np.cumsum(simulate_returns(spec).returns.values[:, 0])))
        hits += delta_h(estimate_ghe(path)) > threshold
    assert hits >= 10


# --- threshold calibration ---


@pytest.fixture(scope="module")
def broad_calibration():
    return calibrate_threshold(1000, (0.1, 0.9), 4026, seed=20130)


def test_threshold_band_and_golden(broad_calibration):
    assert 0.008 <= broad_calibration.threshold <= 0.025
    assert round(broad_calibration.threshold, 6) == 0.008865


def test_threshold_deterministic(broad_calibration):
    again = calibrate_threshold(1000, (0.1, 0.9), 4026, seed=20130)
    assert again.threshold == broad_calibration.threshold
    assert np.array_equal(again.delta_h_sample, broad_calibration.delta_h_sample)


def test_threshold_worker_count_invariant(broad_calibration):
    parallel = calibrate_threshold(1000, (0.1, 0.9), 4026, seed=20130, jobs=2)
    assert parallel.threshold == broad_calibration.threshold


def test_threshold_positive_and_sample_stored(broad_calibration):
    assert broad_calibration.threshold > 0
    assert broad_calibration.delta_h_sample.shape == (1000,)


def test_count_agreement_within_bootstrap_error(broad_calibration):
    small = calibrate_threshold(100, (0.1, 0.9), 4026, seed=20130)
    rng = np.random.default_rng(0)

    def boot_se(sample):
        reps = [
            np.percentile(rng.choice(sample, size=sample.size, replace=True), 97.5)
            for _ in range(500)
        ]
        return np.std(reps)

    tolerance = 2 * np.hypot(boot_se(small.delta_h_sample), boot_se(broad_calibration.delta_h_sample))
    assert abs(small.threshold - broad_calibration.threshold) <= tolerance


def test_degenerate_hurst_range(broad_calibration):
    # dH dispersion grows with H, so a single mid-range H sits below the
    # mixed-range cutoff; agreement is to 30%, not exact (see decisions ledger)
    deg = calibrate_threshold(1000, (0.5, 0.5), 4026, seed=20130)
    assert deg.threshold == pytest.approx(broad_calibration.threshold, rel=0.3)


def test_low_count_warns():
    with pytest.warns(UserWarning, match="low realization count"):
        calibrate_threshold(20, (0.2, 0.8), 400, seed=1)


def test_tiny_count_rejected():
    with pytest.raises(ValueError):
        calibrate_threshold(5, (0.2, 0.8), 400, seed=1)


def test_bad_hurst_range():
    with pytest.raises(ValueError):
        calibrate_threshold(100, (0.0, 0.9), 400, seed=1)


@pytest.mark.parametrize(
    "hurst_range, message",
    [((0.95, 0.9), r"hurst range \(0.95, 0.9\) is inverted"),
     ((0.0, 0.9), r"hurst range \(0.0, 0.9\) not inside \(0, 1\)")],
    ids=["inverted", "outside"],
)
def test_bad_hurst_range_fails_before_the_low_count_warning(hurst_range, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            calibrate_threshold(20, hurst_range, 400, seed=1)
