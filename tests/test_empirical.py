import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interevent as iv
from interevent import empirical
from interevent.core import IngestError, ModelDomainError
from interevent.empirical import DEFAULT_Q_GRID, IngestOptions


def test_default_grid_shape():
    assert DEFAULT_Q_GRID[0] == 0.0
    assert DEFAULT_Q_GRID[-1] == 20.0
    assert len(DEFAULT_Q_GRID) == 201


def test_ingest_durations_drop_accounting():
    data = np.array([1.0, -2.0, 0.0, 0.5, 3.0])
    s = iv.ingest(data, IngestOptions(input_kind="durations", min_duration=0.6))
    assert np.array_equal(s.durations, [1.0, 3.0])
    assert s.dropped["non_positive"] == 2
    assert s.dropped["below_min_duration"] == 1


def test_ingest_timestamps():
    stamps = np.array([0.0, 1.0, 3.0, 3.0, 10.0])
    s = iv.ingest(stamps, IngestOptions(input_kind="timestamps"))
    # zero-length gap dropped, others kept
    assert np.array_equal(s.durations, [1.0, 2.0, 7.0])
    assert s.dropped["non_positive"] == 1


def test_ingest_timestamps_must_be_ordered():
    stamps = np.array([0.0, 2.0, 1.5, 3.0])
    with pytest.raises(IngestError) as exc:
        iv.ingest(stamps, IngestOptions(input_kind="timestamps"))
    assert exc.value.index == 2


def test_ingest_rejects_non_finite_with_index():
    data = np.array([1.0, np.inf, 2.0])
    with pytest.raises(IngestError) as exc:
        iv.ingest(data, IngestOptions(input_kind="durations"))
    assert exc.value.index == 1


def test_ingest_session_breaks():
    stamps = np.array([0.0, 1.0, 100.0, 101.5])
    s = iv.ingest(stamps, IngestOptions(input_kind="timestamps", gap_cutoff=50.0))
    assert np.array_equal(s.durations, [1.0, 1.5])
    assert s.dropped["session_break"] == 1


def test_ingest_option_validation():
    with pytest.raises(ValueError):
        IngestOptions(input_kind="bogus")
    with pytest.raises(ValueError):
        IngestOptions(input_kind="durations", gap_cutoff=1.0, min_duration=2.0)


def _series(values):
    return iv.EventSeries(durations=np.asarray(values, dtype=float), source="unit")


def test_qmoments_match_exact_rational_arithmetic():
    # the log-sum-exp path must agree with exact arithmetic on integer data
    data = [1, 2, 3, 5, 8, 13]
    s = _series(data)
    qs = np.array([0.0, 1.0, 2.0, 3.0, 7.0])
    curve = iv.empirical_qmoments(s, qs)
    for q, got in zip(qs[1:], curve.log_norm_moment[1:]):
        mean_q = Fraction(sum(Fraction(x) ** int(q) for x in data), len(data))
        expected = math.log(mean_q) - math.lgamma(1.0 + q)
        assert got == pytest.approx(expected, abs=1e-12)
    assert curve.log_norm_moment[0] == 0.0
    assert curve.n_samples == len(data)


def test_qmoments_stderr_formula():
    data = [1.0, 2.0, 4.0]
    s = _series(data)
    curve = iv.empirical_qmoments(s, np.array([0.0, 1.0]))
    m1 = np.mean(data)
    m2 = np.mean(np.square(data))
    expected = math.sqrt((m2 / m1**2 - 1.0) / len(data))
    assert curve.stderr[1] == pytest.approx(expected, rel=1e-12)
    assert curve.stderr[0] == 0.0


def test_qmoments_survive_extreme_magnitudes():
    # values spanning hundreds of orders of magnitude must not overflow
    s = _series([1e-200, 1e-100, 1e100, 1e200])
    curve = iv.empirical_qmoments(s, np.array([0.0, 2.0, 5.0]))
    assert np.all(np.isfinite(curve.log_norm_moment))
    expected = 5.0 * math.log(1e200) - math.log(4.0) - math.lgamma(6.0)
    assert curve.log_norm_moment[2] == pytest.approx(expected, rel=1e-12)
    assert np.all(np.isfinite(curve.stderr))


def test_qmoments_grid_validation():
    s = _series([1.0, 2.0])
    with pytest.raises(ValueError):
        iv.empirical_qmoments(s, np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        iv.empirical_qmoments(s, np.array([-1.5, 0.0]))


def _log_fraction(x: Fraction) -> float:
    # math.log of the parts: the ratio itself may overflow a float
    return math.log(x.numerator) - math.log(x.denominator)


def test_qmoments_negative_orders_exact_on_extreme_magnitudes():
    # 2^e with 8 | e spans ~1e-200..1e200, and every t^q and t^2q below is an
    # exact power of two; t^-1.75 at t = 2^-664 is 2^1162, beyond float range,
    # so the negative orders need the min(ln t) shift
    exps = (-664, -328, -8, 0, 8, 328, 664)
    s = _series([2.0 ** e for e in exps])
    qs = np.array([-0.875, -0.5, -0.25, 0.0, 0.5])
    curve = iv.empirical_qmoments(s, qs)

    def mean_power(p):
        return Fraction(sum(Fraction(2) ** int(p * e) for e in exps), len(exps))

    for q, got, se in zip(qs, curve.log_norm_moment, curve.stderr):
        if q == 0.0:
            assert got == 0.0 and se == 0.0
            continue
        expected = _log_fraction(mean_power(q)) - math.lgamma(1.0 + q)
        assert got == pytest.approx(expected, rel=1e-13)
        ratio = mean_power(2 * q) / mean_power(q) ** 2
        assert se == pytest.approx(math.sqrt(float(ratio - 1) / len(exps)), rel=1e-12)


def test_ladder_exact_on_powers_of_two(monkeypatch):
    # every t^p below is a power of two, over orders k/8 that run past the refresh count on
    # both shifts and skip k = 100 once; the Fraction reference is exact, and the kernel's
    # terms are off only by the rounding of p (ln t - s) and of the ladder's multiplies
    exps = (-664, -496, -328, -160, -8, 0, 8, 160, 328, 496, 664)
    log_t = np.log([2.0 ** e for e in exps])
    orders = np.array([k / 8 for k in range(-16, 321) if k != 100])
    calls = []
    real_exp = np.exp

    def counting_exp(x, *args, **kwargs):
        calls.append(x.size)
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(empirical.np, "exp", counting_exp)
    got = empirical._log_power_means(log_t, orders)
    monkeypatch.undo()
    # negatives: a fresh term and one step; from 0: a fresh term at k = 0, 32, 64, 96, 101
    # (off the ladder), 133, ..., 293 and one step
    assert len(calls) == 14 and set(calls) == {len(exps)}

    for p, g in zip(orders.tolist(), got):
        k = round(8 * p)
        mean = Fraction(sum(Fraction(2) ** (k * e // 8) for e in exps), len(exps))
        assert g == pytest.approx(_log_fraction(mean), rel=1e-13), p


_EPS = float(np.finfo(float).eps)


@st.composite
def _sample_and_orders(draw):
    n = draw(st.integers(1, 200))
    sigma = draw(st.floats(0.1, 12.0))
    seed = draw(st.integers(0, 2**32 - 1))
    log_t = np.log(np.random.default_rng(seed).lognormal(0.0, sigma, n))
    if draw(st.booleans()):
        start = draw(st.floats(-2.0, 20.0))
        gap = draw(st.floats(1e-3, 2.0))
        orders = start + gap * np.arange(draw(st.integers(1, 120)))
    else:
        orders = np.array(draw(st.lists(st.floats(-2.0, 40.0), min_size=1, max_size=120)))
    return log_t, np.unique(orders)


@given(_sample_and_orders())
@settings(max_examples=150, deadline=None)
def test_ladder_matches_fsum_of_fresh_exps(case):
    # the ladder may add (8 |p| span + K + 4) eps to the mean's relative error; the second
    # term is the rounding of assembling p s + ln S - ln N, which the reference repeats
    log_t, orders = case
    n, hi, lo = log_t.size, log_t.max(), log_t.min()
    span = hi - lo
    got = empirical._log_power_means(log_t.copy(), orders)
    for p, g in zip(orders.tolist(), got):
        s = lo if p < 0.0 else hi
        ref = p * s + math.log(math.fsum(np.exp(p * (log_t - s)).tolist())) - math.log(n)
        bound = (8.0 * abs(p) * span + empirical._LADDER_REFRESH + 4.0) * _EPS
        assert abs(g - ref) <= bound + _EPS * (abs(ref) + math.log(n)), (p, g, ref)


def test_qmoments_dedupe_overlapping_orders(monkeypatch):
    # {q} and {2q} share 0, 1, 2, 3 and 4: each distinct order is summed once
    rng = np.random.default_rng(5)
    t = rng.lognormal(0.0, 1.5, 2000)
    qs = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    seen = []
    kernel = empirical._log_power_means

    def spy(log_t, orders):
        seen.append(orders.copy())
        return kernel(log_t, orders)

    monkeypatch.setattr(empirical, "_log_power_means", spy)
    curve = iv.empirical_qmoments(_series(t), qs)
    assert np.array_equal(seen[0], [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0])

    def log_mean(p):
        return math.log(math.fsum((t ** p).tolist()) / t.size)

    for q, got, se in zip(qs[1:], curve.log_norm_moment[1:], curve.stderr[1:]):
        assert got == pytest.approx(log_mean(q) - math.lgamma(1.0 + q), rel=1e-12, abs=1e-12)
        ratio = math.exp(log_mean(2 * q) - 2 * log_mean(q))
        assert se == pytest.approx(math.sqrt((ratio - 1.0) / t.size), rel=1e-12)

    seen.clear()
    iv.empirical_qmoments(_series(t))
    assert seen[0].size == 301  # the default grid: 201 orders, 100 of 2q new


def test_qmoments_reject_bad_grid_before_summing(monkeypatch):
    def fail(log_t, orders):
        raise AssertionError("power sums taken before the grid was checked")

    monkeypatch.setattr(empirical, "_log_power_means", fail)
    s = _series([1.0, 2.0, 3.0])
    for bad in ([], [0.0, 0.0], [1.0, 0.5], [[0.0, 1.0]], [0.0, math.nan, 1.0], [0.0, math.inf]):
        with pytest.raises(ValueError):
            iv.empirical_qmoments(s, np.array(bad, dtype=float))
    with pytest.raises(ModelDomainError):
        iv.empirical_qmoments(s, np.array([-1.0, 0.0]))


def test_qmoments_peak_allocation_stays_linear():
    # guard against an (orders x N) matrix: with N = 10^5 on the default grid,
    # the kernel, its log-durations included, must stay under 4 length-N arrays
    n = 100_000
    s = _series(np.random.default_rng(9).lognormal(0.0, 1.0, n))
    tracemalloc.start()
    try:
        iv.empirical_qmoments(s, DEFAULT_Q_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * 8


def test_empirical_sojourn_small_case():
    s = _series([1.0, 2.0, 3.0])
    grid = np.array([0.5, 1.0, 2.5, 3.0])
    psi = iv.empirical_sojourn(s, grid)
    assert np.allclose(psi, [1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0])
    with pytest.raises(ValueError):
        iv.empirical_sojourn(s, np.array([1.0, 0.5]))


def test_empirical_sojourn_rejects_nan_grid_points():
    s = _series([1.0, 2.0, 3.0])
    for grid in (math.nan, [math.nan], [0.5, math.nan, 2.0]):
        with pytest.raises(ValueError, match="NaN"):
            iv.empirical_sojourn(s, grid)
    # psi = 0 is the exact survival at t = inf
    assert iv.empirical_sojourn(s, math.inf) == 0.0
    assert np.array_equal(iv.empirical_sojourn(s, [2.5, math.inf]), [1.0 / 3.0, 0.0])
    with pytest.raises(ValueError):
        iv.empirical_sojourn(s, [math.inf, math.inf])


def test_empirical_sojourn_zero_dim_input_returns_float():
    s = _series([1.0, 2.0, 3.0])
    for t in (1.5, np.float64(1.5), np.array(1.5)):
        got = iv.empirical_sojourn(s, t)
        assert type(got) is float and got == pytest.approx(2.0 / 3.0)
    assert iv.empirical_sojourn(s, np.array([1.5])).shape == (1,)


def test_qmoments_effective_sample_size():
    rng = np.random.default_rng(8)
    data = rng.lognormal(0.0, 1.5, 400)
    q = np.array([0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    curve = iv.empirical_qmoments(_series(data), q)
    assert curve.n_eff.shape == q.shape
    assert curve.n_eff[0] == len(data)
    for qi, got in zip(q, curve.n_eff):
        expected = math.fsum(data ** qi) ** 2 / math.fsum(data ** (2.0 * qi))
        assert got == pytest.approx(expected, rel=1e-10)
    # a few extreme events dominate the high orders of a heavy tail
    assert np.all(np.diff(curve.n_eff) < 0) and curve.n_eff[-1] < 10.0
    near_zero = iv.empirical_qmoments(_series(data), np.r_[0.0, 1e-12, 1e-9, DEFAULT_Q_GRID[1:]])
    assert np.all((near_zero.n_eff >= 1.0) & (near_zero.n_eff <= len(data)))


def test_rescaled_log_moment():
    q = np.array([0.0, 1.0, 2.0])
    curve = iv.model_curve(q, iv.ModelParams(iv.Delta(mu=2.0)))
    theta = math.exp(3.0)
    out = iv.rescaled_log_moment(curve, math.exp(2.0), theta)
    # substituting theta for tau scales the line to slope ln(theta)
    assert out[1] == pytest.approx(3.0, rel=1e-12)
    assert out[2] == pytest.approx(6.0, rel=1e-12)


def test_mono_collapse():
    q = np.array([0.0, 1.0, 4.0])
    curve = iv.model_curve(q, iv.ModelParams(iv.Delta(mu=1.7)))
    out = iv.mono_collapse(curve, math.exp(1.7))
    assert math.isnan(out[0])
    assert out[1] == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ModelDomainError):
        iv.mono_collapse(curve, 1.0)
    with pytest.raises(ModelDomainError):
        iv.mono_collapse(curve, -2.0)


def test_mf_collapse_properties():
    q = np.linspace(0.0, 4.0, 41)
    p = iv.MFParams(alpha=1.8, c0=-1.0, b=0.6)
    curve = iv.model_curve(q, p)
    out = iv.mf_collapse(curve, p)
    assert math.isnan(out[0])
    x = 0.6 * q[1:] ** (1.0 / 0.8)
    assert np.allclose(out[1:], x, atol=1e-12)


def test_hmf_collapse_and_transform():
    q = np.linspace(0.0, 20.0, 201)
    p = iv.HMFParams(alpha=1.91, c0=-3.0, b=2.5, b1=0.33)
    curve = iv.model_curve(q, p)
    out = iv.hmf_collapse(curve, p)
    x = 0.33 * q[1:] ** (1.0 / 0.91)
    assert np.allclose(out[1:], -np.expm1(-x), atol=1e-12)

    tr = iv.transformed_moment(curve, p)
    assert np.allclose(tr[1:], 2.5 / 0.33 * (-np.expm1(-x)) * 0.33, atol=1e-10)


def test_scale_q_identity_and_domain():
    market = iv.HMFParams(alpha=1.85, c0=-1.5, b=0.9, b1=0.4)
    ref = iv.HMFParams(alpha=1.91, c0=-3.0, b=2.5, b1=0.33)
    q = np.array([0.5, 1.0, 2.0, 5.0, 12.0])
    qhat = iv.scale_q(q, market, ref)
    # defining property: the saturation arguments coincide after mapping
    lhs = market.b1 * qhat ** (1.0 / (market.alpha - 1.0))
    rhs = ref.b1 * q ** (1.0 / (ref.alpha - 1.0))
    assert np.allclose(lhs, rhs, rtol=1e-12)
    assert np.all(np.diff(qhat) > 0)

    with pytest.raises(ModelDomainError):
        iv.scale_q(np.array([0.0, 1.0]), market, ref)
    with pytest.raises(ModelDomainError):
        iv.scale_q(-1.0, market, ref)


def test_scale_q_is_identity_on_same_market():
    p = iv.HMFParams(alpha=1.78, c0=0.1, b=1.07, b1=0.20)
    q = np.linspace(0.1, 10.0, 25)
    assert np.allclose(iv.scale_q(q, p, p), q, rtol=1e-12)
