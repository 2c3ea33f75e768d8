import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

import interevent as iv
from interevent import core, fitting
from interevent.core import _BLOCK


def test_monofractal_fit_exact():
    q = np.linspace(0.0, 20.0, 201)
    curve = iv.monofractal_curve(q, 4.598)
    fit = iv.fit_monofractal(curve, (10.0, 20.0))
    assert fit.converged
    assert fit.estimate("ln_tau") == pytest.approx(4.598, rel=1e-12)
    assert fit.stderr("ln_tau") == pytest.approx(0.0, abs=1e-12)
    assert fit.q_domain == (10.0, 20.0)
    assert fit.residual_norm == pytest.approx(0.0, abs=1e-18)


def test_monofractal_fit_weighted():
    q = np.linspace(0.0, 20.0, 201)
    rng = np.random.default_rng(17)
    se = np.full(q.shape, 0.05)
    noise = rng.normal(0.0, 0.05, q.shape)
    noise[0] = 0.0
    curve = iv.QMomentCurve(
        q_grid=q,
        log_norm_moment=q * 2.0 + noise,
        n_samples=1000,
        stderr=se,
    )
    fit = iv.fit_monofractal(curve, (10.0, 20.0))
    assert abs(fit.estimate("ln_tau") - 2.0) < 4 * fit.stderr("ln_tau")


def test_monofractal_on_hmf_curve_regression():
    # large-q regression on a saturating curve approaches c0 + b/b1 from below
    p = iv.HMFParams(alpha=1.91, c0=-3.0, b=2.5, b1=0.33)
    q = np.round(np.arange(0, 201) * 0.1, 12)
    fit = iv.fit_monofractal(iv.mf_curve(q, p), (10.0, 20.0))
    plateau = p.c0 + p.b / p.b1
    est = fit.estimate("ln_tau")
    assert est < plateau
    assert est == pytest.approx(plateau, rel=5e-3)


def test_mf_fit_roundtrip_with_noise():
    truth = iv.MFParams(alpha=1.85, c0=-1.5, b=0.9)
    q = np.round(np.arange(0, 36) * 0.1, 12)
    clean = iv.mf_curve(q, truth)
    rng = np.random.default_rng(3)
    vals = clean.log_norm_moment + rng.normal(0.0, 1e-4, q.shape)
    vals[0] = 0.0
    noisy = iv.QMomentCurve(q_grid=q, log_norm_moment=vals, stderr=np.full(q.shape, 1e-4))
    fit = iv.fit_mf(noisy, (0.0, 3.5))
    assert fit.converged
    assert fit.estimate("alpha") == pytest.approx(1.85, abs=0.02)
    assert fit.estimate("c0") == pytest.approx(-1.5, abs=0.02)
    assert fit.estimate("b") == pytest.approx(0.9, abs=0.02)
    # reported uncertainty should cover the truth within a few sigma
    assert abs(fit.estimate("alpha") - 1.85) < 5 * fit.stderr("alpha")


def test_fit_reports_optimizer_diagnostics():
    q = np.round(np.arange(0, 36) * 0.1, 12)
    mf = iv.fit_mf(iv.mf_curve(q, iv.MFParams(alpha=1.85, c0=-1.5, b=0.9)), (0.0, 3.5))
    t = np.geomspace(0.01, 50.0, 80)
    weibull = iv.fit_sojourn(t, np.exp(iv.Weibull(1.53, 0.459).log_survival(t)), iv.Weibull)
    for fit in (mf, weibull):
        assert fit.converged and fit.status > 0
        assert isinstance(fit.nfev, int) and 1 <= fit.nfev <= 500
        assert isinstance(fit.jac_cond, float) and 1.0 <= fit.jac_cond < 1e12
    # the condition number is that of the model Jacobian at the estimates
    alpha, b = mf.estimate("alpha"), mf.estimate("b")
    qw = q[q > 0]
    p = qw ** (alpha / (alpha - 1.0))
    jac = np.column_stack([-b * p * np.log(qw) / (alpha - 1.0) ** 2, qw, p])
    assert mf.jac_cond == pytest.approx(np.linalg.cond(jac), rel=1e-6)
    mono = iv.fit_monofractal(iv.monofractal_curve(q, 1.0), (1.0, 3.5))
    assert (mono.nfev, mono.status, mono.jac_cond) == (None, None, None)


def test_mf_fit_requires_enough_points():
    q = np.array([0.0, 0.5, 1.0, 1.5])
    curve = iv.mf_curve(q, iv.MFParams(alpha=2.0, c0=0.0, b=0.3))
    with pytest.raises(ValueError):
        iv.fit_mf(curve, (0.0, 1.5))


def test_hmf_fit_rejects_purely_linear_curve():
    q = np.linspace(0.0, 20.0, 201)
    curve = iv.monofractal_curve(q, 2.0)
    with pytest.raises(ValueError, match="linear"):
        iv.fit_hmf(curve, (0.0, 20.0))


def test_hmf_fit_with_noise():
    truth = iv.HMFParams(alpha=1.78, c0=0.1, b=1.07, b1=0.20)
    q = np.round(np.arange(0, 201) * 0.1, 12)
    clean = iv.mf_curve(q, truth)
    rng = np.random.default_rng(8)
    vals = clean.log_norm_moment + rng.normal(0.0, 1e-3, q.shape)
    vals[0] = 0.0
    noisy = iv.QMomentCurve(q_grid=q, log_norm_moment=vals, stderr=np.full(q.shape, 1e-3))
    fit = iv.fit_hmf(noisy, (0.0, 20.0))
    assert fit.converged
    for name, val in (("alpha", 1.78), ("c0", 0.1), ("b", 1.07), ("b1", 0.20)):
        assert fit.estimate(name) == pytest.approx(val, rel=0.05), name


def test_qexp_survival_shape():
    t = np.linspace(0.0, 10.0, 50)
    # q_ts -> 1 recovers the exponential
    near_exp = iv.QExponential(0.7, 1.0 + 1e-9).log_survival(t)
    assert np.allclose(near_exp, -0.7 * t, rtol=1e-6)
    heavy = iv.QExponential(0.7, 1.8).log_survival(t)
    assert np.all(heavy >= near_exp - 1e-12)


def test_qexp_fit_roundtrip():
    t = np.geomspace(0.01, 80.0, 60)
    psi = np.exp(iv.QExponential(0.7, 1.4).log_survival(t))
    fit = iv.fit_sojourn(t, psi, iv.QExponential)
    assert fit.converged
    assert fit.estimate("m") == pytest.approx(0.7, rel=1e-8)
    assert fit.estimate("q_ts") == pytest.approx(1.4, rel=1e-8)
    assert fit.q_domain == (t[0], t[-1])
    assert not fit.flags


def test_qexp_fit_flags_exponential_boundary():
    t = np.geomspace(0.01, 20.0, 50)
    psi = np.exp(-0.9 * t)
    fit = iv.fit_sojourn(t, psi, iv.QExponential)
    assert "q_ts_at_lower_boundary" in fit.flags
    assert fit.estimate("m") == pytest.approx(0.9, rel=1e-6)


def test_weibull_fit_roundtrip():
    t = np.geomspace(0.01, 50.0, 80)
    psi = np.exp(iv.Weibull(1.53, 0.459).log_survival(t))
    fit = iv.fit_sojourn(t, psi, iv.Weibull)
    assert fit.converged
    assert fit.estimate("a") == pytest.approx(1.53, abs=1e-6)
    assert fit.estimate("c") == pytest.approx(0.459, abs=1e-6)


def test_numeric_sojourn_model_roundtrip():
    params = iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=1.0, alpha=1.5), tau0=1.0, beta=0.8)
    t = np.geomspace(0.05, 200.0, 50)
    psi = iv.sojourn(t, params)
    fit = iv.fit_sojourn(t, psi, iv.StretchedSojourn)
    assert fit.converged
    assert fit.estimate("alpha") == pytest.approx(1.5, abs=0.01)
    assert fit.estimate("b") == pytest.approx(iv.scales(params).b, rel=0.02)
    assert fit.estimate("c0") == pytest.approx(0.0, abs=0.01)


def test_sojourn_input_validation():
    t = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        iv.fit_sojourn(t, np.array([1.0, 0.5, 0.7]), iv.Weibull)  # not nonincreasing
    with pytest.raises(ValueError):
        iv.fit_sojourn(t, np.array([1.2, 0.5, 0.3]), iv.Weibull)  # above 1
    with pytest.raises(ValueError):
        iv.fit_sojourn(t, np.array([0.9, 0.5, 0.0]), iv.Weibull)  # zero survival
    with pytest.raises(ValueError):
        iv.fit_sojourn(np.array([3.0, 2.0, 1.0]), np.array([0.2, 0.5, 0.9]), iv.Weibull)


@pytest.mark.parametrize("column, index, value", [("t", -1, math.inf), ("t", 3, math.nan), ("psi", 3, math.nan)])
@pytest.mark.parametrize("model", [iv.QExponential, iv.Weibull, iv.StretchedSojourn])
def test_sojourn_fit_rejects_non_finite_input(monkeypatch, model, column, index, value):
    def no_optimizer(*args, **kwargs):
        raise AssertionError("the optimizer ran on non-finite input")

    monkeypatch.setattr(fitting, "least_squares", no_optimizer)
    data = {"t": np.geomspace(0.1, 5.0, 8)}
    data["psi"] = np.exp(-data["t"])
    data[column][index] = value
    with pytest.raises(ValueError, match="must be finite"):
        iv.fit_sojourn(data["t"], data["psi"], model)


def _central_differences(law, values, theta, x):
    columns = []
    for i, v in enumerate(theta):
        h = 1e-6 * max(1.0, abs(v))
        up, down = list(theta), list(theta)
        up[i] += h
        down[i] -= h
        columns.append((values(law(*up), x) - values(law(*down), x)) / (2.0 * h))
    return np.column_stack(columns)


ORDERS = np.array([-0.9, -0.3, -1e-3, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.5, 8.0, 20.0])
TIMES = np.array([0.0, 1e-4, 1e-2, 0.1, 0.5, 1.0, 10.0, 100.0])


@pytest.mark.parametrize("law, method, theta, x", [
    (iv.MFParams, "log_norm_moment", (1.85, -1.5, 0.9), ORDERS),
    (iv.MFParams, "log_norm_moment", (3.0, 0.4, 0.05), ORDERS),
    (iv.HMFParams, "log_norm_moment", (1.78, 0.1, 1.07, 0.2), ORDERS),
    (iv.HMFParams, "log_norm_moment", (2.21, -9.5, 11.7, 0.71), ORDERS),
    (iv.QExponential, "log_survival", (0.7, 1.4), TIMES),
    (iv.QExponential, "log_survival", (2.5, 1.05), TIMES),
    (iv.Weibull, "log_survival", (1.53, 0.459), TIMES),
    (iv.Weibull, "log_survival", (0.2, 1.7), TIMES),
    (iv.StretchedSojourn, "log_survival", (1.2, 0.3, 0.0), TIMES),
    (iv.StretchedSojourn, "log_survival", (1.5, 0.25, 0.4), TIMES),
    (iv.StretchedSojourn, "log_survival", (3.0, 0.8, -0.5), TIMES),
])
def test_analytic_jacobian_matches_central_differences(law, method, theta, x):
    analytic = law(*theta).jacobian(x)
    assert analytic.shape == (x.size, len(theta))
    numeric = _central_differences(law, getattr(law, method), theta, x)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


def test_weibull_jacobian_at_zero_and_subnormal_times():
    a, c = 1.3, 0.05
    t = np.array([0.0, 1e-310, 1e-200, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jac = iv.Weibull(a, c).jacobian(t)
    expected_dc = [0.0] + [-a * v ** c * math.log(v) for v in t[1:]]
    np.testing.assert_allclose(jac[:, 0], -t ** c, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(jac[:, 1], expected_dc, rtol=1e-14, atol=0.0)


def test_stretched_jacobian_row_does_not_depend_on_its_batch():
    # the rows of a grid over three quadrature blocks against the same rows asked for alone
    law = iv.StretchedSojourn(1.5, 0.25, 0.4)
    t = np.geomspace(1e-3, 1e3, 2 * _BLOCK + 9)
    whole = law.jacobian(t)
    pick = np.random.default_rng(1).choice(t.size, 17, replace=False)
    np.testing.assert_allclose(law.jacobian(t[pick]), whole[pick], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(law.jacobian(t[[_BLOCK]]), whole[[_BLOCK]], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("law, method, theta, x", [
    (iv.MFParams, "log_norm_moment", (1.85, -1.5, 0.9), ORDERS),
    (iv.MFParams, "log_norm_moment", (3.0, 0.4, 0.05), ORDERS),
    (iv.HMFParams, "log_norm_moment", (1.78, 0.1, 1.07, 0.2), ORDERS),
    (iv.HMFParams, "log_norm_moment", (2.21, -9.5, 11.7, 0.71), ORDERS),
    (iv.QExponential, "log_survival", (0.7, 1.4), TIMES),
    (iv.QExponential, "log_survival", (2.5, 1.05), TIMES),
    (iv.Weibull, "log_survival", (1.53, 0.459), TIMES),
    (iv.Weibull, "log_survival", (0.2, 1.7), TIMES),
    (iv.StretchedSojourn, "log_survival", (1.2, 0.3, 0.0), TIMES),
    (iv.StretchedSojourn, "log_survival", (1.5, 0.25, 0.4), TIMES),
    (iv.StretchedSojourn, "log_survival", (3.0, 0.8, -0.5), TIMES),
])
def test_linearize_equals_the_value_and_jacobian_methods_bit_for_bit(law, method, theta, x):
    model = law(*theta)
    values, jac = model.linearize(x)
    assert np.array_equal(values.view(np.int64), getattr(model, method)(x).view(np.int64))
    assert np.array_equal(jac.view(np.int64), model.jacobian(x).view(np.int64))
    if law is iv.StretchedSojourn:
        # ln Psi takes the steps of densities.sojourn on its own node set
        assert np.array_equal(values.view(np.int64), np.log(iv.sojourn(x, model.params)).view(np.int64))


def test_stretched_fit_takes_one_node_set_per_evaluation(monkeypatch):
    # the benchmark's 40-point survival fit: one quadrature call gives ln Psi and its Jacobian
    calls = []
    peak_nodes = core._peak_nodes

    def counting(*args):
        calls.append(args)
        return peak_nodes(*args)

    def forbidden(*args):
        raise AssertionError("the fit evaluated densities.sojourn")

    t = np.geomspace(0.05, 20.0, 40)
    psi = iv.sojourn(t, iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=1.0, alpha=1.5)))
    monkeypatch.setattr(core, "_peak_nodes", counting)
    monkeypatch.setattr(fitting, "_sojourn", forbidden)
    fit = iv.fit_sojourn(t, psi, iv.StretchedSojourn)
    assert fit.converged
    assert len(calls) == fit.nfev


def test_fit_flags_a_rank_deficient_jacobian():
    # six times within 5e-9 of each other: the t**c column is nearly the a column
    t = 1.0 + np.arange(6) * 1e-9
    fit = iv.fit_sojourn(t, np.exp(-0.7 * t ** 1.3), iv.Weibull)
    assert fit.jac_cond > 3.2e7
    assert fit.flags == ("jacobian_rank_deficient",)
    t = np.geomspace(0.1, 10.0, 20)
    assert iv.fit_sojourn(t, np.exp(-0.7 * t ** 1.3), iv.Weibull).flags == ()


def test_fit_flags_undefined_stderr_without_residual_dof():
    t = np.array([1.0, 2.0])
    fit = iv.fit_sojourn(t, np.array([0.5, 0.2]), iv.Weibull)
    assert fit.flags == ("stderr_undefined_zero_dof",)
    assert all(math.isnan(fit.stderr(name)) for name in ("a", "c"))


def test_fit_window_excludes_zero_order():
    # a curve whose q=0 point is pinned at zero must not distort the fit
    q = np.linspace(0.0, 20.0, 201)
    curve = iv.monofractal_curve(q, 3.0)
    full = iv.fit_monofractal(curve, (0.0, 20.0))
    assert full.estimate("ln_tau") == pytest.approx(3.0, rel=1e-12)


def test_fit_range_outside_grid_errors():
    q = np.linspace(0.0, 5.0, 51)
    curve = iv.monofractal_curve(q, 3.0)
    with pytest.raises(ValueError):
        iv.fit_monofractal(curve, (10.0, 20.0))


def test_model_objects_validate():
    with pytest.raises(ValueError):
        iv.QExponential(m=-1.0, q_ts=1.5)
    with pytest.raises(ValueError):
        iv.QExponential(m=1.0, q_ts=1.0)
    with pytest.raises(ValueError):
        iv.Weibull(a=0.0, c=1.0)
    q = iv.QExponential(m=0.7, q_ts=1.4)
    assert q.log_survival(np.array([0.0]))[0] == 0.0
    w = iv.Weibull(a=1.0, c=2.0)
    assert w.log_survival(np.array([2.0]))[0] == pytest.approx(-4.0)


# Estimates, stderrs and solver evaluations of every fit kind on one seeded
# series, recorded from the Levenberg-Marquardt solver, whose estimates pass
# the stationarity check below.  The absolute floor covers the exact-data
# survival fit, whose c0 and stderrs are rounding noise near zero.
PINNED_FITS = {
    "mono": ({"ln_tau": (3.339056494637933, 0.003940483111740152)}, None),
    "mf": ({"alpha": (1.6910812818702599, 0.02252447565347071),
            "c0": (0.04144195922023254, 0.008071349964526546),
            "b": (0.36695698894126183, 0.012078695949868861)}, 13),
    "hmf": ({"alpha": (1.5555335127689813, 0.009945890866499585),
             "c0": (0.0644608612340296, 0.006213884752261416),
             "b": (0.3658034153955674, 0.011793581630724897),
             "b1": (0.11162623320717503, 0.003427924329214288)}, 13),
    "weibull": ({"a": (1.6758913044084955, 0.13810622862477792),
                 "c": (0.3581596137457571, 0.01819608862888773)}, 24),
    "qexp": ({"m": (1.3240321400046096, 0.11212840886628661),
              "q_ts": (1.4530159220190173, 0.015352603013507111)}, 12),
    "stretched": ({"alpha": (2.000000000000001, 1.1858292605791307e-15),
                   "b": (0.2500000000000002, 4.562355998371664e-16),
                   "c0": (3.2791444662297346e-17, 1.684635752180394e-16)}, 10),
}


def _seeded_series(seed):
    """Moment curve and survival estimate of one 2*10^4-event stretched series."""
    params = iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=1.0, alpha=1.5))
    series = iv.generate_series(iv.SimConfig(params=params, n_events=20_000, seed=seed))
    curve = iv.empirical_qmoments(series, np.round(np.arange(201) * 0.1, 12))
    grid = np.geomspace(series.durations.min(), series.durations.max(), 50)
    psi = iv.empirical_sojourn(series, grid)
    keep = psi > 0
    return curve, grid[keep], psi[keep]


def test_fits_pinned_on_one_seeded_series():
    curve, t_emp, psi_emp = _seeded_series(7)
    exact = iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=1.0, alpha=2.0))
    t = np.geomspace(0.05, 20.0, 40)
    fits = {
        "mono": iv.fit_monofractal(curve, (10.0, 20.0)),
        "mf": iv.fit_mf(curve, (0.0, 3.5)),
        "hmf": iv.fit_hmf(curve, (0.0, 20.0)),
        "weibull": iv.fit_sojourn(t_emp, psi_emp, iv.Weibull),
        "qexp": iv.fit_sojourn(t_emp, psi_emp, iv.QExponential),
        "stretched": iv.fit_sojourn(t, iv.sojourn(t, exact), iv.StretchedSojourn),
    }
    for kind, fit in fits.items():
        pinned, nfev = PINNED_FITS[kind]
        assert fit.converged and not fit.flags, kind
        assert fit.nfev == nfev, kind
        assert list(fit.params) == list(pinned), kind
        for name, (est, se) in pinned.items():
            assert fit.estimate(name) == pytest.approx(est, rel=1e-9, abs=1e-12), (kind, name)
            assert fit.stderr(name) == pytest.approx(se, rel=1e-9, abs=1e-12), (kind, name)


def test_fit_flags_estimates_that_end_on_their_bounds():
    # seed 7's survival drives the stretched law onto alpha's lower bound and
    # b to 8e-8, within 1e-6 of its bound 1e-9
    _curve, t, psi = _seeded_series(7)
    fit = iv.fit_sojourn(t, psi, iv.StretchedSojourn)
    assert fit.flags == ("alpha_at_lower_boundary", "b_at_lower_boundary")
    assert fit.estimate("alpha") == iv.StretchedSojourn.bounds[0][0]
    assert 0.0 < fit.estimate("b") - iv.StretchedSojourn.bounds[0][1] <= 1e-6


def test_qexp_start_skips_tied_survival_points():
    # seed 8's empirical survival ties over its first two grid points
    _curve, t, psi = _seeded_series(8)
    y = np.log(psi)
    assert y[1] == y[0]
    m0, _q0 = iv.QExponential.initial(t, y)
    m = iv.fit_sojourn(t, psi, iv.QExponential).estimate("m")
    assert m / 10.0 < m0 < 10.0 * m


# A returned estimate is a least-squares solution when a few undamped
# Gauss-Newton steps over its free parameters (those not held at a bound) move
# it by no more than this, relative to max(|theta|, 1e-3).
STATIONARY_REL = 1e-7


def _gauss_newton_move(law, values, x, y, w, fit, steps=3):
    theta = np.array([fit.estimate(f.name) for f in fields(law)])
    lo, hi = (np.asarray(b, dtype=float) for b in law.bounds)
    free = (theta > lo) & (theta < hi)
    sw = np.sqrt(w)
    moved = theta.copy()
    for _ in range(steps):
        r = sw * (values(law(*moved), x) - y)
        jac = sw[:, None] * law(*moved).jacobian(x)
        step, *_ = np.linalg.lstsq(jac[:, free], -r, rcond=None)
        moved[free] += step
    return float(np.max(np.abs(moved - theta) / np.maximum(np.abs(theta), 1e-3)))


def _stationarity_moves(seed, stretched=False):
    curve, t, psi = _seeded_series(seed)
    y = np.log(psi)
    problems = {
        "mf": (iv.MFParams, iv.MFParams.log_norm_moment,
               *fitting._window_points(curve, (0.0, 3.5), 6)[:3], iv.fit_mf(curve, (0.0, 3.5))),
        "hmf": (iv.HMFParams, iv.HMFParams.log_norm_moment,
                *fitting._window_points(curve, (0.0, 20.0), 8)[:3], iv.fit_hmf(curve, (0.0, 20.0))),
        "weibull": (iv.Weibull, iv.Weibull.log_survival, t, y, np.ones_like(t),
                    iv.fit_sojourn(t, psi, iv.Weibull)),
        "qexp": (iv.QExponential, iv.QExponential.log_survival, t, y, np.ones_like(t),
                 iv.fit_sojourn(t, psi, iv.QExponential)),
    }
    if stretched:
        problems["stretched"] = (iv.StretchedSojourn, iv.StretchedSojourn.log_survival, t, y, np.ones_like(t),
                                 iv.fit_sojourn(t, psi, iv.StretchedSojourn))
    return {kind: _gauss_newton_move(*problem) for kind, problem in problems.items()}


def test_fits_stationary_on_one_seeded_series():
    moves = _stationarity_moves(7, stretched=True)
    assert all(move <= STATIONARY_REL for move in moves.values()), moves


def test_fits_stationary_on_fifty_seeded_series():
    # without the stretched fit: its numeric survival costs 0.3-2 s a fit,
    # about a minute over fifty seeds, so the one-seed test covers it alone
    worst = {}
    for seed in range(7, 57):
        for kind, move in _stationarity_moves(seed).items():
            worst[kind] = max(worst.get(kind, 0.0), move)
    assert all(move <= STATIONARY_REL for move in worst.values()), worst


# ---------------------------------------------------------------------------
# The solver itself
# ---------------------------------------------------------------------------


def test_solver_ends_on_the_bound_when_the_minimum_lies_outside():
    def residual(x):
        return np.array([x[0] - 3.0, 2.0 * (x[1] + 1.0)])

    res = fitting.least_squares(residual, np.array([0.5, 0.5]), jac=lambda x: np.diag([1.0, 2.0]),
                                bounds=([0.0, 0.0], [1.0, 1.0]))
    assert res.status > 0
    assert list(res.x) == [1.0, 0.0]
    assert res.cost == pytest.approx(0.5 * (4.0 + 4.0), rel=1e-12)


def test_fit_out_of_evaluations_is_not_converged(monkeypatch):
    solver = fitting.least_squares

    def two_evaluations(*args, **kwargs):
        return solver(*args, **{**kwargs, "max_nfev": 2})

    monkeypatch.setattr(fitting, "least_squares", two_evaluations)
    curve, t, psi = _seeded_series(7)
    for fit in (iv.fit_hmf(curve, (0.0, 20.0)), iv.fit_sojourn(t, psi, iv.Weibull)):
        assert fit.status == 0
        assert fit.converged is False
        assert fit.nfev <= 2


def test_solver_rejects_a_non_finite_trial_step():
    # the first steps from x = 20 land at x < 0, where ln x is NaN
    seen = []

    def residual(x):
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.log(x)
        seen.append(bool(np.all(np.isfinite(r))))
        return r

    res = fitting.least_squares(residual, np.array([20.0]), jac=lambda x: np.array([[1.0 / x[0]]]),
                                bounds=([-np.inf], [np.inf]))
    assert not all(seen)
    assert res.status > 0
    assert np.all(np.isfinite(residual(res.x)))
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_solver_holds_one_parameter_on_its_bound_while_the_other_converges():
    def residual(x):
        return np.array([x[0] - 3.0, x[1] - 0.5])

    res = fitting.least_squares(residual, np.array([0.2, 0.2]), jac=lambda x: np.eye(2),
                                bounds=([0.0, 0.0], [1.0, 1.0]))
    assert res.status == 3
    assert res.x[0] == 1.0
    assert res.x[1] == pytest.approx(0.5, abs=1e-12)


def test_solver_rejects_a_trial_whose_sum_of_squares_overflows():
    # tanh(x - 1) plus a residual 1e200 (x - 5) past x = 5: from x = -3 the first
    # trials land past 5, where the residuals are finite (up to x = 5 + 1.7e108)
    # but their sum of squares overflows
    calls = []

    def residual(x):
        calls.append(("fun", x[0]))
        return np.array([math.tanh(x[0] - 1.0), 1e200 * max(x[0] - 5.0, 0.0)])

    def jac(x):
        calls.append(("jac", x[0]))
        return np.array([[1.0 / math.cosh(x[0] - 1.0) ** 2], [1e200 if x[0] > 5.0 else 0.0]])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fitting.least_squares(residual, np.array([-3.0]), jac=jac, bounds=([-np.inf], [np.inf]))
    overflowing = [x for kind, x in calls if kind == "fun" and x > 5.0]
    assert overflowing and max(overflowing) < 1e100
    assert not any(kind == "jac" and x > 5.0 for kind, x in calls)
    assert res.status == 3
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_solver_asks_for_the_jacobian_at_the_array_it_last_evaluated(monkeypatch):
    # fitting._nls reuses the law its residual built when jac gets that same array
    solver, calls = fitting.least_squares, []

    def recording(fun, x0, jac, bounds, **kwargs):
        def fun_seen(x):
            calls.append(("fun", x))
            return fun(x)

        def jac_seen(x):
            calls.append(("jac", x))
            return jac(x)

        return solver(fun_seen, x0, jac_seen, bounds, **kwargs)

    monkeypatch.setattr(fitting, "least_squares", recording)
    curve, t, psi = _seeded_series(7)
    nfev = iv.fit_mf(curve, (0.0, 3.5)).nfev + iv.fit_sojourn(t, psi, iv.Weibull).nfev
    # rejected trials: from x = 20 the first steps land at x < 0, where ln x is NaN
    with np.errstate(invalid="ignore", divide="ignore"):
        nfev += fitting.least_squares(np.log, np.array([20.0]), lambda x: np.array([[1.0 / x[0]]]),
                                      ([-np.inf], [np.inf])).nfev
    jac_at = [i for i, (kind, _x) in enumerate(calls) if kind == "jac"]
    assert len(calls) - len(jac_at) == nfev > len(jac_at)
    assert all(calls[i - 1][0] == "fun" and calls[i][1] is calls[i - 1][1] for i in jac_at)
