import math

import numpy as np
import pytest

import interevent as iv
from interevent.fitting import qexp_log_survival, weibull_log_survival


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
    fit = iv.fit_monofractal(iv.hmf_curve(q, p), (10.0, 20.0))
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
    weibull = iv.fit_sojourn(t, np.exp(weibull_log_survival(t, 1.53, 0.459)), iv.Weibull)
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
    clean = iv.hmf_curve(q, truth)
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
    near_exp = qexp_log_survival(t, 0.7, 1.0 + 1e-9)
    assert np.allclose(near_exp, -0.7 * t, rtol=1e-6)
    heavy = qexp_log_survival(t, 0.7, 1.8)
    assert np.all(heavy >= near_exp - 1e-12)


def test_qexp_fit_roundtrip():
    t = np.geomspace(0.01, 80.0, 60)
    psi = np.exp(qexp_log_survival(t, 0.7, 1.4))
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
    psi = np.exp(weibull_log_survival(t, 1.53, 0.459))
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
