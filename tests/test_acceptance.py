"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints its own pass/fail line via plain asserts under ``pytest -v``.
Tolerances are part of the contract; do not loosen them to make a test pass.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

import interevent as iv

# Fixture parameter sets for the moment-law roundtrips (six market rows each).
HMF_ROWS = {
    "dax": (1.91, -3.0, 2.5, 0.33),
    "tef": (1.78, 0.1, 1.07, 0.20),
    "dji": (1.60, 0.18, 0.29, 0.091),
    "wig20": (1.96, 0.5, 3.3, 0.50),
    "usdm": (1.69, 2.97, 0.26, 0.115),
    "eurus": (2.21, -9.5, 11.7, 0.71),
}
MF_ROWS = {
    "dax": (1.85, -1.5, 0.9),
    "tef": (1.47, 1.45, 0.14),
    "dji": (1.47, 0.34, 0.3),
    "wig20": (1.65, 1.67, 1.19),
    "usdm": (1.89, 2.82, 0.32),
    "eurus": (2.1, -4.6, 3.4),
}


def _random_params(rng, family):
    tau0 = float(rng.uniform(0.2, 3.0))
    beta = float(rng.uniform(0.3, 1.5))
    if family == "delta":
        w = iv.Delta(mu=float(rng.uniform(-1.0, 1.0)))
    elif family == "uniform":
        w = iv.Uniform(half_width=float(rng.uniform(0.1, 2.5)))
    elif family == "laplace":
        # spans both phases: sigma*beta in (0.1, 2)
        w = iv.Laplace(sigma=float(rng.uniform(0.1, 2.0)) / beta)
    else:
        w = iv.StretchedExp(
            mu=float(rng.uniform(-0.5, 0.5)),
            sigma=float(rng.uniform(0.3, 1.5)),
            alpha=float(rng.uniform(1.1, 2.5)),
        )
    return iv.ModelParams(weight=w, tau0=tau0, beta=beta)


def test_density_normalization_all_families():
    rng = np.random.default_rng(2024)
    start = time.time()
    for family in ("delta", "uniform", "laplace", "stretched"):
        for _ in range(10):
            p = _random_params(rng, family)
            total, _ = quad(lambda t: iv.ptd(t, p), 0.0, np.inf, limit=400)
            assert abs(total - 1.0) < 1e-6, f"{family}: integral {total}"
    assert time.time() - start < 10.0


def _mixture_ptd(t, p):
    """Direct quadrature of the defining mixture, independent of closed forms."""
    w, tau0, beta = p.weight, p.tau0, p.beta
    z = t / tau0

    if isinstance(w, iv.Uniform):
        f = lambda e: np.exp(-beta * e) / tau0 * np.exp(-z * np.exp(-beta * e)) / (2 * w.half_width)
        val, _ = quad(f, -w.half_width, w.half_width, limit=500, epsabs=1e-300, epsrel=1e-12)
        return val

    f = lambda e: (
        np.exp(-beta * e) / tau0 * np.exp(-z * np.exp(-beta * e))
        * np.exp(-abs(e) / w.sigma) / (2 * w.sigma)
    )
    peak = math.log(max(z, 1e-300)) / beta
    lo = -60 * w.sigma + min(0.0, peak)
    hi = 60 * w.sigma + max(0.0, peak)
    val, _ = quad(f, lo, hi, points=[0.0, peak], limit=500, epsabs=1e-300, epsrel=1e-12)
    return val


def test_closed_form_matches_mixture_quadrature():
    t = np.geomspace(1e-2, 1e3, 20)
    for sb in (0.5, 2.0):
        p = iv.ModelParams(weight=iv.Laplace(sigma=sb), tau0=1.0, beta=1.0)
        closed = iv.ptd(t, p)
        oracle = np.array([_mixture_ptd(ti, p) for ti in t])
        rel = np.abs(closed / oracle - 1.0)
        assert rel.max() < 1e-8, f"laplace sb={sb}: {rel.max()}"
    for hw in (0.5, 2.0):
        p = iv.ModelParams(weight=iv.Uniform(half_width=hw), tau0=1.0, beta=1.0)
        closed = iv.ptd(t, p)
        oracle = np.array([_mixture_ptd(ti, p) for ti in t])
        rel = np.abs(closed / oracle - 1.0)
        assert rel.max() < 1e-8, f"uniform hw={hw}: {rel.max()}"


def test_power_law_tail_slope():
    p = iv.ModelParams(weight=iv.Laplace(sigma=2.0), tau0=1.0, beta=1.0)
    t = np.geomspace(1e2, 1e4, 40)
    slope = np.polyfit(np.log(t), np.log(iv.ptd(t, p)), 1)[0]
    assert abs(slope + 1.5) / 1.5 < 0.02, f"slope {slope}"


def test_gaussian_weight_exactness():
    q = np.array([0.3, 0.5, 1.0, 2.0, 3.0])
    for sb in (0.3, 0.7, 1.0, 1.9):
        sp = iv.saddlepoint_iq(q, 2.0, sb)
        exact = math.sqrt(math.pi) * np.exp((q * sb) ** 2 / 4.0)
        assert np.all(np.abs(sp.value / exact - 1.0) < 1e-12), sb

        p = iv.ModelParams(
            weight=iv.StretchedExp(mu=0.25, sigma=sb, alpha=2.0), tau0=1.3, beta=1.0
        )
        closed = iv.moment(q, p)
        via_mf = iv.moment_mf(
            q, iv.MFParams(alpha=2.0, c0=math.log(1.3) + 0.25, b=sb * sb / 4.0)
        )
        assert np.all(np.abs(via_mf / closed - 1.0) < 1e-12), sb


def test_series_agrees_with_quadrature():
    alpha = 1.5
    orders = np.array([0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    for sb in (0.1, 0.3, 0.5):
        q = orders[orders * sb <= 1.5]
        p = iv.ModelParams(
            weight=iv.StretchedExp(mu=0.0, sigma=sb, alpha=alpha), tau0=1.0, beta=1.0
        )
        ser = iv.moment_stretched_series(q, p)
        via_quad = (
            np.array([math.gamma(1.0 + x) for x in q.tolist()])
            * iv.iq_quadrature(q, alpha, sb)
            / (2.0 * math.gamma(1.0 + 1.0 / alpha))
        )
        assert ser.converged.all()
        assert np.all(np.abs(ser.value / via_quad - 1.0) < 1e-8), sb


def test_saddlepoint_error_shrinks_with_lambda():
    alpha = 1.5
    errors = []
    for lam in (5.0, 10.0, 27.0, 100.0):
        sb = lam ** ((alpha - 1.0) / alpha)
        sp = iv.saddlepoint_iq(2.0, alpha, sb)
        exact = iv.iq_quadrature(2.0, alpha, sb)
        errors.append(abs(sp.value / exact - 1.0))
    assert all(errors[i + 1] <= errors[i] for i in range(3)), errors


def test_saddlepoint_accuracy_five_percent():
    # Leading order alone misses by ~5.19% at q = 0.5 (lam*(q/alpha)^3 = 1);
    # with the next-order Laplace factor the worst order is ~0.66%.
    alpha = 1.5
    qs = np.arange(0.5, 5.0001, 0.5)
    errors = np.abs(iv.saddlepoint_iq(qs, alpha, 3.0).value / iv.iq_quadrature(qs, alpha, 3.0) - 1.0)
    report = " ".join(f"q={q:.1f}:{100 * err:.3f}%" for q, err in zip(qs, errors))
    assert errors.max() <= 0.05, "relative errors " + report


def test_simulation_recovers_gaussian_moments():
    start = time.time()
    params = iv.ModelParams(
        weight=iv.StretchedExp(mu=0.0, sigma=1.0, alpha=2.0), tau0=1.0, beta=1.0
    )
    series = iv.generate_series(iv.SimConfig(params=params, n_events=10**6, seed=12345))
    qs = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    curve = iv.empirical_qmoments(series, np.concatenate([[0.0], qs]))
    exact = iv.log_norm_moment(qs, params)
    rel = np.abs(np.expm1(curve.log_norm_moment[1:] - exact))
    assert rel.max() < 0.03, rel

    grid = np.round(np.arange(0, 36) * 0.1, 12)
    fit = iv.fit_mf(iv.empirical_qmoments(series, grid), (0.0, 3.5))
    assert abs(fit.params["alpha"][0] - 2.0) < 0.1
    assert time.time() - start < 60.0


def test_hmf_roundtrip_all_rows():
    q = np.round(np.arange(1, 201) * 0.1, 12)
    for name, (alpha, c0, b, b1) in HMF_ROWS.items():
        curve = iv.mf_curve(q, iv.HMFParams(alpha, c0, b, b1))
        fit = iv.fit_hmf(curve, (0.1, 20.0))
        assert fit.converged, name
        for key, truth in zip(("alpha", "c0", "b", "b1"), (alpha, c0, b, b1)):
            rel = abs(fit.params[key][0] / truth - 1.0)
            assert rel < 0.01, f"{name}.{key}: {rel}"


def test_collapse_exactness():
    q = np.round(np.arange(0, 201) * 0.1, 12)
    pos = q > 0
    for alpha, c0, b, b1 in HMF_ROWS.values():
        p = iv.HMFParams(alpha, c0, b, b1)
        fh = iv.hmf_collapse(iv.mf_curve(q, p), p)
        x = b1 * np.abs(q) ** (1.0 / (alpha - 1.0))
        assert np.abs(fh[pos] - (-np.expm1(-x[pos]))).max() < 1e-6
    for alpha, c0, b in MF_ROWS.values():
        p = iv.MFParams(alpha, c0, b)
        fm = iv.mf_collapse(iv.mf_curve(q, p), p)
        x = b * np.abs(q) ** (1.0 / (alpha - 1.0))
        assert np.abs(fm[pos] - x[pos]).max() < 1e-10
    mono = iv.monofractal_curve(q, 1.7)
    ff = iv.mono_collapse(mono, float(np.exp(1.7)))
    assert np.abs(ff[pos] - 1.0).max() < 1e-12


def test_low_temperature_phase_mean_divergence():
    params = iv.ModelParams(weight=iv.Laplace(sigma=1.2), tau0=1.0, beta=1.0)
    with pytest.raises(iv.DivergentMomentError):
        iv.moment(1.0, params)

    monotone = 0
    for seed in range(10):
        s = iv.generate_series(iv.SimConfig(params=params, n_events=10**7, seed=seed))
        c = np.cumsum(s.durations)
        means = (c[10**3 - 1] / 10**3, c[10**5 - 1] / 10**5, c[10**7 - 1] / 10**7)
        monotone += means[0] < means[1] < means[2]
    assert monotone >= 8, f"{monotone}/10 increasing"


def test_sojourn_numeric_vs_monte_carlo():
    alpha, b, c0 = 1.6, 0.12, 1.7
    sigma_beta = alpha * (b / (alpha - 1.0)) ** ((alpha - 1.0) / alpha)
    params = iv.ModelParams(
        weight=iv.StretchedExp(mu=0.0, sigma=sigma_beta, alpha=alpha),
        tau0=float(np.exp(c0)),
        beta=1.0,
    )
    assert iv.sojourn(0.0, params) == 1.0
    grid = np.geomspace(0.05, 500.0, 30)
    psi = iv.sojourn(grid, params)
    assert np.all(np.diff(psi) <= 0.0)

    n = 10**7
    series = iv.generate_series(iv.SimConfig(params=params, n_events=n, seed=7))
    emp = iv.empirical_sojourn(series, grid)
    se = np.sqrt(np.maximum(psi * (1.0 - psi), 1e-300) / n)
    z = np.abs(emp - psi) / se
    assert z.max() < 3.0, z.max()

    # noiseless survival-model roundtrip
    t = np.geomspace(0.01, 50.0, 80)
    target = np.exp(iv.Weibull(1.53, 0.459).log_survival(t))
    fit = iv.fit_sojourn(t, target, iv.Weibull)
    assert abs(fit.params["a"][0] - 1.53) < 1e-6
    assert abs(fit.params["c"][0] - 0.459) < 1e-6


def test_cli_end_to_end_poisson(tmp_path):
    tau0 = float(np.exp(2.0))
    ev = tmp_path / "ev.csv"
    mom = tmp_path / "mom.csv"
    out = tmp_path / "fit.json"

    # absolute src first, so the child finds the package without an install
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "interevent", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=pythonpath),
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    cli(
        "simulate", "--weight", "delta", "--mu", "0", "--tau0", repr(tau0),
        "--beta", "1", "--n", "1000000", "--seed", "99", "--out", str(ev),
    )
    cli(
        "estimate", "--input", str(ev), "--qmin", "0", "--qmax", "5",
        "--qstep", "0.1", "--out-moments", str(mom), "--sojourn-points", "0",
    )
    cli(
        "fit", "--kind", "mono", "--input", str(mom),
        "--qmin", "1", "--qmax", "5", "--out", str(out),
    )
    doc = json.loads(out.read_text())
    estimate = doc["params"]["ln_tau"]["estimate"]
    assert abs(estimate - 2.0) / 2.0 < 0.02, estimate
    assert doc["converged"] is True
