"""Parameter estimation on q-moment curves and survival functions.

Moment-curve fits minimize residuals of the normalized log curve
``y(q) = ln(<t^q>/Gamma(1+q))`` against the candidate law, weighted by
inverse squared standard errors when the curve carries them.  Survival fits
minimize residuals of ``ln Psi(t)``.  The optimizer is a damped Gauss-Newton
method with a trust-region safeguard (scipy's TRF), analytic Jacobians where
the model is closed-form, stopping at relative step 1e-10 or 500 evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy

from .core import FitResult, ModelDomainError, ModelParams, QMomentCurve, StretchedExp
from .densities import sojourn as _sojourn
from .moments import HMFParams, MFParams

__all__ = [
    "QExponential",
    "Weibull",
    "StretchedSojourn",
    "qexp_log_survival",
    "weibull_log_survival",
    "fit_monofractal",
    "fit_mf",
    "fit_hmf",
    "fit_sojourn",
]


# ---------------------------------------------------------------------------
# Survival-model containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QExponential:
    """Survival ``[1 + m (q_ts - 1) t]**(-1/(q_ts - 1))`` with ``q_ts > 1``."""

    m: float
    q_ts: float

    def __post_init__(self):
        if not self.m > 0:
            raise ModelDomainError("m must be positive")
        if not self.q_ts > 1:
            raise ModelDomainError("q_ts must exceed 1")

    def log_survival(self, t):
        return qexp_log_survival(t, self.m, self.q_ts)


@dataclass(frozen=True)
class Weibull:
    """Survival ``exp(-a t**c)``."""

    a: float
    c: float

    def __post_init__(self):
        if not (self.a > 0 and self.c > 0):
            raise ModelDomainError("a and c must be positive")

    def log_survival(self, t):
        return weibull_log_survival(t, self.a, self.c)


@dataclass(frozen=True)
class StretchedSojourn:
    """The mixed model's own (numerically integrated) survival function."""

    params: ModelParams

    def __post_init__(self):
        if not isinstance(self.params.weight, StretchedExp):
            raise ModelDomainError("StretchedSojourn needs a StretchedExp weight")

    def log_survival(self, t):
        return np.log(_sojourn(t, self.params))


def qexp_log_survival(t, m: float, q_ts: float):
    k = q_ts - 1.0
    return -np.log1p(m * k * np.asarray(t, dtype=float)) / k


def weibull_log_survival(t, a: float, c: float):
    return -a * np.asarray(t, dtype=float) ** c


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _window_points(curve: QMomentCurve, q_range, min_points: int):
    lo, hi = float(q_range[0]), float(q_range[1])
    if not lo < hi:
        raise ValueError("q_range must be an increasing pair")
    mask = curve.window(lo, hi) & (curve.q_grid != 0.0) & np.isfinite(curve.log_norm_moment)
    if int(mask.sum()) < min_points:
        raise ValueError(
            f"need at least {min_points} usable grid points in [{lo}, {hi}], "
            f"found {int(mask.sum())}"
        )
    q = curve.q_grid[mask]
    y = curve.log_norm_moment[mask]
    if curve.stderr is not None:
        se = np.maximum(curve.stderr[mask], 1e-15)
        w = 1.0 / se ** 2
        weighted = True
    else:
        w = np.ones_like(q)
        weighted = False
    domain = (max(lo, float(curve.q_grid[0])), min(hi, float(curve.q_grid[-1])))
    return q, y, w, weighted, domain


def _covariance_stderr(jac: np.ndarray, rss_weighted: float, n_obs: int, weighted: bool):
    jtj = jac.T @ jac
    cov = np.linalg.pinv(jtj)
    dof = n_obs - jac.shape[1]
    if not weighted:
        cov = cov * (rss_weighted / dof if dof > 0 else np.nan)
    with np.errstate(invalid="ignore"):
        return np.sqrt(np.diag(cov))


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on the first fit.

    Every fit calls the optimizer through this module attribute, so a tracer
    can wrap it to count evaluations per fit.
    """
    return scipy.optimize.least_squares(*args, **kwargs)


def _nls(residual, jac, theta0, bounds, names, domain, weighted, n_obs):
    res = least_squares(
        residual,
        np.clip(theta0, bounds[0], bounds[1]),
        jac=jac,
        bounds=bounds,
        method="trf",
        xtol=1e-10,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=500,
    )
    converged = res.status > 0
    stderr = _covariance_stderr(res.jac, 2.0 * res.cost, n_obs, weighted)
    params = {name: (float(est), float(se)) for name, est, se in zip(names, res.x, stderr)}
    return FitResult(
        params=params,
        q_domain=domain,
        residual_norm=float(2.0 * res.cost),
        converged=converged,
        nfev=int(res.nfev),
        status=int(res.status),
        jac_cond=float(np.linalg.cond(res.jac)),
    )


def _power_law_init(q: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Initial (alpha, c0, b): first pass with alpha = 2, then alpha from the
    log-log slope of curve(q)/q minus the first-pass intercept at small q."""
    sw = np.sqrt(w)
    basis = np.column_stack([q, q * np.abs(q)])
    coef, *_ = np.linalg.lstsq(basis * sw[:, None], y * sw, rcond=None)
    c0_first, b_first = float(coef[0]), float(coef[1])

    g = y / q
    r = g - c0_first
    order = np.argsort(q)
    small = order[: max(3, len(q) // 2)]
    valid = small[(r[small] > 0) & (q[small] > 0)]
    alpha0, b0 = 2.0, max(b_first, 1e-3)
    if valid.size >= 2:
        lx, ly = np.log(q[valid]), np.log(r[valid])
        slope, intercept = np.polyfit(lx, ly, 1)
        slope = float(np.clip(slope, 0.12, 25.0))
        alpha0 = float(np.clip(1.0 + 1.0 / slope, 1.05, 9.0))
        b0 = float(np.clip(math.exp(intercept), 1e-6, 1e6))
    if q.min() <= 1.0 <= q.max():
        c00 = float(np.interp(1.0, q, y)) - b0
    else:
        c00 = c0_first
    return alpha0, c00, b0


# ---------------------------------------------------------------------------
# Moment-curve fits
# ---------------------------------------------------------------------------


def fit_monofractal(curve: QMomentCurve, q_range=(10.0, 20.0)) -> FitResult:
    """Through-origin regression ``ln tau = sum(q y) / sum(q^2)`` on the window."""
    q, y, _w, _weighted, domain = _window_points(curve, q_range, min_points=2)
    sq2 = float(np.dot(q, q))
    ln_tau = float(np.dot(q, y)) / sq2
    resid = y - q * ln_tau
    rss = float(np.dot(resid, resid))
    dof = len(q) - 1
    se = math.sqrt(rss / dof / sq2) if dof > 0 else math.nan
    return FitResult(
        params={"ln_tau": (ln_tau, se)},
        q_domain=domain,
        residual_norm=rss,
        converged=True,
    )


def fit_mf(curve: QMomentCurve, q_range=(0.0, 3.5)) -> FitResult:
    """Weighted fit of ``y = q c0 + b |q|**(alpha/(alpha-1))``."""
    q, y, w, weighted, domain = _window_points(curve, q_range, min_points=6)
    sw = np.sqrt(w)
    aq = np.abs(q)

    def model_and_grad(theta):
        alpha, c0, b = theta
        gamma = alpha / (alpha - 1.0)
        p = aq ** gamma
        model = q * c0 + b * p
        dalpha = b * p * np.log(aq) * (-1.0 / (alpha - 1.0) ** 2)
        return model, np.column_stack([dalpha, q, p])

    def residual(theta):
        model, _ = model_and_grad(theta)
        return sw * (model - y)

    def jac(theta):
        _, grad = model_and_grad(theta)
        return sw[:, None] * grad

    theta0 = _power_law_init(q, y, w)
    bounds = (np.array([1.000001, -np.inf, 1e-12]), np.array([50.0, np.inf, np.inf]))
    return _nls(residual, jac, theta0, bounds, ("alpha", "c0", "b"), domain, weighted, len(q))


def fit_hmf(curve: QMomentCurve, q_range=(0.0, 20.0)) -> FitResult:
    """Weighted fit of ``y = q c0 + (b/b1)(1 - exp(-b1 |q|**(1/(alpha-1)))) q``."""
    q, y, w, weighted, domain = _window_points(curve, q_range, min_points=8)
    sw = np.sqrt(w)
    aq = np.abs(q)

    # a purely linear curve has b = 0 and leaves (alpha, b1) meaningless
    lin = float(np.dot(w * q, y) / np.dot(w * q, q))
    lin_resid = y - q * lin
    scale = max(float(np.max(np.abs(y))), 1e-300)
    if float(np.max(np.abs(lin_resid))) < 1e-12 * scale:
        raise ValueError(
            "curve is linear in q to working precision; the saturating component "
            "has b = 0 and (alpha, b1) are unidentifiable"
        )

    def model_and_grad(theta):
        alpha, c0, b, b1 = theta
        s = aq ** (1.0 / (alpha - 1.0))
        e = np.exp(-b1 * s)
        one_minus_e = -np.expm1(-b1 * s)
        phi = one_minus_e * aq / b1
        model = q * c0 + b * phi
        ds_dalpha = s * np.log(aq) * (-1.0 / (alpha - 1.0) ** 2)
        dalpha = b * e * aq * ds_dalpha
        db1 = b * aq * (e * s * b1 - one_minus_e) / b1 ** 2
        return model, np.column_stack([dalpha, q, phi, db1])

    def residual(theta):
        model, _ = model_and_grad(theta)
        return sw * (model - y)

    def jac(theta):
        _, grad = model_and_grad(theta)
        return sw[:, None] * grad

    alpha0, c00, b_over_b1_0 = _power_law_init(q, y, w)
    b1_0 = 0.2
    # refine (c0, b) linearly with the shape (alpha0, b1_0) frozen
    s0 = aq ** (1.0 / (alpha0 - 1.0))
    phi0 = -np.expm1(-b1_0 * s0) * aq / b1_0
    basis = np.column_stack([q, phi0]) * sw[:, None]
    coef, *_ = np.linalg.lstsq(basis, y * sw, rcond=None)
    c00, b0 = float(coef[0]), float(max(coef[1], 1e-3))
    theta0 = (alpha0, c00, b0, b1_0)
    bounds = (
        np.array([1.000001, -np.inf, 1e-12, 1e-12]),
        np.array([50.0, np.inf, np.inf, np.inf]),
    )
    return _nls(
        residual, jac, theta0, bounds, ("alpha", "c0", "b", "b1"), domain, weighted, len(q)
    )


# ---------------------------------------------------------------------------
# Survival-function fits
# ---------------------------------------------------------------------------


def fit_sojourn(t_grid, psi_values, model_class) -> FitResult:
    """Least squares on ``ln Psi`` for one of the survival model classes.

    ``model_class`` is :class:`QExponential`, :class:`Weibull` or
    :class:`StretchedSojourn`.  The returned ``q_domain`` holds the fitted
    t-range.
    """
    t = np.asarray(t_grid, dtype=float)
    psi = np.asarray(psi_values, dtype=float)
    if t.ndim != 1 or psi.shape != t.shape:
        raise ValueError("t_grid and psi_values must be 1-d of equal length")
    if np.any(np.diff(t) <= 0) or np.any(t < 0):
        raise ValueError("t_grid must be nonnegative and strictly increasing")
    if np.any(psi <= 0) or np.any(psi > 1):
        raise ValueError("psi_values must lie in (0, 1]")
    if np.any(np.diff(psi) > 0):
        raise ValueError("psi_values must be nonincreasing")
    y = np.log(psi)
    domain = (float(t[0]), float(t[-1]))

    if model_class is QExponential:
        n_par = 2
        if len(t) < n_par:
            raise ValueError("fewer points than parameters")

        def residual(theta):
            m, q_ts = theta
            return qexp_log_survival(t, m, q_ts) - y

        def jac(theta):
            m, q_ts = theta
            k = q_ts - 1.0
            u = m * k * t
            dm = -t / (1.0 + u)
            dq = (np.log1p(u) - u / (1.0 + u)) / k ** 2
            return np.column_stack([dm, dq])

        pos = np.flatnonzero(t > t[0])
        slope0 = -(y[pos[0]] - y[0]) / (t[pos[0]] - t[0]) if pos.size else 1.0
        theta0 = (max(slope0, 1e-6), 1.5)
        bounds = (np.array([1e-12, 1.0 + 1e-9]), np.array([np.inf, 100.0]))
        result = _nls(
            residual, jac, theta0, bounds, ("m", "q_ts"), domain, False, len(t)
        )
        if result.params["q_ts"][0] <= 1.0 + 1e-6:
            result = replace(result, flags=result.flags + ("q_ts_at_lower_boundary",))
        return result

    if model_class is Weibull:
        n_par = 2
        if len(t) < n_par:
            raise ValueError("fewer points than parameters")

        def residual(theta):
            a, c = theta
            return weibull_log_survival(t, a, c) - y

        def jac(theta):
            a, c = theta
            tc = t ** c
            with np.errstate(divide="ignore", invalid="ignore"):
                dlog = np.where(t > 0, np.log(np.maximum(t, 1e-300)), 0.0)
            return np.column_stack([-tc, -a * tc * dlog])

        init_mask = (y < 0) & (t > 0)
        if int(init_mask.sum()) >= 2:
            slope, intercept = np.polyfit(np.log(t[init_mask]), np.log(-y[init_mask]), 1)
            theta0 = (
                float(np.clip(math.exp(intercept), 1e-10, 1e10)),
                float(np.clip(slope, 1e-3, 50.0)),
            )
        else:
            theta0 = (1.0, 1.0)
        bounds = (np.array([1e-12, 1e-12]), np.array([np.inf, np.inf]))
        return _nls(residual, jac, theta0, bounds, ("a", "c"), domain, False, len(t))

    if model_class is StretchedSojourn:
        n_par = 3
        if len(t) < n_par:
            raise ValueError("fewer points than parameters")
        if np.any(t <= 0):
            raise ValueError("the numeric survival fit needs t > 0")

        def residual(theta):
            alpha, b, c0 = theta
            bs = alpha * (b / (alpha - 1.0)) ** ((alpha - 1.0) / alpha)
            params = ModelParams(
                weight=StretchedExp(mu=0.0, sigma=bs, alpha=alpha),
                tau0=math.exp(c0),
                beta=1.0,
            )
            return np.log(_sojourn(t, params)) - y

        # scale guess: the time where the data crosses 1/e
        c0_guess = float(np.log(t[int(np.argmin(np.abs(psi - math.exp(-1.0))))]))
        theta0 = (1.8, 0.3, c0_guess)
        bounds = (np.array([1.05, 1e-9, -np.inf]), np.array([6.0, 1e3, np.inf]))
        return _nls(
            residual, "2-point", theta0, bounds, ("alpha", "b", "c0"), domain, False, len(t)
        )

    raise TypeError(f"unknown survival model class: {model_class!r}")
