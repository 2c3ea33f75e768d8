"""Analytic q-moments of waiting times for every weight family.

All moments share the structure ``<t^q> = Gamma(1+q) * tau0^q * W(q)`` where
``W`` is the weight's moment-generating factor in the depth variable.  The
stretched-exponential family additionally gets a saddle-point approximation
of its generating integral, the closed multifractal (MF) law it implies, and
a heuristic saturating variant (HMF) whose exponent turns monofractal at
large order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

from .core import (
    AsymptoticRangeWarning,
    Delta,
    DivergentMomentError,
    Laplace,
    ModelDomainError,
    ModelParams,
    QMomentCurve,
    SeriesTruncationWarning,
    StretchedExp,
    Uniform,
    UnsupportedModelError,
    _log_peak_quad,  # noqa: F401  kept for bench/workloads.py, which patches this name
    log_iq_quadrature,
)

__all__ = [
    "MFParams",
    "HMFParams",
    "SaddlePointResult",
    "SeriesMomentResult",
    "Scales",
    "conditional_moment",
    "moment_delta",
    "moment_uniform",
    "moment_laplace",
    "iq_quadrature",
    "log_iq_quadrature",
    "moment_stretched_series",
    "moment_gaussian",
    "saddlepoint_iq",
    "moment_mf",
    "log_moment_mf",
    "moment_hmf",
    "log_moment_hmf",
    "hmf_exponent",
    "fd_relation",
    "scales",
    "moment",
    "log_norm_moment",
    "model_curve",
    "mf_curve",
    "hmf_curve",
    "monofractal_curve",
]


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MFParams:
    """Multifractal moment-law parameters: exponent shape, log scale, curvature scale.

    ``c0`` plays the role of ln(tau0) + mu*beta; ``b`` is the coefficient of
    ``|q|**(alpha/(alpha-1))`` in the log moment.
    """

    alpha: float
    c0: float
    b: float

    def __post_init__(self):
        if not (self.alpha > 1 and math.isfinite(self.alpha)):
            raise ModelDomainError("alpha must exceed 1")
        if not math.isfinite(self.c0):
            raise ModelDomainError("c0 must be finite")
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ModelDomainError("b must be positive")


@dataclass(frozen=True)
class HMFParams:
    """Saturating (heuristic) variant: adds the damping scale ``b1``."""

    alpha: float
    c0: float
    b: float
    b1: float

    def __post_init__(self):
        if not (self.alpha > 1 and math.isfinite(self.alpha)):
            raise ModelDomainError("alpha must exceed 1")
        if not math.isfinite(self.c0):
            raise ModelDomainError("c0 must be finite")
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ModelDomainError("b must be positive")
        if not (self.b1 > 0 and math.isfinite(self.b1)):
            raise ModelDomainError("b1 must be positive")


@dataclass(frozen=True)
class SaddlePointResult:
    """Saddle-point approximation of the generating integral I(q).

    ``value = prefactor * exp(exponent_coeff * |q|**(alpha/(alpha-1)))``.
    ``lam`` is the dimensionless largeness parameter (beta*sigma)**(alpha/(alpha-1));
    ``x0`` the saddle location in the rescaled depth variable; ``h_x0`` and
    ``h2_x0`` the rescaled exponent and its (positive) second derivative there.
    ``correction`` is the next-order Laplace factor; ``prefactor`` includes it
    when ``|correction - 1| <= SADDLE_CORRECTION_BOUND`` and is leading order
    otherwise.
    """

    value: float
    prefactor: float
    exponent_coeff: float
    lam: float
    x0: float
    h_x0: float
    h2_x0: float
    correction: float


@dataclass(frozen=True)
class SeriesMomentResult:
    """Partial sum of the even-order expansion of a stretched-weight moment."""

    value: float
    terms_used: int
    converged: bool


@dataclass(frozen=True)
class Scales:
    """The four named scales of the stretched-weight moment law."""

    l: float
    b: float
    L: float
    lam: float


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _check_order(q: float) -> None:
    if not (math.isfinite(q) and q > -1.0):
        raise DivergentMomentError(f"moments exist only for q > -1 (got q = {q})")


def _safe_exp(x: float) -> float:
    if x > 709.0:
        return math.inf
    return math.exp(x)


def _log_scale(params: ModelParams) -> float:
    # ln(tau0 l) with l = exp(beta mu), for the families that carry a depth offset mu
    return math.log(params.tau0) + params.beta * params.weight.mu


# ---------------------------------------------------------------------------
# Closed-form moments
# ---------------------------------------------------------------------------


def conditional_moment(q: float, eps: float, params: ModelParams) -> float:
    """``<t^q | eps> = Gamma(1+q) * tau(eps)^q`` for one trap depth."""
    _check_order(q)
    return _safe_exp(
        _special.gammaln(1.0 + q) + q * (math.log(params.tau0) + params.beta * eps)
    )


def moment_delta(q: float, params: ModelParams) -> float:
    if not isinstance(params.weight, Delta):
        raise UnsupportedModelError("moment_delta needs a Delta weight")
    return moment(q, params)


def moment_uniform(q: float, params: ModelParams) -> float:
    if not isinstance(params.weight, Uniform):
        raise UnsupportedModelError("moment_uniform needs a Uniform weight")
    return moment(q, params)


def moment_laplace(q: float, params: ModelParams) -> float:
    if not isinstance(params.weight, Laplace):
        raise UnsupportedModelError("moment_laplace needs a Laplace weight")
    return moment(q, params)


# ---------------------------------------------------------------------------
# Stretched-exponential weight: generating integral and its approximations
# ---------------------------------------------------------------------------


def iq_quadrature(q: float, alpha: float, beta_sigma: float, rtol: float = 1e-10) -> float:
    """Adaptive quadrature of the generating integral I(q)."""
    return _safe_exp(log_iq_quadrature(q, alpha, beta_sigma, rtol=rtol))


def moment_stretched_series(
    q: float, params: ModelParams, tol: float = 1e-12, n_max: int = 500
) -> SeriesMomentResult:
    """Even-order series for the stretched-weight moment.

    ``<t^q> = Gamma(1+q) (tau0 l)^q / Gamma(1/alpha) * sum_n
    Gamma((2n+1)/alpha) (q sigma beta)^(2n) / (2n)!``, summed until the next
    term's relative contribution drops below ``tol``.  The series converges
    slowly when ``q sigma beta`` is large; hitting ``n_max`` first yields the
    partial value, ``converged=False`` and a :class:`SeriesTruncationWarning`.
    """
    w = params.weight
    if not isinstance(w, StretchedExp):
        raise UnsupportedModelError("moment_stretched_series needs a StretchedExp weight")
    if not w.alpha > 1:
        raise DivergentMomentError(
            f"stretched-weight moments diverge for alpha <= 1 (got {w.alpha})"
        )
    _check_order(q)
    if not (tol > 0 and n_max >= 1):
        raise ValueError("tol must be positive and n_max >= 1")
    alpha = w.alpha
    x = abs(q) * params.beta * w.sigma

    def log_term(n: int) -> float:
        if n == 0:
            return float(_special.gammaln(1.0 / alpha))
        return float(
            _special.gammaln((2 * n + 1) / alpha)
            + 2 * n * math.log(x)
            - _special.gammaln(2 * n + 1)
        )

    log_sum = log_term(0)
    terms = 1
    converged = x == 0.0
    while not converged:
        nxt = log_term(terms)
        rel = math.exp(nxt - float(np.logaddexp(log_sum, nxt)))
        if rel < tol:
            converged = True
            break
        if terms >= n_max:
            warnings.warn(
                f"series truncated at {terms} terms before reaching tol={tol}",
                SeriesTruncationWarning,
                stacklevel=2,
            )
            break
        log_sum = float(np.logaddexp(log_sum, nxt))
        terms += 1
    value = _safe_exp(
        _special.gammaln(1.0 + q)
        + q * _log_scale(params)
        - _special.gammaln(1.0 / alpha)
        + log_sum
    )
    return SeriesMomentResult(value=value, terms_used=terms, converged=converged)


def moment_gaussian(q: float, params: ModelParams) -> float:
    """Closed form at alpha = 2: ``Gamma(1+q) tau0^q l^q L^(q^2)`` with ``L = e^((sigma beta)^2/4)``."""
    w = params.weight
    if not (isinstance(w, StretchedExp) and w.alpha == 2.0):
        raise UnsupportedModelError("moment_gaussian needs a StretchedExp weight with alpha = 2")
    return moment(q, params)


# Largest |correction - 1| at which the next-order saddle-point factor is applied.
SADDLE_CORRECTION_BOUND = 0.5


def saddlepoint_iq(q: float, alpha: float, beta_sigma: float) -> SaddlePointResult:
    """Laplace-method approximation of the generating integral I(q), to next order.

    In the rescaled variable ``I(q) = lam**(1/alpha) * int exp(lam f(x)) dx``
    with ``f(x) = q x - |x|**alpha``, maximal at ``x0``.  The leading order
    ``lam**(1/alpha) sqrt(2 pi / (lam |f''|)) exp(lam f(x0))`` is multiplied
    by the next-order factor (Bender & Orszag 1978, sec. 6.4)

        correction = 1 + (f''''/(8 f''**2) + 5 f'''**2/(24 |f''|**3)) / lam
                   = 1 + K / (lam |x0|**alpha),
        K = (alpha - 2)(2 alpha - 1) / (24 alpha (alpha - 1)),

    with the derivatives taken at ``x0``.  At fixed q the relative error is
    O(lam**-2); at alpha = 2 the factor is exactly 1 and the result exact.

    The expansion runs in powers of ``1 / (lam |x0|**alpha)``, which grows
    without bound as ``lam |q|**(alpha/(alpha-1)) -> 0``.  Where
    ``|correction - 1| > SADDLE_CORRECTION_BOUND`` (0.5) the factor is not
    applied: the leading order is returned, ``correction`` still reports the
    factor, and :class:`AsymptoticRangeWarning` is raised.  The bound is below
    1, so ``prefactor`` stays positive.  Raises at q = 0 where the expansion
    degenerates.
    """
    return _saddle(q, alpha, beta_sigma)[0]


def _saddle(q: float, alpha: float, beta_sigma: float) -> tuple[SaddlePointResult, float]:
    # saddlepoint_iq and ln of its value, which stays finite where the value overflows
    if not alpha > 1:
        raise DivergentMomentError(
            f"the generating integral converges only for alpha > 1 (got {alpha})"
        )
    if not (beta_sigma > 0 and math.isfinite(beta_sigma)):
        raise ModelDomainError("beta_sigma must be positive")
    if q == 0.0:
        raise ModelDomainError("saddle point degenerates at q = 0")
    if not math.isfinite(q):
        raise ModelDomainError("q must be finite")
    gamma = alpha / (alpha - 1.0)
    lam = beta_sigma ** gamma
    aq = abs(q)
    x0 = math.copysign((aq / alpha) ** (1.0 / (alpha - 1.0)), q)
    h_x0 = -(alpha - 1.0) * (aq / alpha) ** gamma
    h2_x0 = alpha * (alpha - 1.0) * (aq / alpha) ** ((alpha - 2.0) / (alpha - 1.0))
    prefactor = lam ** (1.0 / alpha) * math.sqrt(2.0 * math.pi / (lam * h2_x0))
    k = (alpha - 2.0) * (2.0 * alpha - 1.0) / (24.0 * alpha * (alpha - 1.0))
    scale = lam * (aq / alpha) ** gamma  # lam |x0|**alpha; 0 only on underflow
    if k == 0.0:
        correction = 1.0
    elif scale > 0.0:
        correction = 1.0 + k / scale
    else:
        correction = math.copysign(math.inf, k)
    if abs(correction - 1.0) <= SADDLE_CORRECTION_BOUND:
        prefactor *= correction
    else:
        warnings.warn(
            f"saddle point at q = {q}, lam = {lam:.6g}: next-order factor {correction:.6g} "
            f"is off 1 by more than {SADDLE_CORRECTION_BOUND}; returning the leading order",
            AsymptoticRangeWarning,
            stacklevel=3,
        )
    exponent_coeff = lam * (alpha - 1.0) / alpha ** gamma
    log_value = math.log(prefactor) + exponent_coeff * aq ** gamma
    result = SaddlePointResult(
        value=_safe_exp(log_value),
        prefactor=prefactor,
        exponent_coeff=exponent_coeff,
        lam=lam,
        x0=x0,
        h_x0=h_x0,
        h2_x0=h2_x0,
        correction=correction,
    )
    return result, log_value


def _saddle_log_norm_moment(q: float, params: ModelParams) -> float:
    """``ln(<t^q> / Gamma(1+q))`` of a stretched weight with I(q) from :func:`saddlepoint_iq`."""
    w = params.weight
    log_iq = _saddle(q, w.alpha, params.beta * w.sigma)[1]
    return q * _log_scale(params) + log_iq - w.log_norm


# ---------------------------------------------------------------------------
# MF / HMF moment laws
# ---------------------------------------------------------------------------


def log_moment_mf(q: float, p: MFParams) -> float:
    _check_order(q)
    gamma = p.alpha / (p.alpha - 1.0)
    return float(_special.gammaln(1.0 + q)) + q * p.c0 + p.b * abs(q) ** gamma


def moment_mf(q: float, p: MFParams) -> float:
    """``exp(ln Gamma(1+q) + q c0 + b |q|^(alpha/(alpha-1)))``."""
    return _safe_exp(log_moment_mf(q, p))


def hmf_exponent(q: float, p: HMFParams) -> float:
    """Saturating exponent ``phi(q) = (1/b1)(1 - exp(-b1 |q|^(1/(alpha-1)))) |q|``."""
    s = abs(q) ** (1.0 / (p.alpha - 1.0))
    return (-math.expm1(-p.b1 * s)) * abs(q) / p.b1


def log_moment_hmf(q: float, p: HMFParams) -> float:
    _check_order(q)
    return float(_special.gammaln(1.0 + q)) + q * p.c0 + p.b * hmf_exponent(q, p)


def moment_hmf(q: float, p: HMFParams) -> float:
    """Saturating variant of the multifractal law; monofractal at large |q|."""
    return _safe_exp(log_moment_hmf(q, p))


def fd_relation(sigma: float, alpha: float, beta: float) -> float:
    """Depth offset ``mu = k sigma^(alpha/(alpha-1))`` that merges the two scales.

    With this ``mu`` the linear scale ``l = e^(beta mu)`` equals ``e^b``, i.e.
    ``b = mu beta``; ``k = (1 - 1/alpha)(beta/alpha)^(1/(alpha-1))``.
    """
    if not alpha > 1:
        raise ModelDomainError(f"the scale relation needs alpha > 1 (got {alpha})")
    if not (beta > 0 and math.isfinite(beta)):
        raise ModelDomainError("beta must be positive")
    if sigma < 0:
        raise ModelDomainError("sigma must be nonnegative")
    k = (1.0 - 1.0 / alpha) * (beta / alpha) ** (1.0 / (alpha - 1.0))
    return k * sigma ** (alpha / (alpha - 1.0))


def scales(params: ModelParams) -> Scales:
    """The four named scales (l, b, L, lam) of the stretched-weight law."""
    w = params.weight
    if not isinstance(w, StretchedExp):
        raise UnsupportedModelError("scales are defined for the StretchedExp weight")
    if not w.alpha > 1:
        raise ModelDomainError(f"scales need alpha > 1 (got {w.alpha})")
    alpha = w.alpha
    bs = params.beta * w.sigma
    gamma = alpha / (alpha - 1.0)
    l = math.exp(params.beta * w.mu)
    b = (alpha - 1.0) * (bs / alpha) ** gamma
    return Scales(l=l, b=b, L=_safe_exp(b), lam=bs ** gamma)


# ---------------------------------------------------------------------------
# Dispatcher and curve builders
# ---------------------------------------------------------------------------


def log_norm_moment(q: float, params: ModelParams, rtol: float = 1e-10) -> float:
    """``ln(<t^q> / Gamma(1+q)) = q ln(tau0) + ln E[exp(q beta eps)]`` for any weight
    family (exact 0 at q = 0)."""
    _check_order(q)
    if q == 0.0:
        return 0.0
    return q * math.log(params.tau0) + params.weight.log_mgf(q * params.beta, rtol=rtol)


def moment(q: float, params: ModelParams, rtol: float = 1e-10) -> float:
    """``<t^q>`` for any weight family (closed form, or quadrature where needed)."""
    _check_order(q)
    return _safe_exp(float(_special.gammaln(1.0 + q)) + log_norm_moment(q, params, rtol=rtol))


def _as_q_grid(q_grid) -> np.ndarray:
    q = np.atleast_1d(np.asarray(q_grid, dtype=float))
    return q


def model_curve(q_grid, params: ModelParams, rtol: float = 1e-10) -> QMomentCurve:
    """Analytic normalized log-moment curve for a weight family."""
    q = _as_q_grid(q_grid)
    vals = np.array([log_norm_moment(float(x), params, rtol=rtol) for x in q])
    return QMomentCurve(q_grid=q, log_norm_moment=vals, n_samples=0)


def mf_curve(q_grid, p: MFParams) -> QMomentCurve:
    q = _as_q_grid(q_grid)
    gamma = p.alpha / (p.alpha - 1.0)
    vals = q * p.c0 + p.b * np.abs(q) ** gamma
    return QMomentCurve(q_grid=q, log_norm_moment=vals, n_samples=0)


def hmf_curve(q_grid, p: HMFParams) -> QMomentCurve:
    q = _as_q_grid(q_grid)
    vals = q * p.c0 + p.b * np.array([hmf_exponent(float(x), p) for x in q])
    return QMomentCurve(q_grid=q, log_norm_moment=vals, n_samples=0)


def monofractal_curve(q_grid, ln_tau: float) -> QMomentCurve:
    """Pure single-scale curve ``ln(<t^q>/Gamma(1+q)) = q ln(tau)``."""
    q = _as_q_grid(q_grid)
    return QMomentCurve(q_grid=q, log_norm_moment=q * float(ln_tau), n_samples=0)
