"""Analytic q-moments of waiting times for every weight family.

All moments share the structure ``<t^q> = Gamma(1+q) * tau0^q * W(q)`` where
``W`` is the weight's moment-generating factor in the depth variable.  The
stretched-exponential family additionally gets its exact even-order series,
summed up to a term count set by the order and the weight alone, a
saddle-point approximation of its generating integral, the closed
multifractal (MF) law it implies, and a heuristic saturating variant (HMF)
whose exponent turns monofractal at large order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    AsymptoticRangeWarning,
    DivergentMomentError,
    ModelDomainError,
    ModelParams,
    QMomentCurve,
    SeriesTruncationWarning,
    StretchedExp,
    UnsupportedModelError,
    _lgamma,
    _log_peak_quad,  # noqa: F401  kept for bench/workloads.py, which patches this name
    _shape_like,
    log_iq_quadrature,
)

__all__ = [
    "MFParams",
    "HMFParams",
    "SaddlePointResult",
    "SeriesMomentResult",
    "Scales",
    "iq_quadrature",
    "log_iq_quadrature",
    "moment_stretched_series",
    "saddlepoint_iq",
    "moment_mf",
    "log_moment_mf",
    "fd_relation",
    "scales",
    "moment",
    "log_norm_moment",
    "model_curve",
    "mf_curve",
    "monofractal_curve",
]


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MFParams:
    """Multifractal moment law ``ln(<t^q>/Gamma(1+q)) = q c0 + b |q|**(alpha/(alpha-1))``.

    ``c0`` plays the role of ln(tau0) + mu*beta; ``b`` is the coefficient of
    the curvature term :meth:`exponent`.  The fields are the fitted
    parameters in order, and ``bounds`` is the box the fit searches.
    """

    alpha: float
    c0: float
    b: float

    bounds = ((1.000001, -np.inf, 1e-12), (50.0, np.inf, np.inf))

    def __post_init__(self):
        if not (self.alpha > 1 and math.isfinite(self.alpha)):
            raise ModelDomainError("alpha must exceed 1")
        if not math.isfinite(self.c0):
            raise ModelDomainError("c0 must be finite")
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ModelDomainError("b must be positive")

    def exponent(self, q):
        """Curvature term ``|q|**(alpha/(alpha-1))``."""
        return np.abs(q) ** (self.alpha / (self.alpha - 1.0))

    def log_norm_moment(self, q):
        """``ln(<t^q>/Gamma(1+q)) = q c0 + b exponent(q)``, elementwise in ``q``."""
        return q * self.c0 + self.b * self.exponent(q)

    def jacobian(self, q):
        """Derivatives of :meth:`log_norm_moment` in (alpha, c0, b), one column each."""
        p = self.exponent(q)
        dalpha = self.b * p * np.log(np.abs(q)) * (-1.0 / (self.alpha - 1.0) ** 2)
        return np.column_stack([dalpha, q, p])


@dataclass(frozen=True)
class HMFParams(MFParams):
    """Saturating (heuristic) variant: the damping scale ``b1`` turns the curvature
    term into :meth:`exponent`, which is monofractal (``|q|/b1``) at large order."""

    b1: float

    bounds = ((1.000001, -np.inf, 1e-12, 1e-12), (50.0, np.inf, np.inf, np.inf))

    def __post_init__(self):
        super().__post_init__()
        if not (self.b1 > 0 and math.isfinite(self.b1)):
            raise ModelDomainError("b1 must be positive")

    def exponent(self, q):
        """``phi(q) = (1/b1)(1 - exp(-b1 |q|**(1/(alpha-1)))) |q|``."""
        aq = np.abs(q)
        return -np.expm1(-self.b1 * aq ** (1.0 / (self.alpha - 1.0))) * aq / self.b1

    def jacobian(self, q):
        """Derivatives of :meth:`log_norm_moment` in (alpha, c0, b, b1), one column each."""
        alpha, b, b1 = self.alpha, self.b, self.b1
        aq = np.abs(q)
        s = aq ** (1.0 / (alpha - 1.0))
        e = np.exp(-b1 * s)
        dalpha = b * e * aq * (s * np.log(aq) * (-1.0 / (alpha - 1.0) ** 2))
        db1 = b * aq * (e * s * b1 + np.expm1(-b1 * s)) / b1 ** 2
        return np.column_stack([dalpha, q, self.exponent(q), db1])


@dataclass(frozen=True)
class SaddlePointResult:
    """Saddle-point approximation of the generating integral I(q).

    ``value = prefactor * exp(exponent_coeff * |q|**(alpha/(alpha-1)))``, and
    ``log_value`` is its log, finite where ``value`` overflows.
    ``lam`` is the dimensionless largeness parameter (beta*sigma)**(alpha/(alpha-1));
    ``x0`` the saddle location in the rescaled depth variable; ``h_x0`` and
    ``h2_x0`` the rescaled exponent and its (positive) second derivative there.
    ``correction`` is the next-order Laplace factor; ``prefactor`` includes it
    when ``|correction - 1| <= SADDLE_CORRECTION_BOUND`` and is leading order
    otherwise.
    """

    value: float
    log_value: float
    prefactor: float
    exponent_coeff: float
    lam: float
    x0: float
    h_x0: float
    h2_x0: float
    correction: float


@dataclass(frozen=True)
class SeriesMomentResult:
    """Stretched-weight moment from its series; ``log_value`` stays finite where ``value``
    overflows, and ``converged`` is the tail bound's verdict (:func:`moment_stretched_series`)."""

    value: float
    log_value: float
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


def _check_order(q) -> None:
    # the first order of a scalar or array q that is not finite and above -1 is named in the error
    q = np.asarray(q, dtype=float)
    bad = q[~(np.isfinite(q) & (q > -1.0))]
    if bad.size:
        raise DivergentMomentError(f"moments exist only for q > -1 (got q = {float(bad[0])})")


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_scale(params: ModelParams) -> float:
    # ln(tau0 l) with l = exp(beta mu), for the families that carry a depth offset mu
    return math.log(params.tau0) + params.beta * params.weight.mu


# ---------------------------------------------------------------------------
# Stretched-exponential weight: generating integral and its approximations
# ---------------------------------------------------------------------------


def iq_quadrature(q, alpha: float, beta_sigma: float):
    """The generating integral I(q) by the stretched family's tanh-sinh quadrature, for a scalar
    ``q`` or elementwise for an array of orders; ``inf`` where it overflows."""
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore"):
        return _shape_like(np.exp(log_iq_quadrature(q, alpha, beta_sigma)), q)


# The term budget n* + 12 w + 8/c of moment_stretched_series, and the most terms it sums:
# a larger budget raises rather than return a partial sum.
_SERIES_WIDTHS = 12.0
_SERIES_FALL = 8.0
_SERIES_MAX_TERMS = 2**16


def moment_stretched_series(q: float, params: ModelParams) -> SeriesMomentResult:
    """Even-order series for the stretched-weight moment, summed to its own term budget.

    ``<t^q> = Gamma(1+q) (tau0 l)^q / Gamma(1/alpha) * sum_n T_n`` with
    ``T_n = Gamma((2n+1)/alpha) x^(2n) / (2n)!`` and ``x = |q| beta sigma``.
    With ``c = 2(alpha-1)/alpha`` the largest term sits near
    ``n* = (x^2 alpha^(-2/alpha))^(1/c) / 2``, in a peak of width ``w = sqrt(n*/c)``
    (``ln T_n`` has second difference about ``-c/n``).  Terms 0 to
    ``N = n* + 12 w + 8/c`` are built as one array of logs and summed by one
    shifted exp-sum.  Past the peak the term ratio r falls, so the tail is at
    most ``T_N r/(1-r)``; ``converged`` says that is below float64 epsilon of
    the sum, and a :class:`SeriesTruncationWarning` comes where it is not.  A
    budget above ``2**16`` terms (from x of about 65 at alpha = 1.5, 8 at 1.2)
    raises :class:`ModelDomainError`; :func:`log_norm_moment` has those orders.
    """
    w = params.weight
    if not isinstance(w, StretchedExp):
        raise UnsupportedModelError("moment_stretched_series needs a StretchedExp weight")
    if not w.alpha > 1:
        raise DivergentMomentError(
            f"stretched-weight moments diverge for alpha <= 1 (got {w.alpha})"
        )
    _check_order(q)
    alpha = w.alpha
    x = abs(q) * params.beta * w.sigma
    log_terms = np.array([math.lgamma(1.0 / alpha)])
    if x > 0.0:
        c = 2.0 * (alpha - 1.0) / alpha
        peak = 0.5 * _safe_exp((2.0 * math.log(x) - 2.0 / alpha * math.log(alpha)) / c)
        budget = peak + _SERIES_WIDTHS * math.sqrt(peak / c) + _SERIES_FALL / c
        if not budget <= _SERIES_MAX_TERMS:
            raise ModelDomainError(f"the stretched series at q = {q} needs about {budget:.3g} "
                                   f"terms, more than its cap of {_SERIES_MAX_TERMS}")
        n = np.arange(int(budget) + 1)
        log_terms = 2.0 * math.log(x) * n + [
            math.lgamma((2 * k + 1) / alpha) - math.lgamma(2 * k + 1) for k in n.tolist()]
    top = log_terms.max()
    log_sum = float(top + math.log(np.exp(log_terms - top).sum()))
    # ln r of the last two terms, and the tail bound T_N r / (1 - r) against 2**-52 of the sum
    log_ratio = float(log_terms[-1] - log_terms[-2]) if log_terms.size > 1 else -math.inf
    converged = log_ratio < 0.0 and (log_terms[-1] + log_ratio - math.log1p(-math.exp(log_ratio))
                                     - log_sum <= -52 * math.log(2.0))
    if not converged:
        warnings.warn(f"series at q = {q} ends after {log_terms.size} terms with a tail bound "
                      "above float64 epsilon of its sum", SeriesTruncationWarning, stacklevel=2)
    log_value = _lgamma(1.0 + q) + q * _log_scale(params) - math.lgamma(1.0 / alpha) + log_sum
    return SeriesMomentResult(value=_safe_exp(log_value), log_value=log_value,
                              terms_used=log_terms.size, converged=bool(converged))


def _series_log_norm_moment(q: float, params: ModelParams) -> float:
    """``ln(<t^q> / Gamma(1+q))`` of a stretched weight from :func:`moment_stretched_series`."""
    return moment_stretched_series(q, params).log_value - _lgamma(1.0 + q)


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
            stacklevel=2,
        )
    exponent_coeff = lam * (alpha - 1.0) / alpha ** gamma
    log_value = math.log(prefactor) + exponent_coeff * aq ** gamma
    return SaddlePointResult(
        value=_safe_exp(log_value),
        log_value=log_value,
        prefactor=prefactor,
        exponent_coeff=exponent_coeff,
        lam=lam,
        x0=x0,
        h_x0=h_x0,
        h2_x0=h2_x0,
        correction=correction,
    )


def _saddle_log_norm_moment(q: float, params: ModelParams) -> float:
    """``ln(<t^q> / Gamma(1+q))`` of a stretched weight with I(q) from :func:`saddlepoint_iq`."""
    w = params.weight
    log_iq = saddlepoint_iq(q, w.alpha, params.beta * w.sigma).log_value
    return q * _log_scale(params) + log_iq - w.log_norm


# ---------------------------------------------------------------------------
# MF / HMF moment laws
# ---------------------------------------------------------------------------


def log_moment_mf(q: float, p: MFParams) -> float:
    """``ln <t^q> = ln Gamma(1+q) + p.log_norm_moment(q)``, for an MF or HMF law."""
    _check_order(q)
    return float(_lgamma(1.0 + q) + p.log_norm_moment(q))


def moment_mf(q: float, p: MFParams) -> float:
    """``<t^q> = exp(log_moment_mf(q, p))``, for an MF or HMF law."""
    return _safe_exp(log_moment_mf(q, p))


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


def log_norm_moment(q, params: ModelParams):
    """``ln(<t^q> / Gamma(1+q)) = q ln(tau0) + ln E[exp(q beta eps)]`` for any weight family, for
    a scalar ``q`` or elementwise on an array of orders: exact 0 at q = 0, one ``log_mgf`` call."""
    q = np.asarray(q, dtype=float)
    _check_order(q)
    s = q.ravel()
    out = np.zeros(s.shape)
    nz = s != 0.0
    if nz.any():  # <t^0> = 1 also where every other moment diverges
        out[nz] = s[nz] * math.log(params.tau0) + params.weight.log_mgf(s[nz] * params.beta)
    return _shape_like(out, q)


def moment(q, params: ModelParams):
    """``<t^q>`` for any weight family, for a scalar ``q`` or elementwise for an array of orders:
    closed form, or for the stretched weight with alpha != 2 the generating integral by the
    fixed tanh-sinh rule of :func:`log_iq_quadrature`; ``inf`` where it overflows."""
    q = np.asarray(q, dtype=float)
    log_m = log_norm_moment(q.ravel(), params)
    log_m += [_lgamma(1.0 + x) for x in q.ravel().tolist()]
    with np.errstate(over="ignore"):
        return _shape_like(np.exp(log_m), q)


def _as_q_grid(q_grid) -> np.ndarray:
    return np.atleast_1d(np.asarray(q_grid, dtype=float))


def model_curve(q_grid, params: ModelParams) -> QMomentCurve:
    """Analytic normalized log-moment curve for a weight family: :func:`log_norm_moment` on it."""
    q = _as_q_grid(q_grid)
    return QMomentCurve(q_grid=q, log_norm_moment=log_norm_moment(q, params), n_samples=0)


def mf_curve(q_grid, p: MFParams) -> QMomentCurve:
    """The normalized log-moment curve of an MF law, or of an HMF law."""
    q = _as_q_grid(q_grid)
    return QMomentCurve(q_grid=q, log_norm_moment=p.log_norm_moment(q), n_samples=0)


def monofractal_curve(q_grid, ln_tau: float) -> QMomentCurve:
    """Pure single-scale curve ``ln(<t^q>/Gamma(1+q)) = q ln(tau)``."""
    q = _as_q_grid(q_grid)
    return QMomentCurve(q_grid=q, log_norm_moment=q * float(ln_tau), n_samples=0)
