"""Analytic q-moments of waiting times for every weight family and moment law.

All moments share the structure ``<t^q> = Gamma(1+q) * tau0^q * W(q)`` where
``W`` is the weight's moment-generating factor in the depth variable.  The
stretched-exponential family additionally gets its exact even-order series,
summed up to a term count set by the order and the weight alone, a
saddle-point approximation of its generating integral, the closed
multifractal (MF) law it implies, and a heuristic saturating variant (HMF)
whose exponent turns monofractal at large order.

Each law answers ``law.log_norm_moment(q)``: a :class:`ModelParams` through its
weight, and :class:`MFParams` and :class:`HMFParams` through their closed forms.
:func:`log_norm_moment`, :func:`moment` and :func:`model_curve` take any of
them; the monofractal curve ``q ln(tau)`` is the model with a ``Delta(mu=ln_tau)``
weight.
"""

from __future__ import annotations

import functools
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
    _lgamma1p,
    _log_peak_quad,  # noqa: F401  kept for bench/workloads.py, which patches this name
    _shape_like,
    log_iq_quadrature,
)

__all__ = [
    "MFParams", "HMFParams", "SaddlePointResult", "SeriesMomentResult", "Scales", "iq_quadrature",
    "log_iq_quadrature", "moment_stretched_series", "saddlepoint_iq", "fd_relation", "scales",
    "moment", "log_norm_moment", "model_curve",
]


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MFParams:
    """Multifractal moment law ``ln(<t^q>/Gamma(1+q)) = q c0 + b |q|**(alpha/(alpha-1))``.

    ``c0`` plays the role of ln(tau0) + mu*beta; ``b`` is the coefficient of
    the curvature term :meth:`exponent`.  The fields are the fitted
    parameters in order, ``bounds`` is the box the fit searches and
    :meth:`initial` its start.
    """

    alpha: float
    c0: float
    b: float

    bounds = ((1.000001, -np.inf, 1e-12), (50.0, np.inf, np.inf))
    _START_SHAPE = (2.0,)  # the start's alpha, then its fields past b

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
        return self._law(q, self.exponent(q))

    def _law(self, q, p):
        return q * self.c0 + self.b * p

    def linearize(self, q):
        """``log_norm_moment(q)`` and its Jacobian, a column per field in order, on one :meth:`exponent`."""
        p = self.exponent(q)
        dalpha = self.b * p * np.log(np.abs(q)) * (-1.0 / (self.alpha - 1.0) ** 2)
        return self._law(q, p), np.column_stack([dalpha, q, p])

    @classmethod
    def initial(cls, q, y, w):
        """``(alpha, c0, b, ...)``: the shape held at ``_START_SHAPE`` and ``(c0, b)``, which enter
        the law linearly, by least squares on ``[q, exponent(q)]`` weighted by ``w``, ``b`` floored at 1e-3."""
        alpha0, *rest = cls._START_SHAPE
        sw = np.sqrt(w)
        basis = np.column_stack([q, cls(alpha0, 0.0, 1.0, *rest).exponent(q)]) * sw[:, None]
        (c0, b), *_ = np.linalg.lstsq(basis, y * sw, rcond=None)
        return (alpha0, float(c0), max(float(b), 1e-3), *rest)


@dataclass(frozen=True)
class HMFParams(MFParams):
    """Saturating (heuristic) variant: the damping scale ``b1`` turns the curvature
    term into :meth:`exponent`, which is monofractal (``|q|/b1``) at large order."""

    b1: float

    bounds = ((1.000001, -np.inf, 1e-12, 1e-12), (50.0, np.inf, np.inf, np.inf))
    _START_SHAPE = (2.0, 0.2)

    def __post_init__(self):
        super().__post_init__()
        if not (self.b1 > 0 and math.isfinite(self.b1)):
            raise ModelDomainError("b1 must be positive")

    def exponent(self, q):
        """``phi(q) = (1/b1)(1 - exp(-b1 |q|**(1/(alpha-1)))) |q|``."""
        return self._phi(q)[0]

    def _phi(self, q):  # phi, with the |q|, s = |q|**(1/(alpha-1)) and expm1(-b1 s) of its derivatives
        aq = np.abs(q)
        s = aq ** (1.0 / (self.alpha - 1.0))
        m1 = np.expm1(-self.b1 * s)
        return -m1 * aq / self.b1, aq, s, m1

    def linearize(self, q):
        phi, aq, s, m1 = self._phi(q)
        es = np.exp(-self.b1 * s) * np.minimum(s, np.finfo(float).max)  # 0, not 0*inf, where s overflows
        dalpha = self.b * aq * (es * np.log(aq) * (-1.0 / (self.alpha - 1.0) ** 2))
        db1 = self.b * aq * (es * self.b1 + m1) / self.b1 ** 2
        return self._law(q, phi), np.column_stack([dalpha, q, phi, db1])


@dataclass(frozen=True)
class SaddlePointResult:
    """Saddle-point approximation of the generating integral I(q).

    ``value = prefactor * exp(exponent_coeff * |q|**(alpha/(alpha-1)))``, and
    ``log_value`` is its log, finite where ``value`` overflows (an order whose log
    or powers leave the float range raises, :func:`saddlepoint_iq`).
    ``lam`` is the dimensionless largeness parameter (beta*sigma)**(alpha/(alpha-1));
    ``x0`` the saddle location in the rescaled depth variable; ``h_x0`` and
    ``h2_x0`` the rescaled exponent and its (positive) second derivative there.
    ``correction`` is the next-order Laplace factor; ``prefactor`` includes it
    when ``|correction - 1| <= SADDLE_CORRECTION_BOUND`` and is leading order
    where ``leading`` is True.  ``lam`` and ``exponent_coeff`` are floats; every
    other field has the shape of q, and is a Python scalar for a scalar q.
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
    leading: bool


@dataclass(frozen=True)
class SeriesMomentResult:
    """Stretched-weight moment from its series; ``log_value`` stays finite where ``value``
    overflows, and ``converged`` is the tail bound's verdict (:func:`moment_stretched_series`).
    Each field has the shape of q, and is a Python float, int or bool for a scalar q."""

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
    for x in np.asarray(q, dtype=float).ravel().tolist():
        if not -1.0 < x < math.inf:
            raise DivergentMomentError(f"moments exist only for q > -1 (got q = {x})")


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
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # math.exp overflows above exactly this


def _series_budget(x: float, alpha: float) -> float:
    # the budget n* + 12 w + 8/c at x = |q| beta sigma; at x = 0 only the term n = 0 is summed
    c = 2.0 * (alpha - 1.0) / alpha
    arg = (2.0 * math.log(x) - 2.0 / alpha * math.log(alpha)) / c if x > 0.0 else -math.inf
    peak = 0.5 * math.exp(arg) if arg < 709.0 else math.inf
    return peak + _SERIES_WIDTHS * math.sqrt(peak / c) + _SERIES_FALL / c if x > 0.0 else 0.0


@functools.lru_cache(maxsize=32)
def _series_free(alpha: float, size: int) -> np.ndarray:
    # ln Gamma((2n+1)/alpha) - ln Gamma(2n+1) for n < size, the part of ln T_n free of q;
    # read-only, as every caller shares it.  Sizes are powers of two up to 2**16 (512 KiB a
    # table), so 32 tables hold the 17 sizes of one alpha and most of another
    free = np.array([math.lgamma(k / alpha) - math.lgamma(k) for k in range(1, 2 * size, 2)])
    free.flags.writeable = False
    return free


def moment_stretched_series(q, params: ModelParams) -> SeriesMomentResult:
    """Even-order series for the stretched-weight moment, elementwise on a scalar or array ``q``.

    ``<t^q> = Gamma(1+q) (tau0 l)^q / Gamma(1/alpha) * sum_n T_n`` with
    ``T_n = Gamma((2n+1)/alpha) x^(2n) / (2n)!`` and ``x = |q| beta sigma``.
    With ``c = 2(alpha-1)/alpha`` the largest term sits near
    ``n* = (x^2 alpha^(-2/alpha))^(1/c) / 2``, in a peak of width ``w = sqrt(n*/c)``
    (``ln T_n`` has second difference about ``-c/n``).  Terms 0 to
    ``N = n* + 12 w + 8/c`` are built as one array of logs and summed by one
    shifted exp-sum.  Their q-free part ``ln Gamma((2n+1)/alpha) - ln (2n)!`` is
    sliced from a table cached per alpha (:func:`_series_free`), whose length is
    the call's largest budget rounded up to a power of two, so a grid call and
    single-order calls give the same bits.  Past the peak the term ratio r
    falls, so the tail is at most ``T_N r/(1-r)``; ``converged`` says that is
    below float64 epsilon of the sum, and one :class:`SeriesTruncationWarning`
    counts the orders where it is not.  The first order with a budget above
    ``2**16`` terms (x of about 65 at alpha = 1.5, 8 at 1.2) raises
    :class:`ModelDomainError` before any table is built;
    :func:`log_norm_moment` has those orders.
    """
    w = params.weight
    if not isinstance(w, StretchedExp):
        raise UnsupportedModelError("moment_stretched_series needs a StretchedExp weight")
    if not w.alpha > 1:
        raise DivergentMomentError(f"stretched-weight moments diverge for alpha <= 1 (got {w.alpha})")
    q = np.asarray(q, dtype=float)
    _check_order(q)
    alpha, s = w.alpha, q.ravel().tolist()
    budgets = [_series_budget(abs(qi) * params.beta * w.sigma, alpha) for qi in s]
    for qi, budget in zip(s, budgets):
        if not budget <= _SERIES_MAX_TERMS:
            raise ModelDomainError(f"the stretched series at q = {qi} needs about {budget:.3g} "
                                   f"terms, more than its cap of {_SERIES_MAX_TERMS}")
    # the q-free part of ln T_n, from the cached table of the next power of two within the cap
    n = np.arange(int(max([0.0, *budgets])) + 1.0)
    free = _series_free(alpha, min(1 << (n.size - 1).bit_length(), _SERIES_MAX_TERMS + 1))
    front = _log_scale(params), math.lgamma(1.0 / alpha)  # ln(tau0 l) and ln Gamma(1/alpha)
    rows = []  # value, log value, terms used and convergence of each order
    for qi, budget in zip(s, budgets):
        x, size = abs(qi) * params.beta * w.sigma, int(budget) + 1
        log_terms = 2.0 * (math.log(x) if x > 0.0 else 0.0) * n[:size] + free[:size]
        top = log_terms.max()
        log_sum = float(top + math.log(np.exp(log_terms - top).sum()))
        # ln r of the last two terms, and the tail bound T_N r / (1 - r) against 2**-52 of the sum
        last = log_terms[-2:].tolist()
        log_ratio = last[-1] - last[0] if size > 1 else -math.inf
        ok = log_ratio < 0.0 and (last[-1] + log_ratio - math.log1p(-math.exp(log_ratio))
                                  - log_sum <= -52 * math.log(2.0))
        log_value = _lgamma(1.0 + qi) + qi * front[0] - front[1] + log_sum
        rows.append((math.exp(log_value) if log_value <= _LOG_FLOAT_MAX else math.inf, log_value,
                     size, ok))
    value, log_value, terms, converged = zip(*rows) if rows else ((),) * 4
    if not all(converged):
        i = converged.index(False)
        warnings.warn(f"series tail bound above float64 epsilon of its sum at "
                      f"{converged.count(False)} order(s), the first at q = {s[i]} after "
                      f"{terms[i]} terms", SeriesTruncationWarning, stacklevel=2)
    return SeriesMomentResult(*[_shape_like(v, q) for v in (value, log_value, terms, converged)])


def _series_log_norm_moment(q, params: ModelParams):
    """``ln(<t^q>/Gamma(1+q))`` by :func:`moment_stretched_series`, and its unconverged orders."""
    res = moment_stretched_series(q, params)
    return res.log_value - _lgamma1p(np.asarray(q, dtype=float)), np.logical_not(res.converged)


# Largest |correction - 1| at which the next-order saddle-point factor is applied.
SADDLE_CORRECTION_BOUND = 0.5


def saddlepoint_iq(q, alpha: float, beta_sigma: float) -> SaddlePointResult:
    """Laplace-method approximation of I(q) to next order, elementwise on a scalar or array ``q``.

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
    factor, ``leading`` marks it, and one :class:`AsymptoticRangeWarning`
    counts those orders.  The bound is below 1, so ``prefactor`` stays
    positive.  Raises at the first order that is 0, where the expansion
    degenerates, or not finite, and then at the first order where ln I(q) or a
    returned power (``x0``, ``h_x0``, ``h2_x0``) leaves the float range.  At
    ``beta_sigma = 1`` that is from ``|q|`` of about 1.07e103 at alpha = 1.5 and
    1192 at alpha = 1.01, where ln I(q) overflows, and below ``|q|`` of about
    7.8e-4 at alpha = 1.01, where ``h2_x0`` overflows.
    """
    if not alpha > 1:
        raise DivergentMomentError(f"the generating integral converges only for alpha > 1 "
                                   f"(got {alpha})")
    if not (beta_sigma > 0 and math.isfinite(beta_sigma)):
        raise ModelDomainError("beta_sigma must be positive")
    q = np.asarray(q, dtype=float)
    s = q.ravel()
    for x in s.tolist():
        if x == 0.0 or not math.isfinite(x):
            raise ModelDomainError("saddle point degenerates at q = 0" if x == 0.0 else
                                   "q must be finite")
    gamma = alpha / (alpha - 1.0)
    lam = beta_sigma ** gamma
    aq = np.abs(s)
    k = (alpha - 2.0) * (2.0 * alpha - 1.0) / (24.0 * alpha * (alpha - 1.0))
    exponent_coeff = lam * (alpha - 1.0) / alpha ** gamma
    # a power that overflows leaves ln I(q) infinite, and raises below; lam |x0|**alpha is 0
    # only on underflow, and the correction +-inf there
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = aq / alpha  # |x0|**(alpha - 1)
        x0 = np.copysign(r ** (1.0 / (alpha - 1.0)), s)
        r_gamma = r ** gamma  # |x0|**alpha
        h_x0 = -(alpha - 1.0) * r_gamma
        # r**gamma can overflow where (alpha - 1) r**gamma does not: take that product in logs
        big = np.isinf(r_gamma)
        h_x0[big] = -np.exp(math.log(alpha - 1.0) + gamma * np.log(r[big]))
        h2_x0 = alpha * (alpha - 1.0) * r ** ((alpha - 2.0) / (alpha - 1.0))
        prefactor = lam ** (1.0 / alpha) * np.sqrt(2.0 * math.pi / (lam * h2_x0))
        correction = 1.0 + k / (lam * r_gamma) if k else np.ones(s.shape)
        leading = np.abs(correction - 1.0) > SADDLE_CORRECTION_BOUND
        prefactor = np.where(leading, prefactor, prefactor * correction)
        lead = exponent_coeff * aq ** gamma
        # aq**gamma overflows before the product does; there lam (alpha-1) |x0|**alpha is the same
        over = np.isinf(lead)
        lead[over] = lam * (alpha - 1.0) * r_gamma[over]
        lead[big] = -lam * h_x0[big]
        log_value = np.log(prefactor) + lead
        value = np.exp(log_value)
    finite = np.isfinite([log_value, x0, h_x0, h2_x0]).all(axis=0)
    if not finite.all():
        raise ModelDomainError(f"the saddle point at q = {float(s[finite.argmin()])}, "
                               f"lam = {lam:.6g} leaves the float range")
    at = np.flatnonzero(leading)
    if at.size:
        warnings.warn(f"saddle point at q = {float(s[at[0]])}, lam = {lam:.6g}: next-order factor "
                      f"{correction[at[0]]:.6g} is off 1 by more than {SADDLE_CORRECTION_BOUND}; "
                      f"returning the leading order at {at.size} order(s)",
                      AsymptoticRangeWarning, stacklevel=2)
    fields = value, log_value, prefactor, x0, h_x0, h2_x0, correction, leading
    shaped = [_shape_like(v, q) for v in fields]
    return SaddlePointResult(*shaped[:3], exponent_coeff, lam, *shaped[3:])


def _saddle_log_norm_moment(q, params: ModelParams):
    """``ln(<t^q>/Gamma(1+q))`` by :func:`saddlepoint_iq`, and the orders kept at leading order."""
    w = params.weight
    res = saddlepoint_iq(q, w.alpha, params.beta * w.sigma)
    return np.multiply(q, _log_scale(params)) + res.log_value - w.log_norm, res.leading


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
    with np.errstate(over="ignore"):
        return Scales(l=l, b=b, L=float(np.exp(b)), lam=bs ** gamma)


# ---------------------------------------------------------------------------
# Any law: log moment, moment and curve
# ---------------------------------------------------------------------------


def log_norm_moment(q, params):
    """``ln(<t^q> / Gamma(1+q))`` of a law, for a scalar ``q`` or elementwise on an array of
    orders: ``params.log_norm_moment`` on the orders, which must be finite and above -1.  The law
    is a :class:`ModelParams` (any weight family), an :class:`MFParams` or an :class:`HMFParams`."""
    q = np.asarray(q, dtype=float)
    _check_order(q)
    return _shape_like(params.log_norm_moment(q.ravel()), q)


def moment(q, params):
    """``<t^q> = Gamma(1+q) exp(log_norm_moment(q, params))`` of any law, for a scalar ``q`` or
    elementwise for an array of orders; ``inf`` where it overflows.  For a model it is a closed
    form, or for the stretched weight with alpha != 2 the generating integral by the fixed
    tanh-sinh rule of :func:`log_iq_quadrature`."""
    q = np.asarray(q, dtype=float)
    log_m = log_norm_moment(q.ravel(), params) + _lgamma1p(q.ravel())
    with np.errstate(over="ignore"):
        return _shape_like(np.exp(log_m), q)


def model_curve(q_grid, params) -> QMomentCurve:
    """The normalized log-moment curve of any law: :func:`log_norm_moment` on the grid.  The
    monofractal curve ``q ln(tau)`` is that of ``ModelParams(Delta(mu=ln_tau))``."""
    q = np.atleast_1d(np.asarray(q_grid, dtype=float))
    return QMomentCurve(q_grid=q, log_norm_moment=log_norm_moment(q, params), n_samples=0)
