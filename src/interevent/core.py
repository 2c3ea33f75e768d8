"""Shared types, the weight families, and gamma-family special functions.

The generative picture: each waiting period sits in a trap of depth ``eps``
drawn from a fixed weight density, and the waiting time is exponential with
mean ``tau(eps) = tau0 * exp(beta * eps)``.  Everything downstream (mixed
densities, q-moment laws, simulation, fitting) is parameterized by a
:class:`ModelParams` built from one of the four weight families below; only
the weight differs between models, so each family's class carries the formulas
the other modules call.

The package imports only the top-level ``scipy`` package and calls
``scipy.special``, ``scipy.integrate`` and ``scipy.optimize`` by attribute;
SciPy imports each submodule on its first use.  ``import interevent`` and
``simulate`` therefore load none of them, ``estimate`` loads only
``scipy.special``, and the fits load ``scipy.optimize`` when they first run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
import scipy

__all__ = [
    "ModelDomainError",
    "DivergentMomentError",
    "NoFiniteMeanError",
    "UnsupportedModelError",
    "IngestError",
    "SeriesTruncationWarning",
    "AsymptoticRangeWarning",
    "Delta",
    "Uniform",
    "Laplace",
    "StretchedExp",
    "Weight",
    "ModelParams",
    "QMomentCurve",
    "FitResult",
    "EventSeries",
    "log_gamma",
    "lower_incomplete_gamma",
    "upper_incomplete_gamma",
    "scaled_lower_incomplete_gamma",
    "scaled_upper_incomplete_gamma",
]


class ModelDomainError(ValueError):
    """An argument lies outside the mathematical domain of the requested quantity."""


class DivergentMomentError(ModelDomainError):
    """The requested moment (or generating integral) does not converge."""


class NoFiniteMeanError(DivergentMomentError):
    """The mean waiting time does not exist for these parameters."""


class UnsupportedModelError(TypeError):
    """The operation has no implementation for the supplied weight family."""


class IngestError(ValueError):
    """Raw event records violate the ingestion preconditions."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class SeriesTruncationWarning(UserWarning):
    """A power series was cut off at its term cap before reaching tolerance."""


class AsymptoticRangeWarning(UserWarning):
    """An asymptotic formula was evaluated outside its advertised range."""


# ---------------------------------------------------------------------------
# Weight families
# ---------------------------------------------------------------------------
# A family is one class listed in WEIGHT_FAMILIES, with the methods every layer
# calls: log_mgf(s) = ln E[exp(s eps)] (DivergentMomentError where infinite),
# sample(rng, size), and ptd_kernel / sojourn_kernel(tau0, beta), which return
# the scalar maps t -> psi(t) and t -> Psi(t).  Each family fixes its accuracy.

# 64-point Gauss-Legendre for the narrow-uniform survival fallback
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
# relative tolerance of the stretched family's psi/Psi quadrature (_log_mix)
_MIX_RTOL = 1e-8


@dataclass(frozen=True)
class Delta:
    """Point mass at depth ``mu``: every trap has the same mean time."""

    mu: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ModelDomainError("mu must be finite")

    def log_mgf(self, s: float) -> float:
        return s * self.mu

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self.mu
        return np.full(size, self.mu, dtype=float)

    def ptd_kernel(self, tau0: float, beta: float):
        tau_mu = tau0 * math.exp(beta * self.mu)
        return lambda x: math.exp(-x / tau_mu) / tau_mu

    def sojourn_kernel(self, tau0: float, beta: float):
        tau_mu = tau0 * math.exp(beta * self.mu)
        return lambda x: math.exp(-x / tau_mu)


@dataclass(frozen=True)
class Uniform:
    """Flat density on ``[-half_width, half_width]``."""

    half_width: float

    def __post_init__(self):
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise ModelDomainError("half_width must be positive and finite")

    def log_mgf(self, s: float) -> float:
        return _log_sinhc(s * self.half_width)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.uniform(-self.half_width, self.half_width, size)

    def ptd_kernel(self, tau0: float, beta: float):
        db = beta * self.half_width
        tau_plus = tau0 * math.exp(db)
        tau_minus = tau0 * math.exp(-db)
        rate_gap = 1.0 / tau_minus - 1.0 / tau_plus

        def kernel(x: float) -> float:
            u = x * rate_gap
            if u < 1e-8:
                # two-term series of -expm1(-u)/x; avoids 0/0 at the origin
                return math.exp(-x / tau_plus) * rate_gap * (1.0 - 0.5 * u) / (2.0 * db)
            return math.exp(-x / tau_plus) * (-math.expm1(-u)) / (2.0 * db * x)

        return kernel

    def sojourn_kernel(self, tau0: float, beta: float):
        db = beta * self.half_width
        tau_plus = tau0 * math.exp(db)
        tau_minus = tau0 * math.exp(-db)

        def kernel(x: float) -> float:
            if x == 0.0:
                return 1.0
            if db < 1e-3:
                # E1 difference cancels; integrate exp(-x/tau(eps)) directly
                eps = self.half_width * _GL_NODES
                vals = np.exp(-x / (tau0 * np.exp(beta * eps)))
                return float(np.dot(_GL_WEIGHTS, vals) / 2.0)
            e1 = scipy.special.exp1
            return (float(e1(x / tau_plus)) - float(e1(x / tau_minus))) / (2.0 * db)

        return kernel


@dataclass(frozen=True)
class Laplace:
    """Two-sided exponential density ``exp(-|eps|/sigma) / (2 sigma)``."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ModelDomainError("sigma must be positive and finite")

    def log_mgf(self, s: float) -> float:
        if abs(s) * self.sigma >= 1.0:
            raise DivergentMomentError(
                f"Laplace-weight moment diverges for |q|*beta*sigma = {abs(s) * self.sigma} >= 1"
            )
        return -math.log1p(-((s * self.sigma) ** 2))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.laplace(0.0, self.sigma, size)

    def ptd_kernel(self, tau0: float, beta: float):
        sb = beta * self.sigma
        a_low = 1.0 + 1.0 / sb
        a_up = 1.0 - 1.0 / sb

        def kernel(x: float) -> float:
            if x == 0.0:
                if sb < 1.0:
                    return 1.0 / (tau0 * (1.0 - sb * sb))
                return math.inf
            z = x / tau0
            val = scaled_lower_incomplete_gamma(a_low, z)
            val += scaled_upper_incomplete_gamma(a_up, z)
            return val / (2.0 * sb * tau0)

        return kernel

    def sojourn_kernel(self, tau0: float, beta: float):
        sb = beta * self.sigma
        c = 1.0 / sb

        def kernel(x: float) -> float:
            if x == 0.0:
                return 1.0
            z = x / tau0
            val = scaled_lower_incomplete_gamma(c, z)
            val += scaled_upper_incomplete_gamma(-c, z)
            return val / (2.0 * sb)

        return kernel


@dataclass(frozen=True)
class StretchedExp:
    """Density ``exp(-|(eps - mu)/sigma|**alpha) / (2 sigma Gamma(1 + 1/alpha))``.

    ``alpha <= 1`` is a legal weight (density and survival function exist);
    ``log_mgf`` rejects it because the mixed moments diverge.
    """

    mu: float
    sigma: float
    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ModelDomainError("mu must be finite")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ModelDomainError("sigma must be positive and finite")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ModelDomainError("alpha must be positive and finite")

    @property
    def log_norm(self) -> float:
        """``ln(2 Gamma(1 + 1/alpha))``, the log mass of ``exp(-|y|**alpha)``."""
        return math.log(2.0) + float(scipy.special.gammaln(1.0 + 1.0 / self.alpha))

    def log_mgf(self, s: float) -> float:
        if not self.alpha > 1:
            raise DivergentMomentError(
                f"stretched-weight moments diverge for alpha <= 1 (got {self.alpha})"
            )
        if self.alpha == 2.0:
            return s * self.mu + (s * self.sigma) ** 2 / 4.0
        return s * self.mu + log_iq_quadrature(s, self.alpha, self.sigma) - self.log_norm

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """``eps = mu + sigma * s * G**(1/alpha)``, ``G`` gamma of shape ``1/alpha``, ``s`` a fair sign.

        If ``Z = |eps - mu|/sigma`` then ``Z**alpha`` is gamma(1/alpha), so the
        transform is exact, rejection-free and valid for every ``alpha > 0``.
        """
        g = rng.standard_gamma(1.0 / self.alpha, size)
        sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        eps = self.mu + self.sigma * sign * g ** (1.0 / self.alpha)
        return float(eps) if size is None else eps

    def _log_mix(self, c: float, bs: float, shift: float, seed: float) -> float:
        # ln int exp(-|y|^alpha - shift*y - c*exp(-bs*y)) dy over the standardized depth y
        alpha = self.alpha

        def logf(y: float) -> float:
            if c == 0.0:
                return -abs(y) ** alpha - shift * y
            u = -bs * y
            if u > 700.0:
                return -math.inf
            return -abs(y) ** alpha - shift * y - c * math.exp(u)

        return _log_peak_quad(logf, seed, rtol=_MIX_RTOL, kinks=(0.0,))

    def ptd_kernel(self, tau0: float, beta: float):
        alpha = self.alpha
        bs = beta * self.sigma
        scale = tau0 * math.exp(beta * self.mu)
        log_pref = -self.log_norm - math.log(scale)

        def kernel(x: float) -> float:
            c = x / scale
            if c == 0.0:
                if alpha < 1.0 or (alpha == 1.0 and bs >= 1.0):
                    return math.inf
                seed = -((bs / alpha) ** (1.0 / (alpha - 1.0))) if alpha > 1.0 else 0.0
            else:
                seed = max(0.0, math.log(c) / bs)
            return math.exp(self._log_mix(c, bs, bs, seed) + log_pref)

        return kernel

    def sojourn_kernel(self, tau0: float, beta: float):
        bs = beta * self.sigma
        scale = tau0 * math.exp(beta * self.mu)
        log_norm = self.log_norm

        def kernel(x: float) -> float:
            if x == 0.0:
                return 1.0
            c = x / scale
            return math.exp(self._log_mix(c, bs, 0.0, max(0.0, math.log(c) / bs)) - log_norm)

        return kernel


Weight = Union[Delta, Uniform, Laplace, StretchedExp]
WEIGHT_FAMILIES = (Delta, Uniform, Laplace, StretchedExp)


@dataclass(frozen=True)
class ModelParams:
    """A weight family plus the trap-time scale ``tau0`` and inverse temperature ``beta``."""

    weight: Weight
    tau0: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not isinstance(self.weight, WEIGHT_FAMILIES):
            raise UnsupportedModelError(
                f"unknown weight family: {type(self.weight).__name__}"
            )
        if not (self.tau0 > 0 and math.isfinite(self.tau0)):
            raise ModelDomainError("tau0 must be positive and finite")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ModelDomainError("beta must be positive and finite")


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------


def _check_q_grid(q: np.ndarray) -> None:
    """Check an order grid as :class:`QMomentCurve` does: 1-d, nonempty, finite,
    strictly increasing and above -1."""
    if q.ndim != 1:
        raise ValueError("q_grid must be 1-d")
    if q.size == 0:
        raise ValueError("q grid is empty")
    if not np.all(np.isfinite(q)):
        raise ValueError("q_grid must be finite")
    if np.any(np.diff(q) <= 0):
        raise ValueError("q_grid must be strictly increasing")
    if np.any(q <= -1.0):
        raise ModelDomainError("moment orders must exceed -1")


@dataclass(frozen=True)
class QMomentCurve:
    """Normalized log moments ``ln(<t^q> / Gamma(1+q))`` on an increasing q grid.

    ``n_samples`` is 0 for analytic curves; empirical curves carry the sample
    count and, when available, delta-method standard errors of the log values
    and the effective sample size ``n_eff = N <t^q>^2 / <t^{2q}>`` behind each
    order (N at q = 0, near 1 where a few extreme events dominate the sum).
    """

    q_grid: np.ndarray
    log_norm_moment: np.ndarray
    n_samples: int = 0
    stderr: np.ndarray | None = None
    n_eff: np.ndarray | None = None

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q_grid, dtype=float))
        v = np.atleast_1d(np.asarray(self.log_norm_moment, dtype=float))
        object.__setattr__(self, "q_grid", q)
        object.__setattr__(self, "log_norm_moment", v)
        if q.ndim != 1 or v.shape != q.shape:
            raise ValueError("q_grid and log_norm_moment must be 1-d of equal length")
        _check_q_grid(q)
        if self.n_samples < 0:
            raise ValueError("n_samples must be nonnegative")
        at_zero = q == 0.0
        if np.any(at_zero) and np.any(np.abs(v[at_zero]) > 1e-12):
            raise ValueError("normalized log moment must vanish at q = 0")
        if self.stderr is not None:
            se = np.atleast_1d(np.asarray(self.stderr, dtype=float))
            object.__setattr__(self, "stderr", se)
            if se.shape != q.shape:
                raise ValueError("stderr must match the q grid")
            if not np.all(se >= 0):
                raise ValueError("stderr must be nonnegative and not NaN")
        if self.n_eff is not None:
            ne = np.atleast_1d(np.asarray(self.n_eff, dtype=float))
            object.__setattr__(self, "n_eff", ne)
            if ne.shape != q.shape:
                raise ValueError("n_eff must match the q grid")
            if not np.all(ne >= 0):
                raise ValueError("n_eff must be nonnegative and not NaN")

    def __len__(self) -> int:
        return int(self.q_grid.size)

    def window(self, q_min: float, q_max: float) -> np.ndarray:
        """Boolean mask of grid points with ``q_min <= q <= q_max``."""
        return (self.q_grid >= q_min) & (self.q_grid <= q_max)


@dataclass(frozen=True)
class FitResult:
    """Estimates and standard errors from one model fit.

    ``params`` maps parameter name to ``(estimate, stderr)``.  ``q_domain``
    records the fitted window (a t-range for survival-function fits, which
    share this container).  ``residual_norm`` is the sum of squared residuals
    of the minimized objective.  ``flags`` carries qualitative notes such as
    boundary hits.  Iterative fits also report the optimizer's function
    evaluations ``nfev`` and exit ``status``, and ``jac_cond``, the condition
    number of the weighted Jacobian at the solution (large values mean the
    standard errors rest on a nearly singular ``J^T J``); closed-form fits
    leave them ``None``.
    """

    params: dict[str, tuple[float, float]]
    q_domain: tuple[float, float]
    residual_norm: float
    converged: bool
    flags: tuple[str, ...] = ()
    nfev: int | None = None
    status: int | None = None
    jac_cond: float | None = None

    def __post_init__(self):
        lo, hi = self.q_domain
        if not lo < hi:
            raise ValueError("q_domain must be an increasing pair")
        if self.residual_norm < 0:
            raise ValueError("residual_norm must be nonnegative")

    def estimate(self, name: str) -> float:
        return self.params[name][0]

    def stderr(self, name: str) -> float:
        return self.params[name][1]


@dataclass(frozen=True)
class EventSeries:
    """Strictly positive interevent durations plus ingestion bookkeeping.

    ``dropped`` counts records removed per reason during ingestion.
    """

    durations: np.ndarray
    source: str = ""
    dropped: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.durations, dtype=float))
        object.__setattr__(self, "durations", d)
        if d.ndim != 1:
            raise ValueError("durations must be one-dimensional")
        if d.size and (not np.all(np.isfinite(d)) or np.any(d <= 0)):
            raise ValueError("every duration must be positive and finite")

    def __len__(self) -> int:
        return int(self.durations.size)


# ---------------------------------------------------------------------------
# Gamma-family special functions
# ---------------------------------------------------------------------------


def log_gamma(x: float) -> float:
    """``ln Gamma(x)`` for ``x > 0``."""
    if not x > 0:
        raise ModelDomainError("log_gamma requires x > 0")
    return float(scipy.special.gammaln(x))


def scaled_lower_incomplete_gamma(a: float, z: float) -> float:
    """``z**(-a) * gamma_lower(a, z)`` for ``a > 0``, ``z >= 0``.

    The scaled form stays finite for small z (limit ``1/a``), which is what
    the mixed-density closed forms consume directly.
    """
    if not a > 0:
        raise ModelDomainError("scaled lower incomplete gamma requires a > 0")
    if z < 0:
        raise ModelDomainError("z must be nonnegative")
    if z == 0.0:
        return 1.0 / a
    if z < a + 1.0:
        # power series: exp(-z) * sum_k z^k / (a (a+1) ... (a+k))
        term = 1.0 / a
        total = term
        k = 0
        while True:
            k += 1
            term *= z / (a + k)
            total += term
            if term < total * 1e-17 or k > 10_000:
                break
        return math.exp(-z) * total
    p = float(scipy.special.gammainc(a, z))
    return math.exp(scipy.special.gammaln(a) + math.log(p) - a * math.log(z))


def _scaled_upper_positive(a: float, z: float) -> float:
    # a > 0, z > 0
    q = float(scipy.special.gammaincc(a, z))
    if q > 0.0:
        return math.exp(scipy.special.gammaln(a) + math.log(q) - a * math.log(z))
    # q underflowed: leading asymptotic term z^(a-1) e^(-z) of the upper tail
    return math.exp(-z - math.log(z))


def scaled_upper_incomplete_gamma(a: float, z: float) -> float:
    """``z**(-a) * Gamma_upper(a, z)`` for ``z > 0`` and any real ``a``.

    Orders ``a <= 0`` are reached by the upward recurrence
    ``S(a) = (z * S(a+1) - exp(-z)) / a`` from a base order in ``(0, 1]``
    (or the exponential integral at order 0); the scaling keeps every
    intermediate bounded.
    """
    if not (z > 0 and math.isfinite(z)):
        raise ModelDomainError("scaled upper incomplete gamma requires z > 0")
    if a > 0:
        return _scaled_upper_positive(a, z)
    if a == 0.0:
        return float(scipy.special.exp1(z))
    # climb from base = a + m with m = ceil(-a) steps, base in (0, 1] or 0
    m = math.ceil(-a)
    base = a + m
    if base == 0.0:
        s = float(scipy.special.exp1(z))
    else:
        s = _scaled_upper_positive(base, z)
    ez = math.exp(-z)
    for j in range(1, m + 1):
        order = base - j
        s = (z * s - ez) / order
    return s


def lower_incomplete_gamma(a: float, z: float) -> float:
    """``gamma_lower(a, z) = int_0^z s^(a-1) e^(-s) ds`` for ``a > 0``, ``z >= 0``."""
    if not a > 0:
        raise ModelDomainError("lower incomplete gamma requires a > 0")
    if z < 0:
        raise ModelDomainError("z must be nonnegative")
    if z == 0.0:
        return 0.0
    return scaled_lower_incomplete_gamma(a, z) * math.exp(a * math.log(z))


def upper_incomplete_gamma(a: float, z: float) -> float:
    """``Gamma_upper(a, z) = int_z^inf s^(a-1) e^(-s) ds``.

    Accepts any real order ``a`` (negative orders, integer or not, via the
    scaled recurrence); requires ``z > 0`` when ``a <= 0`` since the integral
    diverges at the origin there.
    """
    if z == 0.0:
        if a > 0:
            return math.exp(scipy.special.gammaln(a))
        raise ModelDomainError("upper incomplete gamma diverges at z = 0 for a <= 0")
    if z < 0:
        raise ModelDomainError("z must be nonnegative")
    return scaled_upper_incomplete_gamma(a, z) * math.exp(a * math.log(z))


# ---------------------------------------------------------------------------
# Log-domain truncated quadrature (shared numeric plumbing)
# ---------------------------------------------------------------------------

_LOG_TRUNC_DROP = -math.log(1e-16)


def _bracket_peak(logf: Callable[[float], float], x_seed: float) -> tuple[float, float, float]:
    # walk uphill with doubling steps until the middle point dominates
    step = 1.0
    x0 = x_seed
    g0 = logf(x0)
    gl = logf(x0 - step)
    gr = logf(x0 + step)
    if g0 >= gl and g0 >= gr:
        return x0 - step, x0, x0 + step
    d = 1.0 if gr > gl else -1.0
    x_prev, g_prev = x0, g0
    x_cur = x0 + d * step
    g_cur = gr if d > 0 else gl
    for _ in range(400):
        step *= 2.0
        x_next = x_cur + d * step
        g_next = logf(x_next)
        if g_next < g_cur:
            triple = sorted((x_prev, x_cur, x_next))
            return triple[0], x_cur, triple[2]
        x_prev, g_prev = x_cur, g_cur
        x_cur, g_cur = x_next, g_next
    raise ArithmeticError("failed to bracket the integrand peak")


def _log_peak_quad(
    logf: Callable[[float], float],
    x_seed: float,
    rtol: float = 1e-10,
    kinks: tuple[float, ...] = (),
) -> float:
    """``ln int exp(logf(x)) dx`` for a unimodal log-integrand.

    Locates the peak from ``x_seed``, truncates where the integrand falls
    below 1e-16 of its peak, and integrates the rescaled exponent so the
    integrand is O(1).  ``kinks`` are points where logf is not smooth; the quadrature
    splits there, since a kink near the peak can pass its error estimate
    while missing ``rtol``.  Returns the log of the integral.
    """
    xa, xb, xc = _bracket_peak(logf, x_seed)
    res = scipy.optimize.minimize_scalar(
        lambda x: -logf(x), bracket=(xa, xb, xc), method="brent",
        options={"xtol": 1e-12},
    )
    x_peak = float(res.x)
    g_peak = float(-res.fun)
    if not math.isfinite(g_peak):
        raise ArithmeticError("integrand peak is not finite")

    def edge(direction: float) -> float:
        x = x_peak
        d = max(1.0, abs(x_peak)) * 0.5
        for _ in range(500):
            x_try = x + direction * d
            if logf(x_try) < g_peak - _LOG_TRUNC_DROP:
                return x_try
            x = x_try
            d *= 1.6
        raise ArithmeticError("failed to truncate the integration window")

    lo = edge(-1.0)
    hi = edge(+1.0)
    val, _err = scipy.integrate.quad(
        lambda x: math.exp(logf(x) - g_peak),
        lo,
        hi,
        points=sorted({x_peak, *(k for k in kinks if lo < k < hi)}),
        limit=200,
        epsabs=1e-300,
        epsrel=rtol,
    )
    if not val > 0:
        raise ArithmeticError("truncated quadrature returned a nonpositive value")
    return g_peak + math.log(val)


def _log_sinhc(x: float) -> float:
    # ln(sinh(x)/x), even in x, stable near 0 and for large |x|
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    if ax < 1e-4:
        return math.log1p(ax * ax / 6.0 + ax ** 4 / 120.0)
    if ax < 20.0:
        return math.log(math.sinh(ax) / ax)
    return ax - math.log(2.0 * ax) + math.log1p(-math.exp(-2.0 * ax))


def log_iq_quadrature(q: float, alpha: float, beta_sigma: float, rtol: float = 1e-10) -> float:
    """``ln I(q)`` with ``I(q) = int exp(-|y|^alpha + q*beta*sigma*y) dy``."""
    if not alpha > 1:
        raise DivergentMomentError(
            f"the generating integral converges only for alpha > 1 (got {alpha})"
        )
    if not (beta_sigma > 0 and math.isfinite(beta_sigma)):
        raise ModelDomainError("beta_sigma must be positive")
    if not math.isfinite(q):
        raise ModelDomainError("q must be finite")
    s = q * beta_sigma
    if s == 0.0:
        return math.log(2.0) + float(scipy.special.gammaln(1.0 + 1.0 / alpha))
    seed = math.copysign((abs(s) / alpha) ** (1.0 / (alpha - 1.0)), s)

    def logf(y: float) -> float:
        return -abs(y) ** alpha + s * y

    return _log_peak_quad(logf, seed, rtol=rtol, kinks=(0.0,))
