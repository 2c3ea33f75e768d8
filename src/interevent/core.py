"""Shared types, the weight families, and gamma-family special functions.

The generative picture: each waiting period sits in a trap of depth ``eps``
drawn from a fixed weight density, and the waiting time is exponential with
mean ``tau(eps) = tau0 * exp(beta * eps)``.  Everything downstream (mixed
densities, q-moment laws, simulation, fitting) is parameterized by a
:class:`ModelParams` built from one of the four weight families below; only
the weight differs between models, so each family's class carries the formulas
the other modules call.

Log-gamma values come from ``math.lgamma`` (through :func:`_lgamma`).  No
module of the package imports ``scipy`` at import time: only the Uniform
survival kernel and the scaled incomplete gammas of the Laplace closed forms
call SciPy (``exp1``, ``gammainc``, ``gammaincc``), and they import
``scipy.special`` where they call it.  ``import interevent``, ``simulate``,
``estimate``, every fit and the stretched family's quadrature therefore load
no SciPy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

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
    """A power series ended with its tail bound above float64 epsilon of its sum."""


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
            from scipy.special import exp1

            return (float(exp1(x / tau_plus)) - float(exp1(x / tau_minus))) / (2.0 * db)

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
        return math.log(2.0) + _lgamma(1.0 + 1.0 / self.alpha)

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

    def ptd_kernel(self, tau0: float, beta: float):
        alpha = self.alpha
        bs = beta * self.sigma
        scale = tau0 * math.exp(beta * self.mu)
        log_pref = -self.log_norm - math.log(scale)

        def kernel(x: float) -> float:
            c = x / scale
            if c == 0.0 and (alpha < 1.0 or (alpha == 1.0 and bs >= 1.0)):
                return math.inf
            return math.exp(_log_peak_quad(alpha, bs, c, bs) + log_pref)

        return kernel

    def sojourn_kernel(self, tau0: float, beta: float):
        bs = beta * self.sigma
        scale = tau0 * math.exp(beta * self.mu)
        log_norm = self.log_norm

        def kernel(x: float) -> float:
            if x == 0.0:
                return 1.0
            return math.exp(_log_peak_quad(self.alpha, 0.0, x / scale, bs) - log_norm)

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


def _lgamma(x: float) -> float:
    """``math.lgamma(x)``, but ``inf`` where it overflows (``x`` above about 2.56e305)."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


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
    from scipy.special import gammainc

    p = float(gammainc(a, z))
    return math.exp(_lgamma(a) + math.log(p) - a * math.log(z))


def _scaled_upper_positive(a: float, z: float) -> float:
    # a > 0, z > 0
    from scipy.special import gammaincc

    q = float(gammaincc(a, z))
    if q > 0.0:
        return math.exp(_lgamma(a) + math.log(q) - a * math.log(z))
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
    from scipy.special import exp1

    if a == 0.0:
        return float(exp1(z))
    # climb from base = a + m with m = ceil(-a) steps, base in (0, 1] or 0
    m = math.ceil(-a)
    base = a + m
    if base == 0.0:
        s = float(exp1(z))
    else:
        s = _scaled_upper_positive(base, z)
    ez = math.exp(-z)
    for j in range(1, m + 1):
        order = base - j
        s = (z * s - ez) / order
    return s


# ---------------------------------------------------------------------------
# The stretched mixture integral
# ---------------------------------------------------------------------------

# tanh-sinh rule on [-1, 1] (Takahasi & Mori 1974): step h = 1/16, |kh| <= 4
_TS_KH = np.arange(-64, 65) / 16.0
_TS_NODES = np.tanh(0.5 * math.pi * np.sinh(_TS_KH))
_TS_WEIGHTS = (math.pi / 32.0) * np.cosh(_TS_KH) / np.cosh(0.5 * math.pi * np.sinh(_TS_KH)) ** 2
# each side is cut where its log-integrand falls this far below its peak
_LOG_CUT = 40.0


def _crossing(f, x: float, step: float, level: float) -> float:
    """Where ``f(v)[0]`` crosses ``level``, with ``f(v)[1]`` its slope.

    Walks from ``x`` in doubling steps until the value changes side of
    ``level``, then takes Newton steps from the nearer end of that bracket,
    bisecting whenever one leaves the bracket or fails to halve the last step.
    """
    fx, sx = f(x)
    above = fx >= level
    for _ in range(64):
        v = x + step
        fv, sv = f(v)
        if (fv >= level) != above:
            break
        x, fx, sx, step = v, fv, sv, 2.0 * step
    else:
        raise ArithmeticError("found no crossing of the log-integrand")
    a, b, dx = x, v, abs(step)
    if abs(fx - level) < abs(fv - level):
        v, fv, sv = x, fx, sx
    for _ in range(100):
        t = v - (fv - level) / sv if sv and math.isfinite(sv) else math.nan
        if not (min(a, b) <= t <= max(a, b) and abs(t - v) <= 0.5 * dx):
            t = 0.5 * (a + b)
        if abs(t - v) <= 1e-12 * (1.0 + abs(v)):
            return t
        dx, v = abs(t - v), t
        fv, sv = f(v)
        if (fv >= level) == above:
            a = v
        else:
            b = v
    return v


def _peak_nodes(alpha: float, shift: float, c: float, bs: float):
    """``(g_max, y, w)`` with ``sum(w * f(y)) = exp(-g_max) int f(y) exp(g(y)) dy`` over the real
    line, to the rule's accuracy, for ``g(y) = -|y|**alpha - shift*y - c*exp(-bs*y)`` and ``c >= 0``.

    Each half-line is mapped to ``v = ln|y|``, which removes the kink of
    ``|y|**alpha`` at 0; the log-integrand ``G(v)`` is unimodal on each side
    for ``alpha > 1``.  Its peak is found by safeguarded Newton, each side is
    cut where ``G`` falls ``_LOG_CUT`` below the peak and split at the peak
    and where the ``c`` term turns over (a step for small ``alpha``, and the
    edge of the second mode that ``alpha < 1`` can give).  One fixed
    tanh-sinh rule is summed over the panels, with ``G`` taken relative to
    its peak ``g_max`` so that nothing cancels where ``|G|`` is large.
    """
    # as Python floats, products in walks far past the peak overflow to -inf quietly
    alpha, shift, c, bs = float(alpha), float(shift), float(c), float(bs)
    log_c = math.log(c) if c else 0.0

    def logf(w: float, y0: float, a0: float, e0: float) -> tuple[float, float, float]:
        # G(v0 + w) - G(v0), G' and G'' about a point v0 where y = y0, |y|**alpha = a0 and
        # c*exp(-bs*y) = e0; expm1 keeps the power and linear terms, which reach 1e17 in
        # ln I(q), from cancelling, and capped exponents keep far walks finite
        w, aw = min(w, 700.0), min(alpha * w, 700.0)
        y, ya = y0 * math.exp(w), a0 * math.exp(aw)
        d = w - a0 * math.expm1(aw) - shift * y0 * math.expm1(w)
        d1, d2 = 1.0 - alpha * ya - shift * y, -alpha * alpha * ya - shift * y
        if c:
            e = math.exp(min(log_c - bs * y, 700.0))
            d, d1, d2 = d - e + e0, d1 + bs * y * e, d2 + bs * y * e * (1.0 - bs * y)
        return d, d1, d2

    peaks = []
    for side in (-1.0, 1.0):
        # slopes about v0 = 0, where y = side; they do not depend on e0
        slope = lambda v: logf(v, side, 1.0, 0.0)[1:]  # noqa: E731
        vp = _crossing(slope, 0.0, 1.0 if slope(0.0)[0] >= 0.0 else -1.0, 0.0)
        yp = side * math.exp(vp)
        at = (yp, math.exp(alpha * vp), math.exp(log_c - bs * yp) if c else 0.0)
        peaks.append((side, vp, at, vp - at[1] - shift * yp - at[2], slope(vp)[1]))
    g_max = max(p[3] for p in peaks)
    panels = []
    for side, vp, at, gp, g2 in peaks:
        if gp < g_max - _LOG_CUT:
            continue  # below the other side's peak by more than the cut
        value = lambda w: logf(w, *at)[:2]  # noqa: E731
        d = math.sqrt(2.0 * _LOG_CUT / -g2) if g2 < 0.0 else 1.0
        cuts = [_crossing(value, 0.0, -d, -_LOG_CUT), 0.0, _crossing(value, 0.0, d, -_LOG_CUT)]
        if c:
            # the c term turns over near |y| = max(1, |ln c|)/bs
            wt = math.log(max(1.0, side * log_c) / bs) - vp
            if cuts[0] < wt < cuts[2] and wt != 0.0:
                cuts = sorted(cuts + [wt])
        panels += [(a, b, *at, gp - g_max) for a, b in zip(cuts, cuts[1:])]
    # the same rule on every panel, in w = v - v_peak
    a, b, yp, ap, ep, off = (np.array(col)[:, None] for col in zip(*panels))
    w = 0.5 * (a + b) + 0.5 * (b - a) * _TS_NODES
    g = off + w - ap * np.expm1(alpha * w) - shift * yp * np.expm1(w)
    if c:
        g -= np.exp(log_c - bs * yp * np.exp(w)) - ep
    return g_max, yp * np.exp(w), 0.5 * (b - a) * _TS_WEIGHTS * np.exp(g)


def _log_peak_quad(alpha: float, shift: float, c: float, bs: float) -> float:
    """``ln int exp(g(y)) dy`` for :func:`_peak_nodes`' log-integrand ``g``."""
    g_max, _y, w = _peak_nodes(alpha, shift, c, bs)
    return g_max + math.log(float(np.sum(w)))


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


def log_iq_quadrature(q: float, alpha: float, beta_sigma: float) -> float:
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
        return math.log(2.0) + math.lgamma(1.0 + 1.0 / alpha)
    return _log_peak_quad(alpha, -s, 0.0, 0.0)
