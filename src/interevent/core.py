"""Shared types, the weight families, and the stretched mixture integral.

The generative picture: each waiting period sits in a trap of depth ``eps``
drawn from a fixed weight density, and the waiting time is exponential with
mean ``tau(eps) = tau0 * exp(beta * eps)``.  Everything downstream (mixed
densities, q-moment laws, simulation, fitting) is parameterized by a
:class:`ModelParams` built from one of the four weight families below; only
the weight differs between models, so each family's class carries the formulas
the other modules call.

Every layer hands a family a whole grid: ``log_mgf`` takes an array of
arguments and ``mixture`` an array of times, psi at ``k = 1`` and Psi at
``k = 0``.  The closed forms are numpy on that array.  The stretched family's
psi, Psi and ln I(q), and the Laplace weight's psi and Psi (the stretched
weight at ``alpha = 1``), are one integral, :func:`_peak_nodes`, which takes
arrays of points: its peak and cut searches run on every point in lockstep, and
one tanh-sinh rule is summed over all their panels, ``_BLOCK`` points at a time.
A single point is a batch of one, and :func:`_shape_like` hands it back as a scalar.

Log-gamma values come from ``math.lgamma`` (through :func:`_lgamma`), and the
Uniform survival's exponential integral from :func:`_exp1`: the package needs
numpy only.
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
# calls: log_mgf(s) = ln E[exp(s eps)] on a 1-d array of s (DivergentMomentError
# where infinite), sample(rng, size), and mixture(x, tau0, beta, k), the integral
# E[tau(eps)**(-k) exp(-x/tau(eps))] on a 1-d array of times x >= 0: psi(x) at k = 1,
# Psi(x) at k = 0, each at x = 0 its limit.  Each is numpy on the whole array, with
# every branch evaluated on its own mask only; the stretched family integrates the
# grid at once.  Each family fixes its accuracy.


@dataclass(frozen=True)
class Delta:
    """Point mass at depth ``mu``: every trap has the same mean time."""

    mu: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ModelDomainError("mu must be finite")

    def log_mgf(self, s: np.ndarray) -> np.ndarray:
        return s * self.mu

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self.mu
        return np.full(size, self.mu, dtype=float)

    def mixture(self, x: np.ndarray, tau0: float, beta: float, k: int) -> np.ndarray:
        tau_mu = tau0 * math.exp(beta * self.mu)
        return np.exp(-x / tau_mu) / tau_mu ** k


# 1/(2k+1)! for k = 9, ..., 1: sinh(x)/x - 1 = x^2 polyval(_SINHC_SERIES, x^2) to 1e-19 below 1
_SINHC_SERIES = 1.0 / np.array([math.factorial(k) for k in range(19, 2, -2)], dtype=float)
# (-1)^(k+1)/(k k!) for k = 20, ..., 1, then 0: Ein(z) = polyval(_EIN_SERIES, z) to 2e-20 below 1
_EIN_SERIES = np.array([(-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(20, 0, -1)] + [0.0])
# backward terms of E1's continued fraction: at z = 1, 100 already reach the rounding floor
_EXP1_TERMS = 120


def _exp1(z: np.ndarray) -> np.ndarray:
    """``E1(z)`` on an array of ``z >= 0`` (``inf`` at 0): up to ``z = 1`` the series ``-gamma - ln z +
    Ein(z)`` (DLMF 6.6.2), above it the even continued fraction of DLMF 6.9.1, ``e^z E1(z) = 1/(z + 1
    - 1/(z + 3 - 4/(z + 5 - ...)))``, summed backward from ``_EXP1_TERMS`` terms.  Within 7e-16
    relative of 40-digit mpmath from ``z = 1e-300`` to 700, where ``e^-z`` is still a normal float."""
    out = np.empty(z.shape)
    small = z <= 1.0
    zs, zl = z[small], z[~small]
    with np.errstate(divide="ignore"):
        out[small] = np.polyval(_EIN_SERIES, zs) - np.log(zs) - np.euler_gamma
    f = zl + (2 * _EXP1_TERMS + 1)
    for k in range(_EXP1_TERMS, 0, -1):
        f = zl + (2 * k - 1) - k * k / f
    out[~small] = np.exp(-zl) / f
    return out


@dataclass(frozen=True)
class Uniform:
    """Flat density on ``[-half_width, half_width]``."""

    half_width: float

    def __post_init__(self):
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise ModelDomainError("half_width must be positive and finite")

    def log_mgf(self, s: np.ndarray) -> np.ndarray:
        # ln(sinh(x)/x) at x = |s| half_width: below x = 1 the ratio is too near 1 for its log, so
        # sinh(x)/x - 1 is a series; from x = 20 a form in which sinh does not overflow
        x = np.abs(s * self.half_width)
        return np.piecewise(x, [x < 1.0, x >= 20.0], [
            lambda x: np.log1p(x * x * np.polyval(_SINHC_SERIES, x * x)),
            lambda x: x - np.log(2.0 * x) + np.log1p(-np.exp(-2.0 * x)),
            lambda x: np.log(np.sinh(x) / x)])

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.uniform(-self.half_width, self.half_width, size)

    def mixture(self, x: np.ndarray, tau0: float, beta: float, k: int) -> np.ndarray:
        # two closed forms: psi an exp difference over x, Psi an E1 difference
        db = beta * self.half_width
        tau_plus = tau0 * math.exp(db)
        tau_minus = tau0 * math.exp(-db)
        if k:
            # exp(-x/tau_plus) (1 - exp(-u))/(2 db x) with u = x (1/tau_minus - 1/tau_plus): the rate
            # gap as 2 sinh(db)/tau0, which does not cancel, and its ratio to 2 db, sinh(db)/(db tau0),
            # formed before the exponential, so that neither underflows at narrow widths; a two-term
            # series of (1 - exp(-u))/u below u = 1e-8 avoids 0/0 at the origin
            ratio = (math.sinh(db) / db if db else 1.0) / tau0
            u = x * (2.0 * math.sinh(db) / tau0)
            return np.exp(-x / tau_plus) * np.piecewise(u, [u < 1e-8], [
                lambda u: ratio * (1.0 - 0.5 * u), lambda u: ratio * (-np.expm1(-u) / u)])
        out = np.ones(x.shape)
        if db < 1e-3:
            # below db = 1e-3 the E1 difference cancels; integrate exp(-x/tau(eps)) on tanh-sinh
            # nodes, _BLOCK times at a time
            rates = np.exp(-db * _TS_NODES) / tau0
            pos = x > 0.0
            xp = x[pos]
            for i in range(0, xp.size, _BLOCK):
                rows = np.exp(np.multiply.outer(-xp[i:i + _BLOCK], rates))
                xp[i:i + _BLOCK] = (rows * _TS_WEIGHTS).sum(1)
            out[pos] = xp / 2.0
        else:
            # 1 - Psi <= x/tau_minus, so Psi is 1 below x/tau_minus = 1e-17, where x/tau_plus may be a
            # subnormal (or 0) whose log has lost its digits
            pos = x / tau_minus >= 1e-17
            out[pos] = (_exp1(x[pos] / tau_plus) - _exp1(x[pos] / tau_minus)) / (2.0 * db)
        return out


@dataclass(frozen=True)
class Laplace:
    """Two-sided exponential density ``exp(-|eps|/sigma) / (2 sigma)``."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ModelDomainError("sigma must be positive and finite")

    def log_mgf(self, s: np.ndarray) -> np.ndarray:
        reach = np.abs(s) * self.sigma
        if np.any(reach >= 1.0):
            raise DivergentMomentError(
                f"Laplace-weight moment diverges for |q|*beta*sigma = {reach[reach >= 1.0][0]} >= 1"
            )
        return -np.log1p(-((s * self.sigma) ** 2))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.laplace(0.0, self.sigma, size)

    def mixture(self, x: np.ndarray, tau0: float, beta: float, k: int) -> np.ndarray:
        # the stretched weight's rule at alpha = 1; at x/tau0 = 0 (x = 0, or x/tau0 underflowing) the
        # exact limits: psi's 1/(tau0 (1 - sb^2)), infinite from sb = 1, and Psi's 1
        out = StretchedExp(0.0, self.sigma, 1.0).mixture(x, tau0, beta, k)
        sb = beta * self.sigma
        out[x / tau0 == 0.0] = (1.0 / (tau0 * (1.0 - sb * sb)) if sb < 1 else math.inf) if k else 1.0
        return out


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

    def log_mgf(self, s: np.ndarray) -> np.ndarray:
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

    def mixture(self, x: np.ndarray, tau0: float, beta: float, k: int) -> np.ndarray:
        # in y = (eps - mu)/sigma, tau**(-k) is the shift k bs y and the factor scale**(-k); Psi takes
        # no log of the scale, which may overflow.  At c = 0 (x = 0, or x / scale underflowing)
        # psi is inf where it diverges and is integrated elsewhere, and Psi is 1
        bs = beta * self.sigma
        scale = tau0 * math.exp(beta * self.mu)
        log_pref = -self.log_norm - (math.log(scale) if k else 0.0)
        diverges_at_0 = self.alpha < 1.0 or (self.alpha == 1.0 and bs >= 1.0)
        c = x / scale
        out = np.full(c.shape, math.inf if k else 1.0)
        finite = (c > 0.0) | bool(k and not diverges_at_0)
        out[finite] = np.exp(_log_peak_quad(self.alpha, k * bs, c[finite], bs) + log_pref)
        return out


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

    def log_norm_moment(self, q: np.ndarray) -> np.ndarray:
        """``ln(<t^q> / Gamma(1+q)) = q ln(tau0) + ln E[exp(q beta eps)]`` elementwise on an array
        of orders: exact 0 at q = 0, one ``log_mgf`` call on the others."""
        out = np.zeros(q.shape)
        nz = q != 0.0
        if nz.any():  # <t^0> = 1 also where every other moment diverges
            out[nz] = q[nz] * math.log(self.tau0) + self.weight.log_mgf(q[nz] * self.beta)
        return out


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
        for name in ("stderr", "n_eff"):
            if getattr(self, name) is None:
                continue
            col = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, col)
            if col.shape != q.shape:
                raise ValueError(f"{name} must match the q grid")
            if not np.all(col >= 0):
                raise ValueError(f"{name} must be nonnegative and not NaN")

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
# Log-gamma and shape helpers
# ---------------------------------------------------------------------------


def _lgamma(x: float) -> float:
    """``math.lgamma(x)``, but ``inf`` where it overflows (``x`` above about 2.56e305)."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _lgamma1p(q: np.ndarray) -> np.ndarray:
    """``ln Gamma(1 + q)`` elementwise on an array of orders, through :func:`_lgamma`."""
    return np.array(list(map(_lgamma, (q.ravel() + 1.0).tolist()))).reshape(q.shape)


def _shape_like(values, arr: np.ndarray):
    """``values`` in the shape of ``arr``, or a Python ``float``/``int``/``bool`` where ``arr`` is
    0-d: every public entry point computes on a 1-d array, and a scalar is a batch of one."""
    values = np.asarray(values)
    return values.item() if arr.ndim == 0 else values.reshape(arr.shape)


# ---------------------------------------------------------------------------
# The stretched mixture integral
# ---------------------------------------------------------------------------

# tanh-sinh rule on [-1, 1] (Takahasi & Mori 1974): step h = 1/16, |kh| <= 4
_TS_KH = np.arange(-64, 65) / 16.0
_TS_NODES = np.tanh(0.5 * math.pi * np.sinh(_TS_KH))
_TS_WEIGHTS = (math.pi / 32.0) * np.cosh(_TS_KH) / np.cosh(0.5 * math.pi * np.sinh(_TS_KH)) ** 2
# each side is cut where its log-integrand falls this far below its peak
_LOG_CUT = 40.0
# points per _peak_nodes call: a point has at most 2 sides x 3 panels x 129 nodes, 6 KB per
# array, and a block holds about four such arrays at once (about 3 MiB at this size)
_BLOCK = 128


def _crossing(f, x, step, level, tol):
    """Where ``f(v)[0]`` crosses ``level`` on each row, with ``f(v)[1]`` its slope.

    Every row walks from ``x`` in doubling steps until its value changes side
    of ``level``, then takes Newton steps from the nearer end of that bracket,
    bisecting whenever one leaves the bracket or fails to halve the last step,
    until a step is below ``tol * (1 + |v|)``.  The rows move in lockstep; a
    row that has finished keeps its values.
    """
    fx, sx = f(x)
    above = fx >= level
    walking = np.ones(x.shape, dtype=bool)
    v = x
    for _ in range(64):
        v = np.where(walking, x + step, v)
        fv, sv = f(v)
        walking &= (fv >= level) == above
        if not walking.any():
            break
        x, fx, sx = np.where(walking, v, x), np.where(walking, fv, fx), np.where(walking, sv, sx)
        step = np.where(walking, 2.0 * step, step)
    else:
        raise ArithmeticError("found no crossing of the log-integrand")
    a, b, dx = x, v, np.abs(step)
    near = np.abs(fx - level) < np.abs(fv - level)
    v, fv, sv = np.where(near, x, v), np.where(near, fx, fv), np.where(near, sx, sv)
    out, live = v.copy(), np.ones(v.shape, dtype=bool)
    for _ in range(100):
        t = np.where((sv != 0.0) & np.isfinite(sv), v - (fv - level) / sv, np.nan)
        inside = (np.minimum(a, b) <= t) & (t <= np.maximum(a, b)) & (np.abs(t - v) <= 0.5 * dx)
        t = np.where(inside, t, 0.5 * (a + b))
        done = live & (np.abs(t - v) <= tol * (1.0 + np.abs(v)))
        out[done] = t[done]
        live &= ~done
        if not live.any():
            return out
        dx, v = np.where(live, np.abs(t - v), dx), np.where(live, t, v)
        fv, sv = f(v)
        same = (fv >= level) == above
        a, b = np.where(live & same, v, a), np.where(live & ~same, v, b)
    out[live] = v[live]
    return out


def _c_rise(log_e0, x):
    # c e^(-bs y) - c e^(-bs y0) = e0 expm1(x), for ln e0 = ln c - bs y0 and x = -bs (y - y0):
    # expm1 keeps the digits where e0 reaches 1e17; where x > 1 nothing cancels, and the plain
    # difference keeps the digits of an e0 that underflows, with ln e capped at 700 as in the
    # slopes, so that a Newton step in a far walk sees a value and a slope that agree.  x is
    # overwritten, which keeps a block of panels to about four arrays
    e0 = np.exp(log_e0)
    out = np.minimum(x, 1.0)
    np.expm1(out, out=out)
    out *= e0
    big = x > 1.0
    x += log_e0
    np.minimum(x, 700.0, out=x)
    np.exp(x, out=x)
    x -= e0
    np.copyto(out, x, where=big)
    return out


def _peak_nodes(alpha: float, shift, c, bs: float):
    """``(g_max, y, w, point)`` with ``np.bincount(point, (w * f(y)).sum(1)) = exp(-g_max) int f(y)
    exp(g(y)) dy`` over the real line at each point, to the rule's accuracy, for
    ``g(y) = -|y|**alpha - shift*y - c*exp(-bs*y)``, ``c >= 0`` and ``shift``, ``c`` 1-d arrays
    (or scalars) that broadcast against each other.

    Each half-line is mapped to ``v = ln|y|``, which removes the kink of
    ``|y|**alpha`` at 0; the log-integrand ``G(v)`` is unimodal on each side
    for ``alpha > 1``.  Its peak is found by safeguarded Newton, each side is
    cut where ``G`` falls ``_LOG_CUT`` below the peak and split at the peak
    and where the ``c`` term turns over (a step for small ``alpha``, and the
    edge of the second mode that ``alpha < 1`` can give).  The searches run
    on every point and side at once, in lockstep.  One fixed tanh-sinh rule
    is summed over the panels, with ``G`` taken relative to its peak
    ``g_max`` so that nothing cancels where ``|G|`` is large.  ``y`` and
    ``w`` hold one row of signed nodes and weights per panel, and ``point``
    the point each panel belongs to; a point has two to six panels.
    Callers pass at most ``_BLOCK`` points per call, which bounds the memory.
    """
    shift, c = np.broadcast_arrays(np.atleast_1d(np.asarray(shift, dtype=float)),
                                   np.atleast_1d(np.asarray(c, dtype=float)))
    alpha, bs = float(alpha), float(bs)
    # one row per point and side: point i's negative side is row 2i, its positive side 2i + 1
    side = np.tile([-1.0, 1.0], c.size)
    shift, c = np.repeat(shift, 2), np.repeat(c, 2)
    any_c = bool(np.any(c > 0.0))
    with np.errstate(divide="ignore"):
        log_c = np.log(c)  # -inf at c = 0, where the c term vanishes

    def slopes(y, ya, lc, sh, second=True):
        # G' and, if second, G'' at y, where |y|**alpha = ya
        d1 = 1.0 - alpha * ya - sh * y
        if any_c:
            bye = bs * y * np.exp(np.minimum(lc - bs * y, 700.0))
            d1 = d1 + bye
        if not second:
            return d1
        d2 = -alpha * alpha * ya - sh * y
        return d1, (d2 + bye * (1.0 - bs * y) if any_c else d2)

    # capped exponents keep walks far past the peak finite; the products there may still
    # overflow to inf or meet 0 * inf, which the searches read as a crossing or a bisection
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        def slope(v):
            return slopes(side * np.exp(np.minimum(v, 700.0)), np.exp(np.minimum(alpha * v, 700.0)),
                          log_c, shift)

        zero = np.zeros(side.size)
        # the peak places panel ends, and the weights are taken relative to the top node, so it
        # needs no more than a step of 1e-8
        vp = _crossing(slope, zero, np.where(slope(zero)[0] >= 0.0, 1.0, -1.0), 0.0, 1e-8)
        yp, ap = side * np.exp(vp), np.exp(alpha * vp)
        log_ep = log_c - bs * yp
        gp = vp - ap - shift * yp - np.exp(log_ep)
        g2 = slope(vp)[1]
        g_max = np.maximum(gp[0::2], gp[1::2])
        # a side below the other side's peak by more than the cut has no panel
        r = np.flatnonzero(~(gp < np.repeat(g_max, 2) - _LOG_CUT))
        # both cuts of every live side in one search, the lower ones first
        y0, a0, le0, sh, lc = (np.tile(p[r], 2) for p in (yp, ap, log_ep, shift, log_c))
        has_c = lc > -np.inf

        def value(w):
            wc, aw = np.minimum(w, 700.0), np.minimum(alpha * w, 700.0)
            em1 = np.expm1(wc)
            y, ya = y0 * np.exp(wc), a0 * np.exp(aw)
            d = wc - a0 * np.expm1(aw) - sh * y0 * em1
            if any_c:
                d = d - np.where(has_c, _c_rise(le0, -bs * y0 * em1), 0.0)
            return d, slopes(y, ya, lc, sh, second=False)

        g2r = g2[r]
        d = np.where(g2r < 0.0, np.sqrt(2.0 * _LOG_CUT / np.abs(g2r)), 1.0)
        # a first step below the spacing of floats at v_peak might not reach in 64 doublings a
        # peak that sits between two floats.  Toward y = 0 (w < 0) G rises with slope near 1, so
        # the inner walk starts at the cut's depth.  A cut off by 1e-4 moves a panel end where the
        # integrand is e^-40 of its peak
        d = np.maximum(d, 1e-15 * (1.0 + np.abs(vp[r])))
        cuts = _crossing(value, np.zeros(2 * r.size), np.concatenate([-np.maximum(d, _LOG_CUT), d]),
                         -_LOG_CUT, 1e-4)
        lo, hi = cuts[:r.size], cuts[r.size:]
        mid = np.zeros((2, r.size))
        if any_c:
            # the c term turns over near |y| = max(1, |ln c|)/bs
            wt = np.log(np.maximum(1.0, side[r] * log_c[r]) / bs) - vp[r]
            split = (c[r] > 0.0) & (lo < wt) & (wt < hi) & (wt != 0.0)
            mid = np.where(split, [np.minimum(wt, 0.0), np.maximum(wt, 0.0)], 0.0)
    # panels [lo, m1], [m1, m2], [m2, hi] of each live side, less the empty middle one
    edges = np.stack([lo, mid[0], mid[1], hi], axis=1)
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    keep = b > a
    a, b, row = a[keep], b[keep], np.repeat(r, 3)[keep]
    # the same rule on every panel, in w = v - v_peak, one row of nodes per panel; the arrays
    # are reused in place, so that a block holds about four of them at a time
    half = (0.5 * (b - a))[:, None]
    w = half * _TS_NODES
    w += (0.5 * (a + b))[:, None]
    g = np.multiply(alpha, w)
    np.expm1(g, out=g)
    g *= -ap[row, None]
    g += w
    e = np.expm1(w)
    x = e * (-bs * yp[row])[:, None] if any_c else None
    e *= (shift[row] * yp[row])[:, None]
    g -= e
    del e
    if any_c:
        g -= _c_rise(log_ep[row, None], x)
    # each point's weights are taken relative to its top node.  The panel ends are nodes, so
    # that is the peak, 0, unless the peak is narrower than the spacing of floats at v_peak
    # (|G''| above about 1e31, where G(v_peak) < -1e28): G about v_peak then has a linear term
    # that lifts nodes far above it, and exp would overflow
    point = row // 2
    off = gp[row] - g_max[point]
    top = np.full(g_max.size, -np.inf)
    np.maximum.at(top, point, off + g.max(axis=1))
    g += (off - top[point])[:, None]
    weights = np.exp(g, out=g)
    weights *= half
    weights *= _TS_WEIGHTS
    y = np.exp(w, out=w)
    y *= yp[row, None]
    return g_max + top, y, weights, point


def _log_peak_quad(alpha: float, shift, c, bs: float, f=None):
    """``ln int exp(g(y)) dy`` at each point, for :func:`_peak_nodes`' log-integrand ``g``, in blocks
    of ``_BLOCK`` points.  Given ``f(y, c)``, functions of the nodes ``y`` and their rows' points'
    ``c``, also the means of each under ``exp(g)`` on the same nodes, one row per function."""
    shift, c = np.broadcast_arrays(np.atleast_1d(np.asarray(shift, dtype=float)),
                                   np.atleast_1d(np.asarray(c, dtype=float)))
    out, means = np.empty(c.shape), []
    for i in range(0, c.size, _BLOCK):
        g_max, y, w, point = _peak_nodes(alpha, shift[i:i + _BLOCK], c[i:i + _BLOCK], bs)
        total = np.bincount(point, w.sum(axis=1), g_max.size)
        out[i:i + _BLOCK] = g_max + np.log(total)
        if f is not None:
            means.append([np.bincount(point, (w * v).sum(axis=1), g_max.size) / total
                          for v in f(y, c[i + point])])
    return out if f is None else (out, np.concatenate(means, axis=1))


def log_iq_quadrature(q, alpha: float, beta_sigma: float):
    """``ln I(q)`` with ``I(q) = int exp(-|y|^alpha + q*beta*sigma*y) dy``, for a scalar ``q``
    or elementwise for an array of orders, all of them in one quadrature call per block."""
    if not alpha > 1:
        raise DivergentMomentError(
            f"the generating integral converges only for alpha > 1 (got {alpha})"
        )
    if not (beta_sigma > 0 and math.isfinite(beta_sigma)):
        raise ModelDomainError("beta_sigma must be positive")
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ModelDomainError("q must be finite")
    s = q.ravel() * beta_sigma
    out = np.full(s.shape, math.log(2.0) + math.lgamma(1.0 + 1.0 / alpha))
    out[s != 0.0] = _log_peak_quad(alpha, -s[s != 0.0], 0.0, 0.0)
    return _shape_like(out, q)
