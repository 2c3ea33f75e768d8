"""Parameter estimation on q-moment curves and survival functions.

Each fitted law is a frozen dataclass whose fields are its parameters in fit
order, carrying three members: ``bounds``, the box its fit searches;
``initial(x, y, w)``, its start from the data; and ``linearize(x)``, its values
and analytic Jacobian from one set of intermediates.  ``MFParams`` and
``HMFParams`` give the normalized log curve ``y(q) = ln(<t^q>/Gamma(1+q))``;
:class:`QExponential`, :class:`Weibull` and :class:`StretchedSojourn` give
``ln Psi(t)``.  Every iterative fit runs through :func:`_nls`, which starts at
``law.initial`` and linearizes the law once per trial point, and
:func:`least_squares`, a projected Levenberg-Marquardt method in numpy taking
each trial's residuals and Jacobian from one call, stopping at relative step
1e-10 or ``_MAX_NFEV`` (500) evaluations.
The MF and HMF residuals are weighted by inverse squared standard errors when
the curve carries them; the monofractal regression and the survival residuals
are unweighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _EXPORTS
from .core import FitResult, ModelDomainError, ModelParams, QMomentCurve, StretchedExp, _log_peak_quad
from .densities import sojourn as _sojourn  # noqa: F401  kept for bench/workloads.py, which patches this name
from .moments import HMFParams, MFParams

__all__ = list(_EXPORTS["fitting"])


# ---------------------------------------------------------------------------
# Survival models
# ---------------------------------------------------------------------------


class _SurvivalLaw:
    """``log_survival(t)``, the values half of a law's ``linearize(t)``."""

    def log_survival(self, t):
        return self.linearize(t)[0]


@dataclass(frozen=True)
class QExponential(_SurvivalLaw):
    """Survival ``[1 + m (q_ts - 1) t]**(-1/(q_ts - 1))`` with ``q_ts > 1``."""

    m: float
    q_ts: float

    bounds = ((1e-12, 1.0 + 1e-9), (np.inf, 100.0))

    def __post_init__(self):
        if not self.m > 0:
            raise ModelDomainError("m must be positive")
        if not self.q_ts > 1:
            raise ModelDomainError("q_ts must exceed 1")

    def linearize(self, t):
        k, t = self.q_ts - 1.0, np.asarray(t, dtype=float)
        u = self.m * k * t
        log1p = np.log1p(u)
        return -log1p / k, np.column_stack([-t / (1.0 + u), (log1p - u / (1.0 + u)) / k ** 2])

    @staticmethod
    def initial(t, y, w):
        """``m`` from the slope of ``ln Psi`` up to its first point below ``y[0]``
        (an empirical survival can tie over its first points), and ``q_ts = 1.5``."""
        moved = np.flatnonzero(y < y[0])
        slope0 = -(y[moved[0]] - y[0]) / (t[moved[0]] - t[0]) if moved.size else 1.0
        return (max(slope0, 1e-6), 1.5)


@dataclass(frozen=True)
class Weibull(_SurvivalLaw):
    """Survival ``exp(-a t**c)``."""

    a: float
    c: float

    bounds = ((1e-12, 1e-12), (np.inf, np.inf))

    def __post_init__(self):
        if not (self.a > 0 and self.c > 0):
            raise ModelDomainError("a and c must be positive")

    def linearize(self, t):
        t = np.asarray(t, dtype=float)
        tc = t ** self.c
        log_t = np.log(t, out=np.zeros(t.shape), where=t > 0)
        return -self.a * tc, np.column_stack([-tc, -self.a * tc * log_t])

    @staticmethod
    def initial(t, y, w):
        """``(a, c)`` from a line through ``ln(-ln Psi)`` against ``ln t``."""
        init_mask = (y < 0) & (t > 0)
        if int(init_mask.sum()) < 2:
            return (1.0, 1.0)
        slope, intercept = np.polyfit(np.log(t[init_mask]), np.log(-y[init_mask]), 1)
        return float(np.clip(math.exp(intercept), 1e-10, 1e10)), float(np.clip(slope, 1e-3, 50.0))


@dataclass(frozen=True)
class StretchedSojourn(_SurvivalLaw):
    """The mixed model's own (numerically integrated) survival function, named
    by the moment-law parameters of its stretched weight (see :attr:`params`)."""

    alpha: float
    b: float
    c0: float

    bounds = ((1.05, 1e-9, -np.inf), (6.0, 1e3, np.inf))

    def __post_init__(self):
        if not (1 < self.alpha < math.inf and 0 < self.b < math.inf and math.isfinite(self.c0)):
            raise ModelDomainError("need alpha > 1, b > 0 and all three finite")

    @property
    def params(self) -> ModelParams:
        """The mixture: ``sigma = alpha (b/(alpha-1))**((alpha-1)/alpha)``, ``tau0 = e**c0``."""
        alpha = self.alpha
        bs = alpha * (self.b / (alpha - 1.0)) ** ((alpha - 1.0) / alpha)
        weight = StretchedExp(mu=0.0, sigma=bs, alpha=alpha)
        return ModelParams(weight=weight, tau0=math.exp(self.c0), beta=1.0)

    def linearize(self, t):
        """``ln Psi`` (by the steps of :func:`.densities.sojourn`) and its Jacobian on one node set
        of :func:`_log_peak_quad` at ``c = [0, t/tau0]``.  With ``E_c`` the mean on the nodes at
        ``c`` and ``bs = beta sigma``: ``d/dc0 = E_c[c e^(-bs y)]``, ``d/dln bs = bs E_c[c y e^(-bs y)]``,
        and at fixed ``bs`` ``d/dalpha = E_0[|y|^alpha ln|y|] - E_c[|y|^alpha ln|y|]``, chained
        through ``bs(alpha, b)``."""
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t) & (t >= 0.0)):
            raise ModelDomainError("t must be finite and nonnegative")
        alpha, weight = self.alpha, self.params.weight
        bs = weight.sigma

        def f(y, c):
            e, ay = c[:, None] * np.exp(-bs * y), np.abs(y)
            return ay ** alpha * np.log(ay), bs * e * y, e

        log_i, m = _log_peak_quad(alpha, 0.0, np.concatenate([[0.0], t / math.exp(self.c0)]), bs, f)
        psi = np.clip(np.where(t > 0.0, np.exp(log_i[1:] - weight.log_norm), 1.0), 0.0, 1.0)
        d_alpha, d_log_bs = m[0, 0] - m[0, 1:], m[1, 1:]
        jac = np.column_stack([d_alpha + d_log_bs * math.log(self.b / (alpha - 1.0)) / alpha ** 2,
                               d_log_bs * (alpha - 1.0) / (alpha * self.b), m[2, 1:]])
        return np.log(psi), jac

    @staticmethod
    def initial(t, y, w):
        """Shape 1.8, curvature 0.3, and ``c0`` at the time where the data
        crosses 1/e.  The numeric survival needs ``t > 0``."""
        if np.any(t <= 0):
            raise ValueError("the numeric survival fit needs t > 0")
        crossing = int(np.argmin(np.abs(np.exp(y) - math.exp(-1.0))))
        return (1.8, 0.3, float(np.log(t[crossing])))


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
    weighted = curve.stderr is not None
    w = 1.0 / np.maximum(curve.stderr[mask], 1e-15) ** 2 if weighted else np.ones_like(q)
    domain = (max(lo, float(curve.q_grid[0])), min(hi, float(curve.q_grid[-1])))
    return q, y, w, weighted, domain


# a trial is accepted while its cost rises by no more than 16 eps of the cost (rounding)
_ROUNDING_RISE = -16.0 * np.finfo(float).eps
_MAX_NFEV = 500


@dataclass(frozen=True)
class LeastSquaresResult:
    """Where :func:`least_squares` stopped: the estimate ``x``, half the sum of
    squared residuals ``cost``, the Jacobian ``jac`` at ``x``, the evaluations
    ``nfev`` it made, the Jacobians ``njev`` its steps used (the start's and
    each accepted trial's), and ``status`` 3 (relative step at most 1e-10) or
    0 (``_MAX_NFEV`` evaluations used up)."""

    x: np.ndarray
    cost: float
    jac: np.ndarray
    nfev: int
    njev: int
    status: int


def least_squares(fun, x0, bounds) -> LeastSquaresResult:
    """Minimize ``0.5 |fun(x)|^2`` within the box ``bounds = (lo, hi)`` by
    projected Levenberg-Marquardt (Marquardt 1963; Moré 1978).

    Each step solves ``(J^T J + lam D) p = -J^T f`` over the parameters not
    held at a bound by the gradient, with ``D = diag(J^T J)`` at the current
    point, and clips ``x + p`` to the box.  A trial whose cost rises by no
    more than rounding is accepted and ``lam`` shrinks tenfold; otherwise
    (non-finite residuals or an overflowing sum of squares count as infinite
    cost) ``lam`` grows tenfold.  ``fun(x)`` returns the residuals ``f`` and
    their Jacobian ``J`` at ``x``; a rejected trial's ``J`` goes unused.  Past the
    products with ``J`` and the solve, a step works on Python floats (2-4 parameters).
    """
    box = list(zip(*(np.asarray(b, dtype=float).tolist() for b in bounds)))
    xs = [min(max(xi, a), b) for xi, (a, b) in zip(np.asarray(x0, dtype=float).tolist(), box)]
    x = np.array(xs)
    f, J = fun(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("residuals are not finite at the initial point")
    cost, x_norm = 0.5 * float(f @ f), math.hypot(*xs)
    nfev, njev, lam, small = 1, 1, 1.0, False
    while nfev < _MAX_NFEV and not small:
        g, A = J.T @ f, J.T @ J
        free = [not (xi <= a and gi > 0 or xi >= b and gi < 0) for xi, gi, (a, b) in zip(xs, g.tolist(), box)]
        if not all(free):
            A, g = A[free][:, free], g[free]
        A.flat[::A.shape[0] + 1] = [d + lam * (d if d > 0 else 1.0) for d in A.diagonal().tolist()]
        solved = iter(np.linalg.solve(A, -g).tolist())
        xs_new = [min(max(xi + (next(solved) if fr else 0.0), a), b) for xi, fr, (a, b) in zip(xs, free, box)]
        x_new = np.array(xs_new)
        f_new, J_new = fun(x_new)
        nfev += 1
        with np.errstate(over="ignore"):
            ss = float(f_new @ f_new)
        cost_new = 0.5 * ss if math.isfinite(ss) else math.inf
        small = math.dist(xs_new, xs) <= 1e-10 * (1e-10 + x_norm)
        if cost - cost_new >= _ROUNDING_RISE * cost:
            x, xs, f, J, cost, x_norm = x_new, xs_new, f_new, J_new, cost_new, math.hypot(*xs_new)
            njev, lam = njev + 1, max(lam / 10.0, 1e-15)
        else:
            lam *= 10.0
    return LeastSquaresResult(x, cost, J, nfev, njev, 3 if small else 0)


def _nls(law, x, y, w, weighted, domain) -> FitResult:
    """Least squares of ``sqrt(w) (v - y)`` within ``law.bounds`` from ``law.initial(x, y, w)``,
    where ``v, J = law(*theta).linearize(x)``, the residual's Jacobian being ``sqrt(w) J``; the
    estimates are named after ``law``'s fields.  Unless ``weighted``
    (``w`` are inverse variances) the covariance is scaled by the residual variance.
    Flags: ``<field>_at_lower_boundary`` or ``_at_upper_boundary`` for an estimate within
    ``1e-6 max(1, |bound|)`` of a finite bound, ``stderr_undefined_zero_dof`` for NaN
    stderrs (unweighted, no residual dof), and ``jacobian_rank_deficient`` where the SVD
    drops a direction from the covariance."""
    sw = np.sqrt(w)

    def residual(theta):
        v, J = law(*theta.tolist()).linearize(x)
        return sw * (v - y), sw[:, None] * J

    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing trial is rejected, silently
        res = least_squares(residual, law.initial(x, y, w), law.bounds)
    rss = float(2.0 * res.cost)
    # diag(pinv(J^T J)) from one SVD of J, zeroing s_i^2 <= 1e-15 s_max^2 as pinv does
    _, sv, vt = np.linalg.svd(res.jac, full_matrices=False)
    kept = sv**2 > 1e-15 * sv[0] ** 2
    var = np.divide(1.0, sv**2, out=np.zeros_like(sv), where=kept) @ vt**2
    dof = len(x) - res.jac.shape[1]
    if not weighted:
        var = var * (rss / dof if dof > 0 else np.nan)
    stderr = np.sqrt(var)
    flags = []
    for f, e, lo, hi in zip(fields(law), res.x, *law.bounds):
        for side, bound in (("lower", lo), ("upper", hi)):
            if math.isfinite(bound) and abs(e - bound) <= 1e-6 * max(1.0, abs(bound)):
                flags.append(f"{f.name}_at_{side}_boundary")
    flags += ["stderr_undefined_zero_dof"] * (not weighted and dof <= 0)
    flags += ["jacobian_rank_deficient"] * (not kept.all())
    return FitResult(
        params={f.name: (float(e), float(se)) for f, e, se in zip(fields(law), res.x, stderr)},
        q_domain=domain,
        residual_norm=rss,
        converged=res.status > 0,
        flags=tuple(flags),
        nfev=int(res.nfev),
        status=int(res.status),
        jac_cond=float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf,
    )


# ---------------------------------------------------------------------------
# Moment-curve fits
# ---------------------------------------------------------------------------


def fit_monofractal(curve: QMomentCurve, q_range=(10.0, 20.0)) -> FitResult:
    """Through-origin regression ``ln tau = sum(q y) / sum(q^2)`` on the window, unweighted
    (the curve's stderrs go unused)."""
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
    """Weighted fit of the MF law ``y = q c0 + b |q|**(alpha/(alpha-1))``, started at
    ``alpha = 2`` with ``(c0, b)`` solved linearly on ``[q, q|q|]`` (:meth:`MFParams.initial`)."""
    return _nls(MFParams, *_window_points(curve, q_range, min_points=6))


def fit_hmf(curve: QMomentCurve, q_range=(0.0, 20.0)) -> FitResult:
    """Weighted fit of the HMF law ``y = q c0 + (b/b1)(1 - exp(-b1 |q|**(1/(alpha-1)))) |q|``,
    started at ``(alpha, b1) = (2, 0.2)`` with ``(c0, b)`` solved linearly on ``[q, exponent(q)]``
    (:meth:`HMFParams.initial`)."""
    q, y, w, weighted, domain = _window_points(curve, q_range, min_points=8)

    # a purely linear curve has b = 0 and leaves (alpha, b1) meaningless
    lin = float(np.dot(w * q, y) / np.dot(w * q, q))
    lin_resid = y - q * lin
    scale = max(float(np.max(np.abs(y))), 1e-300)
    if float(np.max(np.abs(lin_resid))) < 1e-12 * scale:
        raise ValueError(
            "curve is linear in q to working precision; the saturating component "
            "has b = 0 and (alpha, b1) are unidentifiable"
        )

    return _nls(HMFParams, q, y, w, weighted, domain)


# ---------------------------------------------------------------------------
# Survival-function fits
# ---------------------------------------------------------------------------

_SURVIVAL_LAWS = (QExponential, Weibull, StretchedSojourn)


def _survival_points(t_grid, psi_values, model_class):
    """The points of a survival function that ``model_class`` can be fitted to, as arrays;
    ``ValueError`` names the first rule they break."""
    t = np.asarray(t_grid, dtype=float)
    psi = np.asarray(psi_values, dtype=float)
    if t.ndim != 1 or psi.shape != t.shape:
        raise ValueError("t_grid and psi_values must be 1-d of equal length")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(psi))):
        raise ValueError("t_grid and psi_values must be finite")
    if np.any(np.diff(t) <= 0) or np.any(t < 0):
        raise ValueError("t_grid must be nonnegative and strictly increasing")
    if np.any(psi <= 0) or np.any(psi > 1):
        raise ValueError("psi_values must lie in (0, 1]")
    if np.any(np.diff(psi) > 0):
        raise ValueError("psi_values must be nonincreasing")
    if len(t) < len(fields(model_class)):
        raise ValueError("fewer points than parameters")
    return t, psi


def fit_sojourn(t_grid, psi_values, model_class) -> FitResult:
    """Least squares on ``ln Psi`` for one of the survival model classes.

    ``model_class`` is :class:`QExponential`, :class:`Weibull` or
    :class:`StretchedSojourn`.  The returned ``q_domain`` holds the fitted
    t-range.  A q-exponential fit at the exponential limit ``q_ts -> 1`` is
    flagged ``q_ts_at_lower_boundary``, as :func:`_nls` flags every estimate
    that ends on its bound.
    """
    if model_class not in _SURVIVAL_LAWS:
        raise TypeError(f"unknown survival model class: {model_class!r}")
    t, psi = _survival_points(t_grid, psi_values, model_class)
    return _nls(model_class, t, np.log(psi), np.ones_like(t), False, (float(t[0]), float(t[-1])))
