"""Parameter estimation on q-moment curves and survival functions.

Each fitted law is a frozen dataclass whose fields are its parameters in fit
order, carrying its values, its analytic ``jacobian`` and the
``bounds`` its fit searches: ``MFParams`` and
``HMFParams`` give the normalized log curve ``y(q) = ln(<t^q>/Gamma(1+q))``;
:class:`QExponential`, :class:`Weibull` and :class:`StretchedSojourn` give
``ln Psi(t)`` and their start ``initial(t, y)``.  Every iterative fit runs
through :func:`_nls`, which builds each law once per trial point and reuses it
for the Jacobian, and :func:`least_squares`, a projected Levenberg-Marquardt
method in numpy stopping at relative step 1e-10 or 500 evaluations.
Moment-curve residuals are weighted by inverse squared standard errors when
the curve carries them; survival residuals are unweighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import _BLOCK, FitResult, ModelDomainError, ModelParams, QMomentCurve, StretchedExp, _peak_nodes
from .densities import sojourn as _sojourn
from .moments import HMFParams, MFParams

__all__ = [
    "QExponential",
    "Weibull",
    "StretchedSojourn",
    "fit_monofractal",
    "fit_mf",
    "fit_hmf",
    "fit_sojourn",
]


# ---------------------------------------------------------------------------
# Survival models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QExponential:
    """Survival ``[1 + m (q_ts - 1) t]**(-1/(q_ts - 1))`` with ``q_ts > 1``."""

    m: float
    q_ts: float

    bounds = ((1e-12, 1.0 + 1e-9), (np.inf, 100.0))

    def __post_init__(self):
        if not self.m > 0:
            raise ModelDomainError("m must be positive")
        if not self.q_ts > 1:
            raise ModelDomainError("q_ts must exceed 1")

    def log_survival(self, t):
        k = self.q_ts - 1.0
        return -np.log1p(self.m * k * np.asarray(t, dtype=float)) / k

    def jacobian(self, t):
        k = self.q_ts - 1.0
        u = self.m * k * t
        dm = -t / (1.0 + u)
        dq = (np.log1p(u) - u / (1.0 + u)) / k ** 2
        return np.column_stack([dm, dq])

    @staticmethod
    def initial(t, y):
        """``m`` from the slope of ``ln Psi`` up to its first point below ``y[0]``
        (an empirical survival can tie over its first points), and ``q_ts = 1.5``."""
        moved = np.flatnonzero(y < y[0])
        slope0 = -(y[moved[0]] - y[0]) / (t[moved[0]] - t[0]) if moved.size else 1.0
        return (max(slope0, 1e-6), 1.5)


@dataclass(frozen=True)
class Weibull:
    """Survival ``exp(-a t**c)``."""

    a: float
    c: float

    bounds = ((1e-12, 1e-12), (np.inf, np.inf))

    def __post_init__(self):
        if not (self.a > 0 and self.c > 0):
            raise ModelDomainError("a and c must be positive")

    def log_survival(self, t):
        return -self.a * np.asarray(t, dtype=float) ** self.c

    def jacobian(self, t):
        tc = t ** self.c
        return np.column_stack([-tc, -self.a * tc * np.log(t, out=np.zeros(t.shape), where=t > 0)])

    @staticmethod
    def initial(t, y):
        """``(a, c)`` from a line through ``ln(-ln Psi)`` against ``ln t``."""
        init_mask = (y < 0) & (t > 0)
        if int(init_mask.sum()) < 2:
            return (1.0, 1.0)
        slope, intercept = np.polyfit(np.log(t[init_mask]), np.log(-y[init_mask]), 1)
        return float(np.clip(math.exp(intercept), 1e-10, 1e10)), float(np.clip(slope, 1e-3, 50.0))


@dataclass(frozen=True)
class StretchedSojourn:
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

    def log_survival(self, t):
        return np.log(_sojourn(t, self.params))

    def jacobian(self, t):
        """With ``E_c`` the mean on :func:`_peak_nodes` at ``c = t/tau0`` and ``bs = beta sigma``:
        ``d/dc0 = E_c[c e^(-bs y)]``, ``d/dln bs = bs E_c[c y e^(-bs y)]``, and at fixed ``bs``
        ``d/dalpha = E_0[|y|^alpha ln|y|] - E_c[|y|^alpha ln|y|]``, chained through ``bs(alpha, b)``.
        The ``c = 0`` node set rides in the first block with every ``t``."""
        alpha, bs, tau0 = self.alpha, self.params.weight.sigma, math.exp(self.c0)
        c = np.concatenate([[0.0], np.asarray(t, dtype=float) / tau0])
        m = np.empty((3, c.size))
        for i in range(0, c.size, _BLOCK):
            cb = c[i:i + _BLOCK]
            _g_max, y, w, point = _peak_nodes(alpha, 0.0, cb, bs)
            e, ay = cb[point, None] * np.exp(-bs * y), np.abs(y)
            total = np.bincount(point, w.sum(axis=1), cb.size)
            for k, f in enumerate((ay ** alpha * np.log(ay), bs * e * y, e)):
                m[k, i:i + _BLOCK] = np.bincount(point, (w * f).sum(axis=1), cb.size) / total
        d_alpha, d_log_bs = m[0, 0] - m[0, 1:], m[1, 1:]
        return np.column_stack([d_alpha + d_log_bs * math.log(self.b / (alpha - 1.0)) / alpha ** 2,
                                d_log_bs * (alpha - 1.0) / (alpha * self.b), m[2, 1:]])

    @staticmethod
    def initial(t, y):
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


@dataclass(frozen=True)
class LeastSquaresResult:
    """Where :func:`least_squares` stopped: the estimate ``x``, half the sum of
    squared residuals ``cost``, the Jacobian ``jac`` at ``x``, the residual
    evaluations ``nfev`` and Jacobian evaluations ``njev`` it made, and
    ``status`` 3 (relative step at most 1e-10) or 0 (``max_nfev`` used up)."""

    x: np.ndarray
    cost: float
    jac: np.ndarray
    nfev: int
    njev: int
    status: int


def least_squares(fun, x0, jac, bounds, max_nfev=500) -> LeastSquaresResult:
    """Minimize ``0.5 |fun(x)|^2`` within the box ``bounds = (lo, hi)`` by
    projected Levenberg-Marquardt (Marquardt 1963; Moré 1978).

    Each step solves ``(J^T J + lam D) p = -J^T f`` over the parameters not
    held at a bound by the gradient, with ``D = diag(J^T J)`` at the current
    point, and clips ``x + p`` to the box.  A trial whose cost rises by no
    more than rounding is accepted and ``lam`` shrinks tenfold; otherwise
    (non-finite residuals or an overflowing sum of squares count as infinite
    cost) ``lam`` grows tenfold.  ``jac(x)`` is the Jacobian of ``fun`` at
    ``x``, and is only called with the array ``fun`` was last called with.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    box = list(zip(lo.tolist(), hi.tolist()))
    x = np.minimum(np.maximum(np.asarray(x0, dtype=float), lo), hi)
    f = fun(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("residuals are not finite at the initial point")
    cost = 0.5 * float(f @ f)
    J = jac(x)
    nfev, njev, lam, status = 1, 1, 1.0, 0
    while nfev < max_nfev:
        g = J.T @ f
        # on 2-4 parameters a numpy call costs more than its arithmetic: test them as floats
        free = [not (xi <= a and gi > 0 or xi >= b and gi < 0)
                for xi, gi, (a, b) in zip(x.tolist(), g.tolist(), box)]
        free = slice(None) if all(free) else np.array(free)
        A = (J.T @ J)[free][:, free]
        d = A.diagonal()
        A.flat[::d.size + 1] = d + lam * np.where(d > 0, d, 1.0)
        step = np.zeros(x.shape)
        step[free] = np.linalg.solve(A, -g[free])
        x_new = np.minimum(np.maximum(x + step, lo), hi)
        f_new = fun(x_new)
        nfev += 1
        with np.errstate(over="ignore"):
            ss = float(f_new @ f_new)
        cost_new = 0.5 * ss if math.isfinite(ss) else math.inf
        dx = x_new - x
        small = math.sqrt(dx.dot(dx)) <= 1e-10 * (1e-10 + math.sqrt(x.dot(x)))
        if cost - cost_new >= _ROUNDING_RISE * cost:
            x, f, cost = x_new, f_new, cost_new
            J = jac(x)
            njev += 1
            lam = max(lam / 10.0, 1e-15)
        else:
            lam *= 10.0
        if small:
            status = 3
            break
    return LeastSquaresResult(x=x, cost=cost, jac=J, nfev=nfev, njev=njev, status=status)


def _nls(law, values, x, y, w, theta0, domain, weighted) -> FitResult:
    """Least squares of ``sqrt(w) (values(law(*theta), x) - y)`` within ``law.bounds``,
    naming the parameters after ``law``'s fields.  Unless ``weighted`` (``w``
    are inverse variances) the covariance is scaled by the residual variance.
    An estimate within ``1e-6 max(1, |bound|)`` of a finite bound is flagged
    ``<field>_at_lower_boundary`` or ``<field>_at_upper_boundary``."""
    sw = np.sqrt(w)
    last = [None, None]  # residual's last point and its law, on Python floats; jac reuses the law

    def residual(theta):
        last[:] = theta, law(*theta.tolist())
        return sw * (values(last[1], x) - y)

    def jac(theta):
        return sw[:, None] * (last[1] if theta is last[0] else law(*theta.tolist())).jacobian(x)

    res = least_squares(residual, theta0, jac=jac, bounds=law.bounds)
    rss = float(2.0 * res.cost)
    cov = np.linalg.pinv(res.jac.T @ res.jac)
    dof = len(x) - res.jac.shape[1]
    if not weighted:
        cov = cov * (rss / dof if dof > 0 else np.nan)
    with np.errstate(invalid="ignore"):
        stderr = np.sqrt(np.diag(cov))
    flags = []
    for f, e, lo, hi in zip(fields(law), res.x, *law.bounds):
        for side, bound in (("lower", lo), ("upper", hi)):
            if math.isfinite(bound) and abs(e - bound) <= 1e-6 * max(1.0, abs(bound)):
                flags.append(f"{f.name}_at_{side}_boundary")
    return FitResult(
        params={f.name: (float(e), float(se)) for f, e, se in zip(fields(law), res.x, stderr)},
        q_domain=domain,
        residual_norm=rss,
        converged=res.status > 0,
        flags=tuple(flags),
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
    """Weighted fit of the MF law ``y = q c0 + b |q|**(alpha/(alpha-1))``."""
    q, y, w, weighted, domain = _window_points(curve, q_range, min_points=6)
    theta0 = _power_law_init(q, y, w)
    return _nls(MFParams, MFParams.log_norm_moment, q, y, w, theta0, domain, weighted)


def fit_hmf(curve: QMomentCurve, q_range=(0.0, 20.0)) -> FitResult:
    """Weighted fit of the HMF law ``y = q c0 + (b/b1)(1 - exp(-b1 |q|**(1/(alpha-1)))) |q|``."""
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

    alpha0, c00, b0 = _power_law_init(q, y, w)
    b1_0 = 0.2
    # refine (c0, b) linearly with the shape (alpha0, b1_0) frozen
    sw = np.sqrt(w)
    phi0 = HMFParams(alpha0, c00, b0, b1_0).exponent(q)
    basis = np.column_stack([q, phi0]) * sw[:, None]
    coef, *_ = np.linalg.lstsq(basis, y * sw, rcond=None)
    theta0 = (alpha0, float(coef[0]), float(max(coef[1], 1e-3)), b1_0)
    return _nls(HMFParams, HMFParams.log_norm_moment, q, y, w, theta0, domain, weighted)


# ---------------------------------------------------------------------------
# Survival-function fits
# ---------------------------------------------------------------------------

_SURVIVAL_LAWS = (QExponential, Weibull, StretchedSojourn)


def fit_sojourn(t_grid, psi_values, model_class) -> FitResult:
    """Least squares on ``ln Psi`` for one of the survival model classes.

    ``model_class`` is :class:`QExponential`, :class:`Weibull` or
    :class:`StretchedSojourn`.  The returned ``q_domain`` holds the fitted
    t-range.  A q-exponential fit at the exponential limit ``q_ts -> 1`` is
    flagged ``q_ts_at_lower_boundary``, as :func:`_nls` flags every estimate
    that ends on its bound.
    """
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
    if model_class not in _SURVIVAL_LAWS:
        raise TypeError(f"unknown survival model class: {model_class!r}")
    if len(t) < len(fields(model_class)):
        raise ValueError("fewer points than parameters")
    y = np.log(psi)
    return _nls(model_class, model_class.log_survival, t, y, np.ones_like(t),
                model_class.initial(t, y), (float(t[0]), float(t[-1])), False)
