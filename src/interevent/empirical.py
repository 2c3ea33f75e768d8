"""Empirical pipeline: ingestion, q-moment and survival estimation, collapse diagnostics.

The collapse diagnostics rewrite a normalized log-moment curve so that data
generated by a given moment law lands on a known reference shape: a flat
line at 1 for the single-scale (monofractal) law, the identity line for the
multifractal law, and ``1 - exp(-x)`` for the saturating variant.  Points
where a diagnostic is undefined (q = 0, or q < 0 where only positive orders
make sense) are returned as NaN so the caller can see exactly what was
skipped; CLI output filters them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _EXPORTS
from .core import (
    EventSeries,
    IngestError,
    ModelDomainError,
    QMomentCurve,
    _check_q_grid,
    _lgamma1p,
    _shape_like,
)

if TYPE_CHECKING:  # annotations only, so estimating a curve does not load the moment laws
    from .moments import HMFParams, MFParams

__all__ = list(_EXPORTS["empirical"])

# 0 to 20 in steps of 0.1, q = 0 pinned exactly
DEFAULT_Q_GRID = np.linspace(0.0, 20.0, 201)

# the q-moment ladder (_log_power_means): a fresh exp at least every _LADDER_REFRESH orders,
# and wherever an order lies more than _LADDER_TOL |p| off the ladder
_LADDER_REFRESH = 32
_LADDER_TOL = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class IngestOptions:
    """How raw records become durations.

    ``input_kind`` is ``"durations"`` (pass-through) or ``"timestamps"``
    (successive differences).  ``min_duration`` is a resolution floor; the
    default 0 drops only non-positive intervals.  ``gap_cutoff``, when set,
    drops intervals longer than the cutoff as session breaks.
    """

    input_kind: str = "durations"
    gap_cutoff: float | None = None
    min_duration: float = 0.0

    def __post_init__(self):
        if self.input_kind not in ("durations", "timestamps"):
            raise ValueError("input_kind must be 'durations' or 'timestamps'")
        if not self.min_duration >= 0:
            raise ValueError("min_duration must be nonnegative")
        if self.gap_cutoff is not None and not self.gap_cutoff > self.min_duration:
            raise ValueError("gap_cutoff must exceed min_duration")


def ingest(records, opts: IngestOptions = IngestOptions()) -> EventSeries:
    """Turn raw records into an :class:`EventSeries`, counting what was dropped.

    Timestamps must be monotone nondecreasing; the first offending index is
    reported otherwise.  Drops (non-positive, below the floor, beyond the
    session cutoff) are tallied per reason, order is preserved.
    """
    arr = np.asarray(records, dtype=float)
    if arr.ndim != 1:
        raise IngestError("records must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        idx = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise IngestError(f"non-finite record at index {idx}", index=idx)
    if opts.input_kind == "timestamps":
        if arr.size < 2:
            raise IngestError("need at least two timestamps")
        diffs = np.diff(arr)
        if np.any(diffs < 0):
            idx = int(np.flatnonzero(diffs < 0)[0]) + 1
            raise IngestError(f"timestamps decrease at index {idx}", index=idx)
        durations = diffs
    else:
        durations = arr

    dropped: dict[str, int] = {}
    keep = np.ones(durations.shape, dtype=bool)

    non_positive = durations <= 0
    if np.any(non_positive):
        dropped["non_positive"] = int(non_positive.sum())
        keep &= ~non_positive
    if opts.min_duration > 0:
        below = keep & (durations < opts.min_duration)
        if np.any(below):
            dropped["below_min_duration"] = int(below.sum())
            keep &= ~below
    if opts.gap_cutoff is not None:
        breaks = keep & (durations > opts.gap_cutoff)
        if np.any(breaks):
            dropped["session_break"] = int(breaks.sum())
            keep &= ~breaks

    return EventSeries(durations=durations[keep], source=opts.input_kind, dropped=dropped)


def empirical_qmoments(series: EventSeries, q_grid=None) -> QMomentCurve:
    """Normalized log moments ``ln(<t^q>/Gamma(1+q))`` from shifted power sums.

    ``ln <t^p>`` is taken once for each distinct order of ``{q} U {2q}`` by
    :func:`_log_power_means`, whose analytic shift keeps orders up to 20 on
    second-to-day durations inside float range.  It shifts the log-durations
    this function owns in place, and walks evenly spaced orders as a ladder
    of multiplies with a fresh ``exp`` at least every 32 orders, which moves a
    mean by at most ``(8 |p| span + 32) eps`` relative.  Delta-method standard errors
    of each log value, ``sqrt((<t^{2q}>/<t^q>^2 - 1)/N)``, ride along for
    weighted fitting, as does the effective sample size
    ``n_eff = N <t^q>^2/<t^{2q}>`` of each order.  The grid is checked before
    any power sum is taken.
    """
    if len(series) == 0:
        raise ValueError("cannot estimate moments of an empty series")
    q = np.atleast_1d(np.asarray(DEFAULT_Q_GRID if q_grid is None else q_grid, dtype=float))
    _check_q_grid(q)
    log_t = np.log(series.durations)
    n = log_t.size
    orders, where = np.unique(np.concatenate((q, 2.0 * q)), return_inverse=True)
    log_means = _log_power_means(log_t, orders)[where]
    log_mean, log_mean2 = log_means[: q.size], log_means[q.size :]
    values = log_mean - _lgamma1p(q)
    values[q == 0.0] = 0.0
    ratio = np.exp(np.minimum(log_mean2 - 2.0 * log_mean, 700.0))
    stderr = np.sqrt(np.maximum(ratio - 1.0, 0.0) / n)
    # the exact ratio lies in [1, N]; clipping removes only rounding
    n_eff = n / np.clip(ratio, 1.0, n)
    return QMomentCurve(
        q_grid=q, log_norm_moment=values, n_samples=n, stderr=stderr, n_eff=n_eff
    )


def _log_power_means(log_t: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """``ln mean(t^p)`` for each order p of the ascending ``orders``, given ``log_t = ln t``.

    Each power sum is shifted analytically, ``sum t^p = e^(p s) sum e^(p (ln t - s))``
    with ``s = max(ln t)`` for p >= 0 and ``s = min(ln t)`` for p < 0.  Every
    exponent is then <= 0 and the largest term is exactly 1, so the sum lies
    in [1, N] and neither overflows nor underflows.  ``log_t`` is shifted in
    place (the caller hands over an array it owns), so the kernel holds three
    length-N arrays: ``log_t``, the term and a step.

    The orders are walked as a ladder, the negative ones from 0 down and the
    rest up, so that every term shrinks along it.  On evenly spaced orders
    ``e^(p x) = e^(p' x) e^(gap x)``, so an order costs one in-place multiply
    by the step ``e^(gap x)`` instead of an ``exp``.  A fresh ``e^(p x)`` is
    taken at the first order of each shift, at least every
    ``_LADDER_REFRESH`` (K) orders, and wherever an order lies more than
    ``_LADDER_TOL |p|`` off ``base + j gap`` (float grid gaps differ in their
    last bits).  An exponent along the ladder is then off ``p x`` by about
    ``8 eps |p x|``, and each multiply adds one rounding, so a mean moves from
    the one-``exp``-per-order result by at most ``(8 |p| span + K) eps``
    relative, ``span`` the range of ``ln t``.  A grid with no repeated gaps
    takes one ``exp`` per order.  On a 2-vCPU Xeon (numpy 2.4.6, best of 21)
    2*10^4 events x 54 orders take 0.50 ms with 5 ``exp`` (0.91 ms with one
    per order), 2*10^5 x 301 38 ms (62) and 10^6 x 301 224 ms (355).
    """
    hi, lo = float(log_t.max()), float(log_t.min())
    term = np.empty_like(log_t)
    step = np.empty_like(log_t)
    out = np.empty(orders.shape)
    ps = orders.tolist()
    neg = int(np.searchsorted(orders, 0.0))
    shift, base, gap, j = 0.0, None, None, 0
    for i in [*range(neg - 1, -1, -1), *range(neg, len(ps))]:
        p = ps[i]
        s = lo if p < 0.0 else hi
        if s != shift:
            np.subtract(log_t, s - shift, out=log_t)
            shift, base, gap = s, None, None
        off = gap is None or abs(p - (base + (j + 1) * gap)) > _LADDER_TOL * abs(p)
        if base is None or j + 1 >= _LADDER_REFRESH or (off and j):
            np.multiply(log_t, p, out=term)
            np.exp(term, out=term)
            base, j = p, 0
        else:
            if off:  # the first step from a fresh term sets the gap
                gap = p - base
                np.multiply(log_t, gap, out=step)
                np.exp(step, out=step)
            term *= step
            j += 1
        out[i] = p * s + math.log(term.sum())
    return out - math.log(log_t.size)


def empirical_sojourn(series: EventSeries, t_grid):
    """Fraction of durations exceeding each grid time (the survival estimate)."""
    if len(series) == 0:
        raise ValueError("cannot estimate the survival function of an empty series")
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(np.isnan(t)):
        raise ValueError("t_grid must not contain NaN")
    if np.any(t < 0):
        raise ModelDomainError("t_grid must be nonnegative")
    with np.errstate(invalid="ignore"):  # inf - inf
        increasing = np.all(np.diff(t) > 0)
    if not increasing:
        raise ValueError("t_grid must be strictly increasing")
    ordered = np.sort(series.durations)
    n = ordered.size
    exceed = n - np.searchsorted(ordered, t, side="right")
    psi = exceed / n
    return _shape_like(psi, np.asarray(t_grid))


# ---------------------------------------------------------------------------
# Collapse diagnostics
# ---------------------------------------------------------------------------


def rescaled_log_moment(curve: QMomentCurve, tau_char: float, theta: float) -> np.ndarray:
    """Log of the moment curve rescaled from its own time unit onto a common one.

    ``curve(q) + q (ln theta - ln tau_char)``: datasets following the same
    single-scale law with different characteristic times collapse onto
    ``q ln(theta)``.
    """
    if not (tau_char > 0 and theta > 0):
        raise ModelDomainError("tau_char and theta must be positive")
    return curve.log_norm_moment + curve.q_grid * (math.log(theta) - math.log(tau_char))


def mono_collapse(curve: QMomentCurve, tau_char: float) -> np.ndarray:
    """``curve(q) / (q ln(tau_char))``: 1 at every q for a single-scale law.

    q = 0 points are undefined and returned as NaN.
    """
    if not tau_char > 0:
        raise ModelDomainError("tau_char must be positive")
    ln_tau = math.log(tau_char)
    if ln_tau == 0.0:
        raise ModelDomainError("mono_collapse is undefined for ln(tau_char) = 0")
    q = curve.q_grid
    out = np.full(q.shape, np.nan)
    ok = q != 0.0
    out[ok] = curve.log_norm_moment[ok] / (q[ok] * ln_tau)
    return out


def _excess(curve: QMomentCurve, c0: float, factor: float = 1.0) -> np.ndarray:
    # factor * (curve(q)/q - c0) on q > 0, NaN elsewhere: the MF/HMF law solved for its exponent term
    q = curve.q_grid
    out = np.full(q.shape, np.nan)
    ok = q > 0.0
    out[ok] = factor * (curve.log_norm_moment[ok] / q[ok] - c0)
    return out


def mf_collapse(curve: QMomentCurve, p: MFParams) -> np.ndarray:
    """``curve(q)/q - c0``: equals ``b q^(1/(alpha-1))`` exactly on a multifractal curve.

    Only q > 0 is meaningful; other points come back NaN.
    """
    return _excess(curve, p.c0)


def hmf_collapse(curve: QMomentCurve, p: HMFParams) -> np.ndarray:
    """``(b1/b)(curve(q)/q - c0)``: lies on ``1 - exp(-x)`` for a saturating curve,
    with ``x = b1 q^(1/(alpha-1))``.  Only q > 0; other points NaN."""
    return _excess(curve, p.c0, p.b1 / p.b)


def transformed_moment(curve: QMomentCurve, p: HMFParams) -> np.ndarray:
    """``b1 (curve(q)/q - c0)``, i.e. ``b * hmf_collapse``: linear in b across datasets."""
    return _excess(curve, p.c0, p.b1)


def scale_q(q, market: HMFParams, reference: HMFParams):
    """Order rescaling that maps a market's saturating curve onto the reference's.

    ``q_hat = (b1_ref/b1_mkt)**(alpha_mkt - 1) * q**((alpha_mkt-1)/(alpha_ref-1))``,
    so that ``b1_mkt * q_hat**(1/(alpha_mkt-1)) = b1_ref * q**(1/(alpha_ref-1))``:
    the market curve evaluated at ``q_hat`` sits where the reference curve
    sits at ``q``.
    """
    arr = np.asarray(q, dtype=float)
    if np.any(arr <= 0):
        raise ModelDomainError("order rescaling needs q > 0")
    factor = (reference.b1 / market.b1) ** (market.alpha - 1.0)
    expo = (market.alpha - 1.0) / (reference.alpha - 1.0)
    return _shape_like(factor * arr ** expo, arr)
