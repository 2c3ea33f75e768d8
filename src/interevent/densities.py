"""Waiting-time density, survival probability, mean time, and phase label.

For a weight density ``rho(eps)`` the unconditional waiting-time density is

    psi(t) = int rho(eps) * exp(-t / tau(eps)) / tau(eps) deps,

with ``tau(eps) = tau0 * exp(beta * eps)``.  Each weight class in :mod:`.core`
supplies this integral as a map over an array of times, and :func:`ptd` and
:func:`sojourn` pass it the whole raveled grid in one call: closed forms,
applied time by time, for Delta, Uniform and Laplace weights, and for the
stretched-exponential weight a fixed tanh-sinh rule on each side of the
weight's centre, whose peak and cut searches run on the whole grid at once.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    AsymptoticRangeWarning,
    DivergentMomentError,
    Laplace,
    ModelDomainError,
    ModelParams,
    NoFiniteMeanError,
    UnsupportedModelError,
    _lgamma,
    _log_peak_quad,  # noqa: F401  kept for bench/workloads.py, which patches this name
)
from .moments import moment

__all__ = [
    "Phase",
    "PhaseLabel",
    "ptd",
    "ptd_tail",
    "sojourn",
    "characteristic_time",
    "phase",
]


class Phase(enum.Enum):
    HIGH_TEMPERATURE = "HighTemperature"
    CRITICAL = "Critical"
    LOW_TEMPERATURE = "LowTemperature"


@dataclass(frozen=True)
class PhaseLabel:
    """Finite-mean classification, with the tail exponent where a power law exists."""

    kind: Phase
    tail_exponent: float | None = None


def _map_times(fn, t):
    # the whole raveled grid goes to the family's array map in one call
    arr = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise ModelDomainError("t must be finite and nonnegative")
    out = fn(arr.ravel())
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def ptd(t, params: ModelParams):
    """Waiting-time density ``psi(t)``.

    Accepts a scalar or array of times ``t >= 0``.  The value at t = 0 is the
    exact limit; it is ``inf`` where the density diverges at the origin
    (Laplace weight with beta*sigma >= 1, stretched weight with alpha <= 1
    in its divergent range).  The stretched weight is integrated numerically
    by one fixed tanh-sinh rule, within 1e-13 relative of 30-digit references
    at the pinned points; the other families are closed forms.
    """
    return _map_times(params.weight.ptd_kernel(params.tau0, params.beta), t)


def ptd_tail(t, params: ModelParams):
    """Power-law tail ``(Gamma(1 + 1/(sigma*beta)) / (2 sigma beta tau0)) * (tau0/t)**(1 + 1/(sigma*beta))``.

    Laplace weight only.  Valid deep in the tail; evaluating at t < 10*tau0
    raises :class:`AsymptoticRangeWarning` but still returns the formula.
    """
    w = params.weight
    if not isinstance(w, Laplace):
        raise UnsupportedModelError("the power-law tail form exists only for the Laplace weight")
    sb = params.beta * w.sigma
    tau0 = params.tau0
    arr = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0):
        raise ModelDomainError("tail evaluation needs t > 0")
    if np.any(arr < 10.0 * tau0):
        warnings.warn(
            "tail form evaluated at t < 10*tau0; the asymptote may not have set in",
            AsymptoticRangeWarning,
            stacklevel=2,
        )
    delta = 1.0 + 1.0 / sb
    pref = math.exp(_lgamma(delta)) / (2.0 * sb * tau0)
    out = pref * (tau0 / arr) ** delta
    return float(out) if arr.ndim == 0 else out


def _clamp_unit(v):
    # cancellation in the E1/quadrature branches can overshoot by ~1e-13
    if isinstance(v, np.ndarray):
        return np.clip(v, 0.0, 1.0)
    return min(1.0, max(0.0, v))


def sojourn(t, params: ModelParams):
    """Survival probability ``Psi(t) = P(waiting time > t)``, in [0, 1], to :func:`ptd`'s accuracy."""
    return _clamp_unit(_map_times(params.weight.sojourn_kernel(params.tau0, params.beta), t))


def characteristic_time(params: ModelParams) -> float:
    """Mean waiting time where it exists; raises :class:`NoFiniteMeanError` otherwise."""
    try:
        return moment(1.0, params)
    except DivergentMomentError as e:
        raise NoFiniteMeanError(f"mean waiting time diverges: {e}") from e


def phase(params: ModelParams) -> PhaseLabel:
    """Finite-mean phase classification.

    Only the Laplace weight has a transition: the mean exists for
    beta*sigma < 1, the boundary beta*sigma == 1 (compared exactly as
    supplied) is critical, and beyond it rare deep traps dominate.  The tail
    exponent 1 + 1/(sigma*beta) of the density's power law rides along.
    """
    w = params.weight
    if isinstance(w, Laplace):
        sb = params.beta * w.sigma
        exponent = 1.0 + 1.0 / sb
        if sb < 1.0:
            return PhaseLabel(Phase.HIGH_TEMPERATURE, exponent)
        if sb == 1.0:
            return PhaseLabel(Phase.CRITICAL, exponent)
        return PhaseLabel(Phase.LOW_TEMPERATURE, exponent)
    return PhaseLabel(Phase.HIGH_TEMPERATURE, None)
