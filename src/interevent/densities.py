"""Waiting-time density, survival probability, mean time, and phase label.

For a weight density ``rho(eps)`` the unconditional waiting-time density is

    psi(t) = int rho(eps) * exp(-t / tau(eps)) / tau(eps) deps,

with ``tau(eps) = tau0 * exp(beta * eps)``, and the survival function
``Psi(t)`` is the same integral without the factor ``1/tau(eps)``.  Each weight
class in :mod:`.core` supplies both as one method, ``mixture(x, tau0, beta, k)``
at ``k = 1`` and ``k = 0``, and :func:`ptd` and :func:`sojourn` pass it the whole
raveled grid in one call: closed forms in numpy for Delta and Uniform weights,
and for the stretched-exponential weight a fixed tanh-sinh rule on each side of
the weight's centre, whose peak and cut searches run on the whole grid at once.
The Laplace weight is the stretched weight at ``alpha = 1`` and takes that rule.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
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
    _shape_like,
)
from .moments import moment

__all__ = list(_EXPORTS["densities"])


class Phase(enum.Enum):
    HIGH_TEMPERATURE = "HighTemperature"
    CRITICAL = "Critical"
    LOW_TEMPERATURE = "LowTemperature"


@dataclass(frozen=True)
class PhaseLabel:
    """Finite-mean classification, with the tail exponent where a power law exists."""

    kind: Phase
    tail_exponent: float | None = None


def _map_times(kernel, t):
    # the whole raveled grid goes to the family's mixture in one call; past the float range, inf
    arr = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise ModelDomainError("t must be finite and nonnegative")
    with np.errstate(over="ignore"):
        out = kernel(arr.ravel())
    return _shape_like(out, arr)


def ptd(t, params: ModelParams):
    """Waiting-time density ``psi(t)``.

    Accepts a scalar or array of times ``t >= 0``.  The value at t = 0 is the
    exact limit; it is ``inf`` where the density diverges at the origin
    (Laplace weight with beta*sigma >= 1, stretched weight with alpha <= 1
    in its divergent range).  The stretched weight is integrated numerically
    by one fixed tanh-sinh rule, within 1e-13 relative of 30-digit references
    at short and long times, but off up to 1.8e-11 at mid times (beta*sigma
    = 0.6, t = 24, alpha 1.2 and 1.5).  The Laplace weight takes the same rule at
    ``alpha = 1``, measured within 2.8e-12 of 30-digit references at its
    pins and 5e-11 over beta*sigma 0.1 to 2 and t 3 to 100 (the worst near
    t = 20, where the closed form it replaced was within 1e-15 except where
    1/(beta*sigma) is near an integer).  Delta and Uniform weights are
    closed forms.
    """
    return _map_times(lambda x: params.weight.mixture(x, params.tau0, params.beta, 1), t)


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
    return _shape_like(pref * (tau0 / arr) ** delta, arr)


def sojourn(t, params: ModelParams):
    """Survival probability ``Psi(t) = P(waiting time > t)``, in [0, 1], to :func:`ptd`'s accuracy."""
    # the stretched rule's quadrature of exp(-|y|^alpha) need not reproduce its normalization to the
    # last bit: at short times Psi overshoots 1 by up to 9e-16 (alpha 0.5; 4e-16 at 0.8 and 5)
    return _map_times(
        lambda x: np.clip(params.weight.mixture(x, params.tau0, params.beta, 0), 0.0, 1.0), t)


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
